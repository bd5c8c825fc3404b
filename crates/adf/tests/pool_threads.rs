//! The simulation's worker threads, counted by the operating system.
//!
//! A multi-threaded [`MobileGridSim`] starts its pool's workers once, when
//! it is built, caps them at one fewer than its shard count, and joins them
//! when it is dropped. This binary holds a single test, so no other test
//! starts or ends threads while it reads `Threads:` from
//! `/proc/self/status`.

#![cfg(target_os = "linux")]

use mobigrid_adf::{AdaptiveDistanceFilter, AdfConfig, MobileGridSim, MobileNode, SimBuilder};
use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::{Point, Polyline};
use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower};
use mobigrid_wireless::MnId;

/// The process's current thread count, as the kernel reports it.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

fn sim(nodes: u32, threads: usize) -> MobileGridSim {
    let nodes = (0..nodes)
        .map(|id| {
            let y = f64::from(id) * 10.0;
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(2000.0, y)])
                .expect("two distinct points");
            MobileNode::new(
                MnId::new(id),
                RegionId::from_index(6),
                RegionKind::Road,
                NodeType::Human,
                MobilityPattern::Linear,
                PathFollower::new(path, 1.0 + f64::from(id % 5), LoopMode::PingPong),
                u64::from(id),
            )
        })
        .collect();
    SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid config"))
        .threads(threads)
        .build()
        .expect("valid simulation")
}

#[test]
fn workers_start_once_are_capped_by_shards_and_join_on_drop() {
    let baseline = os_threads();

    // Three two-thread sims: one persistent worker each, however many
    // ticks they run.
    let mut sims: Vec<MobileGridSim> = (0..3).map(|_| sim(140, 2)).collect();
    assert_eq!(os_threads(), baseline + 3);
    for sim in &mut sims {
        for _ in 0..20 {
            sim.step();
        }
    }
    assert_eq!(os_threads(), baseline + 3, "ticks must not spawn threads");
    drop(sims);
    assert_eq!(os_threads(), baseline, "dropping a sim joins its workers");

    // A budget of 8 on 140 nodes: 3 shards of 64, so at most 3 threads
    // take part and only 2 workers start; the budget is still reported.
    let mut capped = sim(140, 8);
    assert_eq!(capped.threads(), 8);
    assert_eq!(os_threads(), baseline + 2);
    capped.step();
    drop(capped);
    assert_eq!(os_threads(), baseline);

    // One shard runs inline: no worker at all.
    let mut inline = sim(10, 4);
    assert_eq!(os_threads(), baseline);
    inline.step();
    assert_eq!(os_threads(), baseline);
}

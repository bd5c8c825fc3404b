//! Proof that the steady-state tick path is allocation-free.
//!
//! A counting global allocator wraps [`std::alloc::System`] and tallies
//! every `alloc`/`alloc_zeroed`/`realloc`: on a thread-local counter for
//! the calling thread, and on one process-wide counter for the worker
//! threads of a [`mobigrid_pool::Workers`] pool. After warming a 140-node
//! ADF simulation past its one-time setup (first-contact broker
//! registrations, classifier-window fill, initial clustering, high-water
//! marks of the reused scratch buffers), every further
//! [`MobileGridSim::step`] must leave the counters untouched — at one
//! thread, and at two, where the pool's persistent worker runs shards
//! beside the caller.
//!
//! Scope of the claim, as documented in `DESIGN.md` ("Tick memory model"):
//!
//! * **between reclusterings** — the periodic BSAS recluster rebuilds the
//!   cluster set and legitimately allocates, so the measured window is
//!   placed strictly between recluster ticks.
//! * **synthetic mobility** — `PathFollower`/`StopModel` ground truth; the
//!   campus workload's occasional route re-planning allocates by design.
//!
//! This lives in its own integration-test binary because installing a
//! `#[global_allocator]` is process-wide and needs `unsafe`, which the
//! bench library itself forbids.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mobigrid_adf::{AdaptiveDistanceFilter, AdfConfig, MobileGridSim, MobileNode, SimBuilder};
use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::{Point, Polyline};
use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower, StopModel};
use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind, MnId};

/// Counts allocations made by the current thread. Frees are deliberately
/// not counted: a steady-state tick must not *request* memory; returning
/// it would equally be a violation of "no heap traffic", but alloc-side
/// counting alone already catches every alloc/free pair.
struct CountingAllocator;

thread_local! {
    // `const` init keeps first access from allocating (lazy TLS would
    // recurse into the allocator under measurement).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made on pool worker threads, process-wide. Only
/// `two_thread_ticks_do_not_allocate` starts workers in this binary.
static WORKER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_allocation() {
    if mobigrid_pool::is_worker_thread() {
        WORKER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    } else {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
    }
}

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn worker_allocation_count() -> u64 {
    WORKER_ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc`'s contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `realloc`'s contract, and `ptr` came
        // from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract, and `ptr` came
        // from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn walker(id: u32, speed: f64) -> MobileNode {
    let y = f64::from(id) * 10.0;
    let path = Polyline::new(vec![Point::new(0.0, y), Point::new(2000.0, y)])
        .expect("two distinct points");
    MobileNode::new(
        MnId::new(id),
        RegionId::from_index(6),
        RegionKind::Road,
        NodeType::Human,
        MobilityPattern::Linear,
        PathFollower::new(path, speed, LoopMode::PingPong),
        u64::from(id),
    )
}

fn parked(id: u32) -> MobileNode {
    MobileNode::new(
        MnId::new(id),
        RegionId::from_index(0),
        RegionKind::Building,
        NodeType::Human,
        MobilityPattern::Stop,
        StopModel::new(Point::new(500.0, f64::from(id) * 10.0)),
        u64::from(id),
    )
}

/// A 140-node ADF simulation on `threads` threads with an access network,
/// like the paper's evaluation but over allocation-free synthetic
/// mobility. The recluster interval is pushed past the measured window so
/// the test pins the *steady state* between reclusterings.
fn steady_state_sim(threads: usize) -> MobileGridSim {
    let nodes: Vec<MobileNode> = (0..140u32)
        .map(|i| {
            if i % 4 == 3 {
                parked(i)
            } else {
                walker(i, 0.5 + f64::from(i % 7))
            }
        })
        .collect();
    let adf = AdfConfig {
        recluster_interval: 10_000,
        ..AdfConfig::new(1.0)
    };
    let network = AccessNetwork::new(vec![Gateway::new(
        0,
        GatewayKind::BaseStation,
        Point::new(1000.0, 700.0),
        10_000.0,
    )]);
    SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(adf).expect("valid config"))
        .network(network)
        .threads(threads)
        .build()
        .expect("valid simulation")
}

#[test]
fn post_warmup_ticks_do_not_allocate() {
    let mut sim = steady_state_sim(1);

    // Warmup: classifier windows fill, the initial clustering runs, every
    // node makes first contact with the brokers and the network, and the
    // scratch buffers reach their high-water capacity.
    for _ in 0..60 {
        sim.step();
    }

    let before = allocation_count();
    let mut sent = 0u64;
    for _ in 0..30 {
        sent += u64::from(sim.step().sent);
    }
    let allocations = allocation_count() - before;

    assert_eq!(
        allocations, 0,
        "steady-state ticks allocated {allocations} times"
    );
    // The window did real work: the filter let some updates through and
    // the network carried them.
    assert!(sent > 0, "measured window transmitted nothing");
    assert!(sim.network().expect("attached").meter().messages() > 0);
}

/// The same steady state at two threads: the caller and the pool's one
/// persistent worker share the shards of every parallel region, and
/// neither side allocates — no spawn, no per-region scaffolding.
#[test]
fn two_thread_ticks_do_not_allocate() {
    let mut sim = steady_state_sim(2);
    assert_eq!(sim.threads(), 2);
    for _ in 0..60 {
        sim.step();
    }

    let before = (allocation_count(), worker_allocation_count());
    let mut sent = 0u64;
    for _ in 0..30 {
        sent += u64::from(sim.step().sent);
    }
    let on_caller = allocation_count() - before.0;
    let on_workers = worker_allocation_count() - before.1;

    assert_eq!(
        (on_caller, on_workers),
        (0, 0),
        "two-thread steady-state ticks allocated (caller, workers) times"
    );
    assert!(sent > 0, "measured window transmitted nothing");
}

/// The telemetry hooks must not cost the tick path its zero-allocation
/// property: with the default no-op recorder explicitly installed,
/// [`MobileGridSim::step_recorded`] is the same allocation-free loop as
/// [`MobileGridSim::step`].
#[test]
fn post_warmup_recorded_ticks_with_noop_recorder_do_not_allocate() {
    use mobigrid_telemetry::NoopRecorder;
    let mut sim = steady_state_sim(1);
    let mut rec = NoopRecorder;
    for _ in 0..60 {
        sim.step_recorded(&mut rec);
    }

    let before = allocation_count();
    let mut sent = 0u64;
    for _ in 0..30 {
        sent += u64::from(sim.step_recorded(&mut rec).sent);
    }
    let allocations = allocation_count() - before;

    assert_eq!(
        allocations, 0,
        "steady-state recorded ticks allocated {allocations} times"
    );
    assert!(sent > 0, "measured window transmitted nothing");
}

/// The columnar (SoA) engine is what makes the steady state allocation-
/// free, and this pins it directly: a population big enough for several
/// full 64-node shards plus a ragged tail, mixing enum-dispatched engine
/// variants, must sweep its position/RNG/engine columns without a single
/// allocation — no boxing in the dispatch, no per-tick column growth, no
/// scratch reallocation at shard boundaries.
#[test]
fn columnar_shard_sweep_does_not_allocate() {
    use mobigrid_mobility::MobilityKind;

    // 203 nodes = 3 full shards + a 11-node ragged tail.
    let nodes: Vec<MobileNode> = (0..203u32)
        .map(|i| {
            if i % 3 == 0 {
                parked(i)
            } else {
                walker(i, 0.75 + f64::from(i % 5))
            }
        })
        .collect();
    let adf = AdfConfig {
        recluster_interval: 10_000,
        ..AdfConfig::new(1.0)
    };
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(adf).expect("valid config"))
        .threads(1)
        .build()
        .expect("valid simulation");

    // This is really the columnar engine: the enum-dispatched kind column
    // spans both variants and the shard count covers a ragged tail.
    let kinds = sim.columns().mobility_kinds();
    assert!(kinds.contains(&MobilityKind::Path));
    assert!(kinds.contains(&MobilityKind::Stop));
    assert_eq!(sim.columns().len(), 203);

    for _ in 0..60 {
        sim.step();
    }

    let before = allocation_count();
    for _ in 0..30 {
        sim.step();
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "columnar shard sweep allocated"
    );
}

#[test]
fn warmup_is_where_the_allocations_happen() {
    // Sanity check on the methodology: the same counter does see the
    // build and warmup phase allocate, so a zero reading above is a real
    // property of the steady state, not a broken counter.
    let before = allocation_count();
    let mut sim = steady_state_sim(1);
    sim.step();
    assert!(
        allocation_count() > before,
        "building and first-stepping the sim must allocate"
    );
}

//! `Workers` starts its threads once and joins them on drop, as the
//! operating system counts them. This binary holds a single test, so no
//! other test starts or ends threads while it reads `Threads:` from
//! `/proc/self/status`.

#![cfg(target_os = "linux")]

use mobigrid_pool::Workers;

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

#[test]
fn workers_are_spawned_once_and_joined_on_drop() {
    let baseline = os_threads();
    let pools = [Workers::new(3), Workers::new(2), Workers::new(1)];
    assert_eq!(
        os_threads(),
        baseline + 3,
        "n participants spawn n - 1 threads"
    );
    for pool in &pools {
        for _ in 0..100 {
            pool.broadcast(&|_| {});
        }
    }
    assert_eq!(os_threads(), baseline + 3, "broadcasts spawn nothing");
    drop(pools);
    assert_eq!(os_threads(), baseline, "drop joins every worker");
}

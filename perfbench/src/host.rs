//! How much of the CPU it asked for the hypervisor gave this guest.
//!
//! On a shared host another guest can run on this guest's CPUs while a
//! thread here is ready: Linux counts that time as *steal* in
//! `/proc/stat`. It comes in bursts, and a timing taken in one is longer
//! than the program made it. So the benchmark cuts each timing series into
//! ~200 ms blocks, ranks the blocks by the share of the wanted CPU time the
//! host gave (busy ÷ (busy + steal)), and keeps the best blocks that
//! together hold half the samples. Without `/proc/stat` every block ranks
//! alike and the first half of the series is kept.

use std::time::{Duration, Instant};

/// Length of the blocks a [`ShareClock`] cuts the timings into.
const BLOCK: Duration = Duration::from_millis(200);

/// Cumulative CPU time of all this guest's CPUs, in 1/100 s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time spent running anything (user, nice, system, irq, softirq).
    busy: u64,
    /// Time a CPU was ready but the hypervisor ran another guest.
    steal: u64,
}

impl CpuTimes {
    /// The current totals, or `None` where `/proc/stat` is missing.
    #[must_use]
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal ...
        let busy = [0, 1, 2, 5, 6]
            .iter()
            .map(|&i| fields.get(i))
            .sum::<Option<u64>>()?;
        Some(CpuTimes {
            busy,
            steal: *fields.get(7)?,
        })
    }

    /// The share of the CPU time wanted since `earlier` that the guest got.
    #[must_use]
    pub fn share_since(self, earlier: Self) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        if busy + steal == 0.0 {
            1.0
        } else {
            busy / (busy + steal)
        }
    }

    /// Steal since `earlier`, in seconds summed over the CPUs.
    #[must_use]
    pub fn steal_s_since(self, earlier: Self) -> f64 {
        self.steal.saturating_sub(earlier.steal) as f64 / 100.0
    }
}

/// Notes which ~200 ms block each timing of a series was taken in, and
/// the CPU share the host gave during that block.
#[derive(Debug)]
pub struct ShareClock {
    start: Option<CpuTimes>,
    since: Instant,
    samples: usize,
    /// `(first sample, end of samples, share)` of each closed block.
    blocks: Vec<(usize, usize, f64)>,
}

impl Default for ShareClock {
    fn default() -> Self {
        ShareClock {
            start: CpuTimes::now(),
            since: Instant::now(),
            samples: 0,
            blocks: Vec::new(),
        }
    }
}

impl ShareClock {
    /// Counts one more timing of the series.
    pub fn sample(&mut self) {
        self.samples += 1;
        if self.since.elapsed() >= BLOCK {
            self.cut();
        }
    }

    /// Closes the current block and starts the next one now, so a pause
    /// in the series (between rounds) belongs to no block.
    pub fn cut(&mut self) {
        let first = self.blocks.last().map_or(0, |b| b.1);
        let now = CpuTimes::now();
        if first < self.samples {
            let share = match (self.start, now) {
                (Some(a), Some(b)) => b.share_since(a),
                _ => 1.0,
            };
            self.blocks.push((first, self.samples, share));
        }
        self.start = now;
        self.since = Instant::now();
    }

    /// Indices, in time order, of the samples in the blocks with the best
    /// CPU share that together hold at least half the samples.
    #[must_use]
    pub fn quiet_half(mut self) -> Vec<usize> {
        self.cut();
        let mut ranked = self.blocks;
        // Stable: among equal shares the earlier block ranks first.
        ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut keep = vec![false; self.samples];
        let mut kept = 0;
        for (first, end, _) in ranked {
            if 2 * kept >= self.samples {
                break;
            }
            keep[first..end].iter_mut().for_each(|k| *k = true);
            kept += end - first;
        }
        (0..self.samples).filter(|&i| keep[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_is_busy_over_busy_plus_steal() {
        let a = CpuTimes {
            busy: 100,
            steal: 10,
        };
        let b = CpuTimes {
            busy: 175,
            steal: 35,
        };
        assert_eq!(b.share_since(a), 0.75);
        assert_eq!(a.share_since(a), 1.0);
        assert!((b.steal_s_since(a) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quiet_half_keeps_the_best_blocks() {
        let clock = ShareClock {
            start: None,
            since: Instant::now(),
            samples: 10,
            blocks: vec![(0, 3, 0.5), (3, 6, 1.0), (6, 8, 0.9), (8, 10, 1.0)],
        };
        assert_eq!(clock.quiet_half(), vec![3, 4, 5, 8, 9]);
        let mut clock = ShareClock::default();
        for _ in 0..7 {
            clock.sample();
        }
        assert_eq!(clock.quiet_half().len(), 7, "one block holds everything");
    }
}

//! Deterministic sharded parallel execution.
//!
//! [`ShardPool`] runs one closure per *shard* — an owned unit of work,
//! typically a bundle of mutable sub-slices produced by `chunks_mut` — across
//! the caller and a fixed set of persistent worker threads, and hands the
//! results back **in shard order**. Shard structure must be a pure function
//! of problem size, never of the thread count; combined with an
//! order-preserving reduction this makes results bit-identical whether the
//! pool runs on one thread or sixteen. Threads only decide *where* a shard
//! executes, not *what* it computes or in which order its output is
//! consumed.
//!
//! # Examples
//!
//! ```
//! use mobigrid_sim::par::ShardPool;
//!
//! let mut data = vec![1u64; 100];
//! let pool = ShardPool::new(4);
//! let shards: Vec<&mut [u64]> = data.chunks_mut(32).collect();
//! let sums = pool.run(shards, |_, shard| {
//!     shard.iter_mut().for_each(|x| *x += 1);
//!     shard.iter().sum::<u64>()
//! });
//! // Results arrive in shard order regardless of scheduling.
//! assert_eq!(sums, vec![64, 64, 64, 8]);
//! ```

use std::sync::Mutex;

use mobigrid_pool::Workers;

/// A bounded executor for shard-parallel work with deterministic,
/// shard-ordered results.
///
/// With `threads > 1` the pool starts its worker threads once, when it is
/// built, and every parallel region reuses them; the calling thread works
/// alongside. With `threads == 1` (or a single shard) everything runs
/// inline on the caller's thread — no workers, no overhead, and trivially
/// the same results as the parallel path. Dropping the pool joins its
/// workers.
#[derive(Debug)]
pub struct ShardPool {
    threads: usize,
    /// The persistent workers; `None` when every region runs inline.
    workers: Option<Workers>,
}

impl Default for ShardPool {
    fn default() -> Self {
        ShardPool::new(1)
    }
}

impl ShardPool {
    /// Creates a pool that uses up to `threads` threads per parallel
    /// region, the caller included: it starts `threads − 1` workers. `0` is
    /// treated as `1`.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ShardPool::for_shards(threads, usize::MAX)
    }

    /// Like [`ShardPool::new`], for regions of at most `shards` shards: a
    /// region never uses more threads than it has shards, so the pool
    /// starts only `min(threads, shards) − 1` workers. [`threads`] still
    /// reports the configured budget.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    ///
    /// [`threads`]: ShardPool::threads
    #[must_use]
    pub fn for_shards(threads: usize, shards: usize) -> Self {
        let threads = threads.max(1);
        let participants = threads.min(shards);
        ShardPool {
            threads,
            workers: (participants > 1).then(|| Workers::new(participants)),
        }
    }

    /// The configured thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(shard_index, shard)` for every shard and returns the
    /// results in shard order.
    ///
    /// Because `f` receives the shard index, and results are stored by
    /// index, the output is independent of which thread ran which shard.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard closure.
    pub fn run<T, R, F>(&self, shards: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let mut slots = Vec::with_capacity(shards.len());
        self.run_into(shards, &mut slots, |i, shard| Some(f(i, shard)));
        slots
            .into_iter()
            .map(|r| r.expect("every shard produces exactly one result"))
            .collect()
    }

    /// Like [`ShardPool::run`], but takes the shards as an exact-size
    /// iterator and writes the results into `out` (cleared first, shard
    /// order), reusing `out`'s existing capacity.
    ///
    /// This is the steady-state building block: once `out` has grown to
    /// its high-water capacity, the call performs **no heap allocations**
    /// at any thread count, provided `R::default()` does not allocate.
    /// With workers, `out` is first filled with `R::default()` and the
    /// caller and the workers then take `(index, shard, slot)` triples from
    /// one shared cursor until it runs dry, each writing its result into
    /// the shard's own slot. Results are bit-identical to the inline path.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard closure, after every thread has
    /// left the region.
    pub fn run_into<I, R, F>(&self, shards: I, out: &mut Vec<R>, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        I::Item: Send,
        R: Default + Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        out.clear();
        let shards = shards.into_iter();
        let n = shards.len();
        let Some(workers) = self.workers.as_ref().filter(|_| n > 1) else {
            out.extend(shards.enumerate().map(|(i, s)| f(i, s)));
            return;
        };

        out.resize_with(n, R::default);
        let cursor = Mutex::new(shards.enumerate().zip(out.iter_mut()));
        workers.broadcast(&|_| loop {
            // The guard drops at the end of this statement: the lock covers
            // only the hand-out, never `f`.
            let next = cursor
                .lock()
                .expect("a shard iterator panicked while handing out a shard")
                .next();
            let Some(((i, shard), slot)) = next else {
                break;
            };
            *slot = f(i, shard);
        });
    }

    /// Executes `f(shard_index, shard)` for every shard, discarding results.
    ///
    /// For phases whose output is written *in place* through mutable slices
    /// carried inside the shard values. The unit results accumulate in a
    /// zero-sized `Vec<()>`, which never touches the heap, so this is
    /// allocation-free at any thread count.
    pub fn for_each<I, F>(&self, shards: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        I::Item: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let mut unit: Vec<()> = Vec::new();
        self.run_into(shards, &mut unit, f);
    }
}

/// Splits `len` items into contiguous shards of `shard_size` (the last shard
/// may be shorter) and returns the shard count. Shard geometry depends only
/// on `len` and `shard_size`, never on thread count — the cornerstone of the
/// determinism contract.
#[must_use]
pub fn shard_count(len: usize, shard_size: usize) -> usize {
    assert!(shard_size > 0, "shard size must be positive");
    len.div_ceil(shard_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = ShardPool::new(1).run(items.clone(), |i, x| x * 3 + i as u64);
        for threads in [2, 3, 4, 8] {
            let par = ShardPool::new(threads).run(items.clone(), |i, x| x * 3 + i as u64);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_shard_order() {
        let out = ShardPool::new(4).run((0..100usize).collect(), |i, x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_chunks_round_trip() {
        let mut data = vec![0u32; 1000];
        let pool = ShardPool::new(4);
        let shards: Vec<(usize, &mut [u32])> = data.chunks_mut(64).enumerate().collect();
        pool.run(shards, |_, (base, chunk)| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = (base * 64 + off) as u32;
            }
        });
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ShardPool::new(0).threads(), 1);
    }

    #[test]
    fn run_into_reuses_the_output_buffer() {
        let pool = ShardPool::new(1);
        let mut out: Vec<usize> = Vec::new();
        pool.run_into(0..10usize, &mut out, |i, x| x + i);
        assert_eq!(out, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
        let cap = out.capacity();
        let ptr = out.as_ptr();
        pool.run_into(0..10usize, &mut out, |_, x| x);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(out.capacity(), cap, "capacity must be retained");
        assert_eq!(out.as_ptr(), ptr, "buffer must not be reallocated");
    }

    #[test]
    fn run_into_matches_run_across_thread_counts() {
        let items: Vec<u64> = (0..37).collect();
        let reference = ShardPool::new(1).run(items.clone(), |i, x| x * 3 + i as u64);
        for threads in [1, 2, 4, 8] {
            let mut out = Vec::new();
            ShardPool::new(threads).run_into(items.clone(), &mut out, |i, x| x * 3 + i as u64);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn for_each_writes_through_disjoint_slices() {
        for threads in [1, 4] {
            let mut data = vec![0u32; 300];
            let pool = ShardPool::new(threads);
            pool.for_each(data.chunks_mut(64).enumerate(), |_, (base, chunk)| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base * 64 + off) as u32;
                }
            });
            let expect: Vec<u32> = (0..300).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn shard_count_is_ceiling_division() {
        assert_eq!(shard_count(0, 64), 0);
        assert_eq!(shard_count(1, 64), 1);
        assert_eq!(shard_count(64, 64), 1);
        assert_eq!(shard_count(65, 64), 2);
        assert_eq!(shard_count(140, 64), 3);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = ShardPool::new(4).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_one_and_fewer_shards_than_threads() {
        let pool = ShardPool::new(8);
        let mut out = vec![7u32; 5];
        pool.run_into(0..0u32, &mut out, |_, x| x);
        assert!(out.is_empty(), "n = 0 clears the output");
        pool.run_into(0..1u32, &mut out, |i, x| x + i as u32 + 1);
        assert_eq!(out, vec![1]);
        pool.run_into(0..3u32, &mut out, |i, x| x * 10 + i as u32);
        assert_eq!(out, vec![0, 11, 22]);
    }

    #[test]
    fn for_shards_keeps_the_budget_and_the_results() {
        let capped = ShardPool::for_shards(8, 3);
        assert_eq!(capped.threads(), 8);
        let out = capped.run((0..10u32).collect(), |i, x| x + i as u32);
        assert_eq!(out, (0..10).map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn ten_thousand_reused_regions_match_one_thread() {
        let f = |i: usize, x: u32| u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
        let mut reference = Vec::new();
        ShardPool::new(1).run_into(0..24u32, &mut reference, f);
        let pool = ShardPool::new(2);
        let mut out = Vec::new();
        for cycle in 0..10_000 {
            pool.run_into(0..24u32, &mut out, f);
            assert_eq!(out, reference, "cycle {cycle}");
        }
    }

    /// Runs a two-thread region whose shard closure panics on the worker
    /// (`on_worker`) or on the caller, and returns the panic message. Each
    /// side first waits until the other is inside a shard, so both are
    /// known to take part.
    fn panic_message(on_worker: bool) -> String {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};

        let pool = ShardPool::new(2);
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each(0..8, |_, _| {
                let worker = mobigrid_pool::is_worker_thread();
                started[usize::from(worker)].store(true, Ordering::Release);
                while !started[usize::from(!worker)].load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                if worker == on_worker {
                    panic!(
                        "{} shard panicked",
                        if worker { "worker" } else { "caller" }
                    );
                }
            });
        }))
        .expect_err("the shard panic must reach the caller");
        err.downcast_ref::<String>()
            .expect("a formatted panic message")
            .clone()
    }

    #[test]
    fn a_panic_on_a_worker_reaches_the_caller() {
        assert_eq!(panic_message(true), "worker shard panicked");
    }

    #[test]
    fn a_panic_on_the_caller_reaches_the_caller() {
        assert_eq!(panic_message(false), "caller shard panicked");
    }
}

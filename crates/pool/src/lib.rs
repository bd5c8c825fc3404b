//! Persistent worker threads for fork-join broadcasts.
//!
//! [`Workers::new(n)`](Workers::new) spawns `n − 1` named OS threads once.
//! Every [`Workers::broadcast`] then runs `f(0)` on the calling thread and
//! `f(1)`, …, `f(n − 1)` on the workers, and returns when all `n` calls
//! have finished. A region therefore costs a wake-up and a completion
//! handshake, not a thread spawn and join, and the caller does a share of
//! the work instead of idling.
//!
//! Waiting is spin-then-park on both sides. A worker spins on an epoch
//! counter for up to 500 µs after its last job, then parks on a `Condvar`;
//! the caller spins on the count of unfinished workers for up to the same
//! budget, then parks too. Back-to-back regions thus hand off
//! without a system call, while an idle pool sleeps.
//!
//! A panic in `f`, on the caller or on a worker, is caught, every worker is
//! waited for, and the panic is re-raised on the caller; the pool stays
//! usable. Dropping a [`Workers`] stops and joins its threads.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! use mobigrid_pool::Workers;
//!
//! let workers = Workers::new(3);
//! let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
//! for _ in 0..100 {
//!     workers.broadcast(&|i| {
//!         hits[i].fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 100));
//! ```
//!
//! # Soundness
//!
//! `broadcast` takes `f` by a borrowed, non-`'static` reference and hands it
//! to threads that outlive the call. This is the argument
//! `std::thread::scope` makes: the reference is erased to `'static` only
//! while the call is in flight, and `broadcast` does not return — neither
//! normally nor by unwinding — until every worker has reported that it has
//! stopped touching `f`. The erasure is the one `unsafe` block in this
//! crate.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::Cell;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a waiting thread spins before it parks, on either side of a
/// broadcast.
///
/// Long enough to span the sequential stretch between two parallel phases
/// of a tick (the filter and routing passes, ~360 µs on `city_1140` at two
/// threads), so the worker is still awake when the next region opens;
/// short enough that an idle pool is asleep within half a millisecond.
/// Measured on `city_1140` at two threads: 0, 20 and 100 µs left the
/// worker parked at the start of the apply region, whose 2-thread speed-up
/// then read 1.05–1.3×; 500 µs read ~1.5× (see `DESIGN.md`, "Worker pool").
const SPIN: Duration = Duration::from_micros(500);

/// The job of the broadcast in flight, its lifetime erased (see the crate
/// docs, "Soundness").
type Job = &'static (dyn Fn(usize) + Sync);

/// A panic payload caught on one side of a broadcast.
type Payload = Box<dyn Any + Send>;

thread_local! {
    // `const` and without a destructor: reading it never allocates and
    // never fails, not even from a global allocator.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of some [`Workers`] pool.
///
/// It reads a constant-initialised thread-local, so it never allocates and
/// may be called from a global allocator, e.g. one that attributes
/// allocations to pool threads.
#[must_use]
pub fn is_worker_thread() -> bool {
    ON_WORKER.with(Cell::get)
}

/// A fixed set of worker threads that run broadcasts with the caller.
///
/// The threads are spawned by [`Workers::new`], reused by every
/// [`Workers::broadcast`] and joined on drop.
pub struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Set while a broadcast is in flight. A nested or concurrent
    /// broadcast on the same pool finds it set and runs inline.
    busy: AtomicBool,
}

/// State shared between the caller and the workers.
struct Shared {
    /// Bumped once per broadcast, and once more on shutdown. Workers spin
    /// on it; it only changes under `state`'s lock.
    epoch: AtomicU64,
    /// Workers that have not yet finished the broadcast in flight.
    pending: AtomicUsize,
    state: Mutex<State>,
    /// Wakes parked workers for a new epoch.
    work: Condvar,
    /// Wakes a parked caller when `pending` reaches zero.
    done: Condvar,
}

struct State {
    /// The broadcast in flight; `None` between broadcasts.
    job: Option<Job>,
    shutdown: bool,
    parked_workers: usize,
    caller_parked: bool,
    /// The first panic a worker caught during the broadcast in flight.
    panic: Option<Payload>,
}

impl Shared {
    /// Locks the state. No code panics while holding the lock — `f` always
    /// runs outside it — and every update is a single field write, so a
    /// poisoned lock (which cannot happen) would still hold valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `job` to `workers` threads and wakes those that parked.
    fn publish(&self, job: Job, workers: usize) {
        let mut state = self.lock();
        state.job = Some(job);
        // Workers read `pending` only after taking the lock, which orders
        // them after this store.
        self.pending.store(workers, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        if state.parked_workers > 0 {
            self.work.notify_all();
        }
    }

    /// Waits until every worker has finished the broadcast in flight, then
    /// clears the job and returns the first panic a worker caught.
    fn finish(&self) -> Option<Payload> {
        // Acquire pairs with each worker's Release decrement, so everything
        // the workers wrote through `f` is visible once this reads zero.
        let finished = || self.pending.load(Ordering::Acquire) == 0;
        let mut state = if spin_until(finished) {
            self.lock()
        } else {
            let mut state = self.lock();
            state.caller_parked = true;
            while !finished() {
                state = self
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.caller_parked = false;
            state
        };
        state.job = None;
        state.panic.take()
    }

    /// Waits for an epoch after `seen` and runs its job at `index`,
    /// catching a panic. Returns the epoch, or `None` on shutdown.
    fn run_next(&self, seen: u64, index: usize) -> Option<u64> {
        spin_until(|| self.epoch.load(Ordering::Acquire) != seen);
        let (epoch, job) = {
            let mut state = self.lock();
            while self.epoch.load(Ordering::Relaxed) == seen && !state.shutdown {
                state.parked_workers += 1;
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked_workers -= 1;
            }
            if state.shutdown {
                return None;
            }
            let job = state.job.expect("an epoch is published with its job");
            (self.epoch.load(Ordering::Relaxed), job)
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(index))) {
            self.lock().panic.get_or_insert(payload);
        }
        Some(epoch)
    }

    /// A worker's life: run each published job at `index` until shutdown.
    fn work(&self, index: usize) {
        ON_WORKER.with(|w| w.set(true));
        let mut seen = 0;
        while let Some(epoch) = self.run_next(seen, index) {
            seen = epoch;
            // `run_next` has returned, so this worker is done with the job:
            // after this decrement the caller may return from `broadcast`
            // and the job's closure may be gone.
            if self.pending.fetch_sub(1, Ordering::Release) == 1 {
                let state = self.lock();
                if state.caller_parked {
                    self.done.notify_one();
                }
            }
        }
    }
}

/// Spins until `ready()` holds or `SPIN` has passed; returns whether
/// `ready()` held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return ready();
        }
    }
}

/// Clears the busy flag when a broadcast ends, panicking or not.
struct BusyGuard<'a>(&'a AtomicBool);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Workers {
    /// Starts a pool of `n` participants: the calling thread plus `n − 1`
    /// worker threads named `mobigrid-pool-1`, …. `0` is treated as `1`,
    /// which spawns nothing and runs every broadcast inline.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            state: Mutex::new(State {
                job: None,
                shutdown: false,
                parked_workers: 0,
                caller_parked: false,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..n.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mobigrid-pool-{index}"))
                    .spawn(move || shared.work(index))
                    .expect("failed to spawn a pool worker thread")
            })
            .collect();
        Workers {
            shared,
            handles,
            busy: AtomicBool::new(false),
        }
    }

    /// The number of participants: the caller plus the worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(0)` on the calling thread and `f(i)` on worker `i`, for
    /// every `i` in `1..n`, and returns once every call has finished.
    ///
    /// A broadcast issued from inside `f`, or from another thread while one
    /// is in flight, runs all `n` indices inline on its own thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, after every worker has finished. If
    /// several calls panic, the caller's panic wins over a worker's.
    pub fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() || self.busy.swap(true, Ordering::Acquire) {
            (0..self.threads()).for_each(f);
            return;
        }
        let _busy = BusyGuard(&self.busy);
        // SAFETY: only the lifetime changes; the fat pointer is unchanged.
        // The workers reach `f` only through this erased reference, and
        // `self.shared.finish()` below returns only after every worker has
        // decremented `pending`, which each does after its last use of
        // `f`. Nothing between here and that call can skip it: the
        // caller's own `f(0)` runs under `catch_unwind`, and `publish` and
        // `finish` do not panic (their lock ignores poisoning). `finish`
        // also clears the stored reference, so none outlives this call.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(f) };
        self.shared.publish(job, self.handles.len());
        let caller = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker = self.shared.finish();
        if let Err(payload) = caller {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker {
            panic::resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
            // Also release workers still spinning on the epoch.
            self.shared.epoch.fetch_add(1, Ordering::Release);
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // A worker runs every job under `catch_unwind`, so it cannot
            // end by a panic; and `Drop` must not panic either way.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_counts(workers: &Workers, rounds: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..workers.threads())
            .map(|_| AtomicUsize::new(0))
            .collect();
        for _ in 0..rounds {
            workers.broadcast(&|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        hits.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn every_index_runs_once_per_broadcast() {
        for n in [1, 2, 3, 4] {
            let workers = Workers::new(n);
            assert_eq!(workers.threads(), n);
            assert_eq!(hit_counts(&workers, 50), vec![50; n], "n={n}");
        }
    }

    #[test]
    fn zero_is_one_inline_participant() {
        let workers = Workers::new(0);
        assert_eq!(workers.threads(), 1);
        let caller = thread::current().id();
        workers.broadcast(&|i| {
            assert_eq!(i, 0);
            assert_eq!(thread::current().id(), caller);
        });
    }

    #[test]
    fn index_zero_runs_on_the_caller_and_the_rest_on_workers() {
        let workers = Workers::new(3);
        let caller = thread::current().id();
        workers.broadcast(&|i| {
            assert_eq!(thread::current().id() == caller, i == 0);
            assert_eq!(is_worker_thread(), i != 0);
        });
        assert!(!is_worker_thread());
    }

    #[test]
    fn workers_are_named() {
        let workers = Workers::new(2);
        workers.broadcast(&|i| {
            if i == 1 {
                assert_eq!(thread::current().name(), Some("mobigrid-pool-1"));
            }
        });
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        let workers = Workers::new(2);
        let finished = AtomicUsize::new(0);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            workers.broadcast(&|i| {
                if i == 1 {
                    panic!("worker boom");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("the worker's panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"worker boom"));
        assert_eq!(finished.load(Ordering::Relaxed), 1, "the caller ran");
        assert_eq!(hit_counts(&workers, 10), vec![10, 10]);
    }

    #[test]
    fn a_caller_panic_waits_for_the_workers() {
        let workers = Workers::new(2);
        let worker_done = AtomicBool::new(false);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            workers.broadcast(&|i| {
                if i == 0 {
                    panic!("caller boom");
                }
                // Still running when the caller has already panicked.
                thread::sleep(Duration::from_millis(20));
                worker_done.store(true, Ordering::Relaxed);
            });
        }))
        .expect_err("the caller's panic must propagate");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"caller boom"));
        assert!(
            worker_done.load(Ordering::Relaxed),
            "broadcast returned before its worker finished"
        );
        assert_eq!(hit_counts(&workers, 10), vec![10, 10]);
    }

    #[test]
    fn the_caller_panic_wins_over_a_worker_panic() {
        let workers = Workers::new(3);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            workers.broadcast(&|i| panic!("boom {i}"));
        }))
        .expect_err("panics must propagate");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("boom 0")
        );
    }

    #[test]
    fn a_nested_broadcast_runs_inline() {
        let workers = Workers::new(2);
        let inner = AtomicUsize::new(0);
        workers.broadcast(&|_| {
            workers.broadcast(&|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Each of the two outer calls ran both inner indices itself.
        assert_eq!(inner.load(Ordering::Relaxed), 4);
        assert_eq!(hit_counts(&workers, 5), vec![5, 5]);
    }

    #[test]
    fn parked_workers_wake_for_the_next_broadcast() {
        let workers = Workers::new(3);
        for _ in 0..3 {
            // Well past the spin budget: every worker has parked.
            thread::sleep(SPIN * 20);
            assert_eq!(hit_counts(&workers, 1), vec![1, 1, 1]);
        }
    }
}

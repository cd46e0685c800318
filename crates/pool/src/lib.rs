//! Persistent work-stealing thread pool shared by every parallel path in the
//! workspace.
//!
//! Before this crate, each threaded kernel (`gemm`, `gemv`, depthwise conv,
//! the DP option evaluator) paid OS-thread spawn and join cost on every call
//! via `crossbeam::thread::scope`. A warm serving path cannot afford that:
//! spawning threads costs tens of microseconds while a small GEMM finishes in
//! a handful. This pool spawns its workers once (lazily, on first use), parks
//! them between batches, and hands batches of indices to whichever threads
//! are idle.
//!
//! # Execution model
//!
//! There is one engine, the indexed parallel-for [`Pool::for_each`]: it runs
//! `f(0), …, f(n - 1)`, each exactly once. The batch descriptor lives on the
//! submitting thread's stack and is published on a shared injector queue;
//! idle workers attach to the oldest batch with indices left and *steal*
//! indices from it (claiming is a single `fetch_add`, so load balancing is
//! dynamic). The submitting thread always participates in its own batch — it
//! claims and executes indices alongside the workers and only blocks once
//! every index has been claimed. Because the caller can drain its batch
//! entirely by itself, nested submissions (an index that itself calls
//! [`Pool::for_each`]) cannot deadlock, whatever the worker count. A warm
//! call allocates nothing. [`Pool::for_each_item`] deals the items of an
//! iterator (disjoint `&mut` chunks, say) over the same engine, and
//! [`Pool::join_all`] runs boxed [`Task`]s over it.
//!
//! # Determinism contract
//!
//! The pool never changes *what* is computed, only *where*: each index is
//! executed exactly once. Callers that need bit-identical floating-point
//! results across thread counts follow the workspace-wide rule: split work
//! into chunks whose contents do not depend on the worker count (or depend
//! only on an explicit `threads` parameter), compute each chunk
//! independently into a place of its own, and reduce sequentially in chunk
//! order on the submitting thread.
//!
//! # Sizing
//!
//! [`Pool::global`] sizes itself from the `GILLIS_THREADS` environment
//! variable, falling back to the machine's available parallelism (see
//! [`gillis_threads`]). A width-1 pool spawns no workers and runs every batch
//! inline, making single-threaded configurations overhead-free.
//!
//! A caller can ask for less than the pool's width: kernels size their
//! fan-out by [`kernel_threads`], which [`with_width_cap`] caps for the
//! duration of a closure on the calling thread and in every index it submits.
//! A cap of 1 keeps every kernel on the calling thread.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A boxed unit of work for [`Pool::join_all`]: may borrow from the
/// submitting stack frame because `join_all` does not return until every
/// task has finished.
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Worker-thread budget for the whole process: the `GILLIS_THREADS`
/// environment variable if set to a positive integer, otherwise the
/// machine's available parallelism. Read once and cached for the process
/// lifetime.
pub fn gillis_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("GILLIS_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

thread_local! {
    /// The innermost [`with_width_cap`] on this thread (`usize::MAX`: none).
    static WIDTH_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Batches this thread has handed to pool workers.
    static HANDED_OFF: Cell<u64> = const { Cell::new(0) };
}

/// The width a kernel called on this thread may fan out to:
/// [`gillis_threads`], capped by the innermost [`with_width_cap`] around the
/// call. Pool indices run under the cap of the thread that submitted them.
pub fn kernel_threads() -> usize {
    gillis_threads().min(WIDTH_CAP.get())
}

/// Runs `f` with [`kernel_threads`] capped at `width` (at least 1) on this
/// thread and in every pool index submitted under it, then restores the
/// previous cap — so a caller that asks for one thread gets one thread, down
/// to the innermost kernel.
pub fn with_width_cap<R>(width: usize, f: impl FnOnce() -> R) -> R {
    /// Restores the outer cap on the way out, unwinding included.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH_CAP.set(self.0);
        }
    }
    let _restore = Restore(WIDTH_CAP.replace(width.max(1)));
    f()
}

/// How many batches the calling thread has handed to pool workers (batches
/// of two or more indices on a pool that has workers) — zero growth over a
/// stretch of code means everything in it ran on this thread.
pub fn batches_handed_off() -> u64 {
    HANDED_OFF.get()
}

/// Locks one of the pool's own mutexes whatever a panic left in it: none is
/// held while an index runs, and every update under one is a single step,
/// so a poisoned one still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One [`Pool::for_each`] call, on the submitting thread's stack.
struct Batch<'f> {
    f: &'f (dyn Fn(usize) + Sync),
    len: usize,
    /// Next unclaimed index (the steal counter). `Relaxed`: it publishes
    /// nothing. What an index reads was published by the injector lock the
    /// worker took to find the batch, and what it writes is published by the
    /// lock the worker takes to detach, which the caller takes before it
    /// returns.
    next: AtomicUsize,
    /// Workers that may still touch the batch; read and changed only under
    /// the injector lock, which orders it.
    attached: AtomicUsize,
    /// First panic payload observed while executing this batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The submitter's width cap, which every index runs under.
    width_cap: usize,
}

impl Batch<'_> {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs indices until none is left, keeping the first panic.
    fn drain(&self) {
        with_width_cap(self.width_cap, || loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
        });
    }
}

/// A batch as the injector holds it: a pointer to the submitter's stack.
#[derive(Clone, Copy, PartialEq)]
struct Published(NonNull<Batch<'static>>);

// SAFETY: `Batch` is `Sync`, and a `Published` is dereferenced only while its
// batch is alive (see `Pool::for_each`).
unsafe impl Send for Published {}

/// The injector: published batches plus the shutdown flag, guarded together
/// so workers sleeping on `work_ready` can never miss either signal.
struct Injector {
    /// Batches with (possibly) unclaimed indices, oldest first.
    batches: VecDeque<Published>,
    /// Set by `Drop`; workers exit once the queue drains.
    shutdown: bool,
}

/// State shared between the submitting threads and the workers.
struct Shared {
    queue: Mutex<Injector>,
    /// Signalled when a batch is published or the pool shuts down.
    work_ready: Condvar,
    /// Signalled when the last worker attached to a batch detaches.
    detached: Condvar,
}

/// A persistent pool of worker threads executing scoped batches.
///
/// Most callers want [`Pool::global`]; dedicated pools exist for tests and
/// for embedding at a fixed width.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.width())
            .finish()
    }
}

impl Pool {
    /// The process-wide pool, created on first use and sized by
    /// [`gillis_threads`].
    pub fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool::new(gillis_threads()))
    }

    /// Creates a pool of total width `threads`: the submitting thread plus
    /// `threads - 1` spawned workers. A width of 0 is treated as 1 (no
    /// workers; every batch runs inline on the caller).
    pub fn new(threads: usize) -> Pool {
        let workers = threads.max(1) - 1;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Injector {
                // Room for every thread's batches four levels deep (a lane's
                // kernels nest one level under it), so the queue does not
                // grow on a warm path.
                batches: VecDeque::with_capacity(4 * (workers + 1)),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            detached: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gillis-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
        }
    }

    /// Total parallel width: the caller's thread plus the spawned workers.
    pub fn width(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0), …, f(n - 1)` across the pool, each exactly once, and
    /// returns when all have finished; `f` may borrow from the caller's
    /// stack. The caller participates, so a width-1 pool degenerates to a
    /// plain loop and nested calls cannot deadlock. Every index runs under
    /// the caller's [`with_width_cap`]. Allocates nothing once the pool is
    /// warm.
    ///
    /// # Panics
    ///
    /// If an index panics, every other index still runs, and the first
    /// panic payload is then re-raised on the calling thread.
    pub fn for_each(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n <= 1 || self.workers.is_empty() {
            return (0..n).for_each(f);
        }
        HANDED_OFF.set(HANDED_OFF.get() + 1);
        let batch = Batch {
            f,
            len: n,
            next: AtomicUsize::new(0),
            attached: AtomicUsize::new(0),
            panic: Mutex::new(None),
            width_cap: WIDTH_CAP.get(),
        };
        // SAFETY: a worker reaches `batch` only through this pointer, while
        // it is in the injector or while the worker is attached to it (the
        // worker attaches in the critical section that found it there).
        // Below, the caller takes it out of the injector and waits until no
        // worker is attached before `batch` goes out of scope; nothing in
        // between unwinds (`drain` catches every panic and the locks ignore
        // poison), so no path leaves the pointer dangling.
        let published = Published(NonNull::from(&batch).cast());
        lock(&self.shared.queue).batches.push_back(published);
        self.shared.work_ready.notify_all();
        batch.drain();
        let mut queue = lock(&self.shared.queue);
        queue.batches.retain(|&b| b != published);
        while batch.attached.load(Ordering::Relaxed) > 0 {
            let woken = self.shared.detached.wait(queue);
            queue = woken.unwrap_or_else(PoisonError::into_inner);
        }
        drop(queue);
        let payload = lock(&batch.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs `f` on every item of `items` across the pool, each exactly
    /// once, through [`Pool::for_each`]: items are handed out in iterator
    /// order, one per index, so chunks a caller cuts (`chunks_mut`, `zip`,
    /// `enumerate`) carry their position with them.
    ///
    /// # Panics
    ///
    /// As [`Pool::for_each`], and if `items` yields fewer than its `len()`.
    pub fn for_each_item<I>(&self, items: I, f: impl Fn(I::Item) + Sync)
    where
        I: ExactSizeIterator + Send,
    {
        let n = items.len();
        let items = Mutex::new(items);
        self.for_each(n, &|_| {
            let item = items.lock().expect("an item iterator panicked").next();
            f(item.expect("an exact-size iterator yields len() items"));
        });
    }

    /// Runs every task to completion through [`Pool::for_each`]: the boxed
    /// form, for callers that build their work as a list of closures.
    pub fn join_all(&self, tasks: Vec<Task<'_>>) {
        self.for_each_item(tasks.into_iter(), |task| task());
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    loop {
        // SAFETY: `live` runs under the injector lock on a batch in the
        // injector, which is alive (see `Pool::for_each`).
        let live = |b: &Published| unsafe { b.0.as_ref() }.has_work();
        // Drop drained batches, then steal from the oldest live one.
        while queue.batches.front().is_some_and(|b| !live(b)) {
            queue.batches.pop_front();
        }
        if let Some(&b) = queue.batches.front() {
            // SAFETY: the batch is in the injector, so alive, and attaching
            // before the lock is released keeps it alive until this worker
            // detaches below, after its last use of `batch`.
            let batch = unsafe { b.0.as_ref() };
            batch.attached.fetch_add(1, Ordering::Relaxed);
            drop(queue);
            batch.drain();
            queue = lock(&shared.queue);
            if batch.attached.fetch_sub(1, Ordering::Relaxed) == 1 {
                shared.detached.notify_all();
            }
            continue;
        }
        if queue.shutdown {
            return;
        }
        queue = shared
            .work_ready
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Slot `i` counts the runs of index `i`.
    fn counters(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    fn once_each(runs: &[AtomicU64]) -> bool {
        runs.iter().all(|c| c.load(Ordering::Relaxed) == 1)
    }

    #[test]
    fn for_each_writes_every_index_into_its_own_slot() {
        let pool = Pool::new(4);
        let squares: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(100, &|i| squares[i].store(i * i, Ordering::Relaxed));
        let got: Vec<usize> = squares.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(got, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for width in [1, 2, 4, 8] {
            let runs = counters(64);
            Pool::new(width).for_each(64, &|i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(once_each(&runs), "width {width}");
        }
    }

    #[test]
    fn items_borrow_stack_data_in_order() {
        let pool = Pool::new(4);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut sums = [0u64; 4];
        let chunks = sums.iter_mut().zip(data.chunks(2)).enumerate();
        pool.for_each_item(chunks, |(i, (s, c))| *s = c.iter().sum::<u64>() + i as u64);
        assert_eq!(sums, [3, 8, 13, 18]);
        let mut out = vec![0usize; 1000];
        pool.for_each_item(out.chunks_mut(7).enumerate(), |(c, chunk)| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = c * 7 + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &o)| i == o));
    }

    #[test]
    fn join_all_borrows_stack_data() {
        let pool = Pool::new(4);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut sums = [0u64; 4];
        let tasks: Vec<Task> = sums
            .iter_mut()
            .zip(data.chunks(2))
            .map(|(s, c)| -> Task { Box::new(move || *s = c.iter().sum()) })
            .collect();
        pool.join_all(tasks);
        assert_eq!(sums, [3, 7, 11, 15]);
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.width(), 1);
        let tid = std::thread::current().id();
        let same = counters(8);
        pool.for_each(8, &|i| {
            let here = u64::from(std::thread::current().id() == tid);
            same[i].fetch_add(here, Ordering::Relaxed);
        });
        assert!(once_each(&same));
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        for width in [1, 4] {
            let pool = Pool::new(width);
            let cells: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each(4, &|i| {
                pool.for_each(4, &|j| {
                    cells[i * 4 + j].store(i * 10 + j, Ordering::Relaxed)
                });
            });
            for (k, c) in cells.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    k / 4 * 10 + k % 4,
                    "width {width}"
                );
            }
        }
    }

    #[test]
    fn back_to_back_nested_batches_run_every_index_once() {
        let pool = Pool::new(4);
        let runs = counters(10_000 * 3);
        for b in 0..10_000 {
            let outer = |i: usize| {
                if i == 0 {
                    pool.for_each(2, &|j| {
                        runs[b * 3 + 1 + j].fetch_add(1, Ordering::Relaxed);
                    });
                } else {
                    runs[b * 3].fetch_add(1, Ordering::Relaxed);
                }
            };
            pool.for_each(2, &outer);
        }
        assert!(once_each(&runs));
    }

    #[test]
    fn panics_propagate_after_the_batch_completes() {
        let pool = Pool::new(4);
        let ran = counters(8);
        let panicked = std::sync::atomic::AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Index 0 is claimed first; every other index finishes only
            // after it has started to unwind.
            pool.for_each(8, &|i| {
                if i == 0 {
                    panicked.store(true, Ordering::SeqCst);
                    panic!("index 0 exploded");
                }
                while !panicked.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                ran[i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("the panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"index 0 exploded"));
        // All seven non-panicking siblings had run when it was re-raised.
        let total: u64 = ran.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 7);
        assert_eq!(ran[0].load(Ordering::Relaxed), 0);
        // The pool survives and remains usable.
        let again = counters(3);
        pool.for_each(3, &|i| {
            again[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(once_each(&again));
    }

    #[test]
    fn a_width_cap_nests_restores_and_rides_into_tasks() {
        let full = gillis_threads();
        assert_eq!(kernel_threads(), full);
        with_width_cap(1, || {
            assert_eq!(kernel_threads(), 1);
            with_width_cap(0, || assert_eq!(kernel_threads(), 1));
            // Every index of a batch submitted under the cap runs under it,
            // whichever thread claims it.
            let pool = Pool::new(4);
            let widths = counters(16);
            pool.for_each(16, &|i| {
                widths[i].store(kernel_threads() as u64, Ordering::Relaxed);
            });
            assert!(widths.iter().all(|w| w.load(Ordering::Relaxed) == 1));
        });
        let unwound = catch_unwind(|| with_width_cap(1, || panic!("inside the cap")));
        assert!(unwound.is_err());
        assert_eq!(kernel_threads(), full);
    }

    #[test]
    fn handing_off_is_counted_per_submitting_thread() {
        let before = batches_handed_off();
        let pool = Pool::new(2);
        pool.for_each(1, &|_| {});
        Pool::new(1).for_each(4, &|_| {});
        assert_eq!(batches_handed_off(), before);
        pool.for_each(4, &|_| {});
        assert_eq!(batches_handed_off(), before + 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.width(), gillis_threads());
        let runs = counters(5);
        a.for_each(5, &|i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(once_each(&runs));
    }
}

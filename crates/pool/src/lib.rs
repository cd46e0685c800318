//! Persistent work-stealing thread pool shared by every parallel path in the
//! workspace.
//!
//! Before this crate, each threaded kernel (`gemm`, `gemv`, depthwise conv,
//! the DP option evaluator) paid OS-thread spawn and join cost on every call
//! via `crossbeam::thread::scope`. A warm serving path cannot afford that:
//! spawning threads costs tens of microseconds while a small GEMM finishes in
//! a handful. This pool spawns its workers once (lazily, on first use), parks
//! them between batches, and hands batches of scoped tasks to whichever
//! threads are idle.
//!
//! # Execution model
//!
//! Work arrives as a *batch* of `FnOnce` tasks ([`Pool::join_all`]) or as an
//! indexed map ([`Pool::run`]). Batches are published on a shared injector
//! queue; idle workers *steal* task indices from the oldest batch with work
//! remaining (claiming is a single `fetch_add`, so load balancing is dynamic).
//! The submitting thread always participates in its own batch — it claims and
//! executes tasks alongside the workers and only blocks once every task has
//! been claimed. Because the caller can drain its batch entirely by itself,
//! nested submissions (a pool task that itself calls [`Pool::join_all`])
//! cannot deadlock, whatever the worker count.
//!
//! # Determinism contract
//!
//! The pool never changes *what* is computed, only *where*: each task is
//! executed exactly once, and [`Pool::run`] writes the result of task `i`
//! into slot `i`. Callers that need bit-identical floating-point results
//! across thread counts follow the workspace-wide rule: split work into
//! chunks whose contents do not depend on the worker count (or depend only on
//! an explicit `threads` parameter), compute each chunk independently, and
//! reduce sequentially in chunk order on the submitting thread.
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
//! duration of a closure on the calling thread and in every task it submits.
//! A cap of 1 keeps every kernel on the calling thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A scoped unit of work: may borrow from the submitting stack frame because
/// [`Pool::join_all`] does not return until every task has finished.
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
/// call. Pool tasks run under the cap of the thread that submitted them.
pub fn kernel_threads() -> usize {
    gillis_threads().min(WIDTH_CAP.get())
}

/// Runs `f` with [`kernel_threads`] capped at `width` (at least 1) on this
/// thread and in every pool task submitted under it, then restores the
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
/// of two or more tasks on a pool that has workers) — zero growth over a
/// stretch of code means everything in it ran on this thread.
pub fn batches_handed_off() -> u64 {
    HANDED_OFF.get()
}

/// One published batch of erased tasks plus its completion latch.
struct Batch {
    /// Task slots; a claimed index grants exclusive right to take that slot.
    tasks: Mutex<Vec<Option<Task<'static>>>>,
    /// Next unclaimed task index (the steal counter).
    next: AtomicUsize,
    /// Total tasks in the batch.
    len: usize,
    /// Tasks not yet finished executing.
    remaining: AtomicUsize,
    /// Completion latch: locked/notified when `remaining` hits zero.
    done: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload observed while executing this batch.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The submitter's width cap, which every task runs under.
    width_cap: usize,
}

impl Batch {
    fn new(tasks: Vec<Option<Task<'static>>>) -> Self {
        let len = tasks.len();
        Batch {
            tasks: Mutex::new(tasks),
            next: AtomicUsize::new(0),
            len,
            remaining: AtomicUsize::new(len),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            width_cap: WIDTH_CAP.get(),
        }
    }

    fn has_work(&self) -> bool {
        self.next.load(Ordering::Acquire) < self.len
    }

    /// Claims the next unexecuted task, or `None` when the batch is drained.
    fn claim(&self) -> Option<Task<'static>> {
        loop {
            let idx = self.next.fetch_add(1, Ordering::AcqRel);
            if idx >= self.len {
                // Park the counter so it cannot wrap after u64::MAX claims.
                self.next.store(self.len, Ordering::Release);
                return None;
            }
            if let Some(task) = self.tasks.lock().expect("pool batch poisoned")[idx].take() {
                return Some(task);
            }
        }
    }

    /// Runs one claimed task, recording panics and signalling completion.
    fn execute(&self, task: Task<'static>) {
        let cap = self.width_cap;
        let run = move || with_width_cap(cap, task);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            let mut slot = self.panic.lock().expect("pool panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Takes the latch before notifying so a waiter that just checked
            // `remaining` and is about to sleep cannot miss the wakeup.
            let _guard = self.done.lock().expect("pool latch poisoned");
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// The injector: published batches plus the shutdown flag, guarded together
/// so workers sleeping on `work_ready` can never miss either signal.
struct Injector {
    /// Batches with (possibly) unclaimed tasks, oldest first.
    batches: VecDeque<Arc<Batch>>,
    /// Set by `Drop`; workers exit once the queue drains.
    shutdown: bool,
}

/// State shared between the submitting threads and the workers.
struct Shared {
    queue: Mutex<Injector>,
    /// Signalled when a batch is published or the pool shuts down.
    work_ready: Condvar,
}

/// A persistent pool of worker threads executing scoped task batches.
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
                batches: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
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

    /// Runs every task to completion, blocking until all finish. Tasks may
    /// borrow from the caller's stack. The caller participates: it claims and
    /// executes tasks alongside the workers, so a width-1 pool degenerates to
    /// a plain sequential loop and nested calls cannot deadlock.
    ///
    /// # Panics
    ///
    /// If a task panics, the batch still runs to completion (every other
    /// task executes) and the first panic payload is then re-raised on the
    /// calling thread.
    pub fn join_all<'env>(&self, tasks: Vec<Task<'env>>) {
        match tasks.len() {
            0 => return,
            1 => {
                // Nothing to overlap with: skip the queue entirely.
                return (tasks.into_iter().next().expect("len checked"))();
            }
            _ => {}
        }
        if self.workers.is_empty() {
            for task in tasks {
                task();
            }
            return;
        }
        // SAFETY: the erased tasks never outlive this call. Every task is
        // either executed below (the wait loop does not return until
        // `remaining == 0`) or held un-run inside `batch.tasks`, and the
        // queue only ever hands out tasks by `take()` — once `remaining`
        // reaches zero all closures have been consumed and dropped, so no
        // borrow of the caller's stack escapes `join_all`. Panics inside
        // tasks are caught and re-raised only after the whole batch has
        // completed, preserving the guarantee on unwind paths.
        let erased: Vec<Option<Task<'static>>> = tasks
            .into_iter()
            .map(|t| unsafe { std::mem::transmute::<Task<'env>, Task<'static>>(t) })
            .map(Some)
            .collect();
        let batch = Arc::new(Batch::new(erased));
        HANDED_OFF.set(HANDED_OFF.get() + 1);
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.batches.push_back(Arc::clone(&batch));
        }
        self.shared.work_ready.notify_all();

        // Work on our own batch until every task is claimed…
        while let Some(task) = batch.claim() {
            batch.execute(task);
        }
        // …then wait for tasks claimed by workers to finish.
        let mut guard = batch.done.lock().expect("pool latch poisoned");
        while !batch.is_done() {
            guard = batch.done_cv.wait(guard).expect("pool latch poisoned");
        }
        drop(guard);
        let payload = batch.panic.lock().expect("pool panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Indexed parallel map with deterministic, in-order results: evaluates
    /// `f(0), …, f(n - 1)` across the pool and returns the results in index
    /// order, exactly as a sequential `(0..n).map(f).collect()` would. Slot
    /// `i` is written only by task `i`, so the output is independent of
    /// scheduling; any order-sensitive reduction belongs in the caller,
    /// after this returns.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n <= 1 || self.workers.is_empty() {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        {
            let f = &f;
            let tasks: Vec<Task> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| -> Task { Box::new(move || *slot = Some(f(i))) })
                .collect();
            self.join_all(tasks);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every pool task fills its slot"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                // Drop drained batches, then steal from the oldest live one.
                while queue.batches.front().is_some_and(|b| !b.has_work()) {
                    queue.batches.pop_front();
                }
                if let Some(batch) = queue.batches.front() {
                    break Arc::clone(batch);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        while let Some(task) = batch.claim() {
            batch.execute(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_returns_results_in_index_order() {
        let pool = Pool::new(4);
        let out = pool.run(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn join_all_borrows_stack_data() {
        let pool = Pool::new(4);
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut sums = [0u64; 4];
        let chunks: Vec<&[u64]> = data.chunks(2).collect();
        let tasks: Vec<Task> = sums
            .iter_mut()
            .zip(chunks)
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
        let out = pool.run(8, move |i| (i, std::thread::current().id() == tid));
        assert!(out.iter().all(|&(_, same)| same));
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let inner = Arc::clone(&pool);
        let out = pool.run(4, move |i| inner.run(4, |j| i * 10 + j));
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &(0..4).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = Pool::new(8);
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(64, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panics_propagate_after_the_batch_completes() {
        let pool = Pool::new(4);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task> = (0..8)
                .map(|i| -> Task {
                    let ran = &ran;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            pool.join_all(tasks);
        }));
        assert!(result.is_err());
        // All seven non-panicking siblings still ran.
        assert_eq!(ran.load(Ordering::Relaxed), 7);
        // The pool survives and remains usable.
        assert_eq!(pool.run(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn a_width_cap_nests_restores_and_rides_into_tasks() {
        let full = gillis_threads();
        assert_eq!(kernel_threads(), full);
        with_width_cap(1, || {
            assert_eq!(kernel_threads(), 1);
            with_width_cap(0, || assert_eq!(kernel_threads(), 1));
            // Every task of a batch submitted under the cap runs under it,
            // whichever thread claims it.
            let pool = Pool::new(4);
            assert!(pool.run(16, |_| kernel_threads()).iter().all(|&w| w == 1));
        });
        let unwound = catch_unwind(|| with_width_cap(1, || panic!("inside the cap")));
        assert!(unwound.is_err());
        assert_eq!(kernel_threads(), full);
    }

    #[test]
    fn handing_off_is_counted_per_submitting_thread() {
        let before = batches_handed_off();
        let pool = Pool::new(2);
        pool.run(1, |i| i);
        Pool::new(1).run(4, |i| i);
        assert_eq!(batches_handed_off(), before);
        pool.run(4, |i| i);
        assert_eq!(batches_handed_off(), before + 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.width(), gillis_threads());
        assert_eq!(a.run(5, |i| i), vec![0, 1, 2, 3, 4]);
    }
}

//! The wave-parallel edge runtime.
//!
//! §5.2.4's sequencer orders a batch into conflict-free waves precisely so
//! that "within a wave the runner may parallelize freely" — this module is
//! the runner. A [`WorkerPool`] owns N worker threads fed from a bounded
//! [`JobQueue`]; [`WorkerPool::run_wave`] submits one wave of independent
//! jobs and collects their results **in submission order**, so drivers see
//! deterministic output regardless of which worker ran what.
//!
//! Design points:
//!
//! * **`workers == 1` is the inline path**: no threads, no queue, jobs run
//!   on the caller in submission order — byte-identical with the historic
//!   single-threaded pipeline (the golden-pin contract in ROADMAP.md).
//! * **Admission control**: the queue is bounded (by default four jobs
//!   per worker); a submitter facing a full queue blocks until a worker
//!   drains a slot, which is the
//!   backpressure story for bursty client load — bursts queue at the edge
//!   instead of growing unbounded buffers.
//! * **Model-checkable waits**: every wait (queue full, queue empty, wave
//!   completion) is routed through `crate::sched` — the
//!   `croesus_store::sched` hooks under the `mcheck` feature — so the
//!   model checker can drive the queue's interleavings with virtual
//!   tasks. Without a hook installed the waits are plain condvars.
//! * **Panic transparency**: a panicking job is caught on the worker,
//!   carried back, and re-thrown on the submitting thread — lowest
//!   submission index first, so even failure order is deterministic.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded multi-producer/multi-consumer job queue with waits routed
/// through the model-checker hooks.
///
/// This is deliberately a plain `Mutex<VecDeque>` + condvars rather than a
/// lock-free queue: the queue is not the hot path (jobs are whole
/// transaction stages), and the simple shape is what lets mcheck explore
/// every push/pop/close interleaving exhaustively.
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    /// Signalled when a job arrives or the queue closes (pop waiters).
    jobs_cv: Condvar,
    /// Signalled when a slot frees up (push waiters — admission control).
    space_cv: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// A queue admitting at most `capacity` queued jobs (≥ 1).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a job, blocking while the queue is at capacity.
    ///
    /// Panics if the queue has been closed — submission after shutdown is
    /// a driver bug, not a recoverable condition.
    pub fn push(&self, job: Job) {
        crate::sched::yield_point("runtime.queue.push");
        let mut job = Some(job);
        loop {
            {
                let mut q = self.inner.lock().unwrap();
                assert!(!q.closed, "job submitted to a closed queue");
                if q.jobs.len() < self.capacity {
                    q.jobs.push_back(job.take().unwrap());
                } else if !crate::sched::active() {
                    // Plain-threads path: park on the condvar until a
                    // worker frees a slot.
                    while q.jobs.len() >= self.capacity && !q.closed {
                        q = self.space_cv.wait(q).unwrap();
                    }
                    assert!(!q.closed, "job submitted to a closed queue");
                    q.jobs.push_back(job.take().unwrap());
                }
            }
            if job.is_none() {
                self.jobs_cv.notify_one();
                crate::sched::progress("runtime.queue.push");
                return;
            }
            // Under the model checker: mark the blocked-on-capacity point
            // (outside the mutex, per the sched call-site rule) and retry
            // once another task makes progress.
            crate::sched::block_point("runtime.queue.full");
        }
    }

    /// Dequeue a job, blocking while the queue is empty; `None` once the
    /// queue is closed *and* drained.
    pub fn pop(&self) -> Option<Job> {
        crate::sched::yield_point("runtime.queue.pop");
        loop {
            let popped = {
                let mut q = self.inner.lock().unwrap();
                if let Some(job) = q.jobs.pop_front() {
                    Some(job)
                } else if q.closed {
                    return None;
                } else if !crate::sched::active() {
                    while q.jobs.is_empty() && !q.closed {
                        q = self.jobs_cv.wait(q).unwrap();
                    }
                    match q.jobs.pop_front() {
                        Some(job) => Some(job),
                        None => return None, // closed and drained
                    }
                } else {
                    None
                }
            };
            if let Some(job) = popped {
                self.space_cv.notify_one();
                crate::sched::progress("runtime.queue.pop");
                return Some(job);
            }
            crate::sched::block_point("runtime.queue.empty");
        }
    }

    /// Close the queue: wakes every waiter; queued jobs still drain.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.jobs_cv.notify_all();
        self.space_cv.notify_all();
        crate::sched::progress("runtime.queue.close");
    }

    /// Jobs currently queued (snapshot; for tests and introspection).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Whether no jobs are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission-control bound this queue enforces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Result slots + completion latch for one in-flight wave.
struct WaveState<T> {
    slots: Mutex<Vec<Option<std::thread::Result<T>>>>,
    remaining: AtomicUsize,
    done_cv: Condvar,
}

thread_local! {
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Index of the pool worker running the current thread (`None` on
/// non-pool threads, `Some(0)` inside inline execution).
pub fn current_worker() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// A per-edge pool of worker threads executing sequencer waves.
///
/// See the module docs for the contract; the short version: results come
/// back in submission order, `workers == 1` runs inline on the caller, and
/// the bounded queue is the admission-control surface.
pub struct WorkerPool {
    queue: Option<Arc<JobQueue>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Queue capacity per worker when none is given explicitly.
    pub(crate) const DEFAULT_QUEUE_FACTOR: usize = 4;

    /// A pool of `workers` threads (≥ 1); `workers == 1` is the inline,
    /// thread-free path.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        Self::with_queue_capacity(workers, workers * Self::DEFAULT_QUEUE_FACTOR)
    }

    /// The thread-free single-worker pool (the historic pipeline).
    pub fn inline_pool() -> Self {
        Self::new(1)
    }

    /// A pool with an explicit admission-control bound.
    pub(crate) fn with_queue_capacity(workers: usize, capacity: usize) -> Self {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        if workers == 1 {
            return WorkerPool {
                queue: None,
                handles: Vec::new(),
                workers: 1,
            };
        }
        let queue = Arc::new(JobQueue::new(capacity));
        let handles = (0..workers)
            .map(|index| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("croesus-worker-{index}"))
                    .spawn(move || {
                        WORKER_INDEX.with(|w| w.set(Some(index)));
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            queue: Some(queue),
            handles,
            workers,
        }
    }

    /// Number of workers (1 means inline execution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether jobs run inline on the submitting thread.
    pub fn is_inline(&self) -> bool {
        self.queue.is_none()
    }

    /// Execute one wave of independent jobs, returning their results in
    /// submission order. Blocks until the whole wave has completed (waves
    /// execute in order; that barrier is the correctness argument).
    ///
    /// If any job panicked, the panic is re-thrown here — lowest
    /// submission index first.
    pub fn run_wave<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let queue = match &self.queue {
            None => {
                // Inline: submission order IS execution order.
                WORKER_INDEX.with(|w| w.set(Some(0)));
                let out = jobs.into_iter().map(|f| f()).collect();
                WORKER_INDEX.with(|w| w.set(None));
                return out;
            }
            Some(queue) => queue,
        };
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let state: Arc<WaveState<T>> = Arc::new(WaveState {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            remaining: AtomicUsize::new(n),
            done_cv: Condvar::new(),
        });
        for (i, f) in jobs.into_iter().enumerate() {
            let state = Arc::clone(&state);
            // push() blocks when the queue is at capacity: bursty waves
            // drain through the admission bound instead of piling up.
            queue.push(Box::new(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(f));
                // Decrement under the slots mutex: the barrier below checks
                // `remaining` while holding it, so the count can never drop
                // between its check and its wait (no lost wakeup).
                let last = {
                    let mut slots = state.slots.lock().unwrap();
                    slots[i] = Some(result);
                    state.remaining.fetch_sub(1, Ordering::AcqRel) == 1
                };
                if last {
                    state.done_cv.notify_all();
                }
            }));
        }
        // Wave barrier: wait until every job has landed its slot. This is a
        // plain condvar even under mcheck — pool workers are real OS
        // threads without sched hooks, so they make real progress; the
        // model checker explores the *queue* with virtual tasks instead.
        {
            let mut slots = state.slots.lock().unwrap();
            while state.remaining.load(Ordering::Acquire) != 0 {
                slots = state.done_cv.wait(slots).unwrap();
            }
        }
        let slots = std::mem::take(&mut *state.slots.lock().unwrap());
        slots
            .into_iter()
            .map(|slot| match slot.expect("wave job left no result") {
                Ok(v) => v,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(queue) = &self.queue {
            queue.close();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn inline_pool_runs_jobs_in_submission_order_on_the_caller() {
        let pool = WorkerPool::new(1);
        assert!(pool.is_inline());
        let caller = std::thread::current().id();
        let out = pool.run_wave(
            (0..8)
                .map(|i| {
                    move || {
                        assert_eq!(std::thread::current().id(), caller);
                        assert_eq!(current_worker(), Some(0));
                        i * 10
                    }
                })
                .collect(),
        );
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(current_worker(), None, "worker id cleared after the wave");
    }

    #[test]
    fn pooled_wave_returns_results_in_submission_order() {
        let pool = WorkerPool::new(4);
        for _ in 0..20 {
            let out = pool.run_wave(
                (0..32u64)
                    .map(|i| {
                        move || {
                            // Vary job durations so completion order differs
                            // from submission order.
                            if i % 3 == 0 {
                                std::thread::yield_now();
                            }
                            i * i
                        }
                    })
                    .collect(),
            );
            assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn waves_are_a_barrier() {
        // A job from wave 2 must never observe wave 1 incomplete.
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for wave in 0..5u64 {
            let jobs: Vec<_> = (0..6)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    move || {
                        let seen = counter.fetch_add(1, Ordering::SeqCst);
                        assert!(seen >= wave * 6, "job from a later wave ran early");
                    }
                })
                .collect();
            pool.run_wave(jobs);
            assert_eq!(counter.load(Ordering::SeqCst), (wave + 1) * 6);
        }
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_losing_jobs() {
        // Capacity 2 with slow workers: submission must block and drain,
        // and every job still runs exactly once.
        let pool = WorkerPool::with_queue_capacity(2, 2);
        let ran = Arc::new(AtomicU64::new(0));
        let out = pool.run_wave(
            (0..16u64)
                .map(|i| {
                    let ran = Arc::clone(&ran);
                    move || {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        ran.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn workers_report_their_index() {
        let pool = WorkerPool::new(3);
        let out = pool.run_wave(
            (0..24)
                .map(|_| move || current_worker().expect("pool thread has an index"))
                .collect(),
        );
        assert!(out.iter().all(|&w| w < 3));
    }

    #[test]
    fn a_panicking_job_resurfaces_on_the_submitter() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_wave(
                (0..4)
                    .map(|i| move || if i == 2 { panic!("job 2 exploded") } else { i })
                    .collect(),
            )
        }));
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 2 exploded");
        // The pool survives the panic and keeps serving waves.
        assert_eq!(pool.run_wave(vec![|| 7]), vec![7]);
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_wave(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn closed_queue_drains_then_returns_none() {
        let q = JobQueue::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let hits = Arc::clone(&hits);
            q.push(Box::new(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        q.close();
        while let Some(job) = q.pop() {
            job();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert!(q.pop().is_none(), "closed and drained stays None");
    }

    #[test]
    fn dropping_the_pool_joins_its_workers() {
        let ran = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(4);
            let jobs: Vec<_> = (0..8)
                .map(|_| {
                    let ran = Arc::clone(&ran);
                    move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            pool.run_wave(jobs);
        }
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }
}

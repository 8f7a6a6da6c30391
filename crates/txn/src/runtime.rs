//! The wave-parallel edge runtime.
//!
//! §5.2.4's sequencer orders a batch into conflict-free waves precisely so
//! that "within a wave the runner may parallelize freely" — this module is
//! the runner. A [`WorkerPool`] of N workers is the submitting thread plus
//! N − 1 threads, each draining its own channel; [`WorkerPool::run_wave`]
//! cuts one wave of independent jobs into one contiguous chunk per worker
//! and returns their results **in submission order**, so drivers see
//! deterministic output regardless of which worker ran what.
//!
//! Design points:
//!
//! * **`workers == 1` is the inline path**: no threads, no channels, jobs
//!   run on the caller in submission order — byte-identical with the
//!   historic single-threaded pipeline (the golden-pin contract in
//!   ROADMAP.md). A wave of one job runs on the caller at any width.
//! * **One handoff per worker per wave**: chunk 0 runs on the submitter as
//!   worker 0, and each other chunk is one boxed job sent to one thread.
//!   There is no admission bound: the only producer is `run_wave`, which
//!   waits out its own wave, so at most one chunk per worker is ever
//!   queued.
//! * **No hand-rolled synchronization**: std channels carry every handoff
//!   and every report, so the pool has no wait of its own for the model
//!   checker to explore; real-thread conformance tests are its net.
//! * **Panic transparency**: every job runs under `catch_unwind`; a panic
//!   is carried back with its chunk and re-thrown on the submitting thread
//!   once every chunk has reported — lowest submission index first, so even
//!   failure order is deterministic and the wave barrier still holds.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Index of the pool worker running the current thread: `Some(0)` on the
/// submitting thread while it runs its own chunk (or an inline wave),
/// `Some(1..n)` on pool threads, `None` elsewhere.
pub fn current_worker() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Run one chunk's jobs in order, each under `catch_unwind`, so a panic
/// neither skips a chunk-mate nor escapes before the wave's barrier.
fn run_chunk<T, F: FnOnce() -> T>(jobs: Vec<F>) -> Vec<thread::Result<T>> {
    jobs.into_iter()
        .map(|f| panic::catch_unwind(AssertUnwindSafe(f)))
        .collect()
}

/// A per-edge pool of worker threads executing sequencer waves.
///
/// See the module docs for the contract; the short version: results come
/// back in submission order, `workers == 1` runs inline on the caller, and
/// the caller is always worker 0.
pub struct WorkerPool {
    /// Worker `i + 1`'s job channel and thread; empty for the inline pool.
    threads: Vec<(Sender<Job>, JoinHandle<()>)>,
}

impl WorkerPool {
    /// A pool of `workers` (≥ 1): the caller plus `workers − 1` threads;
    /// `workers == 1` is the inline, thread-free path.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let threads = (1..workers)
            .map(|index| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = thread::Builder::new()
                    .name(format!("croesus-worker-{index}"))
                    .spawn(move || {
                        WORKER_INDEX.with(|w| w.set(Some(index)));
                        for job in rx {
                            job();
                        }
                    })
                    .expect("spawn pool worker");
                (tx, handle)
            })
            .collect();
        WorkerPool { threads }
    }

    /// The thread-free single-worker pool (the historic pipeline).
    pub fn inline_pool() -> Self {
        Self::new(1)
    }

    /// Number of workers, the caller included (1 means inline execution).
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Whether jobs run inline on the submitting thread.
    pub fn is_inline(&self) -> bool {
        self.threads.is_empty()
    }

    /// Execute one wave of independent jobs, returning their results in
    /// submission order. Blocks until the whole wave has completed (waves
    /// execute in order; that barrier is the correctness argument).
    ///
    /// The wave is cut into `min(workers, len)` contiguous chunks of even
    /// size (the first `len % chunks` one job longer); the caller runs
    /// chunk 0 and each pool thread one other. If any job panicked, the
    /// panic is re-thrown here once every chunk has reported — lowest
    /// submission index first.
    pub fn run_wave<T, F>(&self, mut jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.is_inline() || jobs.len() <= 1 {
            // Inline: submission order IS execution order.
            WORKER_INDEX.with(|w| w.set(Some(0)));
            let out = jobs.into_iter().map(|f| f()).collect();
            WORKER_INDEX.with(|w| w.set(None));
            return out;
        }
        let len = jobs.len();
        let chunks = self.workers().min(len);
        let (size, longer) = (len / chunks, len % chunks);
        let (report_tx, report_rx) = mpsc::channel();
        // Split from the back, so chunk 0 stays in `jobs`' own buffer.
        for c in (1..chunks).rev() {
            let chunk = jobs.split_off(c * size + c.min(longer));
            let report_tx = report_tx.clone();
            let job: Job = Box::new(move || {
                // The submitter waits for every report, so it is listening.
                let _ = report_tx.send((c, run_chunk(chunk)));
            });
            self.threads[c - 1].0.send(job).expect("pool worker alive");
        }
        drop(report_tx);
        let mut reports: Vec<Option<Vec<thread::Result<T>>>> = (0..chunks).map(|_| None).collect();
        WORKER_INDEX.with(|w| w.set(Some(0)));
        reports[0] = Some(run_chunk(jobs));
        WORKER_INDEX.with(|w| w.set(None));
        for _ in 1..chunks {
            let (c, report) = report_rx.recv().expect("pool worker alive");
            reports[c] = Some(report);
        }
        let mut out = Vec::with_capacity(len);
        for report in reports {
            for result in report.expect("every chunk reports back") {
                match result {
                    Ok(v) => out.push(v),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing a thread's channel ends its loop once it drains.
        for (tx, handle) in self.threads.drain(..) {
            drop(tx);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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
    fn workers_report_their_index() {
        let pool = WorkerPool::new(3);
        let out = pool.run_wave(
            (0..24)
                .map(|_| move || current_worker().expect("pool thread has an index"))
                .collect(),
        );
        // Three contiguous chunks of eight: the caller's, then one per thread.
        assert!(out[..8].iter().all(|&w| w == 0), "the caller is worker 0");
        let mut threads = vec![out[8], out[16]];
        assert!(out[8..16].iter().all(|&w| w == out[8]));
        assert!(out[16..].iter().all(|&w| w == out[16]));
        threads.sort_unstable();
        assert_eq!(threads, vec![1, 2], "pool threads are workers 1..n");
        assert_eq!(current_worker(), None, "worker id cleared after the wave");
    }

    #[test]
    fn a_panic_in_the_callers_chunk_waits_for_the_other_chunks() {
        // Chunks [0, 1], [2, 3], [4, 5]: job 0 panics at once on the caller,
        // while every other job sleeps first. The panic must resurface only
        // after all of them have finished.
        let pool = WorkerPool::new(3);
        let finished = Arc::new(AtomicU64::new(0));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_wave(
                (0..6)
                    .map(|i| {
                        let finished = Arc::clone(&finished);
                        move || {
                            if i == 0 {
                                panic!("job 0 exploded");
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            finished.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect(),
            )
        }));
        let err = result.expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("job 0 exploded"));
        assert_eq!(finished.load(Ordering::SeqCst), 5, "the barrier held");
        assert_eq!(current_worker(), None, "worker id cleared after the wave");
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

//! Protocol instrumentation: commits, aborts, lock-hold times.
//!
//! Figure 6(a) compares MS-SR and MS-IA by "the average latency of holding
//! locks"; Figure 6(b) by abort rate. The executors feed this collector.
//!
//! Every record path is atomic-only (the lock-hold mean is a count and a
//! nanosecond sum, two `fetch_add`s): concurrent executor threads never
//! serialize on a mutex to report a latency, so a hot-spot workload's
//! contention shows up in the lock manager where it belongs, not in its
//! own measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Thread-safe protocol statistics collector.
#[derive(Default)]
pub struct ProtocolStats {
    begun: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    lock_holds: AtomicU64,
    lock_hold_ns: AtomicU64,
}

/// A point-in-time snapshot of [`ProtocolStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// Transactions that have begun (counted when an executor begins one).
    pub begun: u64,
    /// Transactions that finally committed.
    pub commits: u64,
    /// Transactions that aborted (always before initial commit).
    pub aborts: u64,
    /// Mean time locks were held per transaction, milliseconds.
    pub avg_lock_hold_ms: f64,
}

impl StatsSnapshot {
    /// `aborts / (commits + aborts)`, or 0 when nothing ran.
    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

impl ProtocolStats {
    /// A fresh collector.
    pub fn new() -> Self {
        ProtocolStats::default()
    }

    /// Record a transaction begin.
    ///
    /// The outcome counters use `SeqCst` rather than `Relaxed`: a begin
    /// must be globally ordered before the commit/abort that resolves it,
    /// or a concurrent snapshot can observe `commits + aborts > begun` —
    /// a transaction that apparently finished before it started. On
    /// x86-64 a `SeqCst` `fetch_add` compiles to the same `lock xadd` as
    /// `Relaxed`, so the hot path costs nothing extra.
    pub(crate) fn record_begin(&self) {
        self.begun.fetch_add(1, Ordering::SeqCst);
    }

    /// Record a final commit.
    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::SeqCst);
    }

    /// Record an abort.
    pub(crate) fn record_abort(&self) {
        self.aborts.fetch_add(1, Ordering::SeqCst);
    }

    /// Record how long one transaction held its locks.
    pub(crate) fn record_lock_hold(&self, held: Duration) {
        let ns = u64::try_from(held.as_nanos()).unwrap_or(u64::MAX);
        self.lock_holds.fetch_add(1, Ordering::Relaxed);
        self.lock_hold_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Current counters and means — a *consistent* snapshot.
    ///
    /// Loads are `SeqCst` and ordered outcomes-before-begun: in the
    /// sequentially-consistent total order, every commit/abort counted
    /// here had its begin recorded first (executors record a begin before
    /// any outcome), and any begins that landed between the two loads only
    /// *raise* `begun`. A
    /// mid-wave snapshot therefore always satisfies
    /// `commits + aborts <= begun`. (The previous independent
    /// `Relaxed` loads could observe an outcome whose begin was missing —
    /// `committed + aborted > begun`.)
    pub fn snapshot(&self) -> StatsSnapshot {
        let commits = self.commits.load(Ordering::SeqCst);
        let aborts = self.aborts.load(Ordering::SeqCst);
        let begun = self.begun.load(Ordering::SeqCst);
        let holds = self.lock_holds.load(Ordering::Relaxed);
        let avg_lock_hold_ms = if holds == 0 {
            0.0
        } else {
            self.lock_hold_ns.load(Ordering::Relaxed) as f64 / holds as f64 / 1_000_000.0
        };
        StatsSnapshot {
            begun,
            commits,
            aborts,
            avg_lock_hold_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_rates() {
        let s = ProtocolStats::new();
        s.record_commit();
        s.record_commit();
        s.record_abort();
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert!((snap.abort_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = ProtocolStats::new().snapshot();
        assert_eq!(snap.commits, 0);
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.avg_lock_hold_ms, 0.0);
    }

    #[test]
    fn lock_hold_statistics() {
        let s = ProtocolStats::new();
        s.record_lock_hold(Duration::from_millis(10));
        s.record_lock_hold(Duration::from_millis(30));
        let snap = s.snapshot();
        assert!((snap.avg_lock_hold_ms - 20.0).abs() < 0.5);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(ProtocolStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.record_commit();
                        s.record_lock_hold(Duration::from_micros(100));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().commits, 400);
    }

    /// Satellite regression: a snapshot racing many begin→resolve threads
    /// must never observe `commits + aborts > begun` — the old independent
    /// `Relaxed` loads could count an outcome whose begin was missing.
    #[test]
    fn mid_wave_snapshots_are_consistent() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let s = Arc::new(ProtocolStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..50_000u64 {
                        s.record_begin();
                        if (i + t) % 3 == 0 {
                            s.record_abort();
                        } else {
                            s.record_commit();
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = s.snapshot();
                        assert!(
                            snap.commits + snap.aborts <= snap.begun,
                            "inconsistent snapshot: {} commits + {} aborts > {} begun",
                            snap.commits,
                            snap.aborts,
                            snap.begun
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader must have raced the writers");
        }
        let snap = s.snapshot();
        assert_eq!(snap.begun, 200_000);
        assert_eq!(snap.commits + snap.aborts, 200_000);
    }

    /// Contention smoke: many threads hammering every record path at
    /// once must neither lose samples nor serialize on a lock. (The old
    /// implementation funnelled latencies through `Mutex<OnlineStats>`;
    /// this pins the atomic-only replacement's behaviour.)
    #[test]
    fn concurrent_recorders_do_not_block_each_other() {
        use std::sync::{Arc, Barrier};
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let s = Arc::new(ProtocolStats::new());
        let gate = Arc::new(Barrier::new(THREADS));
        let started = std::time::Instant::now();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = Arc::clone(&s);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    for i in 0..PER_THREAD {
                        s.record_commit();
                        s.record_abort();
                        s.record_lock_hold(Duration::from_micros(t as u64 * 100 + i % 50));
                        s.record_lock_hold(Duration::from_micros(i % 100));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.commits, total, "no sample lost");
        assert_eq!(snap.aborts, total);
        // Every lock-hold sample counted: thread t records
        // t*100 + i%50 µs and i%100 µs, 33 920 000 µs over 160 000
        // samples in all.
        assert_eq!(snap.avg_lock_hold_ms, 0.212, "no lock-hold sample lost");
        // Generous wall-clock bound: 320k atomic records must complete
        // far faster than any mutex-convoy pathology would allow.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "recording stalled: {:?}",
            started.elapsed()
        );
    }
}

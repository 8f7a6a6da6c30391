//! The concurrency experiments behind Figure 6(a) and 6(b): genuinely
//! concurrent execution of the real protocol implementations over a
//! hot-spot workload, driven through one [`Executor`] so every protocol
//! runs under the same harness.
//!
//! The edge→cloud round trip (≈1.25 s with YOLOv3-416) is replaced by a
//! scaled-down real sleep; reported lock-hold times add back the unscaled
//! remainder for MS-SR, whose holds span that wait by construction. MS-IA
//! holds never include the wait (locks are released at initial commit), so
//! its numbers need no correction. Each section also performs a small
//! amount of simulated work (`section_work`), calibrated to the paper's
//! Python prototype where a 5-update section takes on the order of a
//! millisecond.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use croesus_core::HotspotWorkload;
use croesus_sim::DetRng;
use croesus_store::{KvStore, LockManager, LockPolicy, TxnId};
use croesus_txn::{Executor, ExecutorCore, ProtocolKind, RwSet, Sequencer, TxnHandle, WorkerPool};

/// Configuration of one contention run.
#[derive(Clone, Copy, Debug)]
pub struct ContentionConfig {
    /// Total transactions to commit.
    pub txns: usize,
    /// Worker threads (MS-SR only; the released protocols use the
    /// sequencer).
    pub threads: usize,
    /// Hot-spot key range.
    pub key_range: u64,
    /// Updates per transaction (5 in the paper).
    pub updates: usize,
    /// The *scaled* real sleep standing in for the cloud round trip.
    pub scaled_cloud_wait: Duration,
    /// The full (unscaled) cloud round trip being modeled.
    pub full_cloud_wait: Duration,
    /// Simulated per-section execution work (inside the lock scope).
    pub section_work: Duration,
    /// Seed for workload key selection.
    pub seed: u64,
}

impl ContentionConfig {
    /// The paper's Figure-6 shape: batches of 50 transactions with 5
    /// updates each over the given hot-spot range; v4-style workload. The
    /// cloud wait is scaled 1:100 to keep the experiment fast; each
    /// section performs ~0.5 ms of work as in the Python prototype.
    pub fn paper(key_range: u64) -> Self {
        ContentionConfig {
            txns: 200,
            threads: 8,
            key_range,
            updates: 5,
            scaled_cloud_wait: Duration::from_micros(12_500),
            full_cloud_wait: Duration::from_millis(1_250),
            section_work: Duration::from_micros(500),
            seed: 42,
        }
    }
}

/// The outcome of one contention run.
#[derive(Clone, Copy, Debug)]
pub struct ContentionResult {
    /// Committed transactions.
    pub commits: u64,
    /// Total aborted attempts (each aborted attempt was retried).
    pub total_aborts: u64,
    /// Transactions whose *first* attempt aborted — the paper's batch
    /// abort rate counts a transaction once.
    pub first_attempt_aborts: u64,
    /// `first_attempt_aborts / txns`.
    pub abort_rate: f64,
    /// Mean lock-hold time per transaction, corrected to the unscaled
    /// cloud wait, in milliseconds.
    pub avg_hold_ms: f64,
}

fn rwsets(cfg: &ContentionConfig) -> Vec<RwSet> {
    let workload = HotspotWorkload {
        key_range: cfg.key_range,
        updates: cfg.updates,
    };
    let mut rng = DetRng::new(cfg.seed).fork_named("contention");
    (0..cfg.txns).map(|_| workload.rwset(&mut rng)).collect()
}

fn protocol(kind: ProtocolKind, policy: LockPolicy) -> Arc<Executor> {
    Arc::new(kind.build(ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(policy)),
    )))
}

/// Run the workload under MS-SR (TSPL) with the given lock policy
/// (wait-die in the paper; no-wait as an ablation), `cfg.threads` workers,
/// retrying killed transactions with their original ids until they commit.
/// Locks stay held across the (scaled) cloud wait — that is the protocol.
pub fn run_ms_sr_with_policy(cfg: &ContentionConfig, policy: LockPolicy) -> ContentionResult {
    let sets = Arc::new(rwsets(cfg));
    let executor = protocol(ProtocolKind::MsSr, policy);
    let next = Arc::new(AtomicUsize::new(0));
    let first_attempt_aborts = Arc::new(AtomicU64::new(0));
    let wait = cfg.scaled_cloud_wait;
    let work = cfg.section_work;

    let handles: Vec<_> = (0..cfg.threads)
        .map(|_| {
            let sets = Arc::clone(&sets);
            let executor = Arc::clone(&executor);
            let next = Arc::clone(&next);
            let first_attempt_aborts = Arc::clone(&first_attempt_aborts);
            thread::spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= sets.len() {
                    break;
                }
                let rw = &sets[idx];
                let mut attempt = 0u32;
                // The final section updates the same keys: TSPL must lock
                // them before initial commit and hold across the wait.
                loop {
                    attempt += 1;
                    let h = executor.begin(TxnId(idx as u64), &[rw.clone(), rw.clone()]);
                    let initial = executor.stage(h, rw, |ctx| {
                        thread::sleep(work);
                        for k in &rw.writes {
                            ctx.write(k.clone(), 1i64)?;
                        }
                        Ok(())
                    });
                    match initial {
                        Ok((_, pending)) => {
                            thread::sleep(wait);
                            executor
                                .stage(pending.expect("two stages"), rw, |ctx| {
                                    thread::sleep(work);
                                    for k in &rw.writes {
                                        ctx.write(k.clone(), 2i64)?;
                                    }
                                    Ok(())
                                })
                                .expect("final stages cannot abort");
                            break;
                        }
                        Err(_) => {
                            if attempt == 1 {
                                first_attempt_aborts.fetch_add(1, Ordering::Relaxed);
                            }
                            thread::yield_now();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let snap = executor.stats().snapshot();
    // Committed holds span one scaled wait each; add back the remainder.
    let correction_ms =
        (cfg.full_cloud_wait.as_secs_f64() - cfg.scaled_cloud_wait.as_secs_f64()) * 1e3;
    let first = first_attempt_aborts.load(Ordering::Relaxed);
    ContentionResult {
        commits: snap.commits,
        total_aborts: snap.aborts,
        first_attempt_aborts: first,
        abort_rate: first as f64 / cfg.txns.max(1) as f64,
        avg_hold_ms: snap.avg_lock_hold_ms + correction_ms,
    }
}

/// MS-SR with the paper's wait-die policy.
pub fn run_ms_sr(cfg: &ContentionConfig) -> ContentionResult {
    run_ms_sr_with_policy(cfg, LockPolicy::WaitDie)
}

/// Run the workload under a lock-releasing protocol (MS-IA or staged)
/// with the paper's single-threaded batch sequencer: conflicting
/// transactions never overlap, so the abort rate is 0% and locks are held
/// only for the duration of a section. The cloud wait happens between the
/// stages, with no locks held — the whole point of MS-IA.
///
/// Each sequencer wave runs on a [`WorkerPool`] of `workers` threads; one
/// worker is the inline, thread-free path, and more give the
/// wave-parallel edge runtime's scaling curve, measured in isolation.
/// Both the initial *and* final sections run wave by wave. That is safe
/// because the contention workload has no retraction cascades: a final
/// section touches exactly its declared footprint, so wave-mates stay
/// disjoint. (The edge pipeline must honour cascades that can restore
/// keys outside any declared footprint, which is why it keeps finals
/// sequential — see DESIGN.md.)
pub fn run_released(
    kind: ProtocolKind,
    cfg: &ContentionConfig,
    workers: usize,
) -> ContentionResult {
    assert!(
        kind != ProtocolKind::MsSr,
        "MS-SR holds locks across waits; use run_ms_sr"
    );
    let sets = Arc::new(rwsets(cfg));
    let executor = protocol(kind, LockPolicy::Block);
    let pool = WorkerPool::new(workers);
    let work = cfg.section_work;

    let waves = Sequencer::waves(&sets);
    let mut pendings: Vec<Option<TxnHandle>> = (0..sets.len()).map(|_| None).collect();
    for wave in &waves {
        let jobs: Vec<_> = wave
            .iter()
            .map(|&idx| {
                let sets = Arc::clone(&sets);
                let executor = Arc::clone(&executor);
                move || {
                    let rw = &sets[idx];
                    let h = executor.begin(TxnId(idx as u64), &[rw.clone(), rw.clone()]);
                    let (_, p) = executor
                        .stage(h, rw, |ctx| {
                            thread::sleep(work);
                            for k in &rw.writes {
                                ctx.write(k.clone(), 1i64)?;
                            }
                            Ok(())
                        })
                        .expect("sequenced initial sections cannot conflict");
                    (idx, p)
                }
            })
            .collect();
        for (idx, p) in pool.run_wave(jobs) {
            pendings[idx] = p;
        }
    }

    for wave in &waves {
        let jobs: Vec<_> = wave
            .iter()
            .map(|&idx| {
                let sets = Arc::clone(&sets);
                let executor = Arc::clone(&executor);
                let p = pendings[idx].take().expect("every initial committed");
                move || {
                    let rw = &sets[idx];
                    executor
                        .stage(p, rw, |ctx| {
                            thread::sleep(work);
                            for k in &rw.writes {
                                ctx.write(k.clone(), 2i64)?;
                            }
                            Ok(())
                        })
                        .expect("final sections cannot abort");
                }
            })
            .collect();
        pool.run_wave(jobs);
    }

    let snap = executor.stats().snapshot();
    ContentionResult {
        commits: snap.commits,
        total_aborts: snap.aborts,
        first_attempt_aborts: snap.aborts,
        abort_rate: snap.abort_rate(),
        avg_hold_ms: snap.avg_lock_hold_ms,
    }
}

/// MS-IA under the sequencer, inline (the paper's 0%-abort configuration).
pub fn run_ms_ia(cfg: &ContentionConfig) -> ContentionResult {
    run_released(ProtocolKind::MsIa, cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(key_range: u64) -> ContentionConfig {
        ContentionConfig {
            txns: 60,
            threads: 4,
            key_range,
            updates: 5,
            scaled_cloud_wait: Duration::from_micros(500),
            full_cloud_wait: Duration::from_millis(1_250),
            section_work: Duration::from_micros(100),
            seed: 42,
        }
    }

    #[test]
    fn ms_sr_commits_everything_despite_aborts() {
        let r = run_ms_sr(&small(20));
        assert_eq!(r.commits, 60);
        assert!(
            r.total_aborts > 0,
            "hot spot of 20 keys must cause wait-die kills"
        );
        assert!(r.abort_rate > 0.0 && r.abort_rate <= 1.0);
        assert!(r.first_attempt_aborts <= r.total_aborts);
    }

    #[test]
    fn ms_ia_has_zero_aborts() {
        let r = run_ms_ia(&small(20));
        assert_eq!(r.commits, 60);
        assert_eq!(r.total_aborts, 0);
        assert_eq!(r.abort_rate, 0.0);
    }

    #[test]
    fn staged_matches_ms_ia_under_the_sequencer() {
        let r = run_released(ProtocolKind::Staged, &small(20), 1);
        assert_eq!(r.commits, 60);
        assert_eq!(r.total_aborts, 0);
    }

    #[test]
    fn ms_sr_holds_locks_across_cloud_wait_ms_ia_does_not() {
        let sr = run_ms_sr(&small(10_000));
        let ia = run_ms_ia(&small(10_000));
        assert!(
            sr.avg_hold_ms > 1_000.0,
            "MS-SR holds span the (corrected) cloud wait: {}",
            sr.avg_hold_ms
        );
        assert!(
            ia.avg_hold_ms < 50.0,
            "MS-IA holds are section-local: {}",
            ia.avg_hold_ms
        );
        // With simulated section work, MS-IA holds are sub-10ms but
        // non-trivial (the paper reports milliseconds).
        assert!(
            ia.avg_hold_ms > 0.05,
            "holds include section work: {}",
            ia.avg_hold_ms
        );
    }

    #[test]
    fn bigger_hotspot_reduces_ms_sr_aborts() {
        let tiny = run_ms_sr(&small(10));
        let wide = run_ms_sr(&small(100_000));
        assert!(
            tiny.abort_rate > wide.abort_rate,
            "tiny {} vs wide {}",
            tiny.abort_rate,
            wide.abort_rate
        );
    }

    #[test]
    fn nowait_policy_runs_to_completion() {
        let r = run_ms_sr_with_policy(&small(50), LockPolicy::NoWait);
        assert_eq!(r.commits, 60);
    }

    #[test]
    fn pooled_release_matches_the_sequential_harness() {
        for kind in [ProtocolKind::MsIa, ProtocolKind::Staged] {
            let seq = run_released(kind, &small(20), 1);
            let pooled = run_released(kind, &small(20), 4);
            assert_eq!(pooled.commits, seq.commits, "{kind}");
            assert_eq!(pooled.commits, 60, "{kind}");
            assert_eq!(pooled.total_aborts, 0, "{kind}: waves stay conflict-free");
            assert_eq!(pooled.abort_rate, 0.0, "{kind}");
        }
    }
}

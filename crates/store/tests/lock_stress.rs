//! Lincheck-style concurrent stress tests for the batched lock manager
//! (modeled on the lincheck approach: run many threads through randomized
//! concurrent schedules and verify the sequential invariants hold — here
//! mutual exclusion, wait-die progress, no lost wakeups and no deadlock
//! with interleaved shard batches).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use croesus_store::{Key, LockError, LockManager, LockMode, LockPolicy, TxnId};

/// Deterministic per-thread key-set generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn random_lock_set(rng: &mut Rng, key_range: u64, n: usize) -> Vec<(Key, LockMode)> {
    let mut pairs: Vec<(Key, LockMode)> = (0..n)
        .map(|_| {
            let k = Key::indexed("stress", rng.next() % key_range);
            let mode = if rng.next().is_multiple_of(4) {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            (k, mode)
        })
        .collect();
    // Dedup keeping the strongest mode, like RwSet::lock_pairs does.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.dedup_by(|a, b| {
        if a.0 == b.0 {
            if a.1 == LockMode::Exclusive {
                b.1 = LockMode::Exclusive;
            }
            true
        } else {
            false
        }
    });
    pairs
}

/// Under wait-die, concurrent batched acquisitions over a small hot range
/// must all make progress (dying transactions retry with their original
/// id) while every granted exclusive key is held by exactly one owner.
#[test]
fn batched_wait_die_keeps_exclusion_and_progress() {
    const THREADS: u64 = 8;
    const ROUNDS: usize = 150;
    const KEY_RANGE: u64 = 24;

    let lm = Arc::new(LockManager::new(LockPolicy::WaitDie));
    // Per-key owner tags: 0 = free, otherwise txn id + 1.
    let owners: Arc<Vec<AtomicU64>> = Arc::new((0..KEY_RANGE).map(|_| AtomicU64::new(0)).collect());
    let readers: Arc<Vec<AtomicU64>> =
        Arc::new((0..KEY_RANGE).map(|_| AtomicU64::new(0)).collect());
    let die_count = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let owners = Arc::clone(&owners);
            let readers = Arc::clone(&readers);
            let die_count = Arc::clone(&die_count);
            thread::spawn(move || {
                let mut rng = Rng(t * 7919 + 1);
                for round in 0..ROUNDS {
                    let txn = TxnId(t + 1);
                    let pairs = random_lock_set(&mut rng, KEY_RANGE, 2 + (round % 5));
                    loop {
                        match lm.acquire_all(txn, &pairs, None) {
                            Ok(()) => break,
                            Err(LockError::Die) => {
                                die_count.fetch_add(1, Ordering::Relaxed);
                                thread::yield_now();
                            }
                            Err(e) => panic!("unexpected error under wait-die: {e}"),
                        }
                    }
                    // Validate exclusion while the batch is held.
                    let idx = |k: &Key| -> usize {
                        k.as_str().rsplit('/').next().unwrap().parse().unwrap()
                    };
                    for (k, mode) in &pairs {
                        let i = idx(k);
                        match mode {
                            LockMode::Exclusive => {
                                let prev = owners[i].swap(txn.0 + 1, Ordering::SeqCst);
                                assert_eq!(prev, 0, "exclusive key {k} already owned");
                                assert_eq!(
                                    readers[i].load(Ordering::SeqCst),
                                    0,
                                    "exclusive key {k} has readers"
                                );
                            }
                            LockMode::Shared => {
                                readers[i].fetch_add(1, Ordering::SeqCst);
                                assert_eq!(
                                    owners[i].load(Ordering::SeqCst),
                                    0,
                                    "shared key {k} has an exclusive owner"
                                );
                            }
                        }
                    }
                    // Hold the batch briefly so rounds genuinely overlap.
                    std::hint::black_box(&owners);
                    thread::yield_now();
                    for (k, mode) in &pairs {
                        let i = idx(k);
                        match mode {
                            LockMode::Exclusive => {
                                owners[i].store(0, Ordering::SeqCst);
                            }
                            LockMode::Shared => {
                                readers[i].fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                    }
                    lm.release_all(txn, pairs.iter().map(|(k, _)| k));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress worker panicked");
    }
    assert_eq!(lm.locked_keys(), 0, "all batches fully released");
    // Wait-die kills are timing-dependent (zero on a fully-serialized
    // schedule), so progress + exclusion above are the hard assertions;
    // the kill count is informational.
    eprintln!(
        "wait-die kills observed: {}",
        die_count.load(Ordering::Relaxed)
    );
}

/// Under Block, interleaved shard batches from transactions whose key sets
/// overlap pairwise in *opposite* orders must not deadlock: batches are
/// granted shard-by-shard in increasing shard index, all-or-nothing per
/// shard. A watchdog converts a hang into a test failure.
#[test]
fn interleaved_shard_batches_do_not_deadlock_under_block() {
    const THREADS: u64 = 8;
    const ROUNDS: usize = 200;

    let lm = Arc::new(LockManager::new(LockPolicy::Block));
    // Key sets chosen to overlap heavily and span many shards.
    let all_keys: Vec<Key> = (0..40).map(|i| Key::indexed("dl", i)).collect();
    let done = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let done = Arc::clone(&done);
            let all_keys = all_keys.clone();
            thread::spawn(move || {
                let mut rng = Rng(t * 104_729 + 3);
                for _ in 0..ROUNDS {
                    // Overlapping slice, direction alternating by thread.
                    let start = (rng.next() % 30) as usize;
                    let mut ks: Vec<(Key, LockMode)> = all_keys[start..start + 10]
                        .iter()
                        .map(|k| (k.clone(), LockMode::Exclusive))
                        .collect();
                    if t % 2 == 1 {
                        ks.reverse();
                    }
                    lm.acquire_all(TxnId(t), &ks, None).unwrap();
                    lm.release_all(TxnId(t), ks.iter().map(|(k, _)| k));
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    // Watchdog: poll the completion counter with a deadline BEFORE joining
    // (a join would block forever on a deadlocked worker and the deadline
    // would never be checked).
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::SeqCst) < THREADS as usize {
        assert!(
            Instant::now() < deadline,
            "deadlock suspected: {}/{} threads finished",
            done.load(Ordering::SeqCst),
            THREADS
        );
        thread::sleep(Duration::from_millis(20));
    }
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(done.load(Ordering::SeqCst), THREADS as usize);
    assert_eq!(lm.locked_keys(), 0);
}

/// Mixing single-key `acquire` with batched `acquire_all` on the same keys
/// must not lose wakeups: a batch waiting on a shard must be woken by a
/// single-key release in that shard, and vice versa.
#[test]
fn no_lost_wakeups_between_single_and_batched_paths() {
    const ROUNDS: usize = 300;
    let lm = Arc::new(LockManager::new(LockPolicy::Block));
    let keys: Vec<(Key, LockMode)> = (0..6)
        .map(|i| (Key::indexed("w", i), LockMode::Exclusive))
        .collect();

    let batcher = {
        let lm = Arc::clone(&lm);
        let keys = keys.clone();
        thread::spawn(move || {
            for _ in 0..ROUNDS {
                lm.acquire_all(TxnId(1), &keys, None).unwrap();
                lm.release_all(TxnId(1), keys.iter().map(|(k, _)| k));
            }
        })
    };
    let mut workers: Vec<_> = (0..3u64)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let keys = keys.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    let (k, mode) = &keys[(round as u64 + t) as usize % keys.len()];
                    lm.acquire(TxnId(10 + t), k, *mode, None).unwrap();
                    lm.release(TxnId(10 + t), k);
                }
            })
        })
        .collect();
    workers.push(batcher);

    join_within(workers, Duration::from_secs(60));
    assert_eq!(lm.locked_keys(), 0);
}

/// Timed single-key retries race a blocking batch's `release_all` on one
/// shared shard: every expired wait must leave the condvar's waiter count
/// exact, or a release skips the parked batch and the run hangs (which the
/// watchdog turns into a failure).
#[test]
fn timed_retries_racing_release_all_lose_no_wakeups() {
    const ROUNDS: usize = 300;
    let lm = Arc::new(LockManager::with_shards(LockPolicy::Block, 1));
    let keys: Vec<(Key, LockMode)> = (0..4)
        .map(|i| (Key::indexed("tw", i), LockMode::Exclusive))
        .collect();
    let timeouts = Arc::new(AtomicUsize::new(0));

    let batcher = {
        let lm = Arc::clone(&lm);
        let keys = keys.clone();
        thread::spawn(move || {
            for _ in 0..ROUNDS {
                lm.acquire_all(TxnId(1), &keys, None).unwrap();
                // Hold past the retriers' timeout so their waits expire.
                thread::sleep(Duration::from_micros(100));
                lm.release_all(TxnId(1), keys.iter().map(|(k, _)| k));
            }
        })
    };
    let mut workers: Vec<_> = (0..3u64)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let keys = keys.clone();
            let timeouts = Arc::clone(&timeouts);
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    let (k, mode) = &keys[(round as u64 + t) as usize % keys.len()];
                    loop {
                        match lm.acquire(TxnId(10 + t), k, *mode, Some(Duration::from_micros(20))) {
                            Ok(()) => break,
                            Err(LockError::Timeout) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected error under Block: {e}"),
                        }
                    }
                    thread::yield_now();
                    lm.release(TxnId(10 + t), k);
                }
            })
        })
        .collect();
    workers.push(batcher);

    join_within(workers, Duration::from_secs(60));
    assert_eq!(lm.locked_keys(), 0);
    // Timing-dependent, so informational only.
    eprintln!(
        "timed waits that expired: {}",
        timeouts.load(Ordering::Relaxed)
    );
}

/// Watchdog: poll every worker against a deadline BEFORE joining, so a
/// lost wakeup fails the test instead of hanging it.
fn join_within(workers: Vec<thread::JoinHandle<()>>, limit: Duration) {
    let deadline = Instant::now() + limit;
    loop {
        let finished = workers.iter().filter(|w| w.is_finished()).count();
        if finished == workers.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "lost wakeup suspected: {finished}/{} threads finished",
            workers.len()
        );
        thread::sleep(Duration::from_millis(20));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
}

/// Failed batched acquisition (NoWait) under concurrency must roll back
/// completely: after the storm, retrying every set serially succeeds.
#[test]
fn concurrent_nowait_failures_leave_no_residue() {
    const THREADS: u64 = 8;
    let lm = Arc::new(LockManager::new(LockPolicy::NoWait));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let lm = Arc::clone(&lm);
            thread::spawn(move || {
                let mut rng = Rng(t + 17);
                let mut wins = 0u64;
                for round in 0..400 {
                    let pairs = random_lock_set(&mut rng, 16, 3 + round % 4);
                    if lm.acquire_all(TxnId(t), &pairs, None).is_ok() {
                        wins += 1;
                        lm.release_all(TxnId(t), pairs.iter().map(|(k, _)| k));
                    }
                }
                wins
            })
        })
        .collect();
    let mut total_wins = 0;
    for h in handles {
        total_wins += h.join().expect("worker panicked");
    }
    assert!(total_wins > 0, "some batches must have succeeded");
    assert_eq!(
        lm.locked_keys(),
        0,
        "failed no-wait batches must leave zero residue"
    );
    // Sanity: the table is genuinely clean — a full sweep lock succeeds.
    let sweep: Vec<(Key, LockMode)> = (0..16)
        .map(|i| (Key::indexed("stress", i), LockMode::Exclusive))
        .collect();
    lm.acquire_all(TxnId(99), &sweep, None).unwrap();
    lm.release_all(TxnId(99), sweep.iter().map(|(k, _)| k));
    assert_eq!(lm.locked_keys(), 0);
}

/// The batch path must agree with the single-key path on re-entrancy and
/// upgrades: a transaction holding part of a batch already (in weaker or
/// equal modes) can still batch-acquire the full set.
#[test]
fn batch_reacquisition_is_reentrant_and_upgrades() {
    let lm = LockManager::new(LockPolicy::NoWait);
    let a = Key::new("re/a");
    let b = Key::new("re/b");
    lm.lock(TxnId(1), &a, LockMode::Shared).unwrap();
    let pairs = vec![
        (a.clone(), LockMode::Exclusive),
        (b.clone(), LockMode::Shared),
    ];
    lm.acquire_all(TxnId(1), &pairs, None).unwrap();
    assert_eq!(lm.held_mode(TxnId(1), &a), Some(LockMode::Exclusive));
    assert_eq!(lm.held_mode(TxnId(1), &b), Some(LockMode::Shared));
    // Downgrade does not overwrite.
    lm.acquire_all(TxnId(1), &[(a.clone(), LockMode::Shared)], None)
        .unwrap();
    assert_eq!(lm.held_mode(TxnId(1), &a), Some(LockMode::Exclusive));
    lm.release_all(TxnId(1), [&a, &b]);
    assert_eq!(lm.locked_keys(), 0);
}

/// Keys sharing one shard exercise the intra-shard all-or-nothing grant:
/// with a single shard, every batch serializes through one mutex and the
/// exclusion invariant must still hold.
#[test]
fn single_shard_batches_still_exclude() {
    let lm = Arc::new(LockManager::with_shards(LockPolicy::Block, 1));
    let in_cs = Arc::new(AtomicUsize::new(0));
    let keys: Vec<(Key, LockMode)> = (0..4)
        .map(|i| (Key::indexed("one", i), LockMode::Exclusive))
        .collect();
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let lm = Arc::clone(&lm);
            let keys = keys.clone();
            let in_cs = Arc::clone(&in_cs);
            thread::spawn(move || {
                for _ in 0..200 {
                    lm.acquire_all(TxnId(t), &keys, None).unwrap();
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    lm.release_all(TxnId(t), keys.iter().map(|(k, _)| k));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(lm.locked_keys(), 0);
}

/// A sanity map from key text to lock-table behavior: held_mode and
/// locked_keys must see exactly what acquire_all granted (catches hash /
/// equality mismatches between the batch path and probe path).
#[test]
fn batch_grants_are_visible_to_point_queries() {
    let lm = LockManager::new(LockPolicy::Block);
    let pairs: Vec<(Key, LockMode)> = (0..64)
        .map(|i| {
            let mode = if i % 3 == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            (Key::indexed("vis", i), mode)
        })
        .collect();
    lm.acquire_all(TxnId(7), &pairs, None).unwrap();
    let expected: HashMap<&str, LockMode> = pairs.iter().map(|(k, m)| (k.as_str(), *m)).collect();
    assert_eq!(lm.locked_keys(), 64);
    for (k, _) in &pairs {
        assert_eq!(lm.held_mode(TxnId(7), k), Some(expected[k.as_str()]));
    }
    lm.release_all(TxnId(7), pairs.iter().map(|(k, _)| k));
    assert_eq!(lm.locked_keys(), 0);
}

//! The batch sequencer.
//!
//! §5.2.4: "our implementation uses a single-threaded sequencer to order
//! transactions in batches so that conflicting transactions do not overlap.
//! This is possible as the transactions do not have to hold locks for
//! prolonged durations." This is how the paper's MS-IA configuration gets a
//! 0% abort rate in Figure 6(b).
//!
//! [`Sequencer::waves`] partitions a batch into *waves*: within a wave no
//! two transactions conflict, so a wave may run with full concurrency (or
//! under a lock manager with zero conflicts); waves execute in order.
//! [`Sequencer::waves_of`] does the same for transactions that declare
//! several stage sets, sequencing each on the union of its sets without
//! building it.

use std::collections::HashMap;

use croesus_store::value::KeyHashBuilder;
use croesus_store::Key;

use crate::model::RwSet;
use crate::runtime::WorkerPool;

/// Orders batches of transactions by their declared read/write sets.
///
/// ```
/// use croesus_txn::{RwSet, Sequencer};
/// let batch = vec![
///     RwSet::new().write("x"),   // 0
///     RwSet::new().write("x"),   // 1: conflicts with 0
///     RwSet::new().write("y"),   // 2: independent
/// ];
/// let waves = Sequencer::waves(&batch);
/// assert_eq!(waves, vec![vec![0, 2], vec![1]]);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequencer;

impl Sequencer {
    /// Partition batch indices into conflict-free waves (greedy first-fit):
    /// [`waves_of`](Self::waves_of) with one stage set per transaction.
    ///
    /// Properties:
    /// * every index appears in exactly one wave;
    /// * no two transactions in the same wave conflict;
    /// * conflicting transactions land in waves ordered by batch position
    ///   (the earlier transaction's wave comes first), preserving the
    ///   batch's intent order.
    pub fn waves(rwsets: &[RwSet]) -> Vec<Vec<usize>> {
        Self::waves_of(rwsets.iter().map(std::slice::from_ref))
    }

    /// [`waves`](Self::waves) for transactions declaring several stage
    /// sets: each transaction's footprint is the union of its sets, read
    /// in place — the union is never built.
    ///
    /// One map per batch keeps, for every declared key, one past the latest
    /// wave that writes it and one past the latest wave that reads it. A
    /// transaction goes one wave past the latest wave it conflicts with
    /// (wave 0 if none), which is exactly where pairwise first-fit puts it,
    /// at a cost linear in the declared keys.
    pub fn waves_of<'a, T>(txns: impl IntoIterator<Item = T>) -> Vec<Vec<usize>>
    where
        T: IntoIterator<Item = &'a RwSet> + Clone,
    {
        let mut latest: HashMap<&'a Key, (usize, usize), KeyHashBuilder> = HashMap::default();
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for (i, stages) in txns.into_iter().enumerate() {
            let mut wave = 0;
            for rw in stages.clone() {
                for key in &rw.writes {
                    if let Some(&(written, read)) = latest.get(key) {
                        wave = wave.max(written).max(read);
                    }
                }
                for key in &rw.reads {
                    if let Some(&(written, _)) = latest.get(key) {
                        wave = wave.max(written);
                    }
                }
            }
            for rw in stages {
                for key in &rw.writes {
                    let slot = latest.entry(key).or_default();
                    slot.0 = slot.0.max(wave + 1);
                }
                for key in &rw.reads {
                    let slot = latest.entry(key).or_default();
                    slot.1 = slot.1.max(wave + 1);
                }
            }
            if wave == waves.len() {
                waves.push(Vec::new());
            }
            waves[wave].push(i);
        }
        waves
    }

    /// Execute a batch through a runner, wave by wave. The runner receives
    /// the batch index of each transaction; within a wave the runner may
    /// parallelize freely — this helper calls it sequentially, which is
    /// behaviourally equivalent because waves are conflict-free.
    ///
    /// Error semantics (deterministic by construction, so the parallel
    /// runner in [`Sequencer::run_batch_on`] can promise the same thing):
    /// every transaction in the failing wave still runs — a wave's entries
    /// are independent, and under parallel execution they would all be in
    /// flight anyway — and the error reported is the one at the **lowest
    /// batch index**. Waves after a failed wave do not run.
    pub fn run_batch<E>(
        rwsets: &[RwSet],
        mut run: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<(), E> {
        for wave in Self::waves(rwsets) {
            let results: Vec<(usize, Result<(), E>)> =
                wave.into_iter().map(|idx| (idx, run(idx))).collect();
            Self::first_wave_error(results)?;
        }
        Ok(())
    }

    /// Execute a batch wave-by-wave on a [`WorkerPool`], with the same
    /// deterministic error semantics as [`Sequencer::run_batch`]: the whole
    /// wave completes, the lowest-batch-index error wins, later waves are
    /// skipped. Waves are a barrier — wave *w + 1* never starts until every
    /// job of wave *w* has finished.
    pub fn run_batch_on<E>(
        pool: &WorkerPool,
        rwsets: &[RwSet],
        run: impl Fn(usize) -> Result<(), E> + Send + Sync + 'static,
    ) -> Result<(), E>
    where
        E: Send + 'static,
    {
        let run = std::sync::Arc::new(run);
        for wave in Self::waves(rwsets) {
            let results = pool.run_wave(
                wave.iter()
                    .map(|&idx| {
                        let run = std::sync::Arc::clone(&run);
                        move || (idx, run(idx))
                    })
                    .collect(),
            );
            Self::first_wave_error(results)?;
        }
        Ok(())
    }

    /// Deterministic failure selection: the error at the lowest batch
    /// index, if any entry of the wave failed.
    fn first_wave_error<E>(results: Vec<(usize, Result<(), E>)>) -> Result<(), E> {
        let mut first: Option<(usize, E)> = None;
        for (idx, r) in results {
            if let Err(e) = r {
                if first.as_ref().is_none_or(|(lowest, _)| idx < *lowest) {
                    first = Some((idx, e));
                }
            }
        }
        match first {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw(reads: &[&str], writes: &[&str]) -> RwSet {
        let mut s = RwSet::new();
        for r in reads {
            s = s.read(*r);
        }
        for w in writes {
            s = s.write(*w);
        }
        s
    }

    /// The oracle: pairwise greedy first-fit, re-deriving every conflict
    /// from the sets. A transaction may only be placed in wave w if it
    /// conflicts with nothing in w AND with nothing in any *later* wave —
    /// otherwise it would run before a conflicting transaction that
    /// precedes it in the batch.
    fn first_fit(rwsets: &[RwSet]) -> Vec<Vec<usize>> {
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for (i, rw) in rwsets.iter().enumerate() {
            let mut placed = false;
            for w in (0..waves.len()).rev() {
                let conflicts_here = waves[w].iter().any(|&j| rwsets[j].conflicts_with(rw));
                if conflicts_here {
                    // Must go in a wave strictly after w.
                    if w + 1 < waves.len() {
                        waves[w + 1].push(i);
                    } else {
                        waves.push(vec![i]);
                    }
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Conflicts with no earlier transaction: join the first wave.
                match waves.first_mut() {
                    Some(w0) => w0.push(i),
                    None => waves.push(vec![i]),
                }
            }
        }
        waves
    }

    /// A random stage set: 1–3 operations over at most 8 keys, reads and
    /// writes mixed.
    fn random_set(rng: &mut croesus_sim::DetRng) -> RwSet {
        let mut s = RwSet::new();
        for _ in 0..(1 + rng.index(3)) {
            let key = format!("k{}", rng.index(8));
            if rng.bernoulli(0.5) {
                s = s.write(key.as_str());
            } else {
                s = s.read(key.as_str());
            }
        }
        s
    }

    #[test]
    fn waves_of_matches_first_fit_over_each_union() {
        use croesus_sim::DetRng;
        for seed in [1u64, 7, 42, 2024] {
            let mut rng = DetRng::new(seed);
            for _ in 0..200 {
                let n = rng.index(25);
                let txns: Vec<Vec<RwSet>> = (0..n)
                    .map(|_| {
                        (0..1 + rng.index(3))
                            .map(|_| random_set(&mut rng))
                            .collect()
                    })
                    .collect();
                let unions: Vec<RwSet> = txns
                    .iter()
                    .map(|sets| sets.iter().fold(RwSet::new(), |u, s| u.union(s)))
                    .collect();
                let waves = Sequencer::waves_of(&txns);
                assert_eq!(waves, first_fit(&unions), "seed {seed}: {txns:?}");
                assert_valid_waves(&unions, &waves);
            }
        }
    }

    #[test]
    fn waves_is_waves_of_over_one_set_transactions() {
        use croesus_sim::DetRng;
        for seed in [3u64, 11, 99] {
            let mut rng = DetRng::new(seed);
            for _ in 0..200 {
                let sets: Vec<RwSet> = (0..rng.index(25)).map(|_| random_set(&mut rng)).collect();
                let one_set: Vec<[&RwSet; 1]> = sets.iter().map(|s| [s]).collect();
                let waves = Sequencer::waves(&sets);
                assert_eq!(waves, Sequencer::waves_of(one_set), "seed {seed}");
                assert_eq!(waves, first_fit(&sets), "seed {seed}");
            }
        }
    }

    fn assert_valid_waves(rwsets: &[RwSet], waves: &[Vec<usize>]) {
        // Every index exactly once.
        let mut seen: Vec<usize> = waves.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..rwsets.len()).collect::<Vec<_>>());
        // No conflicts within a wave.
        for wave in waves {
            for (a_pos, &a) in wave.iter().enumerate() {
                for &b in &wave[a_pos + 1..] {
                    assert!(
                        !rwsets[a].conflicts_with(&rwsets[b]),
                        "txns {a} and {b} conflict within a wave"
                    );
                }
            }
        }
        // Conflicting pairs: earlier batch index in an earlier-or-equal wave
        // (equal impossible by the above), ordered consistently.
        let wave_of = |i: usize| waves.iter().position(|w| w.contains(&i)).unwrap();
        for a in 0..rwsets.len() {
            for b in a + 1..rwsets.len() {
                if rwsets[a].conflicts_with(&rwsets[b]) {
                    assert!(
                        wave_of(a) < wave_of(b),
                        "conflicting {a} (wave {}) must precede {b} (wave {})",
                        wave_of(a),
                        wave_of(b)
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_transactions_share_one_wave() {
        let sets = vec![rw(&[], &["a"]), rw(&[], &["b"]), rw(&[], &["c"])];
        let waves = Sequencer::waves(&sets);
        assert_eq!(waves.len(), 1);
        assert_valid_waves(&sets, &waves);
    }

    #[test]
    fn identical_writers_serialize_into_separate_waves() {
        let sets = vec![rw(&[], &["hot"]); 4];
        let waves = Sequencer::waves(&sets);
        assert_eq!(waves.len(), 4);
        assert_valid_waves(&sets, &waves);
    }

    #[test]
    fn readers_share_a_wave() {
        let sets = vec![rw(&["x"], &[]), rw(&["x"], &[]), rw(&["x"], &[])];
        let waves = Sequencer::waves(&sets);
        assert_eq!(waves.len(), 1);
        assert_valid_waves(&sets, &waves);
    }

    #[test]
    fn mixed_batch_preserves_order_of_conflicts() {
        let sets = vec![
            rw(&[], &["a"]),    // 0
            rw(&["a"], &["b"]), // 1: conflicts with 0
            rw(&[], &["c"]),    // 2: independent
            rw(&["b"], &[]),    // 3: conflicts with 1
            rw(&[], &["a"]),    // 4: conflicts with 0 and 1
        ];
        let waves = Sequencer::waves(&sets);
        assert_valid_waves(&sets, &waves);
    }

    #[test]
    fn empty_batch_yields_no_waves() {
        assert!(Sequencer::waves(&[]).is_empty());
    }

    #[test]
    fn run_batch_executes_all_in_wave_order() {
        let sets = vec![rw(&[], &["a"]), rw(&[], &["a"]), rw(&[], &["b"])];
        let mut ran: Vec<usize> = Vec::new();
        Sequencer::run_batch::<()>(&sets, |i| {
            ran.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(ran.len(), 3);
        // 0 must run before 1 (conflict); 2 is free.
        let pos = |x: usize| ran.iter().position(|&i| i == x).unwrap();
        assert!(pos(0) < pos(1));
    }

    #[test]
    fn run_batch_propagates_errors() {
        let sets = vec![rw(&[], &["a"]), rw(&[], &["a"])];
        let r = Sequencer::run_batch(&sets, |i| if i == 1 { Err("boom") } else { Ok(()) });
        assert_eq!(r, Err("boom"));
    }

    /// Satellite regression: two failures injected into ONE wave must
    /// resolve deterministically to the lowest batch index — and the whole
    /// wave still runs (a parallel runner would have every entry in flight
    /// anyway), while waves after the failed one do not.
    #[test]
    fn two_failures_in_one_wave_report_the_lowest_batch_index() {
        // 0..4 are disjoint (one wave); 5 conflicts with 0 (second wave).
        let sets = vec![
            rw(&[], &["a"]),
            rw(&[], &["b"]),
            rw(&[], &["c"]),
            rw(&[], &["d"]),
            rw(&[], &["e"]),
            rw(&[], &["a"]),
        ];
        assert_eq!(Sequencer::waves(&sets).len(), 2);
        let mut ran: Vec<usize> = Vec::new();
        let r = Sequencer::run_batch(&sets, |i| {
            ran.push(i);
            // Failures at indices 3 and 1 of the same wave: 1 must win.
            if i == 3 || i == 1 {
                Err(format!("failed at {i}"))
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("failed at 1".to_string()));
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2, 3, 4], "wave completes, wave 2 skipped");
    }

    /// The pooled runner keeps the same deterministic error contract even
    /// though wave entries genuinely race across worker threads.
    #[test]
    fn pooled_run_batch_is_deterministic_about_failures() {
        let sets: Vec<RwSet> = (0..8).map(|i| rw(&[], &[&format!("k{i}")])).collect();
        let pool = WorkerPool::new(4);
        for _ in 0..25 {
            let r = Sequencer::run_batch_on(&pool, &sets, |i| {
                if i % 2 == 1 {
                    // Odd indices all fail; 1 is the lowest.
                    std::thread::yield_now();
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err(1));
        }
    }

    #[test]
    fn pooled_run_batch_matches_sequential_on_success() {
        let sets = vec![
            rw(&[], &["a"]),
            rw(&["a"], &["b"]),
            rw(&[], &["c"]),
            rw(&["b"], &[]),
        ];
        let pool = WorkerPool::new(3);
        let ran = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let ran2 = std::sync::Arc::clone(&ran);
        Sequencer::run_batch_on::<()>(&pool, &sets, move |i| {
            ran2.lock().unwrap().push(i);
            Ok(())
        })
        .unwrap();
        let ran = ran.lock().unwrap();
        assert_eq!(ran.len(), 4);
        let pos = |x: usize| ran.iter().position(|&i| i == x).unwrap();
        // Conflict order is preserved across waves.
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(3));
    }

    #[test]
    fn large_random_batches_always_valid() {
        use croesus_sim::DetRng;
        let mut rng = DetRng::new(42);
        for trial in 0..20 {
            let n = 5 + rng.index(30);
            let sets: Vec<RwSet> = (0..n)
                .map(|_| {
                    let mut s = RwSet::new();
                    for _ in 0..(1 + rng.index(3)) {
                        let key = format!("k{}", rng.index(8));
                        if rng.bernoulli(0.5) {
                            s = s.write(key.as_str());
                        } else {
                            s = s.read(key.as_str());
                        }
                    }
                    s
                })
                .collect();
            let waves = Sequencer::waves(&sets);
            assert_valid_waves(&sets, &waves);
            let _ = trial;
        }
    }
}

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

//! The evaluation workload (§5.1).
//!
//! "Each detection acquired for each frame triggers a transaction that has
//! 6 operations, half of these mutate the state of the database by
//! inserting data items, and the other half read from previously added
//! items. This mimics a write-heavy workload of YCSB (Workload A)."
//!
//! The final section finalizes or corrects: when the trigger turns out
//! erroneous, the inserted items are removed; when the label was merely
//! misnamed, the items are rewritten under the corrected label.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use croesus_detect::Detection;
use croesus_sim::DetRng;
use croesus_store::{Key, Value};
use croesus_txn::{RwSet, SectionOutput};

use crate::bank::{TxnInstance, TxnTemplate};
use crate::matching::LabelVerdict;

/// The YCSB-A-style detection-triggered workload template.
pub struct YcsbWorkload {
    /// Monotonic item counter shared by all instances — "previously added
    /// items" are those with indices below the counter.
    next_item: Arc<AtomicU64>,
    /// Operations per transaction (6 in the paper: 3 inserts + 3 reads).
    ops: usize,
}

impl YcsbWorkload {
    /// The paper's configuration: 6 operations.
    pub fn new() -> Self {
        YcsbWorkload::with_ops(6)
    }

    /// Custom operation count (must be even and non-zero: half inserts,
    /// half reads).
    pub fn with_ops(ops: usize) -> Self {
        assert!(
            ops >= 2 && ops.is_multiple_of(2),
            "ops must be even and >= 2"
        );
        YcsbWorkload {
            next_item: Arc::new(AtomicU64::new(0)),
            ops,
        }
    }

    /// Items inserted so far.
    pub fn items_inserted(&self) -> u64 {
        self.next_item.load(Ordering::Relaxed)
    }
}

impl Default for YcsbWorkload {
    fn default() -> Self {
        YcsbWorkload::new()
    }
}

impl TxnTemplate for YcsbWorkload {
    fn name(&self) -> &str {
        "ycsb-a"
    }

    fn instantiate(&self, trigger: &Detection, rng: &mut DetRng) -> TxnInstance {
        let half = self.ops / 2;
        // Reserve fresh item ids for the inserts.
        let first = self.next_item.fetch_add(half as u64, Ordering::Relaxed);
        let insert_keys: Vec<Key> = (first..first + half as u64)
            .map(|i| Key::indexed("item", i))
            .collect();
        // Read keys among previously added items (self-reads if none yet).
        let read_keys: Vec<Key> = (0..half)
            .map(|_| {
                if first == 0 {
                    insert_keys[rng.index(half)].clone()
                } else {
                    Key::indexed("item", rng.int_range(0, first))
                }
            })
            .collect();

        let initial_rw = RwSet {
            reads: read_keys,
            writes: insert_keys.clone(),
        };
        // The final section may rewrite or remove exactly what the initial
        // section inserted.
        let final_rw = RwSet {
            reads: Vec::new(),
            writes: insert_keys,
        };

        // The bodies walk the keys their section declared; each write set
        // stores one value, shared by all of its keys.
        let label = trigger.class.clone();
        TxnInstance {
            initial_rw,
            final_rw,
            initial: Box::new(move |ctx| {
                let declared = ctx.declared();
                let seen = Arc::new(Value::Str(format!("seen:{label}")));
                for k in &declared.writes {
                    ctx.write(k.clone(), Arc::clone(&seen))?;
                }
                let mut out = SectionOutput::new();
                for k in &declared.reads {
                    if let Some(v) = ctx.read(k.clone())? {
                        out.response.push(v);
                    }
                }
                Ok(out)
            }),
            final_section: Box::new(move |ctx, input| {
                let declared = ctx.declared();
                match &input.verdict {
                    // Trigger confirmed: terminate, keeping the inserts.
                    LabelVerdict::Correct => {}
                    // Object existed under another name: rewrite the items
                    // under the corrected label (retain as much state as
                    // possible — the merge side of MS-IA).
                    LabelVerdict::Corrected(correct) => {
                        let seen = Arc::new(Value::Str(format!("seen:{}", correct.class)));
                        for k in &declared.writes {
                            ctx.write(k.clone(), Arc::clone(&seen))?;
                        }
                    }
                    // Nothing was there: remove the erroneous inserts and
                    // apologize.
                    LabelVerdict::Erroneous => {
                        for k in &declared.writes {
                            ctx.delete(k.clone())?;
                        }
                    }
                }
                Ok(SectionOutput::new())
            }),
        }
    }
}

/// A simple update-only workload over a hot-spot key range, used by the
/// Figure 6(b) contention experiment: "transactions are executed in batches
/// of 50 transactions per batch where each transaction has 5 update
/// operations. ... The x-axis (key range) is the key range of the hot spot."
pub struct HotspotWorkload {
    /// Size of the hot key range.
    pub key_range: u64,
    /// Updates per transaction (5 in the paper).
    pub updates: usize,
}

impl HotspotWorkload {
    /// The paper's configuration: 5 updates per transaction.
    pub fn new(key_range: u64) -> Self {
        assert!(key_range > 0, "key range must be non-empty");
        HotspotWorkload {
            key_range,
            updates: 5,
        }
    }

    /// Draw one transaction's write set.
    pub fn rwset(&self, rng: &mut DetRng) -> RwSet {
        let mut rw = RwSet::new();
        for _ in 0..self.updates {
            let k = Key::indexed("hot", rng.int_range(0, self.key_range));
            if !rw.writes.contains(&k) {
                rw.writes.push(k);
            }
        }
        rw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::TxnInstance;
    use crate::matching::FinalInput;
    use croesus_store::{KvStore, LockManager, LockPolicy, TxnId};
    use croesus_txn::{Executor, ExecutorCore, ProtocolKind};
    use croesus_video::BoundingBox;

    fn det(class: &str) -> Detection {
        Detection::new(class.into(), 0.9, BoundingBox::new(0.4, 0.4, 0.2, 0.2))
    }

    fn executor() -> Executor {
        ProtocolKind::MsIa.build(ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(LockPolicy::Block)),
        ))
    }

    /// Run a bank instance's two sections through the protocol API.
    fn run_instance(ex: &Executor, inst: TxnInstance, input: &FinalInput) {
        let h = ex.begin(TxnId(1), &[inst.initial_rw.clone(), inst.final_rw.clone()]);
        let (_, h) = ex
            .stage(h, &inst.initial_rw, |ctx| (inst.initial)(ctx.section_mut()))
            .unwrap();
        ex.stage(h.unwrap(), &inst.final_rw, |ctx| {
            (inst.final_section)(ctx.section_mut(), input)
        })
        .unwrap();
    }

    #[test]
    fn instance_has_six_ops_split_three_three() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let inst = w.instantiate(&det("car"), &mut rng);
        assert_eq!(inst.initial_rw.writes.len(), 3);
        assert_eq!(inst.initial_rw.reads.len(), 3);
        assert_eq!(inst.final_rw.writes.len(), 3);
        assert_eq!(w.items_inserted(), 3);
    }

    #[test]
    fn item_counter_advances_across_instances() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let a = w.instantiate(&det("car"), &mut rng);
        let b = w.instantiate(&det("car"), &mut rng);
        assert!(a
            .initial_rw
            .writes
            .iter()
            .all(|k| !b.initial_rw.writes.contains(k)));
        assert_eq!(w.items_inserted(), 6);
    }

    #[test]
    fn initial_inserts_then_final_keeps_on_correct() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let inst = w.instantiate(&det("car"), &mut rng);
        let ex = executor();
        let keys = inst.initial_rw.writes.clone();
        let final_rw = inst.final_rw.clone();
        let final_section = inst.final_section;
        let h = ex.begin(TxnId(1), &[inst.initial_rw.clone(), final_rw.clone()]);
        let (_, pending) = ex
            .stage(h, &inst.initial_rw, |ctx| (inst.initial)(ctx.section_mut()))
            .unwrap();
        for k in &keys {
            assert!(ex.store().contains(k));
        }
        let input = FinalInput::correct(det("car"));
        ex.stage(pending.unwrap(), &final_rw, |ctx| {
            (final_section)(ctx.section_mut(), &input)
        })
        .unwrap();
        for k in &keys {
            assert_eq!(
                ex.store().get(k).unwrap().as_str().unwrap(),
                "seen:car",
                "correct trigger keeps inserts"
            );
        }
    }

    #[test]
    fn final_rewrites_on_corrected_label() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let inst = w.instantiate(&det("bus"), &mut rng);
        let ex = executor();
        let keys = inst.initial_rw.writes.clone();
        let input = FinalInput {
            edge_label: Some(det("bus")),
            verdict: LabelVerdict::Corrected(det("car")),
        };
        run_instance(&ex, inst, &input);
        for k in &keys {
            assert_eq!(ex.store().get(k).unwrap().as_str().unwrap(), "seen:car");
        }
    }

    #[test]
    fn final_deletes_on_erroneous_label() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let inst = w.instantiate(&det("car"), &mut rng);
        let ex = executor();
        let keys = inst.initial_rw.writes.clone();
        let input = FinalInput {
            edge_label: Some(det("car")),
            verdict: LabelVerdict::Erroneous,
        };
        run_instance(&ex, inst, &input);
        for k in &keys {
            assert!(!ex.store().contains(k), "erroneous inserts removed");
        }
    }

    #[test]
    fn reads_come_from_previously_added_items() {
        let w = YcsbWorkload::new();
        let mut rng = DetRng::new(1);
        let _first = w.instantiate(&det("car"), &mut rng);
        let later = w.instantiate(&det("car"), &mut rng);
        for k in &later.initial_rw.reads {
            let idx: u64 = k.as_str().strip_prefix("item/").unwrap().parse().unwrap();
            assert!(idx < 3, "reads must target previously added items");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_ops_panics() {
        YcsbWorkload::with_ops(5);
    }

    #[test]
    fn hotspot_rwset_stays_in_range() {
        let h = HotspotWorkload::new(10);
        let mut rng = DetRng::new(2);
        for _ in 0..100 {
            let rw = h.rwset(&mut rng);
            assert!(!rw.writes.is_empty() && rw.writes.len() <= 5);
            for k in &rw.writes {
                let idx: u64 = k.as_str().strip_prefix("hot/").unwrap().parse().unwrap();
                assert!(idx < 10);
            }
        }
    }

    #[test]
    fn small_hotspot_produces_conflicts_large_does_not() {
        let mut rng = DetRng::new(3);
        let small = HotspotWorkload::new(10);
        let sets: Vec<RwSet> = (0..50).map(|_| small.rwset(&mut rng)).collect();
        let conflicts = sets
            .iter()
            .enumerate()
            .flat_map(|(i, a)| sets[i + 1..].iter().map(move |b| a.conflicts_with(b)))
            .filter(|&c| c)
            .count();
        assert!(
            conflicts > 100,
            "tiny hotspot must conflict heavily: {conflicts}"
        );
        let large = HotspotWorkload::new(1_000_000);
        let sets: Vec<RwSet> = (0..50).map(|_| large.rwset(&mut rng)).collect();
        let conflicts = sets
            .iter()
            .enumerate()
            .flat_map(|(i, a)| sets[i + 1..].iter().map(move |b| a.conflicts_with(b)))
            .filter(|&c| c)
            .count();
        assert!(conflicts < 5, "huge hotspot rarely conflicts: {conflicts}");
    }
}

//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use croesus::detect::{match_detections, Detection};
use croesus::sim::{DetRng, SimDuration};
use croesus::store::{Key, KvStore, Value};
use croesus::txn::{RwSet, Sequencer};
use croesus::video::BoundingBox;

fn arb_bbox() -> impl Strategy<Value = BoundingBox> {
    (0.0..0.9f64, 0.0..0.9f64, 0.01..0.5f64, 0.01..0.5f64)
        .prop_map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
}

fn arb_detection() -> impl Strategy<Value = Detection> {
    (
        prop_oneof![Just("car"), Just("person"), Just("dog")],
        0.0..1.0f64,
        arb_bbox(),
    )
        .prop_map(|(c, conf, b)| Detection::new(c.into(), conf, b))
}

fn arb_rwset() -> impl Strategy<Value = RwSet> {
    (
        prop::collection::vec(0u64..12, 0..4),
        prop::collection::vec(0u64..12, 0..4),
    )
        .prop_map(|(reads, writes)| {
            let mut rw = RwSet::new();
            for r in reads {
                rw.reads.push(Key::indexed("k", r));
            }
            for w in writes {
                rw.writes.push(Key::indexed("k", w));
            }
            rw
        })
}

proptest! {
    #[test]
    fn bbox_iou_is_symmetric_and_bounded(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ab));
        prop_assert!((a.overlap_fraction(&b) - b.overlap_fraction(&a)).abs() < 1e-12);
        // IoU never exceeds overlap-over-min-area.
        prop_assert!(ab <= a.overlap_fraction(&b) + 1e-12);
    }

    #[test]
    fn bbox_self_iou_is_one_for_nondegenerate(a in arb_bbox()) {
        prop_assume!(!a.is_empty());
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matching_is_injective_and_total(
        dets in prop::collection::vec(arb_detection(), 0..8),
        refs in prop::collection::vec(arb_detection(), 0..8),
    ) {
        let m = match_detections(&dets, &refs, 0.10);
        prop_assert_eq!(m.outcomes.len(), dets.len());
        // Each reference is claimed at most once.
        let mut claimed = std::collections::HashSet::new();
        for o in &m.outcomes {
            match o {
                croesus::detect::MatchOutcome::Correct { reference }
                | croesus::detect::MatchOutcome::Corrected { reference } => {
                    prop_assert!(claimed.insert(*reference), "reference claimed twice");
                }
                croesus::detect::MatchOutcome::Erroneous => {}
            }
        }
        // Unmatched references are exactly the unclaimed ones.
        for ri in 0..refs.len() {
            let unmatched = m.unmatched_references.contains(&ri);
            prop_assert_eq!(unmatched, !claimed.contains(&ri));
        }
    }

    #[test]
    fn sequencer_waves_partition_and_respect_conflicts(
        sets in prop::collection::vec(arb_rwset(), 0..20)
    ) {
        let waves = Sequencer::waves(&sets);
        let mut seen: Vec<usize> = waves.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..sets.len()).collect::<Vec<_>>());
        let wave_of = |i: usize| waves.iter().position(|w| w.contains(&i)).unwrap();
        for a in 0..sets.len() {
            for b in a + 1..sets.len() {
                if sets[a].conflicts_with(&sets[b]) {
                    prop_assert!(wave_of(a) < wave_of(b));
                }
            }
        }
    }

    #[test]
    fn rwset_conflict_is_symmetric(a in arb_rwset(), b in arb_rwset()) {
        prop_assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
    }

    #[test]
    fn undo_round_trips_arbitrary_interleavings(
        ops in prop::collection::vec((0u64..6, -100i64..100, prop::bool::ANY), 1..30)
    ) {
        // Seed the store, snapshot, apply a transaction's worth of writes
        // and deletes through an undo log, roll back, and compare.
        let store = KvStore::new();
        for i in 0..6u64 {
            store.put(Key::indexed("seed", i), Value::Int(i as i64));
        }
        let before = store.snapshot()
            .into_iter()
            .map(|(k, v)| (k, v.value))
            .collect::<Vec<_>>();
        let mut log = croesus::store::UndoLog::new();
        for (slot, val, delete) in ops {
            let key = Key::indexed("seed", slot);
            if delete {
                log.delete(&store, &key);
            } else {
                log.put(&store, key, Value::Int(val));
            }
        }
        log.rollback(&store);
        let after = store.snapshot()
            .into_iter()
            .map(|(k, v)| (k, v.value))
            .collect::<Vec<_>>();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn det_rng_uniform_stays_in_unit_interval(seed in any::<u64>()) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(
        d1 in 0u64..1_000_000_000,
        d2 in 0u64..1_000_000,
    ) {
        let a = SimDuration::from_micros(d1);
        let b = SimDuration::from_micros(d2);
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn key_cached_hash_matches_recomputation(bytes in prop::collection::vec(32u8..127, 0..48)) {
        let text = String::from_utf8(bytes).expect("printable ascii");
        let key = Key::new(&text);
        // Independent FNV-1a recomputation of the key text.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        prop_assert_eq!(key.hash_u64(), h);
    }

    #[test]
    fn kv_put_returns_the_previous_write(n in 1usize..50) {
        let store = KvStore::new();
        for i in 0..n {
            let prev = store.put("k".into(), Value::Int(i as i64));
            let expected = i.checked_sub(1).map(|p| Value::Int(p as i64));
            prop_assert_eq!(prev.as_deref(), expected.as_ref());
        }
    }
}

//! Model-checking the protocol / WAL / failover stack with the
//! deterministic scheduler: every interleaving of small scenarios, and
//! every WAL-frame-boundary crash point inside each interleaving.
//!
//! The scenarios check the DESIGN.md commit-point table as executable
//! invariants: acked-final durability, MS-SR un-happen atomicity, per-stage
//! MS-IA/staged durability, apology coverage, and 2PC decision durability.

use croesus_mcheck::{
    explore, ms_sr_block_deadlock, ms_sr_commit_point, replay, retract_self, three_txn_hot_key,
    two_txn_two_stage, wal_pipeline, Config, Report, TpcCoordinatorCrash,
};
use croesus_txn::ProtocolKind;
use croesus_wal::FlushDriver;

/// The exploration's shape: (schedules, completes, deadlocks, decision
/// points, pruned points). A recorded decision list identifies an
/// execution, so the DFS repeats exactly and these are pinned as literals:
/// a scheduler point added to or removed from a scenario's path moves them.
fn counts(report: &Report) -> (u64, u64, u64, u64, u64) {
    (
        report.schedules,
        report.completes,
        report.deadlocks,
        report.stats.decision_points,
        report.stats.pruned_points,
    )
}

fn assert_clean_and_exhaustive(report: &Report) {
    assert!(
        report.exhaustive,
        "{}: schedule space not exhausted within budget ({} schedules)",
        report.name, report.schedules
    );
    assert!(
        report.violations.is_empty(),
        "{}: violation on schedule {}: {}",
        report.name,
        report.violations[0].trace,
        report.violations[0].message
    );
    assert_eq!(report.panics, 0, "{}: panicking schedules", report.name);
    assert!(report.completes > 0, "{}: nothing ran", report.name);
}

#[test]
fn ms_sr_two_txn_two_stage_is_exhaustively_clean() {
    let report = explore(&two_txn_two_stage(ProtocolKind::MsSr), &Config::default());
    assert_clean_and_exhaustive(&report);
    assert_eq!(report.deadlocks, 0, "WaitDie must not deadlock");
    assert_eq!(counts(&report), (19, 19, 0, 27, 9));
}

#[test]
fn ms_ia_two_txn_two_stage_is_exhaustively_clean() {
    let report = explore(&two_txn_two_stage(ProtocolKind::MsIa), &Config::default());
    assert_clean_and_exhaustive(&report);
    assert_eq!(report.deadlocks, 0, "per-stage locking must not deadlock");
    assert_eq!(counts(&report), (917, 917, 0, 2568, 1652));
}

#[test]
fn staged_two_txn_two_stage_is_exhaustively_clean() {
    let report = explore(&two_txn_two_stage(ProtocolKind::Staged), &Config::default());
    assert_clean_and_exhaustive(&report);
    assert_eq!(counts(&report), (917, 917, 0, 2568, 1652));
}

#[test]
fn ms_ia_retract_self_is_exhaustively_clean() {
    let report = explore(&retract_self(ProtocolKind::MsIa), &Config::default());
    assert_clean_and_exhaustive(&report);
    assert_eq!(counts(&report), (5169, 5169, 0, 10428, 5260));
}

#[test]
fn ms_sr_block_policy_deadlock_is_found() {
    // Crossing initial/later lock sets under LockPolicy::Block genuinely
    // deadlock — the reason MS-SR defaults to WaitDie. The checker must
    // surface at least one deadlocking schedule (and no other violation).
    let report = explore(&ms_sr_block_deadlock(), &Config::default());
    assert!(report.exhaustive, "small space must be enumerable");
    assert!(
        report.deadlocks > 0,
        "the checker failed to find the Block-policy deadlock"
    );
    assert!(report.completes > 0, "non-deadlocking orders also exist");
    assert!(
        report.violations.is_empty(),
        "deadlock is the expected hazard here, not a violation: {:?}",
        report.violations[0]
    );
    assert_eq!(counts(&report), (23, 20, 3, 37, 15));
}

#[test]
fn tpc_coordinator_crash_never_contradicts_the_durable_decision() {
    let report = explore(&TpcCoordinatorCrash, &Config::default());
    assert_clean_and_exhaustive(&report);
    assert_eq!(counts(&report), (61, 61, 0, 128, 68));
}

#[test]
fn three_txn_hot_key_falls_back_to_seeded_sampling() {
    let config = Config {
        max_schedules: 200,
        samples: 50,
    };
    let report = explore(&three_txn_hot_key(ProtocolKind::MsIa), &config);
    assert!(
        !report.exhaustive,
        "3-txn space must exceed the tiny DFS budget"
    );
    assert_eq!(report.schedules, 250, "DFS budget + sampling tail both ran");
    assert_eq!(counts(&report), (250, 250, 0, 1753, 400));
    assert!(
        report.violations.is_empty(),
        "sampled violation on {}: {}",
        report.violations[0].trace,
        report.violations[0].message
    );
}

#[test]
fn mutation_self_test_checker_catches_the_broken_commit_point() {
    // The clean executor survives exhaustive exploration...
    let clean = explore(&ms_sr_commit_point(false), &Config::default());
    assert_clean_and_exhaustive(&clean);
    assert_eq!(counts(&clean), (19, 19, 0, 27, 9));

    // ...and the mutated one (final commit logged *after* lock release)
    // is caught with a replayable counterexample.
    let mutated_scenario = ms_sr_commit_point(true);
    let mutated = explore(&mutated_scenario, &Config::default());
    assert!(
        !mutated.violations.is_empty(),
        "the checker missed the log-final-after-release mutation \
         ({} schedules explored)",
        mutated.schedules
    );
    // The released-locks window lets t2 read t1's final write while t1 is
    // still unlogged: caught live (serializability breaks) or at a crash
    // cut (a durable value derived from an un-happened transaction).
    let violation = &mutated.violations[0];
    assert!(
        violation.message.contains("MS-SR history")
            || violation.message.contains("unlogged final write")
            || violation.message.contains("acked final commit"),
        "unexpected violation kind: {}",
        violation.message
    );

    // The trace is the counterexample: decision list (plus seed if it came
    // from sampling) — replaying it must reproduce the violation exactly.
    let shown = violation.trace.to_string();
    assert!(shown.contains("decisions=["), "trace must display: {shown}");
    let (_end, check) = replay(&mutated_scenario, &violation.trace);
    let replayed = check.expect_err("replaying the counterexample trace must reproduce it");
    assert_eq!(
        replayed, violation.message,
        "replay diverged from the recorded violation"
    );
}

#[test]
fn wal_pipeline_is_exhaustively_clean() {
    // Appenders, whoever lands the buffers (a flusher task under the
    // manual driver; the appenders themselves, racing for the storage,
    // under the inline one) and a monitor racing through every
    // `wal.buffer.*` scheduler point: the boundary stays monotone, no
    // flush_lsn acks below it, shipped ⊆ durable at every observation,
    // the trace obeys the ordering contract, and the pipeline drains in
    // every interleaving.
    for (driver, pinned) in [
        (FlushDriver::Manual, (3610, 3610, 0, 7390, 4617)),
        (FlushDriver::Inline, (891, 891, 0, 1528, 850)),
    ] {
        let report = explore(&wal_pipeline(driver, false), &Config::default());
        assert_clean_and_exhaustive(&report);
        assert_eq!(counts(&report), pinned, "{}", report.name);
    }
}

#[test]
fn wal_pipeline_mutation_self_test_catches_publish_before_sync() {
    for driver in [FlushDriver::Manual, FlushDriver::Inline] {
        // The planted bug: sealed buffers published to the shipper
        // *before* their device sync. Some interleaving must let the
        // monitor observe shipped bytes the device would lose in a crash...
        let scenario = wal_pipeline(driver, true);
        let report = explore(&scenario, &Config::default());
        assert!(
            !report.violations.is_empty(),
            "{}: the checker missed the publish-before-sync mutation \
             ({} schedules explored)",
            report.name,
            report.schedules
        );
        let violation = &report.violations[0];
        assert!(
            violation.message.contains("shipping contract breach"),
            "unexpected violation kind: {}",
            violation.message
        );
        // ...and the counterexample trace must be replayable, byte for byte.
        let shown = violation.trace.to_string();
        assert!(shown.contains("decisions=["), "trace must display: {shown}");
        let (_end, check) = replay(&scenario, &violation.trace);
        let replayed = check.expect_err("replaying the counterexample trace must reproduce it");
        assert_eq!(
            replayed, violation.message,
            "replay diverged from the recorded violation"
        );
    }
}

//! The observability contract, end to end: the traces real runs emit —
//! the quickstart pipeline, a seeded chaos fleet, and model-checked
//! protocol interleavings — all satisfy the executable event-ordering
//! contract in `croesus::obs`, and a deliberately reordered stream is
//! rejected with a message naming the violated invariant.

use std::sync::Arc;

use croesus::core::{
    Croesus, CroesusBuilder, DurabilityMode, FaultPlan, ProtocolKind, ThresholdPair,
};
use croesus::obs::{check_obs, check_stream, Event, EventKind, HistKind, Obs};
use croesus::video::VideoPreset;
use croesus::wal::scratch_dir;
use croesus_mcheck as mcheck;

fn quickstart_config(frames: u64) -> CroesusBuilder {
    Croesus::builder()
        .preset(VideoPreset::StreetTraffic)
        .thresholds(ThresholdPair::new(0.3, 0.7))
        .frames(frames)
        .seed(42)
}

// ------------------------------------------------------------------
// The pipeline trace (the quickstart run, observed)
// ------------------------------------------------------------------

#[test]
fn quickstart_pipeline_trace_satisfies_the_ordering_contract() {
    let obs = Obs::shared();
    let frames = 60u64;
    let m = quickstart_config(frames)
        .observe(Arc::clone(&obs))
        .build()
        .run();

    let report = check_obs(&obs).expect("pipeline trace obeys the contract");
    assert!(report.events > 0, "an observed run emits events");
    assert_eq!(report.edges, 1, "the single-edge pipeline has one stream");
    assert_eq!(
        obs.count(EventKind::FrameIngest),
        frames,
        "one ingest per frame"
    );
    // The trace finalizes at least the paper-metric transactions (the
    // stream also carries housekeeping commits the metric excludes).
    assert!(
        report.finalized as u64 >= m.transactions_committed,
        "{} finalized on the trace < {} committed in the metrics",
        report.finalized,
        m.transactions_committed
    );
    // One histogram sample per commit event: the emission sites are one
    // and the same.
    assert_eq!(
        obs.hist_count(HistKind::InitialCommitMs),
        obs.count(EventKind::InitialCommit)
    );
    assert_eq!(
        obs.hist_count(HistKind::FinalCommitMs),
        obs.count(EventKind::FinalCommit)
    );
    let q = obs.quantiles(HistKind::InitialCommitMs);
    assert!(q.p50 <= q.p999, "quantiles are ordered");
}

#[test]
fn unobserved_run_is_identical_to_observed_run_on_the_metrics() {
    let cfg = quickstart_config(40);
    let plain = cfg.clone().build().run();
    let obs = Obs::shared();
    let observed = cfg.observe(Arc::clone(&obs)).build().run();
    // Compare the simulation-deterministic fields (the golden pins); the
    // txn-section micro-timings are wall-clock measurements that jitter
    // between any two runs, observed or not.
    assert_eq!(plain.label, observed.label);
    assert_eq!(plain.f_score, observed.f_score);
    assert_eq!(plain.precision, observed.precision);
    assert_eq!(plain.recall, observed.recall);
    assert_eq!(plain.bandwidth_utilization, observed.bandwidth_utilization);
    assert_eq!(plain.bytes_sent, observed.bytes_sent);
    assert_eq!(plain.transfer_dollars, observed.transfer_dollars);
    assert_eq!(
        plain.transactions_committed,
        observed.transactions_committed
    );
    assert_eq!(plain.cloud_timeouts, observed.cloud_timeouts);
    assert_eq!(plain.corrections, observed.corrections);
    check_obs(&obs).expect("and the trace still checks out");
}

// ------------------------------------------------------------------
// The fleet trace (seeded chaos, observed)
// ------------------------------------------------------------------

#[test]
fn seeded_chaos_fleet_trace_satisfies_the_ordering_contract() {
    const FRAMES: u64 = 40;
    const EDGES: usize = 3;
    for seed in [11u64, 23] {
        let plan = FaultPlan::seeded(seed, FRAMES, EDGES, 0.06);
        let dir = scratch_dir(&format!("obs-chaos-{seed}"));
        let obs = Obs::shared();
        let r = Croesus::builder()
            .protocol(ProtocolKind::MsIa)
            .frames(FRAMES)
            .edges(EDGES)
            .durability(DurabilityMode::GroupCommit {
                dir: dir.clone(),
                group: 1,
            })
            .failover(true)
            .heartbeat_timeout(3)
            .faults(plan)
            .observe(Arc::clone(&obs))
            .build()
            .run_fleet();

        let report =
            check_obs(&obs).expect("chaos trace obeys the contract under kills and takeovers");
        assert!(report.events > 0);

        // The fleet report carries the same stream as its timeline.
        assert_eq!(r.timeline.len(), report.events, "seed {seed}");
        check_stream(&r.timeline, obs.dropped() > 0).expect("timeline is the checked stream");

        // Every takeover the report claims is visible on the trace.
        let takeover_starts = obs.count(EventKind::TakeoverStart);
        assert_eq!(
            takeover_starts,
            r.takeovers.len() as u64,
            "seed {seed}: one TakeoverStart per takeover"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ------------------------------------------------------------------
// The model-checker trace (every explored interleaving, observed)
// ------------------------------------------------------------------

#[test]
fn mcheck_scenario_traces_satisfy_the_ordering_contract_on_every_schedule() {
    // `with_trace()` makes the ordering contract a per-schedule invariant
    // inside the explorer: any interleaving whose event stream violates
    // the contract becomes a model-checking counterexample.
    let config = mcheck::Config {
        max_schedules: 2_000,
        samples: 50,
        ..mcheck::Config::default()
    };
    for scenario in [
        mcheck::two_txn_two_stage(ProtocolKind::MsSr).with_trace(),
        mcheck::two_txn_two_stage(ProtocolKind::Staged).with_trace(),
        mcheck::retract_self(ProtocolKind::MsIa).with_trace(),
    ] {
        let name = scenario.label.clone();
        let report = mcheck::explore(&scenario, &config);
        assert!(
            report.violations.is_empty(),
            "{name}: ordering contract violated on an explored schedule: {:?}",
            report.violations
        );
        assert!(report.schedules > 0, "{name}: schedules were explored");
    }
}

// ------------------------------------------------------------------
// The contract rejects what it should
// ------------------------------------------------------------------

#[test]
fn reordered_stream_is_rejected_naming_the_invariant() {
    // Collect a real pipeline trace, then swap a transaction's
    // InitialCommit and FinalCommit payloads in place (seq and frame
    // stamps stay where they were, so only the *logical* order is
    // broken) — the checker must reject it and say which invariant.
    let obs = Obs::shared();
    quickstart_config(30)
        .observe(Arc::clone(&obs))
        .build()
        .run();
    let mut events: Vec<Event> = obs.events();
    let initial = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::InitialCommit))
        .expect("the run committed something");
    let txn = events[initial].txn;
    let fin = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::FinalCommit) && e.txn == txn)
        .expect("that transaction finalized");
    let (head, tail) = events.split_at_mut(fin);
    std::mem::swap(&mut head[initial].kind, &mut tail[0].kind);
    let err = check_stream(&events, false).expect_err("a reordered stream must be rejected");
    assert_eq!(err.invariant, "initial-before-final");
    let msg = err.to_string();
    assert!(
        msg.contains("initial-before-final"),
        "the rejection names the invariant: {msg}"
    );
}

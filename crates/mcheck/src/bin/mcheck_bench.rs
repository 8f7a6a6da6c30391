//! Model-checker throughput snapshot: runs every clean scenario
//! `tests/mcheck.rs` runs and reports schedules/sec, decision points,
//! states pruned, and per-scenario interleaving counts. The counts are
//! exact, so two commits that explore identically print identical rows
//! apart from `schedules_per_sec`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p croesus-mcheck --release --bin mcheck_bench [-- --quick]
//! ```
//!
//! The `"mcheck"` section goes to stdout; nothing is written to disk (the
//! `BENCH_PR*.json` files are read-only history).

use croesus_mcheck::{
    explore, ms_sr_block_deadlock, ms_sr_commit_point, retract_self, three_txn_hot_key,
    two_txn_two_stage, wal_pipeline, wave_queue, Config, Report, Scenario, TpcCoordinatorCrash,
};
use croesus_txn::ProtocolKind;
use croesus_wal::FlushDriver;

fn run<S: Scenario>(scenario: &S, config: &Config, out: &mut Vec<Report>) {
    eprintln!("exploring {}...", scenario.name());
    out.push(explore(scenario, config));
}

fn section(reports: &[Report]) -> String {
    let schedules: u64 = reports.iter().map(|r| r.schedules).sum();
    let decisions: u64 = reports.iter().map(|r| r.stats.decision_points).sum();
    let pruned: u64 = reports.iter().map(|r| r.stats.pruned_points).sum();
    let elapsed: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let rate = if elapsed > 0.0 {
        schedules as f64 / elapsed
    } else {
        0.0
    };
    let rows = reports
        .iter()
        .map(|r| {
            format!(
                "      {{\"name\": \"{}\", \"schedules\": {}, \"exhaustive\": {}, \
                 \"completes\": {}, \"deadlocks\": {}, \"violations\": {}, \
                 \"decision_points\": {}, \"pruned_points\": {}, \
                 \"schedules_per_sec\": {:.0}}}",
                r.name,
                r.schedules,
                r.exhaustive,
                r.completes,
                r.deadlocks,
                r.violations.len(),
                r.stats.decision_points,
                r.stats.pruned_points,
                r.schedules_per_sec(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        r#""mcheck": {{
    "note": "PR 7 deterministic-scheduler model checker: each scenario's schedule count is its explored interleavings (exhaustive=true means the whole space, pruned via state hashing); the instrumentation is behind the mcheck cargo feature, so no release build of a shipping crate runs any of it",
    "totals": {{
      "schedules": {schedules},
      "decision_points": {decisions},
      "pruned_points": {pruned},
      "elapsed_sec": {elapsed:.3},
      "schedules_per_sec": {rate:.0}
    }},
    "scenarios": [
{rows}
    ]
  }}"#
    )
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");

    let config = if quick {
        Config::smoke()
    } else {
        Config::default()
    };
    // The sampled scenario gets a deliberately small DFS budget so the
    // bench always exercises the sampling fallback too.
    let sampled = Config {
        max_schedules: 200,
        samples: if quick { 50 } else { 200 },
        ..config
    };

    let mut reports = Vec::new();
    for kind in [ProtocolKind::MsSr, ProtocolKind::MsIa, ProtocolKind::Staged] {
        run(&two_txn_two_stage(kind), &config, &mut reports);
    }
    run(&retract_self(ProtocolKind::MsIa), &config, &mut reports);
    run(&ms_sr_block_deadlock(), &config, &mut reports);
    run(&ms_sr_commit_point(false), &config, &mut reports);
    run(&TpcCoordinatorCrash, &config, &mut reports);
    run(
        &three_txn_hot_key(ProtocolKind::MsIa),
        &sampled,
        &mut reports,
    );
    run(
        &wal_pipeline(FlushDriver::Manual, false),
        &config,
        &mut reports,
    );
    run(
        &wal_pipeline(FlushDriver::Inline, false),
        &config,
        &mut reports,
    );
    run(&wave_queue(), &config, &mut reports);

    for r in &reports {
        if !r.violations.is_empty() {
            eprintln!(
                "error: {} found a violation on a clean build: {}",
                r.name, r.violations[0].message
            );
            std::process::exit(1);
        }
    }

    println!("{{\n  {}\n}}", section(&reports));
}

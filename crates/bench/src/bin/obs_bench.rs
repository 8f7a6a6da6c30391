//! Observability overhead snapshot: measures raw event-emission
//! throughput, then runs the quickstart pipeline observed and unobserved
//! (interleaved, minimum wall time) to put a number on the enabled-path
//! overhead — the budget is ≤5%, and the disabled path is a single
//! `Option`-is-`None` branch pinned byte-identical by the golden tests.
//! The observed run's trace is replayed through the ordering contract
//! and its commit-latency quantiles (the new `RunMetrics` fields) are
//! recorded.
//!
//! Usage:
//!
//! ```text
//! cargo run -p croesus-bench --release --bin obs_bench [-- --quick]
//! ```
//!
//! The `"obs"` section goes to stdout; nothing is written to disk (the
//! `BENCH_PR*.json` files are read-only history).

use std::sync::Arc;
use std::time::{Duration, Instant};

use croesus_core::{RunMetrics, ThresholdPair};
use croesus_obs::{check_obs, EdgeObs, EventKind, Obs, Quantiles};
use croesus_video::VideoPreset;

/// One pipeline run; returns wall milliseconds and the metrics.
fn run_once(frames: u64, obs: Option<&Arc<Obs>>) -> (f64, RunMetrics) {
    let mut builder =
        croesus_bench::builder(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7))
            .frames(frames);
    if let Some(o) = obs {
        builder = builder.observe(Arc::clone(o));
    }
    let deployment = builder.build();
    let start = Instant::now();
    let metrics = deployment.run();
    (start.elapsed().as_secs_f64() * 1e3, metrics)
}

/// Minimum-of-N: the standard denoiser for short wall-clock runs —
/// scheduling hiccups and allocator warm-up only ever add time, so the
/// minimum is the cleanest estimate of the true cost on both sides.
fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Raw enabled-path emission throughput (events/sec into one stream).
fn emit_events_per_sec(budget: Duration) -> f64 {
    let edge = EdgeObs::standalone(0);
    let mut txn = 0u64;
    let warm_end = Instant::now() + budget / 10;
    while Instant::now() < warm_end {
        txn += 1;
        edge.emit_txn(txn, EventKind::InitialCommit);
    }
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        for _ in 0..1024 {
            txn += 1;
            edge.emit_txn(txn, EventKind::InitialCommit);
        }
        iters += 1024;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return iters as f64 / elapsed.as_secs_f64();
        }
    }
}

fn quantiles_json(q: Quantiles) -> String {
    format!(
        "{{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}}}",
        q.p50, q.p90, q.p99, q.p999
    )
}

fn section(quick: bool) -> String {
    let budget = if quick {
        Duration::from_millis(120)
    } else {
        Duration::from_millis(600)
    };
    eprintln!("measuring raw emission throughput...");
    let emit_rate = emit_events_per_sec(budget);

    let frames = if quick { 60 } else { 1200 };
    let repeats = if quick { 3 } else { 17 };
    eprintln!("running the quickstart pipeline {repeats}x observed and {repeats}x unobserved...");
    // One untimed warmup per side: page in the code, warm the allocator.
    run_once(frames, None);
    run_once(frames, Some(&Obs::shared()));
    let mut disabled = Vec::with_capacity(repeats);
    let mut enabled = Vec::with_capacity(repeats);
    let mut last: Option<(Arc<Obs>, RunMetrics)> = None;
    for _ in 0..repeats {
        // Interleave so thermal / cache drift hits both sides equally.
        disabled.push(run_once(frames, None).0);
        // Free the previous ring first so the allocator hands the new one
        // already-faulted pages instead of cold ones.
        drop(last.take());
        let obs = Obs::shared();
        let (ms, metrics) = run_once(frames, Some(&obs));
        enabled.push(ms);
        last = Some((obs, metrics));
    }
    let disabled_ms = min_ms(&disabled);
    let enabled_ms = min_ms(&enabled);
    let overhead_pct = (enabled_ms / disabled_ms - 1.0) * 100.0;

    let (obs, metrics) = last.expect("repeats >= 1");
    let report = match check_obs(&obs) {
        Ok(r) => r,
        Err(v) => {
            eprintln!("error: the observed run's trace violates the ordering contract: {v}");
            std::process::exit(1);
        }
    };

    format!(
        r#""obs": {{
    "note": "PR 8 observability: emit = enabled-path events/sec into one edge stream (one locked counter+seq+ring-push critical section); pipeline = min wall ms of the quickstart pipeline over {repeats} interleaved runs, observed vs unobserved — the overhead budget is 5%, and the *disabled* path is a single Option-is-None branch, pinned byte-identical by the golden-pin tests; quantiles are the new RunMetrics histogram fields from the observed run, whose full trace passed the executable ordering contract",
    "emit_events_per_sec": {emit_rate:.0},
    "pipeline": {{
      "frames": {frames},
      "repeats": {repeats},
      "disabled_ms_min": {disabled_ms:.2},
      "enabled_ms_min": {enabled_ms:.2},
      "enabled_overhead_pct": {overhead_pct:.2}
    }},
    "trace": {{
      "events": {events},
      "dropped": {dropped},
      "ordering_check": "passed",
      "finalized_txns": {finalized},
      "initial_commit_quantiles_ms": {iq},
      "final_commit_quantiles_ms": {fq}
    }}
  }}"#,
        events = report.events,
        dropped = obs.dropped(),
        finalized = report.finalized,
        iq = quantiles_json(metrics.initial_commit_quantiles),
        fq = quantiles_json(metrics.final_commit_quantiles),
    )
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    println!("{{\n  {}\n}}", section(quick));
}

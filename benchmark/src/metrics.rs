//! Every metric the benchmark reports: name, unit, direction and gate.
//!
//! `BENCHMARK.json` at the repository root repeats this table for the
//! acceptance driver; a unit test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is judged between two runs of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// End to end: may get worse by at most this share of the earlier
    /// median, and its spread over ten seeds must stay inside it too.
    Bound(f64),
    /// A count made by the program: repeats exactly for the same seed on a
    /// single-threaded workload, and is reported as a count, never as a
    /// speed-up.
    Exact,
    /// A per-layer timing or ratio: explains a movement, gates nothing.
    Layer,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        gate: Gate::Bound(bound),
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        gate: Gate::Exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        gate: Gate::Layer,
    }
}

use Better::{Higher, Lower};

pub const FRAMES_PER_S: &str = "frames_per_s";
pub const TXN_PER_S: &str = "txn_per_s";
pub const INITIAL_P50: &str = "initial_response_us_p50";
pub const INITIAL_P99: &str = "initial_response_us_p99";
pub const FINAL_P50: &str = "final_commit_us_p50";
pub const FINAL_P99: &str = "final_commit_us_p99";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const OPS_FAILED_SHARE: &str = "ops_failed_share";

/// What a user of the system sees. README.md explains how each bound was
/// chosen from the spread measured over ten seeds.
pub const END_TO_END: [Metric; 6] = [
    end_to_end(FRAMES_PER_S, "1/s", Higher, 0.25),
    end_to_end(TXN_PER_S, "1/s", Higher, 0.25),
    end_to_end(INITIAL_P50, "us", Lower, 0.25),
    end_to_end(FINAL_P50, "us", Lower, 0.25),
    end_to_end(SETUP_S, "s", Lower, 0.25),
    end_to_end(PEAK_RSS_MB, "MiB", Lower, 0.10),
];

pub const TRACE_OVERHEAD_SHARE: &str = "trace.overhead_share";

/// Single layers: stage spans, layer probes and exact counters.
pub const PER_LAYER: [Metric; 55] = [
    exact(OPS_FAILED_SHARE, "share", Lower),
    // The latency tails: measured by the untraced trials like the medians,
    // reported with them, bound to nothing. A 99th percentile of ~3000
    // frames is 30 frames, and which 30 is the video's doing: over ten
    // seeds it spread by 12-17% on most workloads and 22-27% on some, with
    // the bound capped at 25%. On the durable workloads the initial one
    // also sits on the edge of the stall regime (a checkpoint falls inside
    // the initial stage of 0.7-0.9% of frames) and moved by 40-60%.
    layer(INITIAL_P99, "us", Lower),
    layer(FINAL_P99, "us", Lower),
    // The six stage spans of the traced frame loop, in loop order: median
    // self time per frame, and share of all frame time.
    layer("detect.edge.us_per_frame", "us", Lower),
    layer("detect.edge.share", "share", Lower),
    layer("core.threshold.us_per_frame", "us", Lower),
    layer("core.threshold.share", "share", Lower),
    layer("core.edge.initial_stage.us_per_frame", "us", Lower),
    layer("core.edge.initial_stage.share", "share", Lower),
    layer("detect.cloud.us_per_frame", "us", Lower),
    layer("detect.cloud.share", "share", Lower),
    layer("core.edge.final_stage.us_per_frame", "us", Lower),
    layer("core.edge.final_stage.share", "share", Lower),
    layer("core.edge.settle.us_per_frame", "us", Lower),
    layer("core.edge.settle.share", "share", Lower),
    layer(TRACE_OVERHEAD_SHARE, "share", Lower),
    // Layer probes: the workload's own inputs replayed through one layer.
    layer("core.bank.instantiate_ns_per_txn", "ns", Lower),
    layer("txn.sequencer.waves_ns_per_frame", "ns", Lower),
    exact("txn.sequencer.waves_per_frame", "count", Lower),
    exact("txn.sequencer.wave_width_mean", "count", Higher),
    layer("txn.runtime.run_wave_ns_per_job", "ns", Lower),
    layer("txn.protocol.two_stage_txn_ns", "ns", Lower),
    layer("store.lock.acquire_release_ns_per_txn", "ns", Lower),
    layer("store.kv.get_ns", "ns", Lower),
    layer("store.kv.put_ns", "ns", Lower),
    layer("core.matching.match_ns_per_frame", "ns", Lower),
    layer("wal.writer.append_stage_ns", "ns", Lower),
    layer("wal.writer.checkpoint_ms", "ms", Lower),
    layer("txn.recovery.recover_ms", "ms", Lower),
    layer("wal.recover.records_per_s", "1/s", Higher),
    layer("core.cloud.tailer_poll_us", "us", Lower),
    layer("obs.emit_ns", "ns", Lower),
    // Exact counters read from the run's own objects.
    exact("txn.protocol.begun", "count", Higher),
    exact("txn.protocol.commits", "count", Higher),
    exact("txn.protocol.aborts", "count", Lower),
    exact("txn.apology.settled_entries", "count", Lower),
    exact("txn.apology.apologies_owed", "count", Lower),
    exact("core.metrics.validated_share", "share", Lower),
    exact("core.metrics.corrected", "count", Lower),
    exact("core.metrics.erroneous", "count", Lower),
    exact("core.metrics.missed", "count", Lower),
    exact("store.kv.items_final", "count", Lower),
    exact("wal.writer.records", "count", Lower),
    exact("wal.writer.commit_points", "count", Lower),
    exact("wal.writer.syncs", "count", Lower),
    exact("wal.writer.checkpoints", "count", Lower),
    exact("wal.writer.bytes_appended", "B", Lower),
    exact("wal.writer.bytes_per_txn", "B/txn", Lower),
    exact("wal.writer.commit_points_per_sync", "count", Higher),
    exact("wal.coalesce.requests", "count", Lower),
    exact("wal.coalesce.windows", "count", Lower),
    exact("core.fleet.in_place_restarts", "count", Lower),
    exact("core.fleet.takeovers", "count", Lower),
    exact("core.fleet.frames_dropped", "count", Lower),
    exact("core.fleet.rejected_batches", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_end_to_end_metrics() {
        let manifest = manifest();
        let listed = manifest.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(&END_TO_END) {
            let Gate::Bound(bound) = m.gate else {
                panic!("{} has no bound", m.name)
            };
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let manifest = manifest();
        let listed = manifest.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.as_str());
        }
    }

    #[test]
    fn benchmark_json_lists_the_gated_workloads() {
        let manifest = manifest();
        let listed = manifest.get("workloads").and_then(Json::as_arr).unwrap();
        let expected: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(listed.len(), expected.len());
        for (entry, w) in listed.iter().zip(expected) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }
    }
}

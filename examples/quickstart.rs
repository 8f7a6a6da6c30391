//! Quickstart: run Croesus end-to-end on a synthetic street-traffic video.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole public API surface once: generate a video, tune the
//! bandwidth thresholds for an accuracy floor, build a deployment with the
//! `Croesus` builder, run the multi-stage pipeline under two consistency
//! protocols, and compare against the edge-only and cloud-only baselines —
//! all through the same builder.

use croesus::core::{Croesus, DeploymentMode, ProtocolKind};
use croesus::video::VideoPreset;

fn main() {
    let preset = VideoPreset::StreetTraffic;
    let frames = 200;
    let seed = 42;

    // 1. Generate the synthetic video (stand-in for real footage).
    let video = preset.generate(frames, seed);
    println!(
        "video: {} — {} frames, {} tracked objects, querying '{}'",
        video.config.name,
        video.len(),
        video.tracks.len(),
        video.query_class()
    );

    // 2. Tune (θL, θU) for an F-score floor of 0.85: minimize the fraction
    //    of frames that must travel to the cloud. The deployment tunes
    //    itself: its evaluator runs its own models over its own frames.
    let base = Croesus::builder().preset(preset).frames(frames).seed(seed);
    let evaluator = base.clone().build().threshold_evaluator();
    let optimal = evaluator.brute_force(0.85, 0.1);
    println!(
        "optimal thresholds: ({:.1}, {:.1}) → predicted BU {:.0}%, F {:.2} ({} evaluations)",
        optimal.pair.lower,
        optimal.pair.upper,
        optimal.outcome.bu * 100.0,
        optimal.outcome.f_score,
        optimal.evaluations
    );

    // 3. Build deployments from one builder, cloned per run: the
    //    multi-stage pipeline (MS-IA, the paper's default) and both
    //    baselines.
    let base = base.thresholds(optimal.pair);
    let croesus = base.clone().build().run();
    let edge = base.clone().mode(DeploymentMode::EdgeOnly).build().run();
    let cloud = base.clone().mode(DeploymentMode::CloudOnly).build().run();

    println!(
        "\n{:<12} {:>12} {:>12} {:>8} {:>7}",
        "system", "initial ms", "final ms", "F", "BU%"
    );
    for m in [&edge, &croesus, &cloud] {
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>8.2} {:>7.1}",
            m.label.split_whitespace().next().unwrap_or(&m.label),
            m.initial_commit_ms,
            m.final_commit_ms,
            m.f_score,
            m.bandwidth_utilization * 100.0
        );
    }

    // 4. The consistency protocol is a builder axis, not a rewrite: the
    //    same pipeline under MS-SR (locks held across the cloud wait).
    let ms_sr = base.protocol(ProtocolKind::MsSr).build().run();
    println!(
        "\nsame pipeline under MS-SR → F {:.2}, {} transactions ('{}')",
        ms_sr.f_score, ms_sr.transactions_committed, ms_sr.label
    );

    println!(
        "\ncorrections: {} confirmed, {} renamed, {} retracted, {} recovered from misses; \
         {} transactions committed",
        croesus.corrections.correct,
        croesus.corrections.corrected,
        croesus.corrections.erroneous,
        croesus.corrections.missed,
        croesus.transactions_committed
    );
    println!(
        "the client sees edge-speed initial commits ({:.0} ms) with near-cloud accuracy \
         ({:.2} vs edge-only {:.2}), at {:.0}% of the cloud bandwidth",
        croesus.initial_commit_ms,
        croesus.f_score,
        edge.f_score,
        croesus.bandwidth_utilization * 100.0
    );
}

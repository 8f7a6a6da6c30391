//! Table 1: accuracy and latency of optimal-threshold Croesus vs the
//! state-of-the-art edge and cloud baselines, for videos v1..v4.
//!
//! Accuracy is normalized to the cloud baseline (1.0 by the ground-truth
//! convention); Croesus latency shows the final commit with the initial
//! commit in parentheses, as in the paper.

use croesus_bench::{banner, builder, pct, Table, DEFAULT_MU};
use croesus_core::{DeploymentMode, ThresholdPair};
use croesus_video::VideoPreset;

fn main() {
    banner("Table 1: optimal-threshold Croesus vs edge and cloud baselines");
    let mut t = Table::new(&[
        "video",
        "(θL,θU)",
        "acc Croesus",
        "acc edge",
        "acc cloud",
        "lat Croesus ms",
        "lat edge ms",
        "lat cloud ms",
        "BU",
    ]);
    for preset in VideoPreset::FIG2 {
        let base = builder(preset, ThresholdPair::new(0.4, 0.6));
        let opt = base
            .clone()
            .build()
            .threshold_evaluator()
            .brute_force(DEFAULT_MU, 0.1);

        let tuned = base.clone().thresholds(opt.pair);
        let croesus = tuned.clone().build().run();
        let edge = tuned.mode(DeploymentMode::EdgeOnly).build().run();
        let cloud = base.mode(DeploymentMode::CloudOnly).build().run();

        t.row(vec![
            preset.paper_id().to_string(),
            format!("({:.1},{:.1})", opt.pair.lower, opt.pair.upper),
            format!("{:.2}x", croesus.f_score / cloud.f_score),
            format!("{:.2}x", edge.f_score / cloud.f_score),
            "1.00".to_string(),
            format!(
                "{:.1} ({:.1})",
                croesus.final_commit_ms, croesus.initial_commit_ms
            ),
            format!("{:.1}", edge.final_commit_ms),
            format!("{:.1}", cloud.final_commit_ms),
            pct(croesus.bandwidth_utilization),
        ]);
    }
    t.print();
    println!(
        "\n  Paper shape: Croesus accuracy ≈0.8x of cloud (vs ≈0.4-0.5x for edge-only,\n  \
         except the easy airport video); Croesus final latency sits well below the cloud\n  \
         baseline, and its initial commit matches the edge baseline."
    );
}

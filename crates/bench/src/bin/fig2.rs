//! Figure 2: Croesus vs state-of-the-art baselines — latency breakdown and
//! F-score for four videos under varying bandwidth-utilization
//! configurations.

use croesus_bench::{banner, builder, f2, ms, pct, Table};
use croesus_core::{DeploymentMode, ThresholdPair, ValidationPolicy};
use croesus_video::VideoPreset;

fn main() {
    banner("Figure 2: Croesus vs edge/cloud baselines (latency breakdown + F-score)");
    println!("  components (ms): edge-link | edge-detect | init-txn | cloud-link | cloud-detect | final-txn");
    for preset in VideoPreset::FIG2 {
        println!(
            "\n  --- {} : {} ---",
            preset.paper_id(),
            preset.description()
        );
        let mut t = Table::new(&[
            "system",
            "edge-link",
            "edge-det",
            "init-txn",
            "cloud-link",
            "cloud-det",
            "final-txn",
            "initial",
            "final",
            "F-score",
            "BU",
        ]);
        let base = builder(preset, ThresholdPair::new(0.4, 0.6));

        let mut push = |label: &str, m: &croesus_core::RunMetrics| {
            let b = &m.breakdown;
            t.row(vec![
                label.to_string(),
                ms(b.edge_link_ms),
                ms(b.edge_detect_ms),
                ms(b.initial_txn_ms),
                ms(b.cloud_link_ms),
                ms(b.cloud_detect_ms),
                ms(b.final_txn_ms),
                ms(m.initial_commit_ms),
                ms(m.final_commit_ms),
                f2(m.f_score),
                pct(m.bandwidth_utilization),
            ]);
        };

        let edge = base.clone().mode(DeploymentMode::EdgeOnly).build().run();
        push("edge (SotA)", &edge);
        for bu in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let m = base
                .clone()
                .validation(ValidationPolicy::ForcedBu(bu))
                .build()
                .run();
            push(&format!("croesus BU={:.0}%", bu * 100.0), &m);
        }
        let cloud = base.mode(DeploymentMode::CloudOnly).build().run();
        push("cloud (SotA)", &cloud);
        t.print();
    }
    println!(
        "\n  Paper shape: initial commits stay edge-fast at every BU; final latency and\n  \
         F-score rise with BU; at BU=100% Croesus' cloud latency exceeds the cloud\n  \
         baseline (it pays both paths); the airport video (v3) is accurate even at low BU."
    );
}

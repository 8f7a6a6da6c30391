//! Figure 4: latency of Croesus at the optimal thresholds across the four
//! deployment setups ({small, regular edge} × {same, different location}).

use croesus_bench::{banner, builder, f2, ms, pct, Table, DEFAULT_MU};
use croesus_core::ThresholdPair;
use croesus_net::Setup;
use croesus_video::VideoPreset;

/// Find the optimal pair for a video (independent of setup: thresholds
/// concern detection quality, not deployment).
fn optimal(preset: VideoPreset) -> ThresholdPair {
    let ev = builder(preset, ThresholdPair::new(0.4, 0.6))
        .build()
        .threshold_evaluator();
    ev.brute_force(DEFAULT_MU, 0.1).pair
}

fn main() {
    banner("Figure 4: optimal-threshold Croesus latency across deployment setups");
    for preset in VideoPreset::FIG2 {
        let pair = optimal(preset);
        println!(
            "\n  --- {} : {} — optimal thresholds ({:.1}, {:.1}), µ={DEFAULT_MU} ---",
            preset.paper_id(),
            preset.description(),
            pair.lower,
            pair.upper
        );
        let mut t = Table::new(&["setup", "initial (ms)", "final (ms)", "F-score", "BU"]);
        for setup in Setup::ALL {
            let m = builder(preset, pair).setup(setup).build().run();
            t.row(vec![
                setup.label(),
                ms(m.initial_commit_ms),
                ms(m.final_commit_ms),
                f2(m.f_score),
                pct(m.bandwidth_utilization),
            ]);
        }
        t.print();
    }
    println!(
        "\n  Paper shape: co-locating edge and cloud removes the ~62 ms (each way)\n  \
         cross-country hop from the final latency; the t3a.small edge inflates the\n  \
         initial commit via slower Tiny-YOLO inference; v3's near-0% BU makes its\n  \
         final latency track the edge path in every setup."
    );
}

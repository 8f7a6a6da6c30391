//! Figure 5: heatmaps of bandwidth utilization and F-score over the
//! (θL, θU) grid, with the brute-force (★) and gradient-step (☆) optima.
//!
//! (a) street traffic querying "person", µ = 0.90;
//! (b) mall surveillance querying "person", µ = 0.80.

use croesus_bench::{banner, builder};
use croesus_core::ThresholdPair;
use croesus_video::VideoPreset;

fn heatmaps(preset: VideoPreset, mu: f64) {
    let ev = builder(preset, ThresholdPair::new(0.4, 0.6))
        .build()
        .threshold_evaluator();

    let brute = ev.brute_force(mu, 0.1);
    let grad = ev.gradient(mu, 0.1);

    println!(
        "\n  --- {} (µ = {mu}) — ★ brute force ({:.1},{:.1}) in {} evals, ☆ gradient ({:.1},{:.1}) in {} evals ---",
        preset.description(),
        brute.pair.lower,
        brute.pair.upper,
        brute.evaluations,
        grad.pair.lower,
        grad.pair.upper,
        grad.evaluations,
    );
    println!(
        "  gradient evaluation speedup: {:.1}x",
        brute.evaluations as f64 / grad.evaluations as f64
    );

    for (title, metric) in [("BU %", 0usize), ("F-score %", 1usize)] {
        println!("\n  {title} (rows θL 0.0..0.9, cols θU 0.0..0.9; '.' = invalid θL>θU)");
        print!("   θL\\θU");
        for u in 0..10 {
            print!(" {:>4}", format!("0.{u}"));
        }
        println!();
        for l in 0..10 {
            print!("   {:>5}", format!("0.{l}"));
            for u in 0..10 {
                if u < l {
                    print!(" {:>4}", ".");
                    continue;
                }
                let pair = ThresholdPair::new(l as f64 / 10.0, u as f64 / 10.0);
                let out = ev.evaluate(pair);
                let v = if metric == 0 { out.bu } else { out.f_score };
                let mark = if pair == brute.pair {
                    "*"
                } else if pair == grad.pair {
                    "+"
                } else {
                    ""
                };
                print!(" {:>4}", format!("{}{:.0}", mark, v * 100.0));
            }
            println!();
        }
    }
}

fn main() {
    banner("Figure 5: BU and F-score heatmaps over the threshold grid");
    heatmaps(VideoPreset::StreetPedestrians, 0.90);
    heatmaps(VideoPreset::MallSurveillance, 0.80);
    println!(
        "\n  Paper shape: widening the validate interval (larger θU−θL, lower θL) raises\n  \
         both BU and F; the mall video jumps sharply once validation starts (small,\n  \
         unclear objects); the gradient search lands near the brute-force optimum with\n  \
         a fraction of the evaluations (paper: 2.2x faster)."
    );
}

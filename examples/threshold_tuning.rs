//! Bandwidth-threshold tuning (§3.4 / §5.2.3): inspect the BU/accuracy
//! surface of a video and compare the brute-force and gradient searches.
//!
//! ```sh
//! cargo run --release --example threshold_tuning -- [mall|traffic|airport|park|pedestrians] [mu]
//! ```

use croesus::core::{Croesus, ThresholdPair};
use croesus::video::VideoPreset;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let preset = match args.get(1).map(String::as_str) {
        Some("traffic") => VideoPreset::StreetTraffic,
        Some("airport") => VideoPreset::AirportRunway,
        Some("park") => VideoPreset::ParkDog,
        Some("pedestrians") => VideoPreset::StreetPedestrians,
        _ => VideoPreset::MallSurveillance,
    };
    let mu: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.80);

    println!(
        "video: {} — query '{}', µ = {mu}",
        preset.description(),
        preset.query()
    );
    let ev = Croesus::builder()
        .preset(preset)
        .frames(300)
        .seed(42)
        .build()
        .threshold_evaluator();

    // A few interpretable operating points.
    println!(
        "\n{:>12} {:>8} {:>8} {:>10} {:>8}",
        "(θL, θU)", "BU%", "F", "precision", "recall"
    );
    for (lo, hi) in [
        (0.5, 0.5),
        (0.5, 0.6),
        (0.4, 0.6),
        (0.3, 0.7),
        (0.2, 0.8),
        (0.0, 0.9),
    ] {
        let out = ev.evaluate(ThresholdPair::new(lo, hi));
        println!(
            "{:>12} {:>8.1} {:>8.2} {:>10.2} {:>8.2}",
            format!("({lo:.1},{hi:.1})"),
            out.bu * 100.0,
            out.f_score,
            out.precision,
            out.recall
        );
    }

    let brute = ev.brute_force(mu, 0.1);
    let grad = ev.gradient(mu, 0.1);
    println!(
        "\nbrute force: ({:.1},{:.1}) BU {:.0}% F {:.2} — {} evaluations{}",
        brute.pair.lower,
        brute.pair.upper,
        brute.outcome.bu * 100.0,
        brute.outcome.f_score,
        brute.evaluations,
        if brute.feasible {
            ""
        } else {
            " (µ unreachable — best effort)"
        }
    );
    println!(
        "gradient:    ({:.1},{:.1}) BU {:.0}% F {:.2} — {} evaluations ({:.1}x fewer)",
        grad.pair.lower,
        grad.pair.upper,
        grad.outcome.bu * 100.0,
        grad.outcome.f_score,
        grad.evaluations,
        brute.evaluations as f64 / grad.evaluations as f64
    );
}

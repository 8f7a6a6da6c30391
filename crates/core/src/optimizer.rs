//! Threshold evaluation and the dynamic optimization of §3.4.
//!
//! The optimization formulation: given frames `V`, a query object `O` and a
//! minimum F-score `µ`, find `(θL, θU)` minimizing the sent-frame ratio
//! `δ(θL, θU)` subject to `f(θL, θU) ≥ µ`.
//!
//! A deployment's evaluator comes from the deployment:
//! [`Deployment::threshold_evaluator`](crate::Deployment::threshold_evaluator)
//! runs that deployment's edge and cloud models over its own frames, so a
//! pair is tuned on exactly the models and video it will run. The
//! [`ThresholdEvaluator`] precomputes both models' detections once (they
//! are deterministic per frame), making each threshold-pair evaluation a
//! cheap filter-and-match pass — the same trick lets the brute-force and
//! gradient optimizers (§5.2.3, Figure 5) search identical surfaces.

use croesus_detect::{score_against, Detection, DetectionModel, SimulatedModel};
use croesus_sim::stats::PrecisionRecall;
use croesus_video::{LabelClass, Video};

use crate::threshold::ThresholdPair;

/// The outcome of one threshold pair over a video.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdOutcome {
    /// δ: fraction of frames sent to the cloud (bandwidth utilization).
    pub bu: f64,
    /// F-score of the client-observed labels vs the cloud reference.
    pub f_score: f64,
    /// Precision component.
    pub precision: f64,
    /// Recall component.
    pub recall: f64,
}

/// An optimizer result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptimalThresholds {
    /// The chosen pair.
    pub pair: ThresholdPair,
    /// Its outcome.
    pub outcome: ThresholdOutcome,
    /// Whether the accuracy constraint `f ≥ µ` was satisfiable at all.
    pub feasible: bool,
    /// How many pair evaluations the search used (the brute-force vs
    /// gradient comparison of §5.2.3 is in these terms).
    pub evaluations: u64,
}

struct FrameData {
    edge_query: Vec<Detection>,
    cloud_query: Vec<Detection>,
}

/// Precomputed detections for fast threshold-pair evaluation.
pub struct ThresholdEvaluator {
    frames: Vec<FrameData>,
    query: LabelClass,
    overlap: f64,
}

impl ThresholdEvaluator {
    /// Run both models over the video once and keep the query-class
    /// detections. A deployment builds its own with
    /// [`Deployment::threshold_evaluator`](crate::Deployment::threshold_evaluator).
    pub(crate) fn build(
        video: &Video,
        edge_model: &SimulatedModel,
        cloud_model: &SimulatedModel,
        overlap: f64,
    ) -> Self {
        let query = video.query_class().clone();
        let frames = video
            .frames()
            .iter()
            .map(|f| {
                let keep = |d: &Detection| d.is_class(&query);
                FrameData {
                    edge_query: edge_model.detect(f).into_iter().filter(keep).collect(),
                    cloud_query: cloud_model.detect(f).into_iter().filter(keep).collect(),
                }
            })
            .collect();
        ThresholdEvaluator {
            frames,
            query,
            overlap,
        }
    }

    /// Evaluate one `(θL, θU)` pair: δ and the F-score of what the client
    /// would observe — the cloud's labels for a validated frame, else the
    /// edge's keep band. Each frame is decided by
    /// [`ThresholdPair::decide_frame`], as the frame loop decides it.
    pub fn evaluate(&self, pair: ThresholdPair) -> ThresholdOutcome {
        let mut sent = 0usize;
        let mut pr = PrecisionRecall::default();
        for fd in &self.frames {
            let decision = pair.decide_frame(&fd.edge_query, &self.query);
            let final_labels = if decision.send {
                sent += 1;
                &fd.cloud_query
            } else {
                &decision.kept
            };
            pr.add(score_against(
                final_labels,
                &fd.cloud_query,
                &self.query,
                self.overlap,
            ));
        }
        ThresholdOutcome {
            bu: sent as f64 / self.frames.len().max(1) as f64,
            f_score: pr.f_score(),
            precision: pr.precision(),
            recall: pr.recall(),
        }
    }

    /// The default grid used by both searches and the Figure-5 heatmaps:
    /// thresholds 0.0, 0.1, …, 0.9 with `θL ≤ θU`.
    pub(crate) fn grid(step: f64) -> Vec<ThresholdPair> {
        assert!(step > 0.0 && step < 1.0, "grid step must be in (0,1)");
        let n = (1.0 / step).round() as usize;
        let mut pairs = Vec::new();
        for li in 0..n {
            for ui in li..n {
                pairs.push(ThresholdPair::new(li as f64 * step, ui as f64 * step));
            }
        }
        pairs
    }

    /// Brute force (§5.2.3: "evaluates the whole space of threshold
    /// pairs"): minimize δ subject to `f ≥ µ`; among ties prefer the higher
    /// F-score ("prioritizing thresholds that yield higher accuracy"). If
    /// no pair meets µ, return the best-accuracy pair and mark the result
    /// infeasible.
    pub fn brute_force(&self, mu: f64, step: f64) -> OptimalThresholds {
        let mut evaluations = 0u64;
        let mut best_feasible: Option<(ThresholdPair, ThresholdOutcome)> = None;
        let mut best_any: Option<(ThresholdPair, ThresholdOutcome)> = None;
        for pair in Self::grid(step) {
            let out = self.evaluate(pair);
            evaluations += 1;
            if best_any.is_none() || out.f_score > best_any.expect("set above").1.f_score {
                best_any = Some((pair, out));
            }
            if out.f_score >= mu {
                let better = match &best_feasible {
                    None => true,
                    Some((_, b)) => {
                        out.bu < b.bu - 1e-12
                            || ((out.bu - b.bu).abs() <= 1e-12 && out.f_score > b.f_score)
                    }
                };
                if better {
                    best_feasible = Some((pair, out));
                }
            }
        }
        match best_feasible {
            Some((pair, outcome)) => OptimalThresholds {
                pair,
                outcome,
                feasible: true,
                evaluations,
            },
            None => {
                let (pair, outcome) = best_any.expect("grid is non-empty");
                OptimalThresholds {
                    pair,
                    outcome,
                    feasible: false,
                    evaluations,
                }
            }
        }
    }

    /// Penalty used by the gradient search: feasible pairs score by δ;
    /// infeasible pairs are dominated by any feasible one and ordered by
    /// their constraint violation.
    fn penalty(out: &ThresholdOutcome, mu: f64) -> f64 {
        if out.f_score >= mu {
            out.bu
        } else {
            1.0 + (mu - out.f_score)
        }
    }

    /// Gradient-step search (§5.2.3's faster alternative): steepest-descent
    /// over the grid neighborhood from a centre start, evaluating only the
    /// visited pairs. Converges to a local optimum of the penalized
    /// objective with far fewer evaluations than the full grid.
    pub fn gradient(&self, mu: f64, step: f64) -> OptimalThresholds {
        let clampq = |x: f64| {
            // Snap to the grid and clamp to [0, 1-step].
            let max = 1.0 - step;
            ((x / step).round() * step).clamp(0.0, max)
        };
        let mut current = ThresholdPair::new(clampq(0.4), clampq(0.6));
        let mut current_out = self.evaluate(current);
        let mut evaluations = 1u64;
        loop {
            let mut best_neighbor: Option<(ThresholdPair, ThresholdOutcome)> = None;
            for (dl, du) in [
                (-step, 0.0),
                (step, 0.0),
                (0.0, -step),
                (0.0, step),
                (-step, step),
                (step, -step),
                (step, step),
                (-step, -step),
            ] {
                let l = clampq(current.lower + dl);
                let u = clampq(current.upper + du);
                if l > u || (l == current.lower && u == current.upper) {
                    continue;
                }
                let pair = ThresholdPair::new(l, u);
                let out = self.evaluate(pair);
                evaluations += 1;
                let better = match &best_neighbor {
                    None => Self::penalty(&out, mu) < Self::penalty(&current_out, mu),
                    Some((_, b)) => Self::penalty(&out, mu) < Self::penalty(b, mu),
                };
                if better {
                    best_neighbor = Some((pair, out));
                }
            }
            match best_neighbor {
                Some((pair, out)) => {
                    current = pair;
                    current_out = out;
                }
                None => break,
            }
        }
        OptimalThresholds {
            pair: current,
            outcome: current_out,
            feasible: current_out.f_score >= mu,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_detect::ModelProfile;
    use croesus_video::VideoPreset;

    fn evaluator(preset: VideoPreset) -> ThresholdEvaluator {
        let video = preset.generate(150, 42);
        let edge = SimulatedModel::new(ModelProfile::tiny_yolov3(), 42);
        let cloud = SimulatedModel::new(ModelProfile::yolov3_416(), 43);
        ThresholdEvaluator::build(&video, &edge, &cloud, 0.10)
    }

    #[test]
    fn full_validation_gives_perfect_f_score() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let out = ev.evaluate(ThresholdPair::new(0.0, 0.9));
        // Nearly every frame with a detection is sent; sent frames score 1.
        assert!(out.bu > 0.8, "bu {}", out.bu);
        assert!(out.f_score > 0.97, "f {}", out.f_score);
    }

    #[test]
    fn degenerate_pair_sends_nothing() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let out = ev.evaluate(ThresholdPair::new(0.5, 0.5));
        assert!(out.bu < 0.05, "bu {}", out.bu);
        assert!(
            out.f_score < 0.85,
            "edge-only accuracy is limited: {}",
            out.f_score
        );
    }

    #[test]
    fn wider_validate_interval_means_more_bu_and_accuracy() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let narrow = ev.evaluate(ThresholdPair::new(0.45, 0.55));
        let wide = ev.evaluate(ThresholdPair::new(0.2, 0.8));
        assert!(wide.bu > narrow.bu);
        assert!(wide.f_score >= narrow.f_score);
    }

    #[test]
    fn airport_needs_no_cloud_for_high_accuracy() {
        let ev = evaluator(VideoPreset::AirportRunway);
        let out = ev.evaluate(ThresholdPair::new(0.3, 0.4));
        assert!(
            out.bu < 0.3,
            "easy video needs little validation: {}",
            out.bu
        );
        assert!(
            out.f_score > 0.8,
            "airport edge accuracy is high: {}",
            out.f_score
        );
    }

    #[test]
    fn grid_has_expected_size() {
        // step 0.1 → 10 values, θL ≤ θU → 55 pairs.
        assert_eq!(ThresholdEvaluator::grid(0.1).len(), 55);
        for p in ThresholdEvaluator::grid(0.1) {
            assert!(p.lower <= p.upper);
        }
    }

    #[test]
    fn brute_force_meets_accuracy_floor() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let opt = ev.brute_force(0.9, 0.1);
        assert!(opt.feasible);
        assert!(opt.outcome.f_score >= 0.9);
        assert_eq!(opt.evaluations, 55);
        // Optimal BU should not be total.
        assert!(opt.outcome.bu < 1.0);
    }

    #[test]
    fn brute_force_minimizes_bu_among_feasible() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let opt = ev.brute_force(0.85, 0.1);
        // No grid pair with an F ≥ µ may have lower BU.
        for pair in ThresholdEvaluator::grid(0.1) {
            let out = ev.evaluate(pair);
            if out.f_score >= 0.85 {
                assert!(out.bu >= opt.outcome.bu - 1e-12);
            }
        }
    }

    #[test]
    fn impossible_floor_reports_infeasible_with_best_accuracy() {
        let ev = evaluator(VideoPreset::MallSurveillance);
        let opt = ev.brute_force(1.01, 0.1);
        assert!(!opt.feasible);
        assert!(opt.outcome.f_score > 0.0);
    }

    #[test]
    fn gradient_uses_fewer_evaluations_than_brute_force() {
        let ev = evaluator(VideoPreset::StreetTraffic);
        let brute = ev.brute_force(0.9, 0.1);
        let grad = ev.gradient(0.9, 0.1);
        assert!(
            grad.evaluations < brute.evaluations,
            "gradient {} vs brute {}",
            grad.evaluations,
            brute.evaluations
        );
        // The paper reports the gradient method reaching a comparable
        // operating point ~2.2× faster.
        assert!(
            grad.outcome.f_score >= 0.85,
            "gradient f {}",
            grad.outcome.f_score
        );
    }

    #[test]
    fn gradient_result_is_feasible_when_floor_is_reachable() {
        let ev = evaluator(VideoPreset::ParkDog);
        let grad = ev.gradient(0.8, 0.1);
        assert!(grad.feasible, "outcome {:?}", grad.outcome);
    }

    #[test]
    fn easy_video_has_lower_optimal_bu_than_hard_video() {
        let easy = evaluator(VideoPreset::AirportRunway).brute_force(0.8, 0.1);
        let hard = evaluator(VideoPreset::MallSurveillance).brute_force(0.8, 0.1);
        assert!(
            easy.outcome.bu < hard.outcome.bu,
            "airport {} vs mall {}",
            easy.outcome.bu,
            hard.outcome.bu
        );
    }
}

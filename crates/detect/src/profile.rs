//! Model profiles: the statistical description of a simulated detector.
//!
//! A profile captures everything Croesus can observe about a CNN from the
//! outside: how often it finds objects (as a function of how clear they
//! are), how often the label name is right, how many spurious detections it
//! emits, how tight its boxes are, how its confidence scores relate to
//! correctness, and how long inference takes. The preset profiles are
//! calibrated against the numbers the paper reports for Tiny-YOLOv3 and
//! YOLOv3-{320,416,608} (§5.1, Table 2).

use croesus_sim::{DetRng, Distribution, Kumaraswamy, Normal, SimDuration};
use croesus_video::LabelClass;

/// Inference latency model: normal with mean/std, clamped to stay positive
/// and sane, and scalable by a hardware factor (a t3a.small edge box is
/// slower than a t3a.xlarge one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyProfile {
    /// Mean inference latency, milliseconds.
    pub mean_ms: f64,
    /// Standard deviation, milliseconds.
    pub std_ms: f64,
}

impl LatencyProfile {
    /// Create a latency profile. Panics on non-positive mean or negative std.
    pub fn new(mean_ms: f64, std_ms: f64) -> Self {
        assert!(mean_ms > 0.0, "latency mean must be positive");
        assert!(std_ms >= 0.0, "latency std must be non-negative");
        LatencyProfile { mean_ms, std_ms }
    }

    /// Sample one inference latency, scaled by `hardware_factor` (1.0 =
    /// the paper's default machine for this model).
    pub fn sample(&self, rng: &mut DetRng, hardware_factor: f64) -> SimDuration {
        let n = Normal::new(self.mean_ms, self.std_ms);
        let ms = n.sample_clamped(
            rng,
            (self.mean_ms - 3.0 * self.std_ms).max(0.5),
            self.mean_ms + 3.0 * self.std_ms,
        );
        SimDuration::from_millis_f64(ms * hardware_factor.max(0.01))
    }
}

/// How confidence scores are generated.
///
/// Correct detections draw confidence around `correct_base +
/// correct_gain·q` where `q` is the latent perceived quality; wrong-label
/// detections around `wrong_base + wrong_gain·q`; false positives from a
/// Kumaraswamy distribution scaled into a low band. This is the coupling
/// that gives the discard/validate/keep intervals of §3.4 their meaning.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfidenceModel {
    /// Confidence intercept for correct detections.
    pub correct_base: f64,
    /// Confidence slope in quality for correct detections.
    pub correct_gain: f64,
    /// Confidence intercept for misclassified detections.
    pub wrong_base: f64,
    /// Confidence slope in quality for misclassified detections.
    pub wrong_gain: f64,
    /// Gaussian noise added to all real-object confidences.
    pub noise: f64,
    /// Kumaraswamy shape for false-positive confidences.
    pub fp_shape: (f64, f64),
    /// False-positive confidences live in `[0, fp_scale]`.
    pub fp_scale: f64,
}

impl ConfidenceModel {
    /// Confidence for a detection of a real object.
    pub(crate) fn sample_real(&self, rng: &mut DetRng, quality: f64, correct: bool) -> f64 {
        let mean = if correct {
            self.correct_base + self.correct_gain * quality
        } else {
            self.wrong_base + self.wrong_gain * quality
        };
        (mean + self.noise * rng.standard_normal()).clamp(0.01, 0.995)
    }

    /// Confidence for a false positive.
    pub(crate) fn sample_fp(&self, rng: &mut DetRng) -> f64 {
        let k = Kumaraswamy::new(self.fp_shape.0, self.fp_shape.1);
        (k.sample(rng) * self.fp_scale).clamp(0.01, 0.995)
    }
}

/// The kind of model, used for reporting and preset lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Tiny-YOLOv3: the compact edge model.
    TinyYoloV3,
    /// YOLOv3 with 320×320 input.
    YoloV3_320,
    /// YOLOv3 with 416×416 input (the paper's default cloud model).
    YoloV3_416,
    /// YOLOv3 with 608×608 input.
    YoloV3_608,
}

impl ModelKind {
    /// The three cloud model sizes of Table 2, in order.
    pub const CLOUD_SIZES: [ModelKind; 3] = [
        ModelKind::YoloV3_320,
        ModelKind::YoloV3_416,
        ModelKind::YoloV3_608,
    ];

    /// Model name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::TinyYoloV3 => "Tiny YOLOv3",
            ModelKind::YoloV3_320 => "YOLOv3-320",
            ModelKind::YoloV3_416 => "YOLOv3-416",
            ModelKind::YoloV3_608 => "YOLOv3-608",
        }
    }

    /// The preset profile for this model.
    pub fn profile(&self) -> ModelProfile {
        match self {
            ModelKind::TinyYoloV3 => ModelProfile::tiny_yolov3(),
            ModelKind::YoloV3_320 => ModelProfile::yolov3_320(),
            ModelKind::YoloV3_416 => ModelProfile::yolov3_416(),
            ModelKind::YoloV3_608 => ModelProfile::yolov3_608(),
        }
    }
}

/// Full statistical description of a simulated detector.
#[derive(Clone, Debug)]
pub struct ModelProfile {
    /// Model name for reports.
    pub name: String,
    /// Detection probability at perceived quality 0.
    pub recall_floor: f64,
    /// Detection probability slope in perceived quality.
    pub recall_slope: f64,
    /// P(correct label | detected) at quality 0.
    pub label_acc_floor: f64,
    /// P(correct label | detected) slope in quality.
    pub label_acc_slope: f64,
    /// Std of the perceived-quality noise around object clarity.
    pub quality_noise: f64,
    /// Expected spurious detections per frame.
    pub fp_rate: f64,
    /// Bounding-box jitter std, as a fraction of box extent.
    pub bbox_jitter: f64,
    /// Confidence generation model.
    pub confidence: ConfidenceModel,
    /// Inference latency.
    pub latency: LatencyProfile,
}

impl ModelProfile {
    /// Perceived quality of an object for this model: clarity plus
    /// model-specific noise, clamped to `[0, 1]`.
    pub(crate) fn perceived_quality(&self, rng: &mut DetRng, clarity: f64) -> f64 {
        (clarity + self.quality_noise * rng.standard_normal()).clamp(0.0, 1.0)
    }

    /// Detection probability at perceived quality `q`.
    pub(crate) fn detection_probability(&self, q: f64) -> f64 {
        (self.recall_floor + self.recall_slope * q).clamp(0.0, 1.0)
    }

    /// Probability of the correct label at perceived quality `q`.
    pub(crate) fn label_accuracy(&self, q: f64) -> f64 {
        (self.label_acc_floor + self.label_acc_slope * q).clamp(0.0, 1.0)
    }

    /// The compact, fast, less accurate edge model (§5: "Tiny YOLOv3 is
    /// faster but less accurate than YOLOv3"). Latency calibrated so edge
    /// detection on the default edge machine lands near the paper's ~190 ms
    /// share of the ~210 ms initial commit (Table 1).
    pub fn tiny_yolov3() -> ModelProfile {
        ModelProfile {
            name: ModelKind::TinyYoloV3.name().to_string(),
            recall_floor: 0.10,
            recall_slope: 0.92,
            label_acc_floor: 0.28,
            label_acc_slope: 0.70,
            quality_noise: 0.12,
            fp_rate: 0.30,
            bbox_jitter: 0.05,
            confidence: ConfidenceModel {
                correct_base: 0.28,
                correct_gain: 0.62,
                wrong_base: 0.18,
                wrong_gain: 0.38,
                noise: 0.09,
                fp_shape: (1.4, 4.0),
                fp_scale: 0.55,
            },
            latency: LatencyProfile::new(190.0, 12.0),
        }
    }

    fn yolov3(name: &str, acuity: f64, mean_latency_ms: f64) -> ModelProfile {
        ModelProfile {
            name: name.to_string(),
            recall_floor: 0.78 + 0.1 * acuity,
            recall_slope: 0.16,
            label_acc_floor: 0.86 + 0.06 * acuity,
            label_acc_slope: 0.08,
            quality_noise: 0.05,
            fp_rate: 0.03,
            bbox_jitter: 0.012,
            confidence: ConfidenceModel {
                correct_base: 0.55,
                correct_gain: 0.40,
                wrong_base: 0.30,
                wrong_gain: 0.30,
                noise: 0.05,
                fp_shape: (1.4, 4.5),
                fp_scale: 0.45,
            },
            latency: LatencyProfile::new(mean_latency_ms, mean_latency_ms * 0.05),
        }
    }

    /// YOLOv3-320 — smallest cloud model (Table 2: 0.70 s detection).
    pub(crate) fn yolov3_320() -> ModelProfile {
        Self::yolov3(ModelKind::YoloV3_320.name(), 0.4, 700.0)
    }

    /// YOLOv3-416 — the default cloud model (Table 2: 1.12 s detection).
    pub fn yolov3_416() -> ModelProfile {
        Self::yolov3(ModelKind::YoloV3_416.name(), 0.7, 1120.0)
    }

    /// YOLOv3-608 — largest cloud model (Table 2: 2.34 s detection).
    pub fn yolov3_608() -> ModelProfile {
        Self::yolov3(ModelKind::YoloV3_608.name(), 1.0, 2340.0)
    }
}

/// A vocabulary of label classes a model can confuse an object with.
/// Misclassifications draw uniformly from the vocabulary minus the true
/// class.
#[derive(Clone, Debug)]
pub(crate) struct Vocabulary {
    classes: Vec<LabelClass>,
}

impl Vocabulary {
    /// Build a vocabulary from class names. Panics when fewer than two
    /// classes are supplied — misclassification needs an alternative.
    pub fn new(classes: Vec<LabelClass>) -> Self {
        assert!(classes.len() >= 2, "vocabulary needs at least two classes");
        Vocabulary { classes }
    }

    /// The standard vocabulary used in the experiments: the classes present
    /// in the paper's videos plus a few common COCO confusables.
    pub(crate) fn standard() -> Vocabulary {
        Vocabulary::new(
            [
                "person",
                "car",
                "bus",
                "truck",
                "airplane",
                "dog",
                "cat",
                "bicycle",
                "motorbike",
                "building",
            ]
            .iter()
            .map(|s| LabelClass::new(s))
            .collect(),
        )
    }

    /// A uniformly random class different from `not`.
    pub(crate) fn confusable(&self, rng: &mut DetRng, not: &LabelClass) -> LabelClass {
        loop {
            let pick = rng.choose(&self.classes);
            if pick != not {
                return pick.clone();
            }
        }
    }

    /// A uniformly random class (for false positives).
    pub fn any(&self, rng: &mut DetRng) -> LabelClass {
        rng.choose(&self.classes).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sampling_is_positive_and_near_mean() {
        let mut rng = DetRng::new(1);
        let lat = LatencyProfile::new(190.0, 12.0);
        let samples: Vec<f64> = (0..2000)
            .map(|_| lat.sample(&mut rng, 1.0).as_millis_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 190.0).abs() < 3.0, "mean {mean}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn latency_hardware_factor_scales() {
        let mut rng = DetRng::new(2);
        let lat = LatencyProfile::new(100.0, 0.0);
        let fast = lat.sample(&mut rng, 1.0);
        let slow = lat.sample(&mut rng, 2.2);
        assert_eq!(slow.as_micros(), fast.as_micros() * 22 / 10);
    }

    #[test]
    fn confidence_orders_correct_above_wrong_above_fp() {
        let mut rng = DetRng::new(3);
        let cm = ModelProfile::tiny_yolov3().confidence;
        let n = 5000;
        let q = 0.7;
        let correct: f64 = (0..n)
            .map(|_| cm.sample_real(&mut rng, q, true))
            .sum::<f64>()
            / n as f64;
        let wrong: f64 = (0..n)
            .map(|_| cm.sample_real(&mut rng, q, false))
            .sum::<f64>()
            / n as f64;
        let fp: f64 = (0..n).map(|_| cm.sample_fp(&mut rng)).sum::<f64>() / n as f64;
        assert!(correct > wrong + 0.1, "correct {correct} wrong {wrong}");
        assert!(wrong > fp, "wrong {wrong} fp {fp}");
    }

    #[test]
    fn detection_probability_monotone_in_quality() {
        let p = ModelProfile::tiny_yolov3();
        assert!(p.detection_probability(0.9) > p.detection_probability(0.4));
        assert!(p.detection_probability(1.0) <= 1.0);
        assert!(p.detection_probability(0.0) >= 0.0);
    }

    #[test]
    fn cloud_models_are_more_accurate_than_edge() {
        let edge = ModelProfile::tiny_yolov3();
        let cloud = ModelProfile::yolov3_416();
        for q in [0.2, 0.5, 0.8] {
            assert!(cloud.detection_probability(q) > edge.detection_probability(q));
            assert!(cloud.label_accuracy(q) > edge.label_accuracy(q));
        }
        assert!(cloud.fp_rate < edge.fp_rate);
        assert!(cloud.bbox_jitter < edge.bbox_jitter);
    }

    #[test]
    fn cloud_latency_ordering_matches_table2() {
        let l320 = ModelProfile::yolov3_320().latency.mean_ms;
        let l416 = ModelProfile::yolov3_416().latency.mean_ms;
        let l608 = ModelProfile::yolov3_608().latency.mean_ms;
        assert!(l320 < l416 && l416 < l608);
        // Table 2 reports 0.70 / 1.12 / 2.34 seconds.
        assert_eq!(l320, 700.0);
        assert_eq!(l416, 1120.0);
        assert_eq!(l608, 2340.0);
    }

    #[test]
    fn edge_is_much_faster_than_cloud_models() {
        let edge = ModelProfile::tiny_yolov3().latency.mean_ms;
        let cloud = ModelProfile::yolov3_416().latency.mean_ms;
        assert!(cloud / edge > 4.0);
    }

    #[test]
    fn perceived_quality_is_bounded_and_tracks_clarity() {
        let mut rng = DetRng::new(5);
        let p = ModelProfile::tiny_yolov3();
        let clear: f64 = (0..2000)
            .map(|_| p.perceived_quality(&mut rng, 0.9))
            .sum::<f64>()
            / 2000.0;
        let murky: f64 = (0..2000)
            .map(|_| p.perceived_quality(&mut rng, 0.3))
            .sum::<f64>()
            / 2000.0;
        assert!(clear > murky + 0.4);
        for _ in 0..1000 {
            let q = p.perceived_quality(&mut rng, 0.5);
            assert!((0.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn vocabulary_confusable_never_returns_truth() {
        let mut rng = DetRng::new(6);
        let v = Vocabulary::standard();
        let truth = LabelClass::new("car");
        for _ in 0..500 {
            assert_ne!(v.confusable(&mut rng, &truth), truth);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn vocabulary_needs_two_classes() {
        Vocabulary::new(vec![LabelClass::new("only")]);
    }

    #[test]
    fn model_kind_presets_resolve() {
        for kind in [
            ModelKind::TinyYoloV3,
            ModelKind::YoloV3_320,
            ModelKind::YoloV3_416,
            ModelKind::YoloV3_608,
        ] {
            let p = kind.profile();
            assert_eq!(p.name, kind.name());
        }
        assert_eq!(ModelKind::CLOUD_SIZES.len(), 3);
    }
}

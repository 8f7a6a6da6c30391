//! Detection models: the oracle and the statistical simulator.

use croesus_sim::{DetRng, SimDuration};
use croesus_video::Frame;

use crate::detection::Detection;
use crate::profile::{ModelProfile, Vocabulary};

/// A black-box detection model, as Croesus sees one (§2.2: "Our work
/// applies to a wide-range of CNN models as we use them as a black box").
pub trait DetectionModel {
    /// Model name for reports.
    fn name(&self) -> &str;

    /// Detect objects in a frame. Deterministic per `(model, frame)`.
    fn detect(&self, frame: &Frame) -> Vec<Detection>;

    /// Sample one inference latency for this frame.
    fn inference_latency(&self, frame: &Frame) -> SimDuration;
}

/// A perfect detector: reports every ground-truth object with confidence 1
/// and exact boxes. Useful as a reference in tests.
#[derive(Clone, Debug)]
pub struct OracleModel;

impl DetectionModel for OracleModel {
    fn name(&self) -> &str {
        "oracle"
    }

    fn detect(&self, frame: &Frame) -> Vec<Detection> {
        frame
            .objects
            .iter()
            .map(|o| Detection::new(o.class.clone(), 1.0, o.bbox))
            .collect()
    }

    fn inference_latency(&self, _frame: &Frame) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A statistically simulated detector.
///
/// For every ground-truth object the model:
/// 1. perceives a quality `q` (object clarity + model noise),
/// 2. detects it with probability `recall_floor + recall_slope·q`,
/// 3. if detected, reports the correct class with probability
///    `label_acc_floor + label_acc_slope·q`, otherwise a confusable class,
/// 4. draws a confidence coupled to correctness (see
///    [`crate::profile::ConfidenceModel`]), and
/// 5. jitters the bounding box.
///
/// It then adds false positives at the profile's `fp_rate`.
///
/// All draws come from `DetRng::new(seed).fork(frame.index)`, then a
/// per-object fork, so results are stable regardless of how many frames or
/// in what order the model is invoked — a property the threshold optimizer
/// relies on (it evaluates the same video under many threshold pairs).
#[derive(Clone, Debug)]
pub struct SimulatedModel {
    profile: ModelProfile,
    vocabulary: Vocabulary,
    seed: u64,
    /// Hardware scaling for inference latency (1.0 = the paper's default
    /// machine class for this model).
    hardware_factor: f64,
}

impl SimulatedModel {
    /// Create a model from a profile with the standard vocabulary.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        SimulatedModel {
            profile,
            vocabulary: Vocabulary::standard(),
            seed,
            hardware_factor: 1.0,
        }
    }

    /// Scale inference latency by a hardware factor (e.g. 2.2 for a
    /// t3a.small-class edge machine instead of t3a.xlarge).
    pub fn with_hardware_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "hardware factor must be positive");
        self.hardware_factor = factor;
        self
    }

    fn frame_rng(&self, frame: &Frame) -> DetRng {
        DetRng::new(self.seed).fork(frame.index)
    }
}

impl DetectionModel for SimulatedModel {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn detect(&self, frame: &Frame) -> Vec<Detection> {
        let rng = self.frame_rng(frame);
        let p = &self.profile;
        let mut out = Vec::with_capacity(frame.objects.len());

        for obj in &frame.objects {
            let mut orng = rng.fork(obj.id.0);
            let q = p.perceived_quality(&mut orng, obj.clarity);
            if !orng.bernoulli(p.detection_probability(q)) {
                continue;
            }
            let correct = orng.bernoulli(p.label_accuracy(q));
            let class = if correct {
                obj.class.clone()
            } else {
                self.vocabulary.confusable(&mut orng, &obj.class)
            };
            let confidence = p.confidence.sample_real(&mut orng, q, correct);
            let jitter = p.bbox_jitter;
            let bbox = obj.bbox.jittered(
                jitter * obj.bbox.w * orng.standard_normal(),
                jitter * obj.bbox.h * orng.standard_normal(),
                jitter * obj.bbox.w * orng.standard_normal(),
                jitter * obj.bbox.h * orng.standard_normal(),
            );
            out.push(Detection::new(class, confidence, bbox));
        }

        // False positives: spurious small boxes at random positions.
        let mut fp_rng = rng.fork_named("fp");
        let mut budget = p.fp_rate;
        while budget > 0.0 {
            let pr = budget.min(1.0);
            if fp_rng.bernoulli(pr) {
                let class = self.vocabulary.any(&mut fp_rng);
                let w = fp_rng.uniform_range(0.02, 0.10);
                let h = fp_rng.uniform_range(0.02, 0.10);
                let cx = fp_rng.uniform_range(0.05, 0.95);
                let cy = fp_rng.uniform_range(0.05, 0.95);
                let confidence = p.confidence.sample_fp(&mut fp_rng);
                out.push(Detection::new(
                    class,
                    confidence,
                    croesus_video::BoundingBox::centered(cx, cy, w, h),
                ));
            }
            budget -= 1.0;
        }
        out
    }

    fn inference_latency(&self, frame: &Frame) -> SimDuration {
        let mut rng = self.frame_rng(frame).fork_named("latency");
        self.profile.latency.sample(&mut rng, self.hardware_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::{SceneConfig, Video, VideoPreset};

    fn video() -> Video {
        Video::generate(SceneConfig::default(), 99)
    }

    #[test]
    fn oracle_reports_exact_truth() {
        let v = video();
        let m = OracleModel;
        for f in v.frames() {
            let dets = m.detect(f);
            assert_eq!(dets.len(), f.objects.len());
            for (d, o) in dets.iter().zip(&f.objects) {
                assert_eq!(d.class, o.class);
                assert_eq!(d.bbox, o.bbox);
                assert_eq!(d.confidence, 1.0);
            }
        }
    }

    #[test]
    fn detection_is_deterministic_per_frame() {
        let v = video();
        let m = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let f = v.frame(10);
        assert_eq!(m.detect(f), m.detect(f));
        // Detecting other frames in between must not perturb the result.
        let _ = m.detect(v.frame(3));
        assert_eq!(m.detect(f), m.detect(f));
    }

    #[test]
    fn different_model_seeds_differ() {
        let v = video();
        let a = SimulatedModel::new(ModelProfile::tiny_yolov3(), 1);
        let b = SimulatedModel::new(ModelProfile::tiny_yolov3(), 2);
        let fa: usize = v.frames().iter().map(|f| a.detect(f).len()).sum();
        let fb: usize = v.frames().iter().map(|f| b.detect(f).len()).sum();
        // Same distribution but not the identical realization.
        let identical = v.frames().iter().all(|f| a.detect(f) == b.detect(f));
        assert!(!identical, "fa {fa} fb {fb}");
    }

    #[test]
    fn cloud_model_detects_more_than_edge_on_hard_video() {
        let v = VideoPreset::MallSurveillance.generate(200, 7);
        let edge = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let cloud = SimulatedModel::new(ModelProfile::yolov3_416(), 5);
        let truth: usize = v.frames().iter().map(|f| f.objects.len()).sum();
        let edge_hits: usize = v.frames().iter().map(|f| edge.detect(f).len()).sum();
        let cloud_hits: usize = v.frames().iter().map(|f| cloud.detect(f).len()).sum();
        assert!(
            cloud_hits > edge_hits,
            "cloud {cloud_hits} edge {edge_hits} truth {truth}"
        );
    }

    #[test]
    fn easy_video_yields_high_edge_confidence() {
        let v = VideoPreset::AirportRunway.generate(150, 7);
        let edge = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let confs: Vec<f64> = v
            .frames()
            .iter()
            .flat_map(|f| edge.detect(f))
            .filter(|d| d.is_class(&"airplane".into()))
            .map(|d| d.confidence)
            .collect();
        assert!(!confs.is_empty());
        let mean = confs.iter().sum::<f64>() / confs.len() as f64;
        assert!(mean > 0.7, "airport edge confidence {mean}");
    }

    #[test]
    fn hard_video_yields_lower_edge_confidence() {
        let easy = VideoPreset::AirportRunway.generate(150, 7);
        let hard = VideoPreset::MallSurveillance.generate(150, 7);
        let edge = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let mean_conf = |v: &Video| {
            let confs: Vec<f64> = v
                .frames()
                .iter()
                .flat_map(|f| edge.detect(f))
                .map(|d| d.confidence)
                .collect();
            confs.iter().sum::<f64>() / confs.len().max(1) as f64
        };
        assert!(mean_conf(&easy) > mean_conf(&hard) + 0.15);
    }

    #[test]
    fn latency_respects_hardware_factor() {
        let v = video();
        let f = v.frame(0);
        let base = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let slow = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5).with_hardware_factor(2.2);
        let lb = base.inference_latency(f).as_millis_f64();
        let ls = slow.inference_latency(f).as_millis_f64();
        assert!((ls / lb - 2.2).abs() < 0.01, "ratio {}", ls / lb);
    }

    #[test]
    fn latency_is_deterministic_per_frame() {
        let v = video();
        let m = SimulatedModel::new(ModelProfile::yolov3_416(), 5);
        assert_eq!(
            m.inference_latency(v.frame(4)),
            m.inference_latency(v.frame(4))
        );
    }

    #[test]
    fn false_positive_rate_is_respected() {
        let v = Video::generate(
            SceneConfig {
                initial_objects: 0,
                spawn_rate: 0.0,
                num_frames: 2000,
                ..SceneConfig::default()
            },
            3,
        );
        let m = SimulatedModel::new(ModelProfile::tiny_yolov3(), 5);
        let fps: usize = v.frames().iter().map(|f| m.detect(f).len()).sum();
        let rate = fps as f64 / 2000.0;
        assert!((rate - 0.30).abs() < 0.05, "fp rate {rate}");
    }

    #[test]
    fn boxes_track_truth_roughly() {
        let v = video();
        let m = SimulatedModel::new(ModelProfile::yolov3_416(), 5);
        for f in v.frames().iter().take(30) {
            for d in m.detect(f) {
                // Every real detection overlaps some truth object decently.
                let best = f
                    .objects
                    .iter()
                    .map(|o| o.bbox.overlap_fraction(&d.bbox))
                    .fold(0.0, f64::max);
                // False positives are possible but rare for the cloud model.
                if best < 0.5 {
                    assert!(d.confidence < 0.6, "unanchored box with high confidence");
                }
            }
        }
    }
}

//! Simulated CNN object detection.
//!
//! Croesus uses detection models as black boxes (§2.2): a model maps a frame
//! to a set of labels, each with a name, a confidence, and coordinates. The
//! paper's models (Tiny-YOLOv3 at the edge, YOLOv3-{320,416,608} at the
//! cloud) are unavailable here, so this crate simulates them statistically:
//! a [`profile::ModelProfile`] describes a model's recall, label accuracy,
//! false-positive rate, bounding-box jitter, confidence calibration and
//! inference latency; [`model::SimulatedModel`] perturbs a frame's ground
//! truth accordingly, deterministically per `(seed, frame)`.
//!
//! The essential property preserved from the real system is the *joint
//! distribution of confidence and correctness*: high-confidence detections
//! are usually right, low-confidence ones are usually spurious, and the
//! middle band is genuinely ambiguous. That coupling is what makes the
//! paper's bandwidth-thresholding (§3.4) behave the way it does.
//!
//! [`eval`] implements the paper's accuracy measurement: detections are
//! matched to a reference set by bounding-box overlap (>10% by default) and
//! scored as precision/recall/F-score.

pub mod detection;
pub mod eval;
pub mod model;
pub mod profile;

pub use detection::Detection;
pub use eval::{match_detections, score_against, MatchOutcome, Matching};
pub use model::{DetectionModel, OracleModel, SimulatedModel};
pub use profile::{ConfidenceModel, LatencyProfile, ModelKind, ModelProfile};

//! Bandwidth thresholding (§3.4).
//!
//! Two confidence thresholds `0 ≤ θL < θU < 1` split edge detections into
//! three intervals: below `θL` is the **discard** interval (likely false
//! positives), above `θU` the **keep** interval (assumed correct, not
//! verified), and in between the **validate** interval — "detections that
//! likely indicate the presence of an object of interest, but its label
//! might be incorrect". A frame travels to the cloud iff some query-class
//! detection lands in the validate interval.

use croesus_detect::Detection;
use croesus_video::LabelClass;

/// A `(θL, θU)` pair. The degenerate `θL == θU` pair is allowed (the paper
/// evaluates e.g. `(0.5, 0.5)`, which yields 0% bandwidth utilization).
///
/// ```
/// use croesus_core::{BandDecision, ThresholdPair};
/// let t = ThresholdPair::new(0.3, 0.7);
/// assert_eq!(t.classify(0.1), BandDecision::Discard);   // likely false positive
/// assert_eq!(t.classify(0.5), BandDecision::Validate);  // send to the cloud
/// assert_eq!(t.classify(0.9), BandDecision::Keep);      // assumed correct
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdPair {
    /// Lower threshold θL: detections below are discarded.
    pub lower: f64,
    /// Upper threshold θU: detections above are kept unverified.
    pub upper: f64,
}

impl ThresholdPair {
    /// Create a pair; panics unless `0 ≤ θL ≤ θU ≤ 1`.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lower) && (0.0..=1.0).contains(&upper) && lower <= upper,
            "invalid threshold pair ({lower}, {upper})"
        );
        ThresholdPair { lower, upper }
    }

    /// Which band a confidence falls into.
    pub fn classify(&self, confidence: f64) -> BandDecision {
        if confidence < self.lower {
            BandDecision::Discard
        } else if confidence <= self.upper {
            BandDecision::Validate
        } else {
            BandDecision::Keep
        }
    }

    /// Decide a whole frame: partition its detections and determine
    /// whether the frame must be validated at the cloud. Only query-class
    /// detections drive the send decision (the optimization formulation is
    /// per object query `O`), but all non-discarded detections ride along
    /// once the frame is sent.
    pub fn decide_frame(&self, detections: &[Detection], query: &LabelClass) -> FrameDecision {
        let mut kept = Vec::new();
        let mut validate_band = Vec::new();
        let mut discarded = 0usize;
        let mut send = false;
        for d in detections {
            match self.classify(d.confidence) {
                BandDecision::Discard => discarded += 1,
                BandDecision::Validate => {
                    if d.is_class(query) {
                        send = true;
                    }
                    validate_band.push(d.clone());
                }
                BandDecision::Keep => kept.push(d.clone()),
            }
        }
        FrameDecision {
            send,
            kept,
            validate_band,
            discarded,
        }
    }
}

/// Which interval a single detection's confidence lies in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandDecision {
    /// Below θL: likely false positive, dropped immediately.
    Discard,
    /// In `[θL, θU]`: needs cloud validation.
    Validate,
    /// Above θU: assumed correct, not verified.
    Keep,
}

/// The thresholding outcome for one frame.
#[derive(Clone, Debug)]
pub struct FrameDecision {
    /// Whether the frame is sent to the cloud.
    pub send: bool,
    /// Detections assumed correct (keep interval).
    pub kept: Vec<Detection>,
    /// Detections in the validate interval.
    pub validate_band: Vec<Detection>,
    /// Number of discarded detections.
    pub discarded: usize,
}

impl FrameDecision {
    /// The labels the edge acts on for this frame: keep + validate bands.
    /// (When the frame is not sent, the validate band is empty by
    /// construction of `send` for the query class, but other classes may
    /// linger — they are acted on optimistically.)
    pub fn surviving(&self) -> Vec<Detection> {
        let mut all = self.kept.clone();
        all.extend(self.validate_band.iter().cloned());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::BoundingBox;

    fn det(class: &str, conf: f64) -> Detection {
        Detection::new(class.into(), conf, BoundingBox::new(0.4, 0.4, 0.2, 0.2))
    }

    #[test]
    fn classify_bands() {
        let t = ThresholdPair::new(0.3, 0.7);
        assert_eq!(t.classify(0.1), BandDecision::Discard);
        assert_eq!(t.classify(0.3), BandDecision::Validate);
        assert_eq!(t.classify(0.5), BandDecision::Validate);
        assert_eq!(t.classify(0.7), BandDecision::Validate);
        assert_eq!(t.classify(0.71), BandDecision::Keep);
    }

    #[test]
    fn degenerate_pair_never_validates_a_frame() {
        // (0.5, 0.5): "the resulting BU is 0%" — only confidence exactly
        // 0.5 validates, which has measure zero for continuous confidences.
        let t = ThresholdPair::new(0.5, 0.5);
        assert_eq!(t.classify(0.49), BandDecision::Discard);
        assert_eq!(t.classify(0.51), BandDecision::Keep);
    }

    #[test]
    fn frame_sent_when_query_label_in_validate_band() {
        let t = ThresholdPair::new(0.3, 0.7);
        let d = t.decide_frame(&[det("car", 0.5)], &"car".into());
        assert!(d.send);
        assert_eq!(d.validate_band.len(), 1);
    }

    #[test]
    fn frame_not_sent_for_non_query_validate_labels() {
        let t = ThresholdPair::new(0.3, 0.7);
        let d = t.decide_frame(&[det("person", 0.5), det("car", 0.9)], &"car".into());
        assert!(
            !d.send,
            "only query-class detections drive the send decision"
        );
        assert_eq!(d.kept.len(), 1);
        assert_eq!(d.validate_band.len(), 1);
    }

    #[test]
    fn high_confidence_frames_stay_at_edge() {
        let t = ThresholdPair::new(0.3, 0.7);
        let d = t.decide_frame(&[det("car", 0.95), det("car", 0.8)], &"car".into());
        assert!(!d.send);
        assert_eq!(d.kept.len(), 2);
        assert_eq!(d.discarded, 0);
    }

    #[test]
    fn low_confidence_discarded_silently() {
        let t = ThresholdPair::new(0.3, 0.7);
        let d = t.decide_frame(&[det("car", 0.1), det("car", 0.2)], &"car".into());
        assert!(!d.send);
        assert_eq!(d.discarded, 2);
        assert!(d.surviving().is_empty());
    }

    #[test]
    fn surviving_merges_bands() {
        let t = ThresholdPair::new(0.3, 0.7);
        let d = t.decide_frame(&[det("car", 0.9), det("car", 0.5)], &"car".into());
        assert_eq!(d.surviving().len(), 2);
    }

    #[test]
    fn empty_frame_is_cheap() {
        let t = ThresholdPair::new(0.2, 0.4);
        let d = t.decide_frame(&[], &"car".into());
        assert!(!d.send);
        assert!(d.kept.is_empty() && d.validate_band.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid threshold pair")]
    fn inverted_pair_panics() {
        ThresholdPair::new(0.8, 0.2);
    }
}

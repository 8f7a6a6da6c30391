//! The detection type: what a model reports for one object in one frame.

use croesus_video::{BoundingBox, LabelClass};

/// One detected object: "each label consists of the name of the label, the
/// confidence of the label, and the coordinates of the label" (§3.3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Detection {
    /// The label name the model assigned.
    pub class: LabelClass,
    /// Model confidence in `[0, 1]`.
    pub confidence: f64,
    /// The predicted bounding box.
    pub bbox: BoundingBox,
}

impl Detection {
    /// Create a detection; confidence is clamped into `[0, 1]`.
    pub fn new(class: LabelClass, confidence: f64, bbox: BoundingBox) -> Self {
        Detection {
            class,
            confidence: confidence.clamp(0.0, 1.0),
            bbox,
        }
    }

    /// Whether this detection's class equals `class`.
    pub fn is_class(&self, class: &LabelClass) -> bool {
        &self.class == class
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_is_clamped() {
        let b = BoundingBox::new(0.1, 0.1, 0.2, 0.2);
        assert_eq!(Detection::new("car".into(), 1.7, b).confidence, 1.0);
        assert_eq!(Detection::new("car".into(), -0.2, b).confidence, 0.0);
    }

    #[test]
    fn class_check() {
        let d = Detection::new("dog".into(), 0.8, BoundingBox::new(0.0, 0.0, 0.1, 0.1));
        assert!(d.is_class(&"dog".into()));
        assert!(!d.is_class(&"cat".into()));
    }
}

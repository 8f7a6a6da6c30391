//! Tracked objects: the ground truth behind a synthetic video.

use crate::bbox::BoundingBox;
use crate::label::LabelClass;

/// A unique identifier for a tracked object within one video.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

/// An object that exists over a span of frames and moves linearly.
///
/// Objects carry a latent *clarity* in `[0, 1]`: how visually unambiguous the
/// object is (size, contrast, occlusion all folded into one number). The
/// detector simulator maps clarity to detection probability and confidence.
#[derive(Clone, Debug)]
pub struct TrackedObject {
    /// Stable identity across frames.
    pub id: ObjectId,
    /// Ground-truth class.
    pub class: LabelClass,
    /// Bounding box at `spawn_frame`.
    pub initial_bbox: BoundingBox,
    /// Per-frame translation (fractions of the frame per frame).
    pub velocity: (f64, f64),
    /// First frame (inclusive) in which the object is visible.
    pub spawn_frame: u64,
    /// Last frame (exclusive); the object is gone from this frame on.
    pub despawn_frame: u64,
    /// Latent visual clarity in `[0, 1]`.
    pub clarity: f64,
}

impl TrackedObject {
    /// Whether the object is visible in `frame`.
    pub(crate) fn visible_at(&self, frame: u64) -> bool {
        frame >= self.spawn_frame && frame < self.despawn_frame && !self.bbox_at(frame).is_empty()
    }

    /// The object's bounding box at `frame` (linear motion, clamped to the
    /// frame). Meaningful only when `visible_at(frame)`.
    pub(crate) fn bbox_at(&self, frame: u64) -> BoundingBox {
        let dt = frame.saturating_sub(self.spawn_frame) as f64;
        self.initial_bbox
            .translated(self.velocity.0 * dt, self.velocity.1 * dt)
    }

    /// The ground-truth snapshot of this object at `frame`.
    pub fn at(&self, frame: u64) -> GroundTruthObject {
        GroundTruthObject {
            id: self.id,
            class: self.class.clone(),
            bbox: self.bbox_at(frame),
            clarity: self.clarity,
        }
    }
}

/// The per-frame snapshot of a tracked object: what a perfect detector
/// would report, plus the latent clarity used by imperfect detectors.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundTruthObject {
    /// Identity of the underlying tracked object.
    pub id: ObjectId,
    /// Ground-truth class.
    pub class: LabelClass,
    /// Ground-truth box in this frame.
    pub bbox: BoundingBox,
    /// Latent visual clarity in `[0, 1]`.
    pub clarity: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> TrackedObject {
        TrackedObject {
            id: ObjectId(1),
            class: LabelClass::new("car"),
            initial_bbox: BoundingBox::new(0.1, 0.4, 0.2, 0.2),
            velocity: (0.01, 0.0),
            spawn_frame: 10,
            despawn_frame: 50,
            clarity: 0.7,
        }
    }

    #[test]
    fn visibility_window() {
        let o = obj();
        assert!(!o.visible_at(9));
        assert!(o.visible_at(10));
        assert!(o.visible_at(49));
        assert!(!o.visible_at(50));
    }

    #[test]
    fn linear_motion() {
        let o = obj();
        let b10 = o.bbox_at(10);
        let b20 = o.bbox_at(20);
        assert!((b20.x - (b10.x + 0.1)).abs() < 1e-12);
        assert_eq!(b10.y, b20.y);
    }

    #[test]
    fn motion_clamps_at_frame_edge() {
        let mut o = obj();
        o.velocity = (0.1, 0.0);
        let late = o.bbox_at(49);
        assert!(late.x + late.w <= 1.0 + 1e-12);
    }

    #[test]
    fn object_leaving_frame_becomes_invisible() {
        let mut o = obj();
        // Fast object: fully out of frame well before despawn.
        o.velocity = (0.2, 0.0);
        // After enough frames the clamped box has zero width.
        let visible_frames: Vec<u64> = (10..50).filter(|&f| o.visible_at(f)).collect();
        assert!(
            visible_frames.len() < 40,
            "object should exit the frame early"
        );
        assert!(o.visible_at(10));
    }

    #[test]
    fn snapshot_carries_identity_and_clarity() {
        let o = obj();
        let g = o.at(15);
        assert_eq!(g.id, ObjectId(1));
        assert_eq!(g.class, LabelClass::new("car"));
        assert_eq!(g.clarity, 0.7);
        assert_eq!(g.bbox, o.bbox_at(15));
    }
}

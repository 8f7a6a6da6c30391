//! Axis-aligned bounding boxes in normalized frame coordinates.

/// An axis-aligned bounding box with corners in `[0, 1]²` (fractions of the
/// frame width/height). Stored as `(x, y)` of the top-left corner plus
/// width/height.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundingBox {
    /// Left edge, in `[0, 1]`.
    pub x: f64,
    /// Top edge, in `[0, 1]`.
    pub y: f64,
    /// Width, in `[0, 1]`.
    pub w: f64,
    /// Height, in `[0, 1]`.
    pub h: f64,
}

impl BoundingBox {
    /// Construct a box, clamping it to the frame. Degenerate inputs (negative
    /// extents) clamp to zero size.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        let x = x.clamp(0.0, 1.0);
        let y = y.clamp(0.0, 1.0);
        let w = w.max(0.0).min(1.0 - x);
        let h = h.max(0.0).min(1.0 - y);
        BoundingBox { x, y, w, h }
    }

    /// A box centred at `(cx, cy)` with the given extents, clamped to frame.
    pub fn centered(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        BoundingBox::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }

    /// Box area (0 for degenerate boxes).
    pub(crate) fn area(&self) -> f64 {
        self.w * self.h
    }

    /// Whether the box has zero area.
    pub fn is_empty(&self) -> bool {
        self.area() == 0.0
    }

    /// Centre point.
    pub(crate) fn center(&self) -> (f64, f64) {
        (self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// Euclidean distance from the box centre to the frame centre
    /// `(0.5, 0.5)`. Task 2 of the paper's example application picks "the
    /// label that is closest to the center of the frame".
    pub fn distance_to_frame_center(&self) -> f64 {
        let (cx, cy) = self.center();
        ((cx - 0.5).powi(2) + (cy - 0.5).powi(2)).sqrt()
    }

    /// Area of the intersection with `other`.
    pub(crate) fn intersection_area(&self, other: &BoundingBox) -> f64 {
        let ix = (self.x + self.w).min(other.x + other.w) - self.x.max(other.x);
        let iy = (self.y + self.h).min(other.y + other.h) - self.y.max(other.y);
        if ix <= 0.0 || iy <= 0.0 {
            0.0
        } else {
            ix * iy
        }
    }

    /// Intersection-over-union with `other`; 0 when both are degenerate.
    pub fn iou(&self, other: &BoundingBox) -> f64 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Fraction of the *smaller* box covered by the intersection. This is the
    /// "overlap more than X%" test used when matching edge labels to cloud
    /// labels (§3.3.2): lenient to scale differences between the two models'
    /// boxes.
    pub fn overlap_fraction(&self, other: &BoundingBox) -> f64 {
        let inter = self.intersection_area(other);
        let min_area = self.area().min(other.area());
        if min_area <= 0.0 {
            0.0
        } else {
            inter / min_area
        }
    }

    /// A copy of this box translated by `(dx, dy)` and re-clamped to the
    /// frame.
    pub(crate) fn translated(&self, dx: f64, dy: f64) -> BoundingBox {
        BoundingBox::new(self.x + dx, self.y + dy, self.w, self.h)
    }

    /// A copy jittered by the given offsets applied to position and size —
    /// used by the detector simulator to imitate imperfect localization.
    pub fn jittered(&self, dx: f64, dy: f64, dw: f64, dh: f64) -> BoundingBox {
        BoundingBox::new(
            self.x + dx,
            self.y + dy,
            (self.w + dw).max(0.005),
            (self.h + dh).max(0.005),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps_to_frame() {
        let b = BoundingBox::new(-0.5, 0.9, 2.0, 0.5);
        assert_eq!(b.x, 0.0);
        assert_eq!(b.w, 1.0);
        assert_eq!(b.y, 0.9);
        assert!((b.h - 0.1).abs() < 1e-12);
    }

    #[test]
    fn negative_extent_clamps_to_zero() {
        let b = BoundingBox::new(0.5, 0.5, -0.1, -0.1);
        assert!(b.is_empty());
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn centered_constructor() {
        let b = BoundingBox::centered(0.5, 0.5, 0.2, 0.4);
        assert!((b.x - 0.4).abs() < 1e-12);
        assert!((b.y - 0.3).abs() < 1e-12);
        let (cx, cy) = b.center();
        assert!((cx - 0.5).abs() < 1e-12);
        assert!((cy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_boxes_have_full_iou() {
        let b = BoundingBox::new(0.1, 0.1, 0.3, 0.3);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
        assert!((b.overlap_fraction(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_boxes_have_zero_overlap() {
        let a = BoundingBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BoundingBox::new(0.5, 0.5, 0.2, 0.2);
        assert_eq!(a.intersection_area(&b), 0.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn touching_boxes_have_zero_overlap() {
        let a = BoundingBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BoundingBox::new(0.2, 0.0, 0.2, 0.2);
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn partial_overlap_values() {
        let a = BoundingBox::new(0.0, 0.0, 0.4, 0.4);
        let b = BoundingBox::new(0.2, 0.2, 0.4, 0.4);
        let inter = a.intersection_area(&b);
        assert!((inter - 0.04).abs() < 1e-12);
        let iou = a.iou(&b);
        assert!((iou - 0.04 / 0.28).abs() < 1e-12);
        assert!((a.overlap_fraction(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn small_box_inside_large_box_has_full_overlap_fraction() {
        let small = BoundingBox::new(0.4, 0.4, 0.1, 0.1);
        let large = BoundingBox::new(0.2, 0.2, 0.6, 0.6);
        // The paper's 10% overlap rule matches these; IoU would not.
        assert!((small.overlap_fraction(&large) - 1.0).abs() < 1e-12);
        assert!(small.iou(&large) < 0.1);
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = BoundingBox::new(0.0, 0.0, 0.5, 0.5);
        let b = BoundingBox::new(0.25, 0.25, 0.5, 0.5);
        assert!((a.overlap_fraction(&b) - b.overlap_fraction(&a)).abs() < 1e-12);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_boxes_zero_metrics() {
        let z = BoundingBox::new(0.5, 0.5, 0.0, 0.0);
        let b = BoundingBox::new(0.4, 0.4, 0.3, 0.3);
        assert_eq!(z.iou(&b), 0.0);
        assert_eq!(z.overlap_fraction(&b), 0.0);
        assert_eq!(z.iou(&z), 0.0);
    }

    #[test]
    fn translation_and_clamping() {
        let b = BoundingBox::new(0.8, 0.8, 0.1, 0.1);
        let t = b.translated(0.5, 0.0);
        assert!(t.x <= 1.0);
        assert!(t.x + t.w <= 1.0 + 1e-12);
    }

    #[test]
    fn jitter_keeps_minimum_size() {
        let b = BoundingBox::new(0.5, 0.5, 0.01, 0.01);
        let j = b.jittered(0.0, 0.0, -1.0, -1.0);
        assert!(j.w >= 0.004 && j.h >= 0.004);
    }

    #[test]
    fn distance_to_frame_center() {
        let centered = BoundingBox::centered(0.5, 0.5, 0.1, 0.1);
        assert!(centered.distance_to_frame_center() < 1e-12);
        let corner = BoundingBox::new(0.0, 0.0, 0.1, 0.1);
        assert!(corner.distance_to_frame_center() > 0.5);
    }
}

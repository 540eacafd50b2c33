//! Bounding-box geometry for detected object instances.
//!
//! Object detectors emit an axis-aligned box per detection; the simulated
//! tracker (CenterTrack stand-in, `vaq-detect`) associates detections across
//! frames by box IoU, exactly how real trackers gate their assignments. The
//! extension hooks for *relationship* predicates (paper footnote 2: "human
//! left of the car") are also expressed over boxes.

/// An axis-aligned bounding box in normalized image coordinates
/// (`0.0 ..= 1.0` on both axes, origin at the top-left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x0: f32,
    /// Top edge.
    pub y0: f32,
    /// Right edge (exclusive of `x0`; `x1 > x0`).
    pub x1: f32,
    /// Bottom edge (`y1 > y0`).
    pub y1: f32,
}

impl BBox {
    /// Creates a box from its corners.
    ///
    /// # Panics
    /// Panics if the box is degenerate (`x1 <= x0` or `y1 <= y0`).
    pub fn new(x0: f32, y0: f32, x1: f32, y1: f32) -> Self {
        assert!(
            x1 > x0 && y1 > y0,
            "degenerate bbox ({x0},{y0})-({x1},{y1})"
        );
        Self { x0, y0, x1, y1 }
    }

    /// A box from center, width and height, clamped into the unit square.
    pub fn from_center(cx: f32, cy: f32, w: f32, h: f32) -> Self {
        let x0 = (cx - w / 2.0).clamp(0.0, 1.0 - f32::EPSILON);
        let y0 = (cy - h / 2.0).clamp(0.0, 1.0 - f32::EPSILON);
        let x1 = (cx + w / 2.0).clamp(x0 + f32::EPSILON, 1.0);
        let y1 = (cy + h / 2.0).clamp(y0 + f32::EPSILON, 1.0);
        Self { x0, y0, x1, y1 }
    }

    /// Box area.
    #[inline]
    fn area(&self) -> f32 {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> (f32, f32) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Area of the overlap with `other` (zero if disjoint).
    fn intersection_area(&self, other: &Self) -> f32 {
        let w = (self.x1.min(other.x1) - self.x0.max(other.x0)).max(0.0);
        let h = (self.y1.min(other.y1) - self.y0.max(other.y0)).max(0.0);
        w * h
    }

    /// Intersection-over-union with `other`.
    pub fn iou(&self, other: &Self) -> f32 {
        let inter = self.intersection_area(other);
        if inter <= 0.0 {
            return 0.0;
        }
        inter / (self.area() + other.area() - inter)
    }

    /// Whether this box lies (by center) strictly left of `other` — the
    /// sample spatial relationship used by the relationship-predicate
    /// extension (paper footnote 2).
    pub fn left_of(&self, other: &Self) -> bool {
        self.center().0 < other.center().0
    }

    /// Whether this box lies (by center) strictly above `other`.
    pub fn above(&self, other: &Self) -> bool {
        self.center().1 < other.center().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_center() {
        let b = BBox::new(0.0, 0.0, 0.5, 0.5);
        assert!((b.area() - 0.25).abs() < 1e-6);
        assert_eq!(b.center(), (0.25, 0.25));
    }

    #[test]
    fn iou_identical_is_one() {
        let b = BBox::new(0.1, 0.1, 0.4, 0.4);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BBox::new(0.5, 0.5, 0.9, 0.9);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BBox::new(0.1, 0.0, 0.3, 0.2);
        // inter = 0.1*0.2 = 0.02; union = 0.04+0.04-0.02 = 0.06.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn spatial_relationships() {
        let a = BBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BBox::new(0.5, 0.5, 0.9, 0.9);
        assert!(a.left_of(&b));
        assert!(a.above(&b));
        assert!(!b.left_of(&a));
    }

    #[test]
    fn from_center_clamps_into_unit_square() {
        let b = BBox::from_center(0.95, 0.5, 0.3, 0.2);
        assert!(b.x1 <= 1.0 && b.x0 >= 0.0 && b.x1 > b.x0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_box_panics() {
        let _ = BBox::new(0.5, 0.5, 0.5, 0.6);
    }
}

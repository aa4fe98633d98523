//! Rectangular floorplans: named blocks on a die outline.
//!
//! A [`Floorplan`] describes the 2-D geometry of one layer: a die outline of
//! `width x height` meters, covered by named, non-overlapping rectangular
//! [`Block`]s. Blocks are the unit at which heterogeneous conductivities and
//! power are specified; rasterization onto the solver grid happens in
//! [`crate::grid`].

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;

/// Geometric tolerance (meters) used by overlap/containment checks.
///
/// 1 nm: far below any feature size in a stack model, far above f64 noise.
pub const GEOM_EPS: f64 = 1e-9;

/// An axis-aligned rectangle, in meters, with the origin at the die's
/// lower-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    x: f64,
    y: f64,
    width: f64,
    height: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite or if the size is negative.
    /// (Zero-sized rectangles are permitted; they are useful as degenerate
    /// placeholders and never rasterize to anything.)
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        assert!(
            x.is_finite() && y.is_finite() && width.is_finite() && height.is_finite(),
            "rect coordinates must be finite"
        );
        assert!(width >= 0.0 && height >= 0.0, "rect size must be >= 0");
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Lower-left x coordinate (m).
    pub fn x(&self) -> f64 {
        self.x
    }

    /// Lower-left y coordinate (m).
    pub fn y(&self) -> f64 {
        self.y
    }

    /// Width (m).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height (m).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Right edge x coordinate (m).
    pub fn x_max(&self) -> f64 {
        self.x + self.width
    }

    /// Top edge y coordinate (m).
    pub fn y_max(&self) -> f64 {
        self.y + self.height
    }

    /// Area in m^2.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Center point (m, m).
    pub fn center(&self) -> (f64, f64) {
        (self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Whether `other` lies entirely inside this rectangle (within
    /// [`GEOM_EPS`]).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x >= self.x - GEOM_EPS
            && other.y >= self.y - GEOM_EPS
            && other.x_max() <= self.x_max() + GEOM_EPS
            && other.y_max() <= self.y_max() + GEOM_EPS
    }

    /// Area of the intersection with `other`, in m^2 (0 if disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.x_max().min(other.x_max()) - self.x.max(other.x)).max(0.0);
        let h = (self.y_max().min(other.y_max()) - self.y.max(other.y)).max(0.0);
        w * h
    }

    /// Whether the two rectangles overlap by more than [`GEOM_EPS`]-sized
    /// slivers (shared edges do not count as overlap).
    pub fn overlaps(&self, other: &Rect) -> bool {
        let wx = self.x_max().min(other.x_max()) - self.x.max(other.x);
        let wy = self.y_max().min(other.y_max()) - self.y.max(other.y);
        wx > GEOM_EPS && wy > GEOM_EPS
    }

    /// Returns this rectangle grown by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect::new(
            self.x - margin,
            self.y - margin,
            self.width + 2.0 * margin,
            self.height + 2.0 * margin,
        )
    }
}

/// A named rectangular block within a floorplan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    name: String,
    rect: Rect,
}

impl Block {
    /// Creates a named block.
    pub fn new(name: impl Into<String>, rect: Rect) -> Self {
        Block {
            name: name.into(),
            rect,
        }
    }

    /// Block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Block geometry.
    pub fn rect(&self) -> &Rect {
        &self.rect
    }
}

/// A die floorplan: an outline and a set of named blocks.
///
/// Blocks may not overlap and must lie within the outline. Full coverage is
/// *not* required: cells not covered by any block take the layer's base
/// material (see [`crate::layer::Layer`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    width: f64,
    height: f64,
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Creates an empty floorplan with the given outline (meters).
    ///
    /// # Panics
    ///
    /// Panics if the outline is not strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "floorplan outline must be positive and finite"
        );
        Floorplan {
            width,
            height,
            blocks: Vec::new(),
        }
    }

    /// Outline width (m).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Outline height (m).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Outline rectangle.
    pub fn outline(&self) -> Rect {
        Rect::new(0.0, 0.0, self.width, self.height)
    }

    /// Outline area (m^2).
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Adds a block, validating containment and non-overlap.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadFloorplan`] if the block escapes the outline,
    /// overlaps an existing block, or duplicates an existing block name.
    pub fn add_block(&mut self, name: impl Into<String>, rect: Rect) -> Result<(), ThermalError> {
        let name = name.into();
        if !self.outline().contains_rect(&rect) {
            return Err(ThermalError::BadFloorplan {
                reason: format!(
                    "block '{name}' [{:.6},{:.6} {:.6}x{:.6}] escapes outline {:.6}x{:.6}",
                    rect.x(),
                    rect.y(),
                    rect.width(),
                    rect.height(),
                    self.width,
                    self.height
                ),
            });
        }
        for b in &self.blocks {
            if b.name == name {
                return Err(ThermalError::BadFloorplan {
                    reason: format!("duplicate block name '{name}'"),
                });
            }
            if b.rect.overlaps(&rect) {
                return Err(ThermalError::BadFloorplan {
                    reason: format!("block '{name}' overlaps block '{}'", b.name),
                });
            }
        }
        self.blocks.push(Block::new(name, rect));
        Ok(())
    }

    /// The blocks, in insertion order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the floorplan has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Finds a block by name.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Index of a block by name.
    pub fn block_index(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name == name)
    }

    /// Total area covered by blocks, m^2.
    pub fn covered_area(&self) -> f64 {
        self.blocks.iter().map(|b| b.rect.area()).sum()
    }

    /// Fraction of the outline covered by blocks (0..=1).
    pub fn coverage(&self) -> f64 {
        self.covered_area() / self.area()
    }

    /// Checks that blocks tile the entire outline (within `tol` relative
    /// area). Useful for layers where every cell must map to a block, such
    /// as power-dissipating die layers.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadFloorplan`] if coverage is below `1 - tol`.
    pub fn require_full_coverage(&self, tol: f64) -> Result<(), ThermalError> {
        let cov = self.coverage();
        if cov < 1.0 - tol {
            return Err(ThermalError::BadFloorplan {
                reason: format!("coverage {cov:.4} below required {:.4}", 1.0 - tol),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.x_max(), 4.0);
        assert_eq!(r.y_max(), 6.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), (2.5, 4.0));
    }

    #[test]
    fn intersection_area_cases() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!((a.intersection_area(&b) - 1.0).abs() < 1e-12);
        let c = Rect::new(5.0, 5.0, 1.0, 1.0);
        assert_eq!(a.intersection_area(&c), 0.0);
        // Shared edge: zero area, no overlap.
        let d = Rect::new(2.0, 0.0, 2.0, 2.0);
        assert_eq!(a.intersection_area(&d), 0.0);
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn floorplan_rejects_escape_and_overlap() {
        let mut fp = Floorplan::new(1.0, 1.0);
        assert!(fp.add_block("a", Rect::new(0.0, 0.0, 0.5, 0.5)).is_ok());
        // escapes
        assert!(fp.add_block("b", Rect::new(0.9, 0.9, 0.2, 0.2)).is_err());
        // overlaps a
        assert!(fp.add_block("c", Rect::new(0.25, 0.25, 0.5, 0.5)).is_err());
        // duplicate name
        assert!(fp.add_block("a", Rect::new(0.5, 0.5, 0.1, 0.1)).is_err());
        // adjacent is fine
        assert!(fp.add_block("d", Rect::new(0.5, 0.0, 0.5, 0.5)).is_ok());
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn coverage_accounting() {
        let mut fp = Floorplan::new(2.0, 1.0);
        fp.add_block("left", Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert!((fp.coverage() - 0.5).abs() < 1e-12);
        assert!(fp.require_full_coverage(1e-6).is_err());
        fp.add_block("right", Rect::new(1.0, 0.0, 1.0, 1.0))
            .unwrap();
        assert!(fp.require_full_coverage(1e-6).is_ok());
    }

    #[test]
    fn block_lookup() {
        let mut fp = Floorplan::new(1.0, 1.0);
        fp.add_block("x", Rect::new(0.0, 0.0, 1.0, 0.5)).unwrap();
        assert!(fp.block("x").is_some());
        assert_eq!(fp.block_index("x"), Some(0));
        assert!(fp.block("y").is_none());
    }

    #[test]
    fn expanded_grows_every_side() {
        let r = Rect::new(1.0, 1.0, 2.0, 2.0).expanded(0.5);
        assert_eq!(r.x(), 0.5);
        assert_eq!(r.y(), 0.5);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 3.0);
    }
}

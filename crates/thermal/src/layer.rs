//! Stack layers: a thickness, a base material, and optional heterogeneity.
//!
//! A [`Layer`] is one horizontal slice of the 3-D stack (e.g. "DRAM die 3
//! bulk silicon", "D2D layer 5", "TIM"). Heterogeneity comes from two
//! sources, applied in order during rasterization:
//!
//! 1. a [`Floorplan`] whose blocks may override the base material
//!    (e.g. the TSV bus region inside a silicon die), and
//! 2. a list of [`MaterialPatch`]es painted on top (e.g. individual TTSVs or
//!    shorted microbump sites, which overlay peripheral-logic blocks).

use serde::{Deserialize, Serialize};

use crate::error::ThermalError;
use crate::floorplan::{Floorplan, Rect};
use crate::material::Material;

/// A rectangular material override painted over a layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterialPatch {
    /// Geometry of the patch (die coordinates, meters).
    rect: Rect,
    /// Material inside the patch.
    material: Material,
    /// Label for debugging/reporting (e.g. `"ttsv-12"`).
    label: String,
}

impl MaterialPatch {
    /// Creates a patch.
    pub fn new(label: impl Into<String>, rect: Rect, material: Material) -> Self {
        MaterialPatch {
            rect,
            material,
            label: label.into(),
        }
    }

    /// Patch geometry.
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// Patch material.
    pub fn material(&self) -> &Material {
        &self.material
    }

    /// Patch label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// One horizontal slice of the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    name: String,
    /// Thickness in meters.
    thickness: f64,
    /// Material used where no block or patch overrides it.
    base: Material,
    /// Optional floorplan; required if per-block power is to be applied to
    /// this layer.
    floorplan: Option<Floorplan>,
    /// Per-block material overrides, parallel to `floorplan.blocks()`;
    /// `None` means the block uses the base material.
    block_materials: Vec<Option<Material>>,
    /// Patches applied after block materials (later patches win).
    patches: Vec<MaterialPatch>,
}

impl Layer {
    /// Creates a homogeneous layer of the given thickness (m) and material.
    ///
    /// # Panics
    ///
    /// Panics if `thickness` is not strictly positive and finite.
    pub fn uniform(name: impl Into<String>, thickness: f64, material: Material) -> Self {
        assert!(
            thickness.is_finite() && thickness > 0.0,
            "layer thickness must be positive and finite"
        );
        Layer {
            name: name.into(),
            thickness,
            base: material,
            floorplan: None,
            block_materials: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Attaches a floorplan. All blocks initially use the base material;
    /// override with [`Layer::set_block_material`].
    pub fn with_floorplan(mut self, floorplan: Floorplan) -> Self {
        self.block_materials = vec![None; floorplan.len()];
        self.floorplan = Some(floorplan);
        self
    }

    /// Overrides the material of a named floorplan block.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadFloorplan`] if the layer has no floorplan or the
    /// block name is unknown.
    pub fn set_block_material(
        &mut self,
        block_name: &str,
        material: Material,
    ) -> Result<(), ThermalError> {
        let fp = self.floorplan.as_ref().ok_or(ThermalError::BadFloorplan {
            reason: format!("layer '{}' has no floorplan", self.name),
        })?;
        let idx = fp
            .block_index(block_name)
            .ok_or_else(|| ThermalError::BadFloorplan {
                reason: format!("no block '{block_name}' in layer '{}'", self.name),
            })?;
        self.block_materials[idx] = Some(material);
        Ok(())
    }

    /// Paints a rectangular material patch over the layer. Patches are
    /// applied in insertion order after block materials.
    ///
    /// # Errors
    ///
    /// [`ThermalError::BadFloorplan`] if the patch escapes the die outline
    /// (only checked when a floorplan is attached).
    pub fn add_patch(&mut self, patch: MaterialPatch) -> Result<(), ThermalError> {
        if let Some(fp) = &self.floorplan {
            if !fp.outline().contains_rect(patch.rect()) {
                return Err(ThermalError::BadFloorplan {
                    reason: format!(
                        "patch '{}' escapes outline of layer '{}'",
                        patch.label(),
                        self.name
                    ),
                });
            }
        }
        self.patches.push(patch);
        Ok(())
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Thickness (m).
    pub fn thickness(&self) -> f64 {
        self.thickness
    }

    /// Base material.
    pub fn base_material(&self) -> &Material {
        &self.base
    }

    /// The floorplan, if any.
    pub fn floorplan(&self) -> Option<&Floorplan> {
        self.floorplan.as_ref()
    }

    /// Material override of block `i`, if any.
    pub fn block_material(&self, i: usize) -> Option<&Material> {
        self.block_materials.get(i).and_then(|m| m.as_ref())
    }

    /// The patches, in application order.
    pub fn patches(&self) -> &[MaterialPatch] {
        &self.patches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{COPPER, SILICON};

    fn fp_2blocks() -> Floorplan {
        let mut fp = Floorplan::new(1e-2, 1e-2);
        fp.add_block("left", Rect::new(0.0, 0.0, 5e-3, 1e-2))
            .unwrap();
        fp.add_block("right", Rect::new(5e-3, 0.0, 5e-3, 1e-2))
            .unwrap();
        fp
    }

    #[test]
    fn uniform_layer() {
        let l = Layer::uniform("si", 100e-6, SILICON.clone());
        assert_eq!(l.thickness(), 100e-6);
        assert!(l.floorplan().is_none());
        assert!((l.base_material().rth_per_area(l.thickness()) * 1e6 - 0.8333).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "thickness")]
    fn zero_thickness_panics() {
        let _ = Layer::uniform("bad", 0.0, SILICON.clone());
    }

    #[test]
    fn block_material_override() {
        let mut l = Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp_2blocks());
        assert!(l.block_material(0).is_none());
        l.set_block_material("left", COPPER.clone()).unwrap();
        assert_eq!(l.block_material(0).unwrap().conductivity(), 400.0);
        assert!(l.set_block_material("nope", COPPER.clone()).is_err());
    }

    #[test]
    fn block_material_without_floorplan_errors() {
        let mut l = Layer::uniform("si", 100e-6, SILICON.clone());
        assert!(l.set_block_material("left", COPPER.clone()).is_err());
    }

    #[test]
    fn patch_containment_checked_with_floorplan() {
        let mut l = Layer::uniform("si", 100e-6, SILICON.clone()).with_floorplan(fp_2blocks());
        let inside = MaterialPatch::new("p", Rect::new(1e-3, 1e-3, 1e-4, 1e-4), COPPER.clone());
        assert!(l.add_patch(inside).is_ok());
        let outside = MaterialPatch::new("q", Rect::new(9.99e-3, 0.0, 1e-3, 1e-3), COPPER.clone());
        assert!(l.add_patch(outside).is_err());
        assert_eq!(l.patches().len(), 1);
    }
}

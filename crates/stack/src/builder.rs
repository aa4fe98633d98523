//! Assembling the full 3D stack into a solvable thermal model.
//!
//! Layer order (top = heat-sink side, per the memory-on-top organization):
//!
//! ```text
//! [package: sink / IHS / TIM]            (added by xylem-thermal)
//! dram0_si    100 um   bulk Si + TSV bus + TTSVs        \
//! dram0_metal   2 um   DRAM frontside metal (power)      | x n_dram_dies
//! d2d0         20 um   microbumps/underfill (+pillars)  /
//! ...
//! proc_si     100 um   bulk Si + TSV bus + TTSVs
//! proc_metal   12 um   metal + active logic (power)
//! [C4 / board]                           (secondary path in the package)
//! ```
//!
//! TTSVs are painted as copper patches into every silicon layer. For
//! aligned-and-shorted schemes, matching patches of effective conductivity
//! `t_d2d / (t_bump/lambda_bump + t_short/lambda_cu)` are painted into
//! every D2D layer at the same sites — the thermal pillars of Sec. 4.1.2.
//! `prior` paints the silicon patches only.

use serde::{Deserialize, Serialize};

use xylem_thermal::error::ThermalError;
use xylem_thermal::layer::{Layer, MaterialPatch};
use xylem_thermal::material::{
    self, shorted_pillar_d2d, COPPER, D2D_AVERAGE, DRAM_METAL, PROC_METAL, SILICON,
};
use xylem_thermal::package::Package;
use xylem_thermal::stack::Stack;

use crate::dram_die::DramDieGeometry;
use crate::proc_die::ProcDieGeometry;
use crate::scheme::{TtsvSite, XylemScheme};
use crate::tsv::TsvTech;

/// Which die faces the heat sink (paper Sec. 3, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Organization {
    /// The paper's choice: DRAM dies between the processor and the sink.
    /// Manufacturing-friendly (power/ground/I/O need no TSVs) but
    /// thermally hard — the configuration Xylem fixes.
    MemoryOnTop,
    /// Processor adjacent to the sink (Fig. 2a): thermally easy, but the
    /// memory dies must provision TSVs for all processor power/ground/IO
    /// and the PDN suffers IR drop (Sec. 3.1). Modeled for comparison.
    ProcessorOnTop,
}

/// Configuration of a processor-memory stack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StackConfig {
    /// TTSV placement scheme.
    pub scheme: XylemScheme,
    /// Stack organization (paper default: memory on top).
    pub organization: Organization,
    /// Number of DRAM dies on top of the processor (paper default: 8).
    pub n_dram_dies: usize,
    /// Bulk-silicon thickness of every die, m (paper default: 100 um;
    /// Fig. 18 sweeps 50/100/200 um).
    pub die_thickness: f64,
    /// D2D layer thickness, m (paper: 20 um).
    pub d2d_thickness: f64,
    /// DRAM frontside-metal thickness, m (paper: 2 um).
    pub dram_metal_thickness: f64,
    /// Processor metal+logic thickness, m (paper: 12 um).
    pub proc_metal_thickness: f64,
    /// DRAM die geometry.
    pub dram_geometry: DramDieGeometry,
    /// Processor die geometry.
    pub proc_geometry: ProcDieGeometry,
    /// Package (TIM/IHS/sink/convection).
    pub package: Package,
    /// Side length (m) of the shorted dummy-microbump cluster painted into
    /// the D2D layers around each TTSV. The backside-metal short that ties
    /// the TTSV to its aligned dummy microbump can tie in the neighboring
    /// dummy microbumps as well (they are plentiful — Sec. 4.2), widening
    /// each pillar's thermal footprint through the D2D layer. The default
    /// (450 um, a 3-4 bump neighborhood at the 25% dummy-bump density) is
    /// the calibration that puts the bank/banke frequency boosts at the
    /// paper's operating point; see DESIGN.md.
    pub pillar_footprint: f64,
}

impl StackConfig {
    /// The paper's evaluation configuration: 8 DRAM dies, 100 um dies,
    /// Table 1 dimensions, default package.
    pub fn paper_default(scheme: XylemScheme) -> Self {
        let dram_geometry = DramDieGeometry::paper_default();
        StackConfig {
            scheme,
            organization: Organization::MemoryOnTop,
            n_dram_dies: 8,
            die_thickness: 100e-6,
            d2d_thickness: 20e-6,
            dram_metal_thickness: 2e-6,
            proc_metal_thickness: 12e-6,
            dram_geometry,
            proc_geometry: ProcDieGeometry::paper_default(),
            package: Package::default_for_die(dram_geometry.width, dram_geometry.height),
            pillar_footprint: 450e-6,
        }
    }

    /// Builds the stack: creates all layers, paints TTSV and pillar
    /// patches per the scheme, and records layer-role metadata.
    ///
    /// # Errors
    ///
    /// Propagates floorplan/geometry errors; [`ThermalError::BadStack`]
    /// if `n_dram_dies == 0`.
    pub fn build(&self) -> Result<BuiltStack, ThermalError> {
        if self.n_dram_dies == 0 {
            return Err(ThermalError::BadStack {
                reason: "stack needs at least one DRAM die".into(),
            });
        }
        let g = &self.dram_geometry;
        let tech = TsvTech::thermal();
        let sites = self.scheme.sites(g);
        let paint_si = !sites.is_empty();
        let paint_d2d = self.scheme.aligned_and_shorted() && paint_si;

        let pillar_material = shorted_pillar_d2d(self.d2d_thickness);

        // Per-layer constructors shared by the two organizations.
        let dram_si = |die: usize| -> Result<Layer, ThermalError> {
            let mut si =
                Layer::uniform(format!("dram{die}_si"), self.die_thickness, SILICON.clone())
                    .with_floorplan(g.floorplan()?);
            si.set_block_material("tsv_bus", material::tsv_bus())?;
            if paint_si {
                paint_ttsvs(&mut si, &sites, &tech, &COPPER)?;
            }
            Ok(si)
        };
        let dram_metal = |die: usize| -> Result<Layer, ThermalError> {
            Ok(Layer::uniform(
                format!("dram{die}_metal"),
                self.dram_metal_thickness,
                DRAM_METAL.clone(),
            )
            .with_floorplan(g.floorplan()?))
        };
        // D2D: average microbump/underfill blend. The electrical-bump bus
        // region at the die center is better: its bumps are connected to
        // TSVs through the backside metal by construction (Fig. 4),
        // forming weak vertical paths in *every* scheme — the "limited
        // contribution" of electrical TSVs (Sec. 4.1). Aligned-and-shorted
        // schemes additionally gain pillar patches.
        let d2d_layer = |die: usize| -> Result<Layer, ThermalError> {
            let mut d2d =
                Layer::uniform(format!("d2d{die}"), self.d2d_thickness, D2D_AVERAGE.clone());
            d2d.add_patch(MaterialPatch::new(
                "electrical-bus",
                g.tsv_bus_rect(),
                material::electrical_bus_d2d(self.d2d_thickness),
            ))?;
            if paint_d2d {
                let grow = ((self.pillar_footprint - tech.diameter) / 2.0).max(0.0);
                paint_pillars(&mut d2d, &sites, &tech, &pillar_material, grow)?;
            }
            Ok(d2d)
        };
        let pg = &self.proc_geometry;
        // In "processor-on-top" the processor die carries no TSVs at all
        // (Sec. 3.1): neither the bus composite nor TTSVs enter its bulk.
        let proc_si = |with_tsvs: bool| -> Result<Layer, ThermalError> {
            let mut si = Layer::uniform("proc_si", self.die_thickness, SILICON.clone())
                .with_floorplan(pg.floorplan()?);
            if with_tsvs {
                si.set_block_material("tsv_bus", material::tsv_bus())?;
                if paint_si {
                    paint_ttsvs(&mut si, &sites, &tech, &COPPER)?;
                }
            }
            Ok(si)
        };
        let proc_metal = || -> Result<Layer, ThermalError> {
            Ok(
                Layer::uniform("proc_metal", self.proc_metal_thickness, PROC_METAL.clone())
                    .with_floorplan(pg.floorplan()?),
            )
        };

        let mut layers: Vec<Layer> = Vec::with_capacity(self.n_dram_dies * 3 + 2);
        let mut dram_si_layers = Vec::new();
        let mut dram_metal_layers = Vec::new();
        let mut d2d_layers = Vec::new();
        let proc_si_layer;
        let proc_metal_layer;

        match self.organization {
            Organization::MemoryOnTop => {
                for die in 0..self.n_dram_dies {
                    dram_si_layers.push(layers.len());
                    layers.push(dram_si(die)?);
                    dram_metal_layers.push(layers.len());
                    layers.push(dram_metal(die)?);
                    d2d_layers.push(layers.len());
                    layers.push(d2d_layer(die)?);
                }
                proc_si_layer = layers.len();
                layers.push(proc_si(true)?);
                proc_metal_layer = layers.len();
                layers.push(proc_metal()?);
            }
            Organization::ProcessorOnTop => {
                proc_si_layer = layers.len();
                layers.push(proc_si(false)?);
                proc_metal_layer = layers.len();
                layers.push(proc_metal()?);
                for die in 0..self.n_dram_dies {
                    d2d_layers.push(layers.len());
                    layers.push(d2d_layer(die)?);
                    dram_si_layers.push(layers.len());
                    layers.push(dram_si(die)?);
                    dram_metal_layers.push(layers.len());
                    layers.push(dram_metal(die)?);
                }
            }
        }

        let stack = Stack::builder(g.width, g.height)
            .package(self.package.clone())
            .layers(layers)
            .build()?;

        Ok(BuiltStack {
            stack,
            config: self.clone(),
            sites,
            dram_si_layers,
            dram_metal_layers,
            d2d_layers,
            proc_si_layer,
            proc_metal_layer,
        })
    }
}

/// Paints one copper patch per TTSV of `sites` into a silicon layer.
/// Exposed so scenario lowering (the `.stk` DSL) paints the exact same
/// patches — in the same order, with the same labels — as the
/// hard-wired paper builder.
pub fn paint_ttsvs(
    layer: &mut Layer,
    sites: &[TtsvSite],
    tech: &TsvTech,
    mat: &xylem_thermal::material::Material,
) -> Result<(), ThermalError> {
    paint_pillars(layer, sites, tech, mat, 0.0)
}

/// Paints a patch per TTSV, each grown by `grow` on every side (used for
/// the D2D dummy-microbump clusters). Grown patches may extend past the
/// die edge; the rasterizer clips them.
pub fn paint_pillars(
    layer: &mut Layer,
    sites: &[TtsvSite],
    tech: &TsvTech,
    mat: &xylem_thermal::material::Material,
    grow: f64,
) -> Result<(), ThermalError> {
    for (si, site) in sites.iter().enumerate() {
        for (ri, rect) in site.rects(tech).into_iter().enumerate() {
            layer.add_patch(MaterialPatch::new(
                format!("ttsv{si}_{ri}"),
                rect.expanded(grow),
                mat.clone(),
            ))?;
        }
    }
    Ok(())
}

/// A built stack plus the metadata needed to drive experiments.
#[derive(Debug, Clone)]
pub struct BuiltStack {
    stack: Stack,
    config: StackConfig,
    sites: Vec<TtsvSite>,
    dram_si_layers: Vec<usize>,
    dram_metal_layers: Vec<usize>,
    d2d_layers: Vec<usize>,
    proc_si_layer: usize,
    proc_metal_layer: usize,
}

impl BuiltStack {
    /// The underlying thermal stack.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// The configuration this stack was built from.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// The TTSV sites of the scheme (empty for `base`).
    pub fn sites(&self) -> &[TtsvSite] {
        &self.sites
    }

    /// Site center coordinates — the "high vertical conductivity sites"
    /// that the conductivity-aware techniques reason about. For `prior`
    /// this is empty: its TTSVs exist but create no vertical pillars.
    pub fn high_conductivity_sites(&self) -> Vec<(f64, f64)> {
        if self.config.scheme.aligned_and_shorted() {
            self.sites.iter().map(|s| s.center()).collect()
        } else {
            Vec::new()
        }
    }

    /// Layer indices of the DRAM bulk-silicon layers, top die first.
    pub fn dram_si_layers(&self) -> &[usize] {
        &self.dram_si_layers
    }

    /// Layer indices of the DRAM metal (power) layers, top die first.
    pub fn dram_metal_layers(&self) -> &[usize] {
        &self.dram_metal_layers
    }

    /// Layer indices of the D2D layers, top first.
    pub fn d2d_layers(&self) -> &[usize] {
        &self.d2d_layers
    }

    /// Layer index of the processor bulk silicon.
    pub fn proc_si_layer(&self) -> usize {
        self.proc_si_layer
    }

    /// Layer index of the processor metal+logic layer — where processor
    /// power dissipates and where the hotspot temperature is read.
    pub fn proc_metal_layer(&self) -> usize {
        self.proc_metal_layer
    }

    /// Layer index of the bottom-most (hottest) DRAM die's metal layer —
    /// the sensor for the paper's Fig. 13.
    pub fn bottom_dram_metal_layer(&self) -> usize {
        *self
            .dram_metal_layers
            .last()
            .expect("stack always has DRAM dies")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xylem_thermal::grid::GridSpec;

    #[test]
    fn paper_default_builds_26_layers() {
        let b = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        assert_eq!(b.stack().len(), 26);
        assert_eq!(b.dram_metal_layers().len(), 8);
        assert_eq!(b.d2d_layers().len(), 8);
        assert_eq!(b.proc_metal_layer(), 25);
        assert_eq!(b.proc_si_layer(), 24);
        assert_eq!(b.bottom_dram_metal_layer(), 22);
    }

    #[test]
    fn zero_dies_rejected() {
        let mut c = StackConfig::paper_default(XylemScheme::Base);
        c.n_dram_dies = 0;
        assert!(c.build().is_err());
    }

    #[test]
    fn shorted_schemes_paint_d2d() {
        let banke = StackConfig::paper_default(XylemScheme::BankEnhanced)
            .build()
            .unwrap();
        let d2d = banke.stack().layer(banke.d2d_layers()[0]).unwrap();
        // One electrical-bus patch + one patch per TTSV (33 sites, 3
        // doubled).
        assert_eq!(d2d.patches().len(), 1 + 36);
        let prior = StackConfig::paper_default(XylemScheme::Prior)
            .build()
            .unwrap();
        let d2d_prior = prior.stack().layer(prior.d2d_layers()[0]).unwrap();
        assert_eq!(d2d_prior.patches().len(), 1); // bus only, no pillars
                                                  // ... but prior does paint the silicon.
        let si_prior = prior.stack().layer(prior.dram_si_layers()[0]).unwrap();
        assert!(!si_prior.patches().is_empty());
    }

    #[test]
    fn base_paints_no_ttsvs() {
        let b = StackConfig::paper_default(XylemScheme::Base)
            .build()
            .unwrap();
        // Silicon layers untouched; D2D layers carry only the
        // electrical-bus patch shared by every scheme.
        for &l in b.dram_si_layers() {
            assert!(b.stack().layer(l).unwrap().patches().is_empty());
        }
        assert!(b
            .stack()
            .layer(b.proc_si_layer())
            .unwrap()
            .patches()
            .is_empty());
        for &l in b.d2d_layers() {
            assert_eq!(b.stack().layer(l).unwrap().patches().len(), 1);
        }
        assert!(b.high_conductivity_sites().is_empty());
    }

    #[test]
    fn prior_reports_no_high_conductivity_sites() {
        let b = StackConfig::paper_default(XylemScheme::Prior)
            .build()
            .unwrap();
        assert!(!b.sites().is_empty());
        assert!(b.high_conductivity_sites().is_empty());
        let banke = StackConfig::paper_default(XylemScheme::BankEnhanced)
            .build()
            .unwrap();
        // 25 bank-vertex sites + 4 core-adjacent doubled sites.
        assert_eq!(banke.high_conductivity_sites().len(), 29);
    }

    #[test]
    fn stack_discretizes() {
        let b = StackConfig::paper_default(XylemScheme::BankSurround)
            .build()
            .unwrap();
        let m = b.stack().discretize(GridSpec::new(16, 16)).unwrap();
        assert_eq!(m.n_user_layers(), 26);
    }

    #[test]
    fn die_count_scales_layers() {
        for n in [4, 8, 12] {
            let mut c = StackConfig::paper_default(XylemScheme::Base);
            c.n_dram_dies = n;
            let b = c.build().unwrap();
            assert_eq!(b.stack().len(), 3 * n + 2);
        }
    }

    #[test]
    fn processor_on_top_reverses_the_stack() {
        let mut c = StackConfig::paper_default(XylemScheme::BankSurround);
        c.organization = Organization::ProcessorOnTop;
        let b = c.build().unwrap();
        assert_eq!(b.stack().len(), 26);
        // Processor layers first (nearest the sink).
        assert_eq!(b.proc_si_layer(), 0);
        assert_eq!(b.proc_metal_layer(), 1);
        assert_eq!(b.bottom_dram_metal_layer(), 25);
        // No TSVs in the processor die.
        assert!(b.stack().layer(0).unwrap().patches().is_empty());
        // DRAM silicon still carries the TTSVs.
        assert!(!b
            .stack()
            .layer(b.dram_si_layers()[0])
            .unwrap()
            .patches()
            .is_empty());
    }

    #[test]
    fn processor_on_top_runs_cooler() {
        use xylem_thermal::grid::GridSpec;
        use xylem_thermal::power::PowerMap;
        use xylem_thermal::units::Watts;
        let hotspot = |org: Organization| {
            let mut c = StackConfig::paper_default(XylemScheme::Base);
            c.organization = org;
            let b = c.build().unwrap();
            let m = b.stack().discretize(GridSpec::new(16, 16)).unwrap();
            let mut p = PowerMap::zeros(&m);
            p.add_uniform_layer_power(b.proc_metal_layer(), Watts::new(20.0));
            for &l in b.dram_metal_layers() {
                p.add_uniform_layer_power(l, Watts::new(0.4));
            }
            m.steady_state(&p)
                .unwrap()
                .max_of_layer(b.proc_metal_layer())
                .get()
        };
        let mem_top = hotspot(Organization::MemoryOnTop);
        let proc_top = hotspot(Organization::ProcessorOnTop);
        // The Sec. 3.1 thermal advantage: the processor no longer sits
        // below eight D2D layers.
        assert!(
            proc_top < mem_top - 10.0,
            "proc-on-top {proc_top} vs memory-on-top {mem_top}"
        );
    }

    #[test]
    fn tsv_feasibility_flags_thick_dies() {
        // The ITRS electrical TSV (10 um Cu, 10:1 aspect ratio) cannot
        // traverse the Fig. 18 sweep's 200 um dies.
        let feasible =
            |c: &StackConfig| TsvTech::electrical().supports_die_thickness(c.die_thickness);
        let mut c = StackConfig::paper_default(XylemScheme::Base);
        assert!(feasible(&c));
        c.die_thickness = 200e-6;
        assert!(!feasible(&c));
        c.die_thickness = 50e-6;
        assert!(feasible(&c));
    }
}

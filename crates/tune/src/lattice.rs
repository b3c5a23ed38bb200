//! The configuration lattice: the cartesian knob grid a tuner sweeps.
//!
//! A [`ConfigLattice`] starts from a base [`CompilerConfig`] and replaces
//! chosen knobs with axes of candidate values. [`ConfigLattice::points`]
//! materializes the full cartesian product in a **fixed nesting order**
//! (RSL size outermost … renormalization workers innermost), so point
//! indices — and therefore the tuner's evaluation schedule — are a pure
//! function of the lattice. [`ConfigLattice::fingerprint`] hashes the base
//! configuration and every axis; it is part of the tuner's artifact cache
//! key, so adding a value to any axis invalidates cached frontiers.

use oneperc::CompilerConfig;
use oneperc_circuit::StableHasher;
use oneperc_hardware::HardwareConfig;

/// A cartesian lattice of compiler configurations around a base point.
///
/// Axes default to the base configuration's own value; each `with_*`
/// builder replaces one axis. The seed is **not** an axis: the tuner
/// sweeps seeds per point, and [`CompilerConfig::fingerprint`] excludes
/// the seed for the same reason.
#[derive(Debug, Clone)]
#[must_use]
pub struct ConfigLattice {
    base: CompilerConfig,
    rsl_sizes: Vec<usize>,
    resource_state_sizes: Vec<usize>,
    temporal_redundancies: Vec<usize>,
    refresh_periods: Vec<Option<usize>>,
    renorm_workers: Vec<usize>,
}

impl ConfigLattice {
    /// A degenerate lattice holding only the base configuration.
    pub fn new(base: CompilerConfig) -> Self {
        ConfigLattice {
            base,
            rsl_sizes: vec![base.hardware.rsl_size],
            resource_state_sizes: vec![base.hardware.resource_state_size],
            temporal_redundancies: vec![base.temporal_redundancy],
            refresh_periods: vec![base.refresh_period],
            renorm_workers: vec![base.renorm_workers],
        }
    }

    /// The base configuration the axes perturb.
    pub fn base(&self) -> &CompilerConfig {
        &self.base
    }

    /// Replaces the RSL-size axis. Every size must fit the base
    /// configuration's virtual hardware (checked when materializing).
    pub fn with_rsl_sizes(mut self, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "an axis needs at least one value");
        self.rsl_sizes = sizes.to_vec();
        self
    }

    /// Replaces the resource-state-size axis (photons per star).
    pub fn with_resource_state_sizes(mut self, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "an axis needs at least one value");
        self.resource_state_sizes = sizes.to_vec();
        self
    }

    /// Replaces the temporal-redundancy axis.
    pub fn with_temporal_redundancies(mut self, values: &[usize]) -> Self {
        assert!(!values.is_empty(), "an axis needs at least one value");
        self.temporal_redundancies = values.to_vec();
        self
    }

    /// Replaces the refresh-period axis (`None` = refresh off).
    pub fn with_refresh_periods(mut self, periods: &[Option<usize>]) -> Self {
        assert!(!periods.is_empty(), "an axis needs at least one value");
        self.refresh_periods = periods.to_vec();
        self
    }

    /// Replaces the renormalization-worker axis (`0` = in-thread).
    pub fn with_renorm_workers(mut self, values: &[usize]) -> Self {
        assert!(!values.is_empty(), "an axis needs at least one value");
        self.renorm_workers = values.to_vec();
        self
    }

    /// Number of lattice points (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.rsl_sizes.len()
            * self.resource_state_sizes.len()
            * self.temporal_redundancies.len()
            * self.refresh_periods.len()
            * self.renorm_workers.len()
    }

    /// Whether the lattice has no points (never true: axes are non-empty
    /// by construction, but the tuner checks defensively).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes carrying more than one candidate value — the
    /// lattice's knob count.
    pub fn knob_count(&self) -> usize {
        [
            self.rsl_sizes.len(),
            self.resource_state_sizes.len(),
            self.temporal_redundancies.len(),
            self.refresh_periods.len(),
            self.renorm_workers.len(),
        ]
        .iter()
        .filter(|&&n| n > 1)
        .count()
    }

    /// Materializes every lattice point, in the fixed nesting order
    /// (RSL size ▸ resource-state size ▸ temporal redundancy ▸ refresh
    /// period ▸ renormalization workers).
    ///
    /// # Panics
    ///
    /// Panics when an RSL size cannot fit the base virtual hardware or a
    /// resource-state size is below 3 (the [`CompilerConfig`] /
    /// [`HardwareConfig`] constructors' own invariants).
    pub fn points(&self) -> Vec<CompilerConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &rsl in &self.rsl_sizes {
            for &rss in &self.resource_state_sizes {
                for &tr in &self.temporal_redundancies {
                    for &refresh in &self.refresh_periods {
                        for &workers in &self.renorm_workers {
                            out.push(self.materialize(rsl, rss, tr, refresh, workers));
                        }
                    }
                }
            }
        }
        out
    }

    fn materialize(
        &self,
        rsl_size: usize,
        resource_state_size: usize,
        temporal_redundancy: usize,
        refresh_period: Option<usize>,
        renorm_workers: usize,
    ) -> CompilerConfig {
        let hardware = HardwareConfig {
            rsl_size,
            resource_state_size,
            ..self.base.hardware
        };
        // `new` revalidates the fit and rederives the node size for the
        // perturbed RSL; the remaining knobs carry over from the base.
        let mut config = CompilerConfig::new(hardware, self.base.virtual_side, self.base.seed);
        config.occupancy_limit = self.base.occupancy_limit;
        config.temporal_redundancy = temporal_redundancy;
        config
            .with_refresh_period(refresh_period)
            .with_renorm_workers(renorm_workers)
    }

    /// A stable fingerprint of the base configuration and every axis;
    /// part of the tuner's artifact cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        // Encoding version tag, bumped on format change (2: the pipelining
        // axis is gone).
        h.write_tag(2);
        h.write_u64(self.base.fingerprint());
        let usize_axis = |h: &mut StableHasher, tag: u8, values: &[usize]| {
            h.write_tag(tag);
            h.write_usize(values.len());
            for &v in values {
                h.write_usize(v);
            }
        };
        usize_axis(&mut h, 1, &self.rsl_sizes);
        usize_axis(&mut h, 2, &self.resource_state_sizes);
        usize_axis(&mut h, 3, &self.temporal_redundancies);
        h.write_tag(4);
        h.write_usize(self.refresh_periods.len());
        for period in &self.refresh_periods {
            match period {
                None => h.write_tag(0),
                Some(p) => {
                    h.write_tag(1);
                    h.write_usize(*p);
                }
            }
        }
        usize_axis(&mut h, 6, &self.renorm_workers);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CompilerConfig {
        CompilerConfig::for_qubits(4, 0.9, 1)
    }

    #[test]
    fn degenerate_lattice_is_the_base() {
        let lattice = ConfigLattice::new(base());
        assert_eq!(lattice.len(), 1);
        assert_eq!(lattice.knob_count(), 0);
        assert!(!lattice.is_empty());
        assert_eq!(lattice.points(), vec![base()]);
    }

    #[test]
    fn cartesian_product_in_fixed_order() {
        let lattice = ConfigLattice::new(base())
            .with_rsl_sizes(&[24, 30])
            .with_temporal_redundancies(&[2, 3])
            .with_renorm_workers(&[0, 2]);
        assert_eq!(lattice.len(), 8);
        assert_eq!(lattice.knob_count(), 3);
        let points = lattice.points();
        assert_eq!(points.len(), 8);
        // RSL is the outermost axis, renormalization workers the innermost.
        assert_eq!(points[0].hardware.rsl_size, 24);
        assert_eq!(points[0].renorm_workers, 0);
        assert_eq!(points[1].renorm_workers, 2);
        assert_eq!(points[1].temporal_redundancy, 2);
        assert_eq!(points[2].temporal_redundancy, 3);
        assert_eq!(points[4].hardware.rsl_size, 30);
        // Node size is rederived per RSL size.
        assert_eq!(points[0].node_size, 24 / base().virtual_side);
        assert_eq!(points[4].node_size, 30 / base().virtual_side);
        // Same seed everywhere: seeds are swept per point, not an axis.
        assert!(points.iter().all(|p| p.seed == base().seed));
    }

    #[test]
    fn fingerprint_tracks_axes_and_base() {
        let a = ConfigLattice::new(base()).with_rsl_sizes(&[24, 30]);
        let same = ConfigLattice::new(base()).with_rsl_sizes(&[24, 30]);
        assert_eq!(a.fingerprint(), same.fingerprint());
        let reordered = ConfigLattice::new(base()).with_rsl_sizes(&[30, 24]);
        assert_ne!(a.fingerprint(), reordered.fingerprint(), "axis order is significant");
        let extra = ConfigLattice::new(base()).with_rsl_sizes(&[24, 30]).with_renorm_workers(&[2]);
        assert_ne!(a.fingerprint(), extra.fingerprint());
        let other_base = ConfigLattice::new(base().with_renorm_workers(2)).with_rsl_sizes(&[24, 30]);
        assert_ne!(a.fingerprint(), other_base.fingerprint());
        // Seed does not participate (it is swept, not tuned).
        let reseeded = ConfigLattice::new(base().with_seed(999)).with_rsl_sizes(&[24, 30]);
        assert_eq!(a.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_virtual_hardware_still_panics() {
        let _ = ConfigLattice::new(base()).with_rsl_sizes(&[1]).points();
    }
}

//! Compiler configuration and the paper's benchmark presets (Table 1).

use oneperc_circuit::StableHasher;
use oneperc_hardware::HardwareConfig;
use oneperc_ir::VirtualHardware;

/// One row of the paper's Table 1: the hardware sizing used for a given
/// benchmark qubit count and fusion success probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preset {
    /// Number of circuit qubits of the benchmark.
    pub qubits: usize,
    /// Virtual-hardware side (the paper's "Virtual Hardware Size").
    pub virtual_side: usize,
    /// RSL side (the paper's "RSL Size").
    pub rsl_size: usize,
}

impl Preset {
    /// The presets of Table 1 for the hyper-advanced fusion success rate
    /// (p = 0.90).
    pub const P090: [Preset; 3] = [
        Preset { qubits: 4, virtual_side: 2, rsl_size: 24 },
        Preset { qubits: 9, virtual_side: 3, rsl_size: 36 },
        Preset { qubits: 25, virtual_side: 5, rsl_size: 60 },
    ];

    /// The presets of Table 1 for the practical fusion success rate
    /// (p = 0.75).
    pub const P075: [Preset; 4] = [
        Preset { qubits: 4, virtual_side: 2, rsl_size: 48 },
        Preset { qubits: 25, virtual_side: 5, rsl_size: 120 },
        Preset { qubits: 64, virtual_side: 8, rsl_size: 192 },
        Preset { qubits: 100, virtual_side: 10, rsl_size: 240 },
    ];

    /// Looks up (or synthesizes) the preset for a qubit count at a given
    /// fusion success probability. Qubit counts that do not appear in
    /// Table 1 get a virtual hardware of side `ceil(sqrt(qubits))` and an
    /// RSL sized by the same average node size as the table rows (12 sites
    /// per node at p = 0.90, 24 at p ≤ 0.75).
    pub fn for_qubits(qubits: usize, fusion_success_prob: f64) -> Preset {
        let table: &[Preset] = if fusion_success_prob >= 0.85 { &Self::P090 } else { &Self::P075 };
        if let Some(p) = table.iter().find(|p| p.qubits == qubits) {
            return *p;
        }
        let virtual_side = (qubits as f64).sqrt().ceil() as usize;
        let node_size = if fusion_success_prob >= 0.85 { 12 } else { 24 };
        Preset { qubits, virtual_side, rsl_size: virtual_side * node_size }
    }
}

/// Full configuration of a OnePerc compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerConfig {
    /// Photonic hardware model.
    pub hardware: HardwareConfig,
    /// Virtual-hardware side used by the offline mapping.
    pub virtual_side: usize,
    /// Average node size used by the 2D renormalization
    /// (`rsl_size / virtual_side` by construction).
    pub node_size: usize,
    /// Occupancy limit of incomplete nodes in the offline mapping.
    pub occupancy_limit: f64,
    /// Refresh period of the offline mapping, in layers (`None` = off).
    pub refresh_period: Option<usize>,
    /// Photons fused in parallel per time-like hop.
    pub temporal_redundancy: usize,
    /// RNG seed shared by the stochastic components.
    pub seed: u64,
    /// Worker threads of the online pass (`0` = generate and decide every
    /// layer in the lane thread). With workers, each merged layer becomes
    /// one job (generate the layer from its key, decide whether it
    /// renormalizes) on a persistent [`WorkerPool`] shared across the
    /// lanes of a [`Session`](crate::Session). The lane keeps a window of
    /// upcoming layer jobs queued, runs queued jobs itself while it waits,
    /// and consumes the answers in stream order, so reports are
    /// byte-identical for every worker count; only the wall-clock changes.
    ///
    /// [`WorkerPool`]: oneperc_percolation::WorkerPool
    pub renorm_workers: usize,
}

impl CompilerConfig {
    /// Builds a configuration directly from hardware parameters.
    ///
    /// # Panics
    ///
    /// Panics when the virtual hardware does not fit into the RSL.
    pub fn new(hardware: HardwareConfig, virtual_side: usize, seed: u64) -> Self {
        assert!(virtual_side > 0, "virtual hardware side must be positive");
        assert!(
            virtual_side <= hardware.rsl_size,
            "virtual hardware of side {virtual_side} cannot fit in an RSL of side {}",
            hardware.rsl_size
        );
        let node_size = hardware.rsl_size / virtual_side;
        CompilerConfig {
            hardware,
            virtual_side,
            node_size,
            occupancy_limit: 0.25,
            refresh_period: None,
            temporal_redundancy: 3,
            seed,
            renorm_workers: 0,
        }
    }

    /// Builds the Table 1 configuration for a benchmark qubit count, using
    /// 4-qubit resource states as in the main experiment.
    pub fn for_qubits(qubits: usize, fusion_success_prob: f64, seed: u64) -> Self {
        let preset = Preset::for_qubits(qubits, fusion_success_prob);
        let hardware = HardwareConfig::new(preset.rsl_size, 4, fusion_success_prob);
        Self::new(hardware, preset.virtual_side, seed)
    }

    /// Builds the sensitivity-analysis configuration (7-qubit resource
    /// states) with an explicit RSL size and virtual side.
    pub fn for_sensitivity(
        rsl_size: usize,
        virtual_side: usize,
        fusion_success_prob: f64,
        seed: u64,
    ) -> Self {
        let hardware = HardwareConfig::new(rsl_size, 7, fusion_success_prob);
        Self::new(hardware, virtual_side, seed)
    }

    /// Overrides the resource-state size.
    ///
    /// # Panics
    ///
    /// Panics when `size < 3`, as [`HardwareConfig::new`] does: a smaller
    /// star has no leaf to spare for merging.
    #[must_use]
    pub fn with_resource_state_size(mut self, size: usize) -> Self {
        assert!(size >= 3, "resource states need at least 3 qubits (degree 2)");
        self.hardware.resource_state_size = size;
        self
    }

    /// Enables the refresh mechanism with the given period (in layers).
    #[must_use]
    pub fn with_refresh_period(mut self, period: Option<usize>) -> Self {
        self.refresh_period = period;
        self
    }

    /// Sets [`CompilerConfig::renorm_workers`], the size of a session's
    /// shared worker pool (`0` = generate and decide layers in-thread).
    #[must_use]
    pub fn with_renorm_workers(mut self, workers: usize) -> Self {
        self.renorm_workers = workers;
        self
    }

    /// Overrides the RNG seed shared by the stochastic components. A
    /// session sweeping seeds applies this per execution request.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The virtual hardware implied by this configuration.
    pub fn virtual_hardware(&self) -> VirtualHardware {
        VirtualHardware::square(self.virtual_side)
    }

    /// A stable 64-bit fingerprint of every configuration knob **except the
    /// seed**: combined with
    /// [`Circuit::structural_hash`](oneperc_circuit::Circuit::structural_hash)
    /// it keys the service layer's content-addressed compiled-program
    /// cache.
    ///
    /// The seed is deliberately excluded — the offline pass is
    /// deterministic and seed-independent (only the online pass consumes
    /// randomness), so a multi-seed sweep over one circuit must address the
    /// *same* compiled artifact. Every other knob participates, including
    /// ones (like [`CompilerConfig::renorm_workers`]) that do not influence
    /// the offline output today: keying conservatively costs at most a
    /// recompile, while under-keying would silently serve a stale artifact
    /// if a knob ever grows offline-side effects.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        // Version tag of the fingerprint encoding, bumped on format change.
        h.write_tag(1);
        h.write_usize(self.hardware.rsl_size);
        h.write_usize(self.hardware.resource_state_size);
        h.write_f64(self.hardware.fusion_success_prob);
        h.write_f64(self.hardware.photon_loss_rate);
        h.write_usize(self.hardware.target_degree);
        h.write_usize(self.hardware.photon_lifetime_cycles);
        h.write_usize(self.virtual_side);
        h.write_usize(self.node_size);
        h.write_f64(self.occupancy_limit);
        match self.refresh_period {
            None => h.write_tag(0),
            Some(period) => {
                h.write_tag(1);
                h.write_usize(period);
            }
        }
        h.write_usize(self.temporal_redundancy);
        // Slot of the retired `pipelined` knob, kept so existing keys hold.
        h.write_tag(0);
        h.write_usize(self.renorm_workers);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_resolve() {
        let p = Preset::for_qubits(25, 0.75);
        assert_eq!(p.virtual_side, 5);
        assert_eq!(p.rsl_size, 120);
        let p = Preset::for_qubits(9, 0.9);
        assert_eq!(p.virtual_side, 3);
        assert_eq!(p.rsl_size, 36);
    }

    #[test]
    fn synthesized_presets_scale_with_qubits() {
        let p = Preset::for_qubits(36, 0.75);
        assert_eq!(p.virtual_side, 6);
        assert_eq!(p.rsl_size, 6 * 24);
        let p = Preset::for_qubits(16, 0.9);
        assert_eq!(p.virtual_side, 4);
        assert_eq!(p.rsl_size, 48);
    }

    #[test]
    fn config_derives_node_size() {
        let cfg = CompilerConfig::for_qubits(4, 0.75, 1);
        assert_eq!(cfg.node_size, 24);
        assert_eq!(cfg.virtual_side, 2);
        assert_eq!(cfg.hardware.rsl_size, 48);
        assert_eq!(cfg.virtual_hardware().nodes_per_layer(), 4);
    }

    #[test]
    fn sensitivity_config_uses_seven_qubit_states() {
        let cfg = CompilerConfig::for_sensitivity(84, 7, 0.75, 0);
        assert_eq!(cfg.hardware.resource_state_size, 7);
        assert_eq!(cfg.node_size, 12);
        let resized = cfg.with_resource_state_size(5);
        assert_eq!(resized.hardware.resource_state_size, 5);
    }

    #[test]
    fn pipeline_knobs_thread_through_builders() {
        let cfg = CompilerConfig::for_qubits(4, 0.75, 1);
        assert_eq!(cfg.renorm_workers, 0, "in-thread verdicts by default");
        let cfg = cfg.with_renorm_workers(3);
        assert_eq!(cfg.renorm_workers, 3);
    }

    #[test]
    #[should_panic(expected = "at least 3 qubits")]
    fn undersized_resource_states_are_rejected_by_the_setter() {
        // Size 2 would divide by zero in `merging_factor`, and smaller
        // sizes underflow the degree.
        let _ = CompilerConfig::for_qubits(4, 0.75, 1).with_resource_state_size(2);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_virtual_hardware_panics() {
        let hw = HardwareConfig::new(10, 4, 0.75);
        let _ = CompilerConfig::new(hw, 20, 0);
    }

    #[test]
    fn fingerprint_ignores_the_seed() {
        let base = CompilerConfig::for_sensitivity(36, 3, 0.8, 1);
        assert_eq!(base.fingerprint(), base.with_seed(999).fingerprint());
        assert_eq!(base.fingerprint(), base.fingerprint(), "fingerprint is stable");
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_knob() {
        let base = CompilerConfig::for_sensitivity(36, 3, 0.8, 1);
        let variants = [
            ("rsl_size", CompilerConfig::for_sensitivity(48, 3, 0.8, 1)),
            ("virtual_side", CompilerConfig::for_sensitivity(36, 4, 0.8, 1)),
            ("fusion_prob", CompilerConfig::for_sensitivity(36, 3, 0.75, 1)),
            ("resource_state", base.with_resource_state_size(4)),
            ("refresh", base.with_refresh_period(Some(5))),
            ("renorm_workers", base.with_renorm_workers(2)),
            ("occupancy", {
                let mut c = base;
                c.occupancy_limit = 0.5;
                c
            }),
            ("temporal", {
                let mut c = base;
                c.temporal_redundancy = 5;
                c
            }),
            ("loss", {
                let mut c = base;
                c.hardware = c.hardware.with_photon_loss(0.01);
                c
            }),
            ("lifetime", {
                let mut c = base;
                c.hardware.photon_lifetime_cycles = 100;
                c
            }),
            ("target_degree", {
                let mut c = base;
                c.hardware = c.hardware.with_target_degree(4);
                c
            }),
        ];
        for (knob, variant) in variants {
            assert_ne!(
                base.fingerprint(),
                variant.fingerprint(),
                "changing {knob} must change the fingerprint"
            );
        }
        // And the variants are pairwise distinct among themselves.
        for (i, (ka, a)) in variants.iter().enumerate() {
            for (kb, b) in variants.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{ka} vs {kb} collided");
            }
        }
    }

    #[test]
    fn refresh_period_none_and_zero_are_distinct() {
        let base = CompilerConfig::for_sensitivity(36, 3, 0.8, 1);
        assert_ne!(
            base.with_refresh_period(None).fingerprint(),
            base.with_refresh_period(Some(0)).fingerprint()
        );
    }
}

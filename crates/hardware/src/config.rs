//! Hardware configuration.

/// Parameters of the simulated photonic machine.
///
/// # Example
///
/// ```
/// use oneperc_hardware::HardwareConfig;
///
/// let cfg = HardwareConfig::new(48, 4, 0.75);
/// assert_eq!(cfg.merging_factor(), 3);
/// let big = HardwareConfig::new(84, 7, 0.75);
/// assert_eq!(big.merging_factor(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// Number of resource-state generators along one side of the square RSL
    /// (the paper's "RSL size = N x N").
    pub rsl_size: usize,
    /// Number of photonic qubits per star-like resource state (4–7 in the
    /// evaluation).
    pub resource_state_size: usize,
    /// Success probability of a single fusion attempt (0.66–0.90 in the
    /// evaluation; 0.75 is the practical value).
    pub fusion_success_prob: f64,
    /// Probability that a photon involved in a fusion has been lost before
    /// the fusion fires. Loss lowers the effective fusion success
    /// probability (a fusion only succeeds when both photons are detected).
    pub photon_loss_rate: f64,
    /// Lattice degree a site must reach to support the (2+1)-D structure
    /// (4 in-plane neighbors + 2 time-like ports).
    pub target_degree: usize,
    /// Photon lifetime in RSG cycles when stored in delay lines
    /// (≈ 5000 in the paper).
    pub photon_lifetime_cycles: usize,
}

impl HardwareConfig {
    /// Default target site degree: four in-plane bonds plus two temporal
    /// ports.
    pub const DEFAULT_TARGET_DEGREE: usize = 6;

    /// Default photon lifetime in delay lines (RSG cycles).
    pub const DEFAULT_PHOTON_LIFETIME: usize = 5000;

    /// Creates a configuration with the given RSL size, resource-state size
    /// and fusion success probability; loss is zero and the remaining knobs
    /// take their defaults.
    ///
    /// # Panics
    ///
    /// Panics when [`HardwareConfig::check`] rejects the configuration.
    pub fn new(rsl_size: usize, resource_state_size: usize, fusion_success_prob: f64) -> Self {
        let config = HardwareConfig {
            rsl_size,
            resource_state_size,
            fusion_success_prob,
            photon_loss_rate: 0.0,
            target_degree: Self::DEFAULT_TARGET_DEGREE,
            photon_lifetime_cycles: Self::DEFAULT_PHOTON_LIFETIME,
        };
        if let Err(rule) = config.check() {
            panic!("{rule}");
        }
        config
    }

    /// Checks the rules every constructor asserts: `rsl_size > 0`,
    /// `resource_state_size >= 3` (a smaller star has no leaf to spare for
    /// merging, and size 2 divides by zero in
    /// [`HardwareConfig::merging_factor`]) and a fusion success probability
    /// in `(0, 1]`. The fields are public, so a configuration edited after
    /// construction can break them.
    ///
    /// # Errors
    ///
    /// Returns the first rule the configuration breaks.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.rsl_size == 0 {
            return Err("RSL size must be positive");
        }
        if self.resource_state_size < 3 {
            return Err("resource states need at least 3 qubits (degree 2)");
        }
        if !(self.fusion_success_prob > 0.0 && self.fusion_success_prob <= 1.0) {
            return Err("fusion success probability must be in (0, 1]");
        }
        Ok(())
    }

    /// Sets the photon loss rate.
    ///
    /// # Panics
    ///
    /// Panics when the rate is outside `[0, 1)`.
    pub fn with_photon_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss rate must be in [0, 1)");
        self.photon_loss_rate = loss;
        self
    }

    /// Sets the target site degree.
    pub fn with_target_degree(mut self, degree: usize) -> Self {
        self.target_degree = degree;
        self
    }

    /// Maximum degree of a single resource state (a star of `s` qubits has
    /// degree `s - 1`).
    pub fn resource_state_degree(&self) -> usize {
        self.resource_state_size - 1
    }

    /// Number of raw RSLs merged into one effective layer so that a site
    /// reaches the target degree (Section 4.1).
    ///
    /// Every successful root-leaf fusion of an extra degree-`d` star onto the
    /// site's cluster raises the cluster degree by `d - 1` (the fused leaf
    /// and root disappear).
    pub fn merging_factor(&self) -> usize {
        let d = self.resource_state_degree();
        if d >= self.target_degree {
            return 1;
        }
        let deficit = self.target_degree - d;
        1 + deficit.div_ceil(d - 1)
    }

    /// Effective single-attempt fusion success probability once photon loss
    /// is taken into account: both photons must survive for the fusion to be
    /// heralded as a success.
    pub fn effective_fusion_prob(&self) -> f64 {
        let survive = (1.0 - self.photon_loss_rate) * (1.0 - self.photon_loss_rate);
        self.fusion_success_prob * survive
    }

    /// Number of sites in one RSL.
    pub fn sites_per_rsl(&self) -> usize {
        self.rsl_size * self.rsl_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_factor_matches_paper_cases() {
        // 4-qubit stars (degree 3) need two extra RSLs merged to reach
        // degree ≥ 6; 7-qubit stars (degree 6) need none.
        assert_eq!(HardwareConfig::new(24, 4, 0.75).merging_factor(), 3);
        assert_eq!(HardwareConfig::new(24, 5, 0.75).merging_factor(), 2);
        assert_eq!(HardwareConfig::new(24, 6, 0.75).merging_factor(), 2);
        assert_eq!(HardwareConfig::new(24, 7, 0.75).merging_factor(), 1);
        assert_eq!(HardwareConfig::new(24, 8, 0.75).merging_factor(), 1);
    }

    #[test]
    fn effective_probability_accounts_for_loss() {
        let cfg = HardwareConfig::new(10, 4, 0.8).with_photon_loss(0.1);
        let expected = 0.8 * 0.9 * 0.9;
        assert!((cfg.effective_fusion_prob() - expected).abs() < 1e-12);
        let lossless = HardwareConfig::new(10, 4, 0.8);
        assert!((lossless.effective_fusion_prob() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sites_per_rsl() {
        assert_eq!(HardwareConfig::new(24, 4, 0.75).sites_per_rsl(), 576);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = HardwareConfig::new(10, 4, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_resource_state_panics() {
        let _ = HardwareConfig::new(10, 2, 0.75);
    }

    #[test]
    fn check_names_the_broken_rule() {
        let mut cfg = HardwareConfig::new(10, 4, 0.75);
        assert_eq!(cfg.check(), Ok(()));
        cfg.resource_state_size = 2;
        assert!(cfg.check().unwrap_err().contains("at least 3"));
        cfg.resource_state_size = 4;
        cfg.fusion_success_prob = f64::NAN;
        assert!(cfg.check().unwrap_err().contains("probability"));
        cfg.fusion_success_prob = 0.75;
        cfg.rsl_size = 0;
        assert!(cfg.check().unwrap_err().contains("RSL size"));
    }

    #[test]
    fn builder_style_setters() {
        let cfg = HardwareConfig::new(10, 4, 0.75)
            .with_photon_loss(0.02)
            .with_target_degree(4);
        assert_eq!(cfg.target_degree, 4);
        assert!((cfg.photon_loss_rate - 0.02).abs() < 1e-12);
        assert_eq!(cfg.merging_factor(), 2);
    }
}

//! The repeat-until-success execution model of the OneQ baseline.

use std::error::Error;
use std::fmt;

use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_hardware::FusionSampler;
use oneperc_mapper::MapError;

use crate::plan::OneqPlan;

/// Configuration of a OneQ baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneqConfig {
    /// Side of the lattice OneQ maps each layer onto (matched to the
    /// virtual-hardware size used by OnePerc for a fair comparison).
    pub lattice_side: usize,
    /// Fusion success probability.
    pub fusion_success_prob: f64,
    /// RNG seed.
    pub seed: u64,
    /// Abort once this many resource-state layers have been consumed
    /// (the paper caps the baseline at `10^6`).
    pub rsl_cap: u64,
}

impl OneqConfig {
    /// Default RSL cap used by the paper's evaluation.
    pub const DEFAULT_RSL_CAP: u64 = 1_000_000;

    /// Creates a configuration with the paper's `10^6` RSL cap.
    ///
    /// # Panics
    ///
    /// Panics when the lattice side is zero or the probability is outside
    /// `(0, 1]`.
    pub fn new(lattice_side: usize, fusion_success_prob: f64, seed: u64) -> Self {
        assert!(lattice_side > 0, "lattice side must be positive");
        assert!(
            fusion_success_prob > 0.0 && fusion_success_prob <= 1.0,
            "fusion success probability must be in (0, 1]"
        );
        OneqConfig {
            lattice_side,
            fusion_success_prob,
            seed,
            rsl_cap: Self::DEFAULT_RSL_CAP,
        }
    }

    /// Overrides the RSL cap (mostly useful to keep tests fast).
    pub fn with_rsl_cap(mut self, cap: u64) -> Self {
        assert!(cap > 0, "the RSL cap must be positive");
        self.rsl_cap = cap;
        self
    }
}

/// Outcome of a OneQ baseline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneqReport {
    /// Resource-state layers consumed (the `#RSL` metric). When
    /// [`OneqReport::saturated`] is set, this equals the cap.
    pub rsl_consumed: u64,
    /// Fusions attempted (the `#fusion` metric).
    pub fusions: u64,
    /// Layers in the static plan (the `#RSL` a fusion-failure-free machine
    /// would need).
    pub planned_rsl: u64,
    /// Full compilation restarts triggered by inter-layer fusion failures.
    pub restarts: u64,
    /// `true` when the run hit the RSL cap before finishing.
    pub saturated: bool,
}

/// Errors from the baseline compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum OneqError {
    /// The static mapping failed.
    Plan(MapError),
}

impl fmt::Display for OneqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OneqError::Plan(e) => write!(f, "oneq planning failed: {e}"),
        }
    }
}

impl Error for OneqError {}

impl From<MapError> for OneqError {
    fn from(e: MapError) -> Self {
        OneqError::Plan(e)
    }
}

/// The OneQ baseline compiler plus its repeat-until-success executor.
#[derive(Debug, Clone)]
pub struct OneqCompiler {
    config: OneqConfig,
}

impl OneqCompiler {
    /// Creates a baseline compiler.
    pub fn new(config: OneqConfig) -> Self {
        OneqCompiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OneqConfig {
        &self.config
    }

    /// Plans and executes a circuit, returning the consumed `#RSL` and
    /// `#fusion`.
    ///
    /// # Errors
    ///
    /// Returns [`OneqError::Plan`] when the static mapping fails.
    pub fn run(&self, circuit: &Circuit) -> Result<OneqReport, OneqError> {
        let program = ProgramGraph::from_circuit(circuit);
        let plan = OneqPlan::derive(&program, self.config.lattice_side)?;
        Ok(self.execute_plan(&plan))
    }

    /// Executes a pre-derived plan with the repeat-until-success strategy.
    pub fn execute_plan(&self, plan: &OneqPlan) -> OneqReport {
        let p = self.config.fusion_success_prob;
        let cap = self.config.rsl_cap;
        let mut sampler = FusionSampler::new(p, self.config.seed);

        let mut rsl: u64 = 0;
        let mut fusions: u64 = 0;
        let mut restarts: u64 = 0;
        let mut saturated = false;

        'restart: loop {
            for layer in plan.layers() {
                // Repeat the layer until every planned intra-layer fusion
                // succeeds in the same attempt.
                loop {
                    if rsl >= cap {
                        saturated = true;
                        break 'restart;
                    }
                    rsl += 1;
                    let success_prob = p.powi(layer.intra_fusions as i32);
                    if success_prob < 1e-9 {
                        // The layer can essentially never succeed in one
                        // shot; charge the cap directly instead of looping
                        // a million times. The current attempt (already
                        // counted in `rsl`) fires its fusions too.
                        fusions += (cap - rsl + 1) * layer.intra_fusions;
                        rsl = cap;
                        saturated = true;
                        break 'restart;
                    }
                    fusions += layer.intra_fusions;
                    if sampler.uniform() < success_prob {
                        break;
                    }
                }
                // Inter-layer fusions: any failure restarts the entire
                // compilation.
                fusions += layer.inter_fusions;
                let inter_prob = p.powi(layer.inter_fusions as i32);
                if sampler.uniform() >= inter_prob {
                    restarts += 1;
                    continue 'restart;
                }
            }
            break;
        }

        OneqReport {
            rsl_consumed: rsl,
            fusions,
            planned_rsl: plan.planned_rsl() as u64,
            restarts,
            saturated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneperc_circuit::benchmarks;

    #[test]
    fn perfect_fusions_consume_exactly_the_plan() {
        let circuit = benchmarks::qaoa(4, 2);
        let compiler = OneqCompiler::new(OneqConfig::new(2, 1.0, 5));
        let report = compiler.run(&circuit).unwrap();
        assert!(!report.saturated);
        assert_eq!(report.rsl_consumed, report.planned_rsl);
        assert_eq!(report.restarts, 0);
    }

    #[test]
    fn high_success_probability_finishes_with_retries() {
        let circuit = benchmarks::vqe(4, 3);
        let compiler = OneqCompiler::new(OneqConfig::new(2, 0.95, 7));
        let report = compiler.run(&circuit).unwrap();
        assert!(!report.saturated);
        assert!(report.rsl_consumed >= report.planned_rsl);
        assert!(report.fusions > 0);
    }

    #[test]
    fn practical_probability_saturates_on_larger_programs() {
        // At p = 0.75, a 9-qubit QFT has enough fusions per layer and enough
        // layers that the repeat-until-success strategy hits the cap.
        let circuit = benchmarks::qft(9);
        let compiler =
            OneqCompiler::new(OneqConfig::new(3, 0.75, 3).with_rsl_cap(100_000));
        let report = compiler.run(&circuit).unwrap();
        assert!(report.saturated, "expected the baseline to saturate, got {report:?}");
        assert_eq!(report.rsl_consumed, 100_000);
    }

    #[test]
    fn saturation_shortcut_charges_every_attempt() {
        // qft(9) on a side-3 lattice opens with a 7-fusion layer. At
        // p = 0.05 its one-shot success probability is below the shortcut
        // threshold, so the run saturates on layer 0 without looping; every
        // one of the `cap` attempts still fires all 7 fusions, exactly what
        // the looped path charges at p = 0.10.
        let circuit = benchmarks::qft(9);
        let run = |p| {
            OneqCompiler::new(OneqConfig::new(3, p, 1).with_rsl_cap(1_000))
                .run(&circuit)
                .unwrap()
        };
        let shortcut = run(0.05);
        assert!(shortcut.saturated);
        assert_eq!(shortcut.rsl_consumed, 1_000);
        assert_eq!(shortcut.fusions, 7_000);
        let looped = run(0.10);
        assert!(looped.saturated);
        assert_eq!(looped.fusions, shortcut.fusions);
    }

    #[test]
    fn lower_probability_needs_more_rsl() {
        let circuit = benchmarks::qaoa(4, 9);
        let high = OneqCompiler::new(OneqConfig::new(2, 0.95, 1).with_rsl_cap(200_000))
            .run(&circuit)
            .unwrap();
        let low = OneqCompiler::new(OneqConfig::new(2, 0.8, 1).with_rsl_cap(200_000))
            .run(&circuit)
            .unwrap();
        assert!(
            low.rsl_consumed >= high.rsl_consumed,
            "lower fusion probability should cost at least as many RSLs ({} vs {})",
            low.rsl_consumed,
            high.rsl_consumed
        );
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let circuit = benchmarks::rca(4);
        let cfg = OneqConfig::new(2, 0.9, 42).with_rsl_cap(500_000);
        let a = OneqCompiler::new(cfg).run(&circuit).unwrap();
        let b = OneqCompiler::new(cfg).run(&circuit).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "lattice side")]
    fn zero_lattice_rejected() {
        let _ = OneqConfig::new(0, 0.9, 1);
    }
}

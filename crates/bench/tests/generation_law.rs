//! Distributional contract of the word-parallel layer generator.
//!
//! For merged resource states `FusionEngine` draws each site's merging
//! outcome from an alias table over its exact law, and each bond's outcomes
//! from pre-drawn planes. Its stream therefore differs from the
//! per-attempt automaton's, and `layer_equivalence` can pin it only against
//! a reference that makes the same draws. This suite checks the *law*
//! instead, against references that share no code with the engine's
//! kernels:
//!
//! - the enumerated [`MergeLaw`] against a Monte Carlo of the per-attempt
//!   merging automaton, and the alias-table draws against the enumerated
//!   law, each by a chi-square test;
//! - per-layer bonds, attempted and succeeded fusions, present sites and
//!   temporal ports against [`DenseScalarEngine`], the per-attempt
//!   generator, by a two-sample z test of the means over 6,000 layers per
//!   configuration.
//!
//! Every check uses fixed seeds, so the suite is deterministic. Its bounds
//! are set so that a correct generator fails a single check with
//! probability below 1e-4: chi-square at the 1e-4 upper quantile, and
//! `|z| < 4`.

use oneperc_bench::dense::{DenseBoolLayer, DenseScalarEngine};
use oneperc_hardware::{FusionEngine, FusionSampler, HardwareConfig, MergeLaw, PhysicalLayer};

/// Bound on `|z|` for the per-layer means (two-sided tail 6e-5).
const Z_BOUND: f64 = 4.0;

/// Standard normal quantile of the chi-square tests' upper tail 1e-4.
const CHI2_Z: f64 = 3.719;

/// Layers per configuration and engine in the per-layer comparison.
const LAYERS: usize = 6_000;

/// Upper 1e-4 quantile of the chi-square law with `df` degrees of freedom
/// (Wilson–Hilferty approximation).
fn chi2_bound(df: usize) -> f64 {
    let k = df as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + CHI2_Z * h.sqrt()).powi(3)
}

/// Pearson's statistic of `observed` counts against `probs` over `total`
/// draws, and its degrees of freedom. Cells expected below 5 are pooled
/// into one, which is kept only if it reaches 5.
fn chi_square(observed: &[u64], probs: &[f64], total: u64) -> (f64, usize) {
    let (mut stat, mut cells) = (0.0, 0usize);
    let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
    for (&o, &p) in observed.iter().zip(probs) {
        let expected = p * total as f64;
        if expected < 5.0 {
            pooled_obs += o as f64;
            pooled_exp += expected;
        } else {
            stat += (o as f64 - expected).powi(2) / expected;
            cells += 1;
        }
    }
    if pooled_exp >= 5.0 {
        stat += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
        cells += 1;
    }
    (stat, cells.saturating_sub(1))
}

/// One site of the per-attempt merging automaton: the loop the scalar
/// generators run, one `sample()` per root-leaf attempt.
fn automaton(sampler: &mut FusionSampler, degree: usize, m: usize) -> (usize, u32, u32) {
    let (mut cluster, mut attempts, mut successes) = (degree, 0, 0);
    for _ in 1..m {
        let mut incoming = degree;
        while cluster > 0 && incoming > 0 {
            attempts += 1;
            if sampler.sample().is_success() {
                cluster = cluster - 1 + incoming;
                successes += 1;
                break;
            }
            cluster -= 1;
            incoming -= 1;
        }
    }
    (cluster, attempts, successes)
}

/// `(degree, merging factor, p)` points of the merge-law tests: the
/// Table-1 states at the practical and the low probability, long chains of
/// degree-2 stars, and two merges of degree-4 stars.
const MERGE_POINTS: [(usize, usize, f64); 4] =
    [(3, 3, 0.75), (3, 3, 0.66), (2, 5, 0.9), (4, 2, 0.75)];

#[test]
fn enumerated_merge_law_matches_the_per_attempt_automaton() {
    const SITES: u64 = 200_000;
    for &(degree, m, p) in &MERGE_POINTS {
        let law = MergeLaw::new(degree, m, p);
        let mut counts = vec![0u64; law.outcomes().len()];
        let mut sampler = FusionSampler::new(p, 2024);
        for _ in 0..SITES {
            let (leaves, attempts, successes) = automaton(&mut sampler, degree, m);
            let slot = law
                .outcomes()
                .iter()
                .position(|(o, _)| (o.leaves, o.attempts, o.successes) == (leaves, attempts, successes))
                .unwrap_or_else(|| {
                    panic!("({degree}, {m}, {p}): automaton reached ({leaves}, {attempts}, {successes}), which the law omits")
                });
            counts[slot] += 1;
        }
        let probs: Vec<f64> = law.outcomes().iter().map(|&(_, q)| q).collect();
        let (stat, df) = chi_square(&counts, &probs, SITES);
        assert!(df >= 1, "({degree}, {m}, {p}): too few cells");
        assert!(
            stat < chi2_bound(df),
            "({degree}, {m}, {p}): chi-square {stat:.2} on {df} df exceeds {:.2}",
            chi2_bound(df)
        );
    }
}

#[test]
fn alias_draws_follow_the_enumerated_merge_law() {
    const SITES: usize = 200_000;
    for &(degree, m, p) in &MERGE_POINTS {
        let law = MergeLaw::new(degree, m, p);
        let mut words = vec![0u64; SITES];
        FusionSampler::new(p, 77).fill_uniform(&mut words);
        let mut counts = vec![0u64; law.outcomes().len()];
        for &w in &words {
            counts[law.pick(w)] += 1;
        }
        let probs: Vec<f64> = law.outcomes().iter().map(|&(_, q)| q).collect();
        let (stat, df) = chi_square(&counts, &probs, SITES as u64);
        assert!(
            stat < chi2_bound(df),
            "({degree}, {m}, {p}): chi-square {stat:.2} on {df} df exceeds {:.2}",
            chi2_bound(df)
        );
    }
}

/// Per-layer observables: bonds, attempted, succeeded, present sites,
/// temporal ports.
const OBSERVABLES: [&str; 5] = ["bonds", "attempted", "succeeded", "present", "ports"];

/// Running sums of each observable and of its square.
#[derive(Default)]
struct Moments {
    sum: [f64; 5],
    sum_sq: [f64; 5],
    n: f64,
}

impl Moments {
    fn add(&mut self, values: [usize; 5]) {
        for (i, v) in values.into_iter().enumerate() {
            let v = v as f64;
            self.sum[i] += v;
            self.sum_sq[i] += v * v;
        }
        self.n += 1.0;
    }

    fn mean(&self, i: usize) -> f64 {
        self.sum[i] / self.n
    }

    /// Variance of the mean estimate.
    fn var_of_mean(&self, i: usize) -> f64 {
        let mean = self.mean(i);
        (self.sum_sq[i] / self.n - mean * mean) * self.n / (self.n - 1.0) / self.n
    }
}

fn packed_observables(layer: &PhysicalLayer) -> [usize; 5] {
    [
        layer.bond_count(),
        layer.fusions_attempted as usize,
        layer.fusions_succeeded as usize,
        layer.present_site_count(),
        layer.temporal_port_count(),
    ]
}

fn dense_observables(layer: &DenseBoolLayer) -> [usize; 5] {
    let mut ports = 0;
    for y in 0..layer.height {
        for x in 0..layer.width {
            ports += usize::from(layer.temporal_port(x, y));
        }
    }
    [
        layer.bond_count(),
        layer.fusions_attempted as usize,
        layer.fusions_succeeded as usize,
        layer.present_site_count(),
        ports,
    ]
}

#[test]
fn merged_layers_match_the_per_attempt_generator_in_law() {
    // Table-1 states (m = 3) at two probabilities, 5-qubit states (m = 2),
    // 6-qubit states at target 14 (m = 4, budgets past the clamp) and
    // 3-qubit states at target 8 (m = 7). Small sides put most sites near
    // an edge, where the retry gate's `remaining` counts differ.
    let configs = [
        HardwareConfig::new(10, 4, 0.75),
        HardwareConfig::new(10, 4, 0.66),
        HardwareConfig::new(9, 5, 0.9),
        HardwareConfig::new(8, 6, 0.75).with_target_degree(14),
        HardwareConfig::new(8, 3, 0.8).with_target_degree(8),
    ];
    for cfg in configs {
        let mut engine = FusionEngine::new(cfg, 11);
        let mut scalar = DenseScalarEngine::new(cfg, 12);
        let mut packed = PhysicalLayer::blank(1, 1);
        let mut dense = DenseBoolLayer::blank(1, 1);
        let (mut word, mut reference) = (Moments::default(), Moments::default());
        for _ in 0..LAYERS {
            engine.generate_layer_into(&mut packed);
            scalar.generate_layer_into(&mut dense);
            word.add(packed_observables(&packed));
            reference.add(dense_observables(&dense));
        }
        for (i, name) in OBSERVABLES.iter().enumerate() {
            let spread = (word.var_of_mean(i) + reference.var_of_mean(i)).sqrt();
            let diff = word.mean(i) - reference.mean(i);
            let z = if spread > 0.0 { diff / spread } else { 0.0 };
            assert!(
                spread > 0.0 || diff == 0.0,
                "{cfg:?}: {name} is constant but differs ({} vs {})",
                word.mean(i),
                reference.mean(i)
            );
            assert!(
                z.abs() < Z_BOUND,
                "{cfg:?}: mean {name} per layer {:.3} vs per-attempt {:.3} (z = {z:.2})",
                word.mean(i),
                reference.mean(i)
            );
        }
    }
}

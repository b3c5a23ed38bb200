//! Distributional contract of the word-parallel layer generator.
//!
//! `FusionEngine` draws each site's merging outcome with one bit-sliced
//! threshold draw per 64 sites against the cut points of its exact law,
//! and each bond's outcomes from pre-drawn planes of single-cut threshold
//! draws. Its stream therefore differs from the per-attempt automaton's,
//! and `layer_equivalence` can pin it only against a reference that makes
//! the same draws. This suite checks the *law* instead, against references
//! that share no code with the engine's kernels:
//!
//! - the enumerated [`MergeLaw`] against a Monte Carlo of the per-attempt
//!   merging automaton, and the threshold draws against the enumerated
//!   law (the merge laws, the one-outcome law and a single cut at
//!   p = 0.9), each by a chi-square test;
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

/// How many of `sites` uniforms, drawn 64 lanes at a time by threshold
/// draws, land at each outcome of `cuts`: outcome `i` counts the lanes at
/// or above cut `i - 1` and below cut `i`.
fn threshold_counts(cuts: &[u64], sites: usize, seed: u64) -> Vec<u64> {
    let mut sampler = FusionSampler::new(0.5, seed);
    let mut masks = vec![0u64; cuts.len()];
    let mut counts = vec![0u64; cuts.len() + 1];
    for chunk in (0..sites).step_by(64) {
        let lanes = u64::MAX >> (64 - (sites - chunk).min(64));
        sampler.threshold_masks(cuts, lanes, &mut masks);
        let mut at_or_above = lanes;
        for (i, count) in counts.iter_mut().enumerate() {
            let above = masks.get(i).copied().unwrap_or(0);
            *count += u64::from((at_or_above & !above).count_ones());
            at_or_above = above;
        }
    }
    counts
}

#[test]
fn threshold_draws_follow_the_enumerated_law() {
    const SITES: usize = 200_000;
    let mut laws: Vec<(String, Vec<u64>, Vec<f64>)> = MERGE_POINTS
        .iter()
        .map(|&(degree, m, p)| {
            let law = MergeLaw::new(degree, m, p);
            let probs = law.outcomes().iter().map(|&(_, q)| q).collect();
            (format!("merge law ({degree}, {m}, {p})"), law.cuts().to_vec(), probs)
        })
        .collect();
    // A bond plane at p = 0.9: success below the single cut p·2^64.
    laws.push(("single cut at p = 0.9".into(), vec![(0.9 * 2f64.powi(64)) as u64], vec![0.9, 0.1]));
    for (name, cuts, probs) in &laws {
        let counts = threshold_counts(cuts, SITES, 77);
        assert_eq!(counts.iter().sum::<u64>(), SITES as u64, "{name}: every site drawn once");
        let (stat, df) = chi_square(&counts, probs, SITES as u64);
        assert!(df >= 1, "{name}: too few cells");
        assert!(
            stat < chi2_bound(df),
            "{name}: chi-square {stat:.2} on {df} df exceeds {:.2}",
            chi2_bound(df)
        );
    }
    // The one-outcome law (m = 1) has no cut: every site draws it, and no
    // RNG word is spent.
    let unmerged = MergeLaw::new(6, 1, 0.75);
    assert!(unmerged.cuts().is_empty());
    assert_eq!(threshold_counts(unmerged.cuts(), SITES, 77), vec![SITES as u64]);
    let (mut drawn, mut fresh) = (FusionSampler::new(0.5, 77), FusionSampler::new(0.5, 77));
    drawn.threshold_masks(unmerged.cuts(), u64::MAX, &mut []);
    assert_eq!(drawn.uniform(), fresh.uniform(), "the one-outcome law drew a word");
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
    // 6-qubit states at target 14 (m = 4, budgets past the clamp),
    // 3-qubit states at target 8 (m = 7), and three unmerged (m = 1)
    // configs: 7-qubit states at p = 0.75 and p = 0.9, and 5-qubit states
    // at target 4, whose budget of 3 can run out. Small sides put most
    // sites near an edge, where the retry gate's `remaining` counts differ.
    let configs = [
        HardwareConfig::new(10, 4, 0.75),
        HardwareConfig::new(10, 4, 0.66),
        HardwareConfig::new(9, 5, 0.9),
        HardwareConfig::new(8, 6, 0.75).with_target_degree(14),
        HardwareConfig::new(8, 3, 0.8).with_target_degree(8),
        HardwareConfig::new(10, 7, 0.75),
        HardwareConfig::new(10, 7, 0.9),
        HardwareConfig::new(9, 5, 0.75).with_target_degree(4),
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

//! The semi-static fusion strategy (Section 4) and the layer generator.

use crate::config::HardwareConfig;
use crate::layer::PhysicalLayer;
use crate::sampler::{FusionSampler, FusionStats};

/// A static description of the fusion strategy derived from the hardware
/// configuration: how many raw RSLs are merged per effective layer, how many
/// leaves each merged site can spend, and the expected fusion cost per
/// layer. The strategy is *semi-static*: the pattern is fixed offline, only
/// collective retries react to heralded failures at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionStrategy {
    config: HardwareConfig,
}

impl FusionStrategy {
    /// Builds the strategy for a hardware configuration.
    pub fn new(config: HardwareConfig) -> Self {
        FusionStrategy { config }
    }

    /// The underlying hardware configuration.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }

    /// Raw RSLs merged per effective layer (1 when the resource states have
    /// sufficient degree).
    pub fn merging_factor(&self) -> usize {
        self.config.merging_factor()
    }

    /// Root-leaf fusions planned per site per layer (merging phase).
    pub fn root_leaf_fusions_per_site(&self) -> usize {
        self.merging_factor() - 1
    }

    /// In-plane leaf-leaf fusions planned per layer (one per lattice bond).
    pub fn planned_bond_fusions(&self) -> usize {
        let n = self.config.rsl_size;
        2 * n * (n - 1)
    }

    /// A rough expectation of the number of fusions consumed per effective
    /// layer (merging + bonds + one temporal port per site), ignoring
    /// retries. Used for capacity planning and sanity checks; the engine
    /// reports exact counts.
    pub fn expected_fusions_per_layer(&self) -> usize {
        let sites = self.config.sites_per_rsl();
        self.root_leaf_fusions_per_site() * sites + self.planned_bond_fusions() + sites
    }
}

/// Generates random physical graph state layers by executing the fusion
/// strategy against a stochastic fusion sampler.
///
/// # Example
///
/// ```
/// use oneperc_hardware::{FusionEngine, HardwareConfig};
///
/// let mut engine = FusionEngine::new(HardwareConfig::new(16, 7, 0.75), 1);
/// let layer = engine.generate_layer();
/// assert!(layer.bond_count() > 0);
/// assert_eq!(engine.raw_rsl_consumed(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FusionEngine {
    strategy: FusionStrategy,
    sampler: FusionSampler,
    raw_rsl_consumed: u64,
    /// Per-site scratch reused across layers: remaining leaves after the
    /// merging phase, then the in-plane bond budget. Kept on the engine so
    /// the steady-state per-RSL loop allocates nothing.
    site_leaves: Vec<usize>,
    inplane_budget: Vec<usize>,
    /// Pre-drawn first-attempt outcome words for one row of east/north
    /// bonds (whole-row fast path; reused across rows and layers).
    row_east: Vec<u64>,
    row_north: Vec<u64>,
}

impl FusionEngine {
    /// Creates an engine for the given configuration and RNG seed.
    pub fn new(config: HardwareConfig, seed: u64) -> Self {
        FusionEngine {
            strategy: FusionStrategy::new(config),
            sampler: FusionSampler::new(config.effective_fusion_prob(), seed),
            raw_rsl_consumed: 0,
            site_leaves: Vec::new(),
            inplane_budget: Vec::new(),
            row_east: Vec::new(),
            row_north: Vec::new(),
        }
    }

    /// The fusion strategy in use.
    pub fn strategy(&self) -> &FusionStrategy {
        &self.strategy
    }

    /// Restarts the engine's stochastic stream from `seed`, exactly as if
    /// the engine had been freshly constructed with that seed — the sampler
    /// stream, the attempt statistics and the raw-RSL counter all start
    /// over — while keeping the per-site scratch allocations warm. Long-
    /// lived execution contexts use this to run many seeded experiments
    /// through one engine without paying construction cost per run.
    pub fn reseed(&mut self, seed: u64) {
        let config = *self.config();
        self.sampler = FusionSampler::new(config.effective_fusion_prob(), seed);
        self.raw_rsl_consumed = 0;
    }

    /// The hardware configuration in use.
    pub fn config(&self) -> &HardwareConfig {
        self.strategy.config()
    }

    /// Total raw RSLs consumed so far (the paper's `#RSL` metric counts
    /// these).
    pub fn raw_rsl_consumed(&self) -> u64 {
        self.raw_rsl_consumed
    }

    /// Total fusion-attempt statistics so far (the `#fusion` metric).
    pub fn fusion_stats(&self) -> FusionStats {
        self.sampler.stats()
    }

    /// Samples one ad-hoc fusion outside the layer pattern (used by the
    /// reshaping pass for time-like fusions); the attempt is accounted for
    /// in [`FusionEngine::fusion_stats`].
    pub fn sample_fusion(&mut self) -> graphstate::FusionOutcome {
        self.sampler.sample()
    }

    /// Executes the fusion strategy for one effective layer and returns the
    /// resulting random physical graph state in site-lattice form.
    pub fn generate_layer(&mut self) -> PhysicalLayer {
        let n = self.config().rsl_size;
        let mut layer = PhysicalLayer::blank(n, n);
        self.generate_layer_into(&mut layer);
        layer
    }

    /// Executes the fusion strategy for one effective layer, writing the
    /// result into `layer` (resized and reset as needed). Combined with the
    /// engine-held per-site scratch this makes steady-state layer generation
    /// allocation-free, which is what the online per-RSL loop of the
    /// reshaping pass uses.
    pub fn generate_layer_into(&mut self, layer: &mut PhysicalLayer) {
        let cfg = *self.config();
        let n = cfg.rsl_size;
        let m = cfg.merging_factor();
        let base_degree = cfg.resource_state_degree();
        let stats_before = self.sampler.stats();

        layer.reset_blank(n, n);
        layer.raw_rsl_consumed = m;
        self.raw_rsl_consumed += m as u64;

        // Phase 1: root-leaf merging to boost site degree (Section 4.1/4.2).
        // Each failed attempt costs one leaf on the cluster and one degree on
        // the incoming star (which is recovered into a smaller star by local
        // complementation, Section 4.2); the retry uses the remaining
        // degrees (collective feed-forward, Section 4.3).
        self.site_leaves.clear();
        for _ in 0..(n * n) {
            let mut cluster = base_degree;
            for _ in 0..(m - 1) {
                let mut incoming = base_degree;
                loop {
                    if cluster == 0 || incoming == 0 {
                        break;
                    }
                    if self.sampler.sample().is_success() {
                        cluster = cluster - 1 + incoming;
                        break;
                    }
                    cluster -= 1;
                    incoming -= 1;
                }
            }
            self.site_leaves.push(cluster);
        }

        // Reserve one temporal port (a photon kept for fusing towards a
        // neighboring layer) before spending leaves on in-plane bonds. Only
        // the few sites that end up as renormalized nodes actually use their
        // port, so a single reservation per site suffices — the paper's
        // strategy likewise keeps the redundant degrees for retries rather
        // than parking them.
        //
        // The presence/port planes are written word-parallel: 64 sites of
        // derived bits are accumulated in registers and stored as one `u64`
        // each, instead of 64 boolean stores per plane.
        self.inplane_budget.clear();
        let total = n * n;
        let mut wi = 0usize;
        let mut site_word = 0u64;
        let mut port_word = 0u64;
        for (i, &leaves) in self.site_leaves.iter().enumerate() {
            let bit = 1u64 << (i % 64);
            let forward = leaves >= 1;
            if forward {
                port_word |= bit;
            }
            if leaves >= 2 {
                site_word |= bit;
            }
            self.inplane_budget.push(leaves - usize::from(forward));
            if i % 64 == 63 {
                layer.store_site_word(wi, site_word);
                layer.store_port_word(wi, port_word);
                wi += 1;
                site_word = 0;
                port_word = 0;
            }
        }
        if !total.is_multiple_of(64) {
            layer.store_site_word(wi, site_word);
            layer.store_port_word(wi, port_word);
        }
        // Split borrows: the bond loop below mutates the budget while
        // drawing from the sampler.
        let FusionEngine { sampler, inplane_budget, row_east, row_north, .. } = self;

        // Phase 2: in-plane leaf-leaf bonds. Every bond consumes one leaf at
        // each endpoint; failed bonds are retried when both endpoints still
        // hold redundant leaves beyond what their remaining planned bonds
        // need.
        //
        // Outcomes come from the sampler's word-batched bit-sliced stream
        // (64 Bernoulli draws per refill); decided bonds are OR-ed straight
        // into the packed words. (Register-accumulating 64 decisions before
        // storing was measured slower here: the word-boundary branch and the
        // extra live registers cost more than L1-hit read-modify-writes.)
        let idx = |x: usize, y: usize| y * n + x;
        let remaining_bonds = |x: usize, y: usize| -> usize {
            // Bonds not yet attempted for this site given the sweep order
            // (east then north, row-major): east of (x,y), north of (x,y),
            // and the bonds arriving from west/south are attempted when the
            // neighbor is visited, so count only the outgoing ones here.
            let mut c = 0;
            if x + 1 < n {
                c += 1;
            }
            if y + 1 < n {
                c += 1;
            }
            c
        };
        // Whole-row first-attempt fast path. With merging factor 1 the
        // merging phase draws nothing and every site starts with
        // `degree - 1` in-plane leaves; for `degree >= 6` that budget
        // provably never reaches zero before a first attempt: retries are
        // gated on `budget > remaining_bonds` (a per-site constant, at most
        // 2), so each retry leaves at least that many leaves behind, and
        // the worst-case drain before a site's last outgoing first attempt
        // (two neighbor bonds with retries, then the own east bond) still
        // leaves one leaf when starting from five. Every bond's first
        // attempt is therefore unconditional, and a whole row of them can
        // be pre-drawn as packed words — one `sample_batched_word` per 64
        // bonds with one stats update, instead of per-bit consumption —
        // while the data-dependent retries keep reading the same batched
        // stream bit by bit right after the row's words.
        //
        // This reorders the draws within a row (all first attempts, then
        // the retries of the sweep) and is the sanctioned one-time RNG
        // stream break of PR 6: the dense reference engine consumes the
        // stream in exactly the same order, so site-for-site equivalence
        // still pins the layers.
        let whole_row = m == 1 && base_degree >= 6;
        if whole_row {
            for y in 0..n {
                row_east.clear();
                for cx in 0..(n - 1).div_ceil(64) {
                    let cnt = 64.min(n - 1 - cx * 64) as u32;
                    row_east.push(sampler.sample_batched_word(cnt));
                }
                row_north.clear();
                if y + 1 < n {
                    for cx in 0..n.div_ceil(64) {
                        let cnt = 64.min(n - cx * 64) as u32;
                        row_north.push(sampler.sample_batched_word(cnt));
                    }
                }
                for x in 0..n {
                    let a = idx(x, y);
                    for east in [true, false] {
                        let (bx, by) = if east { (x + 1, y) } else { (x, y + 1) };
                        if bx >= n || by >= n {
                            continue;
                        }
                        let b = idx(bx, by);
                        debug_assert!(
                            inplane_budget[a] > 0 && inplane_budget[b] > 0,
                            "whole-row fast path drew a first attempt for a skipped bond"
                        );
                        inplane_budget[a] -= 1;
                        inplane_budget[b] -= 1;
                        let row = if east { &*row_east } else { &*row_north };
                        let mut ok = row[x / 64] >> (x % 64) & 1 == 1;
                        if !ok {
                            // Collective retry with redundant degrees.
                            let spare_a = inplane_budget[a] > remaining_bonds(x, y);
                            let spare_b = inplane_budget[b] > remaining_bonds(bx, by);
                            if spare_a && spare_b {
                                inplane_budget[a] -= 1;
                                inplane_budget[b] -= 1;
                                ok = sampler.sample_batched().is_success();
                            }
                        }
                        if ok {
                            let bit = 1u64 << (a % 64);
                            if east {
                                layer.or_bond_east_word(a / 64, bit);
                            } else {
                                layer.or_bond_north_word(a / 64, bit);
                            }
                        }
                    }
                }
            }
        } else {
            // Exhaustible budgets (merged or low-degree resource states):
            // attempt eligibility is data-dependent, so outcomes are
            // consumed one bit per attempt, keeping accounting exact under
            // the budget/retry control flow.
            for y in 0..n {
                for x in 0..n {
                    let a = idx(x, y);
                    for east in [true, false] {
                        let (bx, by) = if east { (x + 1, y) } else { (x, y + 1) };
                        if bx >= n || by >= n {
                            continue;
                        }
                        let b = idx(bx, by);
                        // Site presence (`leaves >= 2`) is equivalent to a
                        // positive initial in-plane budget (`leaves - 1 >= 1`),
                        // so the budget test below subsumes the presence test
                        // the byte-walk implementation performed first — no
                        // per-bond bitmap reads on this path.
                        if inplane_budget[a] == 0 || inplane_budget[b] == 0 {
                            continue;
                        }
                        inplane_budget[a] -= 1;
                        inplane_budget[b] -= 1;
                        let mut ok = sampler.sample_batched().is_success();
                        if !ok {
                            // Collective retry with redundant degrees.
                            let spare_a = inplane_budget[a] > remaining_bonds(x, y);
                            let spare_b = inplane_budget[b] > remaining_bonds(bx, by);
                            if spare_a && spare_b {
                                inplane_budget[a] -= 1;
                                inplane_budget[b] -= 1;
                                ok = sampler.sample_batched().is_success();
                            }
                        }
                        if ok {
                            let bit = 1u64 << (a % 64);
                            if east {
                                layer.or_bond_east_word(a / 64, bit);
                            } else {
                                layer.or_bond_north_word(a / 64, bit);
                            }
                        }
                    }
                }
            }
        }
        // End of the batched phase: discard leftover pre-drawn bits so the
        // merging phase of the next layer (and any time-like fusion) reads
        // the per-attempt stream from a deterministic state.
        sampler.flush_batch();

        let stats_after = sampler.stats();
        layer.fusions_attempted = stats_after.attempted - stats_before.attempted;
        layer.fusions_succeeded = stats_after.succeeded - stats_before.succeeded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_counts() {
        let s = FusionStrategy::new(HardwareConfig::new(10, 4, 0.75));
        assert_eq!(s.merging_factor(), 3);
        assert_eq!(s.root_leaf_fusions_per_site(), 2);
        assert_eq!(s.planned_bond_fusions(), 2 * 10 * 9);
        assert!(s.expected_fusions_per_layer() > s.planned_bond_fusions());
    }

    #[test]
    fn deterministic_fusion_yields_full_lattice() {
        let mut engine = FusionEngine::new(HardwareConfig::new(8, 7, 1.0), 3);
        let layer = engine.generate_layer();
        assert_eq!(layer.bond_count(), 2 * 8 * 7);
        assert_eq!(layer.largest_component_size(), 64);
        assert_eq!(layer.raw_rsl_consumed, 1);
    }

    #[test]
    fn whole_row_fast_path_attempts_every_bond() {
        // Merging factor 1 with degree >= 6: budgets provably never
        // exhaust, so every lattice bond gets exactly one first attempt
        // (pre-drawn by the whole-row words) and attempts beyond the
        // planned bond count are retries, at most one per bond. The
        // fast path's debug assertion cross-checks the non-exhaustion
        // proof on every generated layer.
        for side in [1usize, 2, 7, 33, 64, 65] {
            let cfg = HardwareConfig::new(side, 7, 0.7);
            assert_eq!(cfg.merging_factor(), 1);
            let mut engine = FusionEngine::new(cfg, 13);
            let layer = engine.generate_layer();
            let planned = engine.strategy().planned_bond_fusions() as u64;
            assert!(
                layer.fusions_attempted >= planned,
                "L={side}: {} attempts for {planned} planned bonds",
                layer.fusions_attempted
            );
            assert!(layer.fusions_attempted <= 2 * planned.max(1));
        }
    }

    #[test]
    fn practical_probability_percolates() {
        // At p = 0.75 (above the square-lattice bond-percolation threshold
        // of 0.5) the largest connected component spans most of the layer.
        let mut engine = FusionEngine::new(HardwareConfig::new(40, 7, 0.75), 11);
        let layer = engine.generate_layer();
        let giant = layer.largest_component_size();
        assert!(
            giant > layer.site_count() / 2,
            "giant component too small: {giant} of {}",
            layer.site_count()
        );
    }

    #[test]
    fn low_degree_resource_states_consume_more_raw_rsls() {
        let mut small = FusionEngine::new(HardwareConfig::new(12, 4, 0.75), 5);
        let mut big = FusionEngine::new(HardwareConfig::new(12, 7, 0.75), 5);
        let a = small.generate_layer();
        let b = big.generate_layer();
        assert_eq!(a.raw_rsl_consumed, 3);
        assert_eq!(b.raw_rsl_consumed, 1);
        assert_eq!(small.raw_rsl_consumed(), 3);
        assert_eq!(big.raw_rsl_consumed(), 1);
        // The merged layer also consumes extra fusions for the merging.
        assert!(a.fusions_attempted > b.fusions_attempted);
    }

    #[test]
    fn fusion_accounting_accumulates() {
        let mut engine = FusionEngine::new(HardwareConfig::new(10, 7, 0.75), 2);
        let l1 = engine.generate_layer();
        let l2 = engine.generate_layer();
        let total = engine.fusion_stats();
        assert_eq!(total.attempted, l1.fusions_attempted + l2.fusions_attempted);
        let _ = engine.sample_fusion();
        assert_eq!(engine.fusion_stats().attempted, total.attempted + 1);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut a = FusionEngine::new(HardwareConfig::new(14, 4, 0.7), 77);
        let mut b = FusionEngine::new(HardwareConfig::new(14, 4, 0.7), 77);
        let la = a.generate_layer();
        let lb = b.generate_layer();
        assert_eq!(la.bond_count(), lb.bond_count());
        assert_eq!(la.fusions_attempted, lb.fusions_attempted);
    }

    #[test]
    fn generation_stream_is_identical_across_threads() {
        // Session lanes drive their FusionEngine on a lane thread; the
        // layer stream must not depend on which thread drives the engine.
        let cfg = HardwareConfig::new(16, 7, 0.75);
        let mut local = FusionEngine::new(cfg, 55);
        let on_main: Vec<PhysicalLayer> = (0..5).map(|_| local.generate_layer()).collect();
        let on_worker = std::thread::spawn(move || {
            let mut engine = FusionEngine::new(cfg, 55);
            let mut buf = PhysicalLayer::blank(16, 16);
            (0..5)
                .map(|_| {
                    engine.generate_layer_into(&mut buf);
                    buf.clone()
                })
                .collect::<Vec<_>>()
        })
        .join()
        .expect("generator thread");
        assert_eq!(on_main, on_worker);
    }

    #[test]
    fn reseeded_engine_matches_fresh_engine() {
        let cfg = HardwareConfig::new(14, 4, 0.7);
        let mut warm = FusionEngine::new(cfg, 1);
        // Advance the warm engine arbitrarily far before reseeding.
        for _ in 0..3 {
            let _ = warm.generate_layer();
        }
        warm.reseed(99);
        let mut fresh = FusionEngine::new(cfg, 99);
        for _ in 0..4 {
            assert_eq!(warm.generate_layer(), fresh.generate_layer());
        }
        assert_eq!(warm.raw_rsl_consumed(), fresh.raw_rsl_consumed());
        assert_eq!(warm.fusion_stats(), fresh.fusion_stats());
    }

    #[test]
    fn bond_density_tracks_success_probability() {
        let density = |p: f64| {
            let mut engine = FusionEngine::new(HardwareConfig::new(30, 7, p), 9);
            let layer = engine.generate_layer();
            layer.bond_count() as f64 / (2.0 * 30.0 * 29.0)
        };
        let low = density(0.66);
        let high = density(0.9);
        assert!(high > low, "bond density should grow with fusion probability");
        assert!(low > 0.5, "even p=0.66 should exceed the percolation threshold");
    }
}

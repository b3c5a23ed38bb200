//! The semi-static fusion strategy (Section 4) and the layer generator.
//!
//! # Generating a merged layer
//!
//! A layer is generated in two phases. In the merging phase every site
//! fuses its `m` stacked resource states into one cluster (root-leaf
//! fusions); in the bond phase neighboring clusters are joined by
//! leaf-leaf fusions, swept east then north in row-major order. Each site
//! first reserves one leaf as its temporal port (only the few sites that
//! become renormalized nodes use it, so one per site suffices), which
//! leaves an in-plane *budget*. A bond is attempted only while both endpoints have budget
//! left. One attempt spends one leaf at each end. A failed first attempt is
//! retried once, and only when both ends still hold more budget than their
//! own outgoing bonds need (`budget > remaining`, where `remaining ≤ 2` is
//! a per-site constant).
//!
//! Every configuration except the whole-row one below draws both phases
//! word-parallel.
//!
//! - **Merging.** Sites share nothing in this phase, so a site's
//!   `(leaves, attempts, successes)` is one draw from the exact law that
//!   [`MergeLaw`] enumerates. The engine draws it with one uniform word per
//!   site from a power-of-two alias table built once per engine.
//! - **Bonds.** Four outcome planes are drawn per layer with the bit-sliced
//!   Bernoulli words: east first attempts, north first attempts, east
//!   retries, north retries, one bit per bond each. The sweep then runs one
//!   lookup per bond in a constant step table keyed by both budgets, both
//!   `remaining` counts and the bond's two bits.
//!
//! **Why the law is unchanged.** Whether a bond is attempted, and whether
//! it is retried, depends only on the merging outcomes and on bonds swept
//! before it. Its own two bits are independent of all of that, and are
//! read (and its attempts counted) only when an attempt is made. So every
//! attempt's outcome is a fresh Bernoulli(`p`) trial, and the layers,
//! `#fusion` and `#RSL` follow exactly the law of the per-attempt scalar
//! generator, up to the alias table's rounding of probabilities to
//! multiples of `2^-64`. Only the stream differs: a seed maps to
//! different layers than under per-attempt draws.
//!
//! **Why budgets fit in a `u8` clamped to 10.** The sweep compares a budget
//! only with 0 (may the bond be attempted) and with `remaining ≤ 2` (may it
//! be retried). A site has at most four bonds, and each spends at most two
//! leaves, so at most 6 leaves are gone before its last first attempt and
//! at most 7 before its last retry test. A clamped budget of 10 is then
//! still at least 4 at every zero test and at least 3 at every retry test,
//! exactly as the true budget `≥ 10` is, so every comparison comes out the
//! same. A budget therefore takes one of 11 values, and the step table
//! covers every pair.
//!
//! # The whole-row path
//!
//! With merging factor 1 and degree ≥ 6 no budget can run out (see
//! `generate_whole_row`), and the engine draws from the word-batched
//! stream instead: each row's first attempts are pre-drawn as packed
//! words, and the rare retries read that stream bit by bit.

use crate::config::HardwareConfig;
use crate::layer::PhysicalLayer;
use crate::merge::MergeLaw;
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

/// In-plane budgets are kept clamped to this value; the module docs prove
/// the clamp changes no comparison of the bond sweep.
const BUDGET_CAP: usize = 10;

/// Entries of [`STEP`]: 3 × 3 `remaining` pairs, each with a 16 × 16 grid
/// of budget pairs (11 × 11 used) times 4 outcome-bit pairs.
const STEP_LEN: usize = 9 << 10;

/// Mask of a budget field of a step-table key or entry.
const BUDGET_FIELD: usize = 0xf << 6;

/// The part of a step-table key fixed by the bond's geometry.
const fn step_geometry(rem_a: usize, rem_b: usize) -> usize {
    (rem_a * 3 + rem_b) << 10
}

/// The bond sweep's step function, tabulated. The key is
/// `geometry | budget_a << 6 | budget_b << 2 | first | retry << 1` for
/// endpoints `a` and `b` with clamped budgets and `remaining` counts, and
/// the bond's two outcome bits. The entry is
/// `ok | budget_a' << 6 | budget_b' << 10 | attempts << 14`: whether the
/// bond was realized, both budgets after it and how many attempts it made.
/// `budget_a'` sits where the next key of site `a` wants it, so the sweep
/// chains lookups with one mask.
static STEP: [u16; STEP_LEN] = build_step_table();

const fn build_step_table() -> [u16; STEP_LEN] {
    let mut table = [0u16; STEP_LEN];
    let mut key = 0;
    while key < STEP_LEN {
        let (first, retry) = (key & 1 == 1, key & 2 == 2);
        let (a, b) = (key >> 6 & 0xf, key >> 2 & 0xf);
        let (rem_a, rem_b) = ((key >> 10) / 3, (key >> 10) % 3);
        let (mut a2, mut b2, mut ok, mut attempts) = (a, b, false, 0);
        if a > 0 && b > 0 {
            a2 -= 1;
            b2 -= 1;
            attempts = 1;
            ok = first;
            if !first && a2 > rem_a && b2 > rem_b {
                a2 -= 1;
                b2 -= 1;
                attempts = 2;
                ok = retry;
            }
        }
        table[key] = (ok as usize | a2 << 6 | b2 << 10 | attempts << 14) as u16;
        key += 1;
    }
    table
}

/// What one merging outcome sets up for its site.
#[derive(Debug, Clone, Copy)]
struct SiteInit {
    /// Clamped in-plane budget.
    budget: u8,
    /// Site-presence bit (at least two leaves).
    present: u64,
    /// Temporal-port bit (at least one leaf).
    port: u64,
    attempts: u64,
    successes: u64,
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
    /// Merging factor 1 and degree ≥ 6: the whole-row path.
    whole_row: bool,
    /// The merging phase's exact law, and what each of its outcomes sets up
    /// for a site. Built once per engine; [`FusionEngine::reseed`] keeps it.
    merge_law: MergeLaw,
    site_init: Vec<SiteInit>,
    /// Per-site scratch reused across layers, so the steady-state per-RSL
    /// loop allocates nothing: clamped in-plane budgets, the four outcome
    /// planes of the merged path, and the whole-row path's first-attempt
    /// words for one row of east/north bonds.
    budget: Vec<u8>,
    planes: Vec<u64>,
    row_east: Vec<u64>,
    row_north: Vec<u64>,
}

impl FusionEngine {
    /// Creates an engine for the given configuration and RNG seed.
    pub fn new(config: HardwareConfig, seed: u64) -> Self {
        let m = config.merging_factor();
        let degree = config.resource_state_degree();
        let merge_law = MergeLaw::new(degree, m, config.effective_fusion_prob());
        let site_init = merge_law
            .outcomes()
            .iter()
            .map(|&(o, _)| SiteInit {
                budget: o.leaves.saturating_sub(1).min(BUDGET_CAP) as u8,
                present: u64::from(o.leaves >= 2),
                port: u64::from(o.leaves >= 1),
                attempts: u64::from(o.attempts),
                successes: u64::from(o.successes),
            })
            .collect();
        FusionEngine {
            strategy: FusionStrategy::new(config),
            sampler: FusionSampler::new(config.effective_fusion_prob(), seed),
            raw_rsl_consumed: 0,
            whole_row: m == 1 && degree >= 6,
            merge_law,
            site_init,
            budget: Vec::new(),
            planes: Vec::new(),
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
    /// over — while keeping the per-site scratch allocations and the
    /// merge-law tables warm. Long-lived execution contexts use this to run
    /// many seeded experiments through one engine without paying
    /// construction cost per run.
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
        let stats_before = self.sampler.stats();

        layer.reset_blank(n, n);
        layer.raw_rsl_consumed = m;
        self.raw_rsl_consumed += m as u64;
        if self.whole_row {
            self.generate_whole_row(layer);
        } else {
            self.generate_merged(layer);
        }

        let stats_after = self.sampler.stats();
        layer.fusions_attempted = stats_after.attempted - stats_before.attempted;
        layer.fusions_succeeded = stats_after.succeeded - stats_before.succeeded;
    }

    /// The word-parallel path (see the module docs): one alias draw per
    /// site, four outcome planes, one step-table lookup per bond.
    fn generate_merged(&mut self, layer: &mut PhysicalLayer) {
        let n = self.config().rsl_size;
        let total = n * n;
        let FusionEngine { sampler, merge_law, site_init, budget, planes, .. } = self;
        let mut stats = FusionStats::default();

        // Merging phase. The RNG words of a 64-site chunk go into a local
        // buffer first, so the RNG state stays in registers instead of
        // being spilled around every per-site store.
        budget.clear();
        budget.resize(total, 0);
        let mut words = [0u64; 64];
        for (wi, chunk) in budget.chunks_mut(64).enumerate() {
            let words = &mut words[..chunk.len()];
            sampler.fill_uniform(words);
            let (mut present, mut port) = (0u64, 0u64);
            for (j, (b, &w)) in chunk.iter_mut().zip(words.iter()).enumerate() {
                let init = &site_init[merge_law.pick(w)];
                *b = init.budget;
                present |= init.present << j;
                port |= init.port << j;
                stats.attempted += init.attempts;
                stats.succeeded += init.successes;
            }
            layer.store_site_word(wi, present);
            layer.store_port_word(wi, port);
        }

        // Bond phase: east first, north first, east retry, north retry.
        let plane_words = total.div_ceil(64);
        planes.clear();
        planes.resize(4 * plane_words, 0);
        sampler.fill_outcome_words(planes);
        let (first, retry) = planes.split_at(2 * plane_words);
        let (east1, north1) = first.split_at(plane_words);
        let (east2, north2) = retry.split_at(plane_words);

        // The sweep runs one step-table lookup per bond. The budget of the
        // site being swept travels in `cur`, already in key position: its
        // east bond hands the east neighbor's new budget on as the next
        // `cur`, and its north bond writes the northern neighbor's back.
        // The outcome bits of the site's bonds are shifted out of the four
        // plane words one site at a time, and the realized bonds are
        // gathered into one word per plane before they are stored.
        let mut attempted = 0usize;
        let (mut east_word, mut north_word) = (0u64, 0u64);
        let (mut e1, mut e2, mut n1, mut n2) = (0u64, 0u64, 0u64, 0u64);
        for y in 0..n {
            let row = y * n;
            let up = usize::from(y + 1 < n);
            let up_next = usize::from(y + 2 < n);
            // `remaining` of both ends: inner bonds, then the last column's.
            let east_inner = step_geometry(1 + up, 1 + up);
            let east_last = step_geometry(1 + up, up);
            let north_inner = step_geometry(2, 1 + up_next);
            let north_last = step_geometry(1, up_next);
            let mut cur = usize::from(budget[row]) << 6;
            for x in 0..n {
                let a = row + x;
                let s = a % 64;
                if s == 0 {
                    let w = a / 64;
                    (e1, e2, n1, n2) = (east1[w], east2[w], north1[w], north2[w]);
                }
                let mut next = 0;
                if x + 1 < n {
                    let geometry = if x + 2 < n { east_inner } else { east_last };
                    let bits = (e1 & 1 | (e2 & 1) << 1) as usize;
                    let key = geometry | cur | usize::from(budget[a + 1]) << 2 | bits;
                    let e = usize::from(STEP[key]);
                    attempted += e >> 14;
                    east_word |= ((e & 1) as u64) << s;
                    cur = e & BUDGET_FIELD;
                    next = e >> 4 & BUDGET_FIELD;
                }
                if up == 1 {
                    let geometry = if x + 1 < n { north_inner } else { north_last };
                    let bits = (n1 & 1 | (n2 & 1) << 1) as usize;
                    let key = geometry | cur | usize::from(budget[a + n]) << 2 | bits;
                    let e = usize::from(STEP[key]);
                    budget[a + n] = (e >> 10 & 0xf) as u8;
                    attempted += e >> 14;
                    north_word |= ((e & 1) as u64) << s;
                }
                (e1, e2, n1, n2) = (e1 >> 1, e2 >> 1, n1 >> 1, n2 >> 1);
                if s == 63 || a + 1 == total {
                    layer.or_bond_east_word(a / 64, east_word);
                    layer.or_bond_north_word(a / 64, north_word);
                    stats.succeeded += u64::from(east_word.count_ones() + north_word.count_ones());
                    (east_word, north_word) = (0, 0);
                }
                cur = next;
            }
        }
        stats.attempted += attempted as u64;
        sampler.record(stats);
    }

    /// Whole-row first-attempt path. With merging factor 1 the merging
    /// phase draws nothing and every site starts with `degree - 1 ≥ 5`
    /// in-plane leaves, and that budget provably never reaches zero before
    /// a first attempt: retries are gated on `budget > remaining` (a
    /// per-site constant, at most 2), so each retry leaves at least that
    /// many leaves behind, and the worst-case drain before a site's last
    /// outgoing first attempt (two neighbor bonds with retries, then the
    /// own east bond) still leaves one leaf when starting from five. Every
    /// bond's first attempt is therefore unconditional, and a whole row of
    /// them can be pre-drawn as packed words — one `sample_batched_word`
    /// per 64 bonds with one stats update, instead of per-bit consumption —
    /// while the data-dependent retries keep reading the same batched
    /// stream bit by bit right after the row's words.
    ///
    /// The dense reference engine consumes this stream in exactly the same
    /// order, so site-for-site equivalence pins the layers.
    fn generate_whole_row(&mut self, layer: &mut PhysicalLayer) {
        let cfg = *self.config();
        let n = cfg.rsl_size;
        let FusionEngine { sampler, budget, row_east, row_north, .. } = self;
        // Every site holds `degree ≥ 6` leaves, so `reset_blank`'s
        // all-present, all-ports planes are already right.
        let start = (cfg.resource_state_degree() - 1).min(BUDGET_CAP) as u8;
        budget.clear();
        budget.resize(n * n, start);

        let idx = |x: usize, y: usize| y * n + x;
        let remaining_bonds = |x: usize, y: usize| u8::from(x + 1 < n) + u8::from(y + 1 < n);
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
                        budget[a] > 0 && budget[b] > 0,
                        "whole-row fast path drew a first attempt for a skipped bond"
                    );
                    budget[a] -= 1;
                    budget[b] -= 1;
                    let row = if east { &*row_east } else { &*row_north };
                    let mut ok = row[x / 64] >> (x % 64) & 1 == 1;
                    if !ok {
                        // Collective retry with redundant degrees.
                        let spare_a = budget[a] > remaining_bonds(x, y);
                        let spare_b = budget[b] > remaining_bonds(bx, by);
                        if spare_a && spare_b {
                            budget[a] -= 1;
                            budget[b] -= 1;
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
        // Discard leftover pre-drawn bits so any time-like fusion reads the
        // per-attempt stream from a deterministic state.
        sampler.flush_batch();
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

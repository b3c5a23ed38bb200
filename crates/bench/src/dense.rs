//! The pre-bit-packed, `Vec<bool>` layer representation plus two reference
//! layer generators, one per contract the bit-packed `FusionEngine` keeps.
//!
//! [`DenseBoolLayer`] stores the four per-site planes exactly as
//! `PhysicalLayer` did before it was bit-packed: one byte per site.
//!
//! * [`DenseReferenceEngine`] pins the **stream**. It replays
//!   `FusionEngine::generate_layer_into` draw for draw but writes through
//!   per-site boolean stores. Like the engine, it draws layer `i` of a run
//!   from a fresh sampler seeded with `layer_key(seed, i)`. On the
//!   whole-row path it makes the same batched-stream calls; on every
//!   other path it decodes the same uniform words through the same
//!   `MergeLaw` and reads the same four outcome planes, then sweeps the
//!   bonds with plain unclamped `usize` budgets instead of the engine's
//!   clamped step table. The `layer_equivalence` tests assert the two
//!   produce **identical** layers site for site (and counter for counter)
//!   across lattice sizes, merging factors, raised target degrees,
//!   probability sweeps and `reset_blank` reuse.
//! * [`DenseScalarEngine`] pins the **law**. It keeps the *verbatim
//!   pre-bit-packing generator*: per-site boolean planes **and** one scalar
//!   per-attempt `sample()` draw (one RNG word plus an f64 compare per
//!   attempt) for every merge and bond attempt, on the same keyed
//!   per-layer samplers. Its stream differs from the engine's, so the
//!   `generation_law` tests compare per-layer bonds, attempts, successes,
//!   present sites and ports against it in distribution.
//!
//! Since PR 6 this module also preserves the **scalar percolation
//! reference**: [`ScalarRenormalizer`], the pre-word-frontier band BFS of
//! `oneperc_percolation::Renormalizer` ported faithfully — the same
//! epoch-stamped visited/predecessor arrays, reused queue, pooled
//! intersection marks and per-site bit reads the PR-5 renormalizer used —
//! and [`scalar_modular_outcome`], the modular pipeline with the pre-span
//! per-pair joining scan (word prechecks and resettable union-find
//! included). The `layer_equivalence` BFS suite asserts the word-frontier
//! implementations stay site-for-site identical to these across the full
//! matrix; keeping the port allocation-for-allocation faithful also keeps
//! it a fair scalar-BFS timing baseline rather than a strawman.
//!
//! Do not "optimize" this module — matching the old representation is the
//! point.

use graphstate::DisjointSet;
use oneperc_hardware::{
    layer_key, FusionSampler, FusionStats, HardwareConfig, MergeLaw, PhysicalLayer,
};
use oneperc_percolation::{ModularConfig, ModularOutcome, RenormalizedLattice};

/// One random physical layer in the dense one-`bool`-per-site
/// representation (the pre-PR-5 `PhysicalLayer` storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseBoolLayer {
    /// Sites along the x axis.
    pub width: usize,
    /// Sites along the y axis.
    pub height: usize,
    site_present: Vec<bool>,
    bond_east: Vec<bool>,
    bond_north: Vec<bool>,
    temporal_port: Vec<bool>,
    /// Raw RSLs consumed to produce this merged layer.
    pub raw_rsl_consumed: usize,
    /// Fusions attempted while producing this layer.
    pub fusions_attempted: u64,
    /// Fusions that succeeded while producing this layer.
    pub fusions_succeeded: u64,
}

impl DenseBoolLayer {
    /// Creates an empty layer (all sites present, no bonds, all ports
    /// available).
    pub fn blank(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "layer dimensions must be positive");
        DenseBoolLayer {
            width,
            height,
            site_present: vec![true; width * height],
            bond_east: vec![false; width * height],
            bond_north: vec![false; width * height],
            temporal_port: vec![true; width * height],
            raw_rsl_consumed: 1,
            fusions_attempted: 0,
            fusions_succeeded: 0,
        }
    }

    /// Resets to the blank state of the given dimensions, reusing the
    /// allocations (the dense twin of `PhysicalLayer::reset_blank`).
    pub fn reset_blank(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "layer dimensions must be positive");
        let n = width * height;
        self.width = width;
        self.height = height;
        self.site_present.clear();
        self.site_present.resize(n, true);
        self.bond_east.clear();
        self.bond_east.resize(n, false);
        self.bond_north.clear();
        self.bond_north.resize(n, false);
        self.temporal_port.clear();
        self.temporal_port.resize(n, true);
        self.raw_rsl_consumed = 1;
        self.fusions_attempted = 0;
        self.fusions_succeeded = 0;
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// Whether the site at `(x, y)` holds a usable resource state.
    pub fn site_present(&self, x: usize, y: usize) -> bool {
        self.site_present[self.idx(x, y)]
    }

    /// Whether the bond from `(x, y)` to `(x + 1, y)` is present.
    pub fn bond_east(&self, x: usize, y: usize) -> bool {
        x + 1 < self.width && self.bond_east[self.idx(x, y)]
    }

    /// Whether the bond from `(x, y)` to `(x, y + 1)` is present.
    pub fn bond_north(&self, x: usize, y: usize) -> bool {
        y + 1 < self.height && self.bond_north[self.idx(x, y)]
    }

    /// Whether the site at `(x, y)` retains a time-like fusion photon.
    pub fn temporal_port(&self, x: usize, y: usize) -> bool {
        self.temporal_port[self.idx(x, y)]
    }

    /// Number of present bonds, counted the naive byte-walk way.
    pub fn bond_count(&self) -> usize {
        let mut count = 0;
        for y in 0..self.height {
            for x in 0..self.width {
                if self.bond_east(x, y) {
                    count += 1;
                }
                if self.bond_north(x, y) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Number of present sites, counted the naive byte-walk way.
    pub fn present_site_count(&self) -> usize {
        self.site_present.iter().filter(|&&b| b).count()
    }

    /// Compares this dense layer against a bit-packed layer site for site
    /// (all four planes) and counter for counter, returning the first
    /// mismatch as a message.
    pub fn mismatch(&self, packed: &PhysicalLayer) -> Option<String> {
        if self.width != packed.width || self.height != packed.height {
            return Some(format!(
                "dimensions differ: dense {}x{}, packed {}x{}",
                self.width, self.height, packed.width, packed.height
            ));
        }
        for y in 0..self.height {
            for x in 0..self.width {
                let checks = [
                    ("site", self.site_present(x, y), packed.site_present(x, y)),
                    ("east", self.bond_east(x, y), packed.bond_east(x, y)),
                    ("north", self.bond_north(x, y), packed.bond_north(x, y)),
                    ("port", self.temporal_port(x, y), packed.temporal_port(x, y)),
                ];
                for (plane, dense, bits) in checks {
                    if dense != bits {
                        return Some(format!(
                            "{plane} plane differs at ({x}, {y}): dense {dense}, packed {bits}"
                        ));
                    }
                }
            }
        }
        if self.raw_rsl_consumed != packed.raw_rsl_consumed {
            return Some(format!(
                "raw_rsl_consumed differs: dense {}, packed {}",
                self.raw_rsl_consumed, packed.raw_rsl_consumed
            ));
        }
        if self.fusions_attempted != packed.fusions_attempted
            || self.fusions_succeeded != packed.fusions_succeeded
        {
            return Some(format!(
                "fusion counters differ: dense {}/{}, packed {}/{}",
                self.fusions_attempted,
                self.fusions_succeeded,
                packed.fusions_attempted,
                packed.fusions_succeeded
            ));
        }
        None
    }
}

/// Reference layer generator: the fusion strategy of
/// `FusionEngine::generate_layer_into`, transcribed onto the dense
/// representation with draw-for-draw identical sampler usage, so a given
/// seed must yield exactly the layer the bit-packed engine yields.
///
/// Each layer draws from its own sampler, seeded with
/// `layer_key(seed, index)`.
///
/// - Whole-row configurations (merging factor 1, degree ≥ 6): each row's
///   first attempts are pre-drawn as batched words, and retries read the
///   batched stream bit by bit.
/// - Every other configuration: one uniform word per site decoded through
///   the same [`MergeLaw`], then the four outcome planes (east first, north
///   first, east retry, north retry), then a plain scalar budget sweep over
///   unclamped `usize` budgets. This is the engine's step-table kernel
///   without the table and without the clamp.
#[derive(Debug, Clone)]
pub struct DenseReferenceEngine {
    config: HardwareConfig,
    seed: u64,
    /// Index of the next layer of the run.
    next_index: u64,
    /// The current layer's sampler.
    sampler: FusionSampler,
    stats: FusionStats,
    merge_law: MergeLaw,
    raw_rsl_consumed: u64,
    inplane_budget: Vec<usize>,
    /// Pre-drawn first-attempt words for one row of east/north bonds
    /// (mirrors the engine's whole-row fast path draw order).
    row_east: Vec<u64>,
    row_north: Vec<u64>,
}

impl DenseReferenceEngine {
    /// Creates a reference engine for the given configuration and seed
    /// (mirrors `FusionEngine::new`).
    pub fn new(config: HardwareConfig, seed: u64) -> Self {
        let p = config.effective_fusion_prob();
        DenseReferenceEngine {
            config,
            seed,
            next_index: 0,
            sampler: FusionSampler::new(p, layer_key(seed, 0)),
            stats: FusionStats::default(),
            merge_law: MergeLaw::new(config.resource_state_degree(), config.merging_factor(), p),
            raw_rsl_consumed: 0,
            inplane_budget: Vec::new(),
            row_east: Vec::new(),
            row_north: Vec::new(),
        }
    }

    /// Total raw RSLs consumed so far.
    pub fn raw_rsl_consumed(&self) -> u64 {
        self.raw_rsl_consumed
    }

    /// Accumulated fusion-attempt statistics.
    pub fn fusion_stats(&self) -> FusionStats {
        self.stats
    }

    /// Executes the fusion strategy for the next layer of the run into
    /// `layer`.
    pub fn generate_layer_into(&mut self, layer: &mut DenseBoolLayer) {
        let cfg = self.config;
        let n = cfg.rsl_size;
        let m = cfg.merging_factor();
        let base_degree = cfg.resource_state_degree();
        let key = layer_key(self.seed, self.next_index);
        self.next_index += 1;
        self.sampler = FusionSampler::new(cfg.effective_fusion_prob(), key);

        layer.reset_blank(n, n);
        layer.raw_rsl_consumed = m;
        self.raw_rsl_consumed += m as u64;
        if m == 1 && base_degree >= 6 {
            self.generate_whole_row(layer);
        } else {
            self.generate_merged(layer);
        }

        let stats = self.sampler.stats();
        layer.fusions_attempted = stats.attempted;
        layer.fusions_succeeded = stats.succeeded;
        self.stats.absorb(stats);
    }

    /// Merged path: one alias draw per site, four outcome planes, then the
    /// scalar budget sweep, one boolean store at a time.
    fn generate_merged(&mut self, layer: &mut DenseBoolLayer) {
        let n = self.config.rsl_size;
        let total = n * n;
        let mut stats = FusionStats::default();

        let mut words = vec![0u64; total];
        self.sampler.fill_uniform(&mut words);
        self.inplane_budget.clear();
        for (i, &word) in words.iter().enumerate() {
            let (outcome, _) = self.merge_law.outcomes()[self.merge_law.pick(word)];
            stats.attempted += u64::from(outcome.attempts);
            stats.succeeded += u64::from(outcome.successes);
            let forward = outcome.leaves >= 1;
            layer.temporal_port[i] = forward;
            layer.site_present[i] = outcome.leaves >= 2;
            self.inplane_budget.push(outcome.leaves - usize::from(forward));
        }

        let plane_words = total.div_ceil(64);
        let mut planes = vec![0u64; 4 * plane_words];
        self.sampler.fill_outcome_words(&mut planes);
        let bit =
            |plane: usize, i: usize| planes[plane * plane_words + i / 64] >> (i % 64) & 1 == 1;

        let idx = |x: usize, y: usize| y * n + x;
        let remaining_bonds = |x: usize, y: usize| usize::from(x + 1 < n) + usize::from(y + 1 < n);
        for y in 0..n {
            for x in 0..n {
                for east in [true, false] {
                    let (bx, by) = if east { (x + 1, y) } else { (x, y + 1) };
                    if bx >= n || by >= n {
                        continue;
                    }
                    let a = idx(x, y);
                    let b = idx(bx, by);
                    if self.inplane_budget[a] == 0 || self.inplane_budget[b] == 0 {
                        continue;
                    }
                    let (first_plane, retry_plane) = if east { (0, 2) } else { (1, 3) };
                    self.inplane_budget[a] -= 1;
                    self.inplane_budget[b] -= 1;
                    stats.attempted += 1;
                    let mut ok = bit(first_plane, a);
                    if !ok
                        && self.inplane_budget[a] > remaining_bonds(x, y)
                        && self.inplane_budget[b] > remaining_bonds(bx, by)
                    {
                        self.inplane_budget[a] -= 1;
                        self.inplane_budget[b] -= 1;
                        stats.attempted += 1;
                        ok = bit(retry_plane, a);
                    }
                    if ok {
                        stats.succeeded += 1;
                        if east {
                            layer.bond_east[a] = true;
                        } else {
                            layer.bond_north[a] = true;
                        }
                    }
                }
            }
        }
        self.sampler.record(stats);
    }

    /// Whole-row path: a row's east then north first attempts are
    /// pre-drawn as packed words, and only the data-dependent retries
    /// consume the batched stream bit by bit during the sweep.
    fn generate_whole_row(&mut self, layer: &mut DenseBoolLayer) {
        let n = self.config.rsl_size;
        self.inplane_budget.clear();
        self.inplane_budget.resize(n * n, self.config.resource_state_degree() - 1);

        let idx = |x: usize, y: usize| y * n + x;
        let remaining_bonds = |x: usize, y: usize| usize::from(x + 1 < n) + usize::from(y + 1 < n);
        for y in 0..n {
            self.row_east.clear();
            for cx in 0..(n - 1).div_ceil(64) {
                let cnt = 64.min(n - 1 - cx * 64) as u32;
                self.row_east.push(self.sampler.sample_batched_word(cnt));
            }
            self.row_north.clear();
            if y + 1 < n {
                for cx in 0..n.div_ceil(64) {
                    let cnt = 64.min(n - cx * 64) as u32;
                    self.row_north.push(self.sampler.sample_batched_word(cnt));
                }
            }
            for x in 0..n {
                for east in [true, false] {
                    let (bx, by) = if east { (x + 1, y) } else { (x, y + 1) };
                    if bx >= n || by >= n {
                        continue;
                    }
                    let a = idx(x, y);
                    let b = idx(bx, by);
                    self.inplane_budget[a] -= 1;
                    self.inplane_budget[b] -= 1;
                    let row = if east { &self.row_east } else { &self.row_north };
                    let mut ok = row[x / 64] >> (x % 64) & 1 == 1;
                    if !ok {
                        let spare_a = self.inplane_budget[a] > remaining_bonds(x, y);
                        let spare_b = self.inplane_budget[b] > remaining_bonds(bx, by);
                        if spare_a && spare_b {
                            self.inplane_budget[a] -= 1;
                            self.inplane_budget[b] -= 1;
                            ok = self.sampler.sample_batched().is_success();
                        }
                    }
                    if ok {
                        if east {
                            layer.bond_east[a] = true;
                        } else {
                            layer.bond_north[a] = true;
                        }
                    }
                }
            }
        }
    }
}

/// The *verbatim pre-PR-5 layer generator*: dense boolean planes and one
/// scalar per-attempt [`FusionSampler::sample`] draw per fusion, exactly
/// as `FusionEngine::generate_layer_into` worked before the word refactor
/// (including the in-plane presence checks the budget test has since
/// subsumed), with one change: like the engine, it draws layer `i` of a run
/// from a fresh sampler seeded with `layer_key(seed, i)`. Its stochastic
/// stream still differs from the engine's — it is the distributional
/// reference for the layer law (per-attempt draws, no batching, no
/// tables), not a site-for-site equivalence reference.
#[derive(Debug, Clone)]
pub struct DenseScalarEngine {
    config: HardwareConfig,
    seed: u64,
    /// Index of the next layer of the run.
    next_index: u64,
    /// The current layer's sampler.
    sampler: FusionSampler,
    stats: FusionStats,
    site_leaves: Vec<usize>,
    inplane_budget: Vec<usize>,
}

impl DenseScalarEngine {
    /// Creates a pre-PR-5-style engine for the given configuration and
    /// seed.
    pub fn new(config: HardwareConfig, seed: u64) -> Self {
        DenseScalarEngine {
            config,
            seed,
            next_index: 0,
            sampler: FusionSampler::new(config.effective_fusion_prob(), layer_key(seed, 0)),
            stats: FusionStats::default(),
            site_leaves: Vec::new(),
            inplane_budget: Vec::new(),
        }
    }

    /// Accumulated fusion-attempt statistics.
    pub fn fusion_stats(&self) -> FusionStats {
        self.stats
    }

    /// Executes the pre-PR-5 fusion strategy for the next layer of the run.
    pub fn generate_layer_into(&mut self, layer: &mut DenseBoolLayer) {
        let cfg = self.config;
        let n = cfg.rsl_size;
        let m = cfg.merging_factor();
        let base_degree = cfg.resource_state_degree();
        let key = layer_key(self.seed, self.next_index);
        self.next_index += 1;
        self.sampler = FusionSampler::new(cfg.effective_fusion_prob(), key);

        layer.reset_blank(n, n);
        layer.raw_rsl_consumed = m;

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

        self.inplane_budget.clear();
        for (i, &leaves) in self.site_leaves.iter().enumerate() {
            let mut remaining = leaves;
            let forward = remaining >= 1;
            if forward {
                remaining -= 1;
            }
            layer.temporal_port[i] = forward;
            layer.site_present[i] = leaves >= 2;
            self.inplane_budget.push(remaining);
        }

        let idx = |x: usize, y: usize| y * n + x;
        let remaining_bonds = |x: usize, y: usize| -> usize {
            let mut c = 0;
            if x + 1 < n {
                c += 1;
            }
            if y + 1 < n {
                c += 1;
            }
            c
        };
        for y in 0..n {
            for x in 0..n {
                for east in [true, false] {
                    let (bx, by) = if east { (x + 1, y) } else { (x, y + 1) };
                    if bx >= n || by >= n {
                        continue;
                    }
                    let a = idx(x, y);
                    let b = idx(bx, by);
                    if !layer.site_present[a] || !layer.site_present[b] {
                        continue;
                    }
                    if self.inplane_budget[a] == 0 || self.inplane_budget[b] == 0 {
                        continue;
                    }
                    self.inplane_budget[a] -= 1;
                    self.inplane_budget[b] -= 1;
                    let mut ok = self.sampler.sample().is_success();
                    if !ok {
                        let spare_a = self.inplane_budget[a] > remaining_bonds(x, y);
                        let spare_b = self.inplane_budget[b] > remaining_bonds(bx, by);
                        if spare_a && spare_b {
                            self.inplane_budget[a] -= 1;
                            self.inplane_budget[b] -= 1;
                            ok = self.sampler.sample().is_success();
                        }
                    }
                    if ok {
                        if east {
                            layer.bond_east[a] = true;
                        } else {
                            layer.bond_north[a] = true;
                        }
                    }
                }
            }
        }

        let stats = self.sampler.stats();
        layer.fusions_attempted = stats.attempted;
        layer.fusions_succeeded = stats.succeeded;
        self.stats.absorb(stats);
    }
}

/// Sentinel flat index meaning "no site" (the scalar twin of the
/// percolation crate's internal sentinel).
const NO_SITE: u32 = u32::MAX;

/// The outcome of the scalar reference renormalization; field-for-field
/// the pre-PR-6 `RenormalizedLattice`, with public fields so the
/// equivalence suite can poke at it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarLattice {
    /// The coarse lattice side `k`.
    pub target_side: usize,
    /// Band width used for the decomposition.
    pub node_size: usize,
    /// Width of the source layer (for decoding flat indices).
    pub layer_width: usize,
    /// Representative site per coarse node, `u32::MAX` when unrealized.
    pub nodes: Vec<u32>,
    /// Vertical path per coarse column.
    pub v_paths: Vec<Option<Vec<u32>>>,
    /// Horizontal path per coarse row.
    pub h_paths: Vec<Option<Vec<u32>>>,
}

impl ScalarLattice {
    /// Number of coarse nodes realized.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|&&s| s != NO_SITE).count()
    }

    /// Compares this scalar-reference lattice against a word-frontier
    /// [`RenormalizedLattice`] through its public accessors — target
    /// geometry, every node representative and the full contents of every
    /// path — returning the first difference as a message.
    pub fn mismatch(&self, word: &RenormalizedLattice) -> Option<String> {
        if self.target_side != word.target_side() {
            return Some(format!(
                "target side differs: scalar {}, word {}",
                self.target_side,
                word.target_side()
            ));
        }
        if self.node_size != word.node_size() || self.layer_width != word.layer_width() {
            return Some("band geometry differs".to_string());
        }
        let k = self.target_side;
        for i in 0..k {
            for j in 0..k {
                let scalar = self.nodes[i * k + j];
                let scalar = if scalar == NO_SITE { None } else { Some(scalar) };
                if scalar != word.node_flat(i, j) {
                    return Some(format!(
                        "node ({i}, {j}) differs: scalar {scalar:?}, word {:?}",
                        word.node_flat(i, j)
                    ));
                }
            }
        }
        for i in 0..k {
            if self.v_paths[i].as_deref() != word.v_path(i) {
                return Some(format!("vertical path {i} differs"));
            }
            if self.h_paths[i].as_deref() != word.h_path(i) {
                return Some(format!("horizontal path {i} differs"));
            }
        }
        None
    }
}

/// The pre-PR-6 band-restricted scalar BFS renormalizer, preserved as the
/// reference for the word-frontier implementation: one queue BFS per band
/// over per-site bit reads, neighbor order east/west/north/south, the
/// first end-edge site dequeued terminating the search.
///
/// The scratch handling is the *faithful* PR-5 pool, not a simplified
/// per-call transcription: epoch-stamped `u32` visited/predecessor arrays
/// sized to the layer, a reused queue buffer, pooled intersection marks
/// and a resettable union-find for the joining scan. The steady state
/// therefore allocates only the output paths — exactly what the pre-word
/// renormalizer did — so benchmarking against it measures the word
/// frontier, not allocator traffic the old code never paid.
#[derive(Debug, Clone, Default)]
pub struct ScalarRenormalizer {
    /// Epoch stamp per flat site: `visited[i] == epoch` means visited.
    visited: Vec<u32>,
    /// BFS predecessor per flat site (valid only where `visited` is
    /// current).
    prev: Vec<u32>,
    /// BFS queue, head-indexed so the buffer is reused.
    queue: Vec<u32>,
    /// Epoch stamp per flat site marking vertical-path membership during
    /// intersection tests.
    mark: Vec<u32>,
    epoch: u32,
    mark_epoch: u32,
    /// Resettable union-find for the per-pair joining scan.
    dsu: DisjointSet,
}

impl ScalarRenormalizer {
    /// Creates a renormalizer with an empty scratch pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
            self.prev.resize(n, NO_SITE);
            self.mark.resize(n, 0);
        }
    }

    fn begin_search(&mut self) -> u32 {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.visited.fill(0);
                1
            }
        };
        self.queue.clear();
        self.epoch
    }

    fn begin_mark(&mut self) -> u32 {
        self.mark_epoch = match self.mark_epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
        self.mark_epoch
    }

    /// Renormalizes an entire layer (scalar twin of
    /// `Renormalizer::renormalize`).
    pub fn renormalize(&mut self, layer: &PhysicalLayer, node_size: usize) -> ScalarLattice {
        self.renormalize_region(layer, (0, 0), layer.width, layer.height, node_size)
    }

    /// Renormalizes a sub-rectangle of the layer (scalar twin of
    /// `Renormalizer::renormalize_region`).
    pub fn renormalize_region(
        &mut self,
        layer: &PhysicalLayer,
        origin: (usize, usize),
        width: usize,
        height: usize,
        node_size: usize,
    ) -> ScalarLattice {
        assert!(node_size > 0, "node size must be positive");
        let (ox, oy) = origin;
        let k = (width / node_size).min(height / node_size);

        self.ensure(layer.width * layer.height);

        let mut v_paths: Vec<Option<Vec<u32>>> = Vec::with_capacity(k);
        let mut h_paths: Vec<Option<Vec<u32>>> = Vec::with_capacity(k);
        for band in 0..k {
            let band_lo = band * node_size;
            let band_hi = band_lo + node_size;
            v_paths.push(self.search_path(
                layer,
                (ox + band_lo, ox + band_hi, oy, oy + height),
                true,
            ));
            h_paths.push(self.search_path(
                layer,
                (ox, ox + width, oy + band_lo, oy + band_hi),
                false,
            ));
        }

        let w = layer.width;
        let mut nodes = vec![NO_SITE; k * k];
        for (i, vp) in v_paths.iter().enumerate() {
            let Some(vp) = vp else { continue };
            let mark = self.begin_mark();
            for &s in vp {
                self.mark[s as usize] = mark;
            }
            for (j, hp) in h_paths.iter().enumerate() {
                let Some(hp) = hp else { continue };
                if let Some(&site) = hp.iter().find(|&&s| self.mark[s as usize] == mark) {
                    nodes[i * k + j] = site;
                } else if let Some(site) = scalar_closest_block_site(vp, hp, w, node_size, origin, i, j)
                {
                    nodes[i * k + j] = site;
                }
            }
        }

        ScalarLattice { target_side: k, node_size, layer_width: w, nodes, v_paths, h_paths }
    }

    /// One band-restricted scalar BFS: `bounds` is `(x_lo, x_hi, y_lo,
    /// y_hi)` with exclusive upper bounds. Seeds come off the packed site
    /// words for vertical bands (one contiguous row segment) and per-site
    /// reads for horizontal ones — the same split PR 5 used.
    fn search_path(
        &mut self,
        layer: &PhysicalLayer,
        bounds: (usize, usize, usize, usize),
        vertical: bool,
    ) -> Option<Vec<u32>> {
        let w = layer.width;
        let (x_lo, x_hi, y_lo, y_hi) = bounds;

        let epoch = self.begin_search();

        if vertical {
            let row = y_lo * w;
            for i in layer.present_in_range(row + x_lo, row + x_hi) {
                self.visited[i] = epoch;
                self.prev[i] = NO_SITE;
                self.queue.push(i as u32);
            }
        } else {
            for y in y_lo..y_hi {
                let i = y * w + x_lo;
                if layer.site_present_at(i) {
                    self.visited[i] = epoch;
                    self.prev[i] = NO_SITE;
                    self.queue.push(i as u32);
                }
            }
        }

        let mut head = 0usize;
        while head < self.queue.len() {
            let idx = self.queue[head];
            head += 1;
            let iu = idx as usize;
            let y = iu / w;
            let x = iu - y * w;

            let at_end = if vertical { y == y_hi - 1 } else { x == x_hi - 1 };
            if at_end {
                let mut path = vec![idx];
                let mut cur = idx;
                while self.prev[cur as usize] != NO_SITE {
                    cur = self.prev[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }

            // Neighbor order east, west, north, south — the tie-break the
            // word implementation must reproduce path for path.
            if x + 1 < x_hi && layer.bond_east_at(iu) {
                let n = iu + 1;
                if self.visited[n] != epoch && layer.site_present_at(n) {
                    self.visited[n] = epoch;
                    self.prev[n] = idx;
                    self.queue.push(n as u32);
                }
            }
            if x > x_lo && layer.bond_east_at(iu - 1) {
                let n = iu - 1;
                if self.visited[n] != epoch && layer.site_present_at(n) {
                    self.visited[n] = epoch;
                    self.prev[n] = idx;
                    self.queue.push(n as u32);
                }
            }
            if y + 1 < y_hi && layer.bond_north_at(iu) {
                let n = iu + w;
                if self.visited[n] != epoch && layer.site_present_at(n) {
                    self.visited[n] = epoch;
                    self.prev[n] = idx;
                    self.queue.push(n as u32);
                }
            }
            if y > y_lo && layer.bond_north_at(iu - w) {
                let n = iu - w;
                if self.visited[n] != epoch && layer.site_present_at(n) {
                    self.visited[n] = epoch;
                    self.prev[n] = idx;
                    self.queue.push(n as u32);
                }
            }
        }
        None
    }
}

/// Fallback coarse-node site when the two paths share no site (copied from
/// the percolation crate so the reference stays self-contained).
fn scalar_closest_block_site(
    vp: &[u32],
    hp: &[u32],
    layer_width: usize,
    node_size: usize,
    origin: (usize, usize),
    i: usize,
    j: usize,
) -> Option<u32> {
    let (ox, oy) = origin;
    let x_lo = ox + i * node_size;
    let x_hi = x_lo + node_size;
    let y_lo = oy + j * node_size;
    let y_hi = y_lo + node_size;
    let decode = |s: u32| (s as usize % layer_width, s as usize / layer_width);
    let in_block = |(x, y): (usize, usize)| x >= x_lo && x < x_hi && y >= y_lo && y < y_hi;
    let mut best: Option<(u32, usize)> = None;
    for &v in vp {
        let vc = decode(v);
        if !in_block(vc) {
            continue;
        }
        for &h in hp {
            let hc = decode(h);
            if !in_block(hc) {
                continue;
            }
            let d = vc.0.abs_diff(hc.0) + vc.1.abs_diff(hc.1);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((v, d));
            }
        }
    }
    best.map(|(s, _)| s)
}

/// Outcome of the scalar reference modular pipeline; the counter subset of
/// `ModularOutcome` plus the per-module scalar lattices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarModularOutcome {
    /// Per-module lattices in row-major module order.
    pub modules: Vec<ScalarLattice>,
    /// Coarse nodes surviving the joining step.
    pub joined_nodes: usize,
    /// Coarse nodes found inside modules before joining.
    pub module_nodes: usize,
    /// Joining paths attempted.
    pub joins_attempted: usize,
    /// Joining paths found.
    pub joins_found: usize,
}

impl ScalarModularOutcome {
    /// Compares against a word-implementation [`ModularOutcome`], modules
    /// included, returning the first difference.
    pub fn mismatch(&self, word: &ModularOutcome) -> Option<String> {
        for (m, (scalar, wide)) in self.modules.iter().zip(word.modules.iter()).enumerate() {
            if let Some(msg) = scalar.mismatch(wide) {
                return Some(format!("module {m}: {msg}"));
            }
        }
        if self.modules.len() != word.modules.len() {
            return Some("module count differs".to_string());
        }
        let counters = [
            ("joined_nodes", self.joined_nodes, word.joined_nodes),
            ("module_nodes", self.module_nodes, word.module_nodes),
            ("joins_attempted", self.joins_attempted, word.joins_attempted),
            ("joins_found", self.joins_found, word.joins_found),
        ];
        for (name, scalar, wide) in counters {
            if scalar != wide {
                return Some(format!("{name} differs: scalar {scalar}, word {wide}"));
            }
        }
        None
    }
}

/// The scalar reference modular pipeline: scalar per-module BFS plus the
/// pre-span **per-pair** joining scan (one `union` per present bond of the
/// strip), preserved as the baseline the span-union `join_across` must
/// match join for join. Takes the renormalizer by reference so a streaming
/// caller (the bench, the equivalence suite) reuses the scratch pool
/// across RSLs, exactly as `ModularRenormalizer` held one `Renormalizer`
/// before PR 6.
pub fn scalar_modular_outcome(
    layer: &PhysicalLayer,
    config: &ModularConfig,
    renorm: &mut ScalarRenormalizer,
) -> ScalarModularOutcome {
    let g = config.modules_per_side;
    let layout = config.layout(layer.width.min(layer.height));
    let stride = layout.module_len + layout.interval_len;
    let node_size = config.node_size.min(layout.module_len.max(1));

    let mut modules = Vec::with_capacity(g * g);
    for gy in 0..g {
        for gx in 0..g {
            let (ox, oy) = (gx * stride, gy * stride);
            let width = layout.module_len.min(layer.width.saturating_sub(ox));
            let height = layout.module_len.min(layer.height.saturating_sub(oy));
            modules.push(renorm.renormalize_region(layer, (ox, oy), width, height, node_size));
        }
    }
    let module_nodes: usize = modules.iter().map(ScalarLattice::node_count).sum();

    let mut joins_attempted = 0usize;
    let mut joins_found = 0usize;
    let k = modules.first().map_or(0, |m| m.target_side);
    let mut row_ok = vec![true; g * k];
    let mut col_ok = vec![true; g * k];

    if g > 1 && layout.interval_len > 0 && k > 0 {
        for gy in 0..g {
            for gx in 0..g {
                let m_idx = gy * g + gx;
                if gx + 1 < g {
                    for row in 0..k {
                        joins_attempted += 1;
                        let ok = scalar_join_across(
                            layer,
                            &modules[m_idx],
                            &modules[m_idx + 1],
                            (gx * stride, gy * stride),
                            ((gx + 1) * stride, gy * stride),
                            layout.module_len,
                            row,
                            true,
                            &mut renorm.dsu,
                        );
                        if ok {
                            joins_found += 1;
                        } else {
                            row_ok[gy * k + row] = false;
                        }
                    }
                }
                if gy + 1 < g {
                    for col in 0..k {
                        joins_attempted += 1;
                        let ok = scalar_join_across(
                            layer,
                            &modules[m_idx],
                            &modules[m_idx + g],
                            (gx * stride, gy * stride),
                            (gx * stride, (gy + 1) * stride),
                            layout.module_len,
                            col,
                            false,
                            &mut renorm.dsu,
                        );
                        if ok {
                            joins_found += 1;
                        } else {
                            col_ok[gx * k + col] = false;
                        }
                    }
                }
            }
        }
    }

    let mut joined_nodes = 0usize;
    for gy in 0..g {
        for gx in 0..g {
            let m = &modules[gy * g + gx];
            for i in 0..m.target_side {
                for j in 0..m.target_side {
                    if m.nodes[i * m.target_side + j] == NO_SITE {
                        continue;
                    }
                    let global_row_ok = g == 1 || row_ok.get(gy * k + j).copied().unwrap_or(true);
                    let global_col_ok = g == 1 || col_ok.get(gx * k + i).copied().unwrap_or(true);
                    if global_row_ok && global_col_ok {
                        joined_nodes += 1;
                    }
                }
            }
        }
    }

    ScalarModularOutcome { modules, joined_nodes, module_nodes, joins_attempted, joins_found }
}

/// The pre-span joining scan, ported faithfully from the PR-5
/// `join_across`: the word-scan precheck over the packed site plane, then
/// a resettable union-find over the strip with one `union` per present
/// bond, scanning the present sites of each strip row off the packed site
/// words.
#[allow(clippy::too_many_arguments)]
fn scalar_join_across(
    layer: &PhysicalLayer,
    from: &ScalarLattice,
    to: &ScalarLattice,
    from_origin: (usize, usize),
    to_origin: (usize, usize),
    module_len: usize,
    lane: usize,
    horizontal: bool,
    dsu: &mut DisjointSet,
) -> bool {
    let from_path = if horizontal { from.h_paths[lane].as_deref() } else { from.v_paths[lane].as_deref() };
    let to_path = if horizontal { to.h_paths[lane].as_deref() } else { to.v_paths[lane].as_deref() };
    let (Some(from_path), Some(to_path)) = (from_path, to_path) else {
        return false;
    };
    let Some(&start) = from_path.last() else { return false };
    let Some(&goal) = to_path.first() else { return false };
    let decode = |s: u32| (s as usize % layer.width, s as usize / layer.width);
    let start = decode(start);
    let goal = decode(goal);

    let (sx_lo, sx_hi, sy_lo, sy_hi) = if horizontal {
        (
            from_origin.0 + module_len.saturating_sub(1),
            to_origin.0 + 1,
            from_origin.1 + lane * from.node_size,
            from_origin.1 + (lane + 1) * from.node_size,
        )
    } else {
        (
            from_origin.0 + lane * from.node_size,
            from_origin.0 + (lane + 1) * from.node_size,
            from_origin.1 + module_len.saturating_sub(1),
            to_origin.1 + 1,
        )
    };
    let allowed = |x: usize, y: usize| -> bool {
        x < layer.width
            && y < layer.height
            && x >= sx_lo
            && x <= sx_hi.min(layer.width - 1)
            && y >= sy_lo
            && y <= sy_hi.min(layer.height - 1)
            && layer.site_present(x, y)
    };
    if !allowed(start.0, start.1) || !allowed(goal.0, goal.1) {
        return false;
    }

    let x_hi_c = sx_hi.min(layer.width - 1);
    let y_hi_c = sy_hi.min(layer.height - 1);
    let lw = layer.width;

    // Word-scan precheck on the packed site plane: a crossing path visits
    // every column (horizontal join) / every row (vertical join) between
    // its endpoints, so a strip missing all present sites in one of them
    // cannot connect.
    let bits = layer.site_bits();
    if horizontal {
        let (span_lo, span_hi) = (start.0.min(goal.0), start.0.max(goal.0));
        let mut x0 = span_lo;
        while x0 <= span_hi {
            let x1 = (x0 + 64).min(span_hi + 1);
            let full = if x1 - x0 == 64 { u64::MAX } else { (1u64 << (x1 - x0)) - 1 };
            let mut cover = 0u64;
            for y in sy_lo..=y_hi_c {
                cover |= bits.range_word(y * lw + x0, y * lw + x1);
                if cover == full {
                    break;
                }
            }
            if cover != full {
                return false;
            }
            x0 = x1;
        }
    } else {
        let (span_lo, span_hi) = (start.1.min(goal.1), start.1.max(goal.1));
        for y in span_lo..=span_hi {
            let row = y * lw;
            let mut any = false;
            let mut x0 = sx_lo;
            while x0 <= x_hi_c {
                let x1 = (x0 + 64).min(x_hi_c + 1);
                if bits.range_word(row + x0, row + x1) != 0 {
                    any = true;
                    break;
                }
                x0 = x1;
            }
            if !any {
                return false;
            }
        }
    }

    let w = x_hi_c - sx_lo + 1;
    let h = y_hi_c - sy_lo + 1;
    let local = |x: usize, y: usize| (y - sy_lo) * w + (x - sx_lo);
    dsu.reset(w * h);
    for y in sy_lo..sy_lo + h {
        let row = y * lw;
        for i in layer.present_in_range(row + sx_lo, row + sx_lo + w) {
            let x = i - row;
            if x + 1 < layer.width && allowed(x + 1, y) && layer.bond_east(x, y) {
                dsu.union(local(x, y), local(x + 1, y));
            }
            if y + 1 < layer.height && allowed(x, y + 1) && layer.bond_north(x, y) {
                dsu.union(local(x, y), local(x, y + 1));
            }
        }
    }
    dsu.same_set(local(start.0, start.1), local(goal.0, goal.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_blank_matches_packed_blank() {
        let dense = DenseBoolLayer::blank(5, 3);
        let packed = PhysicalLayer::blank(5, 3);
        assert!(dense.mismatch(&packed).is_none());
        assert_eq!(dense.bond_count(), 0);
        assert_eq!(dense.present_site_count(), 15);
    }

    #[test]
    fn mismatch_reports_differing_plane() {
        let dense = DenseBoolLayer::blank(4, 4);
        let mut packed = PhysicalLayer::blank(4, 4);
        packed.set_bond_east(1, 1, true);
        let msg = dense.mismatch(&packed).expect("must differ");
        assert!(msg.contains("east"), "unexpected message: {msg}");
    }

    #[test]
    fn scalar_engine_matches_batched_engines_statistically() {
        // The scalar pre-PR-5 stream differs draw for draw from the batched
        // one, but the physics must agree: comparable bond densities at the
        // same probability.
        let cfg = HardwareConfig::new(40, 7, 0.75);
        let mut scalar = DenseScalarEngine::new(cfg, 3);
        let mut batched = DenseReferenceEngine::new(cfg, 3);
        let mut a = DenseBoolLayer::blank(1, 1);
        let mut b = DenseBoolLayer::blank(1, 1);
        let (mut bonds_a, mut bonds_b) = (0usize, 0usize);
        for _ in 0..8 {
            scalar.generate_layer_into(&mut a);
            batched.generate_layer_into(&mut b);
            bonds_a += a.bond_count();
            bonds_b += b.bond_count();
        }
        let (da, db) = (bonds_a as f64, bonds_b as f64);
        assert!((da - db).abs() / da < 0.05, "bond densities diverge: {da} vs {db}");
    }

    #[test]
    fn reference_engine_is_deterministic_per_seed() {
        let cfg = HardwareConfig::new(10, 4, 0.75);
        let mut a = DenseReferenceEngine::new(cfg, 9);
        let mut b = DenseReferenceEngine::new(cfg, 9);
        let mut la = DenseBoolLayer::blank(1, 1);
        let mut lb = DenseBoolLayer::blank(1, 1);
        a.generate_layer_into(&mut la);
        b.generate_layer_into(&mut lb);
        assert_eq!(la, lb);
        assert_eq!(a.fusion_stats(), b.fusion_stats());
    }

    #[test]
    fn scalar_renormalizer_matches_word_implementation() {
        use oneperc_hardware::FusionEngine;
        use oneperc_percolation::Renormalizer;

        let mut engine = FusionEngine::new(HardwareConfig::new(36, 7, 0.75), 17);
        let mut scalar = ScalarRenormalizer::new();
        let mut word = Renormalizer::new();
        for _ in 0..3 {
            let layer = engine.generate_layer();
            let a = scalar.renormalize(&layer, 9);
            let b = word.renormalize(&layer, 9);
            assert!(a.mismatch(&b).is_none(), "{:?}", a.mismatch(&b));
        }
    }

    #[test]
    fn scalar_modular_outcome_matches_word_implementation() {
        use oneperc_hardware::FusionEngine;
        use oneperc_percolation::ModularRenormalizer;

        let cfg = ModularConfig::new(2, 7, 6).sequential();
        let mut engine = FusionEngine::new(HardwareConfig::new(40, 7, 0.75), 23);
        let mut scalar = ScalarRenormalizer::new();
        let mut word = ModularRenormalizer::new(cfg);
        for _ in 0..3 {
            let layer = engine.generate_layer();
            let a = scalar_modular_outcome(&layer, &cfg, &mut scalar);
            let b = word.run(&layer);
            assert!(a.mismatch(&b).is_none(), "{:?}", a.mismatch(&b));
        }
    }
}

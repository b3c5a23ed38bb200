//! The semi-static fusion strategy (Section 4) and the layer generator.
//!
//! # Keyed layer streams
//!
//! Each RSG cycle yields an independent random layer, so the generator
//! gives every layer of a run its own sampler, seeded with
//! [`layer_key`]`(seed, index)`. Layer `i` is then a pure function of
//! `(config, seed, i)`. Generation is split along the same line: a
//! [`GenerationPlan`] holds what the configuration fixes (the merge law
//! and its cut points) and is shared between threads, and a
//! [`GenerationScratch`] holds the per-thread buffers. [`FusionEngine`]
//! pairs the two with a cursor for callers that want a run's layers in
//! order.
//!
//! # Generating a layer
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
//! Every configuration takes one path, and both phases draw from one
//! primitive, [`FusionSampler::threshold_masks`]: 64 lanes' uniforms
//! compared against sorted cut points, one RNG word per bit plane, most
//! significant first, stopping as soon as no undrawn bit could change a
//! comparison.
//!
//! - **Merging.** Sites share nothing in this phase, so a site's
//!   `(leaves, attempts, successes)` is one draw from the exact law that
//!   [`MergeLaw`] enumerates. One threshold draw against the law's cuts
//!   settles 64 sites: outcome `i` holds the lanes at or above cut `i - 1`
//!   and below cut `i`. The present and port masks and the sweep's four
//!   budget planes are unions of these outcome masks, and attempts and
//!   successes are popcounts. With merging factor 1 the law has one
//!   outcome and no cut, so this phase draws nothing.
//! - **Bonds.** Four outcome planes are drawn per layer: east first
//!   attempts, north first attempts, east retries, north retries, one bit
//!   per bond each. Each word is a threshold draw with the single cut
//!   `p·2^64`. The bit-sliced sweep below reads them a row word at a time.
//!
//! **Why the law is unchanged.** Whether a bond is attempted, and whether
//! it is retried, depends only on the merging outcomes and on bonds swept
//! before it. Its own two bits are independent of all of that, and are
//! read (and its attempts counted) only when an attempt is made. So every
//! attempt's outcome is a fresh Bernoulli(`p`) trial, and the layers,
//! `#fusion` and `#RSL` follow exactly the law of the per-attempt scalar
//! generator, up to the rounding of probabilities to multiples of `2^-64`.
//! Only the stream differs: a seed maps to different layers than under
//! per-attempt draws.
//!
//! **Why stopping early keeps every attempt fresh.** A threshold draw
//! returns exactly the masks the lanes' full 64-bit uniforms would give:
//! it stops only when no bit left undrawn could change a comparison. When
//! it stops depends only on the words drawn so far, so the next draw
//! starts on words independent of everything before. Each lane therefore
//! carries its own uniform, independent of every other lane and draw, and
//! a bond's bit is a Bernoulli(`p`) trial however many words its
//! neighbors' lanes needed.
//!
//! # The bit-sliced bond sweep
//!
//! One kernel sweeps the bonds a row at a time, 64 sites per word, and
//! makes exactly the decisions of the scalar sweep (east then north, site
//! by site in row-major order). Budgets are held as
//! four bit-planes per row word: bit `j` of plane `b` is bit `b` of site
//! `j`'s budget. "Budget `≥ k`" for a constant `k` is then a few word
//! operations, and spending leaves is a borrow subtract.
//!
//! **Three classes.** Let `R ≤ 2` be a site's own outgoing-bond count
//! (east neighbor, north neighbor), its `remaining`. Each of its bonds
//! tests its budget twice at most: `> 0` (may the bond be attempted) and,
//! after a failed first attempt, `− 1 > R` (may it be retried). So a
//! site's budget matters to its next bond only through its class: 0,
//! `1..=R+1` (attempt, no retry) or `≥ R+2` (attempt, retry allowed).
//!
//! **The east chain is a prefix.** East bond `x` joins site `x`, whose
//! budget after its west bond depends on the whole row to its left, and
//! site `x + 1`, which still holds its row-start budget `b`. The class `c`
//! of site `x` decides how many leaves the bond takes from site `x + 1`:
//! none for `c = 0`, one for `c = 1`, and for `c = 2` one or two,
//! depending on the bond's first bit and on `b ≥ R + 2`. The class of site
//! `x + 1` after the bond is therefore a map `f_x` of `c` that `b` and the
//! bit fix: a per-site 3→3 class map, held as three pairs of planes.
//! Composing a word's maps with a Kogge–Stone prefix (six shift-and-compose
//! steps) gives every site's class for each of the three classes the
//! word's first site might have, and the class carried out of the previous
//! word picks one. With every class known, the east bonds' attempt and
//! retry masks follow lane by lane, and subtracting what they spent gives
//! the exact budgets the row's north bonds start from. North bonds of one
//! row share no site, so they are plain plane arithmetic against the row
//! above, whose budgets they lower before that row is swept.
//!
//! **Why four planes and a clamp at 10 suffice.** The sweep compares a
//! budget only with small constants: 1, and `R + 2 + k` where `k ≤ 2`
//! leaves the current bond takes (a class map asks `b − k ≥ R + 2` as
//! `b ≥ R + 2 + k`). These are the scalar sweep's tests, shifted by what
//! the bond spends. A site has at most four bonds, and each spends at most
//! two leaves, so at most 6 leaves are gone before its last first attempt
//! and at most 7 before its last retry test. A budget clamped to 10 is
//! then still at least 4 at every zero test, and at least 3 after the first
//! attempt at every retry test, which passes for any `R ≤ 2`: the same
//! outcomes as for a true budget `≥ 10`, so every comparison comes out the
//! same. A clamped budget fits four planes, and no subtraction borrows past
//! them: a bond spends only leaves its ends hold.

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

/// One row word of budgets as four bit-planes: bit `j` of plane `b` is bit
/// `b` of lane `j`'s budget.
type Planes = [u64; 4];

/// The lanes whose value is at least `k` (`k ≤ 15`): a most-significant-
/// first scan that tracks "greater so far" and "equal so far".
#[inline(always)]
fn ge(v: &Planes, k: u32) -> u64 {
    let (mut gt, mut eq) = (0u64, u64::MAX);
    for b in (0..4).rev() {
        if k >> b & 1 == 1 {
            eq &= v[b];
        } else {
            gt |= eq & v[b];
            eq &= !v[b];
        }
    }
    gt | eq
}

/// Subtracts `lo + 2 · hi` from every lane, by borrow propagation. The
/// caller never takes more than a lane holds.
#[inline(always)]
fn sub2(v: &mut Planes, lo: u64, hi: u64) {
    let borrow0 = !v[0] & lo;
    v[0] ^= lo;
    let borrow1 = !v[1] & (hi | borrow0) | hi & borrow0;
    v[1] ^= hi ^ borrow0;
    let borrow2 = !v[2] & borrow1;
    v[2] ^= borrow1;
    v[3] ^= borrow2;
}

/// A lane-wise map of the three budget classes (see the module docs):
/// class `c` goes to class 1 on the lanes of `one[c]`, to class 2 on those
/// of `two[c]`, and to class 0 elsewhere.
#[derive(Clone, Copy)]
struct ClassMap {
    one: [u64; 3],
    two: [u64; 3],
}

impl ClassMap {
    /// `self ∘ inner`, lane by lane: `inner` first.
    #[inline(always)]
    fn after(&self, inner: &ClassMap) -> ClassMap {
        let mut out = ClassMap { one: [0; 3], two: [0; 3] };
        for c in 0..3 {
            let (to1, to2) = (inner.one[c], inner.two[c]);
            let to0 = !(to1 | to2);
            out.one[c] = to0 & self.one[0] | to1 & self.one[1] | to2 & self.one[2];
            out.two[c] = to0 & self.two[0] | to1 & self.two[1] | to2 & self.two[2];
        }
        out
    }

    /// The inclusive prefix: lane `j` becomes lane `j` ∘ … ∘ lane 0, by a
    /// Kogge–Stone scan. Each step composes with the maps `d` lanes below,
    /// and the `d` lowest lanes compose with the identity.
    #[inline(always)]
    fn prefix(self) -> ClassMap {
        let mut acc = self;
        for d in [1u32, 2, 4, 8, 16, 32] {
            let fill = (1u64 << d) - 1;
            let below = ClassMap {
                one: [acc.one[0] << d, acc.one[1] << d | fill, acc.one[2] << d],
                two: [acc.two[0] << d, acc.two[1] << d, acc.two[2] << d | fill],
            };
            acc = acc.after(&below);
        }
        acc
    }

    /// The classes a word's lanes enter with, given the prefix maps of the
    /// word and the class `carry` its first lane enters with: lane `j`
    /// enters with what lanes `0..j` made of `carry`. Returns the class-1
    /// and class-2 planes and the class carried into the next word.
    #[inline(always)]
    fn classes_in(&self, carry: usize) -> (u64, u64, usize) {
        let (one, two) = (self.one[carry], self.two[carry]);
        let carry_out = (one >> 63 | (two >> 63) << 1) as usize;
        (one << 1 | u64::from(carry == 1), two << 1 | u64::from(carry == 2), carry_out)
    }
}

/// The class of one budget for a site with `remaining` outgoing bonds.
fn class_of(budget: u32, remaining: u32) -> usize {
    match budget {
        0 => 0,
        b if b >= remaining + 2 => 2,
        _ => 1,
    }
}

/// The decisions of one row word of the bond sweep: which bonds got a
/// first attempt, and which of those were retried.
#[derive(Debug, Clone, Copy, Default)]
struct RowMasks {
    east: u64,
    east_retry: u64,
    north: u64,
    north_retry: u64,
}

/// The bond sweep's row buffers, one entry per row word (`⌈L/64⌉`).
#[derive(Debug, Clone, Default)]
struct SweepRows {
    /// Budgets of the row being swept.
    cur: Vec<Planes>,
    /// Budgets of the row above it, lowered by its north bonds.
    above: Vec<Planes>,
    /// First-attempt outcome words of the row's east and north bonds.
    east: Vec<u64>,
    north: Vec<u64>,
    /// The row's decisions.
    masks: Vec<RowMasks>,
}

impl SweepRows {
    fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.cur.resize(words, [0; 4]);
        self.above.resize(words, [0; 4]);
        self.east.resize(words, 0);
        self.north.resize(words, 0);
        self.masks.resize(words, RowMasks::default());
    }
}

/// The lanes of row word `w` that hold one of the row's first `len` sites.
fn lanes_below(len: usize, w: usize) -> u64 {
    match len.saturating_sub(64 * w) {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// Decides the bonds of row `y` of an `n`-sided layer: reads the row's
/// budgets (`rows.cur`) and first-attempt words, writes the decisions to
/// `rows.masks`, and lowers the budgets of the row above (`rows.above`) by
/// what its north bonds spent. See the module docs.
fn sweep_row(n: usize, y: usize, rows: &mut SweepRows) {
    let SweepRows { cur, above, east, north, masks } = rows;
    let up = y + 1 < n;
    let up_next = y + 2 < n;
    // `remaining` of every site but the row's last, which has no east bond.
    let r = 1 + usize::from(up);
    let last = n - 1;
    let lane_bit = |x: usize, w: usize| if x / 64 == w { 1u64 << (x % 64) } else { 0 };
    let site0 = (0..4).map(|b| (cur[0][b] as u32 & 1) << b).sum();
    let mut carry = class_of(site0, u32::from(n > 1) + u32::from(up));
    let (mut spent_lo, mut spent_hi) = (0u64, 0u64);
    for w in 0..cur.len() {
        let lanes = lanes_below(n, w);
        let east_lanes = lanes_below(last, w);
        let last_bit = lane_bit(last, w);
        // Lane `x` of `b` is site `x + 1`, the far end of east bond `x`,
        // whose `remaining` is one less when it is the row's last site.
        let pre_last = if n >= 2 { lane_bit(n - 2, w) } else { 0 };
        let next = cur.get(w + 1).copied().unwrap_or([0; 4]);
        let b: Planes = std::array::from_fn(|p| cur[w][p] >> 1 | next[p] << 63);
        let at_least: [u64; 7] = std::array::from_fn(|k| ge(&b, k as u32));
        // Lanes where `b − k ≥ R + 2` for the far end's `R`.
        let spare = |k: usize| at_least[r + 2 + k] & !pre_last | at_least[r + 1 + k] & pre_last;
        let spare_k = [spare(0), spare(1), spare(2)];
        let pos_k = [at_least[1], at_least[2], at_least[3]];
        let one_k: [u64; 3] = std::array::from_fn(|k| pos_k[k] & !spare_k[k]);
        // A near end of class 2 takes a second leaf after a failed first
        // attempt when the far end can spare it.
        let retry = !east[w] & spare_k[0];
        let map = ClassMap {
            one: [one_k[0], one_k[1], one_k[2] & retry | one_k[1] & !retry],
            two: [spare_k[0], spare_k[1], spare_k[2] & retry | spare_k[1] & !retry],
        };
        let (class1, class2, carry_out) = map.prefix().classes_in(carry);
        carry = carry_out;
        let east_att = east_lanes & (class1 | class2) & pos_k[0];
        let east_ret = east_att & class2 & retry;
        let (lo, hi) = (east_att & !east_ret, east_ret);
        // What each site has left after its west and east bonds.
        let mut left = cur[w];
        sub2(&mut left, lo << 1 | spent_lo, hi << 1 | spent_hi);
        sub2(&mut left, lo, hi);
        (spent_lo, spent_hi) = (lo >> 63, hi >> 63);
        let (mut north_att, mut north_ret) = (0, 0);
        if up {
            let top = &mut above[w];
            north_att = lanes & ge(&left, 1) & ge(top, 1);
            let left_spare = ge(&left, 4) & !last_bit | ge(&left, 3) & last_bit;
            let top_r = 1 + u32::from(up_next);
            let top_spare = ge(top, top_r + 2) & !last_bit | ge(top, top_r + 1) & last_bit;
            north_ret = north_att & !north[w] & left_spare & top_spare;
            sub2(top, north_att & !north_ret, north_ret);
        }
        masks[w] = RowMasks {
            east: east_att,
            east_retry: east_ret,
            north: north_att,
            north_retry: north_ret,
        };
    }
}

/// The flat planes of one layer, [`plane_stride`] words each, in this
/// order: the four budget bit-planes of the merging phase, then the bond
/// phase's east first, north first, east retry and north retry outcome
/// planes.
const PLANES: usize = 8;
const EAST: usize = 4;
const NORTH: usize = 5;
const EAST_RETRY: usize = 6;
const NORTH_RETRY: usize = 7;

/// Words per flat plane of an `n`-sided layer: one per 64 sites, and a
/// zero word past the end.
fn plane_stride(n: usize) -> usize {
    (n * n).div_ceil(64) + 1
}

/// Sweeps every bond of an `n`-sided layer over the flat `planes` (see
/// [`PLANES`]), ORs the realized ones into `layer`, and returns the
/// sweep's attempts and successes.
fn sweep_bonds(
    n: usize,
    planes: &[u64],
    rows: &mut SweepRows,
    layer: &mut PhysicalLayer,
) -> FusionStats {
    rows.reset(n);
    let stride = plane_stride(n);
    // The 64 bits of plane `k` from flat bit `lo` on. A plane ends in a
    // zero word, so the word after `lo`'s always exists.
    let bits_from = |k: usize, lo: usize| {
        let (i, shift) = (k * stride + lo / 64, lo % 64);
        planes[i] >> shift | planes[i + 1] << 1 << (63 - shift)
    };
    // The row-start budgets of row `y`.
    let load_budgets = |y: usize, out: &mut [Planes]| {
        for (w, budget) in out.iter_mut().enumerate() {
            let lanes = lanes_below(n, w);
            *budget = std::array::from_fn(|b| bits_from(b, y * n + 64 * w) & lanes);
        }
    };
    load_budgets(0, &mut rows.cur);
    let mut stats = FusionStats::default();
    for y in 0..n {
        let row = y * n;
        if y + 1 < n {
            load_budgets(y + 1, &mut rows.above);
        }
        for w in 0..rows.cur.len() {
            rows.east[w] = bits_from(EAST, row + 64 * w);
            rows.north[w] = bits_from(NORTH, row + 64 * w);
        }
        sweep_row(n, y, rows);
        for (w, m) in rows.masks.iter().enumerate() {
            let east_ok =
                m.east & rows.east[w] | m.east_retry & bits_from(EAST_RETRY, row + 64 * w);
            let north_ok =
                m.north & rows.north[w] | m.north_retry & bits_from(NORTH_RETRY, row + 64 * w);
            stats.attempted += u64::from(
                m.east.count_ones()
                    + m.east_retry.count_ones()
                    + m.north.count_ones()
                    + m.north_retry.count_ones(),
            );
            stats.succeeded += u64::from(east_ok.count_ones() + north_ok.count_ones());
            layer.or_bond_east_row_word(y, 64 * w, east_ok);
            layer.or_bond_north_row_word(y, 64 * w, north_ok);
        }
        std::mem::swap(&mut rows.cur, &mut rows.above);
    }
    stats
}

/// The sampler seed of layer `index` of the run seeded with `seed`.
///
/// Every layer of a run draws from its own sampler started from this key,
/// so layer `i` is a pure function of `(config, seed, i)` and layers can be
/// generated in any order, on any thread. The key is word `index` of a
/// splitmix64 stream whose state starts at the finalized seed, so keys of
/// neighboring seeds and indices are unrelated.
pub fn layer_key(seed: u64, index: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    mix(mix(seed).wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN)))
}

/// The immutable half of layer generation: everything one hardware
/// configuration fixes, built once and shared (as `Arc`) by every thread
/// that generates layers for it.
#[derive(Debug, Clone)]
pub struct GenerationPlan {
    strategy: FusionStrategy,
    /// The merging phase's exact law and its cut points.
    merge_law: MergeLaw,
}

/// The per-thread half of layer generation: scratch reused across layers,
/// so the steady-state per-RSL loop allocates nothing. It holds the
/// merging phase's outcome masks, the layer's flat budget and outcome
/// planes, and the bond sweep's row buffers. Any plan can use any scratch.
#[derive(Debug, Clone, Default)]
pub struct GenerationScratch {
    masks: Vec<u64>,
    planes: Vec<u64>,
    rows: SweepRows,
}

impl GenerationPlan {
    /// Builds the plan of a hardware configuration.
    pub fn new(config: HardwareConfig) -> Self {
        let merge_law = MergeLaw::new(
            config.resource_state_degree(),
            config.merging_factor(),
            config.effective_fusion_prob(),
        );
        GenerationPlan { strategy: FusionStrategy::new(config), merge_law }
    }

    /// The fusion strategy in use.
    pub fn strategy(&self) -> &FusionStrategy {
        &self.strategy
    }

    /// The hardware configuration in use.
    pub fn config(&self) -> &HardwareConfig {
        self.strategy.config()
    }

    /// Executes the fusion strategy for layer `index` of the run seeded
    /// with `seed`, writing the result into `layer` (resized and reset as
    /// needed). The layer's sampler starts from [`layer_key`], so the
    /// result depends on nothing but the configuration, `seed` and
    /// `index`: not on the scratch, the buffer's previous contents, the
    /// thread, or which layers were generated before.
    ///
    /// See the module docs: one threshold draw per 64 sites for merging,
    /// four outcome planes, then the bit-sliced bond sweep.
    pub fn generate_into(
        &self,
        seed: u64,
        index: u64,
        scratch: &mut GenerationScratch,
        layer: &mut PhysicalLayer,
    ) {
        let cfg = self.config();
        let n = cfg.rsl_size;
        let total = n * n;
        let stride = plane_stride(n);
        let mut sampler = FusionSampler::new(cfg.effective_fusion_prob(), layer_key(seed, index));
        layer.reset_blank(n, n);
        layer.raw_rsl_consumed = cfg.merging_factor();
        let GenerationScratch { masks, planes, rows } = scratch;
        planes.resize(PLANES * stride, 0);
        let mut stats = FusionStats::default();

        // Merging phase: outcome `i` holds the lanes at or above cut
        // `i - 1` and below cut `i`.
        let cuts = self.merge_law.cuts();
        masks.resize(cuts.len(), 0);
        for w in 0..stride - 1 {
            let lanes = lanes_below(total, w);
            sampler.threshold_masks(cuts, lanes, masks);
            let (mut present, mut port, mut budget) = (0u64, 0u64, [0u64; 4]);
            let mut at_or_above = lanes;
            for (i, &(outcome, _)) in self.merge_law.outcomes().iter().enumerate() {
                let above = if i < masks.len() { masks[i] } else { 0 };
                let exact = at_or_above & !above;
                at_or_above = above;
                let all_if = |yes: bool| 0u64.wrapping_sub(u64::from(yes));
                let clamped = outcome.leaves.saturating_sub(1).min(BUDGET_CAP);
                for (b, plane) in budget.iter_mut().enumerate() {
                    *plane |= exact & all_if(clamped >> b & 1 == 1);
                }
                present |= exact & all_if(outcome.leaves >= 2);
                port |= exact & all_if(outcome.leaves >= 1);
                // Unmerged sites attempt nothing, so they need no count.
                if outcome.attempts > 0 {
                    let sites = u64::from(exact.count_ones());
                    stats.attempted += sites * u64::from(outcome.attempts);
                    stats.succeeded += sites * u64::from(outcome.successes);
                }
            }
            for (b, bits) in budget.into_iter().enumerate() {
                planes[b * stride + w] = bits;
            }
            layer.store_site_word(w, present);
            layer.store_port_word(w, port);
        }

        // Bond phase: east first, north first, east retry, north retry.
        for k in EAST..PLANES {
            for w in 0..stride - 1 {
                planes[k * stride + w] = sampler.bernoulli_word(lanes_below(total, w));
            }
        }
        for k in 0..PLANES {
            planes[(k + 1) * stride - 1] = 0;
        }
        stats.absorb(sweep_bonds(n, planes, rows, layer));
        layer.fusions_attempted = stats.attempted;
        layer.fusions_succeeded = stats.succeeded;
    }
}

/// Generates the layers of one seeded run in order: a [`GenerationPlan`]
/// with its own [`GenerationScratch`], a cursor into the run's keyed
/// layer stream, and the run's cumulative `#RSL` and `#fusion` counters.
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
    plan: GenerationPlan,
    scratch: GenerationScratch,
    seed: u64,
    /// Index of the next layer of the run.
    next_index: u64,
    raw_rsl_consumed: u64,
    stats: FusionStats,
}

impl FusionEngine {
    /// Creates an engine for the given configuration and RNG seed.
    pub fn new(config: HardwareConfig, seed: u64) -> Self {
        FusionEngine {
            plan: GenerationPlan::new(config),
            scratch: GenerationScratch::default(),
            seed,
            next_index: 0,
            raw_rsl_consumed: 0,
            stats: FusionStats::default(),
        }
    }

    /// The fusion strategy in use.
    pub fn strategy(&self) -> &FusionStrategy {
        self.plan.strategy()
    }

    /// The hardware configuration in use.
    pub fn config(&self) -> &HardwareConfig {
        self.plan.config()
    }

    /// Total raw RSLs consumed so far (the paper's `#RSL` metric counts
    /// these).
    pub fn raw_rsl_consumed(&self) -> u64 {
        self.raw_rsl_consumed
    }

    /// Total fusion-attempt statistics so far (the `#fusion` metric).
    pub fn fusion_stats(&self) -> FusionStats {
        self.stats
    }

    /// Executes the fusion strategy for the next layer of the run and
    /// returns the resulting random physical graph state in site-lattice
    /// form.
    pub fn generate_layer(&mut self) -> PhysicalLayer {
        let n = self.config().rsl_size;
        let mut layer = PhysicalLayer::blank(n, n);
        self.generate_layer_into(&mut layer);
        layer
    }

    /// Executes the fusion strategy for the next layer of the run, writing
    /// the result into `layer` (resized and reset as needed), without
    /// allocating in the steady state. Equal to
    /// [`GenerationPlan::generate_into`] at the run's seed and the next
    /// index.
    pub fn generate_layer_into(&mut self, layer: &mut PhysicalLayer) {
        self.plan.generate_into(self.seed, self.next_index, &mut self.scratch, layer);
        self.next_index += 1;
        self.raw_rsl_consumed += layer.raw_rsl_consumed as u64;
        self.stats.absorb(FusionStats {
            attempted: layer.fusions_attempted,
            succeeded: layer.fusions_succeeded,
        });
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
    fn unmerged_high_degree_layers_attempt_every_bond() {
        // Merging factor 1 with degree >= 6: no budget runs out before a
        // first attempt (see `high_budget_sweep_attempts_every_bond`), so
        // every lattice bond gets exactly one first attempt and attempts
        // beyond the planned bond count are retries, at most one per bond.
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
    fn budget_planes_compare_and_subtract_like_scalars() {
        // One lane per (budget, amount) pair with amount ≤ budget, for every
        // budget the clamp allows.
        let pairs: Vec<(u32, u32)> =
            (0..=10).flat_map(|v| (0..=v.min(2)).map(move |k| (v, k))).collect();
        assert!(pairs.len() <= 64);
        let mut planes: Planes = [0; 4];
        let (mut lo, mut hi) = (0u64, 0u64);
        for (j, &(v, k)) in pairs.iter().enumerate() {
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane |= u64::from(v >> b & 1) << j;
            }
            lo |= u64::from(k & 1) << j;
            hi |= u64::from(k >> 1) << j;
        }
        for k in 0..=15 {
            let at_least = ge(&planes, k);
            for (j, &(v, _)) in pairs.iter().enumerate() {
                assert_eq!(at_least >> j & 1 == 1, v >= k, "budget {v} ≥ {k}");
            }
        }
        let mut left = planes;
        sub2(&mut left, lo, hi);
        for (j, &(v, k)) in pairs.iter().enumerate() {
            let lane = (0..4).map(|b| (left[b] >> j & 1) << b).sum::<u64>();
            assert_eq!(lane, u64::from(v - k), "budget {v} − {k}");
        }
        assert!(left.iter().all(|&p| p >> pairs.len() == 0), "idle lanes stay zero");
    }

    #[test]
    fn class_map_prefix_matches_a_scalar_fold() {
        // Random lane maps over three words, chained through the carry the
        // way the east sweep chains them, from a nonzero carry-in.
        for seed in 0..20u64 {
            let maps: Vec<[usize; 3]> = (0..192)
                .map(|i| std::array::from_fn(|c| (layer_key(seed, 3 * i + c as u64) % 3) as usize))
                .collect();
            let mut carry = 1 + (seed % 2) as usize;
            let mut scalar = carry;
            for (w, word) in maps.chunks(64).enumerate() {
                let mut map = ClassMap { one: [0; 3], two: [0; 3] };
                for (j, f) in word.iter().enumerate() {
                    for (c, &to) in f.iter().enumerate() {
                        map.one[c] |= u64::from(to == 1) << j;
                        map.two[c] |= u64::from(to == 2) << j;
                    }
                }
                let (one, two, carry_out) = map.prefix().classes_in(carry);
                for (j, f) in word.iter().enumerate() {
                    let lane = (one >> j & 1) as usize + 2 * (two >> j & 1) as usize;
                    assert_eq!(lane, scalar, "seed {seed}: word {w} lane {j}");
                    scalar = f[scalar];
                }
                assert_eq!(carry_out, scalar, "seed {seed}: carry out of word {w}");
                carry = carry_out;
            }
        }
    }

    #[test]
    fn high_budget_sweep_attempts_every_bond() {
        // Every site starting at budget 5 (6-qubit states, m = 1), at a low
        // probability that retries often: retries are gated on
        // `budget > remaining`, so each leaves at least `remaining` leaves
        // behind, and even two neighbor bonds with retries before a site's
        // own east bond leave it a leaf. Every row's attempt masks cover
        // every bond of the row.
        for side in [1usize, 2, 7, 33, 63, 64, 65, 120, 129] {
            let mut sampler = FusionSampler::new(0.3, side as u64);
            let mut rows = SweepRows::default();
            rows.reset(side);
            let fives = |out: &mut [Planes]| {
                for (w, planes) in out.iter_mut().enumerate() {
                    let lanes = lanes_below(side, w);
                    *planes = [lanes, 0, lanes, 0];
                }
            };
            fives(&mut rows.cur);
            let mut retries = 0;
            for y in 0..side {
                let up = y + 1 < side;
                fives(&mut rows.above);
                for w in 0..rows.cur.len() {
                    rows.east[w] = sampler.bernoulli_word(u64::MAX);
                    rows.north[w] = sampler.bernoulli_word(u64::MAX);
                }
                sweep_row(side, y, &mut rows);
                for (w, m) in rows.masks.iter().enumerate() {
                    assert_eq!(m.east, lanes_below(side - 1, w), "L={side} row {y} word {w}");
                    let north = if up { lanes_below(side, w) } else { 0 };
                    assert_eq!(m.north, north, "L={side} row {y} word {w}");
                }
                retries += rows
                    .masks
                    .iter()
                    .map(|m| m.east_retry | m.north_retry)
                    .filter(|&r| r != 0)
                    .count();
                std::mem::swap(&mut rows.cur, &mut rows.above);
            }
            assert!(side < 7 || retries > 0, "L={side}: no row retried a bond");
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
        assert_eq!(total.succeeded, l1.fusions_succeeded + l2.fusions_succeeded);
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
    fn layers_are_pure_functions_of_their_key() {
        // Layer `i` of a run depends only on `(config, seed, i)`: a plan
        // generating the indices out of order, on one dirty scratch and
        // buffer, reproduces the in-order run layer for layer — for merged
        // states and for the one-outcome law of unmerged ones.
        for cfg in [HardwareConfig::new(14, 4, 0.7), HardwareConfig::new(14, 7, 0.7)] {
            let mut engine = FusionEngine::new(cfg, 99);
            let in_order: Vec<PhysicalLayer> = (0..4).map(|_| engine.generate_layer()).collect();
            let plan = GenerationPlan::new(cfg);
            let mut scratch = GenerationScratch::default();
            let mut layer = PhysicalLayer::fully_connected(20, 20);
            for index in [3u64, 0, 2, 1] {
                plan.generate_into(99, index, &mut scratch, &mut layer);
                assert_eq!(layer, in_order[index as usize], "{cfg:?} layer {index}");
            }
            plan.generate_into(98, 0, &mut scratch, &mut layer);
            assert_ne!(layer, in_order[0], "another seed gives another layer");
        }
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

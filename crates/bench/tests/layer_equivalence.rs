//! Equivalence harness for the word-parallel hot paths: the bit-packed
//! `PhysicalLayer` generation must be site-for-site identical to the dense
//! `Vec<bool>` reference, and the word-frontier BFS renormalizer and
//! span-scan modular joiner must be outcome-identical to the preserved
//! scalar implementations — across lattice sizes (including
//! word-boundary-hostile ones), merging factors, probability sweeps,
//! degenerate one-site bands, production band widths, off-origin regions
//! and `reset_blank` buffer reuse.
//!
//! This is the only lattice oracle: every renormalized lattice is compared
//! with `ScalarLattice::mismatch` (target side, band geometry, every node
//! site, every path site by site; success, node and path counts and
//! consumed sites all follow from those) and every modular run with
//! `ScalarModularOutcome::mismatch`. Any indexing, trailing-mask or
//! draw-ordering bug in the packed representation shows up as a
//! coordinate-addressed mismatch here, and any frontier-expansion or
//! tie-break divergence in the renormalizer shows up as the first
//! differing node or path.

use oneperc_bench::dense::{
    scalar_modular_outcome, DenseBoolLayer, DenseReferenceEngine, ScalarRenormalizer,
};
use oneperc_hardware::{FusionEngine, HardwareConfig, MergeLaw, PhysicalLayer};
use oneperc_percolation::{renormalize, ModularConfig, ModularRenormalizer, Renormalizer};

/// Lattice sides straddling the 64-bit word geometry: sub-word, exact
/// power-of-two, a side whose square (1089) is word-unaligned, a row one
/// lane short of a word, an exact one-word row, a row that spills a single
/// column into a second word, the Table-1 side (rows straddle flat words),
/// an exact two-word row, and a three-word row.
const SIDES: [usize; 11] = [1, 2, 7, 16, 33, 63, 64, 65, 120, 128, 129];

/// Resource-state sizes covering merging factors 3, 2 and 1.
const DEGREES: [usize; 3] = [4, 5, 7];

/// Fusion probabilities: dyadic (exact short bit-sliced expansion),
/// non-dyadic (full-depth expansion), and the certain edge case.
const PROBS: [f64; 5] = [0.5, 0.66, 0.75, 0.9, 1.0];

fn assert_equivalent(dense: &DenseBoolLayer, packed: &PhysicalLayer, context: &str) {
    if let Some(msg) = dense.mismatch(packed) {
        panic!("{context}: {msg}");
    }
    // The popcount counters must agree with the naive byte walks.
    assert_eq!(dense.bond_count(), packed.bond_count(), "{context}: bond_count");
    assert_eq!(
        dense.present_site_count(),
        packed.present_site_count(),
        "{context}: present_site_count"
    );
}

/// Generates `layers` layers from a fresh packed engine and a fresh dense
/// reference at `(cfg, seed)` and asserts they match site for site, layer
/// by layer and in the cumulative counters.
fn assert_streams_match(cfg: HardwareConfig, seed: u64, layers: usize, context: &str) {
    let mut packed_engine = FusionEngine::new(cfg, seed);
    let mut dense_engine = DenseReferenceEngine::new(cfg, seed);
    let mut packed = PhysicalLayer::blank(1, 1);
    let mut dense = DenseBoolLayer::blank(1, 1);
    for layer_no in 0..layers {
        packed_engine.generate_layer_into(&mut packed);
        dense_engine.generate_layer_into(&mut dense);
        assert_equivalent(&dense, &packed, &format!("{context} layer={layer_no}"));
    }
    assert_eq!(
        packed_engine.fusion_stats(),
        dense_engine.fusion_stats(),
        "{context}: cumulative stats"
    );
    assert_eq!(
        packed_engine.raw_rsl_consumed(),
        dense_engine.raw_rsl_consumed(),
        "{context}: raw RSLs"
    );
}

#[test]
fn packed_generation_matches_dense_reference_across_configs() {
    for &side in &SIDES {
        for &degree in &DEGREES {
            for &p in &PROBS {
                for seed in [1u64, 42] {
                    let cfg = HardwareConfig::new(side, degree, p);
                    let context = format!("L={side} d={degree} p={p} seed={seed}");
                    assert_streams_match(cfg, seed, 2, &context);
                }
            }
        }
    }
}

#[test]
fn packed_generation_matches_dense_reference_past_the_budget_clamp() {
    // Raised target degrees merge more stars per site: 6-qubit states at
    // target 10 (m = 3, up to 13 leaves) and 14 (m = 4, up to 17 leaves)
    // start sites with in-plane budgets beyond the engine's clamp of 10,
    // and 3-qubit states at target 8 (m = 7) run the longest merge chains.
    // The dense reference sweeps unclamped budgets one bond at a time, so
    // agreement here pins the clamp and the bit-sliced sweep together.
    let raised = [(6usize, 10usize), (6, 14), (3, 8)];
    for &(size, target) in &raised {
        let probe = HardwareConfig::new(24, size, 0.75).with_target_degree(target);
        let law = MergeLaw::new(
            probe.resource_state_degree(),
            probe.merging_factor(),
            probe.effective_fusion_prob(),
        );
        let max_budget =
            law.outcomes().iter().map(|(o, _)| o.leaves.saturating_sub(1)).max().unwrap_or(0);
        if size == 6 {
            let context = format!("{size}-qubit states at target {target}");
            assert!(max_budget > 10, "{context}: budget {max_budget} never exceeds the clamp");
        }
        for &side in &[7usize, 24, 33, 65] {
            for &p in &PROBS {
                for seed in [1u64, 42] {
                    let cfg = HardwareConfig::new(side, size, p).with_target_degree(target);
                    let context = format!("L={side} size={size} target={target} p={p} seed={seed}");
                    assert_streams_match(cfg, seed, 3, &context);
                }
            }
        }
    }
}

#[test]
fn equivalence_survives_reset_blank_reuse_across_geometries() {
    // One packed buffer and one dense buffer are reused across every
    // configuration in sequence, so each generation inherits the previous
    // geometry's allocations (shrinking and regrowing through word
    // boundaries) and must still match a reference generated the same way.
    let mut packed = PhysicalLayer::blank(1, 1);
    let mut dense = DenseBoolLayer::blank(1, 1);
    for (round, &side) in SIDES.iter().chain(SIDES.iter().rev()).enumerate() {
        let cfg = HardwareConfig::new(side, 4, 0.75);
        let seed = 7 + round as u64;
        let mut packed_engine = FusionEngine::new(cfg, seed);
        let mut dense_engine = DenseReferenceEngine::new(cfg, seed);
        packed_engine.generate_layer_into(&mut packed);
        dense_engine.generate_layer_into(&mut dense);
        assert_equivalent(&dense, &packed, &format!("round {round} L={side}"));
    }
}

/// Fusion probabilities straddling the percolation threshold of the
/// renormalized lattice: the BFS suite wants layers where bands both do
/// and do not percolate, so near-critical values exercise the found /
/// not-found boundary instead of the trivially-connected regime.
const CRITICAL_PROBS: [f64; 3] = [0.62, 0.7, 0.75];

/// Band widths for the BFS suite: the degenerate one-site band (single
/// column for vertical searches, single row for horizontal ones), a
/// width that tiles the small sides unevenly, and the production size.
const NODE_SIZES: [usize; 3] = [1, 3, 6];

#[test]
fn word_frontier_bfs_matches_scalar_reference_across_configs() {
    // The word-parallel renormalizer (bitmap reachability gate + packed
    // extraction BFS, including the single-word fast path) must produce
    // exactly the lattice of the preserved scalar BFS: same nodes, same
    // paths site for site, for every side / merging factor / probability
    // / band width combination. Scratch pools are reused across all
    // configurations, as a streaming caller would.
    let mut word = Renormalizer::new();
    let mut scalar = ScalarRenormalizer::new();
    for &side in &SIDES {
        for &degree in &DEGREES {
            for &p in &CRITICAL_PROBS {
                let cfg = HardwareConfig::new(side, degree, p);
                let mut engine = FusionEngine::new(cfg, 2024);
                for layer_no in 0..2 {
                    let layer = engine.generate_layer();
                    for &node_size in &NODE_SIZES {
                        if node_size > side {
                            continue;
                        }
                        let w = word.renormalize(&layer, node_size);
                        let s = scalar.renormalize(&layer, node_size);
                        if let Some(msg) = s.mismatch(&w) {
                            panic!(
                                "L={side} d={degree} p={p} layer={layer_no} \
                                 node_size={node_size}: {msg}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn word_frontier_region_bfs_matches_scalar_reference_off_origin() {
    // Regions whose origin is not word-aligned shift every band against
    // the 64-bit grid, so the band-local plane construction (sub-word
    // extraction, trailing masks, cross-word carries at L=65) is
    // exercised at offsets the whole-layer test never sees.
    let mut word = Renormalizer::new();
    let mut scalar = ScalarRenormalizer::new();
    for &side in &[16usize, 33, 64, 65] {
        for &degree in &DEGREES {
            let cfg = HardwareConfig::new(side, degree, 0.7);
            let mut engine = FusionEngine::new(cfg, 7);
            let layer = engine.generate_layer();
            for &(ox, oy) in &[(1usize, 0usize), (5, 3), (7, 7)] {
                let w = side - ox - 1;
                let h = side - oy - 2;
                for &node_size in &[1usize, 4] {
                    if node_size > w.min(h) {
                        continue;
                    }
                    let got = word.renormalize_region(&layer, (ox, oy), w, h, node_size);
                    let want = scalar.renormalize_region(&layer, (ox, oy), w, h, node_size);
                    if let Some(msg) = want.mismatch(&got) {
                        panic!(
                            "L={side} d={degree} origin=({ox},{oy}) {w}x{h} \
                             node_size={node_size}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// Panics with `context` when a scalar-reference comparison found a
/// differing field.
fn check(mismatch: Option<String>, context: &str) {
    if let Some(msg) = mismatch {
        panic!("{context}: {msg}");
    }
}

/// Streams three layers per seed through both a reused renormalizer and
/// the free `renormalize` (fresh scratch), against the scalar reference.
fn check_seeded_stream(side: usize, degree: usize, p: f64, node_size: usize, seeds: &[u64]) {
    let mut word = Renormalizer::new();
    let mut scalar = ScalarRenormalizer::new();
    for &seed in seeds {
        let mut engine = FusionEngine::new(HardwareConfig::new(side, degree, p), seed);
        for layer_no in 0..3 {
            let layer = engine.generate_layer();
            let want = scalar.renormalize(&layer, node_size);
            let context = format!("L={side} d={degree} p={p} seed={seed} layer={layer_no}");
            check(want.mismatch(&word.renormalize(&layer, node_size)), &context);
            check(want.mismatch(&renormalize(&layer, node_size)), &context);
        }
    }
}

#[test]
fn word_frontier_bfs_matches_scalar_reference_at_production_band_widths() {
    // Node size L/4 with 7-qubit states: the band widths the online pass
    // actually runs, next to the matrix's word-geometry extremes.
    for side in [24usize, 36, 40, 48] {
        for p in [0.66, 0.75, 0.9] {
            check_seeded_stream(side, 7, p, side / 4, &[0, 1, 2, 3]);
        }
    }
}

#[test]
fn word_frontier_bfs_matches_scalar_reference_on_merged_low_degree_layers() {
    // 4-qubit states: the merging phase leaves sparser site patterns that
    // stress the BFS gating.
    check_seeded_stream(32, 4, 0.7, 8, &[0, 1, 2, 3, 4, 5]);
}

#[test]
fn free_renormalize_matches_scalar_reference_on_degenerate_layers() {
    // Every band percolates, and no band does.
    let mut scalar = ScalarRenormalizer::new();
    for (name, layer, node_size) in [
        ("fully connected", PhysicalLayer::fully_connected(30, 30), 6),
        ("blank", PhysicalLayer::blank(20, 20), 5),
    ] {
        let want = scalar.renormalize(&layer, node_size);
        check(want.mismatch(&renormalize(&layer, node_size)), name);
    }
}

#[test]
fn word_frontier_region_bfs_matches_scalar_reference_on_module_regions() {
    // Module-sized regions at and away from the origin of one layer, with
    // one renormalizer reused across regions and seeds.
    let mut word = Renormalizer::new();
    let mut scalar = ScalarRenormalizer::new();
    for seed in 0..4u64 {
        let mut engine = FusionEngine::new(HardwareConfig::new(48, 7, 0.78), seed);
        let layer = engine.generate_layer();
        for (origin, w, h, node_size) in
            [((0usize, 0usize), 24usize, 24usize, 6usize), ((12, 12), 24, 24, 8), ((20, 8), 20, 30, 5)]
        {
            let got = word.renormalize_region(&layer, origin, w, h, node_size);
            let want = scalar.renormalize_region(&layer, origin, w, h, node_size);
            check(
                want.mismatch(&got),
                &format!("seed={seed} origin={origin:?} {w}x{h} node_size={node_size}"),
            );
        }
    }
}

#[test]
fn modular_pipeline_matches_scalar_reference() {
    // Full modular runs: word-frontier module BFS plus the span-scan
    // `join_across` against the scalar BFS plus the per-pair union scan.
    // Every module lattice, every joining verdict and every counter must
    // agree, across merging factors, near-critical probabilities and
    // module grids — including node size 1, where joining bands degrade
    // to single rows/columns.
    let mut scalar = ScalarRenormalizer::new();
    for &side in &[33usize, 64, 65] {
        for &degree in &DEGREES {
            for &p in &CRITICAL_PROBS {
                let cfg = HardwareConfig::new(side, degree, p);
                let mut engine = FusionEngine::new(cfg, 99);
                let layer = engine.generate_layer();
                for &(g, r, node) in &[(2usize, 7usize, 6usize), (2, 7, 1), (3, 4, 3)] {
                    let mcfg = ModularConfig::new(g, r, node);
                    let mut word = ModularRenormalizer::new(mcfg);
                    let got = word.run(&layer);
                    let want = scalar_modular_outcome(&layer, &mcfg, &mut scalar);
                    if let Some(msg) = want.mismatch(&got) {
                        panic!("L={side} d={degree} p={p} g={g} r={r} node={node}: {msg}");
                    }
                }
            }
        }
    }
}

#[test]
fn fresh_and_reused_packed_buffers_agree() {
    // generate_layer (fresh allocation) and generate_layer_into (reused
    // buffer) walk the same stream: the layers must be equal even when the
    // reused buffer previously held a larger, fully connected lattice.
    let cfg = HardwareConfig::new(33, 7, 0.75);
    let mut a = FusionEngine::new(cfg, 5);
    let mut b = FusionEngine::new(cfg, 5);
    let mut reused = PhysicalLayer::fully_connected(70, 70);
    for _ in 0..3 {
        let fresh = a.generate_layer();
        b.generate_layer_into(&mut reused);
        assert_eq!(fresh, reused);
    }
}

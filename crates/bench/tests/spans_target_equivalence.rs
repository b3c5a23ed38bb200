//! The reshaping engine decides each merged layer with
//! `Renormalizer::spans_target` — the word-parallel band gate over the
//! target's first column and row bands — instead of building a
//! `RenormalizedLattice`. This suite pins the two to each other: for every
//! layer, node size and target side, the verdict equals "`renormalize`
//! realizes every coarse node `(i, j)` with `i, j < target_side`".
//!
//! The sweep covers sub-word, word-boundary and Table-1 layer sides, every
//! node size from 1 to the side, merging factors 1 and 3, fusion
//! probabilities from below the band-crossing threshold (where bands fail)
//! up to 0.9, and target sides one past the coarse side. Debug builds also
//! run `renormalize_region`'s shared-site assertion on every renormalized
//! layer and on an offset region of it, which is what proves that
//! assertion.

use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::{renormalize, RenormalizedLattice, Renormalizer};

/// Layer sides: degenerate, sub-word, one below / at / one above a word,
/// and the Table-1 RSL with a side that spills a third word.
const SIDES: [usize; 9] = [1, 2, 7, 36, 63, 64, 65, 120, 130];

/// Fusion probabilities, from well below the band-crossing threshold to
/// well above it.
const PROBS: [f64; 10] = [0.45, 0.5, 0.55, 0.6, 0.62, 0.65, 0.7, 0.75, 0.8, 0.9];

/// Resource-state sizes for merging factors 1 (7 qubits) and 3 (4 qubits).
const STATE_SIZES: [usize; 2] = [7, 4];

/// Whether `lattice` realizes every node `(i, j)` with `i, j < t`.
fn realizes_target(lattice: &RenormalizedLattice, t: usize) -> bool {
    let k = lattice.target_side();
    t <= k && (0..t).all(|i| (0..t).all(|j| lattice.node_flat(i, j).is_some()))
}

/// Checks one layer at one node size for every target side `1..=k + 1`;
/// returns how many verdicts were `[false, true]`.
fn check_layer(
    gate: &mut Renormalizer,
    layer: &PhysicalLayer,
    node_size: usize,
    context: &str,
) -> [usize; 2] {
    let lattice = renormalize(layer, node_size);
    let k = lattice.target_side();
    assert_eq!(k, layer.width.min(layer.height) / node_size, "{context}");
    let mut counts = [0; 2];
    for t in 1..=k + 1 {
        let spans = gate.spans_target(layer, node_size, t);
        assert_eq!(spans, realizes_target(&lattice, t), "{context}, target side {t}");
        counts[usize::from(spans)] += 1;
    }
    counts
}

#[test]
fn spans_target_matches_renormalized_lattice() {
    // One reused gate across every layer also pins its scratch reuse.
    let mut gate = Renormalizer::new();
    let (mut failing, mut spanning) = (0usize, 0usize);
    for &side in &SIDES {
        for node_size in 1..=side {
            for (m, &state_size) in STATE_SIZES.iter().enumerate() {
                // Rotate the probabilities across node sizes so every side
                // meets every probability without the full product.
                let p = PROBS[(node_size * 3 + m * 5 + side) % PROBS.len()];
                let seed = (side * 1_000 + node_size * 10 + m) as u64;
                let hw = HardwareConfig::new(side, state_size, p);
                let layer = FusionEngine::new(hw, seed).generate_layer();
                let context = format!("L={side} n={node_size} size={state_size} p={p}");
                let [no, yes] = check_layer(&mut gate, &layer, node_size, &context);
                failing += no;
                spanning += yes;
                // An offset sub-region exercises the shared-site assertion
                // away from the layer origin.
                let (ox, oy) = (side / 3, side / 5);
                let _ = Renormalizer::new().renormalize_region(
                    &layer,
                    (ox, oy),
                    side - ox,
                    side - oy,
                    node_size,
                );
            }
        }
    }
    // Both verdicts must be well represented below the `k + 1` sides,
    // which are always `false`.
    let trivially_false: usize = SIDES.iter().map(|&s| s * STATE_SIZES.len()).sum();
    assert!(spanning > 1_000, "only {spanning} spanning verdicts");
    assert!(failing > trivially_false + 1_000, "only {failing} failing verdicts");
}

#[test]
fn spans_target_matches_near_threshold_stream() {
    // A stream of Table-1-sized layers close to the threshold, where band
    // failures are common: every layer is checked at the engine's node
    // size and target side, and at a finer node size.
    let mut gate = Renormalizer::new();
    let mut engine = FusionEngine::new(HardwareConfig::new(120, 4, 0.7), 5);
    let mut layer = PhysicalLayer::blank(120, 120);
    let mut verdicts = [0usize; 2];
    for layer_no in 0..12 {
        engine.generate_layer_into(&mut layer);
        for node_size in [24, 15] {
            let lattice = renormalize(&layer, node_size);
            let spans = gate.spans_target(&layer, node_size, 5);
            let context = format!("layer {layer_no}, n={node_size}");
            assert_eq!(spans, realizes_target(&lattice, 5), "{context}");
            verdicts[usize::from(spans)] += 1;
        }
    }
    assert!(verdicts[0] > 0 && verdicts[1] > 0, "verdicts (false, true) = {verdicts:?}");
}

#[test]
fn spans_target_rejects_targets_that_do_not_fit() {
    let layer = PhysicalLayer::fully_connected(50, 40);
    let mut gate = Renormalizer::new();
    // min(50, 40) / 12 = 3 coarse nodes per side.
    assert!(gate.spans_target(&layer, 12, 3));
    assert!(!gate.spans_target(&layer, 12, 4));
    assert!(gate.spans_target(&layer, 40, 1));
    assert!(!gate.spans_target(&layer, 41, 1));
}

//! Equivalence and micro-benchmark tests for the flat-grid renormalizer
//! against the preserved hash-based baseline.
//!
//! The flat-index rewrite is a pure representation change: on every input
//! the two engines must produce the *same* renormalized lattice — same
//! realized nodes at the same physical sites, same vertical/horizontal
//! paths site by site, same success verdict, same consumed-site count.
//! These tests check that over a family of seeded random layers spanning
//! sizes, fusion probabilities, node sizes and region origins.

use std::time::Instant;

use oneperc_bench::baseline::{hash_renormalize, HashRenormalizedLattice, HashRenormalizer};
use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::{renormalize, RenormalizedLattice, Renormalizer};

/// Asserts the two lattices are identical in every observable.
fn assert_equivalent(flat: &RenormalizedLattice, hash: &HashRenormalizedLattice, ctx: &str) {
    assert_eq!(flat.target_side(), hash.target_side(), "{ctx}: target side");
    assert_eq!(flat.node_size(), hash.node_size(), "{ctx}: node size");
    assert_eq!(flat.is_success(), hash.is_success(), "{ctx}: success");
    assert_eq!(flat.node_count(), hash.node_count(), "{ctx}: node count");
    assert_eq!(flat.v_path_count(), hash.v_path_count(), "{ctx}: v paths");
    assert_eq!(flat.h_path_count(), hash.h_path_count(), "{ctx}: h paths");
    assert_eq!(flat.consumed_sites(), hash.consumed_sites(), "{ctx}: consumed");
    let k = flat.target_side();
    for i in 0..k {
        for j in 0..k {
            assert_eq!(
                flat.node_site(i, j),
                hash.node_site(i, j),
                "{ctx}: node ({i}, {j})"
            );
        }
        let fv: Option<Vec<(usize, usize)>> =
            flat.v_path(i).map(|p| flat.path_coords(p).collect());
        let hv: Option<Vec<(usize, usize)>> = hash.v_path(i).map(<[(usize, usize)]>::to_vec);
        assert_eq!(fv, hv, "{ctx}: v path {i}");
        let fh: Option<Vec<(usize, usize)>> =
            flat.h_path(i).map(|p| flat.path_coords(p).collect());
        let hh: Option<Vec<(usize, usize)>> = hash.h_path(i).map(<[(usize, usize)]>::to_vec);
        assert_eq!(fh, hh, "{ctx}: h path {i}");
    }
}

#[test]
fn identical_on_seeded_random_layers() {
    for (rsl, node_size) in [(24usize, 6usize), (36, 9), (40, 10), (48, 12)] {
        for p in [0.66, 0.75, 0.9] {
            for seed in 0..4u64 {
                let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, p), seed);
                let layer = engine.generate_layer();
                let flat = renormalize(&layer, node_size);
                let hash = hash_renormalize(&layer, node_size);
                assert_equivalent(&flat, &hash, &format!("rsl {rsl} p {p} seed {seed}"));
            }
        }
    }
}

#[test]
fn identical_on_merged_low_degree_layers() {
    // 4-qubit resource states exercise the merging phase and produce
    // sparser site patterns (missing sites stress the BFS gating).
    for seed in 0..6u64 {
        let mut engine = FusionEngine::new(HardwareConfig::new(32, 4, 0.7), seed);
        let layer = engine.generate_layer();
        let flat = renormalize(&layer, 8);
        let hash = hash_renormalize(&layer, 8);
        assert_equivalent(&flat, &hash, &format!("merged seed {seed}"));
    }
}

#[test]
fn identical_on_degenerate_layers() {
    let full = PhysicalLayer::fully_connected(30, 30);
    assert_equivalent(
        &renormalize(&full, 6),
        &hash_renormalize(&full, 6),
        "fully connected",
    );
    let blank = PhysicalLayer::blank(20, 20);
    assert_equivalent(&renormalize(&blank, 5), &hash_renormalize(&blank, 5), "blank");
}

#[test]
fn identical_on_offset_regions() {
    for seed in 0..4u64 {
        let mut engine = FusionEngine::new(HardwareConfig::new(48, 7, 0.78), seed);
        let layer = engine.generate_layer();
        let mut flat_engine = Renormalizer::new();
        let hash_engine = HashRenormalizer::new();
        for (origin, w, h, ns) in
            [((0usize, 0usize), 24usize, 24usize, 6usize), ((12, 12), 24, 24, 8), ((20, 8), 20, 30, 5)]
        {
            let flat = flat_engine.renormalize_region(&layer, origin, w, h, ns);
            let hash = hash_engine.renormalize_region(&layer, origin, w, h, ns);
            assert_eq!(flat.target_side(), hash.target_side());
            assert_eq!(flat.node_count(), hash.node_count(), "seed {seed} origin {origin:?}");
            for i in 0..flat.target_side() {
                for j in 0..flat.target_side() {
                    assert_eq!(
                        flat.node_site(i, j),
                        hash.node_site(i, j),
                        "seed {seed} origin {origin:?} node ({i}, {j})"
                    );
                }
            }
        }
    }
}

/// Deterministic micro-benchmark (test-gated twin of the criterion
/// `flat_vs_hash` group): renormalize the same pre-generated L=40 layers
/// with both engines and print the per-RSL latencies. The assertion is
/// deliberately loose — unoptimized builds distort relative costs; measure
/// the release-mode speedup with the criterion group
/// (`cargo bench -p oneperc-bench --bench online_per_rsl`).
#[test]
fn micro_bench_flat_not_slower_than_hash() {
    let layers: Vec<PhysicalLayer> = (0..8u64)
        .map(|seed| {
            let mut engine = FusionEngine::new(HardwareConfig::new(40, 7, 0.75), seed);
            engine.generate_layer()
        })
        .collect();
    let node_size = 10;
    let reps = 6;

    // Warm both paths once so first-touch page faults hit neither timing.
    let mut flat_engine = Renormalizer::new();
    for layer in &layers {
        std::hint::black_box(flat_engine.renormalize(layer, node_size).node_count());
        std::hint::black_box(hash_renormalize(layer, node_size).node_count());
    }

    let t0 = Instant::now();
    for _ in 0..reps {
        for layer in &layers {
            std::hint::black_box(flat_engine.renormalize(layer, node_size).node_count());
        }
    }
    let flat_per_rsl = t0.elapsed().as_secs_f64() / (reps * layers.len()) as f64;

    let t1 = Instant::now();
    for _ in 0..reps {
        for layer in &layers {
            std::hint::black_box(hash_renormalize(layer, node_size).node_count());
        }
    }
    let hash_per_rsl = t1.elapsed().as_secs_f64() / (reps * layers.len()) as f64;

    println!(
        "L=40 per-RSL renormalization: flat {:.1} us, hash {:.1} us, speedup {:.2}x",
        flat_per_rsl * 1e6,
        hash_per_rsl * 1e6,
        hash_per_rsl / flat_per_rsl
    );
    assert!(
        flat_per_rsl <= hash_per_rsl * 1.10,
        "flat-grid engine regressed below the hash baseline: flat {:.1} us vs hash {:.1} us",
        flat_per_rsl * 1e6,
        hash_per_rsl * 1e6
    );
}

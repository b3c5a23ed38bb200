//! Property tests for `ScratchPool` epoch-stamping under cross-layer (and
//! cross-thread) reuse, exercised through the public renormalizer APIs.
//!
//! Every pool worker, and every modular renormalizer, keeps one
//! `Renormalizer` — and thus one `ScratchPool` — alive for the lifetime of
//! the RSL stream, and `Renormalizer` values may be moved between threads.
//! These tests pin down the contract that makes all of that safe: a
//! scratch pool's history is unobservable, no matter how many layers or
//! regions it has seen or which thread drives it.

use oneperc_hardware::{FusionEngine, HardwareConfig, PhysicalLayer};
use oneperc_percolation::{ModuleRegion, Renormalizer};

fn random_layer(side: usize, p: f64, seed: u64) -> PhysicalLayer {
    let mut engine = FusionEngine::new(HardwareConfig::new(side, 7, p), seed);
    engine.generate_layer()
}

/// Reference output from a renormalizer that has never seen another layer.
fn fresh(layer: &PhysicalLayer, node_size: usize) -> oneperc_percolation::RenormalizedLattice {
    Renormalizer::new().renormalize(layer, node_size)
}

#[test]
fn heavily_reused_pool_matches_fresh_pool_after_thousands_of_layers() {
    // Reset-free reuse: one Renormalizer across thousands of layers of
    // varying geometry must keep producing exactly what a fresh pool
    // produces — the epoch stamps stand in for a full clear per layer.
    let mut veteran = Renormalizer::new();
    for round in 0..1500u64 {
        // Alternate geometries so stale stamps from a larger layer overlap
        // the sites of a smaller one.
        let (side, node) = if round % 3 == 0 { (24, 6) } else { (16, 4) };
        let layer = random_layer(side, 0.72, round);
        let a = veteran.renormalize(&layer, node);
        if round % 250 == 0 || round < 5 {
            assert_eq!(a, fresh(&layer, node), "round {round} diverged");
        }
    }
}

#[test]
fn renormalizer_migrated_across_threads_never_leaks_marks() {
    // Regression: a pool that renormalized layer A on one thread, then
    // moves to another thread and renormalizes layer B, must not carry
    // visitation marks over. (Stamps are per-pool state, not per-thread,
    // so a move is invisible — this pins that down.)
    let layer_a = random_layer(32, 0.75, 11);
    let layer_b = random_layer(32, 0.70, 99);

    let expected_b = fresh(&layer_b, 8);
    let mut migrant = Renormalizer::new();
    let on_a = migrant.renormalize(&layer_a, 8);
    assert_eq!(on_a, fresh(&layer_a, 8));

    // Move the renormalizer (with its warm scratch) into a worker thread.
    let (migrant, on_b) = std::thread::spawn(move || {
        let mut migrant = migrant;
        let on_b = migrant.renormalize(&layer_b, 8);
        (migrant, on_b)
    })
    .join()
    .expect("worker thread");
    assert_eq!(on_b, expected_b, "marks leaked into the migrated pool");

    // And back to the original thread, onto the first layer again.
    let mut migrant = migrant;
    assert_eq!(migrant.renormalize(&layer_a, 8), on_a, "round trip diverged");
}

#[test]
fn overlapping_regions_on_one_worker_stay_independent() {
    // Overlapping module regions of the same layer visit the same flat
    // sites back to back on one reused renormalizer; each result must
    // equal a fresh renormalizer's answer for its region.
    let layer = random_layer(40, 0.75, 7);
    let regions = [
        ModuleRegion { origin: (0, 0), width: 24, height: 24 },
        ModuleRegion { origin: (8, 8), width: 24, height: 24 },
        ModuleRegion { origin: (16, 16), width: 24, height: 24 },
        ModuleRegion { origin: (0, 0), width: 24, height: 24 },
    ];
    let mut reused = Renormalizer::new();
    let lattices: Vec<_> = regions
        .iter()
        .map(|r| reused.renormalize_region(&layer, r.origin, r.width, r.height, 6))
        .collect();
    for (region, lattice) in regions.iter().zip(&lattices) {
        let expected = Renormalizer::new().renormalize_region(
            &layer,
            region.origin,
            region.width,
            region.height,
            6,
        );
        assert_eq!(lattice, &expected, "region {region:?}");
    }
    assert_eq!(lattices[0], lattices[3], "identical regions must agree");
}

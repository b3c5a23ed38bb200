//! Determinism contract of the pipelined RSL stream: with a fixed seed,
//! the engines that generate and decide layers on a worker pool must produce
//! byte-identical outputs to the serial path — the same on-demand
//! logical-layer `RenormalizedLattice`s (down to every path site), the
//! same `LogicalLayerReport`s and the same cumulative statistics — for any
//! worker count and at every tested `(L, g, p)` point.
//!
//! Any scheduling leak in the worker pool (including the jobs the waiting
//! engine runs itself) shows up here as a diff on long streams.

use std::sync::Arc;

use oneperc_suite::hardware::{FusionEngine, HardwareConfig};
use oneperc_suite::percolation::{
    LayerRequirement, ModularConfig, ModularRenormalizer, ReshapeConfig, ReshapeEngine,
    TemporalRequirement, WorkerPool,
};

/// Drives a serial reshaping engine and one running layer jobs a window
/// ahead on a worker pool through the same requirement stream until both
/// consumed at least `min_layers` merged layers, comparing every report
/// and every logical lattice.
fn assert_pooled_stream_matches(rsl: usize, node_size: usize, p: f64, seed: u64, min_layers: u64) {
    let hw = HardwareConfig::new(rsl, 7, p);
    let config = ReshapeConfig::new(hw, node_size, 3, seed);
    let mut serial = ReshapeEngine::new(config);
    let pool = WorkerPool::new(2);
    let mut pooled = ReshapeEngine::with_renorm_client(config, pool.client());

    // A requirement mix with time-like edges so the dedicated time-like
    // sampler is exercised, not just layer generation and renormalization.
    let requirements = [
        LayerRequirement::none(),
        LayerRequirement {
            temporal_edges: vec![
                TemporalRequirement { coord: (0, 0), back_distance: 1 },
                TemporalRequirement { coord: (2, 1), back_distance: 1 },
            ],
            stores: 1,
            retrieves: 0,
        },
        LayerRequirement { temporal_edges: vec![], stores: 0, retrieves: 1 },
    ];

    let mut logical = 0usize;
    while serial.stats().merged_layers < min_layers {
        let req = &requirements[logical % requirements.len()];
        let a = serial.advance_logical_layer(req);
        let b = pooled.advance_logical_layer(req);
        assert_eq!(
            a, b,
            "L={rsl} p={p} seed={seed}: report diverged at logical layer {logical}"
        );
        assert_eq!(
            serial.last_logical_lattice(),
            pooled.last_logical_lattice(),
            "L={rsl} p={p} seed={seed}: lattice diverged at logical layer {logical}"
        );
        assert!(a.formed, "L={rsl} p={p} seed={seed}: stream stalled");
        logical += 1;
    }
    assert_eq!(
        serial.stats(),
        pooled.stats(),
        "L={rsl} p={p} seed={seed}: cumulative stats diverged"
    );
    assert!(serial.stats().merged_layers >= min_layers);
}

#[test]
fn pipelined_reshaping_is_byte_identical_small_layer() {
    assert_pooled_stream_matches(24, 6, 0.72, 2024, 50);
}

#[test]
fn pipelined_reshaping_is_byte_identical_medium_layer() {
    assert_pooled_stream_matches(36, 9, 0.78, 7, 50);
}

#[test]
fn pipelined_reshaping_is_byte_identical_table1_shape() {
    assert_pooled_stream_matches(40, 10, 0.75, 411, 50);
}

/// Streams `layers` seeded RSLs through a pooled modular renormalizer at
/// the given worker count and through a sequential one, comparing the full
/// outcome (modules, joins, counts) per layer.
fn assert_pooled_modular_stream_matches(
    rsl: usize,
    g: usize,
    p: f64,
    workers: usize,
    seed: u64,
    layers: usize,
) {
    let config = ModularConfig::new(g, 7, 6);
    let mut pooled = ModularRenormalizer::new(config.with_workers(workers));
    let mut sequential = ModularRenormalizer::new(config.sequential());
    let mut engine = FusionEngine::new(HardwareConfig::new(rsl, 7, p), seed);
    for layer_idx in 0..layers {
        let layer = Arc::new(engine.generate_layer());
        let a = pooled.run_shared(&layer);
        let b = sequential.run(&layer);
        assert_eq!(
            a, b,
            "L={rsl} g={g} p={p} workers={workers}: layer {layer_idx} diverged"
        );
    }
}

#[test]
fn pooled_modular_matches_serial_one_worker() {
    // A single worker serializes all modules through one scratch pool.
    assert_pooled_modular_stream_matches(48, 2, 0.75, 1, 31, 50);
}

#[test]
fn pooled_modular_matches_serial_two_workers() {
    assert_pooled_modular_stream_matches(48, 2, 0.75, 2, 32, 50);
}

#[test]
fn pooled_modular_matches_serial_oversubscribed() {
    // More workers than modules: idle workers must not perturb anything.
    assert_pooled_modular_stream_matches(48, 2, 0.75, 9, 33, 50);
}

#[test]
fn pooled_modular_matches_serial_three_by_three() {
    // 9 modules at a larger layer, moderately sized pool.
    assert_pooled_modular_stream_matches(60, 3, 0.72, 4, 34, 50);
}

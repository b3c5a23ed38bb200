//! Report pins: the explicit execution counters of a spread of configs,
//! required to hold for any later engine design. Every row was recorded
//! on keyed per-layer streams, where layer `i` of a run draws from its own
//! sampler seeded with `layer_key(seed, i)`; that deliberate stream break
//! moved every row, and the seeds of the starved and completing rows were
//! re-chosen so that each case below is still covered.
//!
//! Each row pins `rsl_consumed`, `merged_layers`, `fusions`,
//! `logical_layers`, `routing_layers`, `complete` and the failure reason
//! of one `(config, circuit, seed)` execution, and is checked at
//! `renorm_workers ∈ {0, 1, 2}`. The configs cover the Table-1 preset, the
//! p = 0.90 preset, runs starved of renormalization and of time-like
//! connections, and layers the renormalizer coarsens beyond the virtual
//! side. A row that fails means a report changed: the
//! stream or the logical/routing classification of some merged layer
//! moved.

use oneperc::{CompilerConfig, LayerFailureReason, Session};
use oneperc_circuit::benchmarks::{self, Benchmark};
use oneperc_circuit::Circuit;
use oneperc_hardware::HardwareConfig;

use LayerFailureReason::{RenormalizationStarved, TimelikeStarved};

/// `(rsl_consumed, merged_layers, fusions, logical_layers, routing_layers,
/// complete, failure reason)` of one execution.
type Pin = (u64, u64, u64, u64, u64, bool, Option<LayerFailureReason>);

/// Executes `circuit` under `config` for every `(seed, pin)` row, on a
/// fresh session per renormalization worker count, and compares the
/// pinned fields.
fn assert_pinned(name: &str, config: CompilerConfig, circuit: &Circuit, rows: &[(u64, Pin)]) {
    for workers in [0, 1, 2] {
        let session = Session::new(config.with_renorm_workers(workers));
        let compiled = session.compile(circuit).expect("offline pass succeeds");
        for &(seed, expected) in rows {
            let outcome = session.execute(&compiled, seed);
            let r = outcome.report();
            let got = (
                r.rsl_consumed,
                r.merged_layers,
                r.fusions,
                r.logical_layers,
                r.routing_layers,
                r.complete,
                outcome.failure().map(|f| f.reason),
            );
            assert_eq!(got, expected, "{name}, seed {seed}, renorm_workers {workers}");
        }
    }
}

#[test]
fn table1_preset_reports_are_pinned() {
    // The Table-1 preset (L = 120, node size 24, m = 3) with the paper's
    // four benchmarks; 4-qubit circuits keep the debug-build runtime small.
    let config = CompilerConfig::for_qubits(25, 0.75, 0);
    let pins: [[(u64, Pin); 2]; 4] = [
        [(1, (33, 11, 684239, 11, 0, true, None)), (2, (36, 12, 761292, 11, 1, true, None))],
        [(1, (63, 21, 1335314, 19, 2, true, None)), (2, (60, 20, 1259160, 19, 1, true, None))],
        [(1, (75, 25, 1598790, 22, 3, true, None)), (2, (69, 23, 1445913, 22, 1, true, None))],
        [(1, (57, 19, 1196305, 18, 1, true, None)), (2, (57, 19, 1196868, 18, 1, true, None))],
    ];
    for (bench, rows) in Benchmark::all().iter().zip(&pins) {
        assert_pinned(bench.name(), config, &bench.circuit(4, 1), rows);
    }
}

#[test]
fn p090_preset_reports_are_pinned() {
    let config = CompilerConfig::for_qubits(9, 0.9, 0);
    let rows =
        [(1, (462, 154, 834510, 153, 1, true, None)), (2, (459, 153, 828056, 153, 0, true, None))];
    assert_pinned("qaoa-9 @ q9/p0.90", config, &benchmarks::qaoa(9, 1), &rows);
}

#[test]
fn starved_sensitivity_reports_are_pinned() {
    // Near the percolation threshold the Fig. 16 sensitivity config starves:
    // at p = 0.60 of renormalization, at p = 0.64 (seed 16) of time-like
    // connections.
    let low = CompilerConfig::for_sensitivity(36, 3, 0.6, 0);
    let rows = [(1, (2100, 2100, 8105519, 13, 2087, false, Some(RenormalizationStarved)))];
    assert_pinned("qaoa-4 @ 36/3 p0.60", low, &benchmarks::qaoa(4, 1), &rows);
    let edge = CompilerConfig::for_sensitivity(36, 3, 0.64, 0);
    let rows = [
        (1, (86, 86, 255495, 59, 27, true, None)),
        (16, (2062, 2062, 7990903, 8, 2054, false, Some(TimelikeStarved))),
    ];
    assert_pinned("vqe-4 @ 36/3 p0.64", edge, &benchmarks::vqe(4, 1), &rows);
}

#[test]
fn merged_resource_state_reports_are_pinned() {
    // 4-qubit resource states (m = 3) at p = 0.72 on a 4 × 4 virtual
    // hardware: seeds 3 and 4 complete, seed 1 starves of renormalization
    // after 3 of 16 logical layers.
    let config = CompilerConfig::new(HardwareConfig::new(48, 4, 0.72), 4, 0);
    let rows = [
        (3, (258, 86, 1014425, 16, 70, true, None)),
        (4, (261, 87, 1026693, 16, 71, true, None)),
        (1, (6165, 2055, 25138254, 3, 2052, false, Some(RenormalizationStarved))),
    ];
    assert_pinned("qaoa-4 @ 48/4/0.72", config, &benchmarks::qaoa(4, 1), &rows);
}

#[test]
fn coarse_side_beyond_virtual_side_reports_are_pinned() {
    // Layers the renormalizer coarsens beyond the virtual hardware: at
    // 50/4 the RSL side is no multiple of the node size (50 = 4·12 + 2),
    // at 10/4 the coarse side is 5 (node size 2). Only the first
    // `virtual_side` bands may decide a layer.
    let wide = CompilerConfig::new(HardwareConfig::new(50, 4, 0.75), 4, 0);
    let rows =
        [(1, (132, 44, 511394, 29, 15, true, None)), (2, (105, 35, 391872, 29, 6, true, None))];
    assert_pinned("qft-4 @ 50/4/0.75", wide, &benchmarks::qft(4), &rows);
    let tiny = CompilerConfig::new(HardwareConfig::new(10, 7, 0.9), 4, 0);
    let rows = [
        (1, (366, 366, 86366, 188, 178, true, None)),
        (2, (383, 383, 91189, 188, 195, true, None)),
    ];
    assert_pinned("qaoa-16 @ 10/7/0.9", tiny, &benchmarks::qaoa(16, 1), &rows);
}

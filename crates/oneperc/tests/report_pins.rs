//! Report pins: the explicit execution counters of a spread of configs,
//! required to hold for any later engine design. The merging-factor-1
//! rows (the starved 36/3 runs and 10/7/0.9) were recorded on the
//! renormalize-every-layer reshaping engine; the merged-state rows (m > 1)
//! were re-recorded when layer generation moved to per-site merge-law
//! draws and pre-drawn bond planes, a deliberate stream break that leaves
//! the m = 1 rows untouched.
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
        [(1, (33, 11, 684446, 11, 0, true, None)), (2, (36, 12, 761041, 11, 1, true, None))],
        [(1, (63, 21, 1335348, 19, 2, true, None)), (2, (60, 20, 1258501, 19, 1, true, None))],
        [(1, (75, 25, 1598951, 22, 3, true, None)), (2, (69, 23, 1445067, 22, 1, true, None))],
        [(1, (57, 19, 1196463, 18, 1, true, None)), (2, (57, 19, 1196301, 18, 1, true, None))],
    ];
    for (bench, rows) in Benchmark::all().iter().zip(&pins) {
        assert_pinned(bench.name(), config, &bench.circuit(4, 1), rows);
    }
}

#[test]
fn p090_preset_reports_are_pinned() {
    let config = CompilerConfig::for_qubits(9, 0.9, 0);
    let rows =
        [(1, (462, 154, 834591, 153, 1, true, None)), (2, (459, 153, 827887, 153, 0, true, None))];
    assert_pinned("qaoa-9 @ q9/p0.90", config, &benchmarks::qaoa(9, 1), &rows);
}

#[test]
fn starved_sensitivity_reports_are_pinned() {
    // Near the percolation threshold the Fig. 16 sensitivity config starves:
    // at p = 0.60 of renormalization, at p = 0.64 (seed 2) of time-like
    // connections.
    let low = CompilerConfig::for_sensitivity(36, 3, 0.6, 0);
    let rows = [(1, (2064, 2064, 7978167, 4, 2060, false, Some(RenormalizationStarved)))];
    assert_pinned("qaoa-4 @ 36/3 p0.60", low, &benchmarks::qaoa(4, 1), &rows);
    let edge = CompilerConfig::for_sensitivity(36, 3, 0.64, 0);
    let rows = [
        (1, (96, 96, 294117, 59, 37, true, None)),
        (2, (2093, 2093, 8077513, 33, 2060, false, Some(TimelikeStarved))),
    ];
    assert_pinned("vqe-4 @ 36/3 p0.64", edge, &benchmarks::vqe(4, 1), &rows);
}

#[test]
fn merged_resource_state_reports_are_pinned() {
    // 4-qubit resource states (m = 3) at p = 0.72 on a 4 × 4 virtual
    // hardware: seeds 1 and 2 complete, seed 8 starves of renormalization
    // after 9 of 16 logical layers.
    let config = CompilerConfig::new(HardwareConfig::new(48, 4, 0.72), 4, 0);
    let rows = [
        (1, (183, 61, 709071, 16, 45, true, None)),
        (2, (201, 67, 782331, 16, 51, true, None)),
        (8, (6237, 2079, 25417624, 9, 2070, false, Some(RenormalizationStarved))),
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
        [(1, (132, 44, 511374, 29, 15, true, None)), (2, (108, 36, 405162, 29, 7, true, None))];
    assert_pinned("qft-4 @ 50/4/0.75", wide, &benchmarks::qft(4), &rows);
    let tiny = CompilerConfig::new(HardwareConfig::new(10, 7, 0.9), 4, 0);
    let rows = [
        (1, (348, 348, 81185, 188, 160, true, None)),
        (2, (352, 352, 82351, 188, 164, true, None)),
    ];
    assert_pinned("qaoa-16 @ 10/7/0.9", tiny, &benchmarks::qaoa(16, 1), &rows);
}

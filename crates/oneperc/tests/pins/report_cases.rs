//! The report-pin case table: the `(config, circuit, seed)` executions
//! whose explicit report counters `tests/report_pins.rs` pins, and the
//! pinned values.
//!
//! `examples/regen_pins.rs` includes this module too. It re-runs every row
//! and prints each group below in paste-ready form, so a deliberate stream
//! break is re-recorded with one command. Every row carries a comment
//! naming the case it covers (it completes, it starves of renormalization,
//! or it starves of time-like connections); when a re-recorded seed stops
//! showing its case, the tool picks a seed that does and says so.

use oneperc::{CompilerConfig, LayerFailureReason};
use oneperc_circuit::benchmarks::{self, Benchmark};
use oneperc_circuit::Circuit;
use oneperc_hardware::HardwareConfig;

use LayerFailureReason::{RenormalizationStarved, TimelikeStarved};

/// `(rsl_consumed, merged_layers, fusions, logical_layers, routing_layers,
/// complete, failure reason)` of one execution.
pub type Pin = (u64, u64, u64, u64, u64, bool, Option<LayerFailureReason>);

/// One pinned execution: the case name (see [`case`]), the seed and the
/// pin.
pub type Row = (&'static str, u64, Pin);

/// The configuration and circuit a case name stands for.
///
/// - `table1/<benchmark>`: the Table-1 preset (L = 120, node size 24,
///   m = 3) with one of the paper's four benchmarks; 4-qubit circuits keep
///   the debug-build runtime small.
/// - `p090/qaoa-9`: the p = 0.90 preset.
/// - `starved/qaoa-4` and `edge/vqe-4`: the Fig. 16 sensitivity config
///   near the percolation threshold, at p = 0.60 and p = 0.64.
/// - `merged/qaoa-4`: 4-qubit resource states (m = 3) at p = 0.72 on a
///   4 × 4 virtual hardware.
/// - `wide/qft-4` and `tiny/qaoa-16`: layers the renormalizer coarsens
///   beyond the virtual side. At 50/4 the RSL side is no multiple of the
///   node size (50 = 4·12 + 2); at 10/4 the coarse side is 5 (node size
///   2). Only the first `virtual_side` bands may decide a layer.
pub fn case(name: &str) -> (CompilerConfig, Circuit) {
    if let Some(bench) = name.strip_prefix("table1/") {
        let bench = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == bench)
            .unwrap_or_else(|| panic!("unknown benchmark in case {name}"));
        return (CompilerConfig::for_qubits(25, 0.75, 0), bench.circuit(4, 1));
    }
    match name {
        "p090/qaoa-9" => (CompilerConfig::for_qubits(9, 0.9, 0), benchmarks::qaoa(9, 1)),
        "starved/qaoa-4" => {
            (CompilerConfig::for_sensitivity(36, 3, 0.6, 0), benchmarks::qaoa(4, 1))
        }
        "edge/vqe-4" => (CompilerConfig::for_sensitivity(36, 3, 0.64, 0), benchmarks::vqe(4, 1)),
        "merged/qaoa-4" => {
            (CompilerConfig::new(HardwareConfig::new(48, 4, 0.72), 4, 0), benchmarks::qaoa(4, 1))
        }
        "wide/qft-4" => {
            (CompilerConfig::new(HardwareConfig::new(50, 4, 0.75), 4, 0), benchmarks::qft(4))
        }
        "tiny/qaoa-16" => {
            (CompilerConfig::new(HardwareConfig::new(10, 7, 0.9), 4, 0), benchmarks::qaoa(16, 1))
        }
        _ => panic!("unknown report-pin case {name}"),
    }
}

/// What a pinned execution shows, named by its failure reason.
pub fn shows(reason: Option<LayerFailureReason>) -> &'static str {
    match reason {
        None => "completes",
        Some(RenormalizationStarved) => "starves of renormalization",
        Some(TimelikeStarved) => "starves of time-like connections",
        Some(_) => "fails for another reason",
    }
}

// Recorded by `cargo run --release -p oneperc --example regen_pins`.

pub const TABLE1: &[Row] = &[
    // completes
    ("table1/QAOA", 1, (33, 11, 684099, 11, 0, true, None)),
    // completes
    ("table1/QAOA", 2, (36, 12, 760763, 11, 1, true, None)),
    // completes
    ("table1/QFT", 1, (63, 21, 1334900, 19, 2, true, None)),
    // completes
    ("table1/QFT", 2, (60, 20, 1258776, 19, 1, true, None)),
    // completes
    ("table1/RCA", 1, (75, 25, 1597903, 22, 3, true, None)),
    // completes
    ("table1/RCA", 2, (69, 23, 1445483, 22, 1, true, None)),
    // completes
    ("table1/VQE", 1, (57, 19, 1195917, 18, 1, true, None)),
    // completes
    ("table1/VQE", 2, (57, 19, 1196459, 18, 1, true, None)),
];

pub const P090: &[Row] = &[
    // completes
    ("p090/qaoa-9", 1, (462, 154, 834752, 153, 1, true, None)),
    // completes
    ("p090/qaoa-9", 2, (459, 153, 828088, 153, 0, true, None)),
];

pub const STARVED: &[Row] = &[
    // starves of renormalization
    ("starved/qaoa-4", 1, (2062, 2062, 7970825, 5, 2057, false, Some(RenormalizationStarved))),
    // completes
    ("edge/vqe-4", 1, (85, 85, 251599, 59, 26, true, None)),
    // starves of time-like connections (seed 10 replaces seed 16, which now completes)
    ("edge/vqe-4", 10, (2080, 2080, 8043198, 22, 2058, false, Some(TimelikeStarved))),
];

pub const MERGED: &[Row] = &[
    // completes
    ("merged/qaoa-4", 3, (276, 92, 1088200, 16, 76, true, None)),
    // completes (seed 1 replaces seed 4, which now starves of renormalization)
    ("merged/qaoa-4", 1, (234, 78, 916830, 16, 62, true, None)),
    // starves of renormalization (seed 4 replaces seed 1, which now completes)
    ("merged/qaoa-4", 4, (6282, 2094, 25596137, 12, 2082, false, Some(RenormalizationStarved))),
];

pub const COARSE: &[Row] = &[
    // completes
    ("wide/qft-4", 1, (117, 39, 445011, 29, 10, true, None)),
    // completes
    ("wide/qft-4", 2, (117, 39, 445014, 29, 10, true, None)),
    // completes
    ("tiny/qaoa-16", 1, (389, 389, 93037, 188, 201, true, None)),
    // completes
    ("tiny/qaoa-16", 2, (361, 361, 84907, 188, 173, true, None)),
];

/// Every group of rows, by the name of its constant, in file order.
pub const GROUPS: [(&str, &[Row]); 5] = [
    ("TABLE1", TABLE1),
    ("P090", P090),
    ("STARVED", STARVED),
    ("MERGED", MERGED),
    ("COARSE", COARSE),
];

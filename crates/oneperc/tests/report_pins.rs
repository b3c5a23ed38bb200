//! Report pins: the explicit execution counters of a spread of configs,
//! required to hold for any later engine design. The rows live in
//! `pins/report_cases.rs`, which `examples/regen_pins.rs` re-records after
//! a deliberate stream break.
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

#[allow(dead_code)]
#[path = "pins/report_cases.rs"]
mod report_cases;

use oneperc::Session;
use report_cases::{case, shows, Row};

/// Executes every row of a group on a fresh session per case and
/// renormalization worker count, and compares the pinned fields.
fn assert_pinned(rows: &[Row]) {
    let mut names: Vec<&str> = rows.iter().map(|&(name, _, _)| name).collect();
    names.dedup();
    for name in names {
        let (config, circuit) = case(name);
        for workers in [0, 1, 2] {
            let session = Session::new(config.with_renorm_workers(workers));
            let compiled = session.compile(&circuit).expect("offline pass succeeds");
            for &(_, seed, expected) in rows.iter().filter(|row| row.0 == name) {
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
                assert_eq!(
                    got,
                    expected,
                    "{name} ({}), seed {seed}, renorm_workers {workers}",
                    shows(expected.6)
                );
            }
        }
    }
}

#[test]
fn table1_preset_reports_are_pinned() {
    assert_pinned(report_cases::TABLE1);
}

#[test]
fn p090_preset_reports_are_pinned() {
    assert_pinned(report_cases::P090);
}

#[test]
fn starved_sensitivity_reports_are_pinned() {
    assert_pinned(report_cases::STARVED);
}

#[test]
fn merged_resource_state_reports_are_pinned() {
    assert_pinned(report_cases::MERGED);
}

#[test]
fn coarse_side_beyond_virtual_side_reports_are_pinned() {
    assert_pinned(report_cases::COARSE);
}

//! End-to-end integration tests: circuit → program graph → IR →
//! instructions → online execution, across crates.

use std::sync::Arc;

use oneperc_suite::circuit::{benchmarks, ProgramGraph};
use oneperc_suite::compiler::{CompilerConfig, Session};
use oneperc_suite::ir::InstructionInterpreter;

/// Every benchmark family compiles and executes end to end on the Table 1
/// sizing for 4 qubits, and the reported metrics are internally consistent.
#[test]
fn all_benchmarks_compile_and_execute() {
    for bench in benchmarks::Benchmark::all() {
        let circuit = bench.circuit(4, 3);
        let session = Session::new(CompilerConfig::for_qubits(4, 0.9, 3));
        let compiled = Arc::new(session.compile(&circuit).expect("offline pass succeeds"));
        assert!(compiled.mapping.complete, "{bench}: mapping incomplete");
        assert!(compiled.mapping.ir.validate().is_ok(), "{bench}: invalid IR");

        let report = session.execute_shared(Arc::clone(&compiled), 3).into_report();
        assert!(report.complete, "{bench}: online pass did not finish");
        assert_eq!(report.logical_layers as usize, compiled.layer_count());
        assert_eq!(report.merged_layers, report.logical_layers + report.routing_layers);
        assert!(report.rsl_consumed >= report.merged_layers);
        assert!(report.fusions > 0);
    }
}

/// The instruction stream produced by the offline pass always satisfies the
/// virtual-hardware rules enforced by the interpreter.
#[test]
fn instruction_streams_are_well_formed() {
    for bench in benchmarks::Benchmark::all() {
        let circuit = bench.circuit(4, 9);
        let session = Session::new(CompilerConfig::for_qubits(4, 0.75, 9));
        let compiled = session.compile(&circuit).expect("offline pass succeeds");
        let mut interpreter = InstructionInterpreter::new();
        interpreter
            .run(&compiled.mapping.instructions)
            .unwrap_or_else(|e| panic!("{bench}: invalid instruction stream: {e}"));
        assert_eq!(interpreter.executed(), compiled.mapping.instructions.len());
    }
}

/// The program graph of every benchmark is a connected description of the
/// computation: every measured node has at least one edge, and output nodes
/// exist for every wire.
#[test]
fn program_graphs_are_well_formed() {
    for bench in benchmarks::Benchmark::all() {
        let circuit = bench.circuit(5, 1);
        let program = ProgramGraph::from_circuit(&circuit);
        assert_eq!(program.outputs().len(), 5);
        assert_eq!(program.inputs().len(), 5);
        for v in program.creation_order() {
            // Every measured node participates in the computation; idle
            // wires (for example the unused qubit of an odd-width adder)
            // only contribute an unmeasured output node.
            if program.node(*v).basis.is_some() {
                assert!(
                    program.degree(*v) > 0,
                    "{bench}: measured node {v} is isolated"
                );
            }
        }
        let dag = program.dependency_dag();
        assert!(dag.topological_order().is_some(), "{bench}: cyclic dependency DAG");
    }
}

/// Lower fusion success probability never reduces the number of consumed
/// RSLs for the same seed and program (Fig. 12(c) monotonicity at the scale
/// of a single program).
#[test]
fn rsl_grows_as_fusion_probability_drops() {
    let circuit = benchmarks::qaoa(4, 5);
    let mut previous = 0u64;
    for p in [0.9, 0.78, 0.7] {
        let session = Session::new(CompilerConfig::for_sensitivity(36, 2, p, 5));
        let compiled = session.compile(&circuit).expect("compilation succeeds");
        let report = session.execute_shared(Arc::new(compiled), 5).into_report();
        assert!(
            report.rsl_consumed >= previous,
            "p = {p} consumed fewer RSLs ({}) than a higher probability ({previous})",
            report.rsl_consumed
        );
        previous = report.rsl_consumed;
    }
}

/// The refresh mechanism never increases the modeled memory footprint and
/// never loses program nodes.
#[test]
fn refresh_preserves_program_and_bounds_memory() {
    let circuit = benchmarks::qft(4);
    let base = CompilerConfig::for_sensitivity(36, 3, 0.85, 4);
    let session = Session::new(base);
    let plain = session
        .execute_shared(Arc::new(session.compile(&circuit).unwrap()), 4)
        .into_report();
    let refreshed_session = Session::new(base.with_refresh_period(Some(6)));
    let refreshed = refreshed_session
        .execute_shared(Arc::new(refreshed_session.compile(&circuit).unwrap()), 4)
        .into_report();
    assert_eq!(plain.program_nodes, refreshed.program_nodes);
    assert!(refreshed.peak_memory_bytes <= plain.peak_memory_bytes);
}

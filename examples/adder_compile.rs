//! Domain example: compile a Cuccaro ripple-carry adder and inspect the
//! intermediate artifacts of every stage — circuit, program graph state,
//! dependency DAG, FlexLattice IR, instruction stream and execution report.
//!
//! Run with `cargo run --release --example adder_compile`.

use std::sync::Arc;

use oneperc_suite::circuit::{benchmarks, ProgramGraph};
use oneperc_suite::compiler::{CompilerConfig, Session};
use oneperc_suite::ir::InstructionInterpreter;

fn main() {
    // A 6-qubit ripple-carry adder (two 2-bit operands plus carry-in and
    // carry-out).
    let circuit = benchmarks::rca(6);
    println!(
        "circuit: {} qubits, {} gates ({} CZ after lowering)",
        circuit.n_qubits(),
        circuit.len(),
        circuit.cz_count()
    );

    // Stage 1: MBQC translation.
    let program = ProgramGraph::from_circuit(&circuit);
    println!(
        "program graph state: {} nodes, {} edges, {} measured qubits",
        program.node_count(),
        program.edge_count(),
        program.measured_count()
    );

    // Stage 2: dependency analysis (flow-induced partial order).
    let dag = program.dependency_dag();
    println!(
        "dependency DAG: {} ordering constraints, initial front layer of {} nodes",
        dag.edge_count(),
        dag.scheduler().front().len()
    );

    // Stage 3 + 4: offline mapping and online execution through a warm
    // compiler session.
    let config = CompilerConfig::for_qubits(circuit.n_qubits(), 0.75, 11);
    let session = Session::new(config);
    let compiled = session.compile(&circuit).expect("mapping succeeds");
    let stats = &compiled.mapping.stats;
    println!(
        "offline mapping: {} layers, {} ancillas, {} spatial edges, {} temporal edges ({} cross-layer)",
        stats.layers, stats.ancilla_nodes, stats.spatial_edges, stats.temporal_edges, stats.cross_layer_edges
    );

    // The instruction stream is validated against the virtual-hardware
    // rules before execution.
    let mut interpreter = InstructionInterpreter::new();
    interpreter
        .run(&compiled.mapping.instructions)
        .expect("instruction stream is well-formed");
    println!(
        "instruction stream: {} instructions, all accepted by the interpreter",
        compiled.mapping.instructions.len()
    );

    match session.execute_shared(Arc::new(compiled), config.seed) {
        outcome if outcome.is_complete() => {
            println!("\nexecution report:\n{}", outcome.report());
        }
        outcome => {
            let failure = outcome.failure().expect("incomplete outcome names its failure");
            println!("\nexecution incomplete: {failure}");
        }
    }
}

//! Head-to-head comparison of OnePerc against the OneQ repeat-until-success
//! baseline on the same benchmark, at the hyper-advanced (0.90) and
//! practical (0.75) fusion success probabilities — a miniature Table 2.
//!
//! Run with `cargo run --release --example compare_with_oneq`.

use std::sync::Arc;

use oneperc_suite::circuit::benchmarks::Benchmark;
use oneperc_suite::compiler::{CompilerConfig, Session};
use oneperc_suite::oneq::{OneqCompiler, OneqConfig};

fn main() {
    let qubits = 4;
    let seed = 7;
    let cap = 200_000;

    println!(
        "{:<6} {:<10} {:>12} {:>12} {:>12}",
        "p", "benchmark", "OneQ #RSL", "OnePerc#RSL", "speedup"
    );
    for p in [0.90, 0.75] {
        for bench in Benchmark::all() {
            let circuit = bench.circuit(qubits, seed);

            // Baseline: OneQ plans assuming fusions always succeed and
            // retries layers (or the whole program) on failure.
            let baseline = OneqCompiler::new(
                OneqConfig::new(2 * qubits, p, seed).with_rsl_cap(cap),
            )
            .run(&circuit)
            .expect("baseline planning succeeds");

            // OnePerc: randomness-aware compilation through a session.
            let session = Session::new(CompilerConfig::for_qubits(qubits, p, seed));
            let compiled = session.compile(&circuit).expect("oneperc compilation succeeds");
            let ours = session.execute_shared(Arc::new(compiled), seed).into_report();

            let baseline_rsl = if baseline.saturated {
                format!("> {cap}")
            } else {
                baseline.rsl_consumed.to_string()
            };
            println!(
                "{:<6.2} {:<10} {:>12} {:>12} {:>12.1}",
                p,
                format!("{bench}-{qubits}"),
                baseline_rsl,
                ours.rsl_consumed,
                baseline.rsl_consumed as f64 / ours.rsl_consumed.max(1) as f64,
            );
        }
    }
    println!("\nOneQ saturates (hits the RSL cap) once fusion failures make whole-program retries hopeless;");
    println!("OnePerc keeps #RSL bounded because percolation and reshaping absorb the randomness.");
}

//! Quickstart: build a compiler session, compile a small QAOA program
//! once, execute a seed sweep through the warm pipeline, then let the
//! content-addressed program cache do the compile-once bookkeeping, on an
//! unbounded session and on one with a bounded admission window.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use oneperc_suite::circuit::benchmarks;
use oneperc_suite::compiler::service::block_on;
use oneperc_suite::compiler::{
    CompilerConfig, ExecuteOutcome, ExecutionRequest, JobFuture, Session,
};

fn main() {
    // A 4-qubit QAOA max-cut instance on a random graph (the smallest
    // benchmark of the paper's evaluation).
    let circuit = benchmarks::qaoa(4, 42);
    println!("input circuit:\n{circuit}");

    // Table 1 sizing for 4 qubits at the practical fusion success
    // probability of 0.75: a 2x2 virtual hardware on a 48x48 RSL built from
    // 4-qubit star resource states. The session owns the warm execution
    // context — a persistent lane engine plus two renormalization pool
    // workers — for as long as it lives.
    let config = CompilerConfig::for_qubits(4, 0.75, 42).with_renorm_workers(2);
    let session = Session::new(config);

    // Offline pass, once per circuit: program graph state → FlexLattice IR
    // → instructions.
    let compiled = Arc::new(session.compile(&circuit).expect("offline mapping succeeds"));
    println!(
        "offline pass: {} program nodes mapped onto {} virtual-hardware layers, {} instructions",
        compiled.mapping.stats.program_nodes,
        compiled.layer_count(),
        compiled.mapping.instructions.len(),
    );
    println!("first instructions of the stream:");
    for instruction in compiled.mapping.instructions.instructions().iter().take(8) {
        println!("  {instruction}");
    }

    // Online pass, once per seed: stochastic fusions, percolation,
    // renormalization and time-like connections until every logical layer
    // is formed. The whole sweep reuses the warm engine — only the RNG
    // stream restarts between runs. Every seed is submitted first, then
    // the outcomes are collected in seed order.
    let seeds: Vec<u64> = (42..50).collect();
    let jobs: Vec<JobFuture> = seeds
        .iter()
        .map(|&seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
        .collect();
    let outcomes: Vec<ExecuteOutcome> = jobs.into_iter().map(JobFuture::wait).collect();
    println!("\nseed sweep over {} seeds:", seeds.len());
    println!("{:>6} {:>10} {:>12} {:>10}", "seed", "#RSL", "#fusion", "PL ratio");
    for (seed, outcome) in seeds.iter().zip(&outcomes) {
        let report = outcome.report();
        println!(
            "{seed:>6} {:>10} {:>12} {:>10.2}",
            report.rsl_consumed,
            report.fusions,
            report.pl_ratio()
        );
    }

    // Full report of the first run; a typed failure would name the starved
    // logical layer instead of a silent `complete: false`.
    match &outcomes[0] {
        outcome if outcome.is_complete() => {
            println!("\nfirst execution report:\n{}", outcome.report());
        }
        outcome => {
            let failure = outcome.failure().expect("incomplete outcome names its failure");
            println!("\nexecution incomplete: {failure}");
        }
    }

    // --- Cached multi-seed sweeps -----------------------------------------
    //
    // The offline pass above is deterministic per (circuit, config) — only
    // the online pass consumes randomness — so `Session::sweep` resolves
    // the circuit through a content-addressed program cache instead of
    // asking the caller to hold the compiled artifact. The first sweep
    // compiles; every later sweep of the same circuit is a cache hit and
    // goes straight to execution.
    let sweep_seeds: Vec<u64> = (100..108).collect();
    for _ in 0..2 {
        let jobs = session.sweep(&circuit, &sweep_seeds).expect("offline mapping succeeds");
        let outcomes: Vec<ExecuteOutcome> = jobs.into_iter().map(JobFuture::wait).collect();
        assert_eq!(outcomes.len(), sweep_seeds.len());
    }
    println!("\ncached sweeps: program cache {}", session.cache_stats());

    // For embedding in an RPC server, the same session type takes a
    // bounded admission window: `try_submit` answers Busy instead of
    // queueing without limit, `submit` and `sweep` park for a slot, and
    // every job completes as a plain std future — here drained with the
    // built-in hand-rolled `block_on`.
    let service = Session::builder(config).lanes(2).queue_depth(4).build();
    let futures = service.sweep(&circuit, &sweep_seeds).expect("offline mapping succeeds");
    let total_rsl: u64 = futures
        .into_iter()
        .map(|future| block_on(future).report().rsl_consumed)
        .sum();
    println!(
        "bounded sweep over {} seeds consumed {total_rsl} RSLs; compiled {} time(s)",
        sweep_seeds.len(),
        service.cache_stats().misses
    );
}

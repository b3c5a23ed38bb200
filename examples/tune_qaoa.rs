//! Auto-tune the compiler configuration for a QAOA instance: span a
//! lattice of candidate knob settings, let the tuner evaluate them over
//! the warm multi-tenant fleet with online Pareto pruning, then reuse
//! the cached frontier artifact and run the recommended configuration.
//!
//! Run with `cargo run --release --example tune_qaoa` (the tuner
//! executes real seed sweeps; debug builds are slow).

use oneperc_suite::circuit::benchmarks;
use oneperc_suite::compiler::{CompilerConfig, Session};
use oneperc_suite::tune::{ConfigLattice, TuneSource, Tuner};

fn main() {
    let circuit = benchmarks::qaoa(4, 42);

    // Three knobs around the 4-qubit Table 1 preset at p = 0.90: how
    // many redundant temporal ports to plan, whether to renormalize on a
    // worker pool, and whether to refresh the virtual hardware
    // periodically. 2 x 2 x 2 = 8 candidate configurations.
    let lattice = ConfigLattice::new(CompilerConfig::for_qubits(4, 0.9, 1))
        .with_temporal_redundancies(&[2, 3])
        .with_renorm_workers(&[0, 1])
        .with_refresh_periods(&[None, Some(6)]);
    println!("lattice: {} points over {} knobs", lattice.len(), lattice.knob_count());

    // Evaluation fans out over the warm fleet: 2 lanes per session, up
    // to 2 points in flight, dominated in-flight points cancelled
    // mid-run. Artifacts persist under target/ so a rerun of this
    // example is a disk cache hit.
    let dir = std::path::Path::new("target").join("tune-artifacts");
    let mut tuner = Tuner::builder(lattice)
        .seeds(&[1, 2, 3, 4])
        .lanes(2)
        .concurrent_points(2)
        .artifact_dir(&dir)
        .build();

    let outcome = tuner.tune(&circuit).expect("tuning succeeds");
    println!(
        "tune source: {:?} — {} evaluated, {} pruned before submission, {} shed in flight",
        outcome.source,
        outcome.stats.points_evaluated,
        outcome.stats.points_pruned_static,
        outcome.stats.points_shed_inflight,
    );

    println!("\nPareto frontier ({} objectives):", outcome.artifact.objectives.len());
    for point in &outcome.artifact.frontier {
        println!(
            "  temporal={} workers={} refresh={:<7} cost={:?}",
            point.config.temporal_redundancy,
            point.config.renorm_workers,
            format!("{:?}", point.config.refresh_period),
            point.cost,
        );
    }

    // Re-tuning the same question is a cache hit: nothing executes.
    let again = tuner.tune(&circuit).expect("cached tune succeeds");
    assert_eq!(again.source, TuneSource::MemoryCache);
    assert_eq!(again.json, outcome.json, "the cache returns the stored bytes");
    println!("\nre-tune answered from {:?} in {:?}", again.source, again.stats.wall);

    // The recommendation rebuilds into a runnable config (pick any seed;
    // the artifact is seed-free).
    let best = outcome.artifact.recommended.to_config(42);
    let session = Session::new(best);
    let compiled = session.compile(&circuit).expect("offline mapping succeeds");
    let report = session.execute(&compiled, 42).into_report();
    println!(
        "\nrecommended config: temporal={} workers={} refresh={:?} -> {} RSLs, {:.1} RSL/layer",
        best.temporal_redundancy,
        best.renorm_workers,
        best.refresh_period,
        report.rsl_consumed,
        report.rsl_per_logical_layer(),
    );
}

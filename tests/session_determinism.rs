//! Determinism contract of the session API: per `(config, circuit, seed)`,
//! a warm [`Session`] produces reports byte-identical (wall-clock fields
//! aside, via `ExecutionReport::deterministic`) to a fresh single-lane,
//! in-thread session per seed — regardless of batch size, submission
//! order, lane count, renormalization worker count, or how many
//! executions the session has already served.
//!
//! In the spirit of `tests/pipeline_determinism.rs`: any state leaking
//! across `ReshapeEngine::reset`, any cross-lane RNG contamination, and
//! any scheduling leak in the shared worker pool shows up here as a diff.

use std::sync::Arc;

use oneperc_suite::circuit::benchmarks;
use oneperc_suite::compiler::{
    CompilerConfig, ExecuteOutcome, ExecutionReport, ExecutionRequest, JobFuture, Session,
};

const SEEDS: [u64; 16] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597];

/// The cold reference: a fresh 1-lane, in-thread session per seed.
fn cold_reports(config: CompilerConfig, circuit: &oneperc_suite::circuit::Circuit) -> Vec<ExecutionReport> {
    SEEDS
        .iter()
        .map(|&seed| {
            let session = Session::new(config.with_seed(seed).with_renorm_workers(0));
            let compiled = session.compile(circuit).expect("offline pass succeeds");
            session.execute_report(&compiled).deterministic()
        })
        .collect()
}

fn batch_reports(outcomes: &[ExecuteOutcome]) -> Vec<ExecutionReport> {
    outcomes.iter().map(|o| o.report().deterministic()).collect()
}

/// The acceptance sweep: a 16-seed batch through one warm session equals 16
/// fresh per-seed sessions, byte for byte.
#[test]
fn warm_16_seed_sweep_matches_cold_per_call_runs() {
    let circuit = benchmarks::qaoa(4, 2);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.8, 0);
    let cold = cold_reports(config, &circuit);

    let session = Session::new(config);
    let compiled = session.compile(&circuit).unwrap();
    let warm = batch_reports(&session.execute_batch(&compiled, &SEEDS));
    assert_eq!(warm, cold);
    assert!(warm.iter().all(|r| r.complete));
}

/// Batch size and chunking never change per-seed results: one 16-batch,
/// four 4-batches and sixteen single executions all agree.
#[test]
fn batch_size_is_unobservable() {
    let circuit = benchmarks::qft(4);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.85, 0);
    let session = Session::new(config);
    let compiled = session.compile(&circuit).unwrap();

    let whole = batch_reports(&session.execute_batch(&compiled, &SEEDS));
    let chunked: Vec<ExecutionReport> = SEEDS
        .chunks(4)
        .flat_map(|chunk| batch_reports(&session.execute_batch(&compiled, chunk)))
        .collect();
    let singles: Vec<ExecutionReport> = SEEDS
        .iter()
        .map(|&seed| session.execute(&compiled, seed).report().deterministic())
        .collect();
    assert_eq!(whole, chunked);
    assert_eq!(whole, singles);
    assert_eq!(session.jobs_submitted() as usize, 3 * SEEDS.len());
}

/// Lane count (1, 2, oversubscribed beyond the batch) never changes
/// per-seed results, nor does reversing the submission order.
#[test]
fn lane_count_and_submission_order_are_unobservable() {
    let circuit = benchmarks::rca(4);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.78, 0);
    let mut baseline: Option<Vec<ExecutionReport>> = None;
    for lanes in [1usize, 2, 24] {
        let session = Session::builder(config).lanes(lanes).build();
        assert_eq!(session.lane_count(), lanes);
        let compiled = session.compile(&circuit).unwrap();
        let forward = batch_reports(&session.execute_batch(&compiled, &SEEDS));
        // Reversed submission: collect, then restore seed order.
        let reversed_seeds: Vec<u64> = SEEDS.iter().rev().copied().collect();
        let mut reversed = batch_reports(&session.execute_batch(&compiled, &reversed_seeds));
        reversed.reverse();
        assert_eq!(forward, reversed, "lanes = {lanes}: submission order leaked");
        match &baseline {
            None => baseline = Some(forward),
            Some(expected) => assert_eq!(&forward, expected, "lanes = {lanes}"),
        }
    }
}

/// `renorm_workers` (in-thread, 1, 2, oversubscribed) never changes
/// results — the knob the reshaping stage actually consults.
#[test]
fn renorm_worker_count_is_unobservable() {
    let circuit = benchmarks::qaoa(4, 5);
    let base = CompilerConfig::for_sensitivity(36, 3, 0.75, 0);
    let mut baseline: Option<Vec<ExecutionReport>> = None;
    for workers in [0usize, 1, 2, 6] {
        let session = Session::builder(base.with_renorm_workers(workers))
            .lanes(2)
            .build();
        assert_eq!(
            session.renorm_pool_workers(),
            (workers > 0).then_some(workers)
        );
        let compiled = session.compile(&circuit).unwrap();
        let reports = batch_reports(&session.execute_batch(&compiled, &SEEDS[..8]));
        match &baseline {
            None => baseline = Some(reports),
            Some(expected) => assert_eq!(&reports, expected, "workers={workers}"),
        }
    }
}

/// A session that has served many executions behaves like a new one: no
/// state leaks across resets, even interleaving different programs through
/// the raw submit interface.
#[test]
fn long_lived_session_stays_clean() {
    let config = CompilerConfig::for_sensitivity(36, 3, 0.82, 0);
    let session = Session::builder(config).lanes(2).build();
    let qaoa = Arc::new(session.compile(&benchmarks::qaoa(4, 1)).unwrap());
    let vqe = Arc::new(session.compile(&benchmarks::vqe(4, 1)).unwrap());

    let first = session.execute(&qaoa, 31).report().deterministic();
    // Churn: interleave programs and seeds through both lanes.
    let handles: Vec<JobFuture> = (0..24u64)
        .map(|i| {
            let program = if i % 2 == 0 { &qaoa } else { &vqe };
            session.submit(ExecutionRequest::new(Arc::clone(program), i))
        })
        .collect();
    for handle in handles {
        let _ = handle.wait();
    }
    // The same request after the churn reproduces the first answer.
    let again = session.execute(&qaoa, 31).report().deterministic();
    assert_eq!(first, again);
}

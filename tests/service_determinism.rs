//! Determinism and cache contract of the service layer (the PR-4
//! tentpole): a `Session::sweep` on a bounded session compiles exactly
//! once through the content-addressed program cache and produces reports
//! byte-identical (wall-clock and cache telemetry aside, via
//! `ExecutionReport::deterministic`) to explicitly compiled programs
//! submitted seed by seed — with every `JobFuture` resolving under a
//! minimal hand-rolled block-on executor.
//!
//! These tests are the lock on the PR-4 acceptance criteria, in the
//! spirit of `tests/session_determinism.rs` for PR 3.

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use oneperc_suite::circuit::benchmarks;
use oneperc_suite::circuit::Circuit;
use oneperc_suite::compiler::service::block_on;
use oneperc_suite::compiler::{
    CompilerConfig, ExecuteOutcome, ExecutionReport, ExecutionRequest, JobFuture, Session,
};

const SEEDS: [u64; 16] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597];

fn deterministic(outcomes: &[ExecuteOutcome]) -> Vec<ExecutionReport> {
    outcomes.iter().map(|o| o.report().deterministic()).collect()
}

fn wait_all(jobs: Vec<JobFuture>) -> Vec<ExecuteOutcome> {
    jobs.into_iter().map(JobFuture::wait).collect()
}

/// The explicit-program reference: compiles `circuit` on `session`, submits
/// one job per seed, then waits for them all, in seed order.
fn compile_and_submit(session: &Session, circuit: &Circuit, seeds: &[u64]) -> Vec<ExecuteOutcome> {
    let compiled = Arc::new(session.compile(circuit).unwrap());
    wait_all(
        seeds
            .iter()
            .map(|&seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
            .collect(),
    )
}

/// The acceptance sweep: ≥16 seeds through a bounded session's sweep
/// compile exactly once (cache counters prove it) and match the
/// explicitly compiled reference byte for byte.
#[test]
fn async_sweep_compiles_once_and_matches_sync_batch() {
    let circuit = benchmarks::qaoa(4, 2);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.8, 0);

    // Reference: explicit compile, one submission per seed.
    let sync = deterministic(&compile_and_submit(&Session::new(config), &circuit, &SEEDS));

    // Cached path: the sweep resolves the circuit through the cache and
    // the admission window (narrower than the sweep, so submission
    // exercises backpressure parking too).
    let service = Session::builder(config).lanes(2).queue_depth(4).build();
    let futures = service.sweep(&circuit, &SEEDS).unwrap();
    assert_eq!(futures.len(), SEEDS.len());
    let outcomes: Vec<ExecuteOutcome> = futures.into_iter().map(block_on).collect();
    assert_eq!(deterministic(&outcomes), sync, "async and sync sweeps diverged");
    assert!(outcomes.iter().all(ExecuteOutcome::is_complete));

    // Compiled exactly once: one miss, zero further compiles.
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "the sweep must compile exactly once");
    assert_eq!(stats.hits, 0, "one sweep is one lookup");
    assert_eq!(stats.entries, 1);

    // A second full sweep is a pure cache hit.
    let again: Vec<ExecuteOutcome> =
        service.sweep(&circuit, &SEEDS).unwrap().into_iter().map(block_on).collect();
    assert_eq!(deterministic(&again), sync);
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "second sweep must not recompile");
    assert_eq!(stats.hits, 1);
    // In-band telemetry: the second sweep's reports carry the hit.
    assert_eq!(again[0].report().cache.hits, 1);
    assert_eq!(again[0].report().cache.misses, 1);
}

/// Per-submission circuit entry points hit the same cache line: 16
/// individually submitted seeds still compile once.
#[test]
fn per_seed_submissions_share_one_compile() {
    let circuit = benchmarks::qft(4);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.85, 0);
    let service = Session::builder(config).lanes(2).queue_depth(16).build();

    let futures: Vec<_> = SEEDS
        .iter()
        .map(|&seed| service.submit_circuit(&circuit, seed).unwrap())
        .collect();
    let outcomes: Vec<ExecuteOutcome> = futures.into_iter().map(block_on).collect();
    assert!(outcomes.iter().all(ExecuteOutcome::is_complete));

    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, SEEDS.len() as u64 - 1);

    assert_eq!(
        deterministic(&outcomes),
        deterministic(&compile_and_submit(&Session::new(config), &circuit, &SEEDS))
    );
}

/// Cache semantics: hit-vs-miss byte-identity across seeds — executions
/// from a cached (hit) program equal executions from a freshly compiled
/// (miss) one.
#[test]
fn hit_and_miss_programs_execute_identically() {
    let circuit = benchmarks::rca(4);
    let config = CompilerConfig::for_sensitivity(36, 3, 0.78, 0);

    // Fresh session per run → every sweep is a miss.
    let miss_session = Session::new(config);
    let from_miss = deterministic(&wait_all(miss_session.sweep(&circuit, &SEEDS[..8]).unwrap()));

    // One warm session → first sweep misses, second hits.
    let warm = Session::new(config);
    let first = deterministic(&wait_all(warm.sweep(&circuit, &SEEDS[..8]).unwrap()));
    let second = deterministic(&wait_all(warm.sweep(&circuit, &SEEDS[..8]).unwrap()));
    assert_eq!(warm.cache_stats().hits, 1);
    assert_eq!(warm.cache_stats().misses, 1);

    assert_eq!(first, from_miss, "miss-compiled programs agree across sessions");
    assert_eq!(second, from_miss, "hit-served program is byte-identical to a fresh compile");

    // The shared artifact really is shared: two cached compiles alias.
    let a = warm.compile_cached(&circuit).unwrap();
    let b = warm.compile_cached(&circuit).unwrap();
    assert!(Arc::ptr_eq(&a.program, &b.program));
}

/// Eviction under a tiny capacity: a capacity-1 cache thrashes between two
/// circuits (evictions counted), yet every served program stays correct.
#[test]
fn eviction_under_tiny_capacity_keeps_results_correct() {
    let config = CompilerConfig::for_sensitivity(36, 3, 0.85, 0);
    let tiny = Session::builder(config).program_cache(1).build();
    let qaoa = benchmarks::qaoa(4, 2);
    let qft = benchmarks::qft(4);

    let reference = Session::new(config);
    let qaoa_ref = deterministic(&compile_and_submit(&reference, &qaoa, &SEEDS[..4]));
    let qft_ref = deterministic(&compile_and_submit(&reference, &qft, &SEEDS[..4]));

    for round in 0..2 {
        let a = deterministic(&wait_all(tiny.sweep(&qaoa, &SEEDS[..4]).unwrap()));
        let b = deterministic(&wait_all(tiny.sweep(&qft, &SEEDS[..4]).unwrap()));
        assert_eq!(a, qaoa_ref, "round {round}");
        assert_eq!(b, qft_ref, "round {round}");
    }
    let stats = tiny.cache_stats();
    assert_eq!(stats.capacity, 1);
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.hits, 0, "alternating circuits on capacity 1 never hit");
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.evictions, 3, "every miss after the first displaced the resident");
}

/// Config-fingerprint sensitivity: changing any knob addresses a different
/// cache line (a new compile), while changing only the seed does not.
#[test]
fn config_knobs_split_cache_lines_but_seeds_do_not() {
    let circuit = benchmarks::qaoa(4, 2);
    let base = CompilerConfig::for_sensitivity(36, 3, 0.8, 0);
    let variants = [
        base.with_refresh_period(Some(5)),
        base.with_resource_state_size(4),
        base.with_renorm_workers(1),
        CompilerConfig::for_sensitivity(48, 3, 0.8, 0),
        CompilerConfig::for_sensitivity(36, 3, 0.75, 0),
    ];
    // Pairwise-distinct fingerprints (seed aside) → distinct keys.
    let mut fingerprints: Vec<u64> =
        variants.iter().chain([&base]).map(CompilerConfig::fingerprint).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), variants.len() + 1, "a knob change failed to split the key");
    assert_eq!(base.fingerprint(), base.with_seed(12345).fingerprint());

    // And behaviorally: a session re-keyed only by seed keeps hitting…
    let session = Session::new(base);
    wait_all(session.sweep(&circuit, &[1]).unwrap());
    wait_all(session.sweep(&circuit, &[2, 3]).unwrap());
    assert_eq!(session.cache_stats().misses, 1, "seed changes must reuse the artifact");
    // …while each knob variant compiles fresh in its own session.
    for variant in variants {
        let other = Session::new(variant);
        wait_all(other.sweep(&circuit, &[1]).unwrap());
        assert_eq!(other.cache_stats().misses, 1);
    }
}

/// Backpressure contract: a full admission window answers `Busy` from
/// `try_submit` instead of queueing, and drains back to acceptance.
#[test]
fn try_submit_sheds_load_when_the_window_fills() {
    let config = CompilerConfig::for_sensitivity(36, 3, 0.8, 0);
    let service = Session::builder(config).queue_depth(2).build();
    let compiled = service.compile_cached(&benchmarks::qaoa(4, 2)).unwrap().program;

    // Saturate the window, counting refusals: with depth 2 and jobs that
    // take milliseconds, refusals must appear well before 64 attempts.
    let mut admitted = Vec::new();
    let mut refused = 0usize;
    for seed in 0..64u64 {
        match service.try_submit(ExecutionRequest::new(Arc::clone(&compiled), seed)) {
            Ok(future) => admitted.push(future),
            Err(err) => {
                refused += 1;
                assert!(err.to_string().contains("admission window full"));
            }
        }
        if refused > 0 && admitted.len() >= 2 {
            break;
        }
    }
    assert!(refused > 0, "a depth-2 window must refuse under a 64-submission burst");
    assert!(service.in_flight() <= 2, "admissions never exceed the window");

    // Drain: every admitted job resolves, and the window re-opens.
    for future in admitted {
        assert!(block_on(future).is_complete());
    }
    let future = service
        .try_submit(ExecutionRequest::new(compiled, 99))
        .expect("drained window admits again");
    assert!(block_on(future).is_complete());
}

/// The `JobFuture` contract under a *locally defined* block-on executor —
/// the test supplies its own waker wiring (poll-count instrumented), so
/// resolution is proven against the `Future` trait alone, not against the
/// crate's own executor.
#[test]
fn job_future_resolves_under_a_hand_rolled_executor() {
    struct CountingWaker {
        thread: std::thread::Thread,
        wakes: std::sync::atomic::AtomicUsize,
    }
    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.wakes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.thread.unpark();
        }
    }

    fn drive<F: Future>(future: F) -> (F::Output, usize) {
        let mut future = std::pin::pin!(future);
        let waker_impl = Arc::new(CountingWaker {
            thread: std::thread::current(),
            wakes: std::sync::atomic::AtomicUsize::new(0),
        });
        let waker = Waker::from(Arc::clone(&waker_impl));
        let mut cx = Context::from_waker(&waker);
        let mut polls = 0usize;
        loop {
            polls += 1;
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(value) => return (value, polls),
                Poll::Pending => std::thread::park(),
            }
        }
    }

    let config = CompilerConfig::for_sensitivity(36, 3, 0.85, 0);
    let service = Session::new(config);
    let circuit = benchmarks::qaoa(4, 2);

    let future = service.submit_circuit(&circuit, 7).unwrap();
    let (outcome, polls) = drive(future);
    assert!(outcome.is_complete());
    assert!(polls >= 1);

    // Reference equality with the parking path.
    let sync = service.execute_shared(service.compile_cached(&circuit).unwrap().program, 7);
    assert_eq!(outcome.report().deterministic(), sync.report().deterministic());
}

/// Redemption order is free: polling futures in reverse completes fine and
/// seed-order association is preserved through `JobFuture::seed`.
#[test]
fn futures_redeem_out_of_order_without_mixing_seeds() {
    let config = CompilerConfig::for_sensitivity(36, 3, 0.82, 0);
    let service = Session::builder(config).lanes(3).queue_depth(16).build();
    let circuit = benchmarks::vqe(4, 1);

    let futures = service.sweep(&circuit, &SEEDS[..6]).unwrap();
    let session = Session::new(config);
    let compiled = Arc::new(session.compile(&circuit).unwrap());

    for future in futures.into_iter().rev() {
        let seed = future.seed();
        let outcome = block_on(future);
        let solo = session.execute_shared(Arc::clone(&compiled), seed);
        assert_eq!(
            outcome.report().deterministic(),
            solo.report().deterministic(),
            "seed {seed} mixed up across out-of-order redemption"
        );
    }
}

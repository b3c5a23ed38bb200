//! Multi-tenant serving contract (the PR-7 tentpole): per-key
//! single-flight compilation through a cache shared across sessions,
//! cancellation that sheds layers when a submitter walks away, and
//! per-tenant telemetry stamped on reports — all without perturbing the
//! byte-identity contracts the determinism suites enforce.
//!
//! Unit-level twins of the cache tests live in
//! `crates/oneperc/src/service/cache.rs`; these run the same guarantees
//! through the public facade the way an embedding server would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use oneperc_suite::circuit::benchmarks;
use oneperc_suite::compiler::service::{program_key, ProgramCache};
use oneperc_suite::compiler::{
    CompilerConfig, ExecuteOutcome, ExecutionRequest, LayerFailureReason, Session,
};

fn small_config(p: f64, seed: u64) -> CompilerConfig {
    CompilerConfig::for_sensitivity(36, 3, p, seed)
}

/// A manually opened gate with a watchdog, so a regression that
/// re-serializes compilation deadlocks into a test failure instead of a
/// hung CI job.
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate { open: Mutex::new(false), bell: Condvar::new() }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.bell.notify_all();
    }

    fn wait(&self) {
        let guard = self.open.lock().unwrap();
        let (guard, timeout) = self
            .bell
            .wait_timeout_while(guard, Duration::from_secs(10), |open| !*open)
            .unwrap();
        drop(guard);
        assert!(!timeout.timed_out(), "gate never opened: compiles serialized");
    }
}

/// Two tenants miss on *distinct* circuits at once: both compiles must be
/// in flight simultaneously (each compile closure blocks until it has
/// seen the other arrive), which is only possible if misses compile
/// outside the cache lock.
#[test]
fn distinct_circuit_compiles_overlap_across_tenants() {
    let cache = Arc::new(ProgramCache::new(8));
    let config = small_config(0.9, 1);
    let arrived = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Gate::new());

    let tenants: Vec<_> = [benchmarks::qaoa(4, 1), benchmarks::rca(4)]
        .into_iter()
        .map(|circuit| {
            let cache = Arc::clone(&cache);
            let arrived = Arc::clone(&arrived);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let session = Session::builder(config)
                    .lanes(1)
                    .shared_program_cache(Arc::clone(&cache))
                    .build();
                let key = program_key(session.config(), &circuit);
                let lookup = cache
                    .get_or_try_insert_with::<std::convert::Infallible>(key, || {
                        // Rendezvous: refuse to finish compiling until both
                        // tenants are inside their compile closures.
                        if arrived.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                            gate.open();
                        }
                        gate.wait();
                        Ok(session.compile(&circuit).unwrap())
                    })
                    .unwrap();
                assert!(!lookup.hit);
                // The shared program is immediately executable.
                assert!(session.execute_shared(lookup.program, 3).is_complete());
            })
        })
        .collect();
    for tenant in tenants {
        tenant.join().unwrap();
    }
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().entries, 2);
    assert_eq!(cache.in_flight(), 0);
}

/// Many tenants miss on the *same* circuit at once: one leader compiles,
/// everyone else waits and shares the leader's program (`Arc`-identical),
/// and the miss counter proves exactly one offline pass ran.
#[test]
fn same_key_tenants_share_one_compile() {
    let config = small_config(0.9, 1);
    let hub = Session::new(config);
    let cache = hub.program_cache_handle();
    let circuit = benchmarks::qaoa(4, 2);

    let tenants: Vec<_> = (0..4)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let circuit = circuit.clone();
            std::thread::spawn(move || {
                let session = Session::builder(config)
                    .lanes(1)
                    .shared_program_cache(cache)
                    .build();
                session.compile_cached(&circuit).unwrap()
            })
        })
        .collect();
    let programs: Vec<_> = tenants.into_iter().map(|t| t.join().unwrap()).collect();
    for other in &programs[1..] {
        assert!(Arc::ptr_eq(&programs[0], other), "tenants must share one program");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "single-flight: exactly one offline pass");
    assert_eq!(stats.hits, 3, "every other tenant was served the leader's compile");
}

/// Dropping a `JobFuture` sheds the queued work: the lane observes the
/// cancelled token at its first layer checkpoint and skips the run,
/// while neighbours before and after it in the same lane's queue are
/// untouched — byte-identical to a session that never saw the
/// cancellation.
#[test]
fn dropped_handle_sheds_layers_without_perturbing_neighbours() {
    let config = small_config(0.8, 5);
    let circuit = benchmarks::qaoa(4, 2);

    let session = Session::builder(config).lanes(1).build();
    let compiled = session.compile_cached(&circuit).unwrap();

    // Queue depth on the single lane guarantees the victim's token is
    // cancelled long before the lane reaches it.
    let blockers: Vec<_> = (0..3)
        .map(|seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
        .collect();
    let victim = session.submit(ExecutionRequest::new(Arc::clone(&compiled), 99));
    drop(victim); // walks away: nobody can observe this outcome any more
    let sentinel = session.submit(ExecutionRequest::new(Arc::clone(&compiled), 7));

    let mut outcomes: Vec<_> = blockers.into_iter().map(|handle| handle.wait()).collect();
    outcomes.push(sentinel.wait());
    assert!(outcomes.iter().all(ExecuteOutcome::is_complete), "neighbours unaffected");
    assert_eq!(session.jobs_cancelled(), 1, "the dropped handle's run was shed");
    assert_eq!(session.jobs_submitted(), 5);
    assert_eq!(session.jobs_completed(), 5, "cancelled runs still retire");

    // The survivors are byte-identical to a session with no cancellation.
    let fresh = Session::builder(config).lanes(1).build();
    let reference = fresh.execute_shared(Arc::clone(&compiled), 7);
    assert_eq!(
        outcomes[3].report().deterministic(),
        reference.report().deterministic(),
        "cancellation perturbed an unrelated run"
    );
}

/// Explicit `cancel()` reports `LayerFailureReason::Cancelled` on the
/// outcome the handle still redeems.
#[test]
fn explicit_cancel_reports_cancelled_outcome() {
    let config = small_config(0.8, 5);
    let circuit = benchmarks::qaoa(4, 2);
    let session = Session::builder(config).lanes(1).build();
    let compiled = session.compile_cached(&circuit).unwrap();

    // Hold the lane so the victim is still queued when we cancel.
    let blocker = session.submit(ExecutionRequest::new(Arc::clone(&compiled), 1));
    let victim = session.submit(ExecutionRequest::new(Arc::clone(&compiled), 2));
    victim.cancel();
    assert!(blocker.wait().is_complete());
    match victim.wait() {
        ExecuteOutcome::Incomplete { failure, report } => {
            assert_eq!(failure.reason, LayerFailureReason::Cancelled);
            assert_eq!(report.logical_layers, 0, "cancelled before the first layer");
        }
        ExecuteOutcome::Complete(_) => panic!("a pre-cancelled queued job must not run"),
    }
    assert_eq!(session.jobs_cancelled(), 1);
}

/// One tenant's compile is another tenant's hit, and the programs behave
/// byte-identically: the same `(circuit, seed)` through either session
/// produces the same deterministic report.
#[test]
fn shared_cache_cross_session_hit_is_byte_identical() {
    let config = small_config(0.9, 3);
    let circuit = benchmarks::rca(4);

    let tenant_a = Session::builder(config).lanes(1).build();
    let tenant_b = Session::builder(config)
        .lanes(2)
        .shared_program_cache(tenant_a.program_cache_handle())
        .build();

    let first = tenant_a.compile_cached_lookup(&circuit).unwrap();
    assert!(!first.hit);
    let second = tenant_b.compile_cached_lookup(&circuit).unwrap();
    assert!(second.hit, "tenant A's compile must serve tenant B");
    assert!(Arc::ptr_eq(&first.program, &second.program));
    assert_eq!(tenant_a.cache_stats(), tenant_b.cache_stats());

    for seed in [1u64, 8, 21] {
        let a = tenant_a.execute_shared(Arc::clone(&first.program), seed);
        let b = tenant_b.execute_shared(Arc::clone(&second.program), seed);
        assert_eq!(
            a.report().deterministic(),
            b.report().deterministic(),
            "shared-cache tenants diverged at seed {seed}"
        );
    }
}

/// The sweep stamps each report with its own lookup's telemetry: the
/// first sweep is a miss for every report, the second a hit — and
/// `deterministic()` erases the stamp so byte-identity contracts are
/// unaffected.
#[test]
fn sweep_reports_carry_per_lookup_cache_telemetry() {
    let config = small_config(0.9, 2);
    let circuit = benchmarks::qaoa(4, 1);
    let session = Session::builder(config).lanes(2).build();

    let cold = session.sweep(&circuit, &[1, 2, 3]).unwrap();
    assert!(cold.iter().all(|o| !o.report().service.cache_hit));
    let warm = session.sweep(&circuit, &[1, 2, 3]).unwrap();
    assert!(warm.iter().all(|o| o.report().service.cache_hit));

    for (c, w) in cold.iter().zip(&warm) {
        assert!(c.report().service.queue_depth >= 1);
        assert_eq!(c.report().deterministic(), w.report().deterministic());
        assert_eq!(c.report().deterministic().service, Default::default());
    }
}

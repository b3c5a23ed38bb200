//! The call chains `perfbench/` makes into this crate, spelled exactly as
//! it spells them, so the names it uses cannot go away before the
//! benchmark moves off them. `AsyncSession` and `Session::session` are
//! deprecated: they stay only until the benchmark change that moves
//! `perfbench/src/fleet.rs` onto `Session`, which also deletes this file's
//! fleet test.

#![allow(deprecated)]

use std::sync::Arc;

use oneperc::service::{block_on, ProgramCache};
use oneperc::{
    AsyncSession, CompilerConfig, ExecuteOutcome, JobFuture, Session,
    DEFAULT_PROGRAM_CACHE_CAPACITY,
};
use oneperc_circuit::benchmarks;

/// `fleet-mixed`: two tenants on one shared cache, compiled through
/// `.session()`, jobs submitted by circuit and waited on or polled.
#[test]
fn fleet_call_chain_still_compiles_and_runs() {
    let configs = [
        CompilerConfig::for_qubits(4, 0.9, 1),
        CompilerConfig::for_sensitivity(36, 3, 0.9, 1),
    ];
    let cache = Arc::new(ProgramCache::new(DEFAULT_PROGRAM_CACHE_CAPACITY));
    let tenants: Vec<AsyncSession> = configs
        .iter()
        .map(|&config| {
            AsyncSession::builder(config)
                .lanes(1)
                .shared_program_cache(Arc::clone(&cache))
                .build()
        })
        .collect();
    let circuit = benchmarks::qaoa(4, 2);
    for tenant in &tenants {
        let session: &Session = tenant.session();
        let compiled = session.compile(&circuit).expect("warm-up compile");
        assert!(compiled.mapping.complete);

        let first: JobFuture = tenant
            .submit_circuit(&circuit, 1)
            .map_err(|e| format!("submit failed: {e}"))
            .unwrap();
        let miss: ExecuteOutcome = first.wait();
        assert!(miss.is_complete());
        assert!(!miss.report().service.cache_hit, "the first lookup misses");
        let hit = block_on(tenant.submit_circuit(&circuit, 2).unwrap());
        assert!(hit.report().service.cache_hit, "the hit flag is stamped on the report");
    }
    assert_eq!(cache.stats().misses, 2, "one compile per tenant configuration");
}

/// `table1-online` and `offline-scale`, plus the cold reference every
/// workload checks its jobs against: `execute_shared` on one-lane
/// sessions, with and without a program cache.
#[test]
fn table1_offline_and_reference_call_chains_agree() {
    let config = CompilerConfig::for_qubits(4, 0.9, 3);
    let circuit = benchmarks::qft(4);
    let warm = Session::builder(config).lanes(1).build();
    let compiled = Arc::new(warm.compile(&circuit).expect("offline pass succeeds"));
    let cold = Session::builder(config).lanes(1).program_cache(0).build();
    for seed in [3u64, 4] {
        let job = warm.execute_shared(Arc::clone(&compiled), seed);
        let reference = cold.execute_shared(Arc::clone(&compiled), seed);
        assert_eq!(job.report().deterministic(), reference.report().deterministic());
    }
}

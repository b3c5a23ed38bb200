//! OnePerc: a randomness-aware compiler for photonic quantum computing.
//!
//! This crate is the top of the reproduction stack: it wires the offline
//! pass (circuit → program graph state → FlexLattice IR → instructions) to
//! the online pass (stochastic fusions → percolation → renormalization →
//! time-like connections) and reports the paper's metrics — `#RSL`,
//! `#fusion`, the PL ratio, and the classical-memory estimate behind the
//! refresh study.
//!
//! # Sessions: the primary entry point
//!
//! Photonic compilation is *repeated stochastic execution over a fixed
//! machine configuration*: the same compiled program is run across many
//! RNG seeds to characterize the hardware's randomness. [`Session`] is
//! built for exactly that shape. It owns the warm
//! execution context — persistent lane threads with reseedable reshaping
//! engines and a shared [`WorkerPool`](oneperc_percolation::WorkerPool)
//! sized by [`CompilerConfig::renorm_workers`] — and multiplexes every
//! execution through it, so a seed sweep pays thread and allocation
//! startup once instead of per run. Each merged layer of a run is a pure
//! function of `(config, seed, layer index)`, so with workers every layer
//! is one pool job (generate, then decide whether it renormalizes) that
//! any thread can run, the waiting lane included.
//!
//! Quickstart — build a session, compile once, execute a seed sweep:
//!
//! ```
//! use std::sync::Arc;
//!
//! use oneperc::{CompilerConfig, ExecutionRequest, Session};
//! use oneperc_circuit::benchmarks;
//!
//! // One warm session per machine configuration.
//! let config = CompilerConfig::for_qubits(4, 0.9, 1);
//! let session = Session::new(config);
//!
//! // Offline pass runs once per circuit…
//! let circuit = benchmarks::qaoa(4, 1);
//! let compiled = Arc::new(session.compile(&circuit).unwrap());
//!
//! // …online pass runs once per seed, through the warm lanes: submit
//! // every seed, then collect the outcomes.
//! let jobs: Vec<_> = [1, 2, 3, 4]
//!     .iter()
//!     .map(|&seed| session.submit(ExecutionRequest::new(Arc::clone(&compiled), seed)))
//!     .collect();
//! for job in jobs {
//!     let report = job.wait().into_report();
//!     assert!(report.rsl_consumed > 0);
//!     assert!(report.logical_layers > 0);
//! }
//! ```
//!
//! Executions report a typed [`ExecuteOutcome`]: a complete run carries
//! its [`ExecutionReport`], an incomplete one additionally says *which*
//! logical layer failed to form and why ([`LayerFailure`]). Determinism is
//! contractual: per `(config, circuit, seed)` the metrics are
//! byte-identical whatever the lane count, `renorm_workers` setting, sweep
//! width or submission order — `tests/session_determinism.rs` enforces it.
//!
//! # The service layer: admission and content-addressed compilation
//!
//! The same [`Session`] carries what an embedding RPC server needs, with
//! the machinery in [`service`]. Every submission returns a
//! [`JobFuture`]: a plain `std::future::Future` (hand-rolled `Waker`
//! wiring, no runtime dependency) consumable by any executor, the
//! built-in [`service::block_on`] or [`JobFuture::wait`]. An optional
//! admission window, [`SessionBuilder::queue_depth`], bounds the jobs in
//! flight: [`Session::try_submit`] then answers
//! [`Busy`](SubmitError::Busy) instead of queueing without limit, and
//! [`Session::submit_async`] waits for a slot without parking. And because
//! the offline pass is deterministic per `(circuit, config)` while only
//! the online pass consumes randomness, the circuit-accepting entry points
//! resolve programs through a content-addressed [`service::ProgramCache`]
//! — keyed by the circuit's
//! [structural hash](oneperc_circuit::Circuit::structural_hash) plus the
//! configuration's [fingerprint](CompilerConfig::fingerprint), seed
//! excluded — so a multi-seed sweep compiles **once**:
//!
//! ```
//! use oneperc::service::block_on;
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let service = Session::builder(CompilerConfig::for_qubits(4, 0.9, 1))
//!     .queue_depth(2)
//!     .build();
//! let circuit = benchmarks::qaoa(4, 1);
//! let futures = service.sweep(&circuit, &[1, 2, 3, 4]).unwrap();
//! for future in futures {
//!     assert!(block_on(future).is_complete());
//! }
//! assert_eq!(service.cache_stats().misses, 1, "compiled exactly once");
//! ```
//!
//! Cache hit/miss/eviction counters surface as [`CacheStats`] on the
//! reports and through [`Session::cache_stats`].
//!
//! # Multi-tenant fleets: shared cache, cancellation, telemetry
//!
//! One process can serve many tenants from many sessions sharing **one**
//! program cache — keys are process-independent stable hashes, so a
//! circuit compiled for any tenant is a cache hit for all of them, and
//! concurrent misses of the same key single-flight across the fleet
//! (distinct keys compile concurrently; the compile runs outside the
//! cache lock):
//!
//! ```
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let config = CompilerConfig::for_qubits(4, 0.9, 1);
//! let tenant_a = Session::new(config);
//! let tenant_b = Session::builder(config)
//!     .shared_program_cache(tenant_a.program_cache_handle())
//!     .build();
//!
//! tenant_a.compile_cached(&benchmarks::qaoa(4, 1)).unwrap(); // miss
//! let lookup = tenant_b.compile_cached(&benchmarks::qaoa(4, 1)).unwrap();
//! assert!(lookup.hit, "tenant A's compile served tenant B");
//! ```
//!
//! Under overload, work is **shed, not finished**: dropping the
//! [`JobFuture`] that every submission returns (or calling
//! its `cancel`) flips a [`CancelToken`](service::CancelToken) the lane
//! polls between logical layers; the run stops at the next checkpoint with
//! [`LayerFailureReason::Cancelled`]. Runs that complete are never
//! perturbed, so determinism contracts hold. Each service report also
//! carries per-tenant scheduling telemetry
//! ([`ExecutionReport::service`]): admission queue depth, queue wait, and
//! whether the program was a cache hit.
//!
//! For scaling beyond one process, shard sessions: one `Session` per
//! machine configuration, each with as many lanes as the host should
//! dedicate to that tenant — sessions of the *same* configuration can
//! still share a cache.
//!
//! Every synchronization primitive behind this tier (the admission
//! semaphore, the single-flight cache protocol, job futures, cancel
//! tokens, the layer and renormalization worker pool) is model-checked: the
//! in-tree bounded model checker `oneperc-verify` exhaustively explores
//! their interleavings under `--cfg oneperc_model`, and
//! `cargo xtask lint-sync` keeps raw `std::sync` out of production code
//! so nothing synchronizes behind the checker's back. The catalogue of
//! primitives, the invariants, the model tests pinning each one, and how
//! to replay a failing schedule live in `CONCURRENCY.md` at the
//! workspace root.
//!
//! The experiment harness in `crates/bench` drives this API to regenerate
//! every table and figure of the paper's evaluation; the `examples/`
//! directory shows smaller end-to-end uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiler;
mod config;
mod memory;
mod report;
pub mod service;
mod session;
pub mod sync;

pub use compiler::{layer_requirement, CompileError, CompiledProgram};
pub use config::{CompilerConfig, Preset};
pub use memory::MemoryModel;
pub use report::{
    CacheStats, ExecuteOutcome, ExecutionReport, LayerFailure, LayerFailureReason,
    ServiceTelemetry,
};
#[allow(deprecated)]
pub use service::AsyncSession;
pub use service::{JobFuture, SubmitError};
pub use session::{ExecutionRequest, Session, SessionBuilder, DEFAULT_PROGRAM_CACHE_CAPACITY};

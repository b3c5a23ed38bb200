//! The OnePerc service layer: content-addressed compilation, admission
//! and job futures behind the one [`Session`](crate::Session).
//!
//! The paper splits compilation into a deterministic **offline pass**
//! (circuit → program graph → FlexLattice IR → instructions) and a
//! randomness-consuming **online pass** (stochastic fusions → percolation →
//! renormalization). A service sweeping many seeds therefore has two
//! structural redundancies a plain compile-then-execute loop leaves on the
//! table:
//!
//! 1. **Repeated compilation.** The offline artifact is a pure function of
//!    `(circuit, configuration)` — seed excluded — yet every call that
//!    starts from a circuit recompiles it. [`ProgramCache`] removes this: a
//!    bounded LRU keyed by the circuit's
//!    [structural hash](oneperc_circuit::Circuit::structural_hash) combined
//!    with the configuration's
//!    [fingerprint](crate::CompilerConfig::fingerprint), both stable 64-bit
//!    hashes. Compile-once-sweep-many becomes automatic for
//!    [`Session::sweep`](crate::Session::sweep) and
//!    [`Session::submit_circuit`](crate::Session::submit_circuit);
//!    hit/miss/eviction counters surface through
//!    [`CacheStats`](crate::CacheStats) on the
//!    [`ExecutionReport`](crate::ExecutionReport).
//! 2. **Unbounded admission.** A default session hands every job to its
//!    lane queues at once. An optional window,
//!    [`SessionBuilder::queue_depth`](crate::SessionBuilder::queue_depth),
//!    bounds the jobs in flight: [`try_submit`](crate::Session::try_submit)
//!    then refuses with [`SubmitError::Busy`] instead of queueing without
//!    limit, and [`submit_async`](crate::Session::submit_async) returns an
//!    [`AdmissionFuture`] that waits for a slot without parking the
//!    executor thread. Every submission returns the same [`JobFuture`]:
//!    a plain `std::future::Future` wired through hand-rolled `Waker`
//!    plumbing (std only, no runtime dependency), consumable by any
//!    executor, by the built-in [`block_on`], or synchronously via
//!    [`JobFuture::wait`].
//!
//! # Multi-tenant serving
//!
//! The tier scales out to many concurrent tenants in one process:
//!
//! * **Per-key single-flight compilation.** [`ProgramCache`] misses
//!   compile *outside* the cache lock: distinct circuits compile
//!   concurrently, same-key submitters share one leader's compile, and
//!   `stats()`/`len()` answer immediately throughout. A compile that
//!   panics fails only its own caller — waiters elect a new leader and
//!   the cache keeps serving (no mutex poisoning).
//! * **One cache, many sessions.** Program keys are process-independent
//!   stable hashes, so a single `Arc<ProgramCache>` can back a whole
//!   fleet of sessions
//!   ([`SessionBuilder::shared_program_cache`](crate::SessionBuilder::shared_program_cache)):
//!   one tenant's compile is every tenant's hit, byte-identically.
//! * **Cancellation sheds load.** Dropping a [`JobFuture`] flips the job's
//!   [`CancelToken`]; the lane observes it between logical layers and
//!   stops, reporting
//!   [`LayerFailureReason::Cancelled`](crate::LayerFailureReason::Cancelled).
//!   Completed runs are never perturbed — the token is only read at
//!   checkpoints.
//! * **Per-tenant telemetry.** Every service report carries
//!   [`ExecutionReport::service`](crate::ExecutionReport::service): the
//!   admission queue depth at accept time, the queue wait before a lane
//!   picked the job up, and whether its program was a cache hit —
//!   stamped from the lookup's own atomic counter snapshot, never a racy
//!   post-hoc read.
//!
//! Determinism remains contractual end to end: per `(config, circuit,
//! seed)` the reports are byte-identical — wall-clock and cache/service
//! telemetry aside, i.e. under
//! [`ExecutionReport::deterministic`](crate::ExecutionReport::deterministic)
//! — whatever the entry point, admission capacity, cache state, tenant
//! count or poll order.
//!
//! # Example
//!
//! ```
//! use oneperc::service::block_on;
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let service = Session::builder(CompilerConfig::for_qubits(4, 0.9, 1))
//!     .lanes(2)
//!     .queue_depth(8)
//!     .build();
//! let circuit = benchmarks::qaoa(4, 1);
//!
//! // One compile, four executions, futures redeemed in any order.
//! let futures = service.sweep(&circuit, &[1, 2, 3, 4]).unwrap();
//! for future in futures.into_iter().rev() {
//!     assert!(block_on(future).is_complete());
//! }
//! let stats = service.cache_stats();
//! assert_eq!(stats.misses, 1);
//! ```
//!
//! Sharing one cache across a fleet:
//!
//! ```
//! use oneperc::{CompilerConfig, Session};
//! use oneperc_circuit::benchmarks;
//!
//! let config = CompilerConfig::for_qubits(4, 0.9, 1);
//! let front = Session::new(config);
//! // A second, bounded session serving from the same cache: the compile
//! // below is a hit for it.
//! let back = Session::builder(config)
//!     .queue_depth(4)
//!     .shared_program_cache(front.program_cache_handle())
//!     .build();
//! front.compile_cached(&benchmarks::qaoa(4, 1)).unwrap();
//! let lookup = back.compile_cached(&benchmarks::qaoa(4, 1)).unwrap();
//! assert!(lookup.hit);
//! ```

pub(crate) mod async_session;
pub(crate) mod cache;
pub(crate) mod future;

#[allow(deprecated)]
pub use async_session::{AdmissionFuture, AsyncSession};
pub use cache::{program_key, CacheLookup, ProgramCache};
pub use future::{block_on, JobFuture, SubmitError};

// The cancellation token lives in the percolation crate (the engine polls
// it); re-export it here so service callers need no extra import.
pub use oneperc_percolation::CancelToken;

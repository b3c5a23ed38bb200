//! `oneperc-tune`: cost-model-driven configuration search with a cached
//! Pareto frontier.
//!
//! The compiler exposes many interacting knobs — RSL size, resource-state
//! size (and with it the merging factor), temporal redundancy, refresh
//! period, renormalization workers — over a cheap warm-sweep
//! path, but picking values by hand means picking blind. This crate turns
//! the choice into a search problem:
//!
//! 1. A [`ConfigLattice`] spans candidate values per knob around a base
//!    [`CompilerConfig`](oneperc::CompilerConfig).
//! 2. A [`Tuner`] sweeps every lattice point over the warm multi-tenant
//!    fleet — one [`AsyncSession`](oneperc::AsyncSession) per point, all
//!    sharing one [`ProgramCache`](oneperc::service::ProgramCache), seeds
//!    admitted through the blocking `submit` — and scores each point with a
//!    pluggable [`CostModel`] (the built-in [`ResourceDeadlineModel`]
//!    trades per-RSL latency against the photon-lifetime deadline, raw
//!    resource volume, and success probability).
//! 3. Dominated points are pruned online in a [`ParetoFront`]; in-flight
//!    points whose optimistic cost bound is already dominated are
//!    **cancelled mid-run** through the service tier's cancellation
//!    tokens.
//! 4. A successive-halving refinement stage re-evaluates the frontier on
//!    growing seed sets and recommends a single configuration.
//! 5. The frontier is serialized as a canonical-JSON [`FrontierArtifact`]
//!    keyed by the circuit's structural hash — re-tuning the same circuit
//!    is a cache hit that skips evaluation entirely, and identical inputs
//!    always produce byte-identical artifacts.
//!
//! # Quickstart
//!
//! ```
//! use oneperc::CompilerConfig;
//! use oneperc_circuit::benchmarks;
//! use oneperc_tune::{ConfigLattice, TuneSource, Tuner};
//!
//! // Three knobs around the 4-qubit Table 1 preset.
//! let lattice = ConfigLattice::new(CompilerConfig::for_qubits(4, 0.9, 1))
//!     .with_temporal_redundancies(&[2, 3])
//!     .with_refresh_periods(&[None, Some(6)])
//!     .with_renorm_workers(&[0, 2]);
//! let mut tuner = Tuner::builder(lattice).seeds(&[1, 2]).build();
//!
//! let circuit = benchmarks::qaoa(4, 1);
//! let tuned = tuner.tune(&circuit).unwrap();
//! assert_eq!(tuned.source, TuneSource::Evaluated);
//! assert!(!tuned.artifact.frontier.is_empty());
//!
//! // Same circuit, same question: answered from the artifact cache.
//! let again = tuner.tune(&circuit).unwrap();
//! assert_eq!(again.source, TuneSource::MemoryCache);
//! assert_eq!(again.json, tuned.json, "cached bytes are the stored bytes");
//!
//! // The recommendation rebuilds into a runnable configuration.
//! let best = tuned.artifact.recommended.to_config(42);
//! assert_eq!(best.virtual_side, 2);
//! ```
//!
//! The crate surfaces through the workspace facade as
//! `oneperc_suite::tune` (it cannot live *inside* the `oneperc` crate —
//! the tuner drives `oneperc`'s session tier, so `oneperc::tune` would be
//! a dependency cycle). See `crates/tune/README.md` for the cost-model
//! contract and the artifact format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod cost;
mod lattice;
mod pareto;
mod tuner;

pub use artifact::{
    ArtifactError, ConfigKnobs, FrontierArtifact, FrontierPoint, RungSummary, ARTIFACT_FORMAT,
};
pub use cost::{CostModel, PointSample, ResourceDeadlineModel};
pub use lattice::ConfigLattice;
pub use pareto::{dominates, FrontEntry, ParetoFront};
pub use tuner::{TuneError, TuneOutcome, TuneSource, TuneStats, Tuner, TunerBuilder};

//! # oneperc-corpus — structured random circuits and the determinism fuzzer
//!
//! The workspace's byte-identity guarantees (pooled ≡ in-thread
//! renormalization, warm ≡ cold, cached ≡ uncached, any lane count) were
//! historically pinned on four hand-written benchmarks. This crate grows the workload surface:
//!
//! - [`CorpusSpec`] — a compact, token-serializable description of a
//!   structured random circuit. Four families:
//!   - `layered` — brickwork layers of CNOT + single-qubit Clifford+T
//!     gates with a controllable entanglement density (permille of pairs
//!     that become CNOTs),
//!   - `rev` — random reversible X/CNOT/Toffoli circuits whose gate
//!     order is scrambled by a collision-aware shuffle (only
//!     commuting-adjacent gates swap, so the classical function is
//!     preserved),
//!   - `rcachain` — repeated ripple-carry adder passes over one
//!     register (multi-word arithmetic at controllable depth),
//!   - `qftadder` — the Draper QFT adder (QFT, controlled-phase
//!     additions, inverse QFT).
//! - Every circuit is a **pure function** of `(spec, seed)` — same spec
//!   and seed, byte-identical gate list, on any host.
//! - [`fuzz`] — sweeps sampled circuits through the full
//!   warm/cold × 0/2 renormalization workers × cached/uncached × 1/2/4-lane
//!   path matrix and asserts byte-identical deterministic
//!   [`ExecutionReport`](oneperc::ExecutionReport)s, shrinking any
//!   divergence to a minimal replayable reproducer.
//!
//! ## Quickstart
//!
//! ```
//! use oneperc_corpus::{fuzz, CorpusSpec};
//!
//! // A spec is a value; a circuit is a pure function of spec + seed.
//! let spec: CorpusSpec = "layered:w5,d8,e400".parse().unwrap();
//! let circuit = spec.circuit(7);
//! assert_eq!(circuit, spec.circuit(7));
//!
//! // A bounded fuzz sweep (CI runs 200+ circuits; keep doctests tiny).
//! let options = fuzz::FuzzOptions { circuits: 1, exec_seeds: 1, ..Default::default() };
//! let stats = fuzz::run_fuzz(&options).expect("no determinism divergence");
//! assert_eq!(stats.circuits + stats.skipped, 1);
//! ```
//!
//! The command-line front end is `cargo xtask fuzz-determinism`; see
//! `crates/corpus/README.md` for the replay workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod spec;

pub use fuzz::{Divergence, FuzzOptions, FuzzStats, PathShape, Replay, REPLAY_ENV};
pub use spec::{simulate_reversible, CorpusSpec, FAMILIES};

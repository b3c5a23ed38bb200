//! Workspace facade for the OnePerc reproduction.
//!
//! This crate re-exports the public APIs of every layer of the stack so
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`graphstate`] — graph-state substrate (local complementation,
//!   measurements, fusions, union-find).
//! * [`circuit`] — circuit IR, benchmark generators and the MBQC
//!   translation to program graph states.
//! * [`hardware`] — photonic hardware model and the semi-static fusion
//!   strategy.
//! * [`percolation`] — the online pass: 2D renormalization, modular
//!   renormalization and time-like connections.
//! * [`ir`] — virtual hardware, FlexLattice IR and the instruction set.
//! * [`mapper`] — the offline mapping pass.
//! * [`oneq`] — the OneQ baseline with repeat-until-success execution.
//! * [`compiler`] — the OnePerc compiler service (sessions, batched
//!   multi-seed execution, the async front-end and content-addressed
//!   compile cache under `compiler::service`) and its metrics.
//! * [`corpus`] — structured random-circuit corpus (layered, reversible,
//!   chained-RCA, QFT-adder families) and the cross-path determinism
//!   fuzzer behind `cargo xtask fuzz-determinism`.
//!
//! # Example
//!
//! ```
//! use oneperc_suite::compiler::{CompilerConfig, Session};
//! use oneperc_suite::circuit::benchmarks;
//!
//! let session = Session::new(CompilerConfig::for_qubits(4, 0.9, 7));
//! let compiled = session
//!     .compile(&benchmarks::vqe(4, 7))
//!     .expect("compilation succeeds");
//! // Sweep two seeds through the warm session.
//! for outcome in session.execute_batch(&compiled, &[7, 8]) {
//!     assert!(outcome.report().rsl_consumed > 0);
//! }
//! ```
//!
//! # Sampling the random-circuit corpus
//!
//! Corpus circuits are pure functions of a [`corpus::CorpusSpec`] plus a
//! seed — the same pair yields a byte-identical circuit on any host, which
//! is what makes the determinism fuzzer's findings replayable:
//!
//! ```
//! use oneperc_suite::corpus::CorpusSpec;
//!
//! // Specs round-trip through compact tokens (see crates/corpus/README.md).
//! let spec: CorpusSpec = "layered:w5,d8,e400".parse().unwrap();
//! let circuit = spec.circuit(7);
//! assert_eq!(circuit, spec.circuit(7));
//! assert_eq!(spec.to_token().parse::<CorpusSpec>().unwrap(), spec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use graphstate;

/// Circuit IR, benchmark generators and MBQC translation.
pub use oneperc_circuit as circuit;
/// Photonic hardware model and fusion strategy.
pub use oneperc_hardware as hardware;
/// FlexLattice IR, virtual hardware and instruction set.
pub use oneperc_ir as ir;
/// Offline mapping pass.
pub use oneperc_mapper as mapper;
/// OneQ baseline compiler.
pub use oneperc_oneq as oneq;
/// Online pass: percolation, renormalization and time-like connections.
pub use oneperc_percolation as percolation;

/// The OnePerc compiler facade (core crate).
pub use oneperc as compiler;

/// Structured random-circuit corpus and the cross-path determinism
/// fuzzer. (Beside `oneperc` rather than inside it: the fuzzer
/// drives whole sessions across path shapes.)
pub use oneperc_corpus as corpus;

//! Quantum circuit front-end for the OnePerc reproduction.
//!
//! The photonic MBQC compiler consumes *program graph states* — graph states
//! plus a measurement pattern — rather than gate-model circuits. This crate
//! provides everything needed to get there:
//!
//! * [`Gate`] / [`Circuit`] — a small circuit IR whose universal gate set is
//!   `{J(α), CZ}`, with convenience gates (`H`, `Rz`, `CNOT`, `Toffoli`, …)
//!   that lower onto that set structurally.
//! * [`benchmarks`] — generators for the benchmark families evaluated in the
//!   paper: QAOA max-cut on random graphs, the quantum Fourier transform,
//!   the Cuccaro ripple-carry adder and a full-entanglement VQE ansatz.
//! * [`ProgramGraph`] — the measurement-pattern translation of a circuit
//!   (Fig. 3 of the paper): `J(α)` gates become equatorial measurements on a
//!   wire of graph-state qubits, `CZ` gates become edges. The adjacency is
//!   flat (compressed sparse rows, sorted and without repeated edges), and
//!   the graph states the flow-induced dependency rule between neighbours
//!   once, for both the scheduler and the explicit DAG.
//! * [`DagScheduler`] — the front layer of the dependency order as nodes
//!   are consumed, over any [`Dependencies`] source: the offline mapper
//!   runs it on [`ProgramGraph::scheduler`] straight off the adjacency.
//! * [`DependencyDag`] — the same partial order as an explicit DAG
//!   ([`ProgramGraph::dependency_dag`]), for tools and tests that want its
//!   edges.
//! * [`StableHasher`] / [`Circuit::structural_hash`] — process-independent
//!   64-bit structural hashing, the addressing half of the service layer's
//!   content-addressed compiled-program cache.
//!
//! # Example
//!
//! ```
//! use oneperc_circuit::{benchmarks, ProgramGraph};
//!
//! let circuit = benchmarks::qft(3);
//! let program = ProgramGraph::from_circuit(&circuit);
//! assert!(program.node_count() > 3);
//! assert_eq!(program.outputs().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
mod circuit;
mod dag;
mod gate;
mod hash;
mod program;

pub use circuit::Circuit;
pub use dag::{DagScheduler, Dependencies, DependencyDag};
pub use gate::Gate;
pub use hash::StableHasher;
pub use program::{ProgramGraph, ProgramNode};

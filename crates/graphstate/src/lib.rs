//! Graph-state substrate for photonic measurement-based quantum computation.
//!
//! This crate provides the low-level data types the other layers of the
//! OnePerc reproduction share:
//!
//! * [`GraphState`] — an undirected simple graph whose vertices are photonic
//!   qubits and whose edges are CZ bonds. The program graph of a circuit and
//!   the graph view of a physical layer are built on it.
//! * [`CsrSnapshot`] — an immutable compressed-sparse-row view of a graph
//!   for read-heavy traversals such as component counting.
//! * [`DisjointSet`] — the union-find structure used by the online pass for
//!   cheap connectivity checks during percolation and renormalization.
//! * [`MeasBasis`] — the single-qubit measurement basis a program node
//!   carries: `Z`, or an equatorial angle.
//! * [`FusionOutcome`] — the heralded outcome of one fusion attempt, as the
//!   hardware sampler and the time-like fusions report it.
//!
//! The fusion and measurement rules of the paper act on the site lattice
//! of the hardware model, not on this graph type.
//!
//! # Example
//!
//! ```
//! use graphstate::{DisjointSet, GraphState};
//!
//! // A 3-vertex path graph state 0 - 1 - 2: one component, which the
//! // CSR snapshot and the union-find both see.
//! let mut g = GraphState::with_vertices(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! assert_eq!(g.snapshot_csr().component_count(), 1);
//! let mut dsu = DisjointSet::new(g.id_bound());
//! for (a, b) in g.edges() {
//!     dsu.union(a, b);
//! }
//! assert!(dsu.same_set(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clifford;
mod dsu;
mod error;
mod fusion;
mod graph;

pub use clifford::MeasBasis;
pub use dsu::DisjointSet;
pub use error::GraphError;
pub use fusion::FusionOutcome;
pub use graph::{CsrSnapshot, GraphState, VertexId};

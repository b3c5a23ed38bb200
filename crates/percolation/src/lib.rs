//! Online pass of the OnePerc compiler: percolation-based reshaping of
//! random physical graph states.
//!
//! The fusion strategy of the hardware layer produces, for every
//! resource-state layer (RSL), a *random* subgraph of a square lattice.
//! Because the fusion success probability exceeds the bond-percolation
//! threshold of the square lattice (0.5), the random graph contains a
//! long-range-connected component with high probability. The online pass
//! turns that raw randomness into the regular, program-agnostic structure
//! promised to the offline pass by the virtual hardware abstraction:
//!
//! * [`renormalize`] / [`Renormalizer`] — 2D renormalization of a single RSL
//!   into a coarse-grained `k × k` lattice by alternating vertical /
//!   horizontal path searches (Section 5.1).
//! * [`ModularRenormalizer`] — the modular variant that splits the RSL into
//!   independently-processed modules separated by joining intervals,
//!   trading a small resource overhead for a large reduction in real-time
//!   latency (Fig. 10, Fig. 13(c), Fig. 14(b)).
//! * [`WorkerPool`] — persistent, channel-fed renormalization workers,
//!   amortizing thread startup across the RSL stream. The pool multiplexes
//!   any number of submitters: each [`PoolClient`] has a private reply
//!   channel and slot sequence, so concurrent batches (several reshaping
//!   engines, the modular renormalizer, …) interleave on the workers
//!   without ever mixing results.
//! * [`ReshapeEngine`] — the (2+1)-D driver that consumes a stream of RSLs,
//!   classifies them into logical and routing layers, and establishes the
//!   adjacent-layer and cross-layer time-like connections requested by the
//!   IR program (Section 5.2). With [`ReshapeConfig::with_renorm_workers`]
//!   the engine overlaps its stages: layers are generated in the driving
//!   thread, renormalized on a worker pool a few layers ahead, and
//!   connected in the driving thread. [`ReshapeEngine::reset`] restarts
//!   the stochastic stream for a new seed while keeping every thread and
//!   allocation warm — the primitive behind the `oneperc` session API.
//!
//! # Pipeline architecture and ownership rules
//!
//! The online pass is organized as a stream of resource-state layers
//! flowing generate → renormalize → connect. Only the connect step carries
//! state from one layer to the next. Two independent levers spread that
//! stream across cores, and both are determinism-preserving — with a
//! fixed seed they produce byte-identical [`RenormalizedLattice`]s and
//! reports to the fully serial path, for any worker count:
//!
//! * **Stream fan-out** (`ReshapeEngine` with `renorm_workers` > 0):
//!   upcoming layers are submitted to a [`WorkerPool`] as whole-layer
//!   region jobs, a bounded lookahead ahead of consumption, and their
//!   lattices are collected strictly in stream order. Every layer is
//!   consumed in generation order whatever its logical/routing fate, so
//!   the prefetched renormalization is never speculative waste. Time-like
//!   fusion outcomes draw from their own seeded sampler, which is what
//!   keeps the layer-pattern RNG stream independent of the lookahead.
//! * **Module fan-out** (`ModularRenormalizer` on a [`WorkerPool`]):
//!   modules of one layer are renormalized by persistent workers fed over
//!   a channel. Each worker permanently owns one `Renormalizer` (and thus
//!   one [`ScratchPool`]); layers are shared with workers as
//!   `Arc<PhysicalLayer>` for the duration of a batch only, and results
//!   are written back by slot so worker scheduling cannot reorder them.
//!   Scratch pools never migrate between workers mid-search; their epoch
//!   stamps make cross-layer reuse reset-free.
//!
//! # Flat-index site convention
//!
//! This crate addresses physical sites by **dense flat index**: the site at
//! column `x`, row `y` of a `W × H` layer is the `u32` value `y * W + x`,
//! matching [`oneperc_hardware::PhysicalLayer::site_index`] and the vertex
//! ids of [`oneperc_hardware::PhysicalLayer::to_graph`]. Consequences:
//!
//! * Neighbor arithmetic is `±1` (east/west) and `±W` (north/south); no
//!   coordinate pairs are hashed anywhere on the online hot path.
//! * [`RenormalizedLattice`] stores coarse-node representatives and paths
//!   as flat indices. [`RenormalizedLattice::site_coords`] and
//!   [`RenormalizedLattice::path_coords`] decode them back to `(x, y)` for
//!   presentation-layer consumers.
//! * All per-search working memory (BFS predecessor/visited arrays, the
//!   queue, path-membership stamps, the joining union-find) lives in a
//!   [`ScratchPool`] that is epoch-stamped and reused across bands,
//!   modules and RSLs, so the steady-state per-RSL loop allocates only its
//!   outputs.
//!
//! # Example
//!
//! ```
//! use oneperc_hardware::{FusionEngine, HardwareConfig};
//! use oneperc_percolation::renormalize;
//!
//! let mut engine = FusionEngine::new(HardwareConfig::new(36, 7, 0.78), 7);
//! let layer = engine.generate_layer();
//! let lattice = renormalize(&layer, 12);
//! assert_eq!(lattice.target_side(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod modular;
mod pool;
mod renormalize;
mod scratch;
pub mod sync;
mod timelike;

pub use cancel::CancelToken;
pub use modular::{ModularConfig, ModularOutcome, ModularRenormalizer, ModuleLayout};
pub use pool::{panic_message, ModuleRegion, PoolClient, WorkerPool};
pub use renormalize::{renormalize, RenormalizedLattice, Renormalizer};
pub use scratch::ScratchPool;
pub use timelike::{
    LayerRequirement, LogicalLayerReport, ReshapeConfig, ReshapeEngine, ReshapeStats,
    TemporalRequirement,
};

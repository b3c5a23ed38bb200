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
//!   horizontal path searches (Section 5.1), and
//!   [`Renormalizer::spans_target`], the path-free verdict of whether a
//!   layer renormalizes to a given target side.
//! * [`ModularRenormalizer`] — the modular variant that splits the RSL into
//!   independently-processed modules separated by joining intervals,
//!   trading a small resource overhead for a large reduction in real-time
//!   latency (Fig. 10, Fig. 13(c), Fig. 14(b)).
//! * [`WorkerPool`] — persistent workers fed from one shared queue,
//!   amortizing thread startup across the RSL stream. A job is either a
//!   region lattice (the modular renormalizer) or one merged layer,
//!   generated from its key and decided (the reshaping engine). The pool
//!   multiplexes any number of submitters: each [`PoolClient`] has a
//!   private reply channel and slot sequence, so concurrent batches
//!   interleave on the workers without ever mixing results, and a client
//!   waiting for a result runs queued jobs itself.
//! * [`ReshapeEngine`] — the (2+1)-D driver that consumes a stream of RSLs,
//!   classifies them into logical and routing layers, and establishes the
//!   adjacent-layer and cross-layer time-like connections requested by the
//!   IR program (Section 5.2). It classifies each layer by its
//!   [`spans_target`](Renormalizer::spans_target) verdict and extracts no
//!   path; [`ReshapeEngine::last_logical_lattice`] renormalizes the kept
//!   logical layer only when asked. Built with
//!   [`ReshapeEngine::with_renorm_client`], the engine overlaps its
//!   stages: layers are generated and decided on a shared worker pool a
//!   window ahead (the waiting engine helps), and connected in the
//!   driving thread. [`ReshapeEngine::reset`] restarts
//!   the stochastic stream for a new seed while keeping every thread and
//!   allocation warm — the primitive behind the `oneperc` session API.
//!
//! # Pipeline architecture and ownership rules
//!
//! The online pass is organized as a stream of resource-state layers
//! flowing generate → decide → connect. The decide step is the path-free
//! renormalization verdict: a layer is logical-capable exactly when the
//! first `target_side` column and row bands all percolate, which the
//! word-parallel band gate answers without extracting a path (see
//! [`Renormalizer::spans_target`] for the planarity argument). Only the
//! connect step carries state from one layer to the next. Two independent
//! levers spread that stream across cores, and both are
//! determinism-preserving — with a fixed seed they produce identical
//! reports and byte-identical [`RenormalizedLattice`]s to the fully serial
//! path, for any worker count:
//!
//! * **Stream fan-out** (`ReshapeEngine::with_renorm_client`): layer `i`
//!   of a run is a pure function of `(config, seed, i)`
//!   ([`oneperc_hardware::layer_key`]), so each upcoming layer is one pool
//!   job that generates it into the running thread's own buffer and
//!   decides it. A bounded window of jobs runs ahead of consumption, the
//!   answers (counters and verdict, never the layer) are collected
//!   strictly in stream order, and the engine runs queued jobs while it
//!   waits. Every layer is consumed in order whatever its logical/routing
//!   fate, so a job submitted ahead is wasted only when a run ends.
//!   Time-like fusion outcomes draw from their own seeded sampler in the
//!   engine thread, the only stream that runs through the layers in
//!   order.
//! * **Module fan-out** (`ModularRenormalizer` on a [`WorkerPool`]):
//!   modules of one layer are renormalized by persistent workers fed from
//!   a queue. Each worker permanently owns one `Renormalizer` (and thus
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

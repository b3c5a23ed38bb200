//! Photonic hardware model for the OnePerc reproduction.
//!
//! Practical photonic hardware scales up by generating small star-like
//! resource states in a 2D array of resource-state generators (RSGs) every
//! clock cycle and merging them with probabilistic type-II fusions
//! (Section 2.2 of the paper). This crate simulates that machinery:
//!
//! * [`HardwareConfig`] — the knobs of the simulated machine: RSL size,
//!   resource-state size, fusion success probability, photon loss.
//! * [`FusionSampler`] — seeded stochastic fusion outcomes: per-attempt
//!   draws with attempt accounting (the `#fusion` metric of the
//!   evaluation), and bit-sliced threshold draws that settle 64 lanes
//!   against sorted cut points at once.
//! * [`FusionStrategy`] / [`FusionEngine`] — the semi-static fusion strategy
//!   of Section 4: leaf-leaf fusions arrange (merged) resource states into a
//!   lattice, root-leaf fusions merge several RSLs when the resource states
//!   lack sufficient degree, failures trigger local-complementation recovery
//!   and collective retries.
//! * [`GenerationPlan`] / [`GenerationScratch`] — the two halves of the
//!   layer generator: what a configuration fixes, shared between threads,
//!   and per-thread buffers. Layer `i` of a run draws from its own sampler
//!   seeded with [`layer_key`]`(seed, i)`, so any thread can generate any
//!   layer; [`FusionEngine`] walks a run's layers in order.
//! * [`MergeLaw`] — the exact per-site law of the root-leaf merging phase,
//!   and its cut points: the engine draws it with one threshold draw per
//!   64 sites, the same primitive that draws the bond outcome planes.
//! * [`PhysicalLayer`] — the random physical graph state produced for one
//!   (merged) resource-state layer, in the site-lattice representation
//!   consumed by the online reshaping pass.
//! * [`DelayLine`] — bounded-lifetime storage for photonic qubits.
//!
//! The site-lattice abstraction ([`MergeLaw`] plus the bond planes) rests
//! on two Rust references in `oneperc-bench` alone. `DenseReferenceEngine`
//! reads the same RNG words and must give the same layer site for site
//! (`layer_equivalence`). `DenseScalarEngine`, the per-attempt generator,
//! must give the same layer law (`generation_law`). No photon-level
//! simulation of the fusions is part of the model.
//!
//! # Example
//!
//! ```
//! use oneperc_hardware::{FusionEngine, HardwareConfig};
//!
//! let config = HardwareConfig::new(24, 4, 0.75);
//! let mut engine = FusionEngine::new(config, 42);
//! let layer = engine.generate_layer();
//! assert_eq!(layer.width, 24);
//! assert!(layer.raw_rsl_consumed >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
mod config;
mod delay;
mod engine;
mod layer;
mod merge;
mod sampler;

pub use bitmap::Bitmap;
pub use config::HardwareConfig;
pub use delay::DelayLine;
pub use engine::{layer_key, FusionEngine, FusionStrategy, GenerationPlan, GenerationScratch};
pub use layer::PhysicalLayer;
pub use merge::{MergeLaw, MergeOutcome};
pub use sampler::{FusionSampler, FusionStats};

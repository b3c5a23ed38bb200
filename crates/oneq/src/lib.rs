//! OneQ baseline compiler with the repeat-until-success execution model.
//!
//! OneQ (ISCA 2023) is the efficient photonic MBQC compiler the paper
//! compares against. It plans a fusion pattern assuming fusions always
//! succeed; the paper extends it with the only strategy available to a
//! randomness-unaware compiler (Section 7.1):
//!
//! * every resource-state layer's planned fusions are retried — the whole
//!   layer is regenerated — until all of them succeed;
//! * the successful layer is then fused with its predecessors; if any of
//!   those inter-layer fusions fails, the entire compilation restarts;
//! * the run is aborted once `10^6` resource-state layers have been
//!   consumed.
//!
//! The plan itself is derived with the same mapping machinery as OnePerc but
//! with the static, creation-order partition of OneQ (no dynamic
//! scheduling) and no occupancy reservation; what changes is the execution
//! model, which is exactly the source of OneQ's non-scalability under
//! realistic fusion success probabilities.
//!
//! # Example
//!
//! ```
//! use oneperc_circuit::benchmarks;
//! use oneperc_oneq::{OneqCompiler, OneqConfig};
//!
//! let circuit = benchmarks::qaoa(4, 1);
//! let compiler = OneqCompiler::new(OneqConfig::new(2, 0.9, 11));
//! let report = compiler.run(&circuit).unwrap();
//! assert!(report.rsl_consumed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod retry;

pub use plan::{LayerPlan, OneqPlan};
pub use retry::{OneqCompiler, OneqConfig, OneqError, OneqReport};

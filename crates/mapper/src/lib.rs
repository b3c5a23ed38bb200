//! Offline pass of the OnePerc compiler: mapping program graph states onto
//! the virtual hardware (Section 6.2).
//!
//! The mapper consumes a [`oneperc_circuit::ProgramGraph`] and produces a
//! [`oneperc_ir::FlexLatticeIr`] program (plus its instruction lowering)
//! that realizes the program graph on the virtual hardware: program nodes
//! are placed on lattice coordinates, graph edges become spatial ancilla
//! routes within a layer or temporal edges between layers, and nodes whose
//! edges are not finished yet persist through the per-coordinate virtual
//! memory.
//!
//! Three optimizations from the paper extend the OneQ mapping strategy:
//!
//! 1. **Dynamic scheduling** — the dependency DAG's front layer decides
//!    which program nodes may be mapped next, instead of a static partition.
//! 2. **Occupancy limit** — at most a configurable fraction (25 % by
//!    default) of each layer may be occupied by *incomplete* nodes, keeping
//!    room for ancilla routing.
//! 3. **Refresh** — every `refresh_period` layers the nodes parked in the
//!    virtual memory are retrieved and re-mapped, bounding the classical
//!    memory needed for graph-information storage at the cost of extra
//!    layers (Table 3).
//!
//! # Implementation
//!
//! The mapper is linear in the program size, and its state is dense so
//! that the constant stays small:
//!
//! * live (placed but incomplete) nodes sit in a vector indexed by node id,
//!   next to a sorted list of the live ids; each keeps its unrealized edges
//!   as a sorted id list, and a running total of those edges decides when
//!   the program is done;
//! * the unrealized edges whose endpoints are both live are also kept in
//!   one sorted pair list, so bringing back deferred edges takes each next
//!   pair with one binary search instead of a scan of the live set;
//! * mapped flags are a vector indexed by node id, and dynamic scheduling
//!   walks the front of [`oneperc_circuit::ProgramGraph::scheduler`]
//!   (sorted by id, which is creation rank) with one cursor; the scheduler
//!   counts predecessors off the program graph's flat adjacency, so no
//!   dependency DAG is built;
//! * the occupancy of the layer being built is one flag per coordinate,
//!   and ancilla routes are found by a breadth-first search over reusable
//!   epoch-stamped buffers;
//! * the emitted [`oneperc_ir::FlexLatticeIr`] stores its nodes as
//!   16-byte records in one arena behind a flat per-coordinate slot index
//!   (see its docs), which the instruction lowering walks row-major into
//!   8-byte instruction records.
//!
//! Every step visits nodes, pairs and partners in id order, so the result
//! is a pure function of the program and the configuration.
//! `oneperc-bench` keeps the earlier hash-map mapper as a reference, and
//! its `mapper_equivalence` tests pin this implementation to it.
//!
//! # Example
//!
//! ```
//! use oneperc_circuit::{benchmarks, ProgramGraph};
//! use oneperc_ir::VirtualHardware;
//! use oneperc_mapper::{Mapper, MapperConfig};
//!
//! let program = ProgramGraph::from_circuit(&benchmarks::qft(3));
//! let mapper = Mapper::new(MapperConfig::new(VirtualHardware::square(3)));
//! let result = mapper.map(&program).unwrap();
//! assert!(result.complete);
//! assert!(result.ir.layer_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod mapping;

pub use config::MapperConfig;
pub use mapping::{MapError, Mapper, MapperStats, MappingResult};

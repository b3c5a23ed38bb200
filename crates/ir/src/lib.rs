//! FlexLattice IR, virtual hardware abstraction and intermediate-level
//! instruction set (Section 6 of the paper).
//!
//! The virtual hardware is the contract between the offline and online
//! passes: a stack of fixed-size 2D lattice layers whose nodes can be
//! connected spatially (within a layer) and temporally (between layers,
//! adjacent or not, via a per-coordinate virtual memory), with every node
//! holding at most one connection towards preceding layers and at most one
//! towards subsequent layers.
//!
//! * [`VirtualHardware`] — the layer geometry and its connection rules.
//! * [`FlexLatticeIr`] — a program expressed directly on that structure:
//!   every node is either a mapped program-graph node or a routing ancilla,
//!   and edges are individually enabled.
//! * [`Instruction`] — the six intermediate-level instructions that a
//!   FlexLattice IR lowers to, plus an interpreter that validates an
//!   instruction stream against the virtual-hardware rules.
//! * [`InstructionProgram`] — the lowered stream, written by one walk over
//!   the IR as compact per-layer records and decoded on read.
//!
//! # Example
//!
//! ```
//! use oneperc_ir::{FlexLatticeIr, NodeKind, VirtualHardware};
//!
//! let hw = VirtualHardware::new(2, 2);
//! let mut ir = FlexLatticeIr::new(hw);
//! let layer = ir.push_layer();
//! ir.place(layer, (0, 0), NodeKind::Program(7)).unwrap();
//! ir.place(layer, (1, 0), NodeKind::Ancilla).unwrap();
//! ir.enable_spatial_edge(layer, (0, 0), (1, 0)).unwrap();
//! assert!(ir.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flexlattice;
mod instruction;
mod virtual_hw;

pub use error::IrError;
pub use flexlattice::{FlexLatticeIr, IrLayerSummary, IrNode, IrStats, NodeKind, TemporalEdge};
pub use instruction::{Instruction, InstructionInterpreter, InstructionProgram};
pub use virtual_hw::VirtualHardware;

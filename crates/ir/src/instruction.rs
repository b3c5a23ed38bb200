//! The intermediate-level instruction set (Section 6.3) and its
//! interpreter.
//!
//! A FlexLattice IR program executes by lowering to the six
//! intermediate-level instructions which guide the real-time reshaping pass.
//! By default every physical qubit is measured in the `Z` basis (edges
//! disabled); the instructions enable exactly the structure the program
//! needs.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::IrError;
use crate::flexlattice::{FlexLatticeIr, NodeKind};

/// A position on the virtual hardware: `(x, y, layer)`.
pub type VPos = (usize, usize, usize);

/// The six intermediate-level instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// Map a program-graph node onto a virtual node; the physical qubit is
    /// measured in the program node's basis.
    MapVNode {
        /// Virtual node position.
        v_node: VPos,
        /// Program-graph node id.
        g_node: usize,
    },
    /// Use a virtual node as a routing ancilla (measured in X or Y).
    MakeVNodeAncilla {
        /// Virtual node position.
        v_node: VPos,
    },
    /// Push the physical qubits around a virtual node into the delay lines.
    StoreVNode {
        /// Virtual node position.
        v_node: VPos,
    },
    /// Pop a previously stored virtual node out of the delay lines at a new
    /// position.
    RetrieveVNode {
        /// Original stored position.
        v_node: VPos,
        /// Position at which the node re-enters the lattice.
        position: VPos,
    },
    /// Enable a spatial edge between two adjacent virtual nodes of the same
    /// layer.
    EnableSpatialVEdge {
        /// First endpoint.
        v_node: VPos,
        /// Second endpoint (adjacent, same layer).
        adjacent_v_node: VPos,
    },
    /// Enable a temporal edge between virtual nodes at the same coordinate
    /// of adjacent layers.
    EnableTemporalVEdge {
        /// Earlier endpoint.
        v_node: VPos,
        /// Later endpoint (same coordinate, next layer).
        adjacent_v_node: VPos,
    },
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn pos(p: VPos) -> String {
            format!("({}, {}, {})", p.0, p.1, p.2)
        }
        match self {
            Instruction::MapVNode { v_node, g_node } => {
                write!(f, "map_v_node({}, g{})", pos(*v_node), g_node)
            }
            Instruction::MakeVNodeAncilla { v_node } => {
                write!(f, "make_v_node_ancilla({})", pos(*v_node))
            }
            Instruction::StoreVNode { v_node } => write!(f, "store_v_node({})", pos(*v_node)),
            Instruction::RetrieveVNode { v_node, position } => {
                write!(f, "retrieve_v_node({}, {})", pos(*v_node), pos(*position))
            }
            Instruction::EnableSpatialVEdge { v_node, adjacent_v_node } => {
                write!(
                    f,
                    "enable_spatial_v_edge({}, {})",
                    pos(*v_node),
                    pos(*adjacent_v_node)
                )
            }
            Instruction::EnableTemporalVEdge { v_node, adjacent_v_node } => {
                write!(
                    f,
                    "enable_temporal_v_edge({}, {})",
                    pos(*v_node),
                    pos(*adjacent_v_node)
                )
            }
        }
    }
}

/// An ordered instruction stream together with the virtual-hardware layer
/// count it spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstructionProgram {
    instructions: Vec<Instruction>,
    layer_count: usize,
}

impl InstructionProgram {
    /// The instructions in execution order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Number of virtual-hardware layers the program spans.
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    /// Lowers a FlexLattice IR program into an instruction stream, layer by
    /// layer: node mapping instructions first, then spatial edges, then
    /// store / retrieve / temporal-edge instructions realizing the temporal
    /// structure.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found while validating the IR.
    pub fn lower(ir: &FlexLatticeIr) -> Result<Self, IrError> {
        ir.validate()?;
        let mut instructions = Vec::new();
        // Temporal edges come sorted by destination layer: walk them with
        // one cursor instead of rescanning the program per layer.
        let edges = ir.temporal_edges();
        let mut edges = edges.iter().copied().peekable();
        for layer in 0..ir.layer_count() {
            // Deterministic order: row-major over the layer.
            for ((x, y), node) in ir.layer_nodes(layer) {
                let v_node = (x, y, layer);
                match node.kind {
                    NodeKind::Program(g) => {
                        instructions.push(Instruction::MapVNode { v_node, g_node: g })
                    }
                    NodeKind::Ancilla => {
                        instructions.push(Instruction::MakeVNodeAncilla { v_node })
                    }
                }
            }
            for ((x, y), node) in ir.layer_nodes(layer) {
                let v_node = (x, y, layer);
                if node.east_edge {
                    instructions.push(Instruction::EnableSpatialVEdge {
                        v_node,
                        adjacent_v_node: (x + 1, y, layer),
                    });
                }
                if node.north_edge {
                    instructions.push(Instruction::EnableSpatialVEdge {
                        v_node,
                        adjacent_v_node: (x, y + 1, layer),
                    });
                }
                if node.stored_after {
                    instructions.push(Instruction::StoreVNode { v_node });
                }
            }
            // Temporal edges terminating on this layer.
            while let Some(edge) = edges.next_if(|e| e.to_layer == layer) {
                let (tx, ty) = edge.to_coord;
                if edge.is_cross_layer() {
                    // Retrieve the stored node just below the destination
                    // layer (possibly at a new position), then enable an
                    // adjacent temporal edge.
                    instructions.push(Instruction::RetrieveVNode {
                        v_node: (edge.from_coord.0, edge.from_coord.1, edge.from_layer),
                        position: (tx, ty, layer - 1),
                    });
                }
                let below = if edge.is_cross_layer() { layer - 1 } else { edge.from_layer };
                instructions.push(Instruction::EnableTemporalVEdge {
                    v_node: (tx, ty, below),
                    adjacent_v_node: (tx, ty, layer),
                });
            }
        }
        Ok(InstructionProgram { instructions, layer_count: ir.layer_count() })
    }
}

impl fmt::Display for InstructionProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in &self.instructions {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

/// Replays an instruction stream against the virtual-hardware rules,
/// checking that every reference is legal. Used in tests and by the runtime
/// to guard against malformed streams.
#[derive(Debug, Default)]
pub struct InstructionInterpreter {
    /// Occupied virtual nodes.
    occupied: HashSet<VPos>,
    /// Bundles currently parked in the virtual memory, keyed by coordinate.
    /// Delay lines are high-capacity, so several bundles may share a
    /// coordinate.
    memory: HashMap<(usize, usize), Vec<VPos>>,
    /// Temporal edges already enabled, keyed by the later endpoint.
    temporal_in: HashSet<VPos>,
    /// Temporal edges already enabled, keyed by the earlier endpoint.
    temporal_out: HashSet<VPos>,
    /// Number of executed instructions.
    executed: usize,
}

impl InstructionInterpreter {
    /// Creates an interpreter with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Number of bundles currently parked in the virtual memory.
    pub fn stored(&self) -> usize {
        self.memory.values().map(Vec::len).sum()
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] describing the first rule violated.
    pub fn execute(&mut self, instruction: &Instruction) -> Result<(), IrError> {
        match instruction {
            Instruction::MapVNode { v_node, .. } | Instruction::MakeVNodeAncilla { v_node } => {
                if !self.occupied.insert(*v_node) {
                    return Err(IrError::Occupied {
                        layer: v_node.2,
                        coord: (v_node.0, v_node.1),
                    });
                }
            }
            Instruction::StoreVNode { v_node } => {
                if !self.occupied.contains(v_node) {
                    return Err(IrError::MissingNode {
                        layer: v_node.2,
                        coord: (v_node.0, v_node.1),
                    });
                }
                self.memory.entry((v_node.0, v_node.1)).or_default().push(*v_node);
            }
            Instruction::RetrieveVNode { v_node, position } => {
                let slot = self.memory.get_mut(&(v_node.0, v_node.1));
                let found = slot
                    .and_then(|bundles| {
                        bundles.iter().position(|b| b == v_node).map(|i| bundles.remove(i))
                    })
                    .is_some();
                if !found {
                    return Err(IrError::MemoryUnderflow { coord: (v_node.0, v_node.1) });
                }
                // The retrieved bundle re-occupies the lattice at `position`.
                self.occupied.insert(*position);
            }
            Instruction::EnableSpatialVEdge { v_node, adjacent_v_node } => {
                if v_node.2 != adjacent_v_node.2 {
                    return Err(IrError::NotAdjacent {
                        a: (v_node.0, v_node.1),
                        b: (adjacent_v_node.0, adjacent_v_node.1),
                    });
                }
                let dx = v_node.0.abs_diff(adjacent_v_node.0);
                let dy = v_node.1.abs_diff(adjacent_v_node.1);
                if dx + dy != 1 {
                    return Err(IrError::NotAdjacent {
                        a: (v_node.0, v_node.1),
                        b: (adjacent_v_node.0, adjacent_v_node.1),
                    });
                }
                for p in [v_node, adjacent_v_node] {
                    if !self.occupied.contains(p) {
                        return Err(IrError::MissingNode { layer: p.2, coord: (p.0, p.1) });
                    }
                }
            }
            Instruction::EnableTemporalVEdge { v_node, adjacent_v_node } => {
                if v_node.0 != adjacent_v_node.0
                    || v_node.1 != adjacent_v_node.1
                    || v_node.2 + 1 != adjacent_v_node.2
                {
                    return Err(IrError::InvalidTemporalOrder {
                        from: v_node.2,
                        to: adjacent_v_node.2,
                    });
                }
                if !self.occupied.contains(adjacent_v_node) {
                    return Err(IrError::MissingNode {
                        layer: adjacent_v_node.2,
                        coord: (adjacent_v_node.0, adjacent_v_node.1),
                    });
                }
                if !self.temporal_out.insert(*v_node) {
                    return Err(IrError::TemporalConflict {
                        layer: v_node.2,
                        coord: (v_node.0, v_node.1),
                    });
                }
                if !self.temporal_in.insert(*adjacent_v_node) {
                    return Err(IrError::TemporalConflict {
                        layer: adjacent_v_node.2,
                        coord: (adjacent_v_node.0, adjacent_v_node.1),
                    });
                }
            }
        }
        self.executed += 1;
        Ok(())
    }

    /// Executes a whole program.
    ///
    /// # Errors
    ///
    /// Returns the first rule violation together with no further execution.
    pub fn run(&mut self, program: &InstructionProgram) -> Result<(), IrError> {
        for instruction in program.instructions() {
            self.execute(instruction)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virtual_hw::VirtualHardware;

    /// Builds the cross-layer example of Section 6.3: an ancilla at
    /// (1, 1, 0) stored and retrieved to realize a temporal edge with a
    /// program node at (1, 1, 2).
    fn cross_layer_example() -> FlexLatticeIr {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(3, 3));
        for _ in 0..3 {
            ir.push_layer();
        }
        ir.place(0, (1, 1), NodeKind::Ancilla).unwrap();
        ir.place(1, (0, 0), NodeKind::Program(13)).unwrap();
        ir.place(2, (1, 1), NodeKind::Program(0)).unwrap();
        ir.enable_temporal_edge((1, 1), 0, 2).unwrap();
        ir
    }

    #[test]
    fn lowering_produces_papers_instruction_sequence() {
        let ir = cross_layer_example();
        let program = InstructionProgram::lower(&ir).unwrap();
        let text = program.to_string();
        assert!(text.contains("make_v_node_ancilla((1, 1, 0))"));
        assert!(text.contains("store_v_node((1, 1, 0))"));
        assert!(text.contains("retrieve_v_node((1, 1, 0), (1, 1, 1))"));
        assert!(text.contains("enable_temporal_v_edge((1, 1, 1), (1, 1, 2))"));
        assert!(text.contains("map_v_node((1, 1, 2), g0)"));
        assert_eq!(program.layer_count(), 3);
    }

    #[test]
    fn interpreter_accepts_lowered_program() {
        let ir = cross_layer_example();
        let program = InstructionProgram::lower(&ir).unwrap();
        let mut interp = InstructionInterpreter::new();
        interp.run(&program).unwrap();
        assert_eq!(interp.executed(), program.len());
        assert_eq!(interp.stored(), 0, "store/retrieve should balance");
    }

    #[test]
    fn interpreter_rejects_double_mapping() {
        let mut interp = InstructionInterpreter::new();
        let i = Instruction::MapVNode { v_node: (0, 0, 0), g_node: 1 };
        interp.execute(&i).unwrap();
        assert!(matches!(interp.execute(&i), Err(IrError::Occupied { .. })));
    }

    #[test]
    fn interpreter_rejects_retrieve_without_store() {
        let mut interp = InstructionInterpreter::new();
        let i = Instruction::RetrieveVNode { v_node: (1, 1, 0), position: (1, 1, 3) };
        assert!(matches!(interp.execute(&i), Err(IrError::MemoryUnderflow { .. })));
    }

    #[test]
    fn interpreter_enforces_temporal_adjacency() {
        let mut interp = InstructionInterpreter::new();
        interp
            .execute(&Instruction::MakeVNodeAncilla { v_node: (0, 0, 0) })
            .unwrap();
        interp
            .execute(&Instruction::MakeVNodeAncilla { v_node: (0, 0, 2) })
            .unwrap();
        let bad = Instruction::EnableTemporalVEdge {
            v_node: (0, 0, 0),
            adjacent_v_node: (0, 0, 2),
        };
        assert!(matches!(interp.execute(&bad), Err(IrError::InvalidTemporalOrder { .. })));
    }

    #[test]
    fn interpreter_enforces_single_temporal_edge_per_direction() {
        let mut interp = InstructionInterpreter::new();
        for z in 0..3 {
            interp
                .execute(&Instruction::MakeVNodeAncilla { v_node: (0, 0, z) })
                .unwrap();
        }
        interp
            .execute(&Instruction::EnableTemporalVEdge {
                v_node: (0, 0, 0),
                adjacent_v_node: (0, 0, 1),
            })
            .unwrap();
        // (0,0,1) already has an incoming edge; a second one must fail.
        let dup = Instruction::EnableTemporalVEdge {
            v_node: (0, 0, 0),
            adjacent_v_node: (0, 0, 1),
        };
        assert!(matches!(interp.execute(&dup), Err(IrError::TemporalConflict { .. })));
    }

    #[test]
    fn spatial_edge_requires_same_layer_neighbors() {
        let mut interp = InstructionInterpreter::new();
        interp
            .execute(&Instruction::MakeVNodeAncilla { v_node: (0, 0, 0) })
            .unwrap();
        interp
            .execute(&Instruction::MakeVNodeAncilla { v_node: (1, 1, 0) })
            .unwrap();
        let diagonal = Instruction::EnableSpatialVEdge {
            v_node: (0, 0, 0),
            adjacent_v_node: (1, 1, 0),
        };
        assert!(matches!(interp.execute(&diagonal), Err(IrError::NotAdjacent { .. })));
    }

    #[test]
    fn display_of_instructions() {
        let i = Instruction::MapVNode { v_node: (1, 2, 3), g_node: 4 };
        assert_eq!(i.to_string(), "map_v_node((1, 2, 3), g4)");
        let i = Instruction::EnableSpatialVEdge {
            v_node: (0, 0, 0),
            adjacent_v_node: (1, 0, 0),
        };
        assert!(i.to_string().starts_with("enable_spatial_v_edge"));
    }

    #[test]
    fn empty_program() {
        let ir = FlexLatticeIr::new(VirtualHardware::new(2, 2));
        let program = InstructionProgram::lower(&ir).unwrap();
        assert!(program.is_empty());
        assert_eq!(program.len(), 0);
    }
}

//! The intermediate-level instruction set (Section 6.3) and its
//! interpreter.
//!
//! A FlexLattice IR program executes by lowering to the six
//! intermediate-level instructions which guide the real-time reshaping pass.
//! By default every physical qubit is measured in the `Z` basis (edges
//! disabled); the instructions enable exactly the structure the program
//! needs.
//!
//! # Storage layout
//!
//! [`InstructionProgram::lower`] walks the IR once, layer by layer. It
//! checks the IR's structural rules and writes fixed-size 8-byte records,
//! not [`Instruction`]s. One `u32` of a record holds a cell index
//! `y·w + x` above a 3-bit operation tag, so a cell must be below 2^29;
//! the record's layer is the one whose slice holds it. The other `u32`
//! holds a mapped node's `g_node`. A cross-layer edge's
//! `retrieve_v_node` + `enable_temporal_v_edge` pair shares one record,
//! whose second `u32` indexes a side table of stored-node keys
//! `(from_layer, from_cell)`. A value that does not fit its field is an
//! [`IrError::RecordOverflow`], never a truncation. The records and the
//! side table are reserved at exact capacity from the counts the IR keeps
//! as it is built.
//!
//! A per-layer `u32` index marks where each layer's records end. Layer
//! `l`'s slice holds its map, spatial-edge and store records in row-major
//! order, then the temporal edges ending on `l` in `(x, y)` order. The
//! online pass reads one slice per layer ([`InstructionProgram::layer`]) to
//! build that layer's requirement.
//!
//! Instructions are decoded only when read: [`InstructionProgram::iter`],
//! [`InstructionProgram::layer`], `Display` and the
//! [`InstructionInterpreter`]. [`InstructionProgram::len`] counts decoded
//! instructions.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::error::{narrow, IrError};
use crate::flexlattice::{FlexLatticeIr, IrStats, EAST, EMPTY, NORTH, STORED};

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
    ///
    /// `position` is one layer below the edge's later endpoint, and a node
    /// of that layer may already sit at its coordinate. The retrieved bundle
    /// then fuses into the layer above through the temporal edge that
    /// follows, so its `position` layer is only notional: it names where the
    /// bundle re-enters, not a lattice site it owns.
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

/// One 8-byte step of a lowered program: `head` holds a cell index
/// `y·w + x` on the layer whose slice holds the record, above the tag of
/// its [`Op`]; `arg` holds the op's operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    head: u32,
    arg: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Map { g_node: u32 },
    Ancilla,
    East,
    North,
    Store,
    /// Temporal edge from the same cell of the layer below.
    Temporal,
    /// A cross-layer edge's `retrieve_v_node` + `enable_temporal_v_edge`
    /// pair; `index` points into the program's table of stored-node keys
    /// `(from_layer, from_cell)`.
    Fetch { index: u32 },
}

/// Width of the op tag below a record's cell index.
const TAG_BITS: u32 = 3;
/// Cells a record can address: 2^29.
const RECORD_CELLS: usize = 1 << (u32::BITS - TAG_BITS);

const _: () = assert!(std::mem::size_of::<Record>() == 8);
// Decoding widens `u32` fields with `as usize`, which must never truncate.
const _: () = assert!(usize::BITS >= u32::BITS);

impl Record {
    /// Packs `op` at `cell`, or [`IrError::RecordOverflow`] when the cell
    /// does not fit 29 bits.
    fn pack(cell: usize, op: Op) -> Result<Self, IrError> {
        if cell >= RECORD_CELLS {
            return Err(IrError::RecordOverflow { field: "cell", value: cell });
        }
        let (tag, arg) = match op {
            Op::Map { g_node } => (0, g_node),
            Op::Ancilla => (1, 0),
            Op::East => (2, 0),
            Op::North => (3, 0),
            Op::Store => (4, 0),
            Op::Temporal => (5, 0),
            Op::Fetch { index } => (6, index),
        };
        Ok(Record { head: (cell as u32) << TAG_BITS | tag, arg })
    }

    fn cell(self) -> usize {
        (self.head >> TAG_BITS) as usize
    }

    fn op(self) -> Op {
        match self.head & ((1 << TAG_BITS) - 1) {
            0 => Op::Map { g_node: self.arg },
            1 => Op::Ancilla,
            2 => Op::East,
            3 => Op::North,
            4 => Op::Store,
            5 => Op::Temporal,
            // `pack` writes tag 6 and never 7.
            _ => Op::Fetch { index: self.arg },
        }
    }
}

/// An ordered instruction stream together with the virtual-hardware layer
/// count it spans and the statistics of the IR it was lowered from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstructionProgram {
    records: Vec<Record>,
    /// The stored-node key `(from_layer, from_cell)` of each
    /// [`Op::Fetch`] record.
    fetches: Vec<(u32, u32)>,
    /// Per layer, one past the index of its last record.
    layer_end: Vec<u32>,
    /// Layer width, to decode cell indices.
    width: usize,
    stats: IrStats,
}

impl InstructionProgram {
    /// The instructions in execution order, decoded from the records.
    pub fn iter(&self) -> impl Iterator<Item = Instruction> + '_ {
        (0..self.layer_count()).flat_map(|layer| self.layer(layer))
    }

    /// The instructions of one layer's slice of the stream: the layer's
    /// node, spatial-edge and store instructions in row-major order, then
    /// the retrievals and temporal edges ending on it in `(x, y)` order.
    /// Empty for a layer that does not exist.
    pub fn layer(&self, layer: usize) -> impl Iterator<Item = Instruction> + '_ {
        let records = match self.layer_end.get(layer) {
            Some(&end) => {
                let start = layer.checked_sub(1).map_or(0, |p| self.layer_end[p]);
                &self.records[start as usize..end as usize]
            }
            None => &[],
        };
        let coord = move |cell: usize| (cell % self.width, cell / self.width);
        records.iter().flat_map(move |&record| {
            use Instruction::*;
            let (x, y) = coord(record.cell());
            let here = (x, y, layer);
            let temporal =
                || EnableTemporalVEdge { v_node: (x, y, layer - 1), adjacent_v_node: here };
            let (first, second) = match record.op() {
                Op::Map { g_node } => (MapVNode { v_node: here, g_node: g_node as usize }, None),
                Op::Ancilla => (MakeVNodeAncilla { v_node: here }, None),
                Op::East => {
                    (EnableSpatialVEdge { v_node: here, adjacent_v_node: (x + 1, y, layer) }, None)
                }
                Op::North => {
                    (EnableSpatialVEdge { v_node: here, adjacent_v_node: (x, y + 1, layer) }, None)
                }
                Op::Store => (StoreVNode { v_node: here }, None),
                Op::Temporal => (temporal(), None),
                Op::Fetch { index } => {
                    let (from_layer, from_cell) = self.fetches[index as usize];
                    let (fx, fy) = coord(from_cell as usize);
                    let v_node = (fx, fy, from_layer as usize);
                    (RetrieveVNode { v_node, position: (x, y, layer - 1) }, Some(temporal()))
                }
            };
            std::iter::once(first).chain(second)
        })
    }

    /// Number of instructions (a shared retrieve + temporal-edge record
    /// counts as two).
    pub fn len(&self) -> usize {
        self.records.len() + self.fetches.len()
    }

    /// Returns `true` when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of virtual-hardware layers the program spans.
    pub fn layer_count(&self) -> usize {
        self.layer_end.len()
    }

    /// Statistics of the lowered IR; equal to [`FlexLatticeIr::stats`].
    pub fn stats(&self) -> IrStats {
        self.stats
    }

    /// Lowers a FlexLattice IR program into an instruction stream, layer by
    /// layer: node mapping instructions first, then spatial edges and
    /// stores, then the retrieve / temporal-edge instructions realizing the
    /// temporal edges that end on the layer.
    ///
    /// This is the one walk over the finished IR: it checks
    /// [`FlexLatticeIr::validate`]'s rules as it emits.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation, scanning layers in order and
    /// each layer row-major, or [`IrError::RecordOverflow`] when a value
    /// does not fit a record.
    pub fn lower(ir: &FlexLatticeIr) -> Result<Self, IrError> {
        let (w, h) = (ir.hardware().width(), ir.hardware().height());
        let arena = ir.arena();
        let stats = ir.stats();
        // One record per node, spatial edge, store (one per cross-layer
        // edge) and temporal edge.
        let capacity = stats.program_nodes
            + stats.ancilla_nodes
            + stats.spatial_edges
            + stats.adjacent_temporal_edges
            + 2 * stats.cross_temporal_edges;
        narrow(capacity, "records")?;
        let mut records = Vec::with_capacity(capacity);
        let mut fetches = Vec::with_capacity(stats.cross_temporal_edges);
        let mut layer_end = Vec::with_capacity(stats.layers);
        // Per arena node: already the source of a temporal edge.
        let mut sourced = vec![false; arena.len()];
        // The current layer's spatial-edge and store records, and its
        // incoming temporal edges keyed by `(x, y)` order.
        let mut tail = Vec::new();
        let mut incoming: Vec<(usize, Record)> = Vec::new();
        for layer in 0..stats.layers {
            let slots = ir.layer_slots(layer);
            for (s, &i) in slots.iter().enumerate() {
                if i == EMPTY {
                    continue;
                }
                let node = arena[i as usize];
                let (x, y) = (s % w, s / w);
                if node.has(EAST) && (x + 1 == w || slots[s + 1] == EMPTY) {
                    return Err(IrError::MissingNode { layer, coord: (x + 1, y) });
                }
                if node.has(NORTH) && (y + 1 == h || slots[s + w] == EMPTY) {
                    return Err(IrError::MissingNode { layer, coord: (x, y + 1) });
                }
                let op = match node.program_id() {
                    Some(g) => Op::Map { g_node: narrow(g, "g_node")? },
                    None => Op::Ancilla,
                };
                records.push(Record::pack(s, op)?);
                for (flag, op) in [(EAST, Op::East), (NORTH, Op::North), (STORED, Op::Store)] {
                    if node.has(flag) {
                        tail.push(Record::pack(s, op)?);
                    }
                }
                if let Some(key @ (from, from_cell)) = node.prev() {
                    let (from, from_cell) = (from as usize, from_cell as usize);
                    let from_coord = (from_cell % w, from_cell / w);
                    if from >= layer {
                        return Err(IrError::InvalidTemporalOrder { from, to: layer });
                    }
                    let source = ir
                        .index(from, from_coord)
                        .ok_or(IrError::MissingNode { layer: from, coord: from_coord })?;
                    if layer - from == 1 && from_coord != (x, y) {
                        return Err(IrError::NotAdjacent { a: from_coord, b: (x, y) });
                    }
                    // At most one outgoing temporal edge per node.
                    if std::mem::replace(&mut sourced[source], true) {
                        return Err(IrError::TemporalConflict { layer: from, coord: from_coord });
                    }
                    let op = if layer - from == 1 {
                        Op::Temporal
                    } else {
                        let op = Op::Fetch { index: narrow(fetches.len(), "fetch")? };
                        fetches.push(key);
                        op
                    };
                    incoming.push((x * h + y, Record::pack(s, op)?));
                }
            }
            records.append(&mut tail);
            incoming.sort_unstable_by_key(|&(key, _)| key);
            records.extend(incoming.drain(..).map(|(_, record)| record));
            layer_end.push(narrow(records.len(), "records")?);
        }
        Ok(InstructionProgram { records, fetches, layer_end, width: w, stats })
    }
}

impl fmt::Display for InstructionProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in self.iter() {
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
    /// Retrievals whose position a mapped node already occupied.
    fused_retrievals: usize,
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

    /// Number of retrievals so far whose `position` a node of that layer
    /// already occupied: their bundles fuse into the layer above (see
    /// [`Instruction::RetrieveVNode`]).
    pub fn fused_retrievals(&self) -> usize {
        self.fused_retrievals
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
                // The retrieved bundle re-enters the lattice at `position`.
                // When a node of that layer is already there, the bundle
                // fuses into the layer above instead: the position layer is
                // only notional, so sharing it is no conflict.
                if !self.occupied.insert(*position) {
                    self.fused_retrievals += 1;
                }
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
        for instruction in program.iter() {
            self.execute(&instruction)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flexlattice::NodeKind;
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

    /// Every kind of record on a 70,000 × 1 layer, whose coordinates do not
    /// fit `u16`, decodes back to the instructions it encodes.
    #[test]
    fn coordinates_past_u16_decode_losslessly() {
        use Instruction::*;
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(70_000, 1));
        for _ in 0..3 {
            ir.push_layer();
        }
        ir.place(0, (65_536, 0), NodeKind::Program(70_000)).unwrap();
        ir.place(0, (65_537, 0), NodeKind::Ancilla).unwrap();
        ir.enable_spatial_edge(0, (65_536, 0), (65_537, 0)).unwrap();
        ir.place(1, (65_537, 0), NodeKind::Ancilla).unwrap();
        ir.enable_temporal_edge((65_537, 0), 0, 1).unwrap();
        ir.place(2, (69_999, 0), NodeKind::Program(1)).unwrap();
        ir.enable_temporal_edge_relocated(0, (65_536, 0), 2, (69_999, 0)).unwrap();
        let program = InstructionProgram::lower(&ir).unwrap();
        let expected = vec![
            MapVNode { v_node: (65_536, 0, 0), g_node: 70_000 },
            MakeVNodeAncilla { v_node: (65_537, 0, 0) },
            EnableSpatialVEdge { v_node: (65_536, 0, 0), adjacent_v_node: (65_537, 0, 0) },
            StoreVNode { v_node: (65_536, 0, 0) },
            MakeVNodeAncilla { v_node: (65_537, 0, 1) },
            EnableTemporalVEdge { v_node: (65_537, 0, 0), adjacent_v_node: (65_537, 0, 1) },
            MapVNode { v_node: (69_999, 0, 2), g_node: 1 },
            RetrieveVNode { v_node: (65_536, 0, 0), position: (69_999, 0, 1) },
            EnableTemporalVEdge { v_node: (69_999, 0, 1), adjacent_v_node: (69_999, 0, 2) },
        ];
        assert_eq!(program.iter().collect::<Vec<_>>(), expected);
        assert_eq!(program.len(), expected.len());
        let text: String = expected.iter().map(|i| format!("{i}\n")).collect();
        assert_eq!(program.to_string(), text);
        let by_layer: Vec<Instruction> = (0..4).flat_map(|l| program.layer(l)).collect();
        assert_eq!(by_layer, expected, "the layer slices tile the stream");
        assert_eq!(program.layer(2).count(), 3);
        assert_eq!(program.stats(), ir.stats());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn values_past_u32_are_a_typed_error() {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(2, 1));
        ir.push_layer();
        ir.place(0, (0, 0), NodeKind::Program(u32::MAX as usize)).unwrap();
        assert!(InstructionProgram::lower(&ir).is_ok(), "u32::MAX itself fits");
        let value = u32::MAX as usize + 1;
        ir.place(0, (1, 0), NodeKind::Program(value)).unwrap();
        let overflow = IrError::RecordOverflow { field: "g_node", value };
        assert_eq!(InstructionProgram::lower(&ir), Err(overflow.clone()));
        assert_eq!(ir.validate(), Err(overflow));
    }

    /// Every op packs and unpacks unchanged at the cell bound, with the
    /// largest operand; the first cell past the bound is a typed error.
    #[test]
    fn records_round_trip_every_op_at_the_boundaries() {
        let ops = [
            Op::Map { g_node: 0 },
            Op::Map { g_node: u32::MAX },
            Op::Ancilla,
            Op::East,
            Op::North,
            Op::Store,
            Op::Temporal,
            Op::Fetch { index: 0 },
            Op::Fetch { index: u32::MAX },
        ];
        for op in ops {
            for cell in [0, 1, RECORD_CELLS - 1] {
                let record = Record::pack(cell, op).unwrap();
                assert_eq!((record.cell(), record.op()), (cell, op), "{op:?} at {cell}");
            }
            assert_eq!(
                Record::pack(RECORD_CELLS, op),
                Err(IrError::RecordOverflow { field: "cell", value: 1 << 29 })
            );
        }
    }

    /// A `Fetch` whose stored-node key is `(u32::MAX, u32::MAX)`, at the
    /// largest record cell, decodes to the retrieve + temporal-edge pair
    /// it stands for.
    #[test]
    fn the_largest_fetch_key_decodes() {
        let width = 7;
        let cell = RECORD_CELLS - 1;
        let program = InstructionProgram {
            records: vec![Record::pack(cell, Op::Fetch { index: 0 }).unwrap()],
            fetches: vec![(u32::MAX, u32::MAX)],
            layer_end: vec![0, 1],
            width,
            stats: IrStats { layers: 2, cross_temporal_edges: 1, ..IrStats::default() },
        };
        let max = u32::MAX as usize;
        let (x, y) = (cell % width, cell / width);
        assert_eq!(
            program.iter().collect::<Vec<_>>(),
            [
                Instruction::RetrieveVNode {
                    v_node: (max % width, max / width, max),
                    position: (x, y, 0)
                },
                Instruction::EnableTemporalVEdge { v_node: (x, y, 0), adjacent_v_node: (x, y, 1) },
            ]
        );
        assert_eq!(program.len(), 2);
    }

    #[test]
    fn fused_retrievals_are_counted() {
        // The cross-layer example retrieves onto (1, 1, 1), which is empty;
        // a node placed there makes the bundle fuse into layer 2.
        let mut ir = cross_layer_example();
        let mut interp = InstructionInterpreter::new();
        interp.run(&InstructionProgram::lower(&ir).unwrap()).unwrap();
        assert_eq!(interp.fused_retrievals(), 0);
        ir.place(1, (1, 1), NodeKind::Ancilla).unwrap();
        let mut interp = InstructionInterpreter::new();
        interp.run(&InstructionProgram::lower(&ir).unwrap()).unwrap();
        assert_eq!(interp.fused_retrievals(), 1);
    }
}

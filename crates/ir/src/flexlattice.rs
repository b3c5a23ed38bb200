//! The FlexLattice intermediate representation (Section 6.2).
//!
//! # Storage layout
//!
//! A [`FlexLatticeIr`] keeps no per-layer maps. Every placed node lives in
//! one arena, in placement order, as one 16-byte record:
//!
//! * the program-graph id of a program node, as a `u32` with bits 32..56
//!   in three spare bytes (placing a larger id is an
//!   [`IrError::RecordOverflow`]);
//! * the source of its incoming temporal edge as a `(u32 layer, u32 cell)`
//!   pair, where a cell is the index `y·w + x` inside a layer;
//! * one flag byte: ancilla, east edge, north edge, stored after its
//!   layer, source of a temporal edge, and has an incoming temporal edge.
//!
//! A node carries no measurement basis: a program node's basis is
//! `ProgramGraph::node(g).basis` of the node `g` it names. Every value is
//! narrowed into its field with a typed [`IrError::RecordOverflow`], never
//! truncated. [`FlexLatticeIr::node`] and [`FlexLatticeIr::layer_nodes`]
//! decode a record into an [`IrNode`] and return it by value.
//!
//! A flat slot index holds one `u32` per coordinate per layer: slot
//! `layer·w·h + y·w + x` holds the node's arena index, or `u32::MAX` when
//! the coordinate is empty. A layer is therefore a contiguous row-major
//! block of `w·h` slots:
//!
//! * [`FlexLatticeIr::node`] is a bounds check and two array reads; an
//!   out-of-range coordinate or layer is `None`, never a neighbouring slot;
//! * [`FlexLatticeIr::layer_nodes`] walks one block and yields the layer's
//!   nodes row-major (`y`, then `x`), which is the order the instruction
//!   lowering emits them in;
//! * [`FlexLatticeIr::layer_summaries`] walks each block column by column,
//!   so a layer's incoming temporal edges come out in `(x, y)` order
//!   without a sort.
//!
//! The program's [`IrStats`] are counted as nodes are placed and edges
//! enabled, so [`FlexLatticeIr::stats`] reads them without a walk and the
//! lowering reserves its records at exact capacity.
//!
//! # Walks over a finished IR
//!
//! The compile path walks a finished IR once:
//! [`InstructionProgram::lower`](crate::InstructionProgram::lower) reads
//! each layer's block row-major, checks the rules of
//! [`FlexLatticeIr::validate`] and emits the instruction stream with its
//! per-layer index, which is what the online pass reads.
//! [`FlexLatticeIr::validate`] is that walk with the stream dropped.
//! What remains outside it serves other readers: the OneQ baseline's
//! planner reads [`FlexLatticeIr::layer_summaries`] and
//! [`FlexLatticeIr::layer_nodes`].

use crate::error::{narrow, IrError};
use crate::virtual_hw::VirtualHardware;

/// What a virtual-hardware node is used for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// The node realizes a program-graph node (identified by its id); the
    /// physical qubit will be measured in that node's basis.
    Program(usize),
    /// The node is a routing ancilla measured in the X or Y basis to act as
    /// a wire.
    Ancilla,
}

impl NodeKind {
    /// Returns the program-graph node id when this is a program node.
    pub fn program_node(&self) -> Option<usize> {
        match self {
            NodeKind::Program(g) => Some(*g),
            NodeKind::Ancilla => None,
        }
    }
}

/// One node of a FlexLattice IR layer: a decoded view of its arena record,
/// returned by value by [`FlexLatticeIr::node`] and
/// [`FlexLatticeIr::layer_nodes`]. Changing a copy does not change the IR.
///
/// A node carries no measurement basis: a program node's basis is
/// `ProgramGraph::node(g).basis` of the program node `g` it names, and an
/// ancilla is measured in X or Y depending on wire parity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrNode {
    /// Role of the node.
    pub kind: NodeKind,
    /// Spatial edge to the `(x + 1, y)` neighbor on the same layer.
    pub east_edge: bool,
    /// Spatial edge to the `(x, y + 1)` neighbor on the same layer.
    pub north_edge: bool,
    /// Temporal edge to a node of an earlier layer, recorded as
    /// `(layer, coordinate)`. Adjacent-layer edges must share the node's own
    /// coordinate (they are realized by a direct fusion towards the next
    /// RSL); cross-layer edges may originate from a different coordinate —
    /// the stored photons re-enter the lattice wherever
    /// `retrieve_v_node(v_node, position)` puts them.
    pub temporal_prev: Option<(usize, (usize, usize))>,
    /// Whether the node is stored into the virtual memory after its layer is
    /// consumed (set automatically when a later layer connects to it across
    /// a gap).
    pub stored_after: bool,
}

/// Flag bits of a [`Node`].
const ANCILLA: u8 = 1;
pub(crate) const EAST: u8 = 1 << 1;
pub(crate) const NORTH: u8 = 1 << 2;
pub(crate) const STORED: u8 = 1 << 3;
/// Already the source of a temporal edge: a node has at most one edge
/// towards subsequent layers.
const SOURCE: u8 = 1 << 4;
/// `prev` holds the source of an incoming temporal edge.
const PREV: u8 = 1 << 5;

/// Program ids an arena record holds: 32 bits plus 24 in `id_high`.
const PROGRAM_ID_BITS: u32 = 56;

/// One arena record; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    /// Bits 0..32 of a program node's id (0 for an ancilla).
    id_low: u32,
    /// The incoming temporal edge's source `(layer, cell)` when the
    /// [`PREV`] flag is set.
    prev: (u32, u32),
    /// Bits 32..56 of a program node's id, little-endian.
    id_high: [u8; 3],
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    /// A node with no edges, or [`IrError::RecordOverflow`] for a program
    /// id past 56 bits.
    fn new(kind: NodeKind) -> Result<Self, IrError> {
        let (id, flags) = match kind {
            NodeKind::Program(g) => match u64::try_from(g) {
                Ok(id) if id >> PROGRAM_ID_BITS == 0 => (id, 0),
                _ => return Err(IrError::RecordOverflow { field: "g_node", value: g }),
            },
            NodeKind::Ancilla => (0, ANCILLA),
        };
        let [b0, b1, b2, b3, b4, b5, b6, _] = id.to_le_bytes();
        Ok(Node {
            id_low: u32::from_le_bytes([b0, b1, b2, b3]),
            prev: (0, 0),
            id_high: [b4, b5, b6],
            flags,
        })
    }

    /// Whether every bit of `flag` is set.
    pub(crate) fn has(self, flag: u8) -> bool {
        self.flags & flag == flag
    }

    /// The program-graph id, or `None` for an ancilla.
    pub(crate) fn program_id(self) -> Option<usize> {
        let [b4, b5, b6] = self.id_high;
        let [b0, b1, b2, b3] = self.id_low.to_le_bytes();
        let id = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, 0]);
        // `new` took the id from a `usize`, so it fits one again.
        (!self.has(ANCILLA)).then_some(id as usize)
    }

    /// The incoming temporal edge's source `(layer, cell)`, if any.
    pub(crate) fn prev(self) -> Option<(u32, u32)> {
        self.has(PREV).then_some(self.prev)
    }
}

/// A temporal edge listed in reading order (earlier layer first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalEdge {
    /// Coordinate of the earlier endpoint.
    pub from_coord: (usize, usize),
    /// Earlier layer.
    pub from_layer: usize,
    /// Coordinate of the later endpoint.
    pub to_coord: (usize, usize),
    /// Later layer.
    pub to_layer: usize,
}

impl TemporalEdge {
    /// Returns `true` when the edge skips at least one layer (and therefore
    /// needs the virtual memory).
    pub fn is_cross_layer(&self) -> bool {
        self.to_layer - self.from_layer > 1
    }
}

/// Aggregate statistics of an IR program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrStats {
    /// Number of layers.
    pub layers: usize,
    /// Nodes mapped to program-graph nodes.
    pub program_nodes: usize,
    /// Ancilla (routing) nodes.
    pub ancilla_nodes: usize,
    /// Spatial edges enabled.
    pub spatial_edges: usize,
    /// Temporal edges between adjacent layers.
    pub adjacent_temporal_edges: usize,
    /// Temporal edges across non-adjacent layers.
    pub cross_temporal_edges: usize,
}

/// Per-layer summary consumed by the online pass: which temporal edges end
/// on this layer and how many store/retrieve operations it performs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IrLayerSummary {
    /// Temporal edges terminating on this layer as `(coord, gap)` where
    /// `gap` is the number of layers skipped plus one (1 = adjacent).
    pub incoming_temporal: Vec<((usize, usize), usize)>,
    /// Nodes of this layer stored into the virtual memory.
    pub stores: usize,
    /// Nodes retrieved from the virtual memory at this layer.
    pub retrieves: usize,
    /// Nodes occupied on this layer (program + ancilla).
    pub occupied: usize,
}

/// Slot-index value of an empty coordinate.
pub(crate) const EMPTY: u32 = u32::MAX;

/// A program expressed on the virtual hardware: a stack of partially filled
/// lattice layers with individually enabled spatial and temporal edges.
///
/// Placed nodes live in one arena of 16-byte records behind a flat slot
/// index with one entry per coordinate per layer (`layer·w·h + y·w + x`),
/// so each layer is a row-major block of slots.
#[derive(Debug, Clone)]
pub struct FlexLatticeIr {
    hardware: VirtualHardware,
    /// Placed nodes in placement order.
    nodes: Vec<Node>,
    /// Arena index per slot, or [`EMPTY`].
    slots: Vec<u32>,
    /// Layer count and the node and edge counts, kept as the program is
    /// built.
    stats: IrStats,
}

impl FlexLatticeIr {
    /// Creates an empty IR program for the given virtual hardware.
    pub fn new(hardware: VirtualHardware) -> Self {
        FlexLatticeIr { hardware, nodes: Vec::new(), slots: Vec::new(), stats: IrStats::default() }
    }

    /// The virtual hardware this program targets.
    pub fn hardware(&self) -> &VirtualHardware {
        &self.hardware
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.stats.layers
    }

    /// Appends an empty layer and returns its index.
    pub fn push_layer(&mut self) -> usize {
        self.slots.resize(self.slots.len() + self.hardware.nodes_per_layer(), EMPTY);
        self.stats.layers += 1;
        self.stats.layers - 1
    }

    /// The slot of `(layer, coord)`, or `None` when either is out of range.
    fn slot(&self, layer: usize, (x, y): (usize, usize)) -> Option<usize> {
        let (w, h) = (self.hardware.width(), self.hardware.height());
        (layer < self.stats.layers && x < w && y < h).then(|| (layer * h + y) * w + x)
    }

    /// The arena index of the node at `(layer, coord)`, if any.
    pub(crate) fn index(&self, layer: usize, coord: (usize, usize)) -> Option<usize> {
        let i = self.slots[self.slot(layer, coord)?];
        (i != EMPTY).then_some(i as usize)
    }

    /// Placed nodes in placement order.
    pub(crate) fn arena(&self) -> &[Node] {
        &self.nodes
    }

    /// The row-major block of arena indices (or [`EMPTY`]) of a layer that
    /// exists.
    pub(crate) fn layer_slots(&self, layer: usize) -> &[u32] {
        let k2 = self.hardware.nodes_per_layer();
        &self.slots[layer * k2..(layer + 1) * k2]
    }

    /// The coordinate of a cell index `y·w + x`.
    fn coord(&self, cell: usize) -> (usize, usize) {
        let w = self.hardware.width();
        (cell % w, cell / w)
    }

    /// Decodes an arena record.
    fn view(&self, node: Node) -> IrNode {
        IrNode {
            kind: node.program_id().map_or(NodeKind::Ancilla, NodeKind::Program),
            east_edge: node.has(EAST),
            north_edge: node.has(NORTH),
            temporal_prev: node
                .prev()
                .map(|(layer, cell)| (layer as usize, self.coord(cell as usize))),
            stored_after: node.has(STORED),
        }
    }

    /// The node at `(layer, coord)`, if any.
    pub fn node(&self, layer: usize, coord: (usize, usize)) -> Option<IrNode> {
        self.index(layer, coord).map(|i| self.view(self.nodes[i]))
    }

    /// The nodes of a layer with their coordinates, in row-major order
    /// (`y`, then `x`). Empty for a layer that does not exist.
    pub fn layer_nodes(&self, layer: usize) -> impl Iterator<Item = ((usize, usize), IrNode)> + '_ {
        let k2 = self.hardware.nodes_per_layer();
        let block = if layer < self.stats.layers { layer * k2..(layer + 1) * k2 } else { 0..0 };
        self.slots[block]
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != EMPTY)
            .map(move |(s, &i)| (self.coord(s), self.view(self.nodes[i as usize])))
    }

    /// Number of occupied coordinates on a layer.
    pub fn occupancy(&self, layer: usize) -> usize {
        self.layer_nodes(layer).count()
    }

    /// Places a node on a layer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::OutOfBounds`], [`IrError::MissingLayer`] or
    /// [`IrError::Occupied`] (checked in that order) when the position is
    /// invalid, and [`IrError::RecordOverflow`] when a program id does not
    /// fit 56 bits (`"g_node"`) or the arena is full (`"arena"`).
    pub fn place(
        &mut self,
        layer: usize,
        coord: (usize, usize),
        kind: NodeKind,
    ) -> Result<(), IrError> {
        self.hardware.check_coord(coord)?;
        let slot = self.slot(layer, coord).ok_or(IrError::MissingLayer(layer))?;
        if self.slots[slot] != EMPTY {
            return Err(IrError::Occupied { layer, coord });
        }
        let node = Node::new(kind)?;
        // `EMPTY` marks a free slot, so it is no arena index.
        let index = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != EMPTY)
            .ok_or(IrError::RecordOverflow { field: "arena", value: self.nodes.len() })?;
        self.slots[slot] = index;
        self.nodes.push(node);
        if node.has(ANCILLA) {
            self.stats.ancilla_nodes += 1;
        } else {
            self.stats.program_nodes += 1;
        }
        Ok(())
    }

    /// Enables a spatial edge between two adjacent coordinates of the same
    /// layer.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotAdjacent`] when the coordinates are not lattice
    /// neighbors, or [`IrError::MissingNode`] when either endpoint is empty.
    pub fn enable_spatial_edge(
        &mut self,
        layer: usize,
        a: (usize, usize),
        b: (usize, usize),
    ) -> Result<(), IrError> {
        self.hardware.check_coord(a)?;
        self.hardware.check_coord(b)?;
        if !self.hardware.adjacent(a, b) {
            return Err(IrError::NotAdjacent { a, b });
        }
        if layer >= self.stats.layers {
            return Err(IrError::MissingLayer(layer));
        }
        let ia = self.index(layer, a).ok_or(IrError::MissingNode { layer, coord: a })?;
        let ib = self.index(layer, b).ok_or(IrError::MissingNode { layer, coord: b })?;
        // Normalize to the west/south endpoint owning the flag.
        let owner = &mut self.nodes[if a < b { ia } else { ib }];
        let flag = if a.1 == b.1 { EAST } else { NORTH };
        if !owner.has(flag) {
            owner.flags |= flag;
            self.stats.spatial_edges += 1;
        }
        Ok(())
    }

    /// Enables a temporal edge between the node at `coord` on `from_layer`
    /// and the node at the same coordinate on `to_layer` (`from_layer <
    /// to_layer`). Cross-layer edges automatically mark the earlier node as
    /// stored into the virtual memory.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::InvalidTemporalOrder`] when the layers are not in
    /// increasing order, [`IrError::MissingNode`] when either endpoint is
    /// empty, and [`IrError::TemporalConflict`] when either endpoint already
    /// has a temporal edge in the corresponding direction.
    pub fn enable_temporal_edge(
        &mut self,
        coord: (usize, usize),
        from_layer: usize,
        to_layer: usize,
    ) -> Result<(), IrError> {
        self.enable_temporal_edge_relocated(from_layer, coord, to_layer, coord)
    }

    /// Enables a temporal edge whose earlier endpoint lives at a different
    /// coordinate than the later one. Only cross-layer edges may relocate:
    /// the stored photons re-enter the lattice at the later coordinate via
    /// the `retrieve_v_node` position argument. Adjacent-layer edges must
    /// keep the same coordinate (they are realized by a direct fusion).
    ///
    /// # Errors
    ///
    /// As [`FlexLatticeIr::enable_temporal_edge`], plus
    /// [`IrError::NotAdjacent`] when an adjacent-layer edge tries to change
    /// coordinates, and [`IrError::RecordOverflow`] when the earlier
    /// endpoint's layer or cell does not fit a `u32`.
    pub fn enable_temporal_edge_relocated(
        &mut self,
        from_layer: usize,
        from_coord: (usize, usize),
        to_layer: usize,
        to_coord: (usize, usize),
    ) -> Result<(), IrError> {
        self.hardware.check_coord(from_coord)?;
        self.hardware.check_coord(to_coord)?;
        if from_layer >= to_layer {
            return Err(IrError::InvalidTemporalOrder { from: from_layer, to: to_layer });
        }
        if to_layer >= self.stats.layers {
            return Err(IrError::MissingLayer(to_layer));
        }
        if to_layer - from_layer == 1 && from_coord != to_coord {
            return Err(IrError::NotAdjacent { a: from_coord, b: to_coord });
        }
        let from = self
            .index(from_layer, from_coord)
            .ok_or(IrError::MissingNode { layer: from_layer, coord: from_coord })?;
        let to = self
            .index(to_layer, to_coord)
            .ok_or(IrError::MissingNode { layer: to_layer, coord: to_coord })?;
        // The earlier node may have at most one edge towards subsequent
        // layers: it must not already be the source of another temporal
        // edge.
        if self.nodes[from].has(SOURCE) {
            return Err(IrError::TemporalConflict { layer: from_layer, coord: from_coord });
        }
        if self.nodes[to].has(PREV) {
            return Err(IrError::TemporalConflict { layer: to_layer, coord: to_coord });
        }
        let prev = (
            narrow(from_layer, "layer")?,
            narrow(from_coord.1 * self.hardware.width() + from_coord.0, "cell")?,
        );
        self.nodes[to].prev = prev;
        self.nodes[to].flags |= PREV;
        if to_layer - from_layer > 1 {
            self.nodes[from].flags |= SOURCE | STORED;
            self.stats.cross_temporal_edges += 1;
        } else {
            self.nodes[from].flags |= SOURCE;
            self.stats.adjacent_temporal_edges += 1;
        }
        Ok(())
    }

    /// The temporal edges ending on `to_layer`, in `(x, y)` order of their
    /// later endpoint.
    fn incoming_temporal(&self, to_layer: usize) -> impl Iterator<Item = TemporalEdge> + '_ {
        let (w, h) = (self.hardware.width(), self.hardware.height());
        (0..w).flat_map(move |x| (0..h).map(move |y| (x, y))).filter_map(move |to_coord| {
            let (from_layer, from_coord) = self.node(to_layer, to_coord)?.temporal_prev?;
            Some(TemporalEdge { from_coord, from_layer, to_coord, to_layer })
        })
    }

    /// Aggregate statistics, counted as the program was built. (A lowered
    /// program carries the same counts:
    /// [`InstructionProgram::stats`](crate::InstructionProgram::stats).)
    pub fn stats(&self) -> IrStats {
        self.stats
    }

    /// Per-layer summaries in layer order, used to drive the online pass.
    pub fn layer_summaries(&self) -> Vec<IrLayerSummary> {
        (0..self.stats.layers)
            .map(|layer| {
                let mut summary = IrLayerSummary::default();
                for (_, node) in self.layer_nodes(layer) {
                    summary.occupied += 1;
                    summary.stores += usize::from(node.stored_after);
                }
                for edge in self.incoming_temporal(layer) {
                    let gap = edge.to_layer - edge.from_layer;
                    summary.incoming_temporal.push((edge.to_coord, gap));
                    // The stored node is retrieved just before the
                    // destination layer.
                    summary.retrieves += usize::from(edge.is_cross_layer());
                }
                summary
            })
            .collect()
    }

    /// Full structural validation: every edge endpoint exists, spatial edges
    /// connect neighbors, temporal fan-in/out is at most one per node per
    /// direction. This is the lowering walk of
    /// [`InstructionProgram::lower`](crate::InstructionProgram::lower) with
    /// its stream dropped.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, scanning layers in order and each
    /// layer row-major, or [`IrError::RecordOverflow`] when a value does not
    /// fit the instruction records.
    pub fn validate(&self) -> Result<(), IrError> {
        crate::InstructionProgram::lower(self).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instruction;

    fn two_layer_ir() -> FlexLatticeIr {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(3, 3));
        let l0 = ir.push_layer();
        let l1 = ir.push_layer();
        ir.place(l0, (0, 0), NodeKind::Program(1)).unwrap();
        ir.place(l0, (1, 0), NodeKind::Ancilla).unwrap();
        ir.place(l1, (0, 0), NodeKind::Program(2)).unwrap();
        ir
    }

    #[test]
    fn place_and_query() {
        let ir = two_layer_ir();
        assert_eq!(ir.layer_count(), 2);
        assert_eq!(ir.occupancy(0), 2);
        assert_eq!(ir.node(0, (0, 0)).unwrap().kind.program_node(), Some(1));
        assert!(ir.node(0, (2, 2)).is_none());
    }

    #[test]
    fn double_placement_rejected() {
        let mut ir = two_layer_ir();
        assert_eq!(
            ir.place(0, (0, 0), NodeKind::Ancilla),
            Err(IrError::Occupied { layer: 0, coord: (0, 0) })
        );
        assert_eq!(
            ir.place(0, (9, 0), NodeKind::Ancilla),
            Err(IrError::OutOfBounds { coord: (9, 0), size: (3, 3) })
        );
    }

    #[test]
    fn spatial_edges_require_adjacency_and_nodes() {
        let mut ir = two_layer_ir();
        ir.enable_spatial_edge(0, (0, 0), (1, 0)).unwrap();
        assert!(ir.node(0, (0, 0)).unwrap().east_edge);
        assert_eq!(
            ir.enable_spatial_edge(0, (0, 0), (2, 0)),
            Err(IrError::NotAdjacent { a: (0, 0), b: (2, 0) })
        );
        assert_eq!(
            ir.enable_spatial_edge(0, (0, 0), (0, 1)),
            Err(IrError::MissingNode { layer: 0, coord: (0, 1) })
        );
        assert!(ir.validate().is_ok());
    }

    #[test]
    fn temporal_edges_adjacent_and_cross_layer() {
        let mut ir = two_layer_ir();
        ir.enable_temporal_edge((0, 0), 0, 1).unwrap();
        assert_eq!(ir.node(1, (0, 0)).unwrap().temporal_prev, Some((0, (0, 0))));
        assert!(!ir.node(0, (0, 0)).unwrap().stored_after);
        // Add a third layer and a cross-layer edge from layer 0.
        let l2 = ir.push_layer();
        ir.place(l2, (1, 0), NodeKind::Program(5)).unwrap();
        ir.enable_temporal_edge((1, 0), 0, 2).unwrap();
        assert!(ir.node(0, (1, 0)).unwrap().stored_after);
        let stats = ir.stats();
        assert_eq!((stats.adjacent_temporal_edges, stats.cross_temporal_edges), (1, 1));
        assert!(ir.validate().is_ok());
    }

    #[test]
    fn temporal_fan_in_and_out_limited_to_one() {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(2, 2));
        for _ in 0..3 {
            ir.push_layer();
        }
        for layer in 0..3 {
            ir.place(layer, (0, 0), NodeKind::Ancilla).unwrap();
        }
        ir.enable_temporal_edge((0, 0), 0, 1).unwrap();
        // Node at layer 1 already has an incoming edge.
        assert!(matches!(
            ir.enable_temporal_edge((0, 0), 0, 1),
            Err(IrError::TemporalConflict { .. })
        ));
        // Node at layer 0 already has an outgoing edge.
        assert!(matches!(
            ir.enable_temporal_edge((0, 0), 0, 2),
            Err(IrError::TemporalConflict { .. })
        ));
        // A fresh edge from layer 1 to layer 2 is fine.
        ir.enable_temporal_edge((0, 0), 1, 2).unwrap();
        assert!(ir.validate().is_ok());
    }

    #[test]
    fn relocated_cross_layer_edge_allowed_but_adjacent_must_stay_put() {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(3, 3));
        for _ in 0..3 {
            ir.push_layer();
        }
        ir.place(0, (0, 0), NodeKind::Program(1)).unwrap();
        ir.place(1, (2, 2), NodeKind::Program(2)).unwrap();
        ir.place(2, (2, 2), NodeKind::Program(3)).unwrap();
        // Adjacent-layer edges cannot change coordinate.
        assert!(matches!(
            ir.enable_temporal_edge_relocated(0, (0, 0), 1, (2, 2)),
            Err(IrError::NotAdjacent { .. })
        ));
        // Cross-layer edges can: the photons re-enter through the virtual
        // memory at the new position.
        ir.enable_temporal_edge_relocated(0, (0, 0), 2, (2, 2)).unwrap();
        assert!(ir.node(0, (0, 0)).unwrap().stored_after);
        assert_eq!(ir.node(2, (2, 2)).unwrap().temporal_prev, Some((0, (0, 0))));
        assert!(ir.validate().is_ok());
        let retrieved: Vec<Instruction> = crate::InstructionProgram::lower(&ir)
            .unwrap()
            .iter()
            .filter(|i| matches!(i, Instruction::RetrieveVNode { .. }))
            .collect();
        assert_eq!(
            retrieved,
            [Instruction::RetrieveVNode { v_node: (0, 0, 0), position: (2, 2, 1) }]
        );
    }

    #[test]
    fn invalid_temporal_order_rejected() {
        let mut ir = two_layer_ir();
        assert!(matches!(
            ir.enable_temporal_edge((0, 0), 1, 1),
            Err(IrError::InvalidTemporalOrder { .. })
        ));
        assert!(matches!(
            ir.enable_temporal_edge((0, 0), 0, 7),
            Err(IrError::MissingLayer(7))
        ));
    }

    #[test]
    fn stats_and_summaries() {
        let mut ir = two_layer_ir();
        ir.enable_spatial_edge(0, (0, 0), (1, 0)).unwrap();
        ir.enable_temporal_edge((0, 0), 0, 1).unwrap();
        let l2 = ir.push_layer();
        ir.place(l2, (1, 0), NodeKind::Program(9)).unwrap();
        ir.enable_temporal_edge((1, 0), 0, 2).unwrap();
        let stats = ir.stats();
        assert_eq!(stats.layers, 3);
        assert_eq!(stats.program_nodes, 3);
        assert_eq!(stats.ancilla_nodes, 1);
        assert_eq!(stats.spatial_edges, 1);
        assert_eq!(stats.adjacent_temporal_edges, 1);
        assert_eq!(stats.cross_temporal_edges, 1);
        let summaries = ir.layer_summaries();
        assert_eq!(summaries.len(), 3);
        assert_eq!(summaries[0].stores, 1);
        assert_eq!(summaries[1].incoming_temporal.len(), 1);
        assert_eq!(summaries[2].retrieves, 1);
        assert_eq!(summaries[2].incoming_temporal[0].1, 2);
    }

    /// Builds a program with every kind of node and edge, keeping a plain
    /// copy of what each successful call set. Every decoded view, and the
    /// counts kept along the way, must match that copy.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn node_views_match_a_shadow_of_the_calls() {
        use std::collections::BTreeMap;
        let ids = [0, 1, u32::MAX as usize, u32::MAX as usize + 1, (1 << PROGRAM_ID_BITS) - 1];
        let (w, h) = (4, 3);
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(w, h));
        // Keyed `(layer, y, x)`, which is row-major order within a layer.
        let mut shadow: BTreeMap<(usize, usize, usize), IrNode> = BTreeMap::new();
        let mut next_id = ids.iter().cycle();
        for layer in 0..4 {
            ir.push_layer();
            for (i, (x, y)) in ir.hardware().coords().collect::<Vec<_>>().into_iter().enumerate() {
                if (i + layer) % 5 == 3 {
                    continue;
                }
                let kind = if (i + layer) % 3 == 0 {
                    NodeKind::Ancilla
                } else {
                    NodeKind::Program(*next_id.next().unwrap())
                };
                ir.place(layer, (x, y), kind).unwrap();
                let node = IrNode {
                    kind,
                    east_edge: false,
                    north_edge: false,
                    temporal_prev: None,
                    stored_after: false,
                };
                shadow.insert((layer, y, x), node);
            }
        }
        // A program id past 56 bits is refused and leaves no trace.
        let too_wide = 1 << PROGRAM_ID_BITS;
        assert_eq!(
            ir.place(3, (0, 0), NodeKind::Program(too_wide)),
            Err(IrError::RecordOverflow { field: "g_node", value: too_wide })
        );
        assert_eq!(ir.node(3, (0, 0)), None);
        for layer in 0..4 {
            for (x, y) in ir.hardware().coords().collect::<Vec<_>>() {
                // East and north edges on a parity pattern, where both
                // endpoints exist. Each east edge is enabled again from its
                // other end, which must not count twice.
                if (x + y + layer) % 2 == 0
                    && ir.enable_spatial_edge(layer, (x, y), (x + 1, y)).is_ok()
                {
                    shadow.get_mut(&(layer, y, x)).unwrap().east_edge = true;
                    ir.enable_spatial_edge(layer, (x + 1, y), (x, y)).unwrap();
                }
                if (x + y + layer) % 3 != 0
                    && ir.enable_spatial_edge(layer, (x, y), (x, y + 1)).is_ok()
                {
                    shadow.get_mut(&(layer, y, x)).unwrap().north_edge = true;
                }
            }
        }
        let mut temporal =
            |ir: &mut FlexLatticeIr, from: usize, a: (usize, usize), to: usize, b| {
                if ir.enable_temporal_edge_relocated(from, a, to, b).is_ok() {
                    shadow.get_mut(&(to, b.1, b.0)).unwrap().temporal_prev = Some((from, a));
                    if to - from > 1 {
                        shadow.get_mut(&(from, a.1, a.0)).unwrap().stored_after = true;
                    }
                }
            };
        for (x, y) in ir.hardware().coords().collect::<Vec<_>>() {
            if (x + y) % 2 == 0 {
                temporal(&mut ir, 0, (x, y), 1, (x, y));
                temporal(&mut ir, 1, (x, y), 3, (w - 1 - x, h - 1 - y));
            } else {
                temporal(&mut ir, 0, (x, y), 2, (x, y));
                temporal(&mut ir, 2, (x, y), 3, (x, y));
            }
        }
        let decoded: BTreeMap<(usize, usize, usize), IrNode> = (0..4)
            .flat_map(|layer| ir.layer_nodes(layer).map(move |((x, y), n)| ((layer, y, x), n)))
            .collect();
        assert_eq!(decoded, shadow, "layer_nodes");
        for layer in 0..4 {
            for (x, y) in ir.hardware().coords() {
                assert_eq!(ir.node(layer, (x, y)), shadow.get(&(layer, y, x)).copied());
            }
        }
        let nodes: Vec<&IrNode> = shadow.values().collect();
        let count = |f: &dyn Fn(&IrNode) -> bool| nodes.iter().filter(|n| f(n)).count();
        let cross = count(&|n| n.stored_after);
        let expected = IrStats {
            layers: 4,
            program_nodes: count(&|n| n.kind != NodeKind::Ancilla),
            ancilla_nodes: count(&|n| n.kind == NodeKind::Ancilla),
            spatial_edges: count(&|n| n.east_edge) + count(&|n| n.north_edge),
            adjacent_temporal_edges: count(&|n| n.temporal_prev.is_some()) - cross,
            cross_temporal_edges: cross,
        };
        assert_eq!(ir.stats(), expected);
        // Every kind of node and edge is present, and every id.
        assert!(expected.ancilla_nodes > 0 && expected.spatial_edges > 0);
        assert!(expected.adjacent_temporal_edges > 0 && cross > 0);
        assert!(count(&|n| n.east_edge) > 0 && count(&|n| n.north_edge) > 0);
        let relocated =
            |(&(_, y, x), n): (&_, &IrNode)| n.temporal_prev.is_some_and(|(_, c)| c != (x, y));
        assert!(shadow.iter().any(relocated));
        for id in ids {
            assert!(nodes.iter().any(|n| n.kind == NodeKind::Program(id)), "id {id}");
        }
    }

    /// Non-square shapes in both orientations: a transposed flat index or a
    /// missing bounds check shows up as aliasing on one of them.
    const SHAPES: [(usize, usize); 2] = [(3, 5), (5, 3)];

    /// Two full layers whose every node carries a distinct id.
    fn filled(w: usize, h: usize) -> FlexLatticeIr {
        let mut ir = FlexLatticeIr::new(VirtualHardware::new(w, h));
        for layer in 0..2 {
            ir.push_layer();
            for (x, y) in ir.hardware().coords().collect::<Vec<_>>() {
                ir.place(layer, (x, y), NodeKind::Program(id(layer, (x, y)))).unwrap();
            }
        }
        ir
    }

    fn id(layer: usize, (x, y): (usize, usize)) -> usize {
        1000 * layer + 100 * x + y
    }

    #[test]
    fn flat_index_never_aliases_out_of_range_positions() {
        for (w, h) in SHAPES {
            let ir = filled(w, h);
            for layer in 0..2 {
                for coord in ir.hardware().coords() {
                    let node = ir.node(layer, coord).expect("placed");
                    assert_eq!(node.kind.program_node(), Some(id(layer, coord)));
                }
                // (w, y) would alias (0, y + 1) and (x, h) the next layer's
                // (x, 0) in an unchecked flat index.
                for y in 0..h {
                    assert!(ir.node(layer, (w, y)).is_none(), "{w}x{h}: ({w}, {y})");
                }
                for x in 0..w {
                    assert!(ir.node(layer, (x, h)).is_none(), "{w}x{h}: ({x}, {h})");
                }
            }
            assert!(ir.node(2, (0, 0)).is_none());
            assert!(ir.node(usize::MAX, (0, 0)).is_none());
            assert_eq!(ir.layer_nodes(2).count(), 0);
            assert_eq!(ir.occupancy(1), w * h);
        }
    }

    #[test]
    fn place_reports_bounds_then_layer_then_occupancy() {
        for (w, h) in SHAPES {
            let mut ir = filled(w, h);
            let size = (w, h);
            assert_eq!(
                ir.place(7, (w, 0), NodeKind::Ancilla),
                Err(IrError::OutOfBounds { coord: (w, 0), size })
            );
            assert_eq!(
                ir.place(0, (0, h), NodeKind::Ancilla),
                Err(IrError::OutOfBounds { coord: (0, h), size })
            );
            assert_eq!(ir.place(2, (0, 0), NodeKind::Ancilla), Err(IrError::MissingLayer(2)));
            assert_eq!(
                ir.place(1, (w - 1, h - 1), NodeKind::Ancilla),
                Err(IrError::Occupied { layer: 1, coord: (w - 1, h - 1) })
            );
            // Failed placements leave the program untouched.
            assert_eq!(ir.layer_count(), 2);
            assert_eq!(ir.stats().program_nodes, 2 * w * h);
            assert_eq!(ir.stats().ancilla_nodes, 0);
        }
    }

    #[test]
    fn temporal_edges_come_out_in_layer_x_y_order() {
        for (w, h) in SHAPES {
            let mut ir = filled(w, h);
            ir.push_layer();
            // Scrambled insertion order: the listing must not depend on it.
            let mut coords: Vec<(usize, usize)> = ir.hardware().coords().collect();
            coords.reverse();
            coords.rotate_left(w);
            for &c in &coords {
                ir.place(2, c, NodeKind::Ancilla).unwrap();
                if (c.0 + c.1) % 2 == 0 {
                    ir.enable_temporal_edge(c, 1, 2).unwrap();
                } else {
                    ir.enable_temporal_edge(c, 0, 2).unwrap();
                }
            }
            for &c in &coords {
                if (c.0 + c.1) % 2 == 1 {
                    ir.enable_temporal_edge(c, 0, 1).unwrap_err();
                } else {
                    ir.enable_temporal_edge(c, 0, 1).unwrap();
                }
            }
            let keys: Vec<(usize, usize, usize)> = crate::InstructionProgram::lower(&ir)
                .unwrap()
                .iter()
                .filter_map(|i| match i {
                    Instruction::EnableTemporalVEdge { adjacent_v_node: (x, y, z), .. } => {
                        Some((z, x, y))
                    }
                    _ => None,
                })
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{w}x{h}");
            assert_eq!(keys.len(), 2 * w * h - (w * h) / 2);
            let summaries = ir.layer_summaries();
            let incoming: Vec<(usize, usize)> =
                summaries[2].incoming_temporal.iter().map(|&(c, _)| c).collect();
            let mut by_x = incoming.clone();
            by_x.sort_unstable();
            assert_eq!(incoming, by_x, "{w}x{h}: summary order");
            assert!(ir.validate().is_ok());
        }
    }

    #[test]
    fn layer_nodes_and_lowering_are_row_major() {
        for (w, h) in SHAPES {
            let mut ir = FlexLatticeIr::new(VirtualHardware::new(w, h));
            let layer = ir.push_layer();
            // Column-major insertion, the opposite of the listing order.
            for x in (0..w).rev() {
                for y in (0..h).rev() {
                    if (x * 7 + y * 3) % 4 != 0 {
                        ir.place(layer, (x, y), NodeKind::Program(10 * x + y)).unwrap();
                    }
                }
            }
            let listed: Vec<(usize, usize)> = ir.layer_nodes(layer).map(|(c, _)| c).collect();
            let mut row_major = listed.clone();
            row_major.sort_by_key(|&(x, y)| (y, x));
            assert_eq!(listed, row_major, "{w}x{h}");
            for ((x, y), node) in ir.layer_nodes(layer) {
                assert_eq!(node.kind.program_node(), Some(10 * x + y));
            }
            let lowered = crate::InstructionProgram::lower(&ir).unwrap();
            let mapped: Vec<(usize, usize)> = lowered
                .iter()
                .map(|i| match i {
                    Instruction::MapVNode { v_node: (x, y, _), .. } => (x, y),
                    other => panic!("unexpected {other}"),
                })
                .collect();
            assert_eq!(mapped, row_major, "{w}x{h}: lowering order");
        }
    }
}

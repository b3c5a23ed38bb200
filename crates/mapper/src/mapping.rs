//! The mapping algorithm: program graph state → FlexLattice IR.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use oneperc_circuit::ProgramGraph;
use oneperc_ir::{FlexLatticeIr, InstructionProgram, IrError, NodeKind, VirtualHardware};

use crate::config::MapperConfig;

/// Errors produced by the offline mapping pass.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The virtual hardware cannot hold the program.
    HardwareTooSmall {
        /// Nodes that needed to be live at once.
        needed: usize,
        /// Coordinates available per layer.
        available: usize,
    },
    /// The layer budget ran out before the program finished mapping.
    LayerBudgetExhausted {
        /// The configured cap.
        limit: usize,
    },
    /// An IR construction rule was violated (indicates a mapper bug).
    Ir(IrError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::HardwareTooSmall { needed, available } => write!(
                f,
                "virtual hardware too small: {needed} simultaneously live nodes but only {available} coordinates"
            ),
            MapError::LayerBudgetExhausted { limit } => {
                write!(f, "mapping did not finish within {limit} layers")
            }
            MapError::Ir(e) => write!(f, "ir construction failed: {e}"),
        }
    }
}

impl Error for MapError {}

impl From<IrError> for MapError {
    fn from(e: IrError) -> Self {
        MapError::Ir(e)
    }
}

/// Aggregate statistics of one mapping run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperStats {
    /// Virtual-hardware layers emitted (the number of logical layers the
    /// online pass must form).
    pub layers: usize,
    /// Program-graph nodes mapped.
    pub program_nodes: usize,
    /// Ancilla nodes spent on routing.
    pub ancilla_nodes: usize,
    /// Spatial edges enabled.
    pub spatial_edges: usize,
    /// Temporal edges enabled (adjacent plus cross-layer).
    pub temporal_edges: usize,
    /// Temporal edges that cross at least one layer (virtual-memory
    /// round-trips).
    pub cross_layer_edges: usize,
    /// Peak number of simultaneously incomplete (live) program nodes.
    pub peak_live_nodes: usize,
    /// Peak number of live nodes parked in the virtual memory.
    pub peak_stored_nodes: usize,
    /// Refresh rounds performed.
    pub refreshes: usize,
    /// Edge realizations that had to be deferred to a later layer.
    pub deferred_edges: usize,
}

/// The output of a mapping run.
#[derive(Debug, Clone)]
pub struct MappingResult {
    /// The FlexLattice IR program.
    pub ir: FlexLatticeIr,
    /// Its instruction lowering.
    pub instructions: InstructionProgram,
    /// Statistics of the run.
    pub stats: MapperStats,
    /// `true` when every program node and edge was realized.
    pub complete: bool,
}

/// Per-live-node bookkeeping: where the node lives and which of its graph
/// edges are still unrealized.
#[derive(Debug)]
struct Live {
    coord: (usize, usize),
    last_layer: usize,
    /// Neighbors whose edge to this node is still unrealized, sorted by id.
    pending: Vec<usize>,
}

/// The offline mapper.
#[derive(Debug, Clone)]
pub struct Mapper {
    config: MapperConfig,
}

/// Occupancy of the layer being built, indexed `y·w + x`.
struct LayerGrid {
    width: usize,
    occupied: Vec<bool>,
    count: usize,
}

impl LayerGrid {
    fn new(hw: &VirtualHardware) -> Self {
        LayerGrid { width: hw.width(), occupied: vec![false; hw.nodes_per_layer()], count: 0 }
    }

    fn clear(&mut self) {
        self.occupied.fill(false);
        self.count = 0;
    }

    fn index(&self, (x, y): (usize, usize)) -> usize {
        y * self.width + x
    }

    fn coord(&self, i: usize) -> (usize, usize) {
        (i % self.width, i / self.width)
    }

    fn is_occupied(&self, coord: (usize, usize)) -> bool {
        self.occupied[self.index(coord)]
    }

    fn occupy(&mut self, coord: (usize, usize)) {
        let i = self.index(coord);
        debug_assert!(!self.occupied[i], "coordinate {coord:?} occupied twice");
        self.occupied[i] = true;
        self.count += 1;
    }

    /// Free coordinates in row-major order.
    fn free(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.occupied.chunks_exact(self.width).enumerate().flat_map(|(y, row)| {
            row.iter().enumerate().filter(|&(_, &o)| !o).map(move |(x, _)| (x, y))
        })
    }
}

/// Reusable breadth-first-search buffers of [`RunState::route_edge`],
/// indexed like [`LayerGrid`]. A coordinate is seen when its stamp equals
/// the current epoch, so no buffer is cleared between searches.
#[derive(Default)]
struct RouteScratch {
    epoch: usize,
    seen: Vec<usize>,
    prev: Vec<usize>,
    queue: VecDeque<usize>,
    path: Vec<usize>,
}

/// Mutable state of one mapping run, threaded through the per-layer steps.
struct RunState<'p> {
    program: &'p ProgramGraph,
    ir: FlexLatticeIr,
    /// Live (placed but incomplete) nodes, indexed by node id.
    live: Vec<Option<Live>>,
    /// Ids of the live nodes, sorted.
    live_ids: Vec<usize>,
    /// Sum of `pending.len()` over the live nodes.
    pending_total: usize,
    /// Pending edges `(u, v)`, `u < v`, whose endpoints are both live,
    /// sorted: entered when the second endpoint is placed, removed when the
    /// edge is realized. A node retires only once nothing is pending on it,
    /// so retiring never touches this.
    live_pairs: Vec<(usize, usize)>,
    /// Emptied `pending` buffers of retired nodes, reused by placements.
    spare_pending: Vec<Vec<usize>>,
    mapped: Vec<bool>,
    mapped_count: usize,
    /// Per node, how many of its neighbors are not mapped yet.
    unmapped_neighbors: Vec<usize>,
    stats: MapperStats,
    refresh_queue: VecDeque<usize>,
    /// Next layer index at which a refresh round may start.
    next_refresh: usize,
    /// Cursor into the creation order for the static-partition mode.
    static_cursor: usize,
    /// Occupancy of the current layer.
    grid: LayerGrid,
    /// Program nodes placed or brought onto the current layer.
    present: Vec<usize>,
    route: RouteScratch,
    /// Coordinates of the placed neighbors of the node being placed.
    anchors: Vec<(usize, usize)>,
}

impl Mapper {
    /// Creates a mapper with the given configuration.
    pub fn new(config: MapperConfig) -> Self {
        Mapper { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// Maps a program graph state onto the virtual hardware.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::LayerBudgetExhausted`] when the configured layer
    /// cap is reached before the program is fully mapped,
    /// [`MapError::HardwareTooSmall`] when no placement is possible, and
    /// [`MapError::Ir`] if an internal IR rule is violated (a bug).
    pub fn map(&self, program: &ProgramGraph) -> Result<MappingResult, MapError> {
        let hw = self.config.hardware;
        let k2 = hw.nodes_per_layer();
        let cap_incomplete = self.config.max_incomplete_nodes();
        let total_nodes = program.node_count();

        let mut sched = program.scheduler();
        let creation_order = program.creation_order();
        let mut partners: Vec<usize> = Vec::new();

        let mut state = RunState {
            program,
            ir: FlexLatticeIr::new(hw),
            live: (0..total_nodes).map(|_| None).collect(),
            live_ids: Vec::new(),
            pending_total: 0,
            live_pairs: Vec::new(),
            spare_pending: Vec::new(),
            mapped: vec![false; total_nodes],
            mapped_count: 0,
            unmapped_neighbors: (0..total_nodes).map(|g| program.degree(g)).collect(),
            stats: MapperStats::default(),
            refresh_queue: VecDeque::new(),
            next_refresh: self.config.refresh_period.unwrap_or(usize::MAX),
            static_cursor: 0,
            grid: LayerGrid::new(&hw),
            present: Vec::new(),
            route: RouteScratch {
                seen: vec![0; k2],
                prev: vec![0; k2],
                ..RouteScratch::default()
            },
            anchors: Vec::new(),
        };

        while state.mapped_count < total_nodes || state.pending_total > 0 {
            if state.ir.layer_count() >= self.config.max_layers {
                return Err(MapError::LayerBudgetExhausted { limit: self.config.max_layers });
            }
            let z = state.ir.push_layer();
            state.grid.clear();
            state.present.clear();
            let mut progressed = false;

            // ---- Refresh round (third optimization of Section 6.2) ----
            if let Some(period) = self.config.refresh_period {
                if z >= state.next_refresh && state.refresh_queue.is_empty() {
                    // `live_ids` is sorted, so the round runs in id order.
                    for &g in &state.live_ids {
                        if state.live[g].as_ref().is_some_and(|l| l.last_layer + 1 < z) {
                            state.refresh_queue.push_back(g);
                        }
                    }
                    if !state.refresh_queue.is_empty() {
                        state.stats.refreshes += 1;
                    }
                    // Whether or not anything needed refreshing, wait a full
                    // period of ordinary mapping before the next round.
                    state.next_refresh = z + period;
                }
            }
            let refreshing = !state.refresh_queue.is_empty();
            if refreshing {
                if let Some(period) = self.config.refresh_period {
                    // The refresh round is still draining: postpone the next
                    // one so ordinary mapping always gets a full period.
                    state.next_refresh = z + period;
                }
                let mut brought = 0;
                while brought < cap_incomplete {
                    let Some(g) = state.refresh_queue.pop_front() else { break };
                    if state.live[g].is_none() {
                        continue;
                    }
                    if state.bring_live_node(z, g)? {
                        brought += 1;
                        progressed = true;
                    } else {
                        state.refresh_queue.push_back(g);
                        break;
                    }
                }
            } else {
                // ---- Step 1: bring and immediately route deferred edges ----
                // A deferred edge connects two nodes that are both already
                // mapped; they are brought onto this layer together and
                // routed right away, so the layer never fills up with
                // carried nodes whose edges cannot be completed any more.
                // The pairs come in sorted order, one at a time, from the
                // index of live pending pairs, so a full layer stops the
                // walk. Routing a pair only drops that pair, so the pairs
                // after it are as they were.
                let free_needed = (k2 / 2).clamp(2, 4);
                let mut after = (0, 0);
                while k2 - state.grid.count >= free_needed + 2
                    && state.present.len() <= cap_incomplete.max(2)
                {
                    let pair = state.next_pending_pair(after);
                    #[cfg(any(test, debug_assertions))]
                    assert_eq!(
                        pair,
                        state.scan_pending_pair(after),
                        "pair index disagrees with the live-set scan after {after:?}"
                    );
                    let Some((u, v)) = pair else { break };
                    after = (u, v);
                    let mut both_present = true;
                    for g in [u, v] {
                        if state.is_present(g, z) {
                            continue;
                        }
                        if !state.bring_live_node(z, g)? {
                            both_present = false;
                        }
                    }
                    if !both_present {
                        continue;
                    }
                    if state.route_pending_edge(z, u, v)? {
                        progressed = true;
                    }
                }

                // ---- Step 2: place new nodes from the schedule front ----
                // Newly ready successors (for example the next node on the
                // same wire) may be placed on the same layer, exactly as the
                // chains of Fig. 11 of the paper; the DAG order only
                // constrains the *order* of placement. A quarter of the
                // layer is kept free for ancilla routing.
                let placement_cap = k2 - (k2 / 4).max(1);
                if self.config.dynamic_scheduling {
                    // Present nodes with unrealized edges. Placing a node
                    // realizes no edge, so this only grows during step 2.
                    let mut incomplete_present = state
                        .present
                        .iter()
                        .filter(|&&p| state.live[p].as_ref().is_some_and(|l| !l.pending.is_empty()))
                        .count();
                    // The front is walked in creation order, in place, with
                    // one cursor: a skipped node stays in the front and the
                    // cursor moves past it; a placed node is consumed and
                    // leaves the front, so the cursor stays put. Node ids
                    // are creation ranks (`add_vertex` hands them out in
                    // order) and every dependency edge goes from a lower id
                    // to a higher one, so the nodes a consume readies land
                    // after the cursor and are reached in this same walk,
                    // in the order a creation-rank priority queue pops them.
                    // (`ProgramGraph::dependency_successors` only yields
                    // higher ids; `front_order` checks the creation ranks.)
                    let mut cursor = 0;
                    while let Some(&g) = sched.front().get(cursor) {
                        if state.grid.count >= placement_cap {
                            break;
                        }
                        let will_be_incomplete = state.unmapped_neighbors[g] > 0;
                        if will_be_incomplete
                            && incomplete_present >= cap_incomplete
                            && progressed
                        {
                            cursor += 1;
                            continue;
                        }
                        let neighbors = program.neighbors(g);
                        let Some(coord) = state.choose_coord(neighbors) else {
                            cursor += 1;
                            continue;
                        };
                        state.place_present(z, g, coord)?;
                        incomplete_present += usize::from(!neighbors.is_empty());
                        progressed = true;
                        debug_assert_eq!(
                            creation_order[g], g,
                            "node {g} breaks the creation-rank order the cursor walks in"
                        );
                        sched.consume(g);
                    }
                } else {
                    // Static partition (the OneQ behaviour): fill the layer
                    // with the next contiguous chunk of nodes in creation
                    // order, without reordering and without an occupancy
                    // reservation.
                    while state.grid.count < placement_cap {
                        let Some(&g) = creation_order.get(state.static_cursor) else {
                            break;
                        };
                        if state.mapped[g] {
                            state.static_cursor += 1;
                            continue;
                        }
                        let Some(coord) = state.choose_coord(program.neighbors(g)) else {
                            break;
                        };
                        state.place_present(z, g, coord)?;
                        sched.consume(g);
                        state.static_cursor += 1;
                        progressed = true;
                    }
                }
            }

            // ---- Step 3: realize edges between co-present nodes ----
            // In node order, each node with its partners in node order, so
            // the mapping is a pure function of the program.
            state.present.sort_unstable();
            for i in 0..state.present.len() {
                let u = state.present[i];
                partners.clear();
                if let Some(l) = &state.live[u] {
                    partners.extend(
                        l.pending.iter().copied().filter(|&v| v > u && state.is_present(v, z)),
                    );
                }
                for &v in &partners {
                    if state.route_pending_edge(z, u, v)? {
                        progressed = true;
                    }
                }
            }

            // ---- Step 4: retire completed nodes, update peaks ----
            // `present` holds exactly the live nodes on this layer; the rest
            // of the live set is parked in the virtual memory.
            let mut live_present = 0;
            for i in 0..state.present.len() {
                let g = state.present[i];
                if state.live[g].as_ref().is_some_and(|l| l.pending.is_empty()) {
                    state.retire(g);
                } else {
                    live_present += 1;
                }
            }
            state.stats.peak_live_nodes = state.stats.peak_live_nodes.max(state.live_ids.len());
            let stored_now = state.live_ids.len() - live_present;
            state.stats.peak_stored_nodes = state.stats.peak_stored_nodes.max(stored_now);

            // ---- Progress guarantee ----
            if !progressed {
                if let Some(&g) = sched.front().first() {
                    let Some(coord) = state.choose_coord(program.neighbors(g)) else {
                        return Err(MapError::HardwareTooSmall {
                            needed: state.live_ids.len() + 1,
                            available: k2,
                        });
                    };
                    state.place_program_node(z, g, coord)?;
                    sched.consume(g);
                } else if state.present.is_empty() && state.grid.count == 0 {
                    return Err(MapError::HardwareTooSmall {
                        needed: state.live_ids.len(),
                        available: k2,
                    });
                }
            }
        }

        // One walk over the finished IR: validation, statistics and the
        // instruction stream.
        let instructions = InstructionProgram::lower(&state.ir)?;
        let ir_stats = instructions.stats();
        state.stats.layers = ir_stats.layers;
        state.stats.temporal_edges =
            ir_stats.adjacent_temporal_edges + ir_stats.cross_temporal_edges;
        state.stats.cross_layer_edges = ir_stats.cross_temporal_edges;
        state.stats.ancilla_nodes = ir_stats.ancilla_nodes;
        state.stats.spatial_edges = ir_stats.spatial_edges;
        Ok(MappingResult {
            ir: state.ir,
            instructions,
            stats: state.stats,
            complete: true,
        })
    }
}

impl RunState<'_> {
    /// Whether live node `g` was placed or brought onto layer `z`.
    fn is_present(&self, g: usize, z: usize) -> bool {
        self.live[g].as_ref().is_some_and(|l| l.last_layer == z)
    }

    /// The first pair `(u, v)`, `u < v`, of live nodes whose mutual edge is
    /// still pending and that sorts after `after`.
    fn next_pending_pair(&self, after: (usize, usize)) -> Option<(usize, usize)> {
        let at = self.live_pairs.partition_point(|&p| p <= after);
        self.live_pairs.get(at).copied()
    }

    /// [`RunState::next_pending_pair`] found by scanning the live nodes'
    /// pending lists, the oracle the pair index is checked against.
    #[cfg(any(test, debug_assertions))]
    fn scan_pending_pair(&self, after: (usize, usize)) -> Option<(usize, usize)> {
        let from = self.live_ids.partition_point(|&l| l < after.0);
        self.live_ids[from..].iter().find_map(|&u| {
            let floor = if u == after.0 { after.1 } else { u };
            let l = self.live[u].as_ref()?;
            l.pending.iter().find(|&&v| v > floor && self.live[v].is_some()).map(|&v| (u, v))
        })
    }

    /// Places a fresh program node and registers it as live.
    fn place_program_node(
        &mut self,
        layer: usize,
        g: usize,
        coord: (usize, usize),
    ) -> Result<(), MapError> {
        self.ir.place(layer, coord, NodeKind::Program(g))?;
        self.stats.program_nodes += 1;
        let neighbors = self.program.neighbors(g);
        let mut pending = self.spare_pending.pop().unwrap_or_default();
        pending.extend_from_slice(neighbors);
        self.pending_total += pending.len();
        // `g` was unmapped, so its edges to live neighbours are pending.
        for &n in neighbors {
            if self.live[n].is_some() {
                let pair = (n.min(g), n.max(g));
                let at = self.live_pairs.partition_point(|&p| p < pair);
                self.live_pairs.insert(at, pair);
            }
        }
        self.live[g] = Some(Live { coord, last_layer: layer, pending });
        let at = self.live_ids.partition_point(|&l| l < g);
        self.live_ids.insert(at, g);
        self.mapped[g] = true;
        self.mapped_count += 1;
        for &n in neighbors {
            self.unmapped_neighbors[n] -= 1;
        }
        Ok(())
    }

    /// Places a fresh program node onto the layer being built.
    fn place_present(
        &mut self,
        layer: usize,
        g: usize,
        coord: (usize, usize),
    ) -> Result<(), MapError> {
        self.place_program_node(layer, g, coord)?;
        self.grid.occupy(coord);
        self.present.push(g);
        Ok(())
    }

    /// Drops a completed node from the live set.
    fn retire(&mut self, g: usize) {
        if let Some(l) = self.live[g].take() {
            self.spare_pending.push(l.pending);
        }
        if let Ok(pos) = self.live_ids.binary_search(&g) {
            self.live_ids.remove(pos);
        }
    }

    /// Re-places a live node on layer `z` and links it to its previous
    /// appearance with a temporal edge. Nodes carried from the immediately
    /// preceding layer must keep their coordinate (direct fusion); nodes
    /// parked in the virtual memory may re-enter at any free coordinate.
    /// Returns `false` when the node could not be brought onto this layer.
    fn bring_live_node(&mut self, z: usize, g: usize) -> Result<bool, MapError> {
        let Some(info) = &self.live[g] else { return Ok(false) };
        let (home, last_layer) = (info.coord, info.last_layer);
        let adjacent_carry = last_layer + 1 == z;
        let coord = if !self.grid.is_occupied(home) {
            Some(home)
        } else if adjacent_carry {
            // Adjacent carries must stay at their coordinate; skip this
            // layer and let the node travel through the virtual memory
            // instead.
            None
        } else {
            // Relocate: pick the free coordinate closest to the old home.
            self.grid
                .free()
                .min_by_key(|&(x, y)| x.abs_diff(home.0) + y.abs_diff(home.1))
        };
        let Some(coord) = coord else { return Ok(false) };
        self.ir.place(z, coord, NodeKind::Program(g))?;
        if adjacent_carry || coord == home {
            self.ir.enable_temporal_edge(coord, last_layer, z)?;
        } else {
            self.ir.enable_temporal_edge_relocated(last_layer, home, z, coord)?;
        }
        self.grid.occupy(coord);
        self.present.push(g);
        if let Some(live) = &mut self.live[g] {
            live.coord = coord;
            live.last_layer = z;
        }
        Ok(true)
    }

    /// Picks a free coordinate for a new node, minimizing the total
    /// Manhattan distance to the coordinates of its already-placed
    /// neighbors.
    fn choose_coord(&mut self, neighbors: &[usize]) -> Option<(usize, usize)> {
        self.anchors.clear();
        self.anchors
            .extend(neighbors.iter().filter_map(|&n| self.live[n].as_ref().map(|l| l.coord)));
        let mut best: Option<((usize, usize), usize)> = None;
        for coord in self.grid.free() {
            let score: usize = if self.anchors.is_empty() {
                coord.0 + coord.1
            } else {
                self.anchors
                    .iter()
                    .map(|&(x, y)| x.abs_diff(coord.0) + y.abs_diff(coord.1))
                    .sum()
            };
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((coord, score));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Routes the pending edge between the co-present live nodes `u` and
    /// `v`, and marks it realized. Counts a deferral and returns `false`
    /// when no route exists on this layer.
    fn route_pending_edge(&mut self, z: usize, u: usize, v: usize) -> Result<bool, MapError> {
        let (Some(lu), Some(lv)) = (&self.live[u], &self.live[v]) else { return Ok(false) };
        let (cu, cv) = (lu.coord, lv.coord);
        if !self.route_edge(z, cu, cv)? {
            self.stats.deferred_edges += 1;
            return Ok(false);
        }
        for (a, b) in [(u, v), (v, u)] {
            if let Some(l) = &mut self.live[a] {
                if let Ok(pos) = l.pending.binary_search(&b) {
                    l.pending.remove(pos);
                    self.pending_total -= 1;
                }
            }
        }
        if let Ok(pos) = self.live_pairs.binary_search(&(u.min(v), u.max(v))) {
            self.live_pairs.remove(pos);
        }
        Ok(true)
    }

    /// Routes an edge between two coordinates of layer `z` through free
    /// coordinates, placing ancillas along the way. Returns `false` when no
    /// route exists on this layer.
    fn route_edge(
        &mut self,
        z: usize,
        a: (usize, usize),
        b: (usize, usize),
    ) -> Result<bool, MapError> {
        let hw = *self.ir.hardware();
        if hw.adjacent(a, b) {
            self.ir.enable_spatial_edge(z, a, b)?;
            return Ok(true);
        }
        let RunState { ir, grid, route, .. } = self;
        let (w, h) = (hw.width(), hw.height());
        let (start, goal) = (grid.index(a), grid.index(b));
        // BFS from a to b through free coordinates, expanding neighbors in
        // `VirtualHardware::neighbors` order (west, south, east, north).
        route.epoch += 1;
        let epoch = route.epoch;
        route.seen[start] = epoch;
        route.queue.clear();
        route.queue.push_back(start);
        let mut found = false;
        'bfs: while let Some(cur) = route.queue.pop_front() {
            let (x, y) = grid.coord(cur);
            let around = [
                (x > 0).then(|| cur - 1),
                (y > 0).then(|| cur - w),
                (x + 1 < w).then(|| cur + 1),
                (y + 1 < h).then(|| cur + w),
            ];
            for nb in around.into_iter().flatten() {
                if nb == goal {
                    route.prev[nb] = cur;
                    found = true;
                    break 'bfs;
                }
                if grid.occupied[nb] || route.seen[nb] == epoch {
                    continue;
                }
                route.seen[nb] = epoch;
                route.prev[nb] = cur;
                route.queue.push_back(nb);
            }
        }
        if !found {
            return Ok(false);
        }
        // Reconstruct and materialize the route.
        route.path.clear();
        route.path.push(goal);
        let mut cur = goal;
        while cur != start {
            cur = route.prev[cur];
            route.path.push(cur);
        }
        route.path.reverse();
        for window in route.path.windows(2) {
            let (from, to) = (grid.coord(window[0]), grid.coord(window[1]));
            if window[1] != goal && !grid.occupied[window[1]] {
                ir.place(z, to, NodeKind::Ancilla)?;
                grid.occupy(to);
            }
            ir.enable_spatial_edge(z, from, to)?;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneperc_circuit::{benchmarks, Circuit, Gate};
    use oneperc_ir::InstructionInterpreter;

    fn map_benchmark(
        bench: benchmarks::Benchmark,
        n: usize,
        side: usize,
    ) -> MappingResult {
        let program = ProgramGraph::from_circuit(&bench.circuit(n, 7));
        Mapper::new(MapperConfig::new(VirtualHardware::square(side)))
            .map(&program)
            .expect("mapping should succeed")
    }

    #[test]
    fn maps_tiny_circuit_completely() {
        let mut c = Circuit::new(2);
        c.push(Gate::H { qubit: 0 });
        c.push(Gate::Cnot { control: 0, target: 1 });
        let program = ProgramGraph::from_circuit(&c);
        let result = Mapper::new(MapperConfig::new(VirtualHardware::square(2)))
            .map(&program)
            .unwrap();
        assert!(result.complete);
        assert_eq!(result.stats.program_nodes, program.node_count());
        assert!(result.ir.validate().is_ok());
    }

    #[test]
    fn every_program_edge_is_realized() {
        let program = ProgramGraph::from_circuit(&benchmarks::qft(3));
        let result = Mapper::new(MapperConfig::new(VirtualHardware::square(3)))
            .map(&program)
            .unwrap();
        assert!(result.complete);
        // Spatial + temporal edges must cover at least the program edges
        // (ancilla routing and node persistence add more).
        assert!(
            result.stats.spatial_edges + result.stats.temporal_edges >= program.edge_count(),
            "edges {} + {} < program edges {}",
            result.stats.spatial_edges,
            result.stats.temporal_edges,
            program.edge_count()
        );
    }

    #[test]
    fn lowered_instructions_pass_the_interpreter() {
        let result = map_benchmark(benchmarks::Benchmark::Qaoa, 4, 2);
        let mut interp = InstructionInterpreter::new();
        interp.run(&result.instructions).unwrap();
        assert!(interp.executed() > 0);
    }

    #[test]
    fn all_benchmarks_map_on_paper_sized_hardware() {
        for bench in benchmarks::Benchmark::all() {
            let result = map_benchmark(bench, 4, 2);
            assert!(result.complete, "{bench} did not complete");
            assert!(result.stats.layers > 0);
            assert!(result.ir.validate().is_ok(), "{bench} produced invalid IR");
            assert_eq!(
                result.stats.program_nodes,
                ProgramGraph::from_circuit(&bench.circuit(4, 7)).node_count()
            );
        }
    }

    #[test]
    fn larger_hardware_needs_fewer_layers() {
        let program = ProgramGraph::from_circuit(&benchmarks::qft(4));
        let small = Mapper::new(MapperConfig::new(VirtualHardware::square(2)))
            .map(&program)
            .unwrap();
        let large = Mapper::new(MapperConfig::new(VirtualHardware::square(5)))
            .map(&program)
            .unwrap();
        assert!(
            large.stats.layers <= small.stats.layers,
            "larger hardware should not need more layers ({} vs {})",
            large.stats.layers,
            small.stats.layers
        );
    }

    #[test]
    fn refresh_bounds_memory_but_costs_layers() {
        let program = ProgramGraph::from_circuit(&benchmarks::qaoa(6, 3));
        let hw = VirtualHardware::square(3);
        let without = Mapper::new(MapperConfig::new(hw)).map(&program).unwrap();
        let with = Mapper::new(MapperConfig::new(hw).with_refresh_period(Some(5)))
            .map(&program)
            .unwrap();
        assert!(with.stats.refreshes >= 1 || without.stats.peak_stored_nodes == 0);
        assert!(
            with.stats.layers >= without.stats.layers,
            "refresh should not reduce the layer count"
        );
    }

    #[test]
    fn dynamic_and_static_scheduling_both_complete() {
        // The two scheduling modes trade layer count against routing
        // pressure differently (the static OneQ-style partition packs
        // densely but defers more edges); both must produce valid, complete
        // mappings of the same program.
        let program = ProgramGraph::from_circuit(&benchmarks::qft(4));
        let hw = VirtualHardware::square(3);
        let dynamic = Mapper::new(MapperConfig::new(hw)).map(&program).unwrap();
        let static_ = Mapper::new(MapperConfig::new(hw).with_dynamic_scheduling(false))
            .map(&program)
            .unwrap();
        assert!(dynamic.complete && static_.complete);
        assert_eq!(dynamic.stats.program_nodes, static_.stats.program_nodes);
        assert!(dynamic.ir.validate().is_ok());
        assert!(static_.ir.validate().is_ok());
    }

    #[test]
    fn repeated_mapping_is_deterministic() {
        // Regression: step 3 routed co-present edges in `HashSet`
        // iteration order, which differs between set instances, so
        // mapping the same program twice in one process could pick
        // different routes. These seeds diverged on the 25-qubit Table-1
        // sizing (virtual side 5).
        for seed in [0u64, 3, 5, 8] {
            let program = ProgramGraph::from_circuit(&benchmarks::qaoa(25, seed));
            let mapper = Mapper::new(MapperConfig::new(VirtualHardware::square(5)));
            let first = mapper.map(&program).expect("mapping should succeed");
            for _ in 1..6 {
                let again = mapper.map(&program).expect("mapping should succeed");
                assert_eq!(again.stats, first.stats, "qaoa(25, {seed}): stats diverged");
                assert_eq!(
                    again.instructions, first.instructions,
                    "qaoa(25, {seed}): instructions diverged"
                );
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let result = map_benchmark(benchmarks::Benchmark::Vqe, 4, 3);
        let ir_stats = result.ir.stats();
        assert_eq!(result.instructions.stats(), ir_stats, "the walk counts what the arena holds");
        assert_eq!(result.stats.ancilla_nodes, ir_stats.ancilla_nodes);
        assert_eq!(result.stats.spatial_edges, ir_stats.spatial_edges);
        assert_eq!(result.stats.layers, result.ir.layer_count());
        assert!(result.stats.peak_live_nodes >= result.stats.peak_stored_nodes);
    }

    /// Most retrievals of a deep chain land on a coordinate that a node of
    /// the layer below the edge's end already holds; the retrieved bundle
    /// then fuses into the layer above (see `Instruction::RetrieveVNode`).
    /// Pinned so a mapper or lowering change that moves it is seen.
    #[test]
    fn rcachain_retrievals_sharing_a_position_are_pinned() {
        let circuit = oneperc_corpus::CorpusSpec::parse("rcachain:q9,r128")
            .expect("valid spec")
            .circuit(0x0E1E_C0DE);
        let result = Mapper::new(MapperConfig::new(VirtualHardware::square(3)))
            .map(&ProgramGraph::from_circuit(&circuit))
            .expect("mapping should succeed");
        let mut interp = InstructionInterpreter::new();
        interp.run(&result.instructions).unwrap();
        assert_eq!(result.stats.cross_layer_edges, 47_619, "retrievals");
        assert_eq!(interp.fused_retrievals(), 34_356, "retrievals onto a node of layer - 1");
    }

    /// Step 1 checks its pair index against the live-set scan at every
    /// query (the assert is compiled into test builds), so mapping the
    /// fuzzer's corpus sample in both scheduling modes, refresh off and
    /// on, checks the index at every layer of every run.
    #[test]
    fn pair_index_matches_the_live_scan_on_the_fuzzer_sample() {
        use oneperc_corpus::{CorpusSpec, FuzzOptions, FAMILIES};

        let base_seed = FuzzOptions::default().base_seed;
        let mut families = [false; FAMILIES.len()];
        let mut brought_back = 0;
        for index in 0..48 {
            let spec = CorpusSpec::sample(base_seed, index);
            families[spec.family_index()] = true;
            let program = ProgramGraph::from_circuit(&spec.circuit(index));
            let side = if spec.qubits() > 6 { 3 } else { 2 };
            for dynamic in [true, false] {
                for refresh in [None, Some(5)] {
                    let config = MapperConfig::new(VirtualHardware::square(side))
                        .with_dynamic_scheduling(dynamic)
                        .with_refresh_period(refresh);
                    if let Ok(result) = Mapper::new(config).map(&program) {
                        brought_back += result.stats.cross_layer_edges;
                    }
                }
            }
        }
        assert!(families.iter().all(|&f| f), "families covered: {families:?}");
        assert!(brought_back > 0, "no run brought a node back, so step 1 never had a pair");
    }

    #[test]
    fn layer_budget_error_is_reported() {
        let program = ProgramGraph::from_circuit(&benchmarks::qft(4));
        let mut config = MapperConfig::new(VirtualHardware::square(2));
        config.max_layers = 2;
        let err = Mapper::new(config).map(&program).unwrap_err();
        assert!(matches!(err, MapError::LayerBudgetExhausted { limit: 2 }));
        assert!(err.to_string().contains("2 layers"));
    }
}

//! The hash-map offline mapper that preceded the flat-index rewrite,
//! preserved as the equivalence reference for `oneperc_mapper::Mapper`.
//!
//! [`map`] is the pre-rewrite `Mapper::map` kept line for line: live nodes
//! in a `HashMap` with a `HashSet` of pending edges each, a `HashSet` of
//! mapped ids, per-layer `HashSet`/`HashMap` occupancy, a schedule queue
//! re-sorted after every placement, and a `HashMap`-backed route search.
//! It builds its IR through the public `FlexLatticeIr` API only. [`lower`]
//! is the pre-rewrite instruction lowering, reading the IR through
//! `node()` alone: it scans every coordinate of a layer, sorts row-major,
//! and collects temporal edges by sorting them.
//!
//! The `mapper_equivalence` tests assert that the flat-index mapper emits
//! the same `MapperStats`, `InstructionProgram`, IR statistics and layer
//! summaries (and the same errors) across the corpus families and the
//! paper benchmarks. Golden digests recorded before the rewrite, in the
//! mapper crate's `golden_pins` tests, cover drift in the IR itself, which
//! this reference shares.
//!
//! Do not "optimize" this module — matching the old mapper is the point.

use std::collections::{HashMap, HashSet, VecDeque};

use oneperc_circuit::ProgramGraph;
use oneperc_ir::{
    FlexLatticeIr, Instruction, InstructionProgram, NodeKind, TemporalEdge, VirtualHardware,
};
use oneperc_mapper::{MapError, MapperConfig, MapperStats, MappingResult};

/// Per-live-node bookkeeping: where the node lives and which of its graph
/// edges are still unrealized.
#[derive(Debug, Clone)]
struct Live {
    coord: (usize, usize),
    last_layer: usize,
    pending: HashSet<usize>,
}

/// Mutable state of one mapping run, threaded through the per-layer steps.
struct RunState<'p> {
    program: &'p ProgramGraph,
    ir: FlexLatticeIr,
    live: HashMap<usize, Live>,
    mapped: HashSet<usize>,
    stats: MapperStats,
    refresh_queue: VecDeque<usize>,
    /// Next layer index at which a refresh round may start.
    next_refresh: usize,
    /// Cursor into the creation order for the static-partition mode.
    static_cursor: usize,
}

/// Maps a program graph state onto the virtual hardware exactly as the
/// pre-rewrite `Mapper::map` did.
///
/// # Errors
///
/// As `Mapper::map`: [`MapError::LayerBudgetExhausted`],
/// [`MapError::HardwareTooSmall`] or [`MapError::Ir`].
pub fn map(config: &MapperConfig, program: &ProgramGraph) -> Result<MappingResult, MapError> {
    let hw = config.hardware;
    let k2 = hw.nodes_per_layer();
    let cap_incomplete = config.max_incomplete_nodes();

    let dag = program.dependency_dag();
    let mut sched = dag.scheduler();
    let creation_rank: HashMap<usize, usize> = program
        .creation_order()
        .iter()
        .enumerate()
        .map(|(rank, &v)| (v, rank))
        .collect();

    let mut state = RunState {
        program,
        ir: FlexLatticeIr::new(hw),
        live: HashMap::new(),
        mapped: HashSet::new(),
        stats: MapperStats::default(),
        refresh_queue: VecDeque::new(),
        next_refresh: config.refresh_period.unwrap_or(usize::MAX),
        static_cursor: 0,
    };
    let total_nodes = program.node_count();

    while state.mapped.len() < total_nodes || state.live.values().any(|l| !l.pending.is_empty()) {
        if state.ir.layer_count() >= config.max_layers {
            return Err(MapError::LayerBudgetExhausted {
                limit: config.max_layers,
            });
        }
        let z = state.ir.push_layer();
        let mut occupied: HashSet<(usize, usize)> = HashSet::new();
        let mut present: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut progressed = false;

        // ---- Refresh round (third optimization of Section 6.2) ----
        if let Some(period) = config.refresh_period {
            if z >= state.next_refresh && state.refresh_queue.is_empty() {
                let mut stored: Vec<usize> = state
                    .live
                    .iter()
                    .filter(|(_, l)| l.last_layer + 1 < z)
                    .map(|(&g, _)| g)
                    .collect();
                stored.sort_unstable();
                if !stored.is_empty() {
                    state.refresh_queue.extend(stored);
                    state.stats.refreshes += 1;
                }
                // Whether or not anything needed refreshing, wait a full
                // period of ordinary mapping before the next round.
                state.next_refresh = z + period;
            }
        }
        let refreshing = !state.refresh_queue.is_empty();
        if refreshing {
            if let Some(period) = config.refresh_period {
                // The refresh round is still draining: postpone the next
                // one so ordinary mapping always gets a full period.
                state.next_refresh = z + period;
            }
            let mut brought = 0;
            while brought < cap_incomplete {
                let Some(g) = state.refresh_queue.pop_front() else {
                    break;
                };
                if !state.live.contains_key(&g) {
                    continue;
                }
                if bring_live_node(&hw, &mut state, z, g, &mut occupied, &mut present)? {
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
            let free_needed = (k2 / 2).clamp(2, 4);
            let pairs = pending_pairs(&state.live);
            for (u, v) in pairs {
                if k2 - occupied.len() < free_needed + 2
                    || present.len() + 2 > cap_incomplete.max(2) + 2
                {
                    break;
                }
                let mut both_present = true;
                for g in [u, v] {
                    if present.contains_key(&g) {
                        continue;
                    }
                    if !bring_live_node(&hw, &mut state, z, g, &mut occupied, &mut present)? {
                        both_present = false;
                    }
                }
                if !both_present {
                    continue;
                }
                let (cu, cv) = (present[&u], present[&v]);
                if route_edge(&hw, &mut state.ir, z, cu, cv, &mut occupied)? {
                    state.live.get_mut(&u).expect("live").pending.remove(&v);
                    state.live.get_mut(&v).expect("live").pending.remove(&u);
                    progressed = true;
                } else {
                    state.stats.deferred_edges += 1;
                }
            }

            // ---- Step 2: place new nodes from the schedule front ----
            // Newly ready successors (for example the next node on the
            // same wire) may be placed on the same layer, exactly as the
            // chains of Fig. 11 of the paper; the DAG order only
            // constrains the *order* of placement. A quarter of the
            // layer is kept free for ancilla routing.
            let placement_cap = k2 - (k2 / 4).max(1);
            if config.dynamic_scheduling {
                let mut queue: Vec<usize> = sched.front().to_vec();
                queue.sort_by_key(|g| creation_rank[g]);
                while let Some(g) = queue.first().copied() {
                    queue.remove(0);
                    if occupied.len() >= placement_cap {
                        break;
                    }
                    let neighbors = neighbor_ids(program, g);
                    let will_be_incomplete = neighbors
                        .iter()
                        .any(|n| !state.mapped.contains(n) && *n != g);
                    let incomplete_present = present
                        .keys()
                        .filter(|p| state.live.get(p).is_some_and(|l| !l.pending.is_empty()))
                        .count();
                    if will_be_incomplete && incomplete_present >= cap_incomplete && progressed {
                        continue;
                    }
                    let Some(coord) =
                        choose_coord(&hw, &occupied, &neighbors, &present, &state.live)
                    else {
                        continue;
                    };
                    place_program_node(&mut state, z, g, coord)?;
                    occupied.insert(coord);
                    present.insert(g, coord);
                    sched.consume(g);
                    progressed = true;
                    // The successors of `g` now in the front are the nodes
                    // its consume readied.
                    queue.extend(
                        dag.successors(g)
                            .iter()
                            .filter(|s| sched.front().contains(s)),
                    );
                    queue.sort_by_key(|g| creation_rank[g]);
                    queue.dedup();
                }
            } else {
                // Static partition (the OneQ behaviour): fill the layer
                // with the next contiguous chunk of nodes in creation
                // order, without reordering and without an occupancy
                // reservation.
                while occupied.len() < placement_cap {
                    let Some(&g) = program.creation_order().get(state.static_cursor) else {
                        break;
                    };
                    if state.mapped.contains(&g) {
                        state.static_cursor += 1;
                        continue;
                    }
                    let neighbors = neighbor_ids(program, g);
                    let Some(coord) =
                        choose_coord(&hw, &occupied, &neighbors, &present, &state.live)
                    else {
                        break;
                    };
                    place_program_node(&mut state, z, g, coord)?;
                    occupied.insert(coord);
                    present.insert(g, coord);
                    sched.consume(g);
                    state.static_cursor += 1;
                    progressed = true;
                }
            }
        }

        // ---- Step 3: realize edges between co-present nodes ----
        let mut present_nodes: Vec<usize> = present.keys().copied().collect();
        present_nodes.sort_unstable();
        for &u in &present_nodes {
            let mut partners: Vec<usize> = state
                .live
                .get(&u)
                .map(|l| {
                    l.pending
                        .iter()
                        .copied()
                        .filter(|v| *v > u && present.contains_key(v))
                        .collect()
                })
                .unwrap_or_default();
            // `pending` is a `HashSet`: route in node order, not hash
            // order, so the mapping is a pure function of the program.
            partners.sort_unstable();
            for v in partners {
                let (cu, cv) = (present[&u], present[&v]);
                if route_edge(&hw, &mut state.ir, z, cu, cv, &mut occupied)? {
                    state.live.get_mut(&u).expect("live").pending.remove(&v);
                    state.live.get_mut(&v).expect("live").pending.remove(&u);
                    progressed = true;
                } else {
                    state.stats.deferred_edges += 1;
                }
            }
        }

        // ---- Step 4: retire completed nodes, update peaks ----
        for g in &present_nodes {
            if state.live.get(g).is_some_and(|l| l.pending.is_empty()) {
                state.live.remove(g);
            }
        }
        state.stats.peak_live_nodes = state.stats.peak_live_nodes.max(state.live.len());
        let stored_now = state.live.values().filter(|l| l.last_layer < z).count();
        state.stats.peak_stored_nodes = state.stats.peak_stored_nodes.max(stored_now);

        // ---- Progress guarantee ----
        if !progressed {
            if let Some(&g) = sched.front().first() {
                let neighbors = neighbor_ids(program, g);
                let Some(coord) = choose_coord(&hw, &occupied, &neighbors, &present, &state.live)
                else {
                    return Err(MapError::HardwareTooSmall {
                        needed: state.live.len() + 1,
                        available: k2,
                    });
                };
                place_program_node(&mut state, z, g, coord)?;
                sched.consume(g);
            } else if present.is_empty() && occupied.is_empty() {
                return Err(MapError::HardwareTooSmall {
                    needed: state.live.len(),
                    available: k2,
                });
            }
        }
    }

    let ir_stats = state.ir.stats();
    state.stats.layers = state.ir.layer_count();
    state.stats.temporal_edges = ir_stats.adjacent_temporal_edges + ir_stats.cross_temporal_edges;
    state.stats.cross_layer_edges = ir_stats.cross_temporal_edges;
    state.stats.ancilla_nodes = ir_stats.ancilla_nodes;
    state.stats.spatial_edges = ir_stats.spatial_edges;
    let instructions = InstructionProgram::lower(&state.ir)?;
    Ok(MappingResult {
        ir: state.ir,
        instructions,
        stats: state.stats,
        complete: true,
    })
}

/// All unordered pairs of live nodes whose mutual edge is still pending,
/// sorted for determinism.
fn pending_pairs(live: &HashMap<usize, Live>) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = live
        .iter()
        .flat_map(|(&u, l)| {
            l.pending
                .iter()
                .copied()
                .filter(move |&v| v > u && live.contains_key(&v))
                .map(move |v| (u, v))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

fn neighbor_ids(program: &ProgramGraph, g: usize) -> Vec<usize> {
    // Program-graph neighbor slices are already sorted by id.
    program.neighbors(g).to_vec()
}

/// Places a fresh program node and registers it as live.
fn place_program_node(
    state: &mut RunState<'_>,
    layer: usize,
    g: usize,
    coord: (usize, usize),
) -> Result<(), MapError> {
    state.ir.place(layer, coord, NodeKind::Program(g))?;
    state.stats.program_nodes += 1;
    let pending: HashSet<usize> = neighbor_ids(state.program, g).into_iter().collect();
    state.live.insert(
        g,
        Live {
            coord,
            last_layer: layer,
            pending,
        },
    );
    state.mapped.insert(g);
    Ok(())
}

/// Re-places a live node on layer `z` and links it to its previous
/// appearance with a temporal edge. Nodes carried from the immediately
/// preceding layer must keep their coordinate (direct fusion); nodes parked
/// in the virtual memory may re-enter at any free coordinate. Returns
/// `false` when the node could not be brought onto this layer.
fn bring_live_node(
    hw: &VirtualHardware,
    state: &mut RunState<'_>,
    z: usize,
    g: usize,
    occupied: &mut HashSet<(usize, usize)>,
    present: &mut HashMap<usize, (usize, usize)>,
) -> Result<bool, MapError> {
    let Some(info) = state.live.get(&g).cloned() else {
        return Ok(false);
    };
    let adjacent_carry = info.last_layer + 1 == z;
    let coord = if !occupied.contains(&info.coord) {
        Some(info.coord)
    } else if adjacent_carry {
        // Adjacent carries must stay at their coordinate; skip this layer
        // and let the node travel through the virtual memory instead.
        None
    } else {
        // Relocate: pick the free coordinate closest to the old home.
        hw.coords()
            .filter(|c| !occupied.contains(c))
            .min_by_key(|&(x, y)| x.abs_diff(info.coord.0) + y.abs_diff(info.coord.1))
    };
    let Some(coord) = coord else { return Ok(false) };
    state.ir.place(z, coord, NodeKind::Program(g))?;
    if adjacent_carry || coord == info.coord {
        state.ir.enable_temporal_edge(coord, info.last_layer, z)?;
    } else {
        state
            .ir
            .enable_temporal_edge_relocated(info.last_layer, info.coord, z, coord)?;
    }
    occupied.insert(coord);
    present.insert(g, coord);
    let live = state.live.get_mut(&g).expect("live");
    live.coord = coord;
    live.last_layer = z;
    Ok(true)
}

/// Picks a free coordinate for a new node, minimizing the total Manhattan
/// distance to the coordinates of its already-placed neighbors.
fn choose_coord(
    hw: &VirtualHardware,
    occupied: &HashSet<(usize, usize)>,
    neighbors: &[usize],
    present: &HashMap<usize, (usize, usize)>,
    live: &HashMap<usize, Live>,
) -> Option<(usize, usize)> {
    let anchor_coords: Vec<(usize, usize)> = neighbors
        .iter()
        .filter_map(|n| {
            present
                .get(n)
                .copied()
                .or_else(|| live.get(n).map(|l| l.coord))
        })
        .collect();
    let mut best: Option<((usize, usize), usize)> = None;
    for coord in hw.coords() {
        if occupied.contains(&coord) {
            continue;
        }
        let score: usize = if anchor_coords.is_empty() {
            coord.0 + coord.1
        } else {
            anchor_coords
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

/// Routes an edge between two coordinates of the same layer through free
/// coordinates, placing ancillas along the way. Returns `false` when no
/// route exists on this layer.
fn route_edge(
    hw: &VirtualHardware,
    ir: &mut FlexLatticeIr,
    z: usize,
    a: (usize, usize),
    b: (usize, usize),
    occupied: &mut HashSet<(usize, usize)>,
) -> Result<bool, MapError> {
    if hw.adjacent(a, b) {
        ir.enable_spatial_edge(z, a, b)?;
        return Ok(true);
    }
    // BFS from a to b through free coordinates.
    let mut prev: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut queue = VecDeque::new();
    seen.insert(a);
    queue.push_back(a);
    let mut found = false;
    'bfs: while let Some(cur) = queue.pop_front() {
        for nb in hw.neighbors(cur) {
            if nb == b {
                prev.insert(nb, cur);
                found = true;
                break 'bfs;
            }
            if occupied.contains(&nb) || seen.contains(&nb) {
                continue;
            }
            seen.insert(nb);
            prev.insert(nb, cur);
            queue.push_back(nb);
        }
    }
    if !found {
        return Ok(false);
    }
    // Reconstruct and materialize the route.
    let mut path = vec![b];
    let mut cur = b;
    while cur != a {
        let p = prev[&cur];
        path.push(p);
        cur = p;
    }
    path.reverse();
    for window in path.windows(2) {
        let (from, to) = (window[0], window[1]);
        if to != b && ir.node(z, to).is_none() {
            ir.place(z, to, NodeKind::Ancilla)?;
            occupied.insert(to);
        }
        ir.enable_spatial_edge(z, from, to)?;
    }
    Ok(true)
}

/// Lowers an IR program the way the pre-rewrite `InstructionProgram::lower`
/// did, reading the IR through [`FlexLatticeIr::node`] only.
pub fn lower(ir: &FlexLatticeIr) -> Vec<Instruction> {
    let hw = *ir.hardware();
    let mut edges: Vec<TemporalEdge> = Vec::new();
    for to_layer in 0..ir.layer_count() {
        for to_coord in hw.coords() {
            if let Some((from_layer, from_coord)) =
                ir.node(to_layer, to_coord).and_then(|n| n.temporal_prev)
            {
                edges.push(TemporalEdge {
                    from_coord,
                    from_layer,
                    to_coord,
                    to_layer,
                });
            }
        }
    }
    edges.sort_by_key(|e| (e.to_layer, e.to_coord));
    let mut instructions = Vec::new();
    let mut edges_by_layer: Vec<Vec<TemporalEdge>> = vec![Vec::new(); ir.layer_count()];
    for edge in edges {
        edges_by_layer[edge.to_layer].push(edge);
    }
    for (layer, layer_edges) in edges_by_layer.iter().enumerate() {
        let mut coords: Vec<(usize, usize)> = hw
            .coords()
            .filter(|&c| ir.node(layer, c).is_some())
            .collect();
        coords.sort_by_key(|&(x, y)| (y, x));
        for &coord in &coords {
            let node = ir.node(layer, coord).expect("filtered above");
            let v_node = (coord.0, coord.1, layer);
            match node.kind {
                NodeKind::Program(g) => {
                    instructions.push(Instruction::MapVNode { v_node, g_node: g })
                }
                NodeKind::Ancilla => instructions.push(Instruction::MakeVNodeAncilla { v_node }),
            }
        }
        for &coord in &coords {
            let node = ir.node(layer, coord).expect("filtered above");
            let v_node = (coord.0, coord.1, layer);
            if node.east_edge {
                instructions.push(Instruction::EnableSpatialVEdge {
                    v_node,
                    adjacent_v_node: (coord.0 + 1, coord.1, layer),
                });
            }
            if node.north_edge {
                instructions.push(Instruction::EnableSpatialVEdge {
                    v_node,
                    adjacent_v_node: (coord.0, coord.1 + 1, layer),
                });
            }
            if node.stored_after {
                instructions.push(Instruction::StoreVNode { v_node });
            }
        }
        for edge in layer_edges.iter().copied() {
            let (tx, ty) = edge.to_coord;
            if edge.is_cross_layer() {
                instructions.push(Instruction::RetrieveVNode {
                    v_node: (edge.from_coord.0, edge.from_coord.1, edge.from_layer),
                    position: (tx, ty, layer - 1),
                });
            }
            let below = if edge.is_cross_layer() {
                layer - 1
            } else {
                edge.from_layer
            };
            instructions.push(Instruction::EnableTemporalVEdge {
                v_node: (tx, ty, below),
                adjacent_v_node: (tx, ty, layer),
            });
        }
    }
    instructions
}

//! Translation from circuits to program graph states (measurement patterns).
//!
//! Following the standard MBQC translation (Fig. 3 of the paper), every
//! circuit qubit becomes a *wire* of graph-state qubits: a `J(α)` gate
//! appends a fresh qubit to the wire, entangles it with the wire's current
//! end and marks the old end for an equatorial measurement `E(α)`; a `CZ`
//! gate becomes an edge between the current ends of the two wires. The
//! qubits remaining at the ends of the wires when the circuit finishes are
//! the output qubits.
//!
//! The graph is never edited after the translation, so its adjacency is
//! stored flat, in compressed-sparse-row form: one offsets array and one
//! neighbour array, each node's neighbours sorted by id and free of
//! repeats (a `CZ` applied twice, or as `CZ b, a`, is one edge).

use graphstate::{MeasBasis, VertexId};

use crate::circuit::Circuit;
use crate::dag::{DagScheduler, Dependencies, DependencyDag};
use crate::gate::Gate;

/// Role and measurement assignment of one node of a program graph state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramNode {
    /// The circuit wire (logical qubit) this node belongs to.
    pub wire: usize,
    /// Position of the node along its wire (0 = circuit input).
    pub wire_index: usize,
    /// Measurement basis driving the computation. `None` for output qubits,
    /// which are left unmeasured (or read out in whatever basis the
    /// application needs).
    pub basis: Option<MeasBasis>,
}

impl ProgramNode {
    /// Returns `true` when this node is an output (unmeasured) qubit.
    pub fn is_output(&self) -> bool {
        self.basis.is_none()
    }
}

/// A program graph state: the graph structure required by the program plus
/// the measurement pattern on its qubits.
///
/// Node ids are creation ranks: the wire inputs are `0..n_wires`, then each
/// `J` gate's fresh node takes the next id.
///
/// # Example
///
/// ```
/// use oneperc_circuit::{Circuit, Gate, ProgramGraph};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H { qubit: 0 });
/// c.push(Gate::Cnot { control: 0, target: 1 });
/// let pg = ProgramGraph::from_circuit(&c);
/// assert_eq!(pg.outputs().len(), 2);
/// assert!(pg.edge_count() >= pg.outputs().len());
/// assert_eq!(pg.degree(pg.inputs()[0]), pg.neighbors(pg.inputs()[0]).len());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramGraph {
    /// `neighbors[offsets[v]..offsets[v + 1]]` are the neighbours of `v`.
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    nodes: Vec<ProgramNode>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
    creation_order: Vec<VertexId>,
    n_wires: usize,
}

impl ProgramGraph {
    /// Builds the program graph state of a circuit. The circuit is lowered
    /// to the `{J, CZ}` set first.
    ///
    /// # Panics
    ///
    /// Panics on a `CZ` whose two qubits are the same (a graph state has no
    /// self-loops).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let lowered = circuit.lowered();
        let n = lowered.n_qubits();

        // Counting pass: the nodes, and an upper bound on each node's
        // degree (repeated CZs counted every time).
        let mut nodes: Vec<ProgramNode> =
            (0..n).map(|wire| ProgramNode { wire, wire_index: 0, basis: None }).collect();
        let mut current: Vec<VertexId> = (0..n).collect();
        let mut offsets: Vec<usize> = vec![0; n];
        for gate in lowered.gates() {
            match *gate {
                Gate::J { qubit, alpha } => {
                    let old = current[qubit];
                    let fresh = nodes.len();
                    nodes.push(ProgramNode {
                        wire: qubit,
                        wire_index: nodes[old].wire_index + 1,
                        basis: None,
                    });
                    // The consumed wire end is measured in E(α).
                    nodes[old].basis = Some(MeasBasis::equatorial(alpha));
                    offsets[old] += 1;
                    offsets.push(1);
                    current[qubit] = fresh;
                }
                Gate::Cz { a, b } => {
                    assert_ne!(a, b, "CZ on qubit {a} with itself has no graph-state edge");
                    offsets[current[a]] += 1;
                    offsets[current[b]] += 1;
                }
                ref other => {
                    unreachable!("lowered circuit contains non-primitive gate {other}")
                }
            }
        }
        let outputs = current;
        // Exclusive prefix sums: `offsets[v]` is where `v`'s row starts.
        let mut start = 0;
        for slot in &mut offsets {
            start += std::mem::replace(slot, start);
        }
        offsets.push(start);

        // Fill pass: replay the wire ends and write both directions of
        // every edge into its row.
        let mut fill = offsets.clone();
        let mut neighbors: Vec<VertexId> = vec![0; start];
        let mut link = |a: VertexId, b: VertexId| {
            neighbors[fill[a]] = b;
            fill[a] += 1;
            neighbors[fill[b]] = a;
            fill[b] += 1;
        };
        let mut current: Vec<VertexId> = (0..n).collect();
        let mut next = n;
        for gate in lowered.gates() {
            match *gate {
                Gate::J { qubit, .. } => {
                    link(current[qubit], next);
                    current[qubit] = next;
                    next += 1;
                }
                Gate::Cz { a, b } => link(current[a], current[b]),
                _ => {}
            }
        }

        // Sort each row and drop repeated edges, compacting in place.
        let mut write = 0;
        for v in 0..nodes.len() {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            neighbors[lo..hi].sort_unstable();
            offsets[v] = write;
            let mut last = None;
            for i in lo..hi {
                let u = neighbors[i];
                if last != Some(u) {
                    neighbors[write] = u;
                    write += 1;
                    last = Some(u);
                }
            }
        }
        offsets[nodes.len()] = write;
        neighbors.truncate(write);

        ProgramGraph {
            offsets,
            neighbors,
            creation_order: (0..nodes.len()).collect(),
            nodes,
            inputs: (0..n).collect(),
            outputs,
            n_wires: n,
        }
    }

    /// Neighbours of `v`, sorted by id and without repeats.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not a node of the graph.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Number of neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not a node of the graph.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Number of graph-state qubits (nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of graph-state edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of circuit wires (logical qubits).
    pub fn n_wires(&self) -> usize {
        self.n_wires
    }

    /// Metadata of a node.
    pub fn node(&self, v: VertexId) -> &ProgramNode {
        &self.nodes[v]
    }

    /// The circuit-input qubits (one per wire).
    pub fn inputs(&self) -> &[VertexId] {
        &self.inputs
    }

    /// The circuit-output qubits (one per wire, unmeasured).
    pub fn outputs(&self) -> &[VertexId] {
        &self.outputs
    }

    /// All node ids in creation order (wire inputs first, then in gate
    /// order).
    pub fn creation_order(&self) -> &[VertexId] {
        &self.creation_order
    }

    /// The dependency rule of the offline mapper's dynamic scheduling
    /// (Section 6.2), for a node `u` and its neighbour `v`: `u` must be
    /// mapped first when `u < v` and the two share a wire (the causal flow
    /// of the wire construction) or `u` sits no further along its wire than
    /// `v` (a cross-wire `CZ` is ordered from the earlier created node to
    /// the later one, so the front only exposes nodes whose entangling
    /// partners exist).
    fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = (&self.nodes[u], &self.nodes[v]);
        u < v && (a.wire == b.wire || a.wire_index <= b.wire_index)
    }

    /// The neighbours that must be mapped before `v`, in increasing id
    /// order.
    pub fn dependency_predecessors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let row = self.neighbors(v);
        row[..row.partition_point(|&u| u < v)].iter().copied().filter(move |&u| self.precedes(u, v))
    }

    /// The neighbours that must be mapped after `v`, in increasing id order.
    pub fn dependency_successors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let row = self.neighbors(v);
        row[row.partition_point(|&s| s <= v)..].iter().copied().filter(move |&s| self.precedes(v, s))
    }

    /// The flow-induced dependency DAG over the program nodes: one edge per
    /// pair of neighbours the dependency rule orders (see
    /// [`ProgramGraph::dependency_successors`]). The mapper schedules from
    /// [`ProgramGraph::scheduler`] instead, which reads the same rule off
    /// the flat adjacency without building this.
    pub fn dependency_dag(&self) -> DependencyDag {
        let mut dag = DependencyDag::new(self.node_count());
        for u in 0..self.node_count() {
            for v in self.dependency_successors(u) {
                dag.add_dependency(u, v);
            }
        }
        dag
    }

    /// A scheduler over the dependency rule that tracks the front layer as
    /// nodes are consumed, with the same front as
    /// `self.dependency_dag().scheduler()` at every step.
    pub fn scheduler(&self) -> DagScheduler<'_, ProgramGraph> {
        DagScheduler::new(self)
    }

    /// Convenience: the number of measured (non-output) nodes.
    pub fn measured_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_output()).count()
    }
}

impl Dependencies for ProgramGraph {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn predecessor_count(&self, v: usize) -> usize {
        self.dependency_predecessors(v).count()
    }

    fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.dependency_successors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn single_j_gate_makes_two_node_wire() {
        let mut c = Circuit::new(1);
        c.push(Gate::J { qubit: 0, alpha: 0.4 });
        let pg = ProgramGraph::from_circuit(&c);
        assert_eq!(pg.node_count(), 2);
        assert_eq!(pg.edge_count(), 1);
        assert_eq!(pg.inputs().len(), 1);
        assert_eq!(pg.outputs().len(), 1);
        let input = pg.inputs()[0];
        let output = pg.outputs()[0];
        assert!(pg.node(input).basis.is_some());
        assert!(pg.node(output).is_output());
        assert!((pg.node(input).basis.unwrap().equatorial_angle().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cz_gate_adds_edge_between_wire_ends() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cz { a: 0, b: 1 });
        let pg = ProgramGraph::from_circuit(&c);
        assert_eq!(pg.node_count(), 2);
        assert_eq!(pg.edge_count(), 1);
        assert_eq!(pg.neighbors(pg.outputs()[0]), &[pg.outputs()[1]]);
    }

    #[test]
    fn repeated_and_reversed_czs_are_one_edge() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cz { a: 0, b: 1 });
        c.push(Gate::Cz { a: 1, b: 0 });
        c.push(Gate::Cz { a: 2, b: 0 });
        c.push(Gate::Cz { a: 0, b: 1 });
        let pg = ProgramGraph::from_circuit(&c);
        assert_eq!(pg.edge_count(), 2);
        assert_eq!(pg.neighbors(0), &[1, 2]);
        assert_eq!(pg.neighbors(1), &[0]);
        assert_eq!(pg.neighbors(2), &[0]);
        assert_eq!((pg.degree(0), pg.degree(1), pg.degree(2)), (2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "with itself")]
    fn cz_on_one_qubit_is_rejected() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cz { a: 1, b: 1 });
        let _ = ProgramGraph::from_circuit(&c);
    }

    #[test]
    fn dependency_rule_matches_the_dag_and_its_scheduler() {
        for b in benchmarks::Benchmark::all() {
            let pg = ProgramGraph::from_circuit(&b.circuit(5, 3));
            let dag = pg.dependency_dag();
            for v in 0..pg.node_count() {
                assert_eq!(pg.predecessor_count(v), dag.predecessors(v).len(), "{b}: node {v}");
                assert!(pg.dependency_predecessors(v).eq(dag.predecessors(v).iter().copied()));
                assert!(pg.dependency_successors(v).eq(dag.successors(v).iter().copied()));
            }
            // Consuming in id order is a topological order (edges go up).
            let (mut flat, mut explicit) = (pg.scheduler(), dag.scheduler());
            for v in 0..pg.node_count() {
                assert_eq!(flat.front(), explicit.front(), "{b}: front before {v}");
                flat.consume(v);
                explicit.consume(v);
            }
            assert!(flat.is_done() && explicit.is_done());
        }
    }

    #[test]
    fn translation_matches_fig3_shape() {
        // Fig. 3: J(α), J(β) on two wires joined by CZ gates produce a
        // ladder-like graph; check node/edge counts for a tiny instance.
        let mut c = Circuit::new(2);
        c.push(Gate::J { qubit: 0, alpha: 0.1 });
        c.push(Gate::J { qubit: 1, alpha: 0.2 });
        c.push(Gate::Cz { a: 0, b: 1 });
        c.push(Gate::J { qubit: 0, alpha: 0.3 });
        let pg = ProgramGraph::from_circuit(&c);
        // 2 inputs + 3 J-created nodes.
        assert_eq!(pg.node_count(), 5);
        // 3 wire edges + 1 CZ edge.
        assert_eq!(pg.edge_count(), 4);
        assert_eq!(pg.measured_count(), 3);
    }

    #[test]
    fn output_nodes_are_unmeasured_and_per_wire() {
        let c = benchmarks::qft(4);
        let pg = ProgramGraph::from_circuit(&c);
        assert_eq!(pg.outputs().len(), 4);
        for (wire, &o) in pg.outputs().iter().enumerate() {
            assert!(pg.node(o).is_output());
            assert_eq!(pg.node(o).wire, wire);
        }
        assert_eq!(pg.measured_count(), pg.node_count() - 4);
    }

    #[test]
    fn dependency_dag_is_acyclic_and_covers_all_nodes() {
        let c = benchmarks::qaoa(5, 2);
        let pg = ProgramGraph::from_circuit(&c);
        let dag = pg.dependency_dag();
        let order = dag.topological_order().expect("program DAG must be acyclic");
        assert_eq!(order.len(), pg.node_count());
    }

    #[test]
    fn wire_predecessors_precede_successors_in_dag() {
        let c = benchmarks::vqe(3, 9);
        let pg = ProgramGraph::from_circuit(&c);
        let dag = pg.dependency_dag();
        let order = dag.topological_order().unwrap();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for &v in pg.creation_order() {
            let node = pg.node(v);
            if node.wire_index > 0 {
                // Find the predecessor on the wire.
                let pred = pg
                    .creation_order()
                    .iter()
                    .copied()
                    .find(|&u| {
                        pg.node(u).wire == node.wire && pg.node(u).wire_index + 1 == node.wire_index
                    })
                    .unwrap();
                assert!(pos[&pred] < pos[&v]);
            }
        }
    }

    #[test]
    fn benchmarks_translate_without_panic() {
        for b in benchmarks::Benchmark::all() {
            let c = b.circuit(4, 5);
            let pg = ProgramGraph::from_circuit(&c);
            assert!(pg.node_count() > 4);
            assert_eq!(pg.n_wires(), 4);
        }
    }
}

//! Properties of the flat program graph the mapper reads.
//!
//! `ProgramGraph` keeps its adjacency in compressed-sparse-row form and
//! states the dependency rule once; the mapper schedules from
//! `ProgramGraph::scheduler`, which counts predecessors off that adjacency
//! instead of building a `DependencyDag`. This file checks, on every corpus
//! family, the paper's four benchmarks and circuits with repeated and
//! reversed CZs:
//! - the neighbours, `degree` and `edge_count` against a de-duplicated
//!   edge set rebuilt naively from `circuit.lowered()`;
//! - each node's predecessors against `dependency_dag()` and against the
//!   rule rebuilt from the naive edge set (wire chains plus cross-wire CZs
//!   from the node no further along its wire);
//! - the scheduler's front against the explicit DAG's scheduler under the
//!   same consume order.

use std::collections::BTreeSet;

use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::{Circuit, Dependencies, Gate, ProgramGraph};
use oneperc_corpus::{CorpusSpec, FAMILIES};

/// A program graph rebuilt from the lowered gates with plain collections.
struct Naive {
    wire: Vec<usize>,
    wire_index: Vec<usize>,
    /// Edges `(a, b)`, `a < b`, each once.
    edges: BTreeSet<(usize, usize)>,
    /// Edges counted once per gate that makes them.
    edge_gates: usize,
}

fn naive(circuit: &Circuit) -> Naive {
    let lowered = circuit.lowered();
    let n = lowered.n_qubits();
    let mut g = Naive {
        wire: (0..n).collect(),
        wire_index: vec![0; n],
        edges: BTreeSet::new(),
        edge_gates: 0,
    };
    let mut current: Vec<usize> = (0..n).collect();
    for gate in lowered.gates() {
        let (a, b) = match *gate {
            Gate::J { qubit, .. } => {
                let fresh = g.wire.len();
                g.wire.push(qubit);
                g.wire_index.push(g.wire_index[current[qubit]] + 1);
                let old = current[qubit];
                current[qubit] = fresh;
                (old, fresh)
            }
            Gate::Cz { a, b } => (current[a], current[b]),
            ref other => panic!("lowered circuit holds {other}"),
        };
        g.edges.insert((a.min(b), a.max(b)));
        g.edge_gates += 1;
    }
    g
}

impl Naive {
    /// Each node's neighbours, sorted (the edge set is sorted, and a
    /// node's lower neighbours come before its higher ones).
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.wire.len()];
        for &(a, b) in &self.edges {
            adj[b].push(a);
        }
        for &(a, b) in &self.edges {
            adj[a].push(b);
        }
        adj
    }

    /// The dependency predecessors of every node: the previous node on its
    /// wire, and every cross-wire neighbour created earlier that sits no
    /// further along its own wire.
    fn predecessors(&self) -> Vec<BTreeSet<usize>> {
        let n = self.wire.len();
        let mut preds = vec![BTreeSet::new(); n];
        let mut prev_on_wire: Vec<Option<usize>> = vec![None; n];
        for v in 0..n {
            if let Some(p) = prev_on_wire[self.wire[v]] {
                preds[v].insert(p);
            }
            prev_on_wire[self.wire[v]] = Some(v);
        }
        for &(a, b) in &self.edges {
            if self.wire[a] != self.wire[b] && self.wire_index[a] <= self.wire_index[b] {
                preds[b].insert(a);
            }
        }
        preds
    }
}

/// Checks every property on one circuit; returns how many edge-making
/// gates repeated an edge already made.
fn check(label: &str, circuit: &Circuit) -> usize {
    let program = ProgramGraph::from_circuit(circuit);
    let naive = naive(circuit);
    let n = naive.wire.len();
    assert_eq!(program.node_count(), n, "{label}: node count");
    assert_eq!(program.edge_count(), naive.edges.len(), "{label}: edge count");
    for (v, expected) in naive.adjacency().iter().enumerate() {
        assert_eq!(program.neighbors(v), expected, "{label}: neighbours of {v}");
        assert_eq!(program.degree(v), expected.len(), "{label}: degree of {v}");
        assert_eq!(program.node(v).wire, naive.wire[v], "{label}: wire of {v}");
        assert_eq!(program.node(v).wire_index, naive.wire_index[v], "{label}: index of {v}");
    }

    let dag = program.dependency_dag();
    let preds = naive.predecessors();
    for (v, expected) in preds.iter().enumerate() {
        let from_dag: BTreeSet<usize> = dag.predecessors(v).iter().copied().collect();
        assert_eq!(&from_dag, expected, "{label}: DAG predecessors of {v}");
        assert_eq!(dag.predecessors(v).len(), expected.len(), "{label}: repeated DAG edge at {v}");
        assert_eq!(
            program.predecessor_count(v),
            dag.predecessors(v).len(),
            "{label}: derived predecessor count of {v}"
        );
        let flat: Vec<usize> = program.dependency_predecessors(v).collect();
        assert!(
            flat.iter().copied().eq(expected.iter().copied()),
            "{label}: flat predecessors of {v}"
        );
    }

    // Same consume order on both schedulers: a pseudo-random front pick.
    let mut flat = program.scheduler();
    let mut explicit = dag.scheduler();
    let mut pick = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
    while !explicit.is_done() {
        assert_eq!(flat.front(), explicit.front(), "{label}: fronts differ");
        pick ^= pick << 13;
        pick ^= pick >> 7;
        pick ^= pick << 17;
        let v = explicit.front()[(pick % explicit.front().len() as u64) as usize];
        flat.consume(v);
        explicit.consume(v);
    }
    assert!(flat.is_done(), "{label}: flat scheduler not done");
    naive.edge_gates - naive.edges.len()
}

#[test]
fn corpus_families_match_the_naive_graph() {
    let mut seen = [false; FAMILIES.len()];
    for index in 0..64 {
        let spec = CorpusSpec::sample(0x5EED, index);
        seen[spec.family_index()] = true;
        check(&spec.to_token(), &spec.circuit(index));
    }
    for token in ["rcachain:q9,r8", "layered:w36,d60,e400", "qftadder:b4"] {
        let spec = CorpusSpec::parse(token).expect("valid spec");
        seen[spec.family_index()] = true;
        check(token, &spec.circuit(0x0E1E_C0DE));
    }
    assert!(seen.iter().all(|&s| s), "families covered: {seen:?}");
}

#[test]
fn paper_benchmarks_match_the_naive_graph() {
    for bench in Benchmark::all() {
        for n in [4usize, 9, 16, 25] {
            check(&format!("{bench}({n})"), &bench.circuit(n, 7));
        }
    }
}

/// CZs repeated, reversed and interleaved with `J`s, so a wire end keeps
/// the same partner across several gates or moves on between them.
#[test]
fn repeated_and_reversed_czs_are_one_edge() {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut draw = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut repeats = 0;
    for case in 0..40 {
        let n = 2 + case % 5;
        let mut circuit = Circuit::new(n);
        for _ in 0..60 {
            let a = draw(n);
            match draw(4) {
                0 => circuit.push(Gate::J { qubit: a, alpha: 0.25 }),
                1 => circuit.push(Gate::Cnot { control: a, target: (a + 1) % n }),
                _ => {
                    let b = (a + 1 + draw(n - 1)) % n;
                    circuit.push(Gate::Cz { a, b });
                    for _ in 0..draw(3) {
                        circuit.push(Gate::Cz { a: b, b: a });
                    }
                }
            }
        }
        repeats += check(&format!("random case {case}"), &circuit);
    }
    assert!(repeats > 0, "no case repeated an edge");
}

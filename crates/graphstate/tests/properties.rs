//! Property-based tests for the graph-state substrate.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties run over a deterministic family of seeded random
//! inputs: every case derives from an explicit RNG seed, which keeps
//! failures reproducible (the failing seed is part of the panic message).

use graphstate::{DisjointSet, GraphState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// A random graph on `2..=max_n` vertices from an edge-presence bitmap.
fn random_graph(rng: &mut StdRng, max_n: usize) -> GraphState {
    let n = 2 + rng.gen_range(0..max_n - 1);
    let mut g = GraphState::with_vertices(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.5) {
                g.add_edge(i, j);
            }
        }
    }
    g
}

fn pick_vertex(rng: &mut StdRng, g: &GraphState) -> usize {
    let verts: Vec<_> = g.vertices().collect();
    verts[rng.gen_range(0..verts.len())]
}

/// The union-find structure agrees with BFS-based connectivity on the same
/// random graph.
#[test]
fn dsu_matches_bfs_connectivity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 10);
        let n = g.id_bound();
        let mut dsu = DisjointSet::new(n);
        for (a, b) in g.edges() {
            dsu.union(a, b);
        }
        let a = pick_vertex(&mut rng, &g);
        let b = pick_vertex(&mut rng, &g);
        assert_eq!(
            dsu.same_set(a, b),
            g.connected(a, b),
            "seed {seed}: DSU and BFS disagree on ({a}, {b})"
        );
    }
}

/// The CSR snapshot reports exactly the adjacency of the live graph.
#[test]
fn csr_snapshot_matches_adjacency() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = random_graph(&mut rng, 12);
        // Remove a couple of vertices so the snapshot must skip holes.
        for _ in 0..2 {
            if g.vertex_count() > 2 {
                let v = pick_vertex(&mut rng, &g);
                g.remove_vertex(v);
            }
        }
        let csr = g.snapshot_csr();
        assert_eq!(csr.vertex_bound(), g.id_bound(), "seed {seed}");
        assert_eq!(csr.edge_count(), g.edge_count(), "seed {seed}");
        for v in 0..g.id_bound() {
            let expected: Vec<u32> = g
                .neighbors(v)
                .map(|s| s.iter().map(|&u| u as u32).collect())
                .unwrap_or_default();
            assert_eq!(csr.neighbors(v), expected.as_slice(), "seed {seed}, vertex {v}");
        }
    }
}

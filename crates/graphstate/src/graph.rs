//! The [`GraphState`] type: an undirected simple graph of photonic qubits
//! and CZ bonds, with connectivity queries and a [`CsrSnapshot`] view.

use std::collections::VecDeque;

use crate::error::GraphError;

/// Identifier of a vertex (photonic qubit) inside a [`GraphState`].
pub type VertexId = usize;

/// An undirected simple graph representing a stabilizer graph state.
///
/// Every vertex stands for a photonic qubit prepared in `|+>` and every edge
/// for a CZ entangling operation, so the state is the simultaneous +1
/// eigenstate of the stabilizers `X_i ⊗ Z_{N(i)}`.
///
/// Vertices are identified by dense `usize` ids. Removing a vertex leaves
/// a hole: ids are never reused, which keeps ids stable across the
/// lifetime of a layer and lets callers keep external side tables indexed
/// by [`VertexId`].
///
/// Adjacency is stored as **sorted neighbor vectors** rather than hash
/// sets: membership tests are binary searches, iteration is a cache-friendly
/// linear scan in increasing id order, and no hashing happens anywhere on
/// the percolation hot path. Read-heavy consumers can additionally take a
/// compressed-sparse-row [`CsrSnapshot`] via [`GraphState::snapshot_csr`].
///
/// # Example
///
/// ```
/// use graphstate::GraphState;
///
/// let mut g = GraphState::new();
/// let a = g.add_vertex();
/// let b = g.add_vertex();
/// g.add_edge(a, b);
/// assert_eq!(g.degree(a), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphState {
    /// `adj[v]` is the sorted neighbor list of vertex `v`. Removed vertices
    /// keep an empty list and are marked dead in `alive`.
    adj: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    n_alive: usize,
    n_edges: usize,
}

impl GraphState {
    /// Creates an empty graph state with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph state with `n` isolated vertices, ids `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        GraphState {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            n_alive: n,
            n_edges: 0,
        }
    }

    /// Adds a fresh isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.n_alive += 1;
        self.adj.len() - 1
    }

    /// Number of live (not yet removed) vertices.
    pub fn vertex_count(&self) -> usize {
        self.n_alive
    }

    /// Total number of vertex ids ever allocated (live or removed). All live
    /// ids are strictly below this bound.
    pub fn id_bound(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges currently present.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Returns `true` when vertex `v` exists and has not been removed.
    pub fn contains(&self, v: VertexId) -> bool {
        v < self.alive.len() && self.alive[v]
    }

    /// Iterator over all live vertex ids in increasing order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(v, &a)| if a { Some(v) } else { None })
    }

    /// Returns the neighbors of `v` as a sorted slice, or `None` if `v` does
    /// not exist.
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        if self.contains(v) {
            Some(&self.adj[v])
        } else {
            None
        }
    }

    /// Degree of `v`, or `None` if `v` does not exist.
    pub fn degree(&self, v: VertexId) -> Option<usize> {
        self.neighbors(v).map(<[VertexId]>::len)
    }

    /// Returns `true` when the edge `(a, b)` is present.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.contains(a) && self.contains(b) && self.adj[a].binary_search(&b).is_ok()
    }

    /// Inserts `b` into the sorted neighbor list of `a`; returns `true` when
    /// it was not already present.
    #[inline]
    fn adj_insert(&mut self, a: VertexId, b: VertexId) -> bool {
        match self.adj[a].binary_search(&b) {
            Ok(_) => false,
            Err(pos) => {
                self.adj[a].insert(pos, b);
                true
            }
        }
    }

    /// Removes `b` from the sorted neighbor list of `a`; returns `true` when
    /// it was present.
    #[inline]
    fn adj_remove(&mut self, a: VertexId, b: VertexId) -> bool {
        match self.adj[a].binary_search(&b) {
            Ok(pos) => {
                self.adj[a].remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Adds the edge `(a, b)`. Adding an existing edge is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if either vertex does not exist or if `a == b`; use
    /// [`GraphState::try_add_edge`] for a fallible variant.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        self.try_add_edge(a, b).expect("add_edge: invalid endpoints");
    }

    /// Fallible version of [`GraphState::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingVertex`] when an endpoint does not exist
    /// and [`GraphError::SelfLoop`] when `a == b`.
    pub fn try_add_edge(&mut self, a: VertexId, b: VertexId) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if !self.contains(a) {
            return Err(GraphError::MissingVertex(a));
        }
        if !self.contains(b) {
            return Err(GraphError::MissingVertex(b));
        }
        if self.adj_insert(a, b) {
            self.adj_insert(b, a);
            self.n_edges += 1;
        }
        Ok(())
    }

    /// Removes the edge `(a, b)` if present; removing an absent edge is a
    /// no-op.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) {
        if self.contains(a) && self.contains(b) && self.adj_remove(a, b) {
            self.adj_remove(b, a);
            self.n_edges -= 1;
        }
    }

    /// Removes vertex `v` along with all incident edges. Removing an already
    /// removed vertex is a no-op.
    pub fn remove_vertex(&mut self, v: VertexId) {
        if !self.contains(v) {
            return;
        }
        let nbrs = std::mem::take(&mut self.adj[v]);
        for &u in &nbrs {
            self.adj_remove(u, v);
            self.n_edges -= 1;
        }
        self.alive[v] = false;
        self.n_alive -= 1;
    }

    /// Returns the connected component containing `v` (including `v`), or an
    /// empty vector when `v` does not exist. The result is sorted.
    pub fn component(&self, v: VertexId) -> Vec<VertexId> {
        if !self.contains(v) {
            return Vec::new();
        }
        let mut seen = vec![false; self.adj.len()];
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        seen[v] = true;
        out.push(v);
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            for &w in &self.adj[u] {
                if !seen[w] {
                    seen[w] = true;
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Returns the vertices of the largest connected component, or an empty
    /// vector for an empty graph.
    pub fn largest_component(&self) -> Vec<VertexId> {
        let mut best: Vec<VertexId> = Vec::new();
        let mut visited = vec![false; self.adj.len()];
        for v in self.vertices() {
            if visited[v] {
                continue;
            }
            let comp = self.component(v);
            for &u in &comp {
                visited[u] = true;
            }
            if comp.len() > best.len() {
                best = comp;
            }
        }
        best
    }

    /// Breadth-first shortest path from `src` to `dst` restricted to vertices
    /// for which `allowed` returns `true` (both endpoints must be allowed).
    /// Returns the vertex sequence including both endpoints, or `None` when
    /// no such path exists.
    pub fn shortest_path_filtered<F>(
        &self,
        src: VertexId,
        dst: VertexId,
        allowed: F,
    ) -> Option<Vec<VertexId>>
    where
        F: Fn(VertexId) -> bool,
    {
        if !self.contains(src) || !self.contains(dst) || !allowed(src) || !allowed(dst) {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let mut prev: Vec<Option<VertexId>> = vec![None; self.adj.len()];
        let mut seen = vec![false; self.adj.len()];
        let mut queue = VecDeque::new();
        seen[src] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &w in &self.adj[u] {
                if !seen[w] && allowed(w) {
                    seen[w] = true;
                    prev[w] = Some(u);
                    if w == dst {
                        let mut path = vec![dst];
                        let mut cur = dst;
                        while let Some(p) = prev[cur] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// Breadth-first shortest path between two vertices over the whole graph.
    pub fn shortest_path(&self, src: VertexId, dst: VertexId) -> Option<Vec<VertexId>> {
        self.shortest_path_filtered(src, dst, |_| true)
    }

    /// Returns `true` when `src` and `dst` are in the same connected
    /// component.
    pub fn connected(&self, src: VertexId, dst: VertexId) -> bool {
        if !self.contains(src) || !self.contains(dst) {
            return false;
        }
        if src == dst {
            return true;
        }
        self.component(src).binary_search(&dst).is_ok()
    }

    /// Collects all edges as `(min, max)` pairs, sorted. Mostly useful in
    /// tests and for serializing small graphs.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.n_edges);
        for v in self.vertices() {
            for &u in &self.adj[v] {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Takes a compressed-sparse-row snapshot of the current adjacency for
    /// read-heavy traversals (see [`CsrSnapshot`]).
    pub fn snapshot_csr(&self) -> CsrSnapshot {
        let n = self.adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * self.n_edges);
        offsets.push(0u32);
        for v in 0..n {
            if self.alive[v] {
                targets.extend(self.adj[v].iter().map(|&u| u as u32));
            }
            offsets.push(targets.len() as u32);
        }
        CsrSnapshot { offsets, targets }
    }
}

/// An immutable compressed-sparse-row view of a [`GraphState`].
///
/// All neighbor lists live in one contiguous `Vec<u32>` indexed by a
/// per-vertex offset table, which makes full-graph traversals (BFS floods,
/// component counting, percolation-style reachability sweeps) sequential
/// memory scans with no per-vertex allocation. Vertex ids match the graph
/// the snapshot was taken from; removed vertices have empty neighbor lists.
///
/// # Example
///
/// ```
/// use graphstate::GraphState;
///
/// let mut g = GraphState::with_vertices(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// let csr = g.snapshot_csr();
/// assert_eq!(csr.neighbors(1), &[0, 2]);
/// assert_eq!(csr.component_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrSnapshot {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<u32>,
}

impl CsrSnapshot {
    /// Assembles a snapshot from raw CSR arrays: `offsets[v]..offsets[v+1]`
    /// must index the sorted neighbor list of `v` inside `targets`, and
    /// every edge must appear in both directions. Intended for producers
    /// (like the hardware layer lattice) that can emit CSR form directly
    /// without routing through a mutable [`GraphState`].
    ///
    /// # Panics
    ///
    /// Panics when the offset table is malformed (empty, non-monotonic, or
    /// not covering `targets`).
    pub fn from_parts(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "offset table needs a leading 0");
        assert_eq!(offsets[0], 0, "offset table must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offset table must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            targets.len(),
            "offset table must cover the target array"
        );
        debug_assert!(
            (0..offsets.len() - 1).all(|v| {
                let s = &targets[offsets[v] as usize..offsets[v + 1] as usize];
                s.windows(2).all(|w| w[0] < w[1])
            }),
            "neighbor lists must be sorted and duplicate-free"
        );
        CsrSnapshot { offsets, targets }
    }

    /// Exclusive upper bound on vertex ids.
    pub fn vertex_bound(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The sorted neighbors of `v` (empty for removed or out-of-range ids).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        if v + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of `v` in the snapshot.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Returns `true` when the edge `(a, b)` is present.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Labels every vertex with a component id (isolated and removed
    /// vertices each form their own singleton) and returns the labels plus
    /// the component count. Runs one allocation-free BFS flood over the CSR
    /// arrays.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.vertex_bound();
        let mut label = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::new();
        let mut next = 0u32;
        for start in 0..n {
            if label[start] != u32::MAX {
                continue;
            }
            label[start] = next;
            queue.push(start as u32);
            while let Some(u) = queue.pop() {
                for &w in self.neighbors(u as usize) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = next;
                        queue.push(w);
                    }
                }
            }
            next += 1;
        }
        (label, next as usize)
    }

    /// Number of connected components (singletons included).
    pub fn component_count(&self) -> usize {
        self.components().1
    }

    /// Size of the largest connected component.
    pub fn largest_component_size(&self) -> usize {
        let (labels, count) = self.components();
        let mut sizes = vec![0usize; count];
        for &l in &labels {
            sizes[l as usize] += 1;
        }
        sizes.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> GraphState {
        let mut g = GraphState::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = GraphState::with_vertices(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        g.remove_edge(0, 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        // idempotent removal
        g.remove_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut g = GraphState::with_vertices(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = GraphState::with_vertices(5);
        g.add_edge(3, 4);
        g.add_edge(3, 0);
        g.add_edge(3, 2);
        assert_eq!(g.neighbors(3), Some(&[0, 2, 4][..]));
        g.remove_edge(3, 2);
        assert_eq!(g.neighbors(3), Some(&[0, 4][..]));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = GraphState::with_vertices(2);
        assert_eq!(g.try_add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn missing_vertex_rejected() {
        let mut g = GraphState::with_vertices(2);
        assert_eq!(g.try_add_edge(0, 5), Err(GraphError::MissingVertex(5)));
    }

    #[test]
    fn remove_vertex_updates_counts() {
        let mut g = path(4);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        g.remove_vertex(1);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.contains(1));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn component_and_largest_component() {
        let mut g = GraphState::with_vertices(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(4, 5);
        assert_eq!(g.component(0), vec![0, 1, 2]);
        assert_eq!(g.component(3), vec![3]);
        assert_eq!(g.largest_component(), vec![0, 1, 2]);
    }

    #[test]
    fn shortest_path_on_grid() {
        // 3x3 grid, path from corner to corner has 5 vertices.
        let mut g = GraphState::with_vertices(9);
        let idx = |r: usize, c: usize| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    g.add_edge(idx(r, c), idx(r, c + 1));
                }
                if r + 1 < 3 {
                    g.add_edge(idx(r, c), idx(r + 1, c));
                }
            }
        }
        let p = g.shortest_path(idx(0, 0), idx(2, 2)).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], idx(0, 0));
        assert_eq!(*p.last().unwrap(), idx(2, 2));
        // Filtered search that forbids the center must go around it.
        let p2 = g
            .shortest_path_filtered(idx(0, 0), idx(2, 2), |v| v != idx(1, 1))
            .unwrap();
        assert_eq!(p2.len(), 5);
        assert!(!p2.contains(&idx(1, 1)));
    }

    #[test]
    fn shortest_path_absent() {
        let g = GraphState::with_vertices(4);
        assert!(g.shortest_path(0, 3).is_none());
    }

    #[test]
    fn edges_listing_sorted() {
        let mut g = GraphState::with_vertices(3);
        g.add_edge(2, 0);
        g.add_edge(1, 2);
        assert_eq!(g.edges(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn vertices_skips_removed() {
        let mut g = GraphState::with_vertices(3);
        g.remove_vertex(1);
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![0, 2]);
        assert_eq!(g.id_bound(), 3);
    }

    #[test]
    fn csr_snapshot_basics() {
        let mut g = GraphState::with_vertices(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let csr = g.snapshot_csr();
        assert_eq!(csr.vertex_bound(), 5);
        assert_eq!(csr.edge_count(), 3);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert!(csr.has_edge(3, 4));
        assert!(!csr.has_edge(2, 3));
        assert_eq!(csr.component_count(), 2);
        assert_eq!(csr.largest_component_size(), 3);
    }

    #[test]
    fn csr_snapshot_skips_removed_vertices() {
        let mut g = path(4);
        g.remove_vertex(1);
        let csr = g.snapshot_csr();
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[3]);
        assert_eq!(csr.edge_count(), 1);
        // 0 alone, 1 removed-singleton, {2, 3}.
        assert_eq!(csr.component_count(), 3);
    }

    #[test]
    fn csr_snapshot_is_immutable_view() {
        let mut g = path(3);
        let csr = g.snapshot_csr();
        g.remove_vertex(1);
        // The snapshot still sees the original adjacency.
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(1), None);
    }
}

//! Dependency DAG over program-graph nodes and its dynamic scheduler.
//!
//! OnePerc's offline pass replaces OneQ's static partition with *dynamic
//! scheduling*: the dependency relations among graph-state qubits are
//! represented as a directed acyclic graph whose *front layer* (nodes with
//! all predecessors already consumed) is updated as the mapping proceeds
//! (Section 6.2). [`DependencyDag`] stores the relation; [`DagScheduler`]
//! maintains the front layer over any [`Dependencies`] source, including
//! the program graph itself, which derives the relation from its flat
//! adjacency without building a [`DependencyDag`].

/// A dependency relation over the node ids `0..node_count()` in which
/// [`DagScheduler`] tracks the front layer.
pub trait Dependencies {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of direct predecessors of `v`.
    fn predecessor_count(&self, v: usize) -> usize;

    /// Direct successors of `v`, each once.
    fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_;
}

/// A directed acyclic dependency graph over the node ids `0..n`.
#[derive(Debug, Clone, Default)]
pub struct DependencyDag {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl DependencyDag {
    /// Creates a DAG over `n` nodes and no dependencies.
    pub fn new(n: usize) -> Self {
        DependencyDag {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Returns `true` when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Records that `before` must be consumed before `after`. Duplicate
    /// dependencies are ignored.
    ///
    /// # Panics
    ///
    /// Panics when either id is out of range or when `before == after`.
    pub fn add_dependency(&mut self, before: usize, after: usize) {
        assert!(before < self.len() && after < self.len(), "node id out of range");
        assert_ne!(before, after, "a node cannot depend on itself");
        if !self.succs[before].contains(&after) {
            self.succs[before].push(after);
            self.preds[after].push(before);
        }
    }

    /// Direct successors of a node.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.succs[v]
    }

    /// Direct predecessors of a node.
    pub fn predecessors(&self, v: usize) -> &[usize] {
        &self.preds[v]
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Kahn topological order over all nodes, or `None` when the relation
    /// contains a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..self.len()).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(v) = queue.pop() {
            order.push(v);
            for &s in &self.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == self.len() {
            Some(order)
        } else {
            None
        }
    }

    /// Creates a scheduler that tracks the front layer as nodes are
    /// consumed.
    pub fn scheduler(&self) -> DagScheduler<'_> {
        DagScheduler::new(self)
    }
}

impl Dependencies for DependencyDag {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn predecessor_count(&self, v: usize) -> usize {
        self.preds[v].len()
    }

    fn dependents(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.succs[v].iter().copied()
    }
}

/// Tracks which nodes are ready (all predecessors consumed) as the offline
/// mapper consumes nodes one by one.
///
/// # Example
///
/// ```
/// use oneperc_circuit::DependencyDag;
///
/// let mut dag = DependencyDag::new(3);
/// dag.add_dependency(0, 1);
/// dag.add_dependency(1, 2);
/// let mut sched = dag.scheduler();
/// assert_eq!(sched.front().to_vec(), vec![0]);
/// sched.consume(0);
/// assert_eq!(sched.front().to_vec(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct DagScheduler<'a, D: Dependencies = DependencyDag> {
    dag: &'a D,
    remaining_preds: Vec<usize>,
    consumed: usize,
    /// Ready nodes, kept sorted by id.
    front: Vec<usize>,
}

impl<'a, D: Dependencies> DagScheduler<'a, D> {
    pub(crate) fn new(dag: &'a D) -> Self {
        let remaining_preds: Vec<usize> =
            (0..dag.node_count()).map(|v| dag.predecessor_count(v)).collect();
        let front: Vec<usize> =
            (0..dag.node_count()).filter(|&v| remaining_preds[v] == 0).collect();
        DagScheduler { dag, remaining_preds, consumed: 0, front }
    }

    /// Nodes that are currently ready to be consumed, in increasing id
    /// order.
    pub fn front(&self) -> &[usize] {
        &self.front
    }

    /// Returns `true` once every node has been consumed.
    pub fn is_done(&self) -> bool {
        self.consumed == self.remaining_preds.len()
    }

    /// Number of nodes consumed so far.
    pub fn consumed_count(&self) -> usize {
        self.consumed
    }

    /// Marks `v` as consumed and moves the successors it readies into the
    /// front layer, without allocating.
    ///
    /// # Panics
    ///
    /// Panics when `v` is not currently in the front layer (consuming a node
    /// whose dependencies are unmet would violate the partial order).
    pub fn consume(&mut self, v: usize) {
        // A node leaves the front exactly when it is consumed, so front
        // membership also rules out consuming a node twice.
        let pos = self
            .front
            .binary_search(&v)
            .expect("node must be in the front layer to be consumed");
        self.front.remove(pos);
        self.consumed += 1;
        for s in self.dag.dependents(v) {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                let at = self.front.partition_point(|&f| f < s);
                self.front.insert(at, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topological_order_on_chain() {
        let mut dag = DependencyDag::new(4);
        dag.add_dependency(0, 1);
        dag.add_dependency(1, 2);
        dag.add_dependency(2, 3);
        assert_eq!(dag.topological_order().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(dag.edge_count(), 3);
    }

    #[test]
    fn cycle_is_detected() {
        let mut dag = DependencyDag::new(3);
        dag.add_dependency(0, 1);
        dag.add_dependency(1, 2);
        dag.add_dependency(2, 0);
        assert!(dag.topological_order().is_none());
    }

    #[test]
    fn duplicate_dependencies_ignored() {
        let mut dag = DependencyDag::new(2);
        dag.add_dependency(0, 1);
        dag.add_dependency(0, 1);
        assert_eq!(dag.edge_count(), 1);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn scheduler_tracks_front_layer() {
        // Diamond: 0 -> {1,2} -> 3.
        let mut dag = DependencyDag::new(4);
        dag.add_dependency(0, 1);
        dag.add_dependency(0, 2);
        dag.add_dependency(1, 3);
        dag.add_dependency(2, 3);
        let mut sched = dag.scheduler();
        assert_eq!(sched.front(), &[0]);
        sched.consume(0);
        assert_eq!(sched.front(), &[1, 2]);
        sched.consume(1);
        assert!(sched.front().contains(&2));
        assert!(!sched.front().contains(&3));
        sched.consume(2);
        assert_eq!(sched.front(), &[3]);
        sched.consume(3);
        assert!(sched.is_done());
        assert_eq!(sched.consumed_count(), 4);
    }

    #[test]
    fn front_matches_naive_recomputation_under_random_consume_orders() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..40usize);
            // Edges go forward in a random topological labelling, so the
            // ids themselves are not a topological order.
            let mut label: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                label.swap(i, rng.gen_range(0..i + 1));
            }
            let mut dag = DependencyDag::new(n);
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_bool(0.15) {
                        dag.add_dependency(label[i], label[j]);
                    }
                }
            }
            let mut sched = dag.scheduler();
            let mut consumed = vec![false; n];
            for step in 0..n {
                assert!(!sched.is_done(), "seed {seed}: done after {step} of {n}");
                let front = sched.front().to_vec();
                let v = front[rng.gen_range(0..front.len())];
                sched.consume(v);
                consumed[v] = true;
                // The nodes `v` readied: its successors now in the front.
                let mut ready: Vec<usize> = dag
                    .successors(v)
                    .iter()
                    .copied()
                    .filter(|s| sched.front().contains(s))
                    .collect();
                ready.sort_unstable();
                let naive: Vec<usize> = (0..n)
                    .filter(|&u| !consumed[u] && dag.predecessors(u).iter().all(|&p| consumed[p]))
                    .collect();
                assert!(sched.front().windows(2).all(|w| w[0] < w[1]), "seed {seed}: unsorted");
                assert_eq!(sched.front(), naive.as_slice(), "seed {seed} step {step}");
                let mut expected: Vec<usize> =
                    naive.iter().copied().filter(|u| !front.contains(u)).collect();
                expected.sort_unstable();
                assert_eq!(ready, expected, "seed {seed} step {step}: newly ready");
                assert_eq!(sched.consumed_count(), step + 1);
            }
            assert!(sched.is_done(), "seed {seed}");
            assert!(sched.front().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "front layer")]
    fn consuming_unready_node_panics() {
        let mut dag = DependencyDag::new(2);
        dag.add_dependency(0, 1);
        let mut sched = dag.scheduler();
        sched.consume(1);
    }

    #[test]
    #[should_panic(expected = "front layer")]
    fn consuming_twice_panics() {
        let dag = DependencyDag::new(2);
        let mut sched = dag.scheduler();
        sched.consume(0);
        sched.consume(0);
    }

    #[test]
    fn empty_dag() {
        let dag = DependencyDag::new(0);
        assert!(dag.is_empty());
        assert_eq!(dag.topological_order().unwrap(), Vec::<usize>::new());
        assert!(dag.scheduler().is_done());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_dependency_panics() {
        let mut dag = DependencyDag::new(2);
        dag.add_dependency(0, 5);
    }
}

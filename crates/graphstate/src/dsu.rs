//! Disjoint-set (union-find) data structure.
//!
//! The online pass performs a large number of connectivity checks while
//! searching renormalization paths and time-like connections; a union-find
//! structure with path compression and union by rank keeps those checks
//! effectively constant time, as prescribed in Section 5 of the paper.

/// Union-find over the elements `0..n`.
///
/// # Example
///
/// ```
/// use graphstate::DisjointSet;
///
/// let mut dsu = DisjointSet::new(4);
/// dsu.union(0, 1);
/// dsu.union(2, 3);
/// assert!(dsu.same_set(0, 1));
/// assert!(!dsu.same_set(1, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DisjointSet {
    parent: Vec<usize>,
    rank: Vec<u8>,
    n_sets: usize,
}

impl DisjointSet {
    /// Creates a structure with `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n).collect(),
            rank: vec![0; n],
            n_sets: n,
        }
    }

    /// Resets the structure to `n` singleton sets, reusing the existing
    /// allocations. This is the hot-path entry point: the online pass calls
    /// it once per band/strip instead of constructing a fresh
    /// [`DisjointSet`] (and paying two allocations) per connectivity check.
    ///
    /// The identity refill of `parent` runs in fixed-width chunks of
    /// straight-line stores (word-parallel: no iterator protocol in the
    /// loop body, so the compiler emits vector adds on a stepped index
    /// register instead of scalar `extend` iterations) — this is the fill
    /// the joining-interval connectivity check of the modular
    /// renormalizer pays once per strip scan. Since the bit-packed layer
    /// planes (PR 5) the strip scans run a site-bitmap precheck first, so
    /// this reset is only paid for strips that can actually connect.
    pub fn reset(&mut self, n: usize) {
        // `resize` zero-fills only the grown tail (a one-time cost as the
        // structure reaches its steady-state size); every slot is then
        // identity-written by the chunk loop below.
        self.parent.resize(n, 0);
        const LANES: usize = 8;
        let mut base = 0usize;
        let mut chunks = self.parent.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            // Fixed-size pattern: the bound check vanishes and the eight
            // stores vectorize.
            let lanes: &mut [usize; LANES] = chunk.try_into().expect("exact chunk");
            for (offset, slot) in lanes.iter_mut().enumerate() {
                *slot = base + offset;
            }
            base += LANES;
        }
        for (offset, slot) in chunks.into_remainder().iter_mut().enumerate() {
            *slot = base + offset;
        }
        // One memset covers truncation, growth and the stale-rank clear.
        self.rank.clear();
        self.rank.resize(n, 0);
        self.n_sets = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` when the structure contains no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn set_count(&self) -> usize {
        self.n_sets
    }

    /// Representative of the set containing `x`, with path compression.
    ///
    /// # Panics
    ///
    /// Panics when `x` is out of range.
    #[inline]
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` when the two
    /// were previously in different sets.
    ///
    /// # Panics
    ///
    /// Panics when `a` or `b` is out of range.
    #[inline]
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.n_sets -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Merges all elements of `start..start + len` into one set, with the
    /// same resulting connectivity as the `len - 1` pairwise unions
    /// `union(start, start + 1)`, …, `union(start + len - 2, start + len - 1)`.
    ///
    /// This is the span primitive of the word-parallel strip scans: a run of
    /// east-connected sites extracted from one bond word joins as a single
    /// span instead of one `union` call (two `find`s each) per bond. Fresh
    /// singletons — the overwhelmingly common case right after
    /// [`DisjointSet::reset`] — are attached to the span root with one
    /// parent store and no `find` at all; elements already linked (e.g. by a
    /// vertical union from the previous strip row) fall back to a full
    /// union-by-rank merge.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the element count.
    pub fn union_range(&mut self, start: usize, len: usize) {
        if len <= 1 {
            return;
        }
        assert!(
            start + len <= self.parent.len(),
            "range {start}..{} out of bounds (len {})",
            start + len,
            self.parent.len()
        );
        let mut root = self.find(start);
        if self.rank[root] == 0 {
            // The root is about to gain children; pre-promoting it keeps the
            // forest as balanced as union-by-rank would.
            self.rank[root] = 1;
        }
        for i in start + 1..start + len {
            if self.parent[i] == i && self.rank[i] == 0 {
                // Untouched singleton: direct attach.
                self.parent[i] = root;
                self.n_sets -= 1;
                continue;
            }
            let r = self.find(i);
            if r == root {
                continue;
            }
            self.n_sets -= 1;
            match self.rank[r].cmp(&self.rank[root]) {
                std::cmp::Ordering::Less => self.parent[r] = root,
                std::cmp::Ordering::Greater => {
                    self.parent[root] = r;
                    root = r;
                }
                std::cmp::Ordering::Equal => {
                    self.parent[r] = root;
                    self.rank[root] += 1;
                }
            }
        }
    }

    /// Returns `true` when `a` and `b` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics when `a` or `b` is out of range.
    #[inline]
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut dsu = DisjointSet::new(5);
        assert_eq!(dsu.set_count(), 5);
        for i in 0..5 {
            assert_eq!(dsu.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut dsu = DisjointSet::new(6);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(1, 2));
        assert!(!dsu.union(0, 2));
        assert_eq!(dsu.set_count(), 4);
        assert!(dsu.same_set(0, 2));
        assert!(!dsu.same_set(0, 3));
    }

    #[test]
    fn chain_unions_connect_all() {
        let n = 200;
        let mut dsu = DisjointSet::new(n);
        for i in 0..n - 1 {
            dsu.union(i, i + 1);
        }
        assert_eq!(dsu.set_count(), 1);
        assert!(dsu.same_set(0, n - 1));
    }

    #[test]
    fn empty_structure() {
        let dsu = DisjointSet::new(0);
        assert!(dsu.is_empty());
        assert_eq!(dsu.set_count(), 0);
    }

    /// A reset structure must be observationally identical to a freshly
    /// constructed one: same length, every element its own singleton root.
    fn assert_equivalent_to_fresh(dsu: &mut DisjointSet, n: usize) {
        assert_eq!(dsu.len(), n);
        assert_eq!(dsu.set_count(), n);
        for i in 0..n {
            assert_eq!(dsu.find(i), i, "element {i} not a singleton root after reset to {n}");
        }
    }

    #[test]
    fn chunked_reset_is_equivalent_to_fresh_construction() {
        // Sizes straddling the chunk width: empty, sub-chunk, exact
        // multiples, every remainder length, and a large non-multiple.
        let sizes = [0usize, 1, 3, 7, 8, 9, 10, 15, 16, 17, 64, 100, 1003];
        let mut dsu = DisjointSet::new(0);
        for &n in &sizes {
            // Dirty the structure first so the reset has real work to undo.
            if dsu.len() >= 2 {
                let len = dsu.len();
                for i in 0..len - 1 {
                    dsu.union(i, (i * 7 + 1) % len);
                }
            }
            dsu.reset(n);
            assert_equivalent_to_fresh(&mut dsu, n);
        }
    }

    #[test]
    fn reset_handles_growth_and_shrinkage() {
        let mut dsu = DisjointSet::new(5);
        dsu.union(0, 4);
        dsu.reset(100); // grow
        assert_equivalent_to_fresh(&mut dsu, 100);
        for i in 0..99 {
            dsu.union(i, i + 1);
        }
        dsu.reset(5); // shrink: ranks and parents from the large epoch must not leak
        assert_equivalent_to_fresh(&mut dsu, 5);
        // Unions after the shrink behave like on a fresh structure.
        assert!(dsu.union(0, 1));
        assert!(dsu.same_set(0, 1));
        assert_eq!(dsu.set_count(), 4);
    }

    /// Connectivity fingerprint: the root-class partition as one canonical
    /// label per element.
    fn partition(dsu: &mut DisjointSet) -> Vec<usize> {
        let n = dsu.len();
        let mut first_seen = vec![usize::MAX; n];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let r = dsu.find(i);
            if first_seen[r] == usize::MAX {
                first_seen[r] = i;
            }
            labels.push(first_seen[r]);
        }
        labels
    }

    #[test]
    fn union_range_matches_pairwise_unions() {
        // Property: for any prior union pattern and any span, union_range
        // leaves the same partition (and set count) as chained pairwise
        // unions. Exercised over a deterministic pseudo-random mix of
        // pre-existing links, spans of every length and overlapping spans.
        let n = 96usize;
        let mut rng_state = 0x9E37u64;
        let mut rng = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng_state >> 33) as usize
        };
        for round in 0..50 {
            let mut spans = DisjointSet::new(n);
            let mut pairs = DisjointSet::new(n);
            // Pre-existing structure, as vertical unions would leave it.
            for _ in 0..round % 7 {
                let a = rng() % n;
                let b = rng() % n;
                spans.union(a, b);
                pairs.union(a, b);
            }
            // A handful of spans, including length 0, 1 and overlapping.
            for _ in 0..1 + round % 5 {
                let start = rng() % n;
                let len = rng() % (n - start + 1);
                spans.union_range(start, len);
                for i in start + 1..start + len {
                    pairs.union(i - 1, i);
                }
            }
            assert_eq!(spans.set_count(), pairs.set_count(), "round {round}");
            assert_eq!(partition(&mut spans), partition(&mut pairs), "round {round}");
        }
    }

    #[test]
    fn union_range_degenerate_spans_are_noops() {
        let mut dsu = DisjointSet::new(8);
        dsu.union_range(3, 0);
        dsu.union_range(5, 1);
        dsu.union_range(8, 0);
        assert_eq!(dsu.set_count(), 8);
        for i in 0..8 {
            assert_eq!(dsu.find(i), i);
        }
    }

    #[test]
    fn union_range_whole_domain_single_set() {
        let mut dsu = DisjointSet::new(300);
        dsu.union_range(0, 300);
        assert_eq!(dsu.set_count(), 1);
        assert!(dsu.same_set(0, 299));
        // Further unions inside the span change nothing.
        assert!(!dsu.union(7, 250));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn union_range_past_end_panics() {
        let mut dsu = DisjointSet::new(4);
        dsu.union_range(2, 3);
    }

    #[test]
    fn reset_clears_stale_ranks() {
        // Build a rank-heavy structure, reset, and verify union-by-rank
        // behaves freshly: rank ties attach the second root under the
        // first, which is only observable if ranks really restarted at 0.
        let mut dsu = DisjointSet::new(64);
        for i in 1..64 {
            dsu.union(0, i);
        }
        dsu.reset(64);
        assert!(dsu.union(2, 3));
        assert_eq!(dsu.find(3), 2, "equal-rank union parents the first argument");
    }
}

//! The site-lattice representation of one random physical graph state layer.
//!
//! # Word layout
//!
//! Since PR 5 the four per-site planes (site presence, east bonds, north
//! bonds, temporal ports) are stored as [`Bitmap`]s — `u64` words holding 64
//! sites each — instead of `Vec<bool>`s, which makes the layer sampler and
//! the percolation strip scans memory-bandwidth-bound. The convention,
//! shared by every consumer of the word-granular accessors:
//!
//! * flat site index `i = y * width + x` (row-major, same as the
//!   coordinate accessors and [`PhysicalLayer::site_index`]);
//! * bit `i` lives at bit position `i % 64` (**LSB-first**) of word
//!   `i / 64`, i.e. `words()[i / 64] >> (i % 64) & 1`;
//! * the trailing word keeps every bit at positions `>= width * height`
//!   **zero** (the canonical trailing mask, see
//!   [`crate::bitmap::trailing_mask`]), so bitmap equality, popcounts and
//!   whole-word scans need no per-call masking;
//! * the east-bond plane never holds a bit in the last column
//!   (`x == width - 1`) and the north-bond plane never in the last row —
//!   the same invariant the `Vec<bool>` representation maintained through
//!   its panicking setters, now also relied on by popcount
//!   [`PhysicalLayer::bond_count`].
//!
//! # Word-frontier consumers (PR 6)
//!
//! The percolation crate's renormalizer builds *band-local* planes from
//! these bitmaps: per band row it reads 64 bits at an arbitrary flat
//! offset through [`PhysicalLayer::site_row_word`] /
//! [`PhysicalLayer::bond_east_row_word`] /
//! [`PhysicalLayer::bond_north_row_word`] (backed by
//! [`Bitmap::word_at`]), masks them to the band width and runs its BFS
//! reachability fixpoint on the results. Two derived invariants those
//! consumers rely on:
//!
//! * an *east-connectivity* word is `present & east & (present >> 1)`
//!   (all three taken at the same flat offset): bit `x` set means sites
//!   `x` and `x + 1` are both present and bonded, so a maximal run of
//!   set bits is exactly one horizontally connected span — this is what
//!   lets the modular joiner union a whole span with a single
//!   `DisjointSet::union_range` instead of one union per bond;
//! * a *vertical-bond* word is `north & present & present-of-row-above`,
//!   whose set bits are the only places a frontier can cross rows.
//!
//! Because the row-word accessors read in flat-index order, bits past the
//! row end belong to the next row; every band consumer masks with the
//! band width before using a word, and the invariant words above inherit
//! that requirement.

use graphstate::{CsrSnapshot, DisjointSet, GraphState};

use crate::bitmap::Bitmap;

/// One (merged) resource-state layer after the fusion strategy has run: a
/// random subgraph of the `width × height` square lattice.
///
/// Every lattice *site* corresponds to one (merged) resource state; an
/// in-plane *bond* corresponds to a successful leaf-leaf fusion with one of
/// the four lattice neighbors, and a *temporal port* records whether the
/// site still has photons available for a time-like fusion with a later
/// layer.
///
/// This is the structure handed to the online reshaping pass; the exact
/// per-photon graph state it abstracts can be reconstructed for small sizes
/// with [`crate::exact`].
///
/// Equality compares the full site/bond/port state plus the accounting
/// fields — the byte-identity check the determinism suites use to prove
/// that the layer stream does not depend on which thread (caller or
/// session lane) generates it. With the bit-packed planes this holds word
/// for word thanks to the canonical trailing mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalLayer {
    /// Sites along the x axis.
    pub width: usize,
    /// Sites along the y axis.
    pub height: usize,
    /// Whether each site holds a usable (merged) resource state.
    site_present: Bitmap,
    /// Bond between `(x, y)` and `(x + 1, y)`.
    bond_east: Bitmap,
    /// Bond between `(x, y)` and `(x, y + 1)`.
    bond_north: Bitmap,
    /// Whether each site retains a photon for a time-like fusion.
    temporal_port: Bitmap,
    /// Raw RSLs consumed to produce this merged layer.
    pub raw_rsl_consumed: usize,
    /// Fusions attempted while producing this layer.
    pub fusions_attempted: u64,
    /// Fusions that succeeded while producing this layer.
    pub fusions_succeeded: u64,
}

impl PhysicalLayer {
    /// Creates an empty layer (all sites present, no bonds, all temporal
    /// ports available) of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn blank(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "layer dimensions must be positive");
        let n = width * height;
        PhysicalLayer {
            width,
            height,
            site_present: Bitmap::with_len(n, true),
            bond_east: Bitmap::with_len(n, false),
            bond_north: Bitmap::with_len(n, false),
            temporal_port: Bitmap::with_len(n, true),
            raw_rsl_consumed: 1,
            fusions_attempted: 0,
            fusions_succeeded: 0,
        }
    }

    /// A fully connected lattice (every site present, every bond present) —
    /// what the strategy would produce with a deterministic fusion.
    ///
    /// Built word-parallel: both bond planes are filled whole words at a
    /// time (the trailing word masked to the lattice size), then the
    /// never-stored bits — the last column of the east plane, the last row
    /// of the north plane — are cleared.
    pub fn fully_connected(width: usize, height: usize) -> Self {
        let mut layer = Self::blank(width, height);
        let n = width * height;
        layer.bond_east.reset(n, true);
        for y in 0..height {
            layer.bond_east.set(y * width + width - 1, false);
        }
        layer.bond_north.reset(n, true);
        for x in 0..width {
            layer.bond_north.set((height - 1) * width + x, false);
        }
        layer
    }

    /// Resets this layer to the blank state (all sites present, no bonds,
    /// all temporal ports available) of the given dimensions, reusing the
    /// existing allocations. The per-RSL online loop calls this instead of
    /// [`PhysicalLayer::blank`] so steady-state layer generation performs no
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn reset_blank(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "layer dimensions must be positive");
        let n = width * height;
        self.width = width;
        self.height = height;
        self.site_present.reset(n, true);
        self.bond_east.reset(n, false);
        self.bond_north.reset(n, false);
        self.temporal_port.reset(n, true);
        self.raw_rsl_consumed = 1;
        self.fusions_attempted = 0;
        self.fusions_succeeded = 0;
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Whether the site at flat index `i` (row-major `y * width + x`) holds
    /// a usable resource state. Flat-index twin of
    /// [`PhysicalLayer::site_present`] for the percolation hot path.
    #[inline]
    pub fn site_present_at(&self, i: usize) -> bool {
        self.site_present.get(i)
    }

    /// Whether the bond from flat site `i` to its east neighbor `i + 1` is
    /// present. Sites in the last column never store an east bond (the
    /// setter rejects them), so the raw read needs no column check.
    #[inline]
    pub fn bond_east_at(&self, i: usize) -> bool {
        self.bond_east.get(i)
    }

    /// Whether the bond from flat site `i` to its north neighbor
    /// `i + width` is present. Sites in the last row never store a north
    /// bond, so the raw read needs no row check.
    #[inline]
    pub fn bond_north_at(&self, i: usize) -> bool {
        self.bond_north.get(i)
    }

    /// Number of sites in the layer.
    pub fn site_count(&self) -> usize {
        self.width * self.height
    }

    /// Number of *present* sites, as a popcount over the packed site words.
    pub fn present_site_count(&self) -> usize {
        self.site_present.count_ones()
    }

    /// Number of sites with an available temporal port (popcount).
    pub fn temporal_port_count(&self) -> usize {
        self.temporal_port.count_ones()
    }

    /// Whether the site at `(x, y)` holds a usable resource state.
    pub fn site_present(&self, x: usize, y: usize) -> bool {
        self.site_present.get(self.idx(x, y))
    }

    /// Marks the presence of the site at `(x, y)`.
    pub fn set_site_present(&mut self, x: usize, y: usize, present: bool) {
        let i = self.idx(x, y);
        self.site_present.set(i, present);
    }

    /// Whether the bond from `(x, y)` to `(x + 1, y)` is present.
    pub fn bond_east(&self, x: usize, y: usize) -> bool {
        x + 1 < self.width && self.bond_east.get(self.idx(x, y))
    }

    /// Whether the bond from `(x, y)` to `(x, y + 1)` is present.
    pub fn bond_north(&self, x: usize, y: usize) -> bool {
        y + 1 < self.height && self.bond_north.get(self.idx(x, y))
    }

    /// Sets the bond from `(x, y)` to `(x + 1, y)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x + 1, y)` is outside the lattice.
    pub fn set_bond_east(&mut self, x: usize, y: usize, present: bool) {
        assert!(x + 1 < self.width, "east bond leaves the lattice");
        let i = self.idx(x, y);
        self.bond_east.set(i, present);
    }

    /// Sets the bond from `(x, y)` to `(x, y + 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `(x, y + 1)` is outside the lattice.
    pub fn set_bond_north(&mut self, x: usize, y: usize, present: bool) {
        assert!(y + 1 < self.height, "north bond leaves the lattice");
        let i = self.idx(x, y);
        self.bond_north.set(i, present);
    }

    /// Whether the site at `(x, y)` retains a photon for a time-like fusion.
    pub fn temporal_port(&self, x: usize, y: usize) -> bool {
        self.temporal_port.get(self.idx(x, y))
    }

    /// Sets the temporal-port availability of the site at `(x, y)`.
    pub fn set_temporal_port(&mut self, x: usize, y: usize, available: bool) {
        let i = self.idx(x, y);
        self.temporal_port.set(i, available);
    }

    /// The packed site-presence words (flat site `i` at bit `i % 64` of
    /// word `i / 64`; see the module docs for the full convention).
    pub fn site_words(&self) -> &[u64] {
        self.site_present.words()
    }

    /// The packed east-bond words. The last column of the lattice never
    /// holds a bit.
    pub fn bond_east_words(&self) -> &[u64] {
        self.bond_east.words()
    }

    /// The packed north-bond words. The last row of the lattice never holds
    /// a bit.
    pub fn bond_north_words(&self) -> &[u64] {
        self.bond_north.words()
    }

    /// The packed temporal-port words.
    pub fn temporal_port_words(&self) -> &[u64] {
        self.temporal_port.words()
    }

    /// The site-presence plane as a [`Bitmap`] (read-only), for word-scan
    /// consumers such as the renormalizer's band seeding and the modular
    /// joiner's strip precheck.
    pub fn site_bits(&self) -> &Bitmap {
        &self.site_present
    }

    /// The east-bond plane as a [`Bitmap`] (read-only).
    pub fn bond_east_bits(&self) -> &Bitmap {
        &self.bond_east
    }

    /// The north-bond plane as a [`Bitmap`] (read-only).
    pub fn bond_north_bits(&self) -> &Bitmap {
        &self.bond_north
    }

    /// Iterates the flat indices of present sites in `lo..hi` (word scan).
    pub fn present_in_range(&self, lo: usize, hi: usize) -> crate::bitmap::SetBits<'_> {
        self.site_present.iter_set_in(lo, hi)
    }

    /// 64 site-presence bits starting at `(x0, y)`: bit `j` is the site at
    /// `(x0 + j, y)` **in flat-index order**, which runs into row `y + 1`
    /// when `x0 + j` passes the row end — callers mask to their row width.
    /// Single-load when the flat offset is word-aligned (see
    /// [`Bitmap::word_at`]); the band scans of the percolation crates read
    /// every row through these instead of `range_word`'s double shift.
    #[inline]
    pub fn site_row_word(&self, y: usize, x0: usize) -> u64 {
        self.site_present.word_at(y * self.width + x0)
    }

    /// 64 east-bond bits starting at `(x0, y)` (bit `j`: bond from
    /// `(x0 + j, y)` to its east neighbor); same flat-order caveat as
    /// [`PhysicalLayer::site_row_word`].
    #[inline]
    pub fn bond_east_row_word(&self, y: usize, x0: usize) -> u64 {
        self.bond_east.word_at(y * self.width + x0)
    }

    /// 64 north-bond bits starting at `(x0, y)` (bit `j`: bond from
    /// `(x0 + j, y)` to `(x0 + j, y + 1)`); same flat-order caveat as
    /// [`PhysicalLayer::site_row_word`].
    #[inline]
    pub fn bond_north_row_word(&self, y: usize, x0: usize) -> u64 {
        self.bond_north.word_at(y * self.width + x0)
    }

    /// Stores 64 site-presence bits at word index `wi` (layer generator
    /// fast path).
    #[inline]
    pub(crate) fn store_site_word(&mut self, wi: usize, bits: u64) {
        self.site_present.store_word(wi, bits);
    }

    /// Stores 64 temporal-port bits at word index `wi`.
    #[inline]
    pub(crate) fn store_port_word(&mut self, wi: usize, bits: u64) {
        self.temporal_port.store_word(wi, bits);
    }

    /// ORs 64 east-bond bits in starting at `(x0, y)`, the write twin of
    /// [`PhysicalLayer::bond_east_row_word`]. The caller must not set bits
    /// past the row end.
    #[inline]
    pub(crate) fn or_bond_east_row_word(&mut self, y: usize, x0: usize, bits: u64) {
        self.bond_east.or_word_at(y * self.width + x0, bits);
    }

    /// ORs 64 north-bond bits in starting at `(x0, y)`, the write twin of
    /// [`PhysicalLayer::bond_north_row_word`]. The caller must not set bits
    /// past the row end.
    #[inline]
    pub(crate) fn or_bond_north_row_word(&mut self, y: usize, x0: usize, bits: u64) {
        self.bond_north.or_word_at(y * self.width + x0, bits);
    }

    /// Returns `true` when two adjacent sites are connected by a present
    /// bond (both sites must also be present).
    pub fn connected_neighbors(&self, a: (usize, usize), b: (usize, usize)) -> bool {
        if !self.site_present(a.0, a.1) || !self.site_present(b.0, b.1) {
            return false;
        }
        let (ax, ay) = a;
        let (bx, by) = b;
        if ay == by && bx == ax + 1 {
            self.bond_east(ax, ay)
        } else if ay == by && ax == bx + 1 {
            self.bond_east(bx, by)
        } else if ax == bx && by == ay + 1 {
            self.bond_north(ax, ay)
        } else if ax == bx && ay == by + 1 {
            self.bond_north(bx, by)
        } else {
            false
        }
    }

    /// Number of present bonds in the layer, as a popcount over the packed
    /// bond words (exact because the planes never store last-column /
    /// last-row bits and the trailing words are canonically masked).
    pub fn bond_count(&self) -> usize {
        self.bond_east.count_ones() + self.bond_north.count_ones()
    }

    /// Union-find structure over the sites connecting every present bond;
    /// used by the percolation pass for cheap connectivity checks.
    pub fn connectivity(&self) -> DisjointSet {
        let mut dsu = DisjointSet::new(self.site_count());
        for y in 0..self.height {
            for x in 0..self.width {
                if !self.site_present(x, y) {
                    continue;
                }
                if x + 1 < self.width
                    && self.site_present(x + 1, y)
                    && self.bond_east(x, y)
                {
                    dsu.union(self.idx(x, y), self.idx(x + 1, y));
                }
                if y + 1 < self.height
                    && self.site_present(x, y + 1)
                    && self.bond_north(x, y)
                {
                    dsu.union(self.idx(x, y), self.idx(x, y + 1));
                }
            }
        }
        dsu
    }

    /// Size of the largest connected component of present sites (isolated
    /// present sites count as components of size 1).
    pub fn largest_component_size(&self) -> usize {
        let mut dsu = self.connectivity();
        let mut counts = vec![0usize; self.site_count()];
        let mut best = 0;
        for i in self.site_present.iter_set_in(0, self.site_count()) {
            let root = dsu.find(i);
            counts[root] += 1;
            best = best.max(counts[root]);
        }
        best
    }

    /// Converts the site lattice into an explicit [`GraphState`] whose
    /// vertices are the present sites (vertex id = `y * width + x`) and
    /// whose edges are the present bonds. Convenient for path finding and
    /// for tests.
    pub fn to_graph(&self) -> GraphState {
        let mut g = GraphState::with_vertices(self.site_count());
        for y in 0..self.height {
            for x in 0..self.width {
                if !self.site_present(x, y) {
                    g.remove_vertex(self.idx(x, y));
                }
            }
        }
        for y in 0..self.height {
            for x in 0..self.width {
                if !self.site_present(x, y) {
                    continue;
                }
                if x + 1 < self.width && self.site_present(x + 1, y) && self.bond_east(x, y) {
                    g.add_edge(self.idx(x, y), self.idx(x + 1, y));
                }
                if y + 1 < self.height && self.site_present(x, y + 1) && self.bond_north(x, y) {
                    g.add_edge(self.idx(x, y), self.idx(x, y + 1));
                }
            }
        }
        g
    }

    /// Builds a compressed-sparse-row snapshot of the bond graph directly
    /// from the site lattice (vertex id = `y * width + x`, the flat site
    /// index). Equivalent to `self.to_graph().snapshot_csr()` but skips the
    /// intermediate mutable graph, which matters when percolation analyses
    /// take one read-only snapshot per RSL.
    pub fn to_csr(&self) -> CsrSnapshot {
        let n = self.site_count();
        let w = self.width;
        // A bond (i, j) with i < j contributes j to row i and i to row j.
        // The four neighbor directions of a site are visited in increasing
        // flat-index order (i - w, i - 1, i + 1, i + w), so each row of the
        // CSR comes out sorted without a sort pass.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * self.bond_count());
        offsets.push(0u32);
        for i in 0..n {
            if self.site_present.get(i) {
                let (x, y) = (i % w, i / w);
                if y > 0 && self.site_present.get(i - w) && self.bond_north.get(i - w) {
                    targets.push((i - w) as u32);
                }
                if x > 0 && self.site_present.get(i - 1) && self.bond_east.get(i - 1) {
                    targets.push((i - 1) as u32);
                }
                if x + 1 < w && self.site_present.get(i + 1) && self.bond_east.get(i) {
                    targets.push((i + 1) as u32);
                }
                if y + 1 < self.height && self.site_present.get(i + w) && self.bond_north.get(i) {
                    targets.push((i + w) as u32);
                }
            }
            offsets.push(targets.len() as u32);
        }
        CsrSnapshot::from_parts(offsets, targets)
    }

    /// Linear index of the site at `(x, y)` (row-major), matching the vertex
    /// ids of [`PhysicalLayer::to_graph`] and [`PhysicalLayer::connectivity`].
    pub fn site_index(&self, x: usize, y: usize) -> usize {
        self.idx(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_layer_has_no_bonds() {
        let layer = PhysicalLayer::blank(4, 3);
        assert_eq!(layer.site_count(), 12);
        assert_eq!(layer.bond_count(), 0);
        assert!(layer.site_present(2, 1));
        assert!(layer.temporal_port(0, 0));
    }

    #[test]
    fn fully_connected_bond_count() {
        let layer = PhysicalLayer::fully_connected(4, 4);
        // 2 * n * (n-1) bonds for an n x n lattice.
        assert_eq!(layer.bond_count(), 2 * 4 * 3);
        assert_eq!(layer.largest_component_size(), 16);
    }

    #[test]
    fn connected_neighbors_symmetry() {
        let mut layer = PhysicalLayer::blank(3, 3);
        layer.set_bond_east(0, 0, true);
        assert!(layer.connected_neighbors((0, 0), (1, 0)));
        assert!(layer.connected_neighbors((1, 0), (0, 0)));
        assert!(!layer.connected_neighbors((0, 0), (0, 1)));
        layer.set_site_present(1, 0, false);
        assert!(!layer.connected_neighbors((0, 0), (1, 0)));
    }

    #[test]
    fn connectivity_matches_graph() {
        let mut layer = PhysicalLayer::blank(3, 1);
        layer.set_bond_east(0, 0, true);
        let mut dsu = layer.connectivity();
        assert!(dsu.same_set(layer.site_index(0, 0), layer.site_index(1, 0)));
        assert!(!dsu.same_set(layer.site_index(0, 0), layer.site_index(2, 0)));
        let g = layer.to_graph();
        assert!(g.connected(0, 1));
        assert!(!g.connected(0, 2));
    }

    #[test]
    fn to_graph_skips_missing_sites() {
        let mut layer = PhysicalLayer::fully_connected(3, 3);
        layer.set_site_present(1, 1, false);
        let g = layer.to_graph();
        assert_eq!(g.vertex_count(), 8);
        assert!(!g.contains(layer.site_index(1, 1)));
    }

    #[test]
    #[should_panic(expected = "east bond leaves the lattice")]
    fn bond_off_the_edge_panics() {
        let mut layer = PhysicalLayer::blank(2, 2);
        layer.set_bond_east(1, 0, true);
    }

    #[test]
    fn flat_index_accessors_match_coordinates() {
        let mut layer = PhysicalLayer::blank(4, 3);
        layer.set_bond_east(1, 2, true);
        layer.set_bond_north(3, 1, true);
        layer.set_site_present(2, 0, false);
        for y in 0..3 {
            for x in 0..4 {
                let i = layer.site_index(x, y);
                assert_eq!(layer.site_present_at(i), layer.site_present(x, y));
                assert_eq!(layer.bond_east_at(i), layer.bond_east(x, y));
                assert_eq!(layer.bond_north_at(i), layer.bond_north(x, y));
            }
        }
    }

    #[test]
    fn reset_blank_reuses_and_resizes() {
        let mut layer = PhysicalLayer::fully_connected(6, 6);
        layer.raw_rsl_consumed = 9;
        layer.fusions_attempted = 5;
        layer.reset_blank(6, 6);
        assert_eq!(layer.bond_count(), 0);
        assert_eq!(layer.raw_rsl_consumed, 1);
        assert_eq!(layer.fusions_attempted, 0);
        assert!(layer.site_present(5, 5));
        // Resizing to a different geometry also works.
        layer.reset_blank(3, 8);
        assert_eq!(layer.width, 3);
        assert_eq!(layer.height, 8);
        assert_eq!(layer.site_count(), 24);
        assert_eq!(layer.bond_count(), 0);
    }

    #[test]
    fn csr_matches_graph_snapshot() {
        let mut layer = PhysicalLayer::fully_connected(5, 4);
        layer.set_site_present(2, 1, false);
        layer.set_bond_east(0, 0, false);
        let direct = layer.to_csr();
        let via_graph = layer.to_graph().snapshot_csr();
        assert_eq!(direct, via_graph);
        assert_eq!(direct.largest_component_size(), layer.largest_component_size());
    }

    #[test]
    fn word_accessors_match_bit_reads() {
        let mut layer = PhysicalLayer::blank(13, 7);
        layer.set_site_present(4, 3, false);
        layer.set_bond_east(7, 5, true);
        layer.set_bond_north(12, 2, true);
        layer.set_temporal_port(0, 6, false);
        let n = layer.site_count();
        for i in 0..n {
            let read = |words: &[u64]| (words[i / 64] >> (i % 64)) & 1 == 1;
            assert_eq!(read(layer.site_words()), layer.site_present_at(i), "site {i}");
            assert_eq!(read(layer.bond_east_words()), layer.bond_east_at(i), "east {i}");
            assert_eq!(read(layer.bond_north_words()), layer.bond_north_at(i), "north {i}");
            assert_eq!(
                read(layer.temporal_port_words()),
                layer.temporal_port(i % 13, i / 13),
                "port {i}"
            );
        }
    }

    #[test]
    fn row_word_accessors_match_bit_reads() {
        let mut layer = PhysicalLayer::blank(13, 7);
        layer.set_site_present(4, 3, false);
        layer.set_site_present(12, 6, false);
        layer.set_bond_east(7, 5, true);
        layer.set_bond_east(0, 0, true);
        layer.set_bond_north(12, 2, true);
        let n = layer.site_count();
        for y in 0..7 {
            for x0 in 0..13 {
                let base = y * 13 + x0;
                for j in 0..64usize {
                    let i = base + j;
                    let expect = |bit: bool| if i < n { bit } else { false };
                    let site = expect(i < n && layer.site_present_at(i));
                    let east = expect(i < n && layer.bond_east_at(i));
                    let north = expect(i < n && layer.bond_north_at(i));
                    assert_eq!((layer.site_row_word(y, x0) >> j) & 1 == 1, site, "site {y},{x0}+{j}");
                    assert_eq!((layer.bond_east_row_word(y, x0) >> j) & 1 == 1, east, "east {y},{x0}+{j}");
                    assert_eq!((layer.bond_north_row_word(y, x0) >> j) & 1 == 1, north, "north {y},{x0}+{j}");
                }
            }
        }
    }

    #[test]
    fn generate_layer_into_matches_generate_layer() {
        use crate::config::HardwareConfig;
        use crate::engine::FusionEngine;
        let cfg = HardwareConfig::new(12, 4, 0.75);
        let mut a = FusionEngine::new(cfg, 31);
        let mut b = FusionEngine::new(cfg, 31);
        let mut reused = PhysicalLayer::blank(1, 1);
        for _ in 0..3 {
            let fresh = a.generate_layer();
            b.generate_layer_into(&mut reused);
            assert_eq!(fresh.bond_count(), reused.bond_count());
            assert_eq!(fresh.fusions_attempted, reused.fusions_attempted);
            for y in 0..12 {
                for x in 0..12 {
                    assert_eq!(fresh.site_present(x, y), reused.site_present(x, y));
                    assert_eq!(fresh.bond_east(x, y), reused.bond_east(x, y));
                    assert_eq!(fresh.bond_north(x, y), reused.bond_north(x, y));
                    assert_eq!(fresh.temporal_port(x, y), reused.temporal_port(x, y));
                }
            }
        }
    }
}

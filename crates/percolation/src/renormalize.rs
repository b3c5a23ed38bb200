//! 2D renormalization of a single resource-state layer (Section 5.1),
//! implemented on the flat site grid.
//!
//! The largest connected component of the random physical graph state is
//! reshaped into a coarse-grained `k × k` square lattice by searching `k`
//! vertical paths (top to bottom) and `k` horizontal paths (left to right).
//! Every path is confined to its own band of width `node_size`, which keeps
//! distinct same-orientation paths separated and guarantees (by planarity)
//! that a vertical and a horizontal path that both exist intersect inside
//! their common block; the intersection site becomes the renormalized node.
//!
//! All state is dense: sites are flat `u32` indices (`y * width + x`), the
//! band-restricted BFS runs over epoch-stamped scratch arrays from a
//! [`ScratchPool`](crate::ScratchPool), and path-intersection tests are
//! stamp lookups instead of hash-set probes. Since the PR-5 bit-packed
//! layer, frontier seeding scans the packed site words (64 sites per step;
//! see the word-layout convention in `oneperc_hardware::layer`) instead of
//! one boolean per site.
//!
//! # Word-parallel reachability gate (PR 6)
//!
//! Each band search runs in two stages. A **word-parallel reachability
//! fixpoint** first answers *whether* the band percolates, on row-aligned
//! `u64` bitmaps held in the scratch pool: the band's present sites,
//! east-run connectivity and both-present vertical bonds are loaded as
//! `ceil(band_width / 64)` words per band row, east/west propagation
//! within a row is a Kogge–Stone run fill over the connectivity words, and
//! north/south propagation is a whole-row AND against the vertical bond
//! plane. The fixpoint exits as soon as the end edge lights up; running
//! dry without lighting it is the proof that the band does not percolate,
//! and the per-site stage is skipped entirely.
//!
//! Only when the gate passes does the **scalar parent-tracking BFS** run,
//! solely to extract the path: its neighbor order (east, west, north,
//! south) is the tie-break that pins every extracted path bit-for-bit to
//! the historical implementation, which word-level frontier expansion
//! cannot reproduce. The BFS queue carries `(flat index, x, y)` packed
//! into one `u64` (see `scratch::pack_site`), so the hot dequeue path
//! never divides by the layer width, and all site/bond tests read the
//! packed planes' raw words directly.
//!
//! # Verdict without paths
//!
//! The gate alone decides whether a layer reaches a target lattice:
//! [`Renormalizer::spans_target`] runs it over the target's bands and
//! extracts no path, which is all the reshaping engine asks of a merged
//! layer (see its docs for the planarity argument that makes the two
//! equivalent). Paths are built only when a caller asks for a
//! [`RenormalizedLattice`].

use oneperc_hardware::PhysicalLayer;

use crate::scratch::{pack_site, ScratchPool, NO_SITE};

/// The outcome of renormalizing one RSL.
///
/// Sites are stored as flat `u32` indices into the layer
/// (`y * layer_width + x`); [`RenormalizedLattice::site_coords`] decodes
/// them back to coordinates.
///
/// Equality compares every field — target geometry, node representatives
/// and full path contents — so `a == b` is the byte-identity check used by
/// the pooled-vs-in-thread determinism suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenormalizedLattice {
    target_side: usize,
    node_size: usize,
    /// Width of the layer the lattice was extracted from (for decoding flat
    /// site indices).
    layer_width: usize,
    /// Representative physical site of coarse node `(i, j)` at slot
    /// `i * target_side + j`, or [`u32::MAX`] when the node was not
    /// realized.
    nodes: Vec<u32>,
    /// Vertical path (flat site indices) for each coarse column, when found.
    v_paths: Vec<Option<Vec<u32>>>,
    /// Horizontal path for each coarse row, when found.
    h_paths: Vec<Option<Vec<u32>>>,
}

impl RenormalizedLattice {
    /// The requested coarse lattice side `k`.
    pub fn target_side(&self) -> usize {
        self.target_side
    }

    /// The average node size `n` used for the band decomposition.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Width of the layer this lattice was extracted from; flat site
    /// indices decode as `(idx % width, idx / width)`.
    pub fn layer_width(&self) -> usize {
        self.layer_width
    }

    /// Decodes a flat site index into `(x, y)` coordinates.
    #[inline]
    pub fn site_coords(&self, flat: u32) -> (usize, usize) {
        let w = self.layer_width;
        (flat as usize % w, flat as usize / w)
    }

    /// Returns `true` when every coarse node of the `k × k` target was
    /// realized.
    pub fn is_success(&self) -> bool {
        self.nodes.iter().all(|&s| s != NO_SITE)
    }

    /// Number of coarse nodes realized.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|&&s| s != NO_SITE).count()
    }

    /// Flat physical site of the coarse node `(i, j)`, if it was realized.
    pub fn node_flat(&self, i: usize, j: usize) -> Option<u32> {
        let s = *self.nodes.get(i * self.target_side + j)?;
        if s == NO_SITE {
            None
        } else {
            Some(s)
        }
    }

    /// Representative physical site of the coarse node `(i, j)` in
    /// coordinates, if it was realized.
    pub fn node_site(&self, i: usize, j: usize) -> Option<(usize, usize)> {
        self.node_flat(i, j).map(|s| self.site_coords(s))
    }

    /// The vertical path realizing coarse column `i` as flat site indices,
    /// if found.
    pub fn v_path(&self, i: usize) -> Option<&[u32]> {
        self.v_paths.get(i).and_then(|p| p.as_deref())
    }

    /// The horizontal path realizing coarse row `j` as flat site indices,
    /// if found.
    pub fn h_path(&self, j: usize) -> Option<&[u32]> {
        self.h_paths.get(j).and_then(|p| p.as_deref())
    }

    /// Iterator decoding a path returned by [`RenormalizedLattice::v_path`]
    /// or [`RenormalizedLattice::h_path`] into `(x, y)` coordinates.
    pub fn path_coords<'a>(
        &'a self,
        path: &'a [u32],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        path.iter().map(move |&s| self.site_coords(s))
    }

    /// Number of vertical paths found.
    pub fn v_path_count(&self) -> usize {
        self.v_paths.iter().filter(|p| p.is_some()).count()
    }

    /// Number of horizontal paths found.
    pub fn h_path_count(&self) -> usize {
        self.h_paths.iter().filter(|p| p.is_some()).count()
    }

    /// Total physical sites consumed by the coarse structure (paths and
    /// nodes); the remaining qubits would be measured out in the `Z` basis.
    pub fn consumed_sites(&self) -> usize {
        let mut sites: Vec<u32> = self
            .v_paths
            .iter()
            .chain(self.h_paths.iter())
            .flatten()
            .flat_map(|p| p.iter().copied())
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites.len()
    }
}

/// Reusable renormalizer holding the scratch memory of the flat-grid
/// engine; use [`renormalize`] for one-off calls and keep one
/// `Renormalizer` alive when processing a stream of RSLs so the per-layer
/// steady state allocates only the output paths ([`crate::ReshapeEngine`]
/// keeps one for its per-layer [`Renormalizer::spans_target`] verdicts,
/// which allocate nothing).
#[derive(Debug, Clone, Default)]
pub struct Renormalizer {
    scratch: ScratchPool,
}

/// Geometry of one band-restricted search, in flat-grid terms.
struct Band {
    /// Inclusive lower x bound.
    x_lo: usize,
    /// Exclusive upper x bound.
    x_hi: usize,
    /// Inclusive lower y bound.
    y_lo: usize,
    /// Exclusive upper y bound.
    y_hi: usize,
    /// `true` for a vertical (top-to-bottom) crossing.
    vertical: bool,
}

impl Band {
    /// Column band `band` (a vertical crossing over the region's full
    /// height) and row band `band` (a horizontal crossing over its full
    /// width) of the region at `origin`.
    fn pair(
        origin: (usize, usize),
        width: usize,
        height: usize,
        node_size: usize,
        band: usize,
    ) -> [Band; 2] {
        let (ox, oy) = origin;
        let lo = band * node_size;
        [
            Band {
                x_lo: ox + lo,
                x_hi: ox + lo + node_size,
                y_lo: oy,
                y_hi: oy + height,
                vertical: true,
            },
            Band {
                x_lo: ox,
                x_hi: ox + width,
                y_lo: oy + lo,
                y_hi: oy + lo + node_size,
                vertical: false,
            },
        ]
    }
}

impl Renormalizer {
    /// Creates a renormalizer with an empty scratch pool.
    pub fn new() -> Self {
        Renormalizer::default()
    }

    /// Renormalizes an entire layer with the given average node size; see
    /// [`renormalize`] for the one-off convenience wrapper.
    ///
    /// # Panics
    ///
    /// Panics when `node_size` is zero or larger than the layer.
    pub fn renormalize(&mut self, layer: &PhysicalLayer, node_size: usize) -> RenormalizedLattice {
        assert!(
            node_size > 0 && node_size <= layer.width && node_size <= layer.height,
            "node size must be positive and fit in the layer"
        );
        self.renormalize_region(layer, (0, 0), layer.width, layer.height, node_size)
    }

    /// Decides whether [`Renormalizer::renormalize`] of `layer` would realize
    /// every coarse node `(i, j)` with `i, j < target_side`, without
    /// extracting a single path.
    ///
    /// Node `(i, j)` is realized exactly when column band `i` and row band
    /// `j` both percolate. A vertical path confined to column band `i`
    /// crosses it top to bottom; a horizontal path confined to row band `j`
    /// crosses the whole layer, so it contains a left-to-right crossing of
    /// column band `i` inside block `(i, j)`. Two such crossings of one
    /// rectangle of the planar square lattice must share a site, and that
    /// site is the node. The verdict is therefore the word-parallel
    /// reachability gate run over the first `target_side` column and row
    /// bands, stopping at the first band that fails.
    ///
    /// Returns `false` when the target does not fit, i.e. when
    /// `target_side > min(width, height) / node_size`.
    ///
    /// # Panics
    ///
    /// Panics when `node_size` is zero.
    pub fn spans_target(
        &mut self,
        layer: &PhysicalLayer,
        node_size: usize,
        target_side: usize,
    ) -> bool {
        assert!(node_size > 0, "node size must be positive");
        if target_side > layer.width.min(layer.height) / node_size {
            return false;
        }
        (0..target_side).all(|band| {
            let [column, row] = Band::pair((0, 0), layer.width, layer.height, node_size, band);
            self.band_percolates(layer, &column) && self.band_percolates(layer, &row)
        })
    }

    /// Renormalizes a sub-rectangle of the layer (used by the modular
    /// variant). `origin` is the top-left corner (x, y) of the region and
    /// `width`/`height` its extent; the coarse lattice targets
    /// `width / node_size` columns and `height / node_size` rows.
    pub fn renormalize_region(
        &mut self,
        layer: &PhysicalLayer,
        origin: (usize, usize),
        width: usize,
        height: usize,
        node_size: usize,
    ) -> RenormalizedLattice {
        assert!(node_size > 0, "node size must be positive");
        let (ox, oy) = origin;
        assert!(
            ox + width <= layer.width && oy + height <= layer.height,
            "region exceeds the layer"
        );
        assert!(
            layer.width <= 1 << 16 && layer.height <= 1 << 16,
            "layer side exceeds the packed-queue coordinate range"
        );
        let k_cols = width / node_size;
        let k_rows = height / node_size;
        let k = k_cols.min(k_rows);

        self.scratch.ensure(layer.width * layer.height);

        let mut v_paths: Vec<Option<Vec<u32>>> = Vec::with_capacity(k);
        let mut h_paths: Vec<Option<Vec<u32>>> = Vec::with_capacity(k);

        // Alternating search order (vertical, horizontal, vertical, ...) as
        // suggested by the paper; with disjoint bands the orders only affect
        // scratch locality, so we simply interleave.
        for band in 0..k {
            let [column, row] = Band::pair(origin, width, height, node_size, band);
            v_paths.push(self.search_path(layer, column));
            h_paths.push(self.search_path(layer, row));
        }

        // Intersections become coarse nodes: stamp the sites of each
        // vertical path, then take the first stamped site along each
        // horizontal path. Vertical path `i` crosses column band `i` top to
        // bottom and horizontal path `j` crosses it left to right inside
        // row band `j`, so by planarity they share a site of block
        // `(i, j)` (see [`Renormalizer::spans_target`]).
        let w = layer.width;
        let mut nodes = vec![NO_SITE; k * k];
        for (i, vp) in v_paths.iter().enumerate() {
            let Some(vp) = vp else { continue };
            let mark = self.scratch.begin_mark();
            for &s in vp {
                self.scratch.set_mark(s, mark);
            }
            for (j, hp) in h_paths.iter().enumerate() {
                let Some(hp) = hp else { continue };
                let site = hp.iter().find(|&&s| self.scratch.is_marked(s, mark));
                debug_assert!(
                    site.is_some(),
                    "crossing paths of column band {i} and row band {j} must share a site"
                );
                if let Some(&site) = site {
                    nodes[i * k + j] = site;
                }
            }
        }

        RenormalizedLattice {
            target_side: k,
            node_size,
            layer_width: w,
            nodes,
            v_paths,
            h_paths,
        }
    }

    /// Searches one band-restricted crossing path. For a vertical band the
    /// path runs from the top row to the bottom row of the region; for a
    /// horizontal band from the left column to the right column. Returns
    /// the path as flat site indices, or `None` when the band does not
    /// percolate.
    ///
    /// The word-parallel reachability fixpoint decides percolation first;
    /// the per-site parent-tracking BFS runs only when a path is known to
    /// exist, purely to extract it (see the module docs).
    fn search_path(&mut self, layer: &PhysicalLayer, band: Band) -> Option<Vec<u32>> {
        debug_assert!(band.x_hi <= layer.width && band.y_hi <= layer.height);
        if !self.band_percolates(layer, &band) {
            return None;
        }
        self.extract_path(layer, band)
    }

    /// Word-parallel reachability fixpoint over one band: answers whether
    /// any present start-edge site connects to the end edge, on row-aligned
    /// `u64` bitmaps and without touching the per-site scratch. Returns as
    /// soon as the end edge lights up; a fixpoint that runs dry without
    /// lighting it is the proof the band does not percolate.
    fn band_percolates(&mut self, layer: &PhysicalLayer, band: &Band) -> bool {
        let Band { x_lo, x_hi, y_lo, y_hi, vertical } = *band;
        let bw = x_hi - x_lo;
        let bh = y_hi - y_lo;
        if bw == 0 || bh == 0 {
            return false;
        }
        let nc = bw.div_ceil(64);
        let w = layer.width;
        let n = nc * bh;

        let scratch = &mut self.scratch;
        // Every `band_pres` / `band_conn` word and every `band_vert` row but
        // the last are overwritten below, so those planes only grow; the
        // frontier needs a true clear, and `band_vert`'s last row (no bond
        // leaves the band) is zeroed explicitly.
        if scratch.band_pres.len() < n {
            scratch.band_pres.resize(n, 0);
            scratch.band_conn.resize(n, 0);
            scratch.band_vert.resize(n, 0);
        }
        scratch.band_vert[(bh - 1) * nc..n].fill(0);
        scratch.band_reach.clear();
        scratch.band_reach.resize(n, 0);

        let site = layer.site_bits();
        let be = layer.bond_east_bits();
        let bn = layer.bond_north_bits();

        // Single pass per band row: the present plane masked to the band
        // width, then the east-run connectivity of the same row (bit x =
        // sites x and x+1 present and east-bonded; chunk seams inject the
        // next chunk's bit 0 at position 63 so runs crossing a word
        // boundary stay connected — the band mask on `band_pres` already
        // zeroes any east bond leaving the band), then the both-present
        // vertical bonds from the row above, whose two present rows are now
        // loaded.
        for r in 0..bh {
            let base = (y_lo + r) * w + x_lo;
            for c in 0..nc {
                let take = (bw - c * 64).min(64);
                let m = if take == 64 { u64::MAX } else { (1u64 << take) - 1 };
                scratch.band_pres[r * nc + c] = site.word_at(base + c * 64) & m;
            }
            for c in 0..nc {
                let i = r * nc + c;
                let p = scratch.band_pres[i];
                let seam = if c + 1 < nc { scratch.band_pres[i + 1] & 1 } else { 0 };
                let p_east = (p >> 1) | (seam << 63);
                scratch.band_conn[i] = p & p_east & be.word_at(base + c * 64);
            }
            if r > 0 {
                let above = (y_lo + r - 1) * w + x_lo;
                for c in 0..nc {
                    let j = (r - 1) * nc + c;
                    scratch.band_vert[j] =
                        scratch.band_pres[j] & scratch.band_pres[j + nc] & bn.word_at(above + c * 64);
                }
            }
        }

        let end_bit = 1u64 << ((bw - 1) & 63);
        let end_lit = |reach: &[u64], r: usize| -> bool {
            if vertical {
                r == bh - 1 && reach[r * nc..(r + 1) * nc].iter().any(|&m| m != 0)
            } else {
                reach[r * nc + (nc - 1)] & end_bit != 0
            }
        };

        // Seed the start edge and fill the seeded rows to their horizontal
        // closure. A vertical band starts from every present top-row site;
        // a horizontal band from the present left-column sites.
        if vertical {
            for c in 0..nc {
                scratch.band_reach[c] = scratch.band_pres[c];
            }
            fill_row(&mut scratch.band_reach[..nc], &scratch.band_conn[..nc]);
            if end_lit(&scratch.band_reach, 0) {
                return true;
            }
        } else {
            for r in 0..bh {
                let s = scratch.band_pres[r * nc] & 1;
                if s != 0 {
                    scratch.band_reach[r * nc] = s;
                    fill_row(
                        &mut scratch.band_reach[r * nc..(r + 1) * nc],
                        &scratch.band_conn[r * nc..(r + 1) * nc],
                    );
                    if end_lit(&scratch.band_reach, r) {
                        return true;
                    }
                }
            }
        }

        // Alternate down/up sweeps to the fixpoint: each sweep pushes the
        // frontier through the vertical bond plane one row at a time and
        // re-closes the receiving row horizontally. Reachability is
        // monotone, so the loop terminates; for percolating bands the end
        // edge usually lights within the first down sweep.
        loop {
            let mut changed = false;
            for r in 0..bh.saturating_sub(1) {
                let mut dirty = false;
                for c in 0..nc {
                    let add = scratch.band_reach[r * nc + c]
                        & scratch.band_vert[r * nc + c]
                        & !scratch.band_reach[(r + 1) * nc + c];
                    if add != 0 {
                        scratch.band_reach[(r + 1) * nc + c] |= add;
                        dirty = true;
                    }
                }
                if dirty {
                    fill_row(
                        &mut scratch.band_reach[(r + 1) * nc..(r + 2) * nc],
                        &scratch.band_conn[(r + 1) * nc..(r + 2) * nc],
                    );
                    changed = true;
                    if end_lit(&scratch.band_reach, r + 1) {
                        return true;
                    }
                }
            }
            for r in (1..bh).rev() {
                let mut dirty = false;
                for c in 0..nc {
                    let add = scratch.band_reach[r * nc + c]
                        & scratch.band_vert[(r - 1) * nc + c]
                        & !scratch.band_reach[(r - 1) * nc + c];
                    if add != 0 {
                        scratch.band_reach[(r - 1) * nc + c] |= add;
                        dirty = true;
                    }
                }
                if dirty {
                    fill_row(
                        &mut scratch.band_reach[(r - 1) * nc..r * nc],
                        &scratch.band_conn[(r - 1) * nc..r * nc],
                    );
                    changed = true;
                    if end_lit(&scratch.band_reach, r - 1) {
                        return true;
                    }
                }
            }
            if !changed {
                return false;
            }
        }
    }

    /// Per-site parent-tracking BFS extracting the crossing path of a band
    /// the reachability gate has already proven to percolate. The traversal
    /// is identical to the historical implementation — same seeds in the
    /// same order, same east/west/north/south neighbor order, end test at
    /// dequeue — so every extracted path is bit-for-bit unchanged. Only the
    /// bookkeeping is faster: discoverability reads come from the gate's
    /// band-local connectivity planes (one bit instead of a bond test plus
    /// a presence test on `width × height` arrays), the visited set is a
    /// band-local bitmap, and queue entries carry their band coordinates
    /// packed so the dequeue path never divides by the layer width.
    fn extract_path(&mut self, layer: &PhysicalLayer, band: Band) -> Option<Vec<u32>> {
        let w = layer.width;
        let Band { x_lo, x_hi, y_lo, y_hi, vertical } = band;
        let bw = x_hi - x_lo;
        let bh = y_hi - y_lo;
        let nc = bw.div_ceil(64);
        // One slot per possible band coordinate, so a row's offset is a
        // single multiply by `stride` and no entry ever aliases.
        let stride = nc * 64;
        /// Predecessor sentinel marking a seed; `pack_site` cannot produce
        /// it because flat indices stay below `u32::MAX`.
        const SEED: u64 = u64::MAX;

        let scratch = &mut self.scratch;
        scratch.band_visited.clear();
        // Band row `r`'s visited word lives at row `r + 1`: the leading and
        // trailing zero rows let the branchless fast path read the visited
        // words of the rows above and below unconditionally (the matching
        // vertical bond words are zero at the band bounds, masking the
        // padding reads out of the result).
        scratch.band_visited.resize(nc * (bh + 2), 0);
        if scratch.band_prev.len() < stride * bh {
            scratch.band_prev.resize(stride * bh, 0);
        }
        // The queue is a grow-only buffer indexed by a `tail` cursor, never
        // cleared: every band site is enqueued at most once, so one slot
        // per band coordinate suffices, the hot enqueue is a plain indexed
        // store, and the zero-fill is paid once per pool growth instead of
        // once per band. Slots past `tail` are stale from earlier bands and
        // never read.
        if scratch.queue.len() < stride * bh {
            scratch.queue.resize(stride * bh, 0);
        }
        let mut tail = 0usize;

        // Seed the frontier with every present start-edge site of the band,
        // in ascending order, straight off the band-local present plane. A
        // vertical band's start edge is its top row; a horizontal band's is
        // its left column.
        if vertical {
            for c in 0..nc {
                let mut m = scratch.band_pres[c];
                scratch.band_visited[nc + c] = m;
                let base = (y_lo * w + x_lo + c * 64) as u32;
                while m != 0 {
                    let b = m.trailing_zeros();
                    let bx = c * 64 + b as usize;
                    scratch.band_prev[bx] = SEED;
                    scratch.queue[tail] = pack_site(base + b, bx, 0);
                    tail += 1;
                    m &= m - 1;
                }
            }
        } else {
            for r in 0..bh {
                if scratch.band_pres[r * nc] & 1 != 0 {
                    scratch.band_visited[(r + 1) * nc] |= 1;
                    scratch.band_prev[r * stride] = SEED;
                    scratch.queue[tail] = pack_site(((y_lo + r) * w + x_lo) as u32, 0, r);
                    tail += 1;
                }
            }
        }

        /// Walks the packed predecessor chain back to a seed; every entry
        /// carries its global flat index for the output and its band
        /// coordinates for indexing the chain.
        fn reconstruct(band_prev: &[u64], stride: usize, end: u64) -> Vec<u32> {
            let slot =
                |e: u64| ((e >> 48) as usize) * stride + ((e >> 32) as u16 as usize);
            // Walk the chain twice — once to size the path, once to fill it
            // back to front — so the output vector is allocated exactly once
            // at its final length.
            let mut len = 1usize;
            let mut cur = end;
            loop {
                let p = band_prev[slot(cur)];
                if p == SEED {
                    break;
                }
                len += 1;
                cur = p;
            }
            let mut path = vec![0u32; len];
            let mut cur = end;
            for i in (0..len).rev() {
                path[i] = cur as u32;
                cur = band_prev[slot(cur)];
            }
            path
        }

        // Neighbor order (east, west, north, south) matches the original
        // implementation so BFS tie-breaking — and therefore every extracted
        // path — is bit-identical. The connectivity planes already encode
        // bond presence, both endpoints' site presence and the band mask, so
        // each direction is one bit: bit `bw - 1` of `band_conn` and the
        // whole last row of `band_vert` are zero, which is the east/north
        // band bound.
        if nc == 1 {
            // Single-word rows: build a branchless 4-bit mask of
            // discoverable neighbors (bond present AND target unvisited),
            // ordered east, west, north, south in its low bits, then visit
            // its set bits. Per-bond branches on random percolation data are
            // ~50% mispredicted; the mask trades them for straight-line ALU
            // work plus one well-predicted loop whose trip count is the
            // number of *discoveries* (amortised one per site) rather than
            // the number of bond tests (four per site).
            //
            // Each direction's packed queue entry differs from the parent's
            // by a constant, and no field ever borrows past its boundary
            // (west/south discoveries imply `bx >= 1` / `br >= 1`, and flat
            // indices stay inside the layer), so the neighbor entry is one
            // wrapping add against a per-direction delta instead of a
            // re-pack.
            let deltas: [u64; 4] = [
                1 | 1 << 32,                          // east: idx + 1, bx + 1
                (1u64 | 1 << 32).wrapping_neg(),      // west: idx - 1, bx - 1
                w as u64 | 1 << 48,                   // north: idx + w, br + 1
                (w as u64 | 1 << 48).wrapping_neg(),  // south: idx - w, br - 1
            ];
            // Degenerate bands — one row for a vertical crossing, one
            // column for a horizontal one — seed directly on the end edge;
            // the historical BFS dequeues the first seed and returns it as
            // a single-site path. (The other thin shape, e.g. a one-column
            // vertical band, is *not* degenerate: its path still has to
            // descend the column, so it takes the regular loop below.)
            if if vertical { bh == 1 } else { bw == 1 } {
                return (tail > 0).then(|| vec![scratch.queue[0] as u32]);
            }
            // Non-degenerate bands never seed on the end edge, so the first
            // end site *discovered* is also the first dequeued (the queue is
            // FIFO) and the predecessor chain is already final at discovery.
            // Returning right there extracts the identical path while
            // skipping the expansion of everything queued behind the end —
            // typically the whole final BFS wavefront.
            // Interleave each row's three connectivity words (east runs,
            // vertical bonds down, vertical bonds up — pre-zeroed for row
            // zero) into one padded quadruple, so the hot loop fetches them
            // with a single bounds check from a single cache line instead
            // of three checked loads from three arrays.
            let ScratchPool { queue, band_conn, band_vert, band_visited, band_prev, band_cv, .. } =
                scratch;
            band_cv.clear();
            band_cv.resize(4 * bh, 0);
            for r in 0..bh {
                band_cv[4 * r] = band_conn[r];
                band_cv[4 * r + 1] = band_vert[r];
                if r > 0 {
                    band_cv[4 * r + 2] = band_vert[r - 1];
                }
            }
            let mut head = 0usize;
            while head < tail {
                let packed = queue[head];
                head += 1;
                let bx = (packed >> 32) as u16 as u32;
                let br = (packed >> 48) as usize;

                let Some(&[conn, vert, vert_up, _]) = band_cv[4 * br..].first_chunk() else {
                    unreachable!("queue entries stay inside the band");
                };
                // `band_vert` row `bh - 1` is all zeros, so `vd` (the
                // visited row below, only meaningful when the north bond
                // bit is set) may read the trailing padding row; the south
                // direction likewise reads the leading padding row and a
                // zero `vert_up` word for `br == 0`.
                let Some(&[vu, vis, vd]) = band_visited[br..].first_chunk() else {
                    unreachable!("visited rows are padded on both sides");
                };
                // East bond is `conn` bit `bx`, west bond is bit `bx - 1`
                // (shifted up first so `bx == 0` reads a hardwired zero);
                // the same shifts fetch the target sites' visited bits.
                let east = (conn >> bx) & !(vis >> 1 >> bx);
                let west = (conn << 1 >> bx) & !(vis << 1 >> bx);
                let north = (vert >> bx) & !(vd >> bx);
                let south = (vert_up >> bx) & !(vu >> bx);
                let mut m =
                    east & 1 | (west & 1) << 1 | (north & 1) << 2 | (south & 1) << 3;
                while m != 0 {
                    let d = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let entry = packed.wrapping_add(deltas[d]);
                    let nbx = (entry >> 32) as u16 as usize;
                    let nbr = (entry >> 48) as usize;
                    band_prev[nbr * stride + nbx] = packed;
                    let at_end = if vertical { nbr == bh - 1 } else { nbx == bw - 1 };
                    if at_end {
                        return Some(reconstruct(band_prev, stride, entry));
                    }
                    // The mask already excluded visited targets, and the up
                    // to four targets of one parent are distinct, so this
                    // never double-visits.
                    band_visited[nbr + 1] |= 1 << nbx;
                    queue[tail] = entry;
                    tail += 1;
                }
            }
            return None;
        }

        /// Discovers a neighbor if it was not visited yet: marks it, records
        /// the packed parent entry and enqueues it.
        #[inline]
        fn try_visit(
            scratch: &mut ScratchPool,
            tail: &mut usize,
            packed: u64,
            from: u64,
            nc: usize,
            stride: usize,
        ) {
            let bx = (packed >> 32) as u16 as usize;
            let br = (packed >> 48) as usize;
            let wi = (br + 1) * nc + (bx >> 6);
            let bit = 1u64 << (bx & 63);
            if scratch.band_visited[wi] & bit == 0 {
                scratch.band_visited[wi] |= bit;
                scratch.band_prev[br * stride + bx] = from;
                scratch.queue[*tail] = packed;
                *tail += 1;
            }
        }

        let mut head = 0usize;
        while head < tail {
            let packed = scratch.queue[head];
            head += 1;
            let bx = (packed >> 32) as u16 as usize;
            let br = (packed >> 48) as usize;

            let at_end = if vertical { br == bh - 1 } else { bx == bw - 1 };
            if at_end {
                return Some(reconstruct(&scratch.band_prev, stride, packed));
            }

            let idx = packed as u32;
            let row = br * nc;
            let (wc, wb) = (bx >> 6, bx & 63);
            if scratch.band_conn[row + wc] >> wb & 1 != 0 {
                try_visit(scratch, &mut tail, pack_site(idx + 1, bx + 1, br), packed, nc, stride);
            }
            if bx > 0 && scratch.band_conn[row + ((bx - 1) >> 6)] >> ((bx - 1) & 63) & 1 != 0 {
                try_visit(scratch, &mut tail, pack_site(idx - 1, bx - 1, br), packed, nc, stride);
            }
            if scratch.band_vert[row + wc] >> wb & 1 != 0 {
                try_visit(scratch, &mut tail, pack_site(idx + w as u32, bx, br + 1), packed, nc, stride);
            }
            if br > 0 && scratch.band_vert[row - nc + wc] >> wb & 1 != 0 {
                try_visit(scratch, &mut tail, pack_site(idx - w as u32, bx, br - 1), packed, nc, stride);
            }
        }
        None
    }

    /// Hands out the scratch pool (for sibling passes such as the modular
    /// joiner that want to share the union-find).
    pub(crate) fn scratch_mut(&mut self) -> &mut ScratchPool {
        &mut self.scratch
    }

}

/// Closes a 64-bit row chunk of the reachability frontier under its
/// east-connectivity word: every run of `conn` bits (bit `x` = edge
/// between sites `x` and `x+1`) containing a set `s` bit becomes fully
/// set. Kogge–Stone doubling: `e` holds the spans of length `k` (all `k`
/// edges starting at the bit present), so one `k`-shift per direction per
/// step closes runs of any length in log₂ 64 steps.
#[inline]
fn close_word(mut s: u64, conn: u64) -> u64 {
    if conn == 0 || s == 0 {
        return s;
    }
    let mut e = conn;
    let mut k = 1u32;
    while k < 64 {
        s |= (s & e) << k;
        s |= (s >> k) & e;
        e &= e >> k;
        if e == 0 {
            break;
        }
        k <<= 1;
    }
    s
}

/// Fills one band row of the reachability frontier to its horizontal
/// closure. `reach` and `conn` are the row's chunk words; a left-to-right
/// pass closes each chunk and carries reachability east across chunk seams
/// (seam edges live at bit 63 of the west chunk's connectivity word), then
/// a right-to-left pass carries it west. Connectivity along a row is a
/// union of intervals, so one pass per direction reaches the closure.
#[inline]
fn fill_row(reach: &mut [u64], conn: &[u64]) {
    let nc = reach.len();
    if nc == 1 {
        reach[0] = close_word(reach[0], conn[0]);
        return;
    }
    let mut carry = 0u64;
    for c in 0..nc {
        let s = close_word(reach[c] | carry, conn[c]);
        carry = (s >> 63) & (conn[c] >> 63);
        reach[c] = s;
    }
    for c in (0..nc - 1).rev() {
        let west = (reach[c + 1] & conn[c] >> 63 & 1) << 63;
        if west != 0 && reach[c] & (1 << 63) == 0 {
            reach[c] = close_word(reach[c] | west, conn[c]);
        }
    }
}

/// Renormalizes an entire layer with the given average node size, targeting
/// a coarse lattice of side `layer.width / node_size`.
///
/// This is the one-off convenience wrapper; it builds (and drops) a fresh
/// [`Renormalizer`] per call. Streaming callers should hold a
/// `Renormalizer` so the scratch memory is reused across RSLs.
///
/// # Panics
///
/// Panics when `node_size` is zero or larger than the layer.
pub fn renormalize(layer: &PhysicalLayer, node_size: usize) -> RenormalizedLattice {
    Renormalizer::new().renormalize(layer, node_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneperc_hardware::{FusionEngine, HardwareConfig};

    #[test]
    fn full_lattice_renormalizes_perfectly() {
        let layer = PhysicalLayer::fully_connected(24, 24);
        let lattice = renormalize(&layer, 6);
        assert_eq!(lattice.target_side(), 4);
        assert!(lattice.is_success());
        assert_eq!(lattice.node_count(), 16);
        assert_eq!(lattice.v_path_count(), 4);
        assert_eq!(lattice.h_path_count(), 4);
        // The representative of coarse node (i, j) lies inside block (i, j).
        for i in 0..4 {
            for j in 0..4 {
                let (x, y) = lattice.node_site(i, j).unwrap();
                assert!(x >= i * 6 && x < (i + 1) * 6, "x {x} outside band {i}");
                assert!(y >= j * 6 && y < (j + 1) * 6, "y {y} outside band {j}");
            }
        }
    }

    #[test]
    fn empty_lattice_fails() {
        let layer = PhysicalLayer::blank(16, 16); // no bonds at all
        let lattice = renormalize(&layer, 4);
        assert!(!lattice.is_success());
        assert_eq!(lattice.node_count(), 0);
        assert_eq!(lattice.consumed_sites(), 0);
    }

    #[test]
    fn percolating_layer_renormalizes_with_high_probability() {
        let mut engine = FusionEngine::new(HardwareConfig::new(48, 7, 0.78), 5);
        let layer = engine.generate_layer();
        let lattice = renormalize(&layer, 12);
        assert_eq!(lattice.target_side(), 4);
        assert!(
            lattice.node_count() >= 12,
            "expected most nodes realized, got {}",
            lattice.node_count()
        );
    }

    #[test]
    fn coarser_nodes_succeed_more_often() {
        // Fig. 16 behaviour: success probability grows rapidly with the
        // average node size.
        let trials = 12;
        let mut fine = 0;
        let mut coarse = 0;
        for seed in 0..trials {
            let mut engine = FusionEngine::new(HardwareConfig::new(48, 7, 0.68), seed);
            let layer = engine.generate_layer();
            if renormalize(&layer, 4).is_success() {
                fine += 1;
            }
            if renormalize(&layer, 16).is_success() {
                coarse += 1;
            }
        }
        assert!(
            coarse >= fine,
            "coarse-grained renormalization should succeed at least as often (coarse {coarse}, fine {fine})"
        );
        assert!(coarse >= trials * 2 / 3, "coarse renormalization too weak: {coarse}/{trials}");
    }

    #[test]
    fn paths_stay_inside_their_bands() {
        let mut engine = FusionEngine::new(HardwareConfig::new(36, 7, 0.75), 17);
        let layer = engine.generate_layer();
        let lattice = renormalize(&layer, 9);
        for i in 0..lattice.target_side() {
            if let Some(path) = lattice.v_path(i) {
                let coords: Vec<_> = lattice.path_coords(path).collect();
                for &(x, _) in &coords {
                    assert!(x >= i * 9 && x < (i + 1) * 9);
                }
                // A vertical path touches the first and last row.
                assert_eq!(coords.first().unwrap().1, 0);
                assert_eq!(coords.last().unwrap().1, 35);
            }
            if let Some(path) = lattice.h_path(i) {
                let coords: Vec<_> = lattice.path_coords(path).collect();
                for &(_, y) in &coords {
                    assert!(y >= i * 9 && y < (i + 1) * 9);
                }
                assert_eq!(coords.first().unwrap().0, 0);
                assert_eq!(coords.last().unwrap().0, 35);
            }
        }
    }

    #[test]
    fn paths_are_connected_walks() {
        let mut engine = FusionEngine::new(HardwareConfig::new(36, 7, 0.8), 29);
        let layer = engine.generate_layer();
        let lattice = renormalize(&layer, 12);
        for i in 0..lattice.target_side() {
            for path in [lattice.v_path(i), lattice.h_path(i)].into_iter().flatten() {
                let coords: Vec<_> = lattice.path_coords(path).collect();
                for pair in coords.windows(2) {
                    let d = pair[0].0.abs_diff(pair[1].0) + pair[0].1.abs_diff(pair[1].1);
                    assert_eq!(d, 1, "non-adjacent consecutive path sites {pair:?}");
                    assert!(layer.connected_neighbors(pair[0], pair[1]));
                }
            }
        }
    }

    #[test]
    fn region_renormalization_respects_origin() {
        let layer = PhysicalLayer::fully_connected(20, 20);
        let mut r = Renormalizer::new();
        let lattice = r.renormalize_region(&layer, (10, 10), 10, 10, 5);
        assert_eq!(lattice.target_side(), 2);
        assert!(lattice.is_success());
        for i in 0..2 {
            for j in 0..2 {
                let (x, y) = lattice.node_site(i, j).unwrap();
                assert!(x >= 10 && y >= 10, "node site ({x},{y}) outside region");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_calls() {
        // The same Renormalizer must give identical results to a fresh one
        // on every call, whatever it processed before.
        let mut shared = Renormalizer::new();
        for seed in [3u64, 11, 3, 27, 11] {
            let mut engine = FusionEngine::new(HardwareConfig::new(32, 7, 0.74), seed);
            let layer = engine.generate_layer();
            let a = shared.renormalize(&layer, 8);
            let b = Renormalizer::new().renormalize(&layer, 8);
            assert_eq!(a.node_count(), b.node_count(), "seed {seed}");
            for i in 0..a.target_side() {
                assert_eq!(a.v_path(i), b.v_path(i), "seed {seed} v{i}");
                assert_eq!(a.h_path(i), b.h_path(i), "seed {seed} h{i}");
                for j in 0..a.target_side() {
                    assert_eq!(a.node_site(i, j), b.node_site(i, j), "seed {seed} ({i},{j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node size")]
    fn zero_node_size_panics() {
        let layer = PhysicalLayer::fully_connected(8, 8);
        let _ = renormalize(&layer, 0);
    }

    #[test]
    fn consumed_sites_bounded_by_layer() {
        let layer = PhysicalLayer::fully_connected(16, 16);
        let lattice = renormalize(&layer, 4);
        assert!(lattice.consumed_sites() <= 256);
        assert!(lattice.consumed_sites() >= 16);
    }
}

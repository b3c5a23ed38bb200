//! The pre-flat-grid, hash-based 2D renormalizer, preserved verbatim as the
//! A/B baseline.
//!
//! This is the implementation the percolation crate shipped before the
//! flat-index rewrite: sites are `(x, y)` tuples, coarse nodes live in a
//! `HashMap<(usize, usize), (usize, usize)>`, path-intersection tests build
//! a `HashSet` per vertical path, every band search allocates fresh
//! BFS/union-find scratch, and a union-find connectivity pre-check runs
//! before each BFS. It exists for two purposes:
//!
//! * the `flat_vs_hash` property tests assert the flat-grid engine produces
//!   **identical** lattices (node sites, paths, success) on seeded layers;
//! * the `flat_vs_hash` criterion group in `benches/online_per_rsl.rs`
//!   measures the speedup.
//!
//! Do not "optimize" this module — its slowness is the point.

use std::collections::{HashMap, HashSet, VecDeque};

use graphstate::DisjointSet;
use oneperc_hardware::PhysicalLayer;

/// The outcome of renormalizing one RSL with the hash-based engine.
#[derive(Debug, Clone)]
pub struct HashRenormalizedLattice {
    target_side: usize,
    node_size: usize,
    /// Representative physical site of each coarse node, keyed by coarse
    /// coordinate `(i, j)`.
    nodes: HashMap<(usize, usize), (usize, usize)>,
    /// Vertical path (site coordinates) for each coarse column, when found.
    v_paths: Vec<Option<Vec<(usize, usize)>>>,
    /// Horizontal path for each coarse row, when found.
    h_paths: Vec<Option<Vec<(usize, usize)>>>,
}

impl HashRenormalizedLattice {
    /// The requested coarse lattice side `k`.
    pub fn target_side(&self) -> usize {
        self.target_side
    }

    /// The average node size used for the band decomposition.
    pub fn node_size(&self) -> usize {
        self.node_size
    }

    /// Returns `true` when every coarse node of the `k × k` target was
    /// realized.
    pub fn is_success(&self) -> bool {
        self.nodes.len() == self.target_side * self.target_side
    }

    /// Number of coarse nodes realized.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Representative physical site of the coarse node `(i, j)`, if
    /// realized.
    pub fn node_site(&self, i: usize, j: usize) -> Option<(usize, usize)> {
        self.nodes.get(&(i, j)).copied()
    }

    /// The vertical path realizing coarse column `i`, if found.
    pub fn v_path(&self, i: usize) -> Option<&[(usize, usize)]> {
        self.v_paths.get(i).and_then(|p| p.as_deref())
    }

    /// The horizontal path realizing coarse row `j`, if found.
    pub fn h_path(&self, j: usize) -> Option<&[(usize, usize)]> {
        self.h_paths.get(j).and_then(|p| p.as_deref())
    }

    /// Number of vertical paths found.
    pub fn v_path_count(&self) -> usize {
        self.v_paths.iter().filter(|p| p.is_some()).count()
    }

    /// Number of horizontal paths found.
    pub fn h_path_count(&self) -> usize {
        self.h_paths.iter().filter(|p| p.is_some()).count()
    }

    /// Total physical sites consumed by the coarse structure.
    pub fn consumed_sites(&self) -> usize {
        let mut seen = HashSet::new();
        for p in self.v_paths.iter().chain(self.h_paths.iter()).flatten() {
            seen.extend(p.iter().copied());
        }
        seen.len()
    }
}

/// The hash-based renormalizer (stateless; every call allocates its own
/// scratch, exactly as the original did).
#[derive(Debug, Clone, Default)]
pub struct HashRenormalizer {
    _private: (),
}

impl HashRenormalizer {
    /// Creates a renormalizer.
    pub fn new() -> Self {
        HashRenormalizer { _private: () }
    }

    /// Renormalizes a sub-rectangle of the layer.
    pub fn renormalize_region(
        &self,
        layer: &PhysicalLayer,
        origin: (usize, usize),
        width: usize,
        height: usize,
        node_size: usize,
    ) -> HashRenormalizedLattice {
        assert!(node_size > 0, "node size must be positive");
        let (ox, oy) = origin;
        assert!(
            ox + width <= layer.width && oy + height <= layer.height,
            "region exceeds the layer"
        );
        let k_cols = width / node_size;
        let k_rows = height / node_size;
        let k = k_cols.min(k_rows);

        let mut v_paths: Vec<Option<Vec<(usize, usize)>>> = Vec::with_capacity(k);
        let mut h_paths: Vec<Option<Vec<(usize, usize)>>> = Vec::with_capacity(k);

        for band in 0..k {
            v_paths.push(self.search_path(layer, origin, node_size, band, height, true));
            h_paths.push(self.search_path(layer, origin, node_size, band, width, false));
        }

        // Intersections become coarse nodes.
        let mut nodes = HashMap::new();
        for (i, vp) in v_paths.iter().enumerate() {
            let Some(vp) = vp else { continue };
            let v_sites: HashSet<(usize, usize)> = vp.iter().copied().collect();
            for (j, hp) in h_paths.iter().enumerate() {
                let Some(hp) = hp else { continue };
                if let Some(&site) = hp.iter().find(|s| v_sites.contains(s)) {
                    nodes.insert((i, j), site);
                } else if let Some(site) = closest_block_site(vp, hp, node_size, origin, i, j) {
                    nodes.insert((i, j), site);
                }
            }
        }

        HashRenormalizedLattice {
            target_side: k,
            node_size,
            nodes,
            v_paths,
            h_paths,
        }
    }

    /// Searches one band-restricted crossing path (union-find pre-check
    /// followed by a BFS over freshly allocated scratch).
    fn search_path(
        &self,
        layer: &PhysicalLayer,
        origin: (usize, usize),
        node_size: usize,
        band: usize,
        span: usize,
        vertical: bool,
    ) -> Option<Vec<(usize, usize)>> {
        let (ox, oy) = origin;
        let band_lo = band * node_size;
        let band_hi = band_lo + node_size;

        let in_band = |x: usize, y: usize| -> bool {
            if vertical {
                x >= ox + band_lo && x < ox + band_hi && y >= oy && y < oy + span
            } else {
                y >= oy + band_lo && y < oy + band_hi && x >= ox && x < ox + span
            }
        };
        let allowed = |x: usize, y: usize| -> bool {
            x < layer.width && y < layer.height && in_band(x, y) && layer.site_present(x, y)
        };

        // Union-find connectivity pre-check with virtual source and sink.
        let band_w = if vertical { node_size } else { span };
        let band_h = if vertical { span } else { node_size };
        let local = |x: usize, y: usize| -> usize {
            let lx = x - (ox + if vertical { band_lo } else { 0 });
            let ly = y - (oy + if vertical { 0 } else { band_lo });
            ly * band_w + lx
        };
        let n_local = band_w * band_h;
        let source = n_local;
        let sink = n_local + 1;
        let mut dsu = DisjointSet::new(n_local + 2);
        let (gx0, gy0) = (
            ox + if vertical { band_lo } else { 0 },
            oy + if vertical { 0 } else { band_lo },
        );
        for ly in 0..band_h {
            for lx in 0..band_w {
                let (x, y) = (gx0 + lx, gy0 + ly);
                if !allowed(x, y) {
                    continue;
                }
                let here = local(x, y);
                let at_start = if vertical { y == oy } else { x == ox };
                let at_end = if vertical { y == oy + span - 1 } else { x == ox + span - 1 };
                if at_start {
                    dsu.union(here, source);
                }
                if at_end {
                    dsu.union(here, sink);
                }
                if x + 1 < layer.width && allowed(x + 1, y) && layer.bond_east(x, y) {
                    dsu.union(here, local(x + 1, y));
                }
                if y + 1 < layer.height && allowed(x, y + 1) && layer.bond_north(x, y) {
                    dsu.union(here, local(x, y + 1));
                }
            }
        }
        if !dsu.same_set(source, sink) {
            return None;
        }

        // BFS for the shortest crossing path.
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n_local];
        let mut seen = vec![false; n_local];
        let mut queue = VecDeque::new();
        for t in 0..node_size {
            let (x, y) = if vertical { (gx0 + t, oy) } else { (ox, gy0 + t) };
            if allowed(x, y) {
                seen[local(x, y)] = true;
                queue.push_back((x, y));
            }
        }
        while let Some((x, y)) = queue.pop_front() {
            let at_end = if vertical { y == oy + span - 1 } else { x == ox + span - 1 };
            if at_end {
                let mut path = vec![(x, y)];
                let mut cur = (x, y);
                while let Some(p) = prev[local(cur.0, cur.1)] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let neighbors = [
                (x.wrapping_add(1), y, layer.bond_east(x, y)),
                (x.wrapping_sub(1), y, x > 0 && layer.bond_east(x.wrapping_sub(1), y)),
                (x, y.wrapping_add(1), layer.bond_north(x, y)),
                (x, y.wrapping_sub(1), y > 0 && layer.bond_north(x, y.wrapping_sub(1))),
            ];
            for (nx, ny, bonded) in neighbors {
                if !bonded || !allowed(nx, ny) {
                    continue;
                }
                let li = local(nx, ny);
                if !seen[li] {
                    seen[li] = true;
                    prev[li] = Some((x, y));
                    queue.push_back((nx, ny));
                }
            }
        }
        None
    }
}

/// Fallback coarse-node site when the two paths do not share a site.
fn closest_block_site(
    vp: &[(usize, usize)],
    hp: &[(usize, usize)],
    node_size: usize,
    origin: (usize, usize),
    i: usize,
    j: usize,
) -> Option<(usize, usize)> {
    let (ox, oy) = origin;
    let x_lo = ox + i * node_size;
    let x_hi = x_lo + node_size;
    let y_lo = oy + j * node_size;
    let y_hi = y_lo + node_size;
    let in_block = |&(x, y): &(usize, usize)| x >= x_lo && x < x_hi && y >= y_lo && y < y_hi;
    let v_block: Vec<(usize, usize)> = vp.iter().copied().filter(|s| in_block(s)).collect();
    let h_block: Vec<(usize, usize)> = hp.iter().copied().filter(|s| in_block(s)).collect();
    let mut best: Option<((usize, usize), usize)> = None;
    for &v in &v_block {
        for &h in &h_block {
            let d = v.0.abs_diff(h.0) + v.1.abs_diff(h.1);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((v, d));
            }
        }
    }
    best.map(|(s, _)| s)
}

/// Renormalizes an entire layer with the hash-based baseline engine.
///
/// # Panics
///
/// Panics when `node_size` is zero or larger than the layer.
pub fn hash_renormalize(layer: &PhysicalLayer, node_size: usize) -> HashRenormalizedLattice {
    assert!(
        node_size > 0 && node_size <= layer.width && node_size <= layer.height,
        "node size must be positive and fit in the layer"
    );
    HashRenormalizer::new().renormalize_region(layer, (0, 0), layer.width, layer.height, node_size)
}

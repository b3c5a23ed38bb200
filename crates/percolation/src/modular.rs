//! Modular 2D renormalization (Fig. 10 of the paper).
//!
//! To keep the real-time latency of the online pass within the photon
//! lifetime, the RSL is split into `g × g` modules of side `L_module`
//! separated by joining intervals of width `L_interval` (the *MI ratio* is
//! `L_module / L_interval`). Modules are renormalized independently and
//! then joined by searching connecting paths across the intervals. An
//! entire coarse row or column of the joined lattice only survives if
//! every inter-module joining path along it is found, which is the
//! resource overhead studied in Fig. 13(c).
//!
//! The paper gives every module its own processor. A module's lattice does
//! not depend on which thread computes it, so this implementation runs the
//! modules one after another in the caller's thread; the latency with one
//! processor per module is the slowest module's time (Fig. 14(b)).

use graphstate::DisjointSet;
use oneperc_hardware::PhysicalLayer;

use crate::renormalize::{RenormalizedLattice, Renormalizer};

/// Configuration of the modular renormalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModularConfig {
    /// Modules per side (`g`); the layer is split into `g²` modules.
    pub modules_per_side: usize,
    /// MI ratio `L_module / L_interval`.
    pub mi_ratio: usize,
    /// Average coarse node size inside each module.
    pub node_size: usize,
}

impl ModularConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics when any parameter is zero.
    pub fn new(modules_per_side: usize, mi_ratio: usize, node_size: usize) -> Self {
        assert!(modules_per_side > 0, "need at least one module per side");
        assert!(mi_ratio > 0, "MI ratio must be positive");
        assert!(node_size > 0, "node size must be positive");
        ModularConfig { modules_per_side, mi_ratio, node_size }
    }

    /// Splits a layer side of `total` sites into the module length and
    /// interval length implied by this configuration:
    /// `g·L_module + (g-1)·L_interval ≤ total` with
    /// `L_module = mi_ratio · L_interval`.
    ///
    /// When the side is too small to afford even a one-site joining
    /// interval at the requested MI ratio (`total < g·mi_ratio + g − 1`),
    /// the layout degrades to `g` equal modules with no interval — modules
    /// touch and the joining step has nothing to check. Only a side smaller
    /// than `g` itself can still overflow (`module_len` is clamped to 1);
    /// consumers clamp such regions to the layer, leaving trailing modules
    /// empty.
    pub fn layout(&self, total: usize) -> ModuleLayout {
        let g = self.modules_per_side;
        if g == 1 {
            return ModuleLayout { module_len: total, interval_len: 0 };
        }
        // total ≈ g·r·L_i + (g-1)·L_i  =>  L_i = total / (g·r + g - 1)
        let denom = g * self.mi_ratio + (g - 1);
        if total >= denom {
            let interval_len = total / denom;
            let module_len = self.mi_ratio * interval_len;
            return ModuleLayout { module_len, interval_len };
        }
        ModuleLayout { module_len: (total / g).max(1), interval_len: 0 }
    }

    /// The module regions of a `width × height` layer in row-major module
    /// order: the [`layout`](ModularConfig::layout) of the shorter side,
    /// with each region clamped to the layer.
    pub fn regions(&self, width: usize, height: usize) -> Vec<ModuleRegion> {
        let g = self.modules_per_side;
        let layout = self.layout(width.min(height));
        let stride = layout.module_len + layout.interval_len;
        (0..g)
            .flat_map(|gy| (0..g).map(move |gx| (gx * stride, gy * stride)))
            .map(|(ox, oy)| ModuleRegion {
                origin: (ox, oy),
                width: layout.module_len.min(width.saturating_sub(ox)),
                height: layout.module_len.min(height.saturating_sub(oy)),
            })
            .collect()
    }
}

/// One module of a layer: a rectangle of physical sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleRegion {
    /// Top-left corner `(x, y)` of the region.
    pub origin: (usize, usize),
    /// Extent along x.
    pub width: usize,
    /// Extent along y.
    pub height: usize,
}

/// Result of [`ModularConfig::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleLayout {
    /// Side length of each module in physical sites.
    pub module_len: usize,
    /// Width of the joining interval in physical sites.
    pub interval_len: usize,
}

/// Per-module renormalization plus inter-module joining.
///
/// The renormalizer owns its working state, a host [`Renormalizer`] whose
/// scratch serves every module and the joining union-find. Keep one
/// `ModularRenormalizer` alive across an RSL stream: that scratch memory
/// is reused for all subsequent layers.
#[derive(Debug)]
pub struct ModularRenormalizer {
    config: ModularConfig,
    host: Renormalizer,
}

/// Summary of a modular renormalization run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModularOutcome {
    /// The per-module lattices in row-major module order.
    pub modules: Vec<RenormalizedLattice>,
    /// Coarse nodes surviving after joining (a module's nodes count only if
    /// the joining paths of its coarse rows/columns were found).
    pub joined_nodes: usize,
    /// Coarse nodes found inside modules before joining.
    pub module_nodes: usize,
    /// Number of inter-module joining paths attempted.
    pub joins_attempted: usize,
    /// Number of inter-module joining paths found.
    pub joins_found: usize,
}

impl ModularOutcome {
    /// Fraction of module nodes surviving the joining step.
    pub fn joining_efficiency(&self) -> f64 {
        if self.module_nodes == 0 {
            0.0
        } else {
            self.joined_nodes as f64 / self.module_nodes as f64
        }
    }
}

impl ModularRenormalizer {
    /// Creates a modular renormalizer.
    pub fn new(config: ModularConfig) -> Self {
        ModularRenormalizer { config, host: Renormalizer::new() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ModularConfig {
        &self.config
    }

    /// Runs the modular renormalization on a layer: every module on the
    /// host scratch, then the joining step.
    pub fn run(&mut self, layer: &PhysicalLayer) -> ModularOutcome {
        let geometry = Geometry::of(&self.config, layer);
        let modules: Vec<RenormalizedLattice> = geometry
            .regions
            .iter()
            .map(|r| {
                self.host.renormalize_region(
                    layer,
                    r.origin,
                    r.width,
                    r.height,
                    geometry.node_size,
                )
            })
            .collect();
        self.join(layer, modules, &geometry)
    }

    /// Joining step: for every pair of horizontally adjacent modules, each
    /// coarse row must be connected across the interval; for vertically
    /// adjacent modules, each coarse column. We check connectivity of the
    /// interval strip between the two facing module edges with a
    /// union-find restricted to the strip (plus one site of each module
    /// edge), which mirrors the paper's connected-path joining. A word-scan
    /// precheck over the packed site bitmap rejects strips with an empty
    /// column/row between the endpoints before any union-find work;
    /// surviving strips feed the word-parallel [`DisjointSet::reset`] path,
    /// and the union-find comes from the host scratch pool and is reset —
    /// not reallocated — per join.
    fn join(
        &mut self,
        layer: &PhysicalLayer,
        modules: Vec<RenormalizedLattice>,
        geometry: &Geometry,
    ) -> ModularOutcome {
        let g = self.config.modules_per_side;
        let Geometry { layout, stride, .. } = *geometry;
        let module_nodes: usize = modules.iter().map(RenormalizedLattice::node_count).sum();

        let mut joins_attempted = 0usize;
        let mut joins_found = 0usize;
        let k = modules.first().map_or(0, |m| m.target_side());
        let mut row_ok = vec![true; g * k];
        let mut col_ok = vec![true; g * k];
        let dsu = &mut self.host.scratch_mut().dsu;

        if g > 1 && layout.interval_len > 0 && k > 0 {
            for gy in 0..g {
                for gx in 0..g {
                    let m_idx = gy * g + gx;
                    // Join to the east neighbor.
                    if gx + 1 < g {
                        for row in 0..k {
                            joins_attempted += 1;
                            let ok = Self::join_across(
                                layer,
                                &modules[m_idx],
                                &modules[m_idx + 1],
                                (gx * stride, gy * stride),
                                ((gx + 1) * stride, gy * stride),
                                layout,
                                row,
                                true,
                                dsu,
                            );
                            if ok {
                                joins_found += 1;
                            } else {
                                row_ok[gy * k + row] = false;
                            }
                        }
                    }
                    // Join to the north neighbor.
                    if gy + 1 < g {
                        for col in 0..k {
                            joins_attempted += 1;
                            let ok = Self::join_across(
                                layer,
                                &modules[m_idx],
                                &modules[m_idx + g],
                                (gx * stride, gy * stride),
                                (gx * stride, (gy + 1) * stride),
                                layout,
                                col,
                                false,
                                dsu,
                            );
                            if ok {
                                joins_found += 1;
                            } else {
                                col_ok[gx * k + col] = false;
                            }
                        }
                    }
                }
            }
        }

        // A coarse node survives if its module realized it and both its
        // global coarse row and column kept all their joining paths.
        let mut joined_nodes = 0usize;
        for gy in 0..g {
            for gx in 0..g {
                let m = &modules[gy * g + gx];
                for i in 0..m.target_side() {
                    for j in 0..m.target_side() {
                        if m.node_flat(i, j).is_none() {
                            continue;
                        }
                        let global_row_ok = g == 1 || row_ok.get(gy * k + j).copied().unwrap_or(true);
                        let global_col_ok = g == 1 || col_ok.get(gx * k + i).copied().unwrap_or(true);
                        if global_row_ok && global_col_ok {
                            joined_nodes += 1;
                        }
                    }
                }
            }
        }

        ModularOutcome {
            modules,
            joined_nodes,
            module_nodes,
            joins_attempted,
            joins_found,
        }
    }

    /// Checks whether a connected path exists across the interval between
    /// two adjacent modules for one coarse row (horizontal join) or column
    /// (vertical join), linking the corresponding path endpoints.
    #[allow(clippy::too_many_arguments)]
    fn join_across(
        layer: &PhysicalLayer,
        from: &RenormalizedLattice,
        to: &RenormalizedLattice,
        from_origin: (usize, usize),
        to_origin: (usize, usize),
        layout: ModuleLayout,
        lane: usize,
        horizontal: bool,
        dsu: &mut DisjointSet,
    ) -> bool {
        // Endpoints: the end of `from`'s lane path facing the interval and
        // the start of `to`'s lane path on the other side.
        let from_path = if horizontal { from.h_path(lane) } else { from.v_path(lane) };
        let to_path = if horizontal { to.h_path(lane) } else { to.v_path(lane) };
        let (Some(from_path), Some(to_path)) = (from_path, to_path) else {
            return false;
        };
        let Some(&start) = from_path.last() else { return false };
        let Some(&goal) = to_path.first() else { return false };
        let start = from.site_coords(start);
        let goal = to.site_coords(goal);

        // Strip region covering the interval plus one site on either side.
        let (sx_lo, sx_hi, sy_lo, sy_hi) = if horizontal {
            (
                from_origin.0 + layout.module_len.saturating_sub(1),
                to_origin.0 + 1,
                from_origin.1 + lane * from.node_size(),
                from_origin.1 + (lane + 1) * from.node_size(),
            )
        } else {
            (
                from_origin.0 + lane * from.node_size(),
                from_origin.0 + (lane + 1) * from.node_size(),
                from_origin.1 + layout.module_len.saturating_sub(1),
                to_origin.1 + 1,
            )
        };
        // Strip clamps hoisted once; the closure only validates the two
        // path endpoints, so it no longer re-derives them per call.
        let x_hi_c = sx_hi.min(layer.width - 1);
        let y_hi_c = sy_hi.min(layer.height - 1);
        let lw = layer.width;
        let allowed = |x: usize, y: usize| -> bool {
            (sx_lo..=x_hi_c).contains(&x)
                && (sy_lo..=y_hi_c).contains(&y)
                && layer.site_present(x, y)
        };
        if !allowed(start.0, start.1) || !allowed(goal.0, goal.1) {
            return false;
        }

        // Word-scan precheck on the packed site plane: a 4-connected
        // crossing path visits every column (horizontal join) / every row
        // (vertical join) between its endpoints, so a strip missing all
        // present sites in one of them cannot connect. Checking that is a
        // handful of `u64` OR/compare steps over the site words — far
        // cheaper than seeding the union-find — and skips the whole scan
        // for hopeless lanes.
        let bits = layer.site_bits();
        if horizontal {
            let (span_lo, span_hi) = (start.0.min(goal.0), start.0.max(goal.0));
            let mut x0 = span_lo;
            while x0 <= span_hi {
                let x1 = (x0 + 64).min(span_hi + 1);
                let full = if x1 - x0 == 64 { u64::MAX } else { (1u64 << (x1 - x0)) - 1 };
                let mut cover = 0u64;
                for y in sy_lo..=y_hi_c {
                    cover |= bits.word_at(y * lw + x0) & full;
                    if cover == full {
                        break;
                    }
                }
                if cover != full {
                    return false;
                }
                x0 = x1;
            }
        } else {
            let (span_lo, span_hi) = (start.1.min(goal.1), start.1.max(goal.1));
            for y in span_lo..=span_hi {
                let row = y * lw;
                // The strip width (node_size + 1) can exceed one word, so
                // scan it in 64-bit chunks until a present site shows up.
                let mut any = false;
                let mut x0 = sx_lo;
                while x0 <= x_hi_c {
                    let x1 = (x0 + 64).min(x_hi_c + 1);
                    let m = if x1 - x0 == 64 { u64::MAX } else { (1u64 << (x1 - x0)) - 1 };
                    if bits.word_at(row + x0) & m != 0 {
                        any = true;
                        break;
                    }
                    x0 = x1;
                }
                if !any {
                    return false;
                }
            }
        }

        // Span union-find over the strip, straight off the packed planes.
        // Per row word, `present & bond_east & (present >> 1)` marks every
        // east bond whose both endpoints are present; each maximal run of
        // those bits is a chain of `len + 1` consecutive connected sites,
        // united with a single `union_range` call instead of per-site
        // pairwise unions. Vertical bonds contribute one union per set bit
        // of the inter-row AND word. The resulting partition is identical
        // to the historical per-site scan (union order does not affect the
        // final sets), only the number of union calls shrinks.
        let w = x_hi_c - sx_lo + 1;
        let h = y_hi_c - sy_lo + 1;
        let local = |x: usize, y: usize| (y - sy_lo) * w + (x - sx_lo);
        dsu.reset(w * h);
        let be = layer.bond_east_bits();
        let bn = layer.bond_north_bits();
        for ry in 0..h {
            let row = (sy_lo + ry) * lw;
            let row_local = ry * w;
            let mut x0 = 0usize;
            while x0 < w {
                let take = (w - x0).min(64);
                let mask = if take == 64 { u64::MAX } else { (1u64 << take) - 1 };
                let lo = row + sx_lo + x0;
                let p = bits.word_at(lo) & mask;
                if p != 0 {
                    // A run ending at bit 63 continues into the next
                    // chunk's first site: seeding `present >> 1`'s top bit
                    // from that site makes `union_range` cover it too, and
                    // transitivity links it to the next chunk's own runs.
                    let seam = if x0 + 64 < w { bits.word_at(lo + 64) & 1 } else { 0 };
                    let mut conn = p & ((p >> 1) | (seam << 63)) & be.word_at(lo);
                    while conn != 0 {
                        let start = conn.trailing_zeros() as usize;
                        let ones = (!(conn >> start)).trailing_zeros() as usize;
                        dsu.union_range(row_local + x0 + start, ones + 1);
                        if start + ones >= 64 {
                            break;
                        }
                        conn &= u64::MAX << (start + ones);
                    }
                    if ry + 1 < h {
                        let mut v = p & bn.word_at(lo) & bits.word_at(lo + lw);
                        while v != 0 {
                            let b = v.trailing_zeros() as usize;
                            dsu.union(row_local + x0 + b, row_local + x0 + b + w);
                            v &= v - 1;
                        }
                    }
                }
                x0 += 64;
            }
        }
        dsu.same_set(local(start.0, start.1), local(goal.0, goal.1))
    }
}

/// The per-layer module geometry.
struct Geometry {
    layout: ModuleLayout,
    stride: usize,
    node_size: usize,
    /// Module regions in row-major module order, clamped to the layer.
    regions: Vec<ModuleRegion>,
}

impl Geometry {
    fn of(config: &ModularConfig, layer: &PhysicalLayer) -> Self {
        let layout = config.layout(layer.width.min(layer.height));
        Geometry {
            layout,
            stride: layout.module_len + layout.interval_len,
            node_size: config.node_size.min(layout.module_len.max(1)),
            regions: config.regions(layer.width, layer.height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oneperc_hardware::{FusionEngine, HardwareConfig};

    #[test]
    fn layout_respects_mi_ratio() {
        let cfg = ModularConfig::new(4, 7, 6);
        let layout = cfg.layout(200);
        assert_eq!(layout.module_len, 7 * layout.interval_len);
        assert!(4 * layout.module_len + 3 * layout.interval_len <= 200);
        let single = ModularConfig::new(1, 7, 6).layout(100);
        assert_eq!(single.module_len, 100);
        assert_eq!(single.interval_len, 0);
    }

    #[test]
    fn layout_single_module_keeps_whole_side() {
        // g = 1 never carves an interval, whatever the MI ratio.
        for total in [1usize, 5, 17, 240] {
            let layout = ModularConfig::new(1, 1, 3).layout(total);
            assert_eq!(layout, ModuleLayout { module_len: total, interval_len: 0 });
        }
    }

    #[test]
    fn layout_mi_ratio_one_fits() {
        // r = 1: modules and intervals are the same width.
        let cfg = ModularConfig::new(2, 1, 2);
        let layout = cfg.layout(20);
        assert_eq!(layout.module_len, layout.interval_len);
        assert!(2 * layout.module_len + layout.interval_len <= 20);
        assert!(layout.interval_len >= 1);
    }

    #[test]
    fn layout_degrades_gracefully_below_denominator() {
        // total < g·r + g − 1: no room for a joining interval; the layout
        // must still fit g modules in the side instead of overflowing it.
        let cfg = ModularConfig::new(3, 7, 4); // denom = 23
        for total in 3..23usize {
            let layout = cfg.layout(total);
            assert_eq!(layout.interval_len, 0, "total {total}");
            assert!(
                3 * layout.module_len <= total,
                "total {total}: 3 × {} overflows",
                layout.module_len
            );
            assert!(layout.module_len >= 1);
        }
    }

    #[test]
    fn layout_never_overflows_when_side_fits_modules() {
        // Sweep: whenever the side has at least one site per module, the
        // laid-out grid fits inside it.
        for g in 1..=5usize {
            for r in 1..=8usize {
                for total in g..=64usize {
                    let layout = ModularConfig::new(g, r, 2).layout(total);
                    let used = g * layout.module_len + (g - 1) * layout.interval_len;
                    assert!(
                        used <= total,
                        "g {g} r {r} total {total}: grid uses {used}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_layer_runs_without_panicking() {
        // A layer far below the layout denominator still renormalizes; the
        // degenerate layout just yields adjacent modules.
        let layer = PhysicalLayer::fully_connected(7, 7);
        let mut renorm = ModularRenormalizer::new(ModularConfig::new(3, 7, 2));
        let outcome = renorm.run(&layer);
        assert_eq!(outcome.joins_attempted, 0, "no interval, nothing to join");
        assert_eq!(outcome.joined_nodes, outcome.module_nodes);
    }

    #[test]
    fn fully_connected_layer_joins_everything() {
        let layer = PhysicalLayer::fully_connected(60, 60);
        let cfg = ModularConfig::new(2, 7, 6);
        let outcome = ModularRenormalizer::new(cfg).run(&layer);
        assert_eq!(outcome.module_nodes, outcome.joined_nodes);
        assert!(outcome.module_nodes > 0);
        assert_eq!(outcome.joins_attempted, outcome.joins_found);
        assert!((outcome.joining_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modular_overhead_is_bounded() {
        // Fig. 13(c): the modular approach recovers a large fraction of the
        // nodes the non-modular approach finds.
        let mut engine = FusionEngine::new(HardwareConfig::new(72, 7, 0.75), 3);
        let layer = engine.generate_layer();
        let non_modular = crate::renormalize(&layer, 6);
        let modular =
            ModularRenormalizer::new(ModularConfig::new(3, 7, 6)).run(&layer);
        assert!(modular.joined_nodes > 0);
        // The modular result cannot beat the non-modular total but should
        // stay within the same order of magnitude.
        assert!(modular.joined_nodes as f64 >= 0.2 * non_modular.node_count() as f64);
    }

    #[test]
    fn wide_node_size_strips_join_without_panicking() {
        // node_size >= 64 makes the joining strip wider than one storage
        // word in the vertical direction; the site-bitmap precheck must
        // chunk its row scans (regression: PR-5 review caught an unchunked
        // range_word panicking at 'bit range wider than one word').
        let layer = PhysicalLayer::fully_connected(154, 154);
        let cfg = ModularConfig::new(2, 5, 65);
        let outcome = ModularRenormalizer::new(cfg).run(&layer);
        assert!(outcome.joins_attempted > 0, "wide strips must be checked");
        assert_eq!(outcome.joins_attempted, outcome.joins_found);
        assert_eq!(outcome.module_nodes, outcome.joined_nodes);

        // A blank layer through the same wide-strip geometry exercises the
        // no-present-site early-out of the chunked precheck.
        let blank = PhysicalLayer::blank(154, 154);
        let nothing = ModularRenormalizer::new(cfg).run(&blank);
        assert_eq!(nothing.joined_nodes, 0);
    }

    #[test]
    fn blank_layer_yields_nothing() {
        let layer = PhysicalLayer::blank(40, 40);
        let outcome =
            ModularRenormalizer::new(ModularConfig::new(2, 4, 5)).run(&layer);
        assert_eq!(outcome.module_nodes, 0);
        assert_eq!(outcome.joined_nodes, 0);
        assert_eq!(outcome.joining_efficiency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "MI ratio")]
    fn zero_mi_ratio_panics() {
        let _ = ModularConfig::new(2, 0, 4);
    }
}

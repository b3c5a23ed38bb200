//! Heap a compiled program keeps, split into its program graph, its
//! FlexLattice IR and its instruction records, on the repository
//! benchmark's two program shapes at the `offline_mapping` bench's circuit
//! seed: a deep chain on a 3×3 layer and a wide program on a 6×6 layer.
//!
//! A counting global allocator tracks live heap bytes (requested sizes,
//! so a vector's spare capacity counts). The file holds a single test so
//! no other test allocates while it measures. Each part is pinned in bytes
//! per IR node (program plus ancilla nodes) under a budget; a layout
//! regression of the arena node or the record fails here.
//!
//! Run with `cargo test --release -p oneperc-bench --test compiled_footprint
//! -- --nocapture` to print the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use oneperc_circuit::ProgramGraph;
use oneperc_corpus::CorpusSpec;
use oneperc_ir::VirtualHardware;
use oneperc_mapper::{Mapper, MapperConfig, MappingResult};

/// Live heap bytes: requested sizes of the blocks not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter only observes
// sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a valid new size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The `offline_mapping` bench's circuit seed.
const SEED: u64 = 0x0E1E_C0DE;

/// Heap bytes each part of a compiled program keeps.
#[derive(Debug)]
struct Footprint {
    ir_nodes: usize,
    graph: usize,
    ir: usize,
    records: usize,
}

impl Footprint {
    fn per_node(&self, bytes: usize) -> f64 {
        bytes as f64 / self.ir_nodes as f64
    }
}

fn footprint(token: &str, side: usize) -> Footprint {
    let circuit = CorpusSpec::parse(token).unwrap().circuit(SEED);
    let start = live();
    let program = ProgramGraph::from_circuit(&circuit);
    let mapping =
        Mapper::new(MapperConfig::new(VirtualHardware::square(side))).map(&program).unwrap();
    assert!(mapping.complete, "{token}");
    let stats = mapping.ir.stats();
    let MappingResult { ir, instructions, .. } = mapping;
    // Drop the parts one at a time; what is left is the program graph.
    let kept = live() - start;
    drop(instructions);
    let records = kept - (live() - start);
    drop(ir);
    let graph = live() - start;
    Footprint {
        ir_nodes: stats.program_nodes + stats.ancilla_nodes,
        graph,
        ir: kept - records - graph,
        records,
    }
}

/// Budgets in bytes per IR node. With 16-byte arena nodes and 8-byte
/// records the two shapes read 37.1 and 36.1 (IR), 24.3 and 21.5
/// (records) and 86.3 and 87.7 (whole program); with 56-byte nodes and
/// 16-byte records grown by doubling they read 81.9 and 95.4, 66.5 and
/// 64.5, and 173.4 and 190.0.
const IR_BUDGET: f64 = 40.0;
const RECORDS_BUDGET: f64 = 26.0;
const TOTAL_BUDGET: f64 = 96.0;

#[test]
fn compiled_programs_stay_within_their_byte_budgets() {
    for (token, side) in [("rcachain:q9,r8", 3), ("layered:w36,d60,e400", 6)] {
        let f = footprint(token, side);
        let total = f.graph + f.ir + f.records;
        println!(
            "{token}@{side}: {} IR nodes; graph {} B ({:.1}/node), IR {} B ({:.1}/node), \
             records {} B ({:.1}/node), total {} B ({:.1}/node)",
            f.ir_nodes,
            f.graph,
            f.per_node(f.graph),
            f.ir,
            f.per_node(f.ir),
            f.records,
            f.per_node(f.records),
            total,
            f.per_node(total),
        );
        assert!(f.per_node(f.ir) <= IR_BUDGET, "{token}: IR {:.1} B/node", f.per_node(f.ir));
        assert!(
            f.per_node(f.records) <= RECORDS_BUDGET,
            "{token}: records {:.1} B/node",
            f.per_node(f.records)
        );
        assert!(
            f.per_node(total) <= TOTAL_BUDGET,
            "{token}: total {:.1} B/node",
            f.per_node(total)
        );
    }
}

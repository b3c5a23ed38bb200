//! Lossless encoding of the lowered instruction stream: the compact records
//! that `InstructionProgram::lower` stores must decode (through `iter()` and
//! `Display`) to exactly what the node-by-node reference lowering
//! (`oneperc_bench::reference_mapper::lower`) emits, on non-square layers,
//! on a layer whose coordinates do not fit `u16`, and on empty programs.

use oneperc_bench::reference_mapper;
use oneperc_ir::{FlexLatticeIr, Instruction, InstructionProgram, NodeKind, VirtualHardware};

/// Four layers over `coords` with every instruction kind: program and
/// ancilla nodes, east and north edges, adjacent temporal edges, and
/// relocated cross-layer edges from layer 0 to layer 3.
fn every_kind(hw: VirtualHardware, coords: &[(usize, usize)]) -> FlexLatticeIr {
    let mut ir = FlexLatticeIr::new(hw);
    for layer in 0..4 {
        ir.push_layer();
        for (i, &c) in coords.iter().enumerate() {
            if (i + layer) % 5 == 4 {
                continue;
            }
            let kind = if (i + layer) % 2 == 0 {
                NodeKind::Program(1000 * layer + i)
            } else {
                NodeKind::Ancilla
            };
            ir.place(layer, c, kind).unwrap();
        }
        for (i, &(x, y)) in coords.iter().enumerate() {
            // Edges whose far end is missing are rejected; skip them.
            if (i + layer) % 3 != 0 {
                ir.enable_spatial_edge(layer, (x, y), (x + 1, y)).ok();
            }
            if (i + layer) % 3 != 1 {
                ir.enable_spatial_edge(layer, (x, y), (x, y + 1)).ok();
            }
            if layer > 0 && layer < 3 && i % 2 == 0 {
                ir.enable_temporal_edge((x, y), layer - 1, layer).ok();
            }
        }
    }
    for (&from, &to) in coords.iter().zip(coords.iter().rev()) {
        ir.enable_temporal_edge_relocated(0, from, 3, to).ok();
    }
    ir
}

fn assert_lossless(label: &str, ir: &FlexLatticeIr) {
    let program = InstructionProgram::lower(ir).unwrap();
    let reference = reference_mapper::lower(ir);
    assert_eq!(program.iter().collect::<Vec<_>>(), reference, "{label}: iter()");
    let text: String = reference.iter().map(|i| format!("{i}\n")).collect();
    assert_eq!(program.to_string(), text, "{label}: Display");
    assert_eq!(program.len(), reference.len(), "{label}: len()");
    assert_eq!(program.is_empty(), reference.is_empty(), "{label}: is_empty()");
    assert_eq!(program.layer_count(), ir.layer_count(), "{label}: layer_count()");
    assert_eq!(program.stats(), ir.stats(), "{label}: stats()");
}

fn kinds(ir: &FlexLatticeIr) -> [bool; 6] {
    let program = InstructionProgram::lower(ir).unwrap();
    let mut seen = [false; 6];
    for i in program.iter() {
        seen[match i {
            Instruction::MapVNode { .. } => 0,
            Instruction::MakeVNodeAncilla { .. } => 1,
            Instruction::StoreVNode { .. } => 2,
            Instruction::RetrieveVNode { .. } => 3,
            Instruction::EnableSpatialVEdge { v_node, adjacent_v_node } => {
                4 + usize::from(v_node.1 != adjacent_v_node.1)
            }
            Instruction::EnableTemporalVEdge { .. } => continue,
        }] = true;
    }
    seen
}

#[test]
fn non_square_layers_decode_losslessly() {
    for (w, h) in [(3, 5), (5, 3)] {
        let hw = VirtualHardware::new(w, h);
        let ir = every_kind(hw, &hw.coords().collect::<Vec<_>>());
        assert_eq!(kinds(&ir), [true; 6], "{w}x{h}: every instruction kind is exercised");
        assert_lossless(&format!("{w}x{h}"), &ir);
    }
}

#[test]
fn coordinates_past_u16_decode_losslessly() {
    let hw = VirtualHardware::new(70_000, 1);
    let coords: Vec<(usize, usize)> =
        [0, 1, 65_534, 65_535, 65_536, 65_537, 69_998, 69_999].map(|x| (x, 0)).to_vec();
    let ir = every_kind(hw, &coords);
    assert_lossless("70000x1", &ir);
}

#[test]
fn empty_programs_decode_losslessly() {
    let hw = VirtualHardware::new(3, 5);
    let mut ir = FlexLatticeIr::new(hw);
    assert_lossless("no layers", &ir);
    ir.push_layer();
    ir.push_layer();
    assert_lossless("empty layers", &ir);
    assert!(InstructionProgram::lower(&ir).unwrap().is_empty());
}

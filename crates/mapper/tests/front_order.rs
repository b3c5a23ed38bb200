//! The order step 2 of `Mapper::map` relies on.
//!
//! Step 2 walks the scheduler's front, which is sorted by node id, with one
//! cursor instead of a creation-rank priority queue. That walk pops nodes
//! in the queue's order only while two facts hold for every program graph:
//! a node's id is its creation rank (`creation_order()` is `0..n`), and
//! every dependency edge goes from a lower id to a higher one, so whatever
//! a consume readies lands after the cursor. This file checks both over
//! the corpus families, the repository benchmark's shapes and the paper's
//! four benchmarks.

use oneperc_circuit::benchmarks::Benchmark;
use oneperc_circuit::{Circuit, ProgramGraph};
use oneperc_corpus::{CorpusSpec, FAMILIES};

fn assert_creation_ranked(label: &str, circuit: &Circuit) {
    let program = ProgramGraph::from_circuit(circuit);
    let n = program.node_count();
    assert!(
        program.creation_order().iter().copied().eq(0..n),
        "{label}: creation order is not 0..{n}"
    );
    let dag = program.dependency_dag();
    assert_eq!(dag.len(), n, "{label}: DAG size");
    for v in 0..n {
        for &s in dag.successors(v) {
            assert!(
                v < s,
                "{label}: dependency edge {v} -> {s} goes to a lower id"
            );
        }
    }
}

#[test]
fn corpus_families_are_creation_ranked() {
    let mut seen = [false; FAMILIES.len()];
    for index in 0..64 {
        let spec = CorpusSpec::sample(0x5EED, index);
        seen[spec.family_index()] = true;
        assert_creation_ranked(&spec.to_token(), &spec.circuit(index));
    }
    for token in ["rcachain:q9,r8", "layered:w36,d60,e400", "qftadder:b4"] {
        let spec = CorpusSpec::parse(token).expect("valid spec");
        seen[spec.family_index()] = true;
        assert_creation_ranked(token, &spec.circuit(0x0E1E_C0DE));
    }
    assert!(seen.iter().all(|&s| s), "families covered: {seen:?}");
}

#[test]
fn paper_benchmarks_are_creation_ranked() {
    for bench in Benchmark::all() {
        for n in [4usize, 9, 16, 25] {
            assert_creation_ranked(&format!("{bench}({n})"), &bench.circuit(n, 7));
        }
    }
}

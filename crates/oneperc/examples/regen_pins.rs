//! Regenerates every golden pin of the seeded streams, in paste-ready
//! form:
//!
//! ```text
//! cargo run --release -p oneperc --example regen_pins
//! ```
//!
//! It prints, in order:
//!
//! 1. the sampler pins of `crates/hardware/tests/sampler_golden.rs`, one
//!    `assert_*(...)` line per pinned `(probability, seed, stream)`, in
//!    the test file's order and encoding (outcome `k` at bit `k % 64` of
//!    word `k / 64`), then the masks of one merge-law threshold draw per
//!    seed;
//! 2. the `layer_key` pins of the same file, the seed of each layer's
//!    sampler;
//! 3. every group of `crates/oneperc/tests/pins/report_cases.rs`, the
//!    rows `tests/report_pins.rs` checks, as the constants to paste over.
//!
//! When a change to the sampler, the RNG or the layer generator shifts a
//! stream on purpose, paste the printed lines over the pinned ones (the
//! sampler pins are printed one call per line; `rustfmt` lays out the long
//! ones as the file does) and name the break in the commit: every seeded
//! result in the repository shifts with it. When a change is meant to
//! leave the streams alone, diff this output against the pinned files to
//! show that nothing moved.
//!
//! Every report row names its case in a comment: the execution completes,
//! or starves of renormalization, or of time-like connections. When a
//! re-recorded seed no longer shows its case, the tool replaces the row by
//! the first seed of the same case that does, and says so in the comment.

#[path = "../tests/pins/report_cases.rs"]
mod report_cases;

use std::sync::Arc;

use oneperc::Session;
use oneperc_hardware::{layer_key, FusionSampler, MergeLaw};
use report_cases::{case, shows, Pin, Row, GROUPS};

/// Outcomes pinned per stream (matches `N` in the sampler test file).
const N: usize = 256;

/// Probabilities and seeds of the pinned sampler streams.
const PROBS: [f64; 2] = [0.75, 0.66];
const SEEDS: [u64; 4] = [1, 7, 42, 2024];

/// `(seed, index)` pairs whose layer keys are pinned.
const LAYER_KEYS: [(u64, u64); 6] = [(0, 0), (0, 1), (1, 0), (1, 1), (42, 7), (2024, 1000)];

/// Seeds searched for a replacement row when a seed loses its case.
const SEED_SEARCH: std::ops::RangeInclusive<u64> = 1..=64;

fn stream_words(p: f64, seed: u64, batched: bool) -> [u64; 4] {
    let mut sampler = FusionSampler::new(p, seed);
    if batched {
        return std::array::from_fn(|_| sampler.bernoulli_word(u64::MAX));
    }
    let mut words = [0u64; 4];
    for k in 0..N {
        if sampler.sample().is_success() {
            words[k / 64] |= 1 << (k % 64);
        }
    }
    words
}

/// The masks of one 64-site threshold draw against the cuts of the
/// Table-1 merge law (4-qubit states, m = 3, p = 0.75).
fn merge_masks(seed: u64) -> Vec<u64> {
    let law = MergeLaw::new(3, 3, 0.75);
    let mut masks = vec![0u64; law.cuts().len()];
    FusionSampler::new(0.75, seed).threshold_masks(law.cuts(), u64::MAX, &mut masks);
    masks
}

fn hex(words: &[u64]) -> String {
    let words: Vec<String> = words.iter().map(|w| format!("{w:#018x}")).collect();
    format!("[{}]", words.join(", "))
}

fn print_sampler_pins() {
    for (batched, label) in [(false, "per-attempt"), (true, "batched")] {
        for p in PROBS {
            println!("// {label} stream at p = {p}");
            for seed in SEEDS {
                let words = stream_words(p, seed, batched);
                println!("assert_stream({p}, {seed}, {batched}, {});", hex(&words));
            }
        }
    }
    println!("// merge-law masks");
    for seed in SEEDS {
        println!("assert_merge_masks({seed}, {});", hex(&merge_masks(seed)));
    }
    println!("// layer keys");
    for (seed, index) in LAYER_KEYS {
        println!("assert_layer_key({seed}, {index}, {:#018x});", layer_key(seed, index));
    }
}

/// Runs `seed` of a compiled case and returns its pin.
fn run(session: &Session, compiled: &Arc<oneperc::CompiledProgram>, seed: u64) -> Pin {
    let outcome = session.execute_shared(Arc::clone(compiled), seed);
    let r = outcome.report();
    (
        r.rsl_consumed,
        r.merged_layers,
        r.fusions,
        r.logical_layers,
        r.routing_layers,
        r.complete,
        outcome.failure().map(|f| f.reason),
    )
}

/// Re-records a group's rows, each with a comment naming its case. A row
/// keeps its seed while the seed still shows the pinned case; otherwise it
/// takes the first seed of the same case that shows it and that no other
/// row holds.
fn rerecord(group: &[Row]) -> Vec<(Row, String)> {
    let sessions: Vec<_> = group
        .iter()
        .map(|&(name, _, _)| {
            let (config, circuit) = case(name);
            let session = Session::new(config);
            let compiled = Arc::new(session.compile(&circuit).expect("offline pass succeeds"));
            (session, compiled)
        })
        .collect();
    let mut out: Vec<(Row, String)> = group
        .iter()
        .zip(&sessions)
        .map(|(&(name, seed, pinned), (session, compiled))| {
            let pin = run(session, compiled, seed);
            ((name, seed, pin), shows(pinned.6).to_string())
        })
        .collect();
    let kept = |out: &[(Row, String)], i: usize| out[i].0 .2 .6 == group[i].2 .6;
    for i in 0..group.len() {
        if kept(&out, i) {
            continue;
        }
        let (name, seed, pinned) = group[i];
        let lost = out[i].0 .2 .6;
        let held = |out: &[(Row, String)], s: u64| {
            (0..group.len()).any(|j| out[j].0 .0 == name && out[j].0 .1 == s && kept(out, j))
        };
        let (session, compiled) = &sessions[i];
        let found = SEED_SEARCH
            .filter(|&s| !held(&out, s))
            .map(|s| (s, run(session, compiled, s)))
            .find(|(_, pin)| pin.6 == pinned.6);
        out[i] = match found {
            Some((other, pin)) => {
                let change =
                    format!("seed {other} replaces seed {seed}, which now {}", shows(lost));
                ((name, other, pin), format!("{} ({change})", shows(pinned.6)))
            }
            None => (
                out[i].0,
                format!(
                    "CASE LOST: seed {seed} now {}, and no seed in {SEED_SEARCH:?} {}",
                    shows(lost),
                    shows(pinned.6)
                ),
            ),
        };
    }
    out
}

fn print_report_pins() {
    for (group_name, rows) in GROUPS {
        println!();
        println!("pub const {group_name}: &[Row] = &[");
        for ((name, seed, p), comment) in rerecord(rows) {
            println!("    // {comment}");
            println!(
                "    ({name:?}, {seed}, ({}, {}, {}, {}, {}, {}, {:?})),",
                p.0, p.1, p.2, p.3, p.4, p.5, p.6
            );
        }
        println!("];");
    }
}

fn main() {
    println!("// crates/hardware/tests/sampler_golden.rs");
    print_sampler_pins();
    println!();
    println!("// crates/oneperc/tests/pins/report_cases.rs");
    print_report_pins();
}

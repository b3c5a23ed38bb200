//! Regenerates the golden constants pinned in `tests/sampler_golden.rs`.
//!
//! ```text
//! cargo run -p oneperc-hardware --example regen_pins
//! ```
//!
//! prints one `assert_stream(...)` line per pinned (probability, seed,
//! stream) combination, in the same order and encoding as the test file
//! (outcome `k` at bit `k % 64` of word `k / 64`), then one
//! `assert_uniform(...)` line per seed for the raw words of
//! `FusionSampler::fill_uniform`. When a sampler or RNG
//! change intentionally shifts a stream, paste the printed lines over the
//! pinned ones and say so loudly in the commit — every seeded result in
//! the repository shifts with them. When a change is supposed to leave
//! the streams alone (such as adding word-granular draws on top of the
//! same batch buffer), run this and diff against the test file to prove
//! nothing moved.

use oneperc_hardware::FusionSampler;

/// Outcomes pinned per stream (matches `N` in the test file).
const N: usize = 256;

fn stream_words(p: f64, seed: u64, batched: bool) -> [u64; 4] {
    let mut sampler = FusionSampler::new(p, seed);
    let mut words = [0u64; 4];
    for k in 0..N {
        let success = if batched {
            sampler.sample_batched().is_success()
        } else {
            sampler.sample().is_success()
        };
        if success {
            words[k / 64] |= 1 << (k % 64);
        }
    }
    words
}

fn uniform_words(seed: u64) -> [u64; 4] {
    let mut words = [0u64; 4];
    FusionSampler::new(0.75, seed).fill_uniform(&mut words);
    words
}

fn main() {
    for (batched, label) in [(false, "per-attempt"), (true, "batched")] {
        for p in [0.75f64, 0.66] {
            println!("// {label} stream at p = {p}");
            for seed in [1u64, 7, 42, 2024] {
                let w = stream_words(p, seed, batched);
                println!(
                    "assert_stream({p}, {seed}, {batched}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]);",
                    w[0], w[1], w[2], w[3]
                );
            }
        }
    }
    println!("// uniform words");
    for seed in [1u64, 7, 42, 2024] {
        let w = uniform_words(seed);
        println!(
            "assert_uniform({seed}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]);",
            w[0], w[1], w[2], w[3]
        );
    }
}

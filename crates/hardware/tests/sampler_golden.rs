//! Golden pin of the `FusionSampler` stochastic streams.
//!
//! The time-like fusions of the reshaping pass and the OneQ baseline
//! consume the per-attempt [`FusionSampler::sample`] stream. The layer
//! generator draws everything else with threshold draws
//! ([`FusionSampler::threshold_masks`]): each 64-site word of merging
//! outcomes against the cuts of the merge law, and each word of its bond
//! outcome planes from the batched stream of
//! [`FusionSampler::bernoulli_word`], the single-cut form. Any sampler
//! refactor that silently shifts a stream would change every compiled
//! program while still passing the self-consistent determinism suites, so
//! the first 256 outcomes of the per-attempt and batched streams are pinned
//! here at fixed seeds, for the practical dyadic probability (p = 0.75, a
//! two-bit cut) and a non-dyadic one (p = 0.66, a full-depth cut),
//! together with the masks of one merge-law draw per seed.
//!
//! Encoding: outcome `k` (success = 1) is bit `k % 64` of word `k / 64`.
//!
//! If a change to the RNG shim, the threshold draw or the scalar
//! `gen_bool` path is *intentional*, regenerate these constants with the
//! checked-in tool (`cargo run --release -p oneperc --example regen_pins`
//! prints them in paste-ready form, beside the report pins) and say so
//! loudly in the commit: every seeded result in the repository shifts with
//! them.
//!
//! Layer generation seeds one sampler per layer with `layer_key(seed,
//! index)`; the keys are pinned here too, so the layer streams are pinned
//! end to end.

use oneperc_hardware::{layer_key, FusionSampler, MergeLaw};

const N: usize = 256;

fn collect(mut next: impl FnMut() -> bool) -> [u64; 4] {
    let mut words = [0u64; 4];
    for k in 0..N {
        if next() {
            words[k / 64] |= 1 << (k % 64);
        }
    }
    words
}

fn assert_stream(p: f64, seed: u64, batched: bool, expected: [u64; 4]) {
    let mut sampler = FusionSampler::new(p, seed);
    let got = if batched {
        std::array::from_fn(|_| sampler.bernoulli_word(u64::MAX))
    } else {
        collect(|| sampler.sample().is_success())
    };
    assert_eq!(
        got,
        expected,
        "{} stream shifted at p = {p}, seed {seed}",
        if batched { "batched" } else { "per-attempt" }
    );
    // Per-attempt draws count themselves; threshold draws leave the
    // accounting to the caller.
    let succeeded: u32 = expected.iter().map(|w| w.count_ones()).sum();
    let counted = if batched { (0, 0) } else { (N as u64, u64::from(succeeded)) };
    assert_eq!((sampler.stats().attempted, sampler.stats().succeeded), counted);
}

#[test]
fn per_attempt_stream_is_pinned_at_p075() {
    assert_stream(
        0.75,
        1,
        false,
        [0xbffff7bbf7dbfbbe, 0x9fe7fddb3befbef9, 0xffd777ffffffed67, 0x7bf39beecfe7f65b],
    );
    assert_stream(
        0.75,
        7,
        false,
        [0x7b5dfebdbeb7feef, 0xebdfdff5bdf6d5ef, 0x7f7feffbfdd69dbe, 0xd5fbaff7fd7d5f3f],
    );
    assert_stream(
        0.75,
        42,
        false,
        [0x1fdefe6bd6dff5ea, 0x87def2ffbbffbe76, 0xffbd93ffff5ffbde, 0xf05f5ffbb7a9cdf6],
    );
    assert_stream(
        0.75,
        2024,
        false,
        [0x6f6fd3fbdffb779f, 0xd3fdcfdd2b8fef77, 0x2bfdc6f961eeee75, 0xe3bafff8bf526fcf],
    );
}

#[test]
fn per_attempt_stream_is_pinned_at_p066() {
    assert_stream(
        0.66,
        1,
        false,
        [0xbffbf71bd7dbfbb4, 0x9ba7fd5b3befbef0, 0x7fd357fffeffed67, 0x7bb39beccee7f25b],
    );
    assert_stream(
        0.66,
        7,
        false,
        [0x5b5dfe3dbea7eeab, 0xe3dfcff5b5f6d4ee, 0x6f7fedfb7dd69db4, 0xd5fbaff7f955593d],
    );
    assert_stream(
        0.66,
        42,
        false,
        [0x1edafe62d6dfe5e2, 0x83de22edabfebe76, 0xbfbc92ffff5ffbde, 0xb0495f5bb720cd76],
    );
    assert_stream(
        0.66,
        2024,
        false,
        [0x6d6fd3f2dfe3770f, 0xd3f9cfdd0b8be772, 0x2bed86f961eeae75, 0x63bafff88b526fce],
    );
}

#[test]
fn batched_stream_is_pinned_at_p075() {
    assert_stream(
        0.75,
        1,
        true,
        [0x70bfbfcdf9fc3f76, 0xe6ffeee8fa77abff, 0xf8fee7b579ffdcfb, 0x7b5d7a7eff9feffe],
    );
    assert_stream(
        0.75,
        7,
        true,
        [0xf3f3f7ffd5f16feb, 0xdaeeeedddfefffcf, 0x89cfbc9d8bdfffff, 0xefafa6edbfff5eff],
    );
    assert_stream(
        0.75,
        42,
        true,
        [0xafe9bebbbb99df6e, 0x4c9fe39ff3ffda77, 0x7dfee3ffbbffb58e, 0xfffef7f8fde7feb9],
    );
    assert_stream(
        0.75,
        2024,
        true,
        [0xfdbfdbf9f51bfd2e, 0xd5aef5befcbbbcd7, 0x7177dbff6ddfefbb, 0x577f6feffffbdfea],
    );
}

#[test]
fn batched_stream_is_pinned_at_p066() {
    assert_stream(
        0.66,
        1,
        true,
        [0x70beaf88f8fc3f76, 0x7b5d7a6ef79feffe, 0xd7ffad7f8bdfd74d, 0xd77fdfd7ef1f9115],
    );
    assert_stream(
        0.66,
        7,
        true,
        [0xf1d3e7ffd5f16fcb, 0xe6af86ecbfef5c7f, 0xf759f77db1af18a4, 0x7d1b1fc5ff5df6dd],
    );
    assert_stream(
        0.66,
        42,
        true,
        [0x2f89b2b3bb999766, 0x6556b9fdf76f37b9, 0xfd3d17b72fafee97, 0xf7bb99ceffffdf5b],
    );
    assert_stream(
        0.66,
        2024,
        true,
        [0xf9bedbf8741bfd2e, 0x477f6fefcfeadbea, 0xf62b7c69f7b0b7fa, 0xa7fdf84dfa48f5f7],
    );
}

fn assert_merge_masks(seed: u64, expected: [u64; 7]) {
    let law = MergeLaw::new(3, 3, 0.75);
    let mut got = [0u64; 7];
    FusionSampler::new(0.75, seed).threshold_masks(law.cuts(), u64::MAX, &mut got);
    assert_eq!(got, expected, "merge-law masks shifted at seed {seed}");
}

#[test]
fn merge_masks_are_pinned() {
    assert_merge_masks(
        1,
        [
            0xffefffffffffffff,
            0xffeffdffffffffff,
            0xffeffdffffffffff,
            0xffeffdfffffff7ff,
            0xffeffdfffffff7ff,
            0xffc7d97fffbff7bf,
            0xdfc5d17f6f0bc29b,
        ],
    );
    assert_merge_masks(
        7,
        [
            0xffffffffffffdfff,
            0xffffffffffffdf7f,
            0xffffffffffffdf7f,
            0xfffffffffffedf7f,
            0xffffdffffffedf7f,
            0xbfbfdbfffafe9f7f,
            0x2e2d1a002aae913d,
        ],
    );
    assert_merge_masks(
        42,
        [
            0xffffffff7fffffff,
            0xfbffffff7fffffff,
            0xfbffffff7fffffff,
            0xfbffffff7fffffff,
            0xfbffffff5fffffff,
            0xfbfe5d7f5f7f7f9f,
            0xd1764d6f44766d9f,
        ],
    );
    assert_merge_masks(
        2024,
        [
            0xffffffffffffffff,
            0xffffffffffffffff,
            0xffffffffffffffff,
            0xffffffffffffffff,
            0xffffffffffffefff,
            0xff7fefffafffebf9,
            0x8e512f7f8fedc2f9,
        ],
    );
}

fn assert_layer_key(seed: u64, index: u64, expected: u64) {
    assert_eq!(layer_key(seed, index), expected, "layer key ({seed}, {index}) shifted");
}

#[test]
fn layer_keys_are_pinned() {
    assert_layer_key(0, 0, 0xe220a8397b1dcdaf);
    assert_layer_key(0, 1, 0x6e789e6aa1b965f4);
    assert_layer_key(1, 0, 0xbfef8030ddc2d772);
    assert_layer_key(1, 1, 0x5f552ce482f2aa47);
    assert_layer_key(42, 7, 0x272404a0a3926552);
    assert_layer_key(2024, 1000, 0x00abd86cddc59cc2);
}

#[test]
fn batched_and_per_attempt_streams_differ_but_share_the_rng() {
    // Sanity on the pin itself: the two streams are different functions of
    // the same seeded RNG (threshold draws vs f64 compares), so a refactor
    // that collapses one into the other cannot slip past the constants.
    let mut a = FusionSampler::new(0.75, 1);
    let mut b = FusionSampler::new(0.75, 1);
    let per_attempt = collect(|| a.sample().is_success());
    let batched: [u64; 4] = std::array::from_fn(|_| b.bernoulli_word(u64::MAX));
    assert_ne!(per_attempt, batched);
}

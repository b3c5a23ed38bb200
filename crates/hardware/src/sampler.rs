//! Stochastic fusion outcomes with attempt accounting.

use graphstate::FusionOutcome;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Counters for the `#fusion` metric of the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Fusions attempted (every attempt consumes two photons).
    pub attempted: u64,
    /// Attempts heralded as successful.
    pub succeeded: u64,
}

impl FusionStats {
    /// Attempts heralded as failed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    /// Empirical success rate over the recorded attempts, or `None` when no
    /// attempt was recorded.
    pub fn success_rate(&self) -> Option<f64> {
        if self.attempted == 0 {
            None
        } else {
            Some(self.succeeded as f64 / self.attempted as f64)
        }
    }

    /// Merges another counter into this one.
    pub fn absorb(&mut self, other: FusionStats) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
    }
}

/// The lanes of `lanes` whose uniform is at least `cut`: one cut of a
/// threshold draw (see [`FusionSampler::threshold_masks`]). `plane(j)`
/// returns plane `j`, bit `63 - j` of every lane; it is called for
/// `j = 0, 1, ...` only while some lane is still tied with the cut and the
/// cut has bits left that are not zero.
#[inline(always)]
fn at_least_cut(cut: u64, lanes: u64, mut plane: impl FnMut(usize) -> u64) -> u64 {
    let (mut above, mut tied) = (0u64, lanes);
    // The cut's bits not compared yet, the next one at the top.
    let mut rest = cut;
    let mut j = 0;
    while tied != 0 && rest != 0 {
        // A tied lane whose bit differs from the cut's is decided: above
        // where its bit is 1, below where it is 0.
        let r = plane(j);
        let differs = r ^ 0u64.wrapping_sub(rest >> 63);
        above |= tied & differs & r;
        tied &= !differs;
        rest <<= 1;
        j += 1;
    }
    above | tied
}

/// Seeded source of heralded fusion outcomes.
///
/// Every sampled outcome is counted so the experiment harness can report the
/// exact number of fusions consumed by a compilation, matching the paper's
/// `#fusion` metric.
///
/// The sampler draws in two ways from one seeded `StdRng`:
///
/// - [`FusionSampler::sample`], one heralded outcome per call (one RNG
///   word and an `f64` compare). The time-like fusions of the reshaping
///   pass and the OneQ baseline use it.
/// - [`FusionSampler::threshold_masks`], which compares the uniforms of 64
///   lanes against sorted cut points, one RNG word per bit plane. The
///   layer generator draws every per-site merging outcome and every
///   leaf-leaf outcome plane with it; [`FusionSampler::bernoulli_word`] is
///   its single-cut form.
///
/// # Example
///
/// ```
/// use oneperc_hardware::FusionSampler;
///
/// let mut sampler = FusionSampler::new(0.75, 7);
/// let _ = sampler.sample();
/// assert_eq!(sampler.stats().attempted, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FusionSampler {
    success_prob: f64,
    rng: StdRng,
    stats: FusionStats,
    /// The cut of a Bernoulli(`success_prob`) lane, `p·2^64`: a lane fails
    /// when its uniform is at least the cut. Empty at `p = 1`.
    failure_cut: Option<u64>,
    /// The bit planes of the current threshold draw. Only planes drawn by
    /// that draw are read, so they need no clearing between draws.
    planes: [u64; 64],
}

impl FusionSampler {
    /// Creates a sampler with the given single-attempt success probability
    /// and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics when the probability is outside `(0, 1]`.
    pub fn new(success_prob: f64, seed: u64) -> Self {
        assert!(
            success_prob > 0.0 && success_prob <= 1.0,
            "fusion success probability must be in (0, 1]"
        );
        // Every f64 in [2^-12, 1) is a multiple of 2^-64, so for any
        // practical probability the cut is exact and a lane succeeds with
        // probability exactly `success_prob`.
        let failure_cut = (success_prob < 1.0).then(|| (success_prob * 2f64.powi(64)) as u64);
        FusionSampler {
            success_prob,
            rng: StdRng::seed_from_u64(seed),
            stats: FusionStats::default(),
            failure_cut,
            planes: [0; 64],
        }
    }

    /// Samples one heralded fusion outcome.
    #[inline]
    pub fn sample(&mut self) -> FusionOutcome {
        self.stats.attempted += 1;
        if self.rng.gen_bool(self.success_prob) {
            self.stats.succeeded += 1;
            FusionOutcome::Success
        } else {
            FusionOutcome::Failure
        }
    }

    /// Compares 64 lanes' independent uniform 64-bit values `u` against
    /// the cut points `cuts` (ascending, for a law's outcomes), and sets
    /// `at_least[k]` to the lanes of `lanes` where `u ≥ cuts[k]`. Lanes
    /// outside `lanes` are in no mask.
    ///
    /// The values are read bit-sliced, most significant bit first: RNG
    /// word `j` holds bit `63 - j` of every lane. A lane is decided against
    /// a cut at the first bit where the two differ. A cut is settled once
    /// every lane of `lanes` is decided against it, or once its remaining
    /// bits are all zero (an undecided lane is then `≥` the cut whatever
    /// its remaining bits are), and the draw stops as soon as every cut is
    /// settled. So a single cut at `p = 0.75` costs at most two words, and
    /// no cut (`p = 1`, or a law with one outcome) or no lane costs none.
    ///
    /// The masks are those of the full 64-bit uniforms: the bits never
    /// drawn could not change any comparison. Stopping depends only on bits
    /// already drawn, so the next draw starts on fresh words, and lanes
    /// stay independent of each other and of every other draw. Nothing is
    /// accounted in [`FusionSampler::stats`]: the masks stand for attempts
    /// only the caller knows it makes.
    ///
    /// # Panics
    ///
    /// Panics when `at_least` is shorter than `cuts`.
    #[inline]
    pub fn threshold_masks(&mut self, cuts: &[u64], lanes: u64, at_least: &mut [u64]) {
        assert!(at_least.len() >= cuts.len(), "one mask per cut");
        // Every cut reads the planes drawn so far from `planes`, and draws
        // the ones no earlier cut needed.
        let FusionSampler { rng, planes, .. } = self;
        let mut drawn = 0;
        for (&cut, out) in cuts.iter().zip(at_least.iter_mut()) {
            *out = at_least_cut(cut, lanes, |j| {
                if j == drawn {
                    planes[j] = rng.next_u64();
                    drawn += 1;
                }
                planes[j]
            });
        }
    }

    /// 64 independent Bernoulli(`success_prob`) outcomes on `lanes`
    /// (success = 1, other lanes 0): the threshold draw with the single
    /// cut `p·2^64`, where a lane succeeds when its uniform lies below the
    /// cut. Costs about 7 RNG words per call at `p = 0.9`, 2 at `p = 0.75`
    /// and none at `p = 1`. Nothing is accounted (see
    /// [`FusionSampler::threshold_masks`]).
    #[inline]
    pub fn bernoulli_word(&mut self, lanes: u64) -> u64 {
        match self.failure_cut {
            // A single cut reads each plane once, as it draws it.
            Some(cut) => lanes & !at_least_cut(cut, lanes, |_| self.rng.next_u64()),
            None => lanes,
        }
    }

    /// Accumulated attempt statistics.
    pub fn stats(&self) -> FusionStats {
        self.stats
    }

    /// Draws a uniform random number in `[0, 1)`; exposed for strategy code
    /// that needs auxiliary randomness tied to the same stream.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = FusionSampler::new(0.5, 99);
        let mut b = FusionSampler::new(0.5, 99);
        let seq_a: Vec<_> = (0..32).map(|_| a.sample()).collect();
        let seq_b: Vec<_> = (0..32).map(|_| b.sample()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn empirical_rate_close_to_configured() {
        let mut s = FusionSampler::new(0.75, 3);
        for _ in 0..20_000 {
            s.sample();
        }
        let rate = s.stats().success_rate().unwrap();
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
        assert_eq!(s.stats().attempted, 20_000);
        assert_eq!(s.stats().failed(), s.stats().attempted - s.stats().succeeded);
    }

    #[test]
    fn always_success_at_probability_one() {
        let mut s = FusionSampler::new(1.0, 5);
        assert!((0..100).all(|_| s.sample().is_success()));
    }

    #[test]
    fn stats_absorb() {
        let a = FusionStats { attempted: 10, succeeded: 7 };
        let mut b = FusionStats { attempted: 5, succeeded: 5 };
        b.absorb(a);
        assert_eq!(b.attempted, 15);
        assert_eq!(b.succeeded, 12);
        assert!(FusionStats::default().success_rate().is_none());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_rejected() {
        let _ = FusionSampler::new(0.0, 1);
    }

    #[test]
    fn batched_rate_close_to_configured() {
        // Dyadic (2-digit) and non-dyadic (full-depth) probabilities both
        // come out of the single-cut threshold draw at the right rate.
        for &p in &[0.75f64, 0.66, 0.5, 0.9] {
            let mut s = FusionSampler::new(p, 11);
            let hits: u32 = (0..1_600).map(|_| s.bernoulli_word(u64::MAX).count_ones()).sum();
            let rate = f64::from(hits) / 102_400.0;
            assert!((rate - p).abs() < 0.01, "p {p}: rate {rate}");
        }
    }

    #[test]
    fn batched_certain_probability_always_succeeds() {
        let mut s = FusionSampler::new(1.0, 8);
        assert!((0..200).all(|_| s.bernoulli_word(u64::MAX) == u64::MAX));
        assert_eq!(s.bernoulli_word(0x00f0), 0x00f0, "only the requested lanes");
    }

    #[test]
    fn outcome_words_are_the_batched_stream_unaccounted() {
        // A Bernoulli word is the threshold draw with the single cut p·2^64,
        // negated, on the same words; neither counts an attempt.
        for &p in &[0.75f64, 0.66, 0.9] {
            let mut words = FusionSampler::new(p, 21);
            let mut masks = FusionSampler::new(p, 21);
            let cut = [(p * 2f64.powi(64)) as u64];
            for lanes in [u64::MAX, 0x0123_4567_89ab_cdef, 1] {
                let mut failed = [0u64];
                masks.threshold_masks(&cut, lanes, &mut failed);
                assert_eq!(words.bernoulli_word(lanes), lanes & !failed[0], "p {p}");
            }
            assert_eq!(words.stats(), FusionStats::default());
            assert_eq!(masks.stats(), FusionStats::default());
        }
    }

    #[test]
    fn zero_width_word_draw_is_free() {
        let mut s = FusionSampler::new(0.75, 4);
        assert_eq!(s.bernoulli_word(0), 0);
        let mut masks = [u64::MAX; 3];
        s.threshold_masks(&[1, 1 << 40, u64::MAX], 0, &mut masks);
        assert_eq!(masks, [0; 3], "no lane, no mask");
        // The stream is untouched: the next word matches a fresh sampler's
        // first word.
        let mut fresh = FusionSampler::new(0.75, 4);
        assert_eq!(s.bernoulli_word(u64::MAX), fresh.bernoulli_word(u64::MAX));
    }

    #[test]
    fn word_draws_interleave_with_single_draws() {
        // Threshold draws and per-attempt draws read one RNG stream in
        // turn: a per-attempt draw after a Bernoulli word reads the word
        // after the planes that word drew, and vice versa.
        let mut mixed = FusionSampler::new(0.75, 9);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let word = mixed.bernoulli_word(u64::MAX);
            // At p = 0.75 a word is two planes; a lane fails when both of
            // its bits are set.
            assert_eq!(word, !(rng.next_u64() & rng.next_u64()));
            assert_eq!(mixed.sample().is_success(), rng.gen_bool(0.75));
        }
        assert_eq!(mixed.stats().attempted, 50, "only the per-attempt draws count");
    }

    /// RNG words `after` has drawn beyond `before`, a clone of the same
    /// sampler taken earlier.
    fn words_drawn(before: &FusionSampler, after: &FusionSampler) -> usize {
        let next = after.rng.clone().next_u64();
        let mut probe = before.rng.clone();
        for k in 0..=64 {
            if probe.clone().next_u64() == next {
                return k;
            }
            probe.next_u64();
        }
        panic!("more than 64 words drawn");
    }

    #[test]
    fn threshold_draws_cost_few_words_per_plane() {
        // The price of a bond plane: at most 2 words at p = 0.75 (the
        // dyadic cut 0.11b runs out of bits), none at p = 1, and about 8
        // at p = 0.9, where each word decides about half the undecided
        // lanes.
        for (p, bound) in [(0.75, 2), (1.0, 0)] {
            let mut s = FusionSampler::new(p, 5);
            for _ in 0..1_000 {
                let before = s.clone();
                s.bernoulli_word(u64::MAX);
                let words = words_drawn(&before, &s);
                assert!(words <= bound, "p {p}: {words} words for one plane");
            }
        }
        let mut s = FusionSampler::new(0.9, 5);
        let mut total = 0;
        for _ in 0..1_000 {
            let before = s.clone();
            s.bernoulli_word(u64::MAX);
            total += words_drawn(&before, &s);
        }
        assert!(total < 10_000, "p = 0.9: {total} words for 1,000 planes");
        // A one-outcome law has no cut, and draws nothing.
        let before = s.clone();
        s.threshold_masks(&[], u64::MAX, &mut []);
        assert_eq!(words_drawn(&before, &s), 0);
    }

    #[test]
    fn word_draws_match_the_bit_stream_exactly() {
        // The word-parallel threshold draw against a scalar decode of the
        // same RNG stream: each lane's uniform compared with each cut one
        // bit at a time, most significant first, where word `j` holds bit
        // `63 - j` of every lane and a word is drawn only when some lane
        // still needs it.
        let cut_sets: [&[u64]; 6] = [
            &[0xc000_0000_0000_0000],
            &[(0.9 * 2f64.powi(64)) as u64],
            &[1 << 60, 1 << 62, 1 << 62, 3 << 62],
            &[0, 5, u64::MAX],
            &[0x1234_5678_9abc_def0, 0x8000_0000_0000_0001, 0xffff_ffff_0000_0000],
            &[],
        ];
        for (set, cuts) in cut_sets.iter().enumerate() {
            for seed in 0..20u64 {
                let lanes = match seed % 3 {
                    0 => u64::MAX,
                    1 => 0x0000_ffff_0f0f_0001,
                    _ => (1 << (seed % 64)) | 1,
                };
                let mut s = FusionSampler::new(0.5, seed);
                let mut masks = vec![0u64; cuts.len()];
                s.threshold_masks(cuts, lanes, &mut masks);

                let mut rng = StdRng::seed_from_u64(seed);
                let mut planes: Vec<u64> = Vec::new();
                let mut expected = vec![0u64; cuts.len()];
                for lane in (0..64).filter(|&l| lanes >> l & 1 == 1) {
                    for (k, &cut) in cuts.iter().enumerate() {
                        let mut at_least = true;
                        for j in 0..64 {
                            if cut << j == 0 {
                                break;
                            }
                            if j == planes.len() {
                                planes.push(rng.next_u64());
                            }
                            let (u, c) = (planes[j] >> lane & 1, cut >> (63 - j) & 1);
                            if u != c {
                                at_least = u > c;
                                break;
                            }
                        }
                        expected[k] |= u64::from(at_least) << lane;
                    }
                }
                assert_eq!(masks, expected, "cut set {set}, seed {seed}");
                assert_eq!(s.rng.next_u64(), rng.next_u64(), "cut set {set}, seed {seed}: words");
            }
        }
    }
}

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

/// Seeded source of heralded fusion outcomes.
///
/// Every sampled outcome is counted so the experiment harness can report the
/// exact number of fusions consumed by a compilation, matching the paper's
/// `#fusion` metric.
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
    /// Binary expansion of `success_prob` for the word-batched draw path,
    /// packed **deepest digit first** (bit `j` holds fractional digit
    /// `block_depth - j`), truncated to 64 digits. Zero depth means the
    /// probability is exactly 1.
    block_digits: u64,
    block_depth: u32,
    /// Pre-drawn batched outcomes not yet consumed (next outcome at the
    /// LSB).
    batch: u64,
    batch_len: u32,
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
        // Binary expansion of the probability, MSB (weight 1/2) first.
        // Every f64 in (0, 1) is a dyadic rational, so for practical fusion
        // probabilities (0.75, 0.5, ...) the expansion terminates after a
        // few digits; the 64-digit truncation bounds the bias below 2^-64
        // for the rest (finer than the 2^-53 resolution of the scalar
        // `gen_bool` path).
        let mut msb_first = [false; 64];
        let mut depth = 0u32;
        if success_prob < 1.0 {
            let mut frac = success_prob;
            while frac > 0.0 && depth < 64 {
                frac *= 2.0;
                let bit = frac >= 1.0;
                if bit {
                    frac -= 1.0;
                }
                msb_first[depth as usize] = bit;
                depth += 1;
            }
        }
        let mut block_digits = 0u64;
        for j in 0..depth {
            if msb_first[(depth - 1 - j) as usize] {
                block_digits |= 1 << j;
            }
        }
        FusionSampler {
            success_prob,
            rng: StdRng::seed_from_u64(seed),
            stats: FusionStats::default(),
            block_digits,
            block_depth: depth,
            batch: 0,
            batch_len: 0,
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

    /// Draws 64 independent Bernoulli(`success_prob`) outcome bits in one
    /// word-parallel batch via bit-slicing: one fresh random word per
    /// binary digit of the probability, combined with an AND/OR ladder from
    /// the deepest digit up, so 64 outcomes cost `depth` RNG words instead
    /// of 64 (2 for the practical p = 0.75). Bit `j` of the result is the
    /// `j`-th outcome.
    fn draw_block(&mut self) -> u64 {
        if self.block_depth == 0 {
            // Probability exactly 1: every outcome succeeds, no RNG draw.
            return u64::MAX;
        }
        let mut acc = 0u64;
        for j in 0..self.block_depth {
            let r = self.rng.next_u64();
            acc = if (self.block_digits >> j) & 1 == 1 { r | acc } else { r & acc };
        }
        acc
    }

    /// Samples one heralded fusion outcome from the word-batched stream.
    ///
    /// Outcomes are pre-drawn 64 at a time with bit-sliced Bernoulli words
    /// (see the private `draw_block` for the construction) and consumed
    /// one bit per call, so attempt accounting stays exact under
    /// data-dependent control flow (an attempt is only counted — and a
    /// buffered bit only consumed — when the caller actually samples). The
    /// layer generator's whole-row bond phase runs on this stream; time-like
    /// fusions stay on the per-attempt [`FusionSampler::sample`] stream.
    #[inline]
    pub fn sample_batched(&mut self) -> FusionOutcome {
        if self.batch_len == 0 {
            self.batch = self.draw_block();
            self.batch_len = 64;
        }
        let success = self.batch & 1 == 1;
        self.batch >>= 1;
        self.batch_len -= 1;
        self.stats.attempted += 1;
        if success {
            self.stats.succeeded += 1;
            FusionOutcome::Success
        } else {
            FusionOutcome::Failure
        }
    }

    /// Draws `count` (at most 64) consecutive outcomes of the word-batched
    /// stream in one call; outcome `j` is bit `j` of the result (success =
    /// 1), and bits at positions `>= count` are zero.
    ///
    /// The returned bits are exactly the ones `count` successive
    /// [`FusionSampler::sample_batched`] calls would have produced — the
    /// buffered block and the underlying RNG advance identically — so
    /// callers may mix word-granular and single-bit consumption freely
    /// without perturbing the stream. All `count` outcomes are accounted
    /// as attempts at draw time; the layer generator's whole-row bond fast
    /// path therefore only draws words for bonds it provably attempts.
    ///
    /// # Panics
    ///
    /// Panics when `count > 64`.
    pub fn sample_batched_word(&mut self, count: u32) -> u64 {
        assert!(count <= 64, "at most one word of outcomes per draw");
        if count == 0 {
            return 0;
        }
        let take = self.batch_len.min(count);
        let mut out = self.batch & lo_mask(take);
        self.batch = self.batch.checked_shr(take).unwrap_or(0);
        self.batch_len -= take;
        if take < count {
            let rest = count - take;
            let block = self.draw_block();
            out |= (block & lo_mask(rest)) << take;
            self.batch = block.checked_shr(rest).unwrap_or(0);
            self.batch_len = 64 - rest;
        }
        self.stats.attempted += u64::from(count);
        self.stats.succeeded += u64::from(out.count_ones());
        out
    }

    /// Fills `out` with uniform random words straight from the RNG, for
    /// table-driven draws (the layer generator's merge-law alias table).
    /// Nothing is accounted: the caller records the attempts its draws
    /// stand for with [`FusionSampler::record`].
    #[inline]
    pub fn fill_uniform(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.rng.next_u64();
        }
    }

    /// Fills `out` with bit-sliced Bernoulli(`success_prob`) outcome words:
    /// every bit is an independent heralded outcome, drawn by the same
    /// construction (and, from a fresh sampler, as the same bits) as the
    /// word-batched stream. Nothing is accounted, because the layer
    /// generator pre-draws one bit per *possible* attempt and records with
    /// [`FusionSampler::record`] only the attempts it makes. The pending
    /// batch of [`FusionSampler::sample_batched`] is neither read nor
    /// advanced.
    pub fn fill_outcome_words(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.draw_block();
        }
    }

    /// Accounts attempts resolved from words drawn by
    /// [`FusionSampler::fill_uniform`] or
    /// [`FusionSampler::fill_outcome_words`].
    #[inline]
    pub fn record(&mut self, stats: FusionStats) {
        self.stats.absorb(stats);
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

/// The lowest `k` bits set (`k <= 64`; the full word at `k = 64`).
#[inline]
fn lo_mask(k: u32) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
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
        // come out of the bit-sliced block construction at the right rate.
        for &p in &[0.75f64, 0.66, 0.5, 0.9] {
            let mut s = FusionSampler::new(p, 11);
            let hits = (0..100_000).filter(|_| s.sample_batched().is_success()).count();
            let rate = hits as f64 / 100_000.0;
            assert!((rate - p).abs() < 0.01, "p {p}: rate {rate}");
            assert_eq!(s.stats().attempted, 100_000);
        }
    }

    #[test]
    fn batched_accounting_is_per_consumed_outcome() {
        let mut s = FusionSampler::new(0.75, 3);
        for _ in 0..5 {
            let _ = s.sample_batched();
        }
        // Only the five consumed outcomes count, not the 64-outcome block
        // drawn behind them.
        assert_eq!(s.stats().attempted, 5);
    }

    #[test]
    fn batched_certain_probability_always_succeeds() {
        let mut s = FusionSampler::new(1.0, 8);
        assert!((0..200).all(|_| s.sample_batched().is_success()));
    }

    #[test]
    fn word_draws_match_the_bit_stream_exactly() {
        // sample_batched_word(count) must hand out exactly the bits that
        // `count` successive sample_batched calls would, across word
        // counts that leave the internal block at every alignment.
        for &p in &[0.75f64, 0.66, 1.0] {
            let mut bits = FusionSampler::new(p, 31);
            let mut words = FusionSampler::new(p, 31);
            for &count in &[1u32, 63, 64, 7, 40, 64, 13, 64, 5] {
                let word = words.sample_batched_word(count);
                assert_eq!(word & !lo_mask(count), 0, "bits past count must be zero");
                for j in 0..count {
                    let expect = bits.sample_batched().is_success();
                    assert_eq!(
                        word >> j & 1 == 1,
                        expect,
                        "p {p}: outcome {j} of a {count}-wide draw diverged"
                    );
                }
            }
            assert_eq!(bits.stats(), words.stats(), "p {p}: accounting diverged");
        }
    }

    #[test]
    fn word_draws_interleave_with_single_draws() {
        // A mixed consumer (words, single bits, per-attempt draws) sees the
        // same stream as a pure single-bit consumer of the same pattern:
        // the word draw is a view of the stream, not a fork.
        let mut mixed = FusionSampler::new(0.75, 9);
        let mut plain = FusionSampler::new(0.75, 9);
        let mut mixed_out = Vec::new();
        let mut plain_out = Vec::new();
        for round in 0..5u32 {
            let w = mixed.sample_batched_word(23 + round);
            for j in 0..(23 + round) {
                mixed_out.push(w >> j & 1 == 1);
                plain_out.push(plain.sample_batched().is_success());
            }
            for _ in 0..3 {
                mixed_out.push(mixed.sample_batched().is_success());
                plain_out.push(plain.sample_batched().is_success());
            }
            mixed_out.push(mixed.sample().is_success());
            plain_out.push(plain.sample().is_success());
        }
        assert_eq!(mixed_out, plain_out);
        assert_eq!(mixed.stats(), plain.stats());
    }

    #[test]
    fn outcome_words_are_the_batched_stream_unaccounted() {
        // From a fresh sampler, `fill_outcome_words` hands out exactly the
        // words the batched stream would, and counts none of them.
        for &p in &[0.75f64, 0.66, 1.0] {
            let mut planes = FusionSampler::new(p, 21);
            let mut batched = FusionSampler::new(p, 21);
            let mut words = [0u64; 5];
            planes.fill_outcome_words(&mut words);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(w, batched.sample_batched_word(64), "p {p}: word {i}");
            }
            assert_eq!(planes.stats(), FusionStats::default());
            planes.record(FusionStats { attempted: 3, succeeded: 2 });
            assert_eq!(planes.stats(), FusionStats { attempted: 3, succeeded: 2 });
        }
    }

    #[test]
    fn zero_width_word_draw_is_free() {
        let mut s = FusionSampler::new(0.75, 4);
        assert_eq!(s.sample_batched_word(0), 0);
        assert_eq!(s.stats().attempted, 0, "no outcome consumed, none counted");
        // The stream is untouched: the next full word matches a fresh
        // sampler's first word.
        let mut fresh = FusionSampler::new(0.75, 4);
        assert_eq!(s.sample_batched_word(64), fresh.sample_batched_word(64));
    }
}

//! Fixed-length bitmaps backing the site/bond/port planes of a
//! [`PhysicalLayer`](crate::PhysicalLayer).
//!
//! A [`Bitmap`] stores one bit per lattice site packed 64 to a `u64` word:
//! flat site index `i` lives at bit `i % 64` (LSB-first) of word `i / 64`.
//! All bits at positions `>= len` in the trailing word are kept zero — the
//! *canonical trailing mask* invariant — so two bitmaps holding the same
//! logical bits are `==` as plain word vectors and popcounts need no
//! per-call masking.

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// Storage word holding bit `i`.
#[inline]
pub const fn word_index(i: usize) -> usize {
    i / WORD_BITS
}

/// Bit position of flat index `i` inside its storage word.
#[inline]
pub const fn bit_index(i: usize) -> u32 {
    (i % WORD_BITS) as u32
}

/// Mask selecting the `n % 64` valid bits of the trailing word of an
/// `n`-bit bitmap (all ones when `n` is a multiple of 64).
#[inline]
pub const fn trailing_mask(n: usize) -> u64 {
    let rem = n % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// A dense, fixed-length bit vector with word-granular access.
///
/// # Example
///
/// ```
/// use oneperc_hardware::Bitmap;
///
/// let mut bits = Bitmap::with_len(70, false);
/// bits.set(3, true);
/// bits.set(69, true);
/// assert!(bits.get(3));
/// assert_eq!(bits.count_ones(), 2);
/// assert_eq!(bits.words().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Creates a bitmap of `len` bits, all set to `value`.
    pub fn with_len(len: usize, value: bool) -> Self {
        let mut bits = Bitmap::new();
        bits.reset(len, value);
        bits
    }

    /// Resets the bitmap to `len` bits all equal to `value`, reusing the
    /// existing allocation. The trailing word is masked so the canonical
    /// invariant (no set bit at positions `>= len`) holds for any `len`.
    pub fn reset(&mut self, len: usize, value: bool) {
        let n_words = len.div_ceil(WORD_BITS);
        let fill = if value { u64::MAX } else { 0 };
        self.words.clear();
        self.words.resize(n_words, fill);
        if value && n_words > 0 {
            self.words[n_words - 1] = trailing_mask(len);
        }
        self.len = len;
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[word_index(i)] >> bit_index(i)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        let mask = 1u64 << bit_index(i);
        let w = &mut self.words[word_index(i)];
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits (popcount over the packed words; exact thanks to
    /// the canonical trailing mask).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed storage words (bit `i` at `words()[i / 64] >> (i % 64)`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads storage word `wi` (zero when past the end, so callers may scan
    /// `len.div_ceil(64)` words without bounds juggling).
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words.get(wi).copied().unwrap_or(0)
    }

    /// ORs `bits` in starting at bit `lo` (bit `j` lands at `lo + j`), the
    /// write twin of [`Bitmap::word_at`]. The caller must only set bits
    /// below `len`; debug builds verify the invariant.
    #[inline]
    pub(crate) fn or_word_at(&mut self, lo: usize, bits: u64) {
        debug_assert!(
            lo + WORD_BITS - bits.leading_zeros() as usize <= self.len,
            "word write past the canonical trailing mask"
        );
        let wi = word_index(lo);
        let shift = bit_index(lo);
        self.words[wi] |= bits << shift;
        if shift > 0 && wi + 1 < self.words.len() {
            self.words[wi + 1] |= bits >> (WORD_BITS as u32 - shift);
        }
    }

    /// Replaces storage word `wi` with `bits`, masking the trailing word so
    /// the canonical invariant is preserved.
    #[inline]
    pub(crate) fn store_word(&mut self, wi: usize, bits: u64) {
        let bits = if wi + 1 == self.words.len() { bits & trailing_mask(self.len) } else { bits };
        self.words[wi] = bits;
    }

    /// Extracts bits `lo..hi` (at most 64 of them) as a `u64` with bit `lo`
    /// at position 0. Handles ranges straddling a word boundary.
    ///
    /// # Panics
    ///
    /// Panics when the range is wider than 64 bits or exceeds `len`.
    #[inline]
    pub fn range_word(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo <= hi && hi <= self.len, "bit range {lo}..{hi} out of range");
        let width = hi - lo;
        assert!(width <= WORD_BITS, "bit range wider than one word");
        if width == 0 {
            return 0;
        }
        let wi = word_index(lo);
        let shift = bit_index(lo);
        let mut out = self.words[wi] >> shift;
        if shift > 0 && wi + 1 < self.words.len() {
            out |= self.words[wi + 1] << (WORD_BITS as u32 - shift);
        }
        if width < WORD_BITS {
            out &= (1u64 << width) - 1;
        }
        out
    }

    /// Extracts the 64 bits starting at `lo` as a `u64` with bit `lo` at
    /// position 0, zero-padding past the end of the bitmap.
    ///
    /// This is the row-granular companion of [`Bitmap::range_word`] for
    /// callers that read full words at a fixed offset per row (the
    /// percolation band scans): no width argument, no range masking, and
    /// when `lo` is word-aligned — the common case for row starts — the
    /// extraction is a single load instead of `range_word`'s double shift.
    /// Callers that need a *partial* trailing word keep using `range_word`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > len`.
    #[inline]
    pub fn word_at(&self, lo: usize) -> u64 {
        assert!(lo <= self.len, "bit offset {lo} out of range (len {})", self.len);
        let wi = word_index(lo);
        let shift = bit_index(lo);
        let mut out = self.words.get(wi).copied().unwrap_or(0);
        if shift > 0 {
            out >>= shift;
            if let Some(&next) = self.words.get(wi + 1) {
                out |= next << (WORD_BITS as u32 - shift);
            }
        }
        out
    }

    /// Iterates the indices of set bits in `lo..hi` in increasing order,
    /// scanning whole words and peeling set bits with `trailing_zeros`
    /// instead of testing every position.
    pub fn iter_set_in(&self, lo: usize, hi: usize) -> SetBits<'_> {
        assert!(lo <= hi && hi <= self.len, "bit range {lo}..{hi} out of range");
        SetBits { bits: self, cursor: lo, hi, current: 0, current_base: lo }
    }
}

/// Iterator over the set bits of a [`Bitmap`] range; see
/// [`Bitmap::iter_set_in`].
#[derive(Debug)]
pub struct SetBits<'a> {
    bits: &'a Bitmap,
    /// Next unscanned bit position.
    cursor: usize,
    hi: usize,
    /// Remaining set bits of the word chunk being drained, shifted so bit 0
    /// corresponds to `current_base`.
    current: u64,
    current_base: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.current_base + tz);
            }
            if self.cursor >= self.hi {
                return None;
            }
            // Refill with the next word-aligned chunk of the range.
            let chunk_hi = self.hi.min((word_index(self.cursor) + 1) * WORD_BITS);
            self.current = self.bits.range_word(self.cursor, chunk_hi)
                << bit_index(self.cursor);
            self.current_base = word_index(self.cursor) * WORD_BITS;
            self.cursor = chunk_hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut bits = Bitmap::with_len(130, false);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            bits.set(i, true);
            assert!(bits.get(i), "bit {i}");
        }
        assert_eq!(bits.count_ones(), 8);
        bits.set(64, false);
        assert!(!bits.get(64));
        assert_eq!(bits.count_ones(), 7);
    }

    #[test]
    fn filled_bitmap_masks_trailing_word() {
        for n in [1usize, 63, 64, 65, 100, 128] {
            let bits = Bitmap::with_len(n, true);
            assert_eq!(bits.count_ones(), n, "len {n}");
            let last = *bits.words().last().unwrap();
            assert_eq!(last & !trailing_mask(n), 0, "len {n}: trailing garbage");
        }
    }

    #[test]
    fn equal_logical_bits_are_equal_bitmaps() {
        let mut a = Bitmap::with_len(70, true);
        let mut b = Bitmap::with_len(70, false);
        for i in 0..70 {
            a.set(i, i % 3 == 0);
            b.set(i, i % 3 == 0);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn reset_reuses_and_shrinks_cleanly() {
        let mut bits = Bitmap::with_len(200, true);
        bits.reset(5, false);
        assert_eq!(bits.len(), 5);
        assert_eq!(bits.count_ones(), 0);
        bits.reset(66, true);
        assert_eq!(bits.count_ones(), 66);
        assert_eq!(bits.words().len(), 2);
    }

    #[test]
    fn range_word_straddles_words() {
        let mut bits = Bitmap::with_len(192, false);
        for i in 60..70 {
            bits.set(i, true);
        }
        assert_eq!(bits.range_word(60, 70), 0x3FF);
        assert_eq!(bits.range_word(58, 72), 0x3FF << 2);
        assert_eq!(bits.range_word(0, 64), 0xF << 60);
        assert_eq!(bits.range_word(64, 128), 0x3F);
        assert_eq!(bits.range_word(100, 100), 0);
        // Full-width extraction at an unaligned offset.
        assert_eq!(bits.range_word(32, 96), (0x3FFu64 << 28));
    }

    #[test]
    fn iter_set_in_matches_scalar_scan() {
        let mut bits = Bitmap::with_len(300, false);
        for i in (0..300).filter(|i| i % 7 == 3 || i % 64 == 63) {
            bits.set(i, true);
        }
        for (lo, hi) in [(0, 300), (3, 3), (60, 70), (64, 128), (1, 299), (250, 300)] {
            let fast: Vec<usize> = bits.iter_set_in(lo, hi).collect();
            let slow: Vec<usize> = (lo..hi).filter(|&i| bits.get(i)).collect();
            assert_eq!(fast, slow, "range {lo}..{hi}");
        }
    }

    /// Naive reference: bit `j` of the result is bit `lo + j` of the
    /// bitmap, missing bits zero.
    fn naive_word(bits: &Bitmap, lo: usize, width: usize) -> u64 {
        let mut out = 0u64;
        for j in 0..width {
            if lo + j < bits.len() && bits.get(lo + j) {
                out |= 1u64 << j;
            }
        }
        out
    }

    #[test]
    fn word_at_matches_naive_bit_loop() {
        let mut bits = Bitmap::with_len(200, false);
        for i in (0..200).filter(|i| i % 5 == 1 || i % 64 >= 61) {
            bits.set(i, true);
        }
        // Aligned starts (single-load path), unaligned straddles, offsets
        // near and at the end (zero-padding path).
        for lo in [0usize, 64, 128, 1, 7, 63, 65, 100, 137, 190, 199, 200] {
            assert_eq!(bits.word_at(lo), naive_word(&bits, lo, 64), "lo {lo}");
        }
        // Every offset, exhaustively.
        for lo in 0..=bits.len() {
            assert_eq!(bits.word_at(lo), naive_word(&bits, lo, 64), "lo {lo}");
        }
    }

    #[test]
    fn range_word_matches_naive_bit_loop() {
        let mut bits = Bitmap::with_len(150, false);
        for i in (0..150).filter(|i| i % 3 == 0) {
            bits.set(i, true);
        }
        for (lo, hi) in [(0, 64), (0, 13), (60, 70), (64, 128), (100, 150), (149, 150), (10, 10)] {
            assert_eq!(bits.range_word(lo, hi), naive_word(&bits, lo, hi - lo), "{lo}..{hi}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_at_past_len_panics() {
        let bits = Bitmap::with_len(10, false);
        let _ = bits.word_at(11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_past_len_panics() {
        let bits = Bitmap::with_len(10, false);
        let _ = bits.get(10);
    }
}

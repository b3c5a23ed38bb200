//! The exact per-site law of the root-leaf merging phase, and an alias
//! table that draws it with one uniform word per site.
//!
//! In the semi-static strategy (Sections 4.1–4.3) every site merges its
//! `m` stacked resource states on its own: the cluster starts as one
//! degree-`d` star, and each of the `m - 1` incoming stars is fused onto it
//! by root-leaf attempts. A failed attempt costs one leaf on each side
//! (local complementation recovers the smaller stars) and the retry uses
//! what remains; a success adds the incoming star's surviving degrees minus
//! the fused leaf. The automaton stops merging a star when either side runs
//! out of leaves.
//!
//! A site's outcome is therefore the triple `(leaves, attempts,
//! successes)`, a function of at most `(m - 1) · d` independent Bernoulli
//! trials. [`MergeLaw::new`] computes the exact probability of every
//! triple, one merge at a time: 4-qubit states (`d = 3`) at `m = 3` have 8
//! outcomes. Sites share nothing, so drawing
//! each site's triple from this law yields exactly the joint law of the
//! per-attempt automaton, including the `#fusion` counts.

use std::collections::BTreeMap;

/// One outcome of a site's merging phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Leaves the merged cluster holds when merging ends.
    pub leaves: usize,
    /// Root-leaf fusions attempted.
    pub attempts: u32,
    /// Root-leaf fusions that succeeded.
    pub successes: u32,
}

/// The exact law of a site's merging phase for one `(degree, merging
/// factor, p)`, with a power-of-two alias table over it.
///
/// The table has `2^k` columns, each holding `2^(64 - k)` units of
/// probability mass split between the column's own outcome and one alias.
/// A uniform word draws an outcome branch-free: its top `k` bits pick the
/// column, its low `64 - k` bits compare against the column's threshold.
/// Masses are rounded to multiples of `2^-64`, far below any sampling
/// resolution.
///
/// # Example
///
/// ```
/// use oneperc_hardware::MergeLaw;
///
/// let law = MergeLaw::new(3, 3, 0.75);
/// assert_eq!(law.outcomes().len(), 8);
/// let total: f64 = law.outcomes().iter().map(|&(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// let best = law.outcomes()[law.pick(0)].0;
/// assert!(best.leaves <= 7);
/// ```
#[derive(Debug, Clone)]
pub struct MergeLaw {
    outcomes: Vec<(MergeOutcome, f64)>,
    /// `64 - k`: the word's top `k` bits are the column.
    shift: u32,
    columns: Vec<Column>,
}

/// One column of the alias table.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// Mass of the column's own outcome, in units of `2^-64`: a word whose
    /// low `shift` bits fall below it draws `pick[0]`, any other draws
    /// `pick[1]`.
    threshold: u64,
    /// The column's own outcome, then its alias.
    pick: [u32; 2],
}

impl MergeLaw {
    /// The exact law of the merging automaton for degree-`degree` stars
    /// merged `merging_factor` at a time at fusion success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `merging_factor` is zero or `p` is outside `(0, 1]`.
    pub fn new(degree: usize, merging_factor: usize, p: f64) -> Self {
        assert!(merging_factor >= 1, "merging factor must be positive");
        assert!(p > 0.0 && p <= 1.0, "fusion success probability must be in (0, 1]");
        let outcomes: Vec<(MergeOutcome, f64)> = merge_law(degree, merging_factor, p)
            .into_iter()
            .map(|((leaves, attempts, successes), prob)| {
                (MergeOutcome { leaves, attempts, successes }, prob)
            })
            .collect();

        let column_count = outcomes.len().next_power_of_two().max(2);
        let k = column_count.trailing_zeros();
        let shift = 64 - k;
        let unit = 1u128 << shift;
        // Integer masses summing to exactly 2^64, so the alias
        // construction below closes with no leftover column.
        let mut mass: Vec<u128> =
            outcomes.iter().map(|&(_, prob)| (prob * 2f64.powi(64)) as u128).collect();
        mass.resize(column_count, 0);
        let heaviest = (0..outcomes.len()).max_by_key(|&i| mass[i]).expect("one outcome");
        let total: u128 = mass.iter().sum();
        mass[heaviest] = mass[heaviest] + (1u128 << 64) - total;

        let mut columns: Vec<Column> = (0..column_count)
            .map(|c| Column { threshold: unit as u64, pick: [c as u32; 2] })
            .collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..column_count).partition(|&i| mass[i] < unit);
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            columns[s].threshold = mass[s] as u64;
            columns[s].pick[1] = l as u32;
            mass[l] -= unit - mass[s];
            if mass[l] < unit {
                large.pop();
                small.push(l);
            }
        }
        debug_assert!(small.is_empty(), "integer masses leave no partial column");
        MergeLaw { outcomes, shift, columns }
    }

    /// Every outcome with positive probability, with that probability, in
    /// ascending `(leaves, attempts, successes)` order.
    pub fn outcomes(&self) -> &[(MergeOutcome, f64)] {
        &self.outcomes
    }

    /// The index into [`MergeLaw::outcomes`] that the uniform `word`
    /// draws. The comparison selects an array slot rather than a branch,
    /// so a stream of draws runs without mispredictions.
    #[inline]
    pub fn pick(&self, word: u64) -> usize {
        let column = &self.columns[(word >> self.shift) as usize];
        let low = word & ((1u64 << self.shift) - 1);
        column.pick[usize::from(low >= column.threshold)] as usize
    }
}

/// The law of `(leaves, attempts, successes)` after `merging_factor - 1`
/// merges, built one merge at a time: each state's probability is split
/// over the attempt at which the incoming star fuses, or over running out
/// of leaves, and equal states are added up. The state space stays
/// polynomial in the degree and merging factor.
fn merge_law(degree: usize, merging_factor: usize, p: f64) -> BTreeMap<(usize, u32, u32), f64> {
    let mut law = BTreeMap::from([((degree, 0, 0), 1.0)]);
    for _ in 1..merging_factor {
        let mut next = BTreeMap::new();
        for ((mut cluster, mut attempts, successes), mut prob) in law {
            let mut incoming = degree;
            while cluster > 0 && incoming > 0 {
                attempts += 1;
                *next.entry((cluster - 1 + incoming, attempts, successes + 1)).or_insert(0.0) +=
                    prob * p;
                prob *= 1.0 - p;
                cluster -= 1;
                incoming -= 1;
            }
            *next.entry((cluster, attempts, successes)).or_insert(0.0) += prob;
        }
        next.retain(|_, prob| *prob > 0.0);
        law = next;
    }
    law
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(law: &MergeLaw, leaves: usize, attempts: u32, successes: u32) -> f64 {
        law.outcomes()
            .iter()
            .find(|(o, _)| *o == MergeOutcome { leaves, attempts, successes })
            .map_or(0.0, |&(_, p)| p)
    }

    #[test]
    fn four_qubit_states_at_three_merges_have_eight_outcomes() {
        let (p, q) = (0.75f64, 0.25f64);
        let law = MergeLaw::new(3, 3, p);
        assert_eq!(law.outcomes().len(), 8);
        // Both merges succeed at the first attempt: 7 leaves.
        assert!((find(&law, 7, 2, 2) - p * p).abs() < 1e-15);
        // Every first-merge attempt fails and the second merge is never
        // attempted: the cluster is spent.
        assert!((find(&law, 0, 3, 0) - q * q * q).abs() < 1e-15);
        // Three paths end in (3, 4, 2): 5 → fail, fail, success; 3 → fail,
        // success; 1 → success.
        let three = q * q * p * p + q * p * q * p + q * q * p * p;
        assert!((find(&law, 3, 4, 2) - three).abs() < 1e-15);
    }

    #[test]
    fn single_layer_and_certain_fusion_laws_are_point_masses() {
        let unmerged = MergeLaw::new(6, 1, 0.75);
        assert_eq!(
            unmerged.outcomes(),
            &[(MergeOutcome { leaves: 6, attempts: 0, successes: 0 }, 1.0)]
        );
        let certain = MergeLaw::new(3, 3, 1.0);
        assert_eq!(certain.outcomes().len(), 1);
        assert_eq!(certain.outcomes()[0].0, MergeOutcome { leaves: 7, attempts: 2, successes: 2 });
        for word in [0, u64::MAX, 0x8000_0000_0000_0000, 12345] {
            assert_eq!(unmerged.pick(word), 0);
            assert_eq!(certain.pick(word), 0);
        }
    }

    #[test]
    fn alias_table_carries_each_outcome_mass_exactly() {
        // Sum each outcome's share of every column in units of 2^-64: the
        // table must reproduce the rounded law to the unit.
        for &(degree, m, p) in &[(3usize, 3usize, 0.75f64), (3, 3, 0.66), (2, 7, 0.9), (5, 4, 0.75)]
        {
            let law = MergeLaw::new(degree, m, p);
            let unit = 1u128 << law.shift;
            let mut mass = vec![0u128; law.outcomes().len()];
            for column in &law.columns {
                let [own, alias] = column.pick.map(|i| i as usize);
                if column.threshold > 0 {
                    mass[own] += u128::from(column.threshold);
                }
                mass[alias] += unit - u128::from(column.threshold);
            }
            assert_eq!(mass.iter().sum::<u128>(), 1u128 << 64);
            for (i, &(_, prob)) in law.outcomes().iter().enumerate() {
                let drawn = mass[i] as f64 / 2f64.powi(64);
                assert!((drawn - prob).abs() < 1e-15, "({degree}, {m}, {p}) outcome {i}");
            }
        }
    }
}

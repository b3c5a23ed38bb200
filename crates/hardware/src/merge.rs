//! The exact per-site law of the root-leaf merging phase, and its cut
//! points for drawing it bit-sliced.
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
/// factor, p)`, with its cut points on `u64` uniforms.
///
/// Cut `k` is the mass of outcomes `0..=k` in units of `2^-64`, so a
/// uniform 64-bit `u` draws outcome `i` exactly when `i` cuts are `≤ u`:
/// [`FusionSampler::threshold_masks`](crate::FusionSampler::threshold_masks)
/// draws it for 64 sites at once. Masses are rounded to multiples of
/// `2^-64`, far below any sampling resolution. A law with one outcome has
/// no cut and draws nothing.
///
/// # Example
///
/// ```
/// use oneperc_hardware::MergeLaw;
///
/// let law = MergeLaw::new(3, 3, 0.75);
/// assert_eq!(law.outcomes().len(), 8);
/// assert_eq!(law.cuts().len(), 7);
/// let total: f64 = law.outcomes().iter().map(|&(_, p)| p).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// // Outcomes ascend by leaves, so the top uniforms draw the richest one.
/// let best = law.outcomes()[law.cuts().len()].0;
/// assert_eq!(best.leaves, 7);
/// ```
#[derive(Debug, Clone)]
pub struct MergeLaw {
    outcomes: Vec<(MergeOutcome, f64)>,
    cuts: Vec<u64>,
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

        // Integer masses summing to exactly 2^64, the heaviest outcome
        // taking the rounding, so every cut is below 2^64.
        let mut mass: Vec<u128> =
            outcomes.iter().map(|&(_, prob)| (prob * 2f64.powi(64)) as u128).collect();
        let heaviest = (0..mass.len()).max_by_key(|&i| mass[i]).expect("one outcome");
        let total: u128 = mass.iter().sum();
        mass[heaviest] = mass[heaviest] + (1u128 << 64) - total;
        let cuts = mass[..mass.len() - 1]
            .iter()
            .scan(0u128, |below, &m| {
                *below += m;
                // Only an outcome rounded to no mass at all can reach 2^64.
                Some((*below).min(u128::from(u64::MAX)) as u64)
            })
            .collect();
        MergeLaw { outcomes, cuts }
    }

    /// Every outcome with positive probability, with that probability, in
    /// ascending `(leaves, attempts, successes)` order.
    pub fn outcomes(&self) -> &[(MergeOutcome, f64)] {
        &self.outcomes
    }

    /// The ascending cut points between consecutive outcomes (one fewer
    /// than the outcomes): a uniform `u` draws outcome `i` when exactly
    /// `i` cuts are `≤ u`.
    pub fn cuts(&self) -> &[u64] {
        &self.cuts
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
        assert!(unmerged.cuts().is_empty() && certain.cuts().is_empty(), "nothing to draw");
    }

    #[test]
    fn cuts_carry_each_outcome_mass_exactly() {
        // The gap between consecutive cuts, in units of 2^-64, is each
        // outcome's rounded mass; the last outcome takes the rest of 2^64.
        for &(degree, m, p) in &[(3usize, 3usize, 0.75f64), (3, 3, 0.66), (2, 7, 0.9), (5, 4, 0.75)]
        {
            let law = MergeLaw::new(degree, m, p);
            let cuts = law.cuts();
            assert_eq!(cuts.len() + 1, law.outcomes().len());
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "({degree}, {m}, {p}): cuts ascend");
            let edges: Vec<u128> = std::iter::once(0)
                .chain(cuts.iter().map(|&c| u128::from(c)))
                .chain(std::iter::once(1u128 << 64))
                .collect();
            for (i, &(_, prob)) in law.outcomes().iter().enumerate() {
                let drawn = (edges[i + 1] - edges[i]) as f64 / 2f64.powi(64);
                assert!((drawn - prob).abs() < 1e-15, "({degree}, {m}, {p}) outcome {i}");
            }
        }
    }
}

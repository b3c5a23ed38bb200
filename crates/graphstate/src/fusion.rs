//! Heralded outcomes of type-II fusions.
//!
//! A (type-II) fusion is the simultaneous measurement of `X⊗Z` and `Z⊗X` on
//! two photonic qubits belonging to different entangled states. Both photons
//! are destroyed regardless of the outcome. On success the neighborhoods of
//! the two photons are joined; on failure nothing is joined.
//!
//! Failures are *heralded*: the classical control knows which case occurred
//! and can adjust subsequent operations (collective feed-forward).

/// The heralded outcome of a fusion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionOutcome {
    /// The fusion succeeded; the two neighborhoods were joined.
    Success,
    /// The fusion failed; both photons were lost without joining anything.
    Failure,
}

impl FusionOutcome {
    /// Returns `true` for [`FusionOutcome::Success`].
    pub fn is_success(self) -> bool {
        matches!(self, FusionOutcome::Success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_outcome_helpers() {
        assert!(FusionOutcome::Success.is_success());
        assert!(!FusionOutcome::Failure.is_success());
    }
}

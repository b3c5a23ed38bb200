//! Single-qubit measurement bases.
//!
//! A program node of the MBQC pattern is measured either along `Z`, which
//! removes it from the graph state, or on the X-Y equator at an angle set
//! by the gate it implements. [`MeasBasis`] carries that choice through
//! the program graph and the FlexLattice IR.

use std::fmt;

/// A single-qubit measurement basis, represented by its Bloch-sphere
/// direction.
///
/// The MBQC driver only ever needs `Z` measurements and equatorial
/// measurements `cos(α) X + sin(α) Y`; the direction representation covers
/// both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasBasis {
    dir: [f64; 3],
}

impl MeasBasis {
    /// A measurement along `+Z` (the default basis; removes a qubit from the
    /// graph state).
    pub fn z() -> Self {
        MeasBasis { dir: [0.0, 0.0, 1.0] }
    }

    /// An equatorial measurement `E(α) = cos(α) X + sin(α) Y`.
    pub fn equatorial(alpha: f64) -> Self {
        MeasBasis {
            dir: [alpha.cos(), alpha.sin(), 0.0],
        }
    }

    /// The Bloch direction of this basis.
    pub fn direction(&self) -> [f64; 3] {
        self.dir
    }

    /// Returns `true` when the basis lies (numerically) on the X-Y equator.
    pub fn is_equatorial(&self) -> bool {
        self.dir[2].abs() < 1e-9
    }

    /// Returns `true` when the basis is (numerically) along ±Z.
    pub fn is_z(&self) -> bool {
        self.dir[0].abs() < 1e-9 && self.dir[1].abs() < 1e-9
    }

    /// The equatorial angle `α` when [`MeasBasis::is_equatorial`] holds.
    pub fn equatorial_angle(&self) -> Option<f64> {
        if self.is_equatorial() {
            Some(self.dir[1].atan2(self.dir[0]))
        } else {
            None
        }
    }

    /// Feed-forward adjustment of an equatorial angle: `α → (-1)^s α + tπ`
    /// driven by prior measurement outcomes `s, t ∈ {0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics when the basis is not equatorial.
    pub fn feed_forward(&self, s: bool, t: bool) -> MeasBasis {
        let alpha = self
            .equatorial_angle()
            .expect("feed-forward applies to equatorial measurements");
        let mut new_alpha = if s { -alpha } else { alpha };
        if t {
            new_alpha += std::f64::consts::PI;
        }
        MeasBasis::equatorial(new_alpha)
    }

    /// Approximate equality of directions (up to 1e-9 per component).
    pub fn approx_eq(&self, other: &MeasBasis) -> bool {
        self.dir
            .iter()
            .zip(other.dir.iter())
            .all(|(a, b)| (a - b).abs() < 1e-9)
    }
}

impl fmt::Display for MeasBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:+.3} X {:+.3} Y {:+.3} Z]",
            self.dir[0], self.dir[1], self.dir[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn feed_forward_angle_adjustment() {
        let m = MeasBasis::equatorial(0.7);
        let adj = m.feed_forward(true, true);
        let expected = MeasBasis::equatorial(-0.7 + PI);
        assert!(adj.approx_eq(&expected));
        let unchanged = m.feed_forward(false, false);
        assert!(unchanged.approx_eq(&m));
    }

    #[test]
    fn equatorial_angle_roundtrip() {
        let m = MeasBasis::equatorial(FRAC_PI_2);
        assert!(m.is_equatorial());
        assert!((m.equatorial_angle().unwrap() - FRAC_PI_2).abs() < 1e-12);
        assert!(MeasBasis::z().equatorial_angle().is_none());
    }

    #[test]
    fn display_formats() {
        let m = MeasBasis::z();
        assert!(m.to_string().contains('Z'));
    }
}

//! Gate definitions and lowering into the `{J(α), CZ}` universal set.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use std::fmt;

use crate::hash::StableHasher;

/// A quantum gate in the circuit IR.
///
/// The only gates the MBQC translation understands are [`Gate::J`] and
/// [`Gate::Cz`]; everything else is convenience syntax that
/// [`Gate::lower`] expands into that set. Angles are in radians. Gate order
/// in a circuit is application order (the first gate of the list acts
/// first).
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// The one-qubit gate `J(α) = H · Rz(α)` — the native single-qubit gate
    /// of the MBQC translation.
    J {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle `α` in radians.
        alpha: f64,
    },
    /// Controlled-Z between two qubits (symmetric).
    Cz {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Hadamard.
    H {
        /// Target qubit.
        qubit: usize,
    },
    /// Pauli X.
    X {
        /// Target qubit.
        qubit: usize,
    },
    /// Pauli Z.
    Z {
        /// Target qubit.
        qubit: usize,
    },
    /// Phase gate `S = Rz(π/2)` (up to global phase).
    S {
        /// Target qubit.
        qubit: usize,
    },
    /// `T = Rz(π/4)` (up to global phase).
    T {
        /// Target qubit.
        qubit: usize,
    },
    /// `T† = Rz(-π/4)` (up to global phase).
    Tdg {
        /// Target qubit.
        qubit: usize,
    },
    /// Z-axis rotation.
    Rz {
        /// Target qubit.
        qubit: usize,
        /// Angle in radians.
        theta: f64,
    },
    /// X-axis rotation.
    Rx {
        /// Target qubit.
        qubit: usize,
        /// Angle in radians.
        theta: f64,
    },
    /// Y-axis rotation.
    Ry {
        /// Target qubit.
        qubit: usize,
        /// Angle in radians.
        theta: f64,
    },
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled phase rotation (diagonal `diag(1,1,1,e^{iθ})`).
    Cphase {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Phase angle in radians.
        theta: f64,
    },
    /// Swap of two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Toffoli (CCX) gate.
    Toffoli {
        /// First control.
        a: usize,
        /// Second control.
        b: usize,
        /// Target qubit.
        target: usize,
    },
}

impl Gate {
    /// The qubits this gate acts on.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::J { qubit, .. }
            | Gate::H { qubit }
            | Gate::X { qubit }
            | Gate::Z { qubit }
            | Gate::S { qubit }
            | Gate::T { qubit }
            | Gate::Tdg { qubit }
            | Gate::Rz { qubit, .. }
            | Gate::Rx { qubit, .. }
            | Gate::Ry { qubit, .. } => vec![qubit],
            Gate::Cz { a, b } | Gate::Swap { a, b } => vec![a, b],
            Gate::Cnot { control, target } => vec![control, target],
            Gate::Cphase { control, target, .. } => vec![control, target],
            Gate::Toffoli { a, b, target } => vec![a, b, target],
        }
    }

    /// Returns `true` when the gate is already in the `{J, CZ}` set.
    pub fn is_primitive(&self) -> bool {
        matches!(self, Gate::J { .. } | Gate::Cz { .. })
    }

    /// Feeds this gate's canonical encoding — a discriminant tag, the qubit
    /// operands, the angle bit patterns — into a [`StableHasher`]. Part of
    /// [`Circuit::structural_hash`](crate::Circuit::structural_hash); the
    /// tags are append-only so existing hashes never move.
    pub(crate) fn write_structural(&self, h: &mut StableHasher) {
        match *self {
            Gate::J { qubit, alpha } => {
                h.write_tag(0);
                h.write_usize(qubit);
                h.write_f64(alpha);
            }
            Gate::Cz { a, b } => {
                h.write_tag(1);
                h.write_usize(a);
                h.write_usize(b);
            }
            Gate::H { qubit } => {
                h.write_tag(2);
                h.write_usize(qubit);
            }
            Gate::X { qubit } => {
                h.write_tag(3);
                h.write_usize(qubit);
            }
            Gate::Z { qubit } => {
                h.write_tag(4);
                h.write_usize(qubit);
            }
            Gate::S { qubit } => {
                h.write_tag(5);
                h.write_usize(qubit);
            }
            Gate::T { qubit } => {
                h.write_tag(6);
                h.write_usize(qubit);
            }
            Gate::Tdg { qubit } => {
                h.write_tag(7);
                h.write_usize(qubit);
            }
            Gate::Rz { qubit, theta } => {
                h.write_tag(8);
                h.write_usize(qubit);
                h.write_f64(theta);
            }
            Gate::Rx { qubit, theta } => {
                h.write_tag(9);
                h.write_usize(qubit);
                h.write_f64(theta);
            }
            Gate::Ry { qubit, theta } => {
                h.write_tag(10);
                h.write_usize(qubit);
                h.write_f64(theta);
            }
            Gate::Cnot { control, target } => {
                h.write_tag(11);
                h.write_usize(control);
                h.write_usize(target);
            }
            Gate::Cphase { control, target, theta } => {
                h.write_tag(12);
                h.write_usize(control);
                h.write_usize(target);
                h.write_f64(theta);
            }
            Gate::Swap { a, b } => {
                h.write_tag(13);
                h.write_usize(a);
                h.write_usize(b);
            }
            Gate::Toffoli { a, b, target } => {
                h.write_tag(14);
                h.write_usize(a);
                h.write_usize(b);
                h.write_usize(target);
            }
        }
    }

    /// Lowers the gate into an equivalent sequence over `{J(α), CZ}`
    /// (application order). Primitive gates lower to themselves.
    pub fn lower(&self) -> Vec<Gate> {
        let mut out = Vec::new();
        self.lower_into(&mut out);
        out
    }

    /// Appends [`Gate::lower`]'s sequence to `out`, allocating nothing
    /// beyond `out`'s growth.
    pub(crate) fn lower_into(&self, out: &mut Vec<Gate>) {
        // Helper sequences, all in application order.
        fn rz(out: &mut Vec<Gate>, q: usize, theta: f64) {
            out.extend([Gate::J { qubit: q, alpha: theta }, Gate::J { qubit: q, alpha: 0.0 }]);
        }
        fn rx(out: &mut Vec<Gate>, q: usize, theta: f64) {
            out.extend([Gate::J { qubit: q, alpha: 0.0 }, Gate::J { qubit: q, alpha: theta }]);
        }
        fn h(out: &mut Vec<Gate>, q: usize) {
            out.push(Gate::J { qubit: q, alpha: 0.0 });
        }
        fn cnot(out: &mut Vec<Gate>, c: usize, t: usize) {
            h(out, t);
            out.push(Gate::Cz { a: c, b: t });
            h(out, t);
        }
        match *self {
            Gate::J { .. } | Gate::Cz { .. } => out.push(self.clone()),
            Gate::H { qubit } => h(out, qubit),
            Gate::X { qubit } => rx(out, qubit, PI),
            Gate::Z { qubit } => rz(out, qubit, PI),
            Gate::S { qubit } => rz(out, qubit, FRAC_PI_2),
            Gate::T { qubit } => rz(out, qubit, FRAC_PI_4),
            Gate::Tdg { qubit } => rz(out, qubit, -FRAC_PI_4),
            Gate::Rz { qubit, theta } => rz(out, qubit, theta),
            Gate::Rx { qubit, theta } => rx(out, qubit, theta),
            Gate::Ry { qubit, theta } => {
                // Ry(θ) = Rz(π/2) · Rx(θ) · Rz(-π/2) (application order:
                // Rz(-π/2) first).
                rz(out, qubit, -FRAC_PI_2);
                rx(out, qubit, theta);
                rz(out, qubit, FRAC_PI_2);
            }
            Gate::Cnot { control, target } => cnot(out, control, target),
            Gate::Cphase { control, target, theta } => {
                // Controlled-phase(θ) up to global phase:
                // Rz(θ/2) on both, CNOT, Rz(-θ/2) on target, CNOT.
                rz(out, control, theta / 2.0);
                rz(out, target, theta / 2.0);
                cnot(out, control, target);
                rz(out, target, -theta / 2.0);
                cnot(out, control, target);
            }
            Gate::Swap { a, b } => {
                cnot(out, a, b);
                cnot(out, b, a);
                cnot(out, a, b);
            }
            Gate::Toffoli { a, b, target } => {
                // Standard 6-CNOT, 7-T decomposition.
                let seq = [
                    Gate::H { qubit: target },
                    Gate::Cnot { control: b, target },
                    Gate::Tdg { qubit: target },
                    Gate::Cnot { control: a, target },
                    Gate::T { qubit: target },
                    Gate::Cnot { control: b, target },
                    Gate::Tdg { qubit: target },
                    Gate::Cnot { control: a, target },
                    Gate::T { qubit: b },
                    Gate::T { qubit: target },
                    Gate::H { qubit: target },
                    Gate::Cnot { control: a, target: b },
                    Gate::T { qubit: a },
                    Gate::Tdg { qubit: b },
                    Gate::Cnot { control: a, target: b },
                ];
                for g in &seq {
                    g.lower_into(out);
                }
            }
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::J { qubit, alpha } => write!(f, "J({alpha:.3}) q{qubit}"),
            Gate::Cz { a, b } => write!(f, "CZ q{a}, q{b}"),
            Gate::H { qubit } => write!(f, "H q{qubit}"),
            Gate::X { qubit } => write!(f, "X q{qubit}"),
            Gate::Z { qubit } => write!(f, "Z q{qubit}"),
            Gate::S { qubit } => write!(f, "S q{qubit}"),
            Gate::T { qubit } => write!(f, "T q{qubit}"),
            Gate::Tdg { qubit } => write!(f, "Tdg q{qubit}"),
            Gate::Rz { qubit, theta } => write!(f, "Rz({theta:.3}) q{qubit}"),
            Gate::Rx { qubit, theta } => write!(f, "Rx({theta:.3}) q{qubit}"),
            Gate::Ry { qubit, theta } => write!(f, "Ry({theta:.3}) q{qubit}"),
            Gate::Cnot { control, target } => write!(f, "CNOT q{control}, q{target}"),
            Gate::Cphase { control, target, theta } => {
                write!(f, "CP({theta:.3}) q{control}, q{target}")
            }
            Gate::Swap { a, b } => write!(f, "SWAP q{a}, q{b}"),
            Gate::Toffoli { a, b, target } => write!(f, "CCX q{a}, q{b}, q{target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_gates_lower_to_themselves() {
        let j = Gate::J { qubit: 0, alpha: 1.0 };
        assert_eq!(j.lower(), vec![j.clone()]);
        let cz = Gate::Cz { a: 0, b: 1 };
        assert_eq!(cz.lower(), vec![cz.clone()]);
        assert!(j.is_primitive());
        assert!(cz.is_primitive());
        assert!(!Gate::H { qubit: 0 }.is_primitive());
    }

    #[test]
    fn lowering_only_produces_primitives() {
        let gates = vec![
            Gate::H { qubit: 0 },
            Gate::X { qubit: 1 },
            Gate::Ry { qubit: 0, theta: 0.3 },
            Gate::Cnot { control: 0, target: 1 },
            Gate::Cphase { control: 0, target: 1, theta: 0.5 },
            Gate::Swap { a: 0, b: 1 },
            Gate::Toffoli { a: 0, b: 1, target: 2 },
        ];
        for g in gates {
            for p in g.lower() {
                assert!(p.is_primitive(), "lowering of {g} produced {p}");
            }
        }
    }

    #[test]
    fn lowering_acts_on_expected_qubits() {
        let g = Gate::Cnot { control: 3, target: 7 };
        let lowered = g.lower();
        let mut touched: Vec<usize> = lowered.iter().flat_map(Gate::qubits).collect();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(touched, vec![3, 7]);
    }

    #[test]
    fn toffoli_lowering_has_expected_scale() {
        let lowered = Gate::Toffoli { a: 0, b: 1, target: 2 }.lower();
        // 6 CNOTs → 6 CZ, plus single-qubit J chains; sanity-check the CZ count.
        let czs = lowered.iter().filter(|g| matches!(g, Gate::Cz { .. })).count();
        assert_eq!(czs, 6);
    }

    #[test]
    fn qubits_helper() {
        assert_eq!(Gate::Toffoli { a: 1, b: 2, target: 3 }.qubits(), vec![1, 2, 3]);
        assert_eq!(Gate::Rz { qubit: 5, theta: 0.1 }.qubits(), vec![5]);
    }

    #[test]
    fn display_roundtrip_is_readable() {
        assert_eq!(Gate::Cz { a: 1, b: 2 }.to_string(), "CZ q1, q2");
        assert!(Gate::J { qubit: 0, alpha: 0.5 }.to_string().starts_with("J(0.500)"));
    }
}

//! The [`Circuit`] container and its lowering to the `{J, CZ}` set.

use std::fmt;

use crate::gate::Gate;
use crate::hash::StableHasher;

/// A gate-model quantum circuit.
///
/// Gates are stored in application order. A circuit can contain convenience
/// gates; [`Circuit::lowered`] rewrites everything into the `{J(α), CZ}`
/// universal set expected by the MBQC translation.
///
/// # Example
///
/// ```
/// use oneperc_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H { qubit: 0 });
/// c.push(Gate::Cnot { control: 0, target: 1 });
/// let lowered = c.lowered();
/// assert!(lowered.gates().iter().all(|g| g.is_primitive()));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit { n_qubits, gates: Vec::new() }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gate list in application order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates currently in the circuit.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit index `>= n_qubits`.
    pub fn push(&mut self, gate: Gate) {
        for q in gate.qubits() {
            assert!(
                q < self.n_qubits,
                "gate {gate} references qubit {q} but the circuit has {} qubits",
                self.n_qubits
            );
        }
        self.gates.push(gate);
    }

    /// Appends every gate from an iterator.
    pub fn extend<I: IntoIterator<Item = Gate>>(&mut self, gates: I) {
        for g in gates {
            self.push(g);
        }
    }

    /// Returns an equivalent circuit containing only `{J(α), CZ}` gates.
    pub fn lowered(&self) -> Circuit {
        // A lowering only touches its gate's own qubits, which `push`
        // checked, so the gates go in without a second check.
        let mut gates = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            g.lower_into(&mut gates);
        }
        Circuit { n_qubits: self.n_qubits, gates }
    }

    /// Counts the two-qubit (`CZ`) gates in the lowered form — a rough
    /// measure of the entangling structure of the program.
    pub fn cz_count(&self) -> usize {
        self.lowered()
            .gates
            .iter()
            .filter(|g| matches!(g, Gate::Cz { .. }))
            .count()
    }

    /// Counts the `J` gates in the lowered form.
    pub fn j_count(&self) -> usize {
        self.lowered()
            .gates
            .iter()
            .filter(|g| matches!(g, Gate::J { .. }))
            .count()
    }

    /// A stable 64-bit structural hash of the circuit: qubit count plus the
    /// gate list in application order (the linearization of the gate DAG),
    /// each gate encoded as a discriminant tag, its qubit operands and its
    /// angle bit patterns.
    ///
    /// Two circuits hash equal exactly when they are structurally equal, so
    /// the hash can address content — most importantly the compiled-program
    /// cache of the service layer, where the offline pass is a pure
    /// function of `(circuit, configuration)`. The encoding is pinned by
    /// [`StableHasher`]: the value is reproducible across processes,
    /// platforms and compiler releases, unlike `std::hash`.
    pub fn structural_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        // Version tag of the encoding itself, bumped on any format change.
        h.write_tag(1);
        h.write_usize(self.n_qubits);
        h.write_usize(self.gates.len());
        for gate in &self.gates {
            gate.write_structural(&mut h);
        }
        h.finish()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits, {} gates", self.n_qubits, self.gates.len())?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counts() {
        let mut c = Circuit::new(3);
        c.push(Gate::H { qubit: 0 });
        c.push(Gate::Cnot { control: 0, target: 2 });
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.cz_count(), 1);
        assert!(c.j_count() >= 3);
    }

    #[test]
    #[should_panic(expected = "references qubit")]
    fn push_out_of_range_panics() {
        let mut c = Circuit::new(2);
        c.push(Gate::H { qubit: 5 });
    }

    #[test]
    fn lowered_only_primitives() {
        let mut c = Circuit::new(3);
        c.push(Gate::Toffoli { a: 0, b: 1, target: 2 });
        c.push(Gate::Swap { a: 0, b: 2 });
        let l = c.lowered();
        assert!(l.gates().iter().all(Gate::is_primitive));
        assert_eq!(l.n_qubits(), 3);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(1);
        c.push(Gate::H { qubit: 0 });
        let s = c.to_string();
        assert!(s.contains("circuit on 1 qubits"));
        assert!(s.contains("H q0"));
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(4);
        assert!(c.is_empty());
        assert_eq!(c.cz_count(), 0);
        assert_eq!(c.lowered().len(), 0);
    }
}

//! Error type for IR construction and validation.

use std::error::Error;
use std::fmt;

/// Errors raised while building or validating a FlexLattice IR or an
/// instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A coordinate lies outside the virtual-hardware layer.
    OutOfBounds {
        /// The offending coordinate.
        coord: (usize, usize),
        /// The layer dimensions.
        size: (usize, usize),
    },
    /// A layer index does not exist (yet).
    MissingLayer(usize),
    /// No node has been placed at the referenced position.
    MissingNode {
        /// Layer index.
        layer: usize,
        /// Coordinate inside the layer.
        coord: (usize, usize),
    },
    /// A node has already been placed at the referenced position.
    Occupied {
        /// Layer index.
        layer: usize,
        /// Coordinate inside the layer.
        coord: (usize, usize),
    },
    /// The two endpoints of a spatial edge are not adjacent lattice sites.
    NotAdjacent {
        /// First endpoint.
        a: (usize, usize),
        /// Second endpoint.
        b: (usize, usize),
    },
    /// A node already has a temporal connection in the requested direction;
    /// the virtual hardware allows at most one towards preceding layers and
    /// one towards subsequent layers.
    TemporalConflict {
        /// Layer index of the node.
        layer: usize,
        /// Coordinate of the node.
        coord: (usize, usize),
    },
    /// A temporal edge was requested towards a layer that is not strictly
    /// earlier.
    InvalidTemporalOrder {
        /// Source (earlier) layer.
        from: usize,
        /// Destination (later) layer.
        to: usize,
    },
    /// An instruction referenced virtual memory contents that do not exist
    /// (retrieve without a matching store).
    MemoryUnderflow {
        /// Coordinate whose virtual memory was empty.
        coord: (usize, usize),
    },
    /// A value does not fit its field in the compact storage of an IR node
    /// or an instruction record.
    RecordOverflow {
        /// Which field: `"cell"` (a `y·w + x` index: 32 bits in an IR node,
        /// 29 in an instruction record), `"layer"` (a temporal edge's
        /// source layer), `"g_node"` (a program id: 56 bits in an IR node,
        /// 32 in an instruction record), `"arena"` (the IR's node count),
        /// `"fetch"` (a program's cross-layer edge count) or `"records"`
        /// (a program's record count).
        field: &'static str,
        /// The value that does not fit.
        value: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::OutOfBounds { coord, size } => write!(
                f,
                "coordinate ({}, {}) outside the {}x{} virtual layer",
                coord.0, coord.1, size.0, size.1
            ),
            IrError::MissingLayer(l) => write!(f, "layer {l} does not exist"),
            IrError::MissingNode { layer, coord } => {
                write!(f, "no node at layer {layer}, coordinate ({}, {})", coord.0, coord.1)
            }
            IrError::Occupied { layer, coord } => {
                write!(f, "layer {layer} coordinate ({}, {}) already holds a node", coord.0, coord.1)
            }
            IrError::NotAdjacent { a, b } => write!(
                f,
                "coordinates ({}, {}) and ({}, {}) are not lattice neighbors",
                a.0, a.1, b.0, b.1
            ),
            IrError::TemporalConflict { layer, coord } => write!(
                f,
                "node at layer {layer} coordinate ({}, {}) already has a temporal edge in that direction",
                coord.0, coord.1
            ),
            IrError::InvalidTemporalOrder { from, to } => {
                write!(f, "temporal edge must go forward in time (from layer {from} to {to})")
            }
            IrError::MemoryUnderflow { coord } => write!(
                f,
                "virtual memory at coordinate ({}, {}) is empty",
                coord.0, coord.1
            ),
            IrError::RecordOverflow { field, value } => {
                write!(f, "{field} {value} does not fit its compact record field")
            }
        }
    }
}

impl Error for IrError {}

/// Narrows a value into a 32-bit record field named `field`.
pub(crate) fn narrow(value: usize, field: &'static str) -> Result<u32, IrError> {
    u32::try_from(value).map_err(|_| IrError::RecordOverflow { field, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = IrError::OutOfBounds { coord: (5, 1), size: (4, 4) };
        assert!(e.to_string().contains("(5, 1)"));
        assert!(e.to_string().contains("4x4"));
        let e = IrError::InvalidTemporalOrder { from: 3, to: 1 };
        assert!(e.to_string().contains("forward in time"));
    }

    #[test]
    fn error_trait_object_friendly() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<IrError>();
    }
}

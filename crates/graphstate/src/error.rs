//! Error type shared by graph-state operations.

use std::error::Error;
use std::fmt;

/// Errors produced by operations on [`crate::GraphState`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced by the operation does not exist (or has already
    /// been removed / measured out).
    MissingVertex(usize),
    /// The two vertices passed to a pairwise operation are the same.
    SelfLoop(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingVertex(v) => write!(f, "vertex {v} does not exist"),
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = GraphError::MissingVertex(3);
        assert_eq!(e.to_string(), "vertex 3 does not exist");
        let e = GraphError::SelfLoop(1);
        assert!(e.to_string().contains("self-loop"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}

//! Errors of the sharded index, convertible into the workspace-wide
//! [`plsh_core::PlshError`] so multi-node and single-node callers share
//! one `Result` type end-to-end.

use std::fmt;

use plsh_core::PlshError;

/// Convenience alias for cluster operations.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Errors produced by the coordinator and its nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The cluster topology (node count, insert window) is invalid.
    Topology(String),
    /// A node engine rejected an operation; the node's error is carried
    /// verbatim.
    Node(PlshError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Topology(msg) => write!(f, "invalid cluster topology: {msg}"),
            ClusterError::Node(e) => write!(f, "node engine error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<PlshError> for ClusterError {
    fn from(e: PlshError) -> Self {
        ClusterError::Node(e)
    }
}

impl From<ClusterError> for PlshError {
    fn from(e: ClusterError) -> Self {
        match e {
            ClusterError::Topology(msg) => {
                PlshError::InvalidParams(format!("cluster topology: {msg}"))
            }
            ClusterError::Node(e) => e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_core_error() {
        let node = ClusterError::from(PlshError::EmptyVector);
        assert_eq!(PlshError::from(node), PlshError::EmptyVector);
        let topo = ClusterError::Topology("window must divide nodes".into());
        match PlshError::from(topo) {
            PlshError::InvalidParams(msg) => assert!(msg.contains("window")),
            other => panic!("unexpected conversion: {other:?}"),
        }
    }
}

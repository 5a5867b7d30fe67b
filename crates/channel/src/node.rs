//! Station (node) identities.
//!
//! The paper's model (§2): each station may hold at most one message at a
//! time; a station holding a message is *active*, a station without one is
//! *idle*; a station becomes idle again once its message has been delivered
//! (acknowledged). Stations have no identifiers and no knowledge of `n` or
//! `k` as far as the *protocols* are concerned — the [`NodeId`] defined here
//! exists only so the simulator and traces can refer to stations; protocol
//! implementations never read it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a station, used only by the simulation harness (the
/// protocols themselves are anonymous, as required by the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(value: u64) -> Self {
        NodeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        let id: NodeId = 7u64.into();
        assert_eq!(id, NodeId(7));
        assert_eq!(format!("{id}"), "node#7");
    }
}

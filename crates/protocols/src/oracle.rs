//! The known-k oracle: the fair-protocol optimum reference.
//!
//! Section 5 of the paper puts the measured ratios in perspective by noting
//! that *"the smallest ratio expected by any algorithm in which nodes use the
//! same probability at any step is e"*. The protocol that attains that bound
//! needs to know the exact number of messages left: every active station
//! transmits with probability `1/m` where `m` is the number of undelivered
//! messages, so each slot delivers with probability `≈ 1/e` and the expected
//! makespan is `≈ e·k`.
//!
//! This oracle is not part of the paper's evaluated line-up (it requires
//! information the paper's model does not provide); it is included as the
//! natural lower-bound reference for the robustness line-up, the saturation
//! map and the `protocol_comparison` example.

use crate::traits::FairProtocol;
use serde::{Deserialize, Serialize};

/// Fair protocol that transmits with probability `1/(messages remaining)`,
/// requiring exact knowledge of the initial `k` (and of every delivery, which
/// the channel provides).
///
/// # Example
/// ```
/// use mac_protocols::{FairProtocol, KnownKOracle};
/// let mut oracle = KnownKOracle::new(4);
/// assert_eq!(oracle.transmission_probability(), 0.25);
/// oracle.advance(true); // one message delivered
/// assert!((oracle.transmission_probability() - 1.0 / 3.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnownKOracle {
    remaining: u64,
}

impl KnownKOracle {
    /// Creates the oracle for an instance with `k` messages.
    pub fn new(k: u64) -> Self {
        Self { remaining: k }
    }

    /// Number of messages the oracle believes are still undelivered.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl FairProtocol for KnownKOracle {
    fn transmission_probability(&self) -> f64 {
        if self.remaining == 0 {
            0.0
        } else {
            1.0 / self.remaining as f64
        }
    }

    fn advance(&mut self, delivered: bool) {
        if delivered {
            self.remaining = self.remaining.saturating_sub(1);
        }
    }

    fn checkpoint_words(&self) -> Vec<u64> {
        vec![self.remaining]
    }

    /// Restores into a state built for the run's `k`: the count only ever
    /// falls from `k`, so a larger one comes from no run.
    fn restore_words(&mut self, words: &[u64]) -> bool {
        let [remaining] = words else {
            return false;
        };
        if *remaining > self.remaining {
            return false;
        }
        self.remaining = *remaining;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_tracks_remaining_messages() {
        let mut oracle = KnownKOracle::new(10);
        assert_eq!(oracle.transmission_probability(), 0.1);
        for delivered in [true, true, false, true] {
            oracle.advance(delivered);
        }
        assert_eq!(oracle.remaining(), 7);
        assert!((oracle.transmission_probability() - 1.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn zero_remaining_means_silent() {
        let mut oracle = KnownKOracle::new(1);
        oracle.advance(true);
        assert_eq!(oracle.remaining(), 0);
        assert_eq!(oracle.transmission_probability(), 0.0);
        // Saturates instead of underflowing.
        oracle.advance(true);
        assert_eq!(oracle.remaining(), 0);
    }

    #[test]
    fn single_station_transmits_immediately() {
        let oracle = KnownKOracle::new(1);
        assert_eq!(oracle.transmission_probability(), 1.0);
    }

    #[test]
    fn restore_rejects_more_messages_than_the_run_has() {
        let mut oracle = KnownKOracle::new(10);
        oracle.advance(true);
        assert_eq!(oracle.checkpoint_words(), vec![9]);
        let mut fresh = KnownKOracle::new(10);
        assert!(fresh.restore_words(&[9]));
        assert_eq!(fresh, oracle);
        assert!(KnownKOracle::new(10).restore_words(&[10]));
        assert!(!KnownKOracle::new(10).restore_words(&[11]));
        assert!(!KnownKOracle::new(10).restore_words(&[9, 0]));
    }

    #[test]
    fn empty_instance_is_silent() {
        let oracle = KnownKOracle::new(0);
        assert_eq!(oracle.transmission_probability(), 0.0);
    }
}

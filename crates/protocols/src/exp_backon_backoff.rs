//! Exp Back-on/Back-off (Algorithm 2 of the paper).
//!
//! Exp Back-on/Back-off is the paper's second protocol: a contention-window
//! ("sawtooth") strategy that, like One-fail Adaptive, requires no knowledge
//! of the number of contenders and no collision detection. It solves static
//! k-selection within `4(1 + 1/δ)k` slots with probability at least
//! `1 − 1/k^c` for big enough `k` (Theorem 2).
//!
//! The window-length sequence is produced by two nested loops
//! (Algorithm 2):
//!
//! ```text
//! for i = 1, 2, …            # phases  (back-on: the window doubles)
//!     w ← 2^i
//!     while w ≥ 1:           # rounds  (back-off: the window shrinks)
//!         use a window of w slots (transmit in one uniform slot of it)
//!         w ← w · (1 − δ)
//! ```
//!
//! The intuition (§4): once the phase reaches `k ≤ 2^i < 2k`, each round is a
//! balls-in-bins experiment in which, w.h.p., at least a `δ` fraction of the
//! remaining messages are delivered (Lemma 1); shrinking the window
//! geometrically matches the shrinking number of survivors, and the doubling
//! outer loop replaces knowledge of `k`.
//!
//! `w` is maintained as a real number; the window actually used has
//! `⌊w⌋ ≥ 1` slots (the paper does not specify the rounding; any rounding
//! preserves the analysis since it changes each window by at most one slot).

use crate::error::ParameterError;
use crate::traits::WindowSchedule;
use serde::{Deserialize, Serialize};

/// The `δ` used in the paper's simulations (§5).
pub const PAPER_DELTA: f64 = 0.366;

/// Window schedule of the Exp Back-on/Back-off protocol.
///
/// # Example
/// ```
/// use mac_protocols::{ExpBackonBackoff, WindowSchedule};
/// let mut ebb = ExpBackonBackoff::with_default_delta();
/// // Phase 1: w = 2, then 2·0.634 = 1.268, then 0.803 < 1 ends the phase.
/// assert_eq!(ebb.next_window(), 2);
/// assert_eq!(ebb.next_window(), 1);
/// // Phase 2 starts with w = 4.
/// assert_eq!(ebb.next_window(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpBackonBackoff {
    // lint:allow(checkpoint-coverage): construction parameter — restore
    // rebuilds it from the ProtocolKind that recreates the instance, so
    // the checkpoint carries only the mutable loop variables.
    delta: f64,
    /// Current phase `i ≥ 1` (the outer loop variable).
    phase: u32,
    /// Current real-valued window size `w` (the inner loop variable).
    w: f64,
}

impl ExpBackonBackoff {
    /// Creates the schedule with the given `δ`.
    ///
    /// # Panics
    /// Panics if `δ` is outside `(0, 1/e)`; use
    /// [`ExpBackonBackoff::try_new`] for fallible construction.
    pub fn new(delta: f64) -> Self {
        Self::try_new(delta).expect("invalid Exp Back-on/Back-off parameter")
    }

    /// Creates the schedule with the given `δ`.
    ///
    /// # Errors
    /// Returns an error unless `0 < δ < 1/e` (Theorem 2's admissible range).
    pub fn try_new(delta: f64) -> Result<Self, ParameterError> {
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 / std::f64::consts::E {
            return Err(ParameterError::new(
                "delta",
                delta,
                "Exp Back-on/Back-off requires 0 < delta < 1/e ~= 0.3679",
            ));
        }
        Ok(Self {
            delta,
            phase: 1,
            w: 2.0,
        })
    }

    /// Creates the schedule with the paper's simulation value `δ = 0.366`.
    pub fn with_default_delta() -> Self {
        Self::new(PAPER_DELTA)
    }

    /// The configured `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The current phase (outer-loop index, starting at 1).
    pub fn phase(&self) -> u32 {
        self.phase
    }
}

impl WindowSchedule for ExpBackonBackoff {
    fn next_window(&mut self) -> u64 {
        if self.w < 1.0 {
            // Inner loop exhausted: start the next phase with w = 2^(i+1).
            self.phase += 1;
            self.w = 2.0f64.powi(self.phase as i32);
        }
        let window = self.w.floor().max(1.0);
        self.w *= 1.0 - self.delta;
        // Windows are capped so that pathological δ→0 sweeps cannot overflow
        // the u64 slot arithmetic of the simulator.
        window.min(u64::MAX as f64 / 4.0) as u64
    }

    fn checkpoint_words(&self) -> Vec<u64> {
        // `w` is a running product of (1 − δ) factors — captured verbatim,
        // since recomputing it from the phase would round differently.
        vec![u64::from(self.phase), self.w.to_bits()]
    }

    fn restore_words(&mut self, words: &[u64]) -> bool {
        let [phase, w] = words else {
            return false;
        };
        let w = f64::from_bits(*w);
        // Phases count up from 1, and `w` is a positive running product:
        // a phase of 0, a non-finite `w` or one at or below 0 comes from no
        // run (a NaN `w` would run one-slot windows up to the cap).
        let phase = match u32::try_from(*phase) {
            Ok(phase) if phase >= 1 && w.is_finite() && w > 0.0 => phase,
            _ => return false,
        };
        self.phase = phase;
        self.w = w;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_delta_outside_range() {
        assert!(ExpBackonBackoff::try_new(0.0).is_err());
        assert!(ExpBackonBackoff::try_new(-0.1).is_err());
        assert!(ExpBackonBackoff::try_new(1.0 / std::f64::consts::E).is_err());
        assert!(ExpBackonBackoff::try_new(0.5).is_err());
        assert!(ExpBackonBackoff::try_new(f64::INFINITY).is_err());
        assert!(ExpBackonBackoff::try_new(0.366).is_ok());
        assert!(ExpBackonBackoff::try_new(0.01).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid Exp Back-on/Back-off parameter")]
    fn new_panics_on_invalid_delta() {
        let _ = ExpBackonBackoff::new(0.9);
    }

    #[test]
    fn paper_delta_schedule_prefix() {
        // With δ = 0.366 the real-valued w sequence is
        // phase 1: 2, 1.268, (0.804 < 1)
        // phase 2: 4, 2.536, 1.608, 1.019, (0.646 < 1)
        // phase 3: 8, ...
        let mut ebb = ExpBackonBackoff::with_default_delta();
        let seq: Vec<u64> = (0..8).map(|_| ebb.next_window()).collect();
        assert_eq!(seq, vec![2, 1, 4, 2, 1, 1, 8, 5]);
        assert_eq!(ebb.phase(), 3);
    }

    #[test]
    fn phases_double_the_starting_window() {
        let mut ebb = ExpBackonBackoff::new(0.2);
        let mut phase_starts = Vec::new();
        let mut last_phase = 0;
        for _ in 0..200 {
            // The phase is advanced inside next_window, so read it afterwards
            // to attribute the window to the phase it belongs to.
            let w = ebb.next_window();
            let phase = ebb.phase();
            if phase != last_phase {
                phase_starts.push(w);
                last_phase = phase;
            }
        }
        // First windows of successive phases are 2, 4, 8, 16, ...
        for (i, &w) in phase_starts.iter().enumerate() {
            assert_eq!(w, 1u64 << (i + 1), "phase {} start", i + 1);
        }
    }

    #[test]
    fn windows_within_a_phase_shrink_geometrically() {
        let delta = 0.3;
        let mut ebb = ExpBackonBackoff::new(delta);
        let mut previous = u64::MAX;
        let mut phase = ebb.phase();
        for _ in 0..500 {
            let w = ebb.next_window();
            let current_phase = ebb.phase();
            if current_phase == phase {
                assert!(w <= previous, "windows must not grow within a phase");
            } else {
                phase = current_phase;
            }
            previous = w;
            assert!(w >= 1);
        }
    }

    #[test]
    fn restore_rejects_states_no_run_reaches() {
        let mut ebb = ExpBackonBackoff::with_default_delta();
        for _ in 0..20 {
            ebb.next_window();
        }
        let words = ebb.checkpoint_words();
        assert!(ExpBackonBackoff::with_default_delta().restore_words(&words));
        // Words: [phase, w].
        let bits = f64::to_bits;
        let unreachable = [
            (0, 0),
            (0, u64::MAX),
            (1, bits(f64::NAN)),
            (1, bits(f64::INFINITY)),
            (1, bits(0.0)),
            (1, bits(-1.0)),
        ];
        for (index, word) in unreachable {
            let mut bad = words.clone();
            bad[index] = word;
            let mut fresh = ExpBackonBackoff::with_default_delta();
            assert!(!fresh.restore_words(&bad), "word {index} = {word:#x}");
            assert_eq!(fresh, ExpBackonBackoff::with_default_delta());
        }
    }

    #[test]
    fn total_slots_of_phase_i_is_close_to_2_to_i_over_delta() {
        // The analysis telescopes the schedule: a full phase starting at 2^i
        // has about 2^i/δ slots. Check the order of magnitude for phase 10.
        let delta = 0.366;
        let mut ebb = ExpBackonBackoff::new(delta);
        let mut total_phase_10 = 0u64;
        for _ in 0..10_000 {
            let w = ebb.next_window();
            let phase = ebb.phase();
            if phase == 10 {
                total_phase_10 += w;
            }
            if phase > 10 {
                break;
            }
        }
        let expected = 1024.0 / delta;
        assert!(
            (total_phase_10 as f64) > 0.8 * expected && (total_phase_10 as f64) < 1.2 * expected,
            "phase-10 slots {total_phase_10} vs expected ~{expected}"
        );
    }
}

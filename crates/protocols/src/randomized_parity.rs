//! Randomised-parity One-fail Adaptive: the AT/BT deadlock breaker.
//!
//! Stock One-fail Adaptive ([`crate::one_fail`]) alternates its AT and BT
//! rules strictly by slot parity *relative to activation*. Two station
//! groups activated one slot apart therefore land on **opposite** parities:
//! whenever one group runs an AT-step, the other runs a BT-step — and a
//! fresh BT-step (σ = 0) transmits with probability 1, so a group of two or
//! more fresh stations jams every one of the other group's AT-steps, and
//! vice versa, forever. The `Bursts [(0, 40), (1, 40)]` schedule never
//! completes (the parity deadlock of `crates/sim/DESIGN.md` §6).
//!
//! This variant keeps Algorithm 1's two rules and update amounts unchanged
//! and randomises only *which* slots are AT-steps: the parity of step `s`
//! is the Thue–Morse bit `t_{(s−1) mod 64}` (AT where the bit is 0) instead
//! of `s mod 2`. The pattern is
//!
//! * **balanced** — exactly 32 of every 64 steps are AT-steps, the same
//!   1/2 density the Theorem 1 analysis budgets for, so the makespan
//!   envelope carries over empirically (pinned by the regression tests);
//! * **shift-decorrelated** — the Thue–Morse word contains adjacent
//!   same-parity pairs (`00` and `11`), so two groups offset by one slot
//!   share AT-steps on a constant fraction of slots. Shared AT-steps are
//!   where both density estimators decay and lone transmissions get
//!   through: the two-cohort deadlock cannot lock in;
//! * **public and deterministic** — every station derives it from its own
//!   step counter, so stations activated together remain in lockstep and
//!   the protocol stays a [`FairProtocol`] servable by the cohort engine.
//!
//! Because the pattern is periodic with period 64, the schedule position is
//! `(s − 1) mod 64`: together with the two probability tracks it pins the
//! entire state, so the cohort engine's exact-merge contract holds with a
//! 64-valued phase instead of One-fail Adaptive's 2-valued parity.

use crate::error::ParameterError;
use crate::one_fail::{DELTA_MAX, PAPER_DELTA};
use crate::traits::FairProtocol;
use serde::{Deserialize, Serialize};

/// The 64-step AT/BT parity word: bit `n` is the Thue–Morse bit
/// `t_n = popcount(n) mod 2`. Balanced (32 ones) and cube-free, with both
/// `00` and `11` adjacent pairs — the property that de-synchronises groups
/// activated one slot apart.
const fn thue_morse_word() -> u64 {
    let mut word = 0u64;
    let mut n = 0u64;
    while n < 64 {
        word |= ((n.count_ones() as u64) & 1) << n;
        n += 1;
    }
    word
}

/// The 64-step AT/BT parity word: bit `n` is the Thue–Morse bit
/// `t_n = popcount(n) mod 2` (see `thue_morse_word`).
pub const PARITY_WORD: u64 = thue_morse_word();

/// Deliveries between exact re-anchorings of the cached `log₂(σ + 1)`
/// (same policy as stock One-fail Adaptive).
const LOG2_REBASE_PERIOD: u64 = 4096;

/// Shared state of the randomised-parity One-fail Adaptive variant.
///
/// # Example
/// ```
/// use mac_protocols::{FairProtocol, RandomizedParityOneFail};
/// let mut rp = RandomizedParityOneFail::with_default_delta();
/// // Step 1 is an AT-step (Thue–Morse starts 0): p = 1/κ̃ = 1/(δ+1).
/// assert!((rp.transmission_probability() - 1.0 / 3.72).abs() < 1e-12);
/// rp.advance(false);
/// rp.advance(false);
/// // Steps 2 and 3 are BT-steps (t₁ = t₂ = 1): σ = 0, so p = 1.
/// assert_eq!(rp.transmission_probability(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomizedParityOneFail {
    // lint:allow(checkpoint-coverage): construction parameter — restore
    // rebuilds it from the ProtocolKind that recreates the instance, so
    // the checkpoint carries only the mutable estimator state.
    delta: f64,
    /// Density estimator κ̃ (same update rule as Algorithm 1).
    kappa_estimate: f64,
    /// Messages-received counter σ.
    received: u64,
    /// Next communication step, numbered from 1 as in the paper.
    step: u64,
    /// Cached `log₂(σ + 1)`, Taylor-maintained as in stock One-fail
    /// Adaptive.
    log2_sigma: f64,
    /// Cached `1/(1 + log2_sigma)` — the BT-step probability.
    bt_probability: f64,
}

impl RandomizedParityOneFail {
    /// Creates the protocol state with the given `δ`.
    ///
    /// # Errors
    /// Returns an error if `δ` is outside `(e, Σ_{j=1..5}(5/6)^j]` — the
    /// variant keeps Algorithm 1's admissible range.
    pub fn try_new(delta: f64) -> Result<Self, ParameterError> {
        if !delta.is_finite() || delta <= std::f64::consts::E || delta > DELTA_MAX {
            return Err(ParameterError::new(
                "delta",
                delta,
                "randomised-parity One-fail requires e < delta <= sum_{j=1..5}(5/6)^j ~= 2.9906",
            ));
        }
        Ok(Self {
            delta,
            kappa_estimate: delta + 1.0,
            received: 0,
            step: 1,
            log2_sigma: 0.0,
            bt_probability: 1.0,
        })
    }

    /// Creates the protocol with the paper's simulation value `δ = 2.72`.
    pub fn with_default_delta() -> Self {
        Self::try_new(PAPER_DELTA).expect("paper delta is admissible")
    }

    /// The configured `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Current value of the density estimator `κ̃`.
    pub fn kappa_estimate(&self) -> f64 {
        self.kappa_estimate
    }

    /// Number of messages received so far, the paper's `σ`.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True if the *next* step is a BT-step: the Thue–Morse bit of the
    /// step's position in the 64-step parity word.
    pub fn next_step_is_bt(&self) -> bool {
        (PARITY_WORD >> ((self.step - 1) % 64)) & 1 == 1
    }

    fn floor(&self) -> f64 {
        self.delta + 1.0
    }
}

impl FairProtocol for RandomizedParityOneFail {
    fn name(&self) -> &'static str {
        "randomized-parity-one-fail"
    }

    fn transmission_probability(&self) -> f64 {
        if self.next_step_is_bt() {
            self.bt_probability
        } else {
            1.0 / self.kappa_estimate
        }
    }

    fn advance(&mut self, delivered: bool) {
        let is_bt = self.next_step_is_bt();
        if !is_bt {
            // Algorithm 1, line 11: the estimator grows at every AT-step.
            self.kappa_estimate += 1.0;
        }
        if delivered {
            self.received += 1;
            if self.received < LOG2_REBASE_PERIOD
                || self.received.is_multiple_of(LOG2_REBASE_PERIOD)
            {
                self.log2_sigma = ((self.received + 1) as f64).log2();
            } else {
                // Same cubic-Taylor increment as stock One-fail Adaptive:
                // exact to ~1e-17 relative for σ + 1 ≥ 4096.
                let x = 1.0 / self.received as f64;
                let ln1p = x * (1.0 - x * (0.5 - x * (1.0 / 3.0)));
                self.log2_sigma += ln1p * std::f64::consts::LOG2_E;
            }
            self.bt_probability = 1.0 / (1.0 + self.log2_sigma);
            let decrement = if is_bt { self.delta } else { self.delta + 1.0 };
            self.kappa_estimate = (self.kappa_estimate - decrement).max(self.floor());
        }
        self.step += 1;
    }

    fn steps_elapsed(&self) -> u64 {
        self.step - 1
    }

    fn schedule_phase(&self) -> u64 {
        // Position within the 64-step parity word: the word is periodic, so
        // this pins which of the two rules every future slot applies.
        // Together with the tracks (1/κ̃ and the BT probability — injective
        // in (κ̃, σ)) it pins the entire state, so phase- and track-equal
        // cohorts merge exactly.
        (self.step - 1) % 64
    }

    fn probability_tracks(&self) -> (f64, f64) {
        (1.0 / self.kappa_estimate, self.bt_probability)
    }

    fn checkpoint_words(&self) -> Option<Vec<u64>> {
        // Taylor-maintained caches captured verbatim, as in stock One-fail
        // Adaptive: recomputation at restore time would drift differently
        // from the unbroken run.
        Some(vec![
            self.kappa_estimate.to_bits(),
            self.received,
            self.step,
            self.log2_sigma.to_bits(),
            self.bt_probability.to_bits(),
        ])
    }

    fn restore_words(&mut self, words: &[u64]) -> bool {
        let [kappa, received, step, log2_sigma, bt] = words else {
            return false;
        };
        self.kappa_estimate = f64::from_bits(*kappa);
        self.received = *received;
        self.step = *step;
        self.log2_sigma = f64::from_bits(*log2_sigma);
        self.bt_probability = f64::from_bits(*bt);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_word_is_thue_morse_and_balanced() {
        for n in 0..64u64 {
            assert_eq!(
                (PARITY_WORD >> n) & 1,
                (n.count_ones() as u64) & 1,
                "bit {n} must be the Thue–Morse bit"
            );
        }
        assert_eq!(PARITY_WORD.count_ones(), 32, "32 AT- and 32 BT-steps");
    }

    #[test]
    fn parity_word_desynchronises_unit_offsets() {
        // The deadlock breaker: a constant fraction of slots must be
        // AT-steps for *both* of two groups offset by one slot (cyclically,
        // since the word repeats every 64 steps).
        let shared_at = (0..64u64)
            .filter(|&n| {
                let here = (PARITY_WORD >> n) & 1;
                let next = (PARITY_WORD >> ((n + 1) % 64)) & 1;
                here == 0 && next == 0
            })
            .count();
        assert!(shared_at >= 8, "only {shared_at} shared AT slots");
    }

    #[test]
    fn rejects_delta_outside_algorithm_one_range() {
        assert!(RandomizedParityOneFail::try_new(std::f64::consts::E).is_err());
        assert!(RandomizedParityOneFail::try_new(2.0).is_err());
        assert!(RandomizedParityOneFail::try_new(f64::NAN).is_err());
        assert!(RandomizedParityOneFail::try_new(DELTA_MAX).is_ok());
    }

    #[test]
    fn update_rules_match_stock_one_fail_per_step_kind() {
        let mut rp = RandomizedParityOneFail::with_default_delta();
        // Step 1 is AT (t₀ = 0): silent AT-step increments κ̃.
        assert!(!rp.next_step_is_bt());
        let k0 = rp.kappa_estimate();
        rp.advance(false);
        assert!((rp.kappa_estimate() - (k0 + 1.0)).abs() < 1e-12);
        // Steps 2 and 3 are BT (t₁ = t₂ = 1): κ̃ unchanged when silent.
        assert!(rp.next_step_is_bt());
        rp.advance(false);
        assert!(rp.next_step_is_bt());
        assert!((rp.kappa_estimate() - (k0 + 1.0)).abs() < 1e-12);
        // A BT-step delivery: σ grows, κ̃ decreases by δ (floored).
        rp.advance(true);
        assert_eq!(rp.received(), 1);
        assert!((rp.bt_probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_pins_the_parity_word_position() {
        let mut rp = RandomizedParityOneFail::with_default_delta();
        for expected in 0..130u64 {
            assert_eq!(rp.schedule_phase(), expected % 64);
            rp.advance(false);
        }
    }

    #[test]
    fn probability_is_always_valid() {
        let mut rp = RandomizedParityOneFail::try_new(2.99).unwrap();
        for i in 0..10_000 {
            let p = rp.transmission_probability();
            assert!((0.0..=1.0).contains(&p), "step {i}: p = {p}");
            rp.advance(i % 7 == 0);
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let mut rp = RandomizedParityOneFail::with_default_delta();
        for i in 0..10_000u64 {
            rp.advance(i % 3 == 0);
        }
        let words = rp.checkpoint_words().unwrap();
        let mut restored = RandomizedParityOneFail::with_default_delta();
        assert!(restored.restore_words(&words));
        for _ in 0..1_000 {
            assert_eq!(
                restored.transmission_probability().to_bits(),
                rp.transmission_probability().to_bits()
            );
            rp.advance(false);
            restored.advance(false);
        }
    }
}

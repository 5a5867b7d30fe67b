//! One-fail Adaptive (Algorithm 1 of the paper).
//!
//! One-fail Adaptive is the paper's main contribution: a randomized protocol
//! for static k-selection that needs **no information whatsoever** about the
//! number of contenders (not even an upper bound) and no collision detection,
//! yet solves the problem in `2(δ+1)k + O(log² k)` slots with probability at
//! least `1 − 2/(1+k)` (Theorem 1).
//!
//! The protocol interleaves two transmission rules, one per slot parity
//! (communication steps are numbered 1, 2, 3, … as in the paper):
//!
//! * **AT-steps** (odd steps): intended for the regime where many messages
//!   remain. The station transmits with probability `1/κ̃`, where `κ̃` is a
//!   running *density estimator* of the number of messages left. After every
//!   AT-step the estimator is incremented by one; every time a message of
//!   another station is heard, the estimator is decreased by `δ+1` (AT-step)
//!   or `δ` (BT-step), never dropping below `δ+1`.
//! * **BT-steps** (even steps): intended for the endgame where few messages
//!   remain. The station transmits with probability `1/(1 + log₂(σ+1))`,
//!   where `σ` counts the messages received so far.
//!
//! Both rules act on *public* information (slot parity and the deliveries
//! heard on the channel), so every active station holds exactly the same
//! state under batched arrivals: One-fail Adaptive is a fair protocol and is
//! exposed here as a [`FairProtocol`].
//!
//! The crucial difference with its predecessor Log-fails Adaptive
//! ([`crate::log_fails`]) is that the density estimator is updated *every*
//! step and the BT probability adapts to `σ`, which removes the need to know
//! `ε` (and hence `n`).
//!
//! The state is generic over a [`BtStepRule`], the one thing that decides
//! *which* steps are BT-steps: [`OneFailAdaptive`] is Algorithm 1's strict
//! alternation ([`Alternating`]), and the randomised-parity variant
//! ([`crate::randomized_parity`]) is the same state on the Thue–Morse word.
//! Both share every update rule, the checkpoint layout and the restore
//! checks below.

use crate::error::ParameterError;
use crate::traits::FairProtocol;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Largest admissible `δ`: `Σ_{j=1..5} (5/6)^j = 23255/7776 ≈ 2.9906`.
pub const DELTA_MAX: f64 = 23255.0 / 7776.0;

/// The `δ` used in the paper's simulations (§5).
pub const PAPER_DELTA: f64 = 2.72;

/// Which communication steps of a [`OneFail`] state are BT-steps, as a
/// zero-sized type the protocol kind fixes. Everything else — the two
/// transmission rules, their updates and the checkpoint layout — is shared.
pub trait BtStepRule: Debug + Clone + PartialEq + Send + 'static {
    /// The [`ParameterError`] message for a `δ` outside Theorem 1's range.
    const DELTA_ERROR: &'static str;

    /// True if communication step `step` (numbered from 1) is a BT-step.
    fn is_bt(step: u64) -> bool;

    /// The schedule position of step `step` ([`FairProtocol::schedule_phase`]):
    /// it must pin which rule every later step applies.
    fn phase(step: u64) -> u64;
}

/// Algorithm 1's rule: the even steps are BT-steps, the odd ones AT-steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alternating;

impl BtStepRule for Alternating {
    const DELTA_ERROR: &'static str =
        "One-fail Adaptive requires e < delta <= sum_{j=1..5}(5/6)^j ~= 2.9906";

    fn is_bt(step: u64) -> bool {
        step.is_multiple_of(2)
    }

    fn phase(step: u64) -> u64 {
        // The AT/BT parity: it fully determines which update rule the next
        // slot applies. Together with the two track probabilities (1/κ̃ and
        // the BT probability, i.e. κ̃ and σ) the parity pins the entire
        // state, so phase- and track-equal cohorts merge exactly.
        step % 2
    }
}

/// Shared state of One-fail Adaptive (Algorithm 1) under the BT-step rule
/// `R`; see [`OneFailAdaptive`] and
/// [`RandomizedParityOneFail`](crate::RandomizedParityOneFail).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneFail<R> {
    // lint:allow(checkpoint-coverage): construction parameter — restore
    // rebuilds it from the ProtocolKind that recreates the instance, so
    // the checkpoint carries only the mutable estimator state.
    delta: f64,
    /// Density estimator κ̃.
    kappa_estimate: f64,
    /// Messages-received counter σ.
    received: u64,
    /// Next communication step, numbered from 1 as in the paper.
    step: u64,
    /// Cached `log₂(σ + 1)`, maintained incrementally so that the BT-step
    /// probability costs no transcendental per query (the aggregate
    /// simulator queries it every other slot). Equal to the direct formula
    /// up to a few ulps; re-anchored exactly every
    /// [`LOG2_REBASE_PERIOD`] deliveries.
    log2_sigma: f64,
    /// Cached `1/(1 + log2_sigma)` — the BT-step probability, refreshed on
    /// every delivery so the per-slot query is a field read, not a division.
    bt_probability: f64,
    // lint:allow(checkpoint-coverage): zero-sized BT-step rule, fixed by the
    // type the ProtocolKind builds; it holds no state.
    rule: PhantomData<R>,
}

/// Shared state of the One-fail Adaptive protocol (Algorithm 1).
///
/// # Example
/// ```
/// use mac_protocols::{FairProtocol, OneFailAdaptive};
/// let mut ofa = OneFailAdaptive::with_default_delta();
/// // Step 1 (AT): transmit with probability 1/κ̃ = 1/(δ+1).
/// assert!((ofa.transmission_probability() - 1.0 / 3.72).abs() < 1e-12);
/// ofa.advance(false);
/// // Step 2 (BT): σ = 0, so the probability is 1/(1 + log2(1)) = 1.
/// assert_eq!(ofa.transmission_probability(), 1.0);
/// ```
pub type OneFailAdaptive = OneFail<Alternating>;

/// Deliveries between exact re-anchorings of the cached `log₂(σ + 1)`.
const LOG2_REBASE_PERIOD: u64 = 4096;

impl<R: BtStepRule> OneFail<R> {
    /// Creates the protocol state with the given `δ`.
    ///
    /// # Panics
    /// Panics if `δ` is outside `(e, Σ_{j=1..5}(5/6)^j]`. Use
    /// [`OneFail::try_new`] for fallible construction.
    pub fn new(delta: f64) -> Self {
        Self::try_new(delta).expect("invalid One-fail Adaptive parameter")
    }

    /// Creates the protocol state with the given `δ`.
    ///
    /// # Errors
    /// Returns an error if `δ` is outside `(e, Σ_{j=1..5}(5/6)^j]`
    /// (Theorem 1's admissible range).
    pub fn try_new(delta: f64) -> Result<Self, ParameterError> {
        if !delta.is_finite() || delta <= std::f64::consts::E || delta > DELTA_MAX {
            return Err(ParameterError::new("delta", delta, R::DELTA_ERROR));
        }
        Ok(Self {
            delta,
            kappa_estimate: delta + 1.0,
            received: 0,
            step: 1,
            log2_sigma: 0.0,
            bt_probability: 1.0,
            rule: PhantomData,
        })
    }

    /// Creates the protocol with the paper's simulation value `δ = 2.72`.
    pub fn with_default_delta() -> Self {
        Self::new(PAPER_DELTA)
    }

    /// The configured `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Current value of the density estimator `κ̃`.
    pub fn kappa_estimate(&self) -> f64 {
        self.kappa_estimate
    }

    /// Number of messages received (deliveries of other stations heard) so
    /// far, the paper's `σ`.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True if the *next* step is a BT-step under the rule `R`.
    pub fn next_step_is_bt(&self) -> bool {
        R::is_bt(self.step)
    }

    fn floor(&self) -> f64 {
        self.delta + 1.0
    }
}

impl<R: BtStepRule> FairProtocol for OneFail<R> {
    fn transmission_probability(&self) -> f64 {
        if self.next_step_is_bt() {
            // BT-step: 1/(1 + log2(σ + 1)), precomputed at the last delivery.
            self.bt_probability
        } else {
            // AT-step: 1/κ̃ (κ̃ ≥ δ+1 > 1, so this is a valid probability).
            1.0 / self.kappa_estimate
        }
    }

    fn advance(&mut self, delivered: bool) {
        let is_bt = self.next_step_is_bt();
        if !is_bt {
            // Task 1, line 11: the estimator grows by one at every AT-step.
            self.kappa_estimate += 1.0;
        }
        if delivered {
            // Task 2: a message of another station was received.
            self.received += 1;
            if self.received < LOG2_REBASE_PERIOD
                || self.received.is_multiple_of(LOG2_REBASE_PERIOD)
            {
                self.log2_sigma = ((self.received + 1) as f64).log2();
            } else {
                // log2(σ+2) = log2(σ+1) + log2(1 + 1/(σ+1)); for σ+1 ≥ 4096
                // a cubic Taylor polynomial of ln(1+x) is exact to ~1e-17
                // relative, so no transcendental is paid per delivery.
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

    fn schedule_phase(&self) -> u64 {
        R::phase(self.step)
    }

    fn probability_tracks(&self) -> (f64, f64) {
        // Both cached tracks, not just the one the current step uses: at a
        // fixed phase, (1/κ̃, BT probability) is injective in (κ̃, σ), so
        // bit equality of phase + tracks is an exact state fingerprint.
        (1.0 / self.kappa_estimate, self.bt_probability)
    }

    fn checkpoint_words(&self) -> Vec<u64> {
        // The cached log₂(σ+1) and BT probability are Taylor-maintained with
        // periodic exact re-anchoring; they are captured verbatim because a
        // recomputation at restore time would re-anchor and then drift
        // differently from the unbroken run.
        vec![
            self.kappa_estimate.to_bits(),
            self.received,
            self.step,
            self.log2_sigma.to_bits(),
            self.bt_probability.to_bits(),
        ]
    }

    fn restore_words(&mut self, words: &[u64]) -> bool {
        let [kappa, received, step, log2_sigma, bt] = words else {
            return false;
        };
        let kappa = f64::from_bits(*kappa);
        let log2_sigma = f64::from_bits(*log2_sigma);
        let bt = f64::from_bits(*bt);
        // Every run starts at step 1 with κ̃ = δ+1 and only ever counts
        // steps up, keeps κ̃ finite and at least δ+1, log₂(σ+1) finite and
        // non-negative, and the BT probability in (0, 1]. Words outside
        // that range come from no run, and would put a probability outside
        // [0, 1] or underflow the step arithmetic.
        let reachable = *step >= 1
            && kappa.is_finite()
            && kappa >= self.floor()
            && log2_sigma.is_finite()
            && log2_sigma >= 0.0
            && bt > 0.0
            && bt <= 1.0;
        if !reachable {
            return false;
        }
        self.kappa_estimate = kappa;
        self.received = *received;
        self.step = *step;
        self.log2_sigma = log2_sigma;
        self.bt_probability = bt;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_delta_is_admissible() {
        const { assert!(PAPER_DELTA > std::f64::consts::E) };
        const { assert!(PAPER_DELTA <= DELTA_MAX) };
        let ofa = OneFailAdaptive::with_default_delta();
        assert_eq!(ofa.delta(), PAPER_DELTA);
    }

    #[test]
    fn delta_max_matches_geometric_sum() {
        let sum: f64 = (1..=5).map(|j| (5.0f64 / 6.0).powi(j)).sum();
        assert!((DELTA_MAX - sum).abs() < 1e-12);
    }

    #[test]
    fn rejects_delta_outside_range() {
        assert!(OneFailAdaptive::try_new(std::f64::consts::E).is_err());
        assert!(OneFailAdaptive::try_new(2.0).is_err());
        assert!(OneFailAdaptive::try_new(3.0).is_err());
        assert!(OneFailAdaptive::try_new(f64::NAN).is_err());
        assert!(OneFailAdaptive::try_new(2.99).is_ok());
        assert!(OneFailAdaptive::try_new(DELTA_MAX).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid One-fail Adaptive parameter")]
    fn new_panics_on_invalid_delta() {
        let _ = OneFailAdaptive::new(1.0);
    }

    #[test]
    fn initial_state_matches_algorithm_one() {
        let ofa = OneFailAdaptive::with_default_delta();
        assert_eq!(ofa.kappa_estimate(), PAPER_DELTA + 1.0);
        assert_eq!(ofa.received(), 0);
        assert!(!ofa.next_step_is_bt(), "step 1 is an AT-step");
    }

    #[test]
    fn step_parity_alternates_starting_with_at() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        for i in 0..10 {
            assert_eq!(ofa.next_step_is_bt(), i % 2 == 1, "step {}", i + 1);
            ofa.advance(false);
        }
    }

    #[test]
    fn at_step_probability_is_inverse_estimator() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        assert!((ofa.transmission_probability() - 1.0 / 3.72).abs() < 1e-12);
        // Two silent steps: the AT-step increments κ̃ to 4.72, the BT-step
        // leaves it unchanged, so the next AT-step uses 1/4.72.
        ofa.advance(false);
        ofa.advance(false);
        assert!((ofa.transmission_probability() - 1.0 / 4.72).abs() < 1e-12);
    }

    #[test]
    fn bt_step_probability_is_inverse_log_of_received() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        ofa.advance(false); // step 1 (AT) done; step 2 is BT, σ = 0
        assert_eq!(ofa.transmission_probability(), 1.0);
        // Hear 3 deliveries across the next steps, then check a BT-step.
        ofa.advance(true); // step 2 (BT)
        ofa.advance(true); // step 3 (AT)
        ofa.advance(true); // step 4 (BT)
        assert_eq!(ofa.received(), 3);
        // Step 5 is AT; advance silently to reach BT step 6.
        ofa.advance(false);
        assert!(ofa.next_step_is_bt());
        let expected = 1.0 / (1.0 + 4.0f64.log2());
        assert!((ofa.transmission_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn estimator_grows_by_one_per_silent_at_step() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        let k0 = ofa.kappa_estimate();
        for _ in 0..20 {
            ofa.advance(false);
        }
        // 10 of the 20 steps are AT-steps.
        assert!((ofa.kappa_estimate() - (k0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn delivery_in_at_step_decreases_estimator_by_delta_net() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        // Inflate the estimator first so that the floor does not clip.
        for _ in 0..40 {
            ofa.advance(false);
        }
        let before = ofa.kappa_estimate();
        assert!(!ofa.next_step_is_bt());
        ofa.advance(true); // AT-step with a delivery: +1 then −(δ+1) = −δ net
        assert!((ofa.kappa_estimate() - (before - PAPER_DELTA)).abs() < 1e-12);
    }

    #[test]
    fn delivery_in_bt_step_decreases_estimator_by_delta() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        for _ in 0..41 {
            ofa.advance(false);
        }
        assert!(ofa.next_step_is_bt());
        let before = ofa.kappa_estimate();
        ofa.advance(true); // BT-step with a delivery: −δ, no increment
        assert!((ofa.kappa_estimate() - (before - PAPER_DELTA)).abs() < 1e-12);
    }

    #[test]
    fn estimator_never_drops_below_floor() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        for _ in 0..100 {
            ofa.advance(true);
            assert!(ofa.kappa_estimate() >= PAPER_DELTA + 1.0 - 1e-12);
        }
        assert_eq!(ofa.received(), 100);
    }

    #[test]
    fn cached_bt_log_tracks_the_direct_formula_at_scale() {
        // The incrementally maintained log2(σ+1) must match a fresh
        // evaluation to ulp-level accuracy across the rebase boundary and
        // deep into the Taylor regime.
        let mut ofa = OneFailAdaptive::with_default_delta();
        for _ in 0..100_000u64 {
            ofa.advance(true);
        }
        // Park on a BT step to read the BT probability.
        if !ofa.next_step_is_bt() {
            ofa.advance(false);
        }
        let direct = 1.0 / (1.0 + ((ofa.received() + 1) as f64).log2());
        let cached = ofa.transmission_probability();
        assert!(
            (cached - direct).abs() / direct < 1e-12,
            "cached {cached} vs direct {direct}"
        );
    }

    #[test]
    fn probability_is_always_valid() {
        let mut ofa = OneFailAdaptive::new(2.99);
        for i in 0..10_000 {
            let p = ofa.transmission_probability();
            assert!((0.0..=1.0).contains(&p), "step {i}: p = {p}");
            // Mix of deliveries and silence.
            ofa.advance(i % 7 == 0);
        }
    }

    #[test]
    fn restore_rejects_states_no_run_reaches() {
        let mut ofa = OneFailAdaptive::with_default_delta();
        for i in 0..100 {
            ofa.advance(i % 3 == 0);
        }
        let words = ofa.checkpoint_words();
        assert!(OneFailAdaptive::with_default_delta().restore_words(&words));
        // Words: [κ̃, σ, step, log₂(σ+1), BT probability].
        let bits = f64::to_bits;
        let unreachable = [
            (2, 0),
            (0, bits(f64::NAN)),
            (0, bits(f64::INFINITY)),
            (0, bits(0.5)),
            (0, bits(PAPER_DELTA)),
            (3, bits(f64::NAN)),
            (3, bits(-1.0)),
            (4, bits(1.5)),
            (4, bits(0.0)),
            (4, bits(f64::NAN)),
        ];
        for (index, word) in unreachable {
            let mut bad = words.clone();
            bad[index] = word;
            let mut fresh = OneFailAdaptive::with_default_delta();
            assert!(!fresh.restore_words(&bad), "word {index} = {word:#x}");
            assert_eq!(fresh, OneFailAdaptive::with_default_delta());
        }
    }
}

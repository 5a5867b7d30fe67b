//! Log-fails Adaptive — the predecessor protocol of \[7\], reconstructed.
//!
//! Log-fails Adaptive (Fernández Anta & Mosteiro, *Discrete Mathematics,
//! Algorithms and Applications* 2(4), 2010 — reference \[7\] of the paper) is
//! the baseline the paper improves upon: it solves static k-selection in
//! `(e+1+ξ)k + O(log²(1/ε))` slots with probability at least `1 − 2ε`, but it
//! **requires knowledge of `ε ≤ 1/(n+1)`** — i.e. of an upper bound on the
//! number of stations — to set its thresholds and its fixed BT probability.
//!
//! ## Reconstruction notice
//!
//! The full pseudocode of \[7\] is not contained in the reproduced paper, so
//! this module implements a *documented reconstruction* based on every
//! property the paper states about the protocol (§1, §3 and §5):
//!
//! * it is composed of two interleaved algorithms, AT and BT, like One-fail
//!   Adaptive; the parameter `ξt` controls the interleaving (the paper
//!   simulates `ξt = 1/2` and `ξt = 1/10`); here a BT-step occurs every
//!   `round(1/ξt)` steps;
//! * the BT transmission probability is **fixed** (unlike One-fail Adaptive,
//!   where it adapts to `σ`); it is fixed to `1/(1 + log₂(1/ε))`, the value
//!   the `ε`-tuned analysis of \[7\] targets for the `O(log(1/ε))` messages the
//!   BT algorithm is responsible for;
//! * the AT transmission probability is `1/κ̃` with a density estimator `κ̃`
//!   that is updated **only "after some steps without communication"**
//!   (hence *Log-fails*): after `⌈ξβ·log₂(1/ε)⌉` consecutive AT-steps without
//!   a delivery, the estimator is increased by that same amount (a lazy,
//!   batched version of One-fail Adaptive's +1 per step); on every delivery
//!   heard it is decreased by `e + ξδ + ξβ`, never dropping below its initial
//!   value;
//! * its linear-regime constant is `(e + 1 + ξδ + ξβ)/(1 − ξt)`, which for the
//!   paper's parameters (`ξδ = ξβ = 0.1`) evaluates to ≈ 7.8 for `ξt = 1/2`
//!   and ≈ 4.4 for `ξt = 1/10` — the two "Analysis" entries of Table 1.
//!
//! The reconstruction does **not** converge to that constant. Its ratio
//! steps up with the failure window `W = ⌈ξβ·log₂(k+1)⌉`, because a
//! delivery that resets a partly filled window loses the failures counted
//! in it; only at `W = 1` (`k ≤ 1023`) does the constant hold. `table1
//! --full` (seed 2011, 10 replications) prints 7.7 at `k = 10³` (`W = 1`),
//! 8.7 for `k = 10⁴–10⁶` (`W = 2`) and 9.5 at `k = 10⁷` (`W = 3`) for
//! `ξt = 1/2`, against 7.8; for `ξt = 1/10` it prints 4.3, 4.8 and 5.3,
//! against 4.4. The `ξt = 1/10` configuration is still the fastest protocol
//! at `k = 10⁷` (5.3, against 7.4 for One-fail Adaptive, 7.7 for Exp
//! Back-on/Back-off and 8.4 for Loglog-iterated Back-off), as in the paper.
//!
//! Nor does it reproduce the very large overhead the original exhibits for
//! moderate `k` (ratios in the hundreds for `k ∈ [10², 10⁴]`), which depends
//! on internals of \[7\] that cannot be recovered from the reproduced paper:
//! the same `table1` run prints 6.9 and 7.7 at `k = 10²` and `10³` for
//! `ξt = 1/2`.

use crate::error::ParameterError;
use crate::traits::FairProtocol;
use serde::{Deserialize, Serialize};

/// Configuration of the Log-fails Adaptive reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogFailsConfig {
    /// Estimator slack `ξδ` (paper simulation value 0.1).
    pub xi_delta: f64,
    /// Failure-window factor `ξβ` (paper simulation value 0.1).
    pub xi_beta: f64,
    /// Fraction of steps that are BT-steps `ξt` (paper uses 1/2 and 1/10).
    pub xi_t: f64,
    /// Error parameter `ε`; the protocol requires `ε ≤ 1/(n+1)`. The paper's
    /// simulations use `ε ≈ 1/(k+1)`.
    pub epsilon: f64,
}

impl LogFailsConfig {
    /// The paper's simulation configuration for a given `ξt` and instance
    /// size `k` (i.e. `ξδ = ξβ = 0.1`, `ε = 1/(k+1)`).
    pub fn paper(xi_t: f64, k: u64) -> Self {
        Self::for_instance(0.1, 0.1, xi_t, k)
    }

    /// Builds a configuration with the instance-size rule `ε = 1/(k+1)`
    /// (the paper's simulation choice) — the single place that rule lives.
    ///
    /// An empty instance (`k = 0`) never consults the protocol, but the
    /// configuration must still validate; `k` is clamped to 1 so that `ε`
    /// stays strictly below 1.
    pub fn for_instance(xi_delta: f64, xi_beta: f64, xi_t: f64, k: u64) -> Self {
        Self {
            xi_delta,
            xi_beta,
            xi_t,
            epsilon: 1.0 / (k.max(1) as f64 + 1.0),
        }
    }

    fn validate(&self) -> Result<(), ParameterError> {
        if !self.xi_delta.is_finite() || self.xi_delta <= 0.0 || self.xi_delta > 1.0 {
            return Err(ParameterError::new(
                "xi_delta",
                self.xi_delta,
                "Log-fails Adaptive requires 0 < xi_delta <= 1",
            ));
        }
        if !self.xi_beta.is_finite() || self.xi_beta <= 0.0 || self.xi_beta > 1.0 {
            return Err(ParameterError::new(
                "xi_beta",
                self.xi_beta,
                "Log-fails Adaptive requires 0 < xi_beta <= 1",
            ));
        }
        if !self.xi_t.is_finite() || self.xi_t <= 0.0 || self.xi_t > 0.5 {
            return Err(ParameterError::new(
                "xi_t",
                self.xi_t,
                "Log-fails Adaptive requires 0 < xi_t <= 1/2 (a BT-step every 1/xi_t steps)",
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 || self.epsilon >= 1.0 {
            return Err(ParameterError::new(
                "epsilon",
                self.epsilon,
                "Log-fails Adaptive requires 0 < epsilon < 1 (and epsilon <= 1/(n+1) for the guarantee)",
            ));
        }
        Ok(())
    }
}

/// Shared state of the Log-fails Adaptive reconstruction.
///
/// # Example
/// ```
/// use mac_protocols::{FairProtocol, LogFailsAdaptive, LogFailsConfig};
/// let cfg = LogFailsConfig::paper(0.5, 1000);
/// let lfa = LogFailsAdaptive::try_new(cfg).unwrap();
/// let p = lfa.transmission_probability();
/// assert!(p > 0.0 && p <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogFailsAdaptive {
    // lint:allow(checkpoint-coverage): construction parameter — restore
    // rebuilds it from the ProtocolKind that recreates the instance.
    config: LogFailsConfig,
    /// Density estimator κ̃.
    kappa_estimate: f64,
    /// Length of the failure window: ⌈ξβ·log₂(1/ε)⌉, at least 1.
    // lint:allow(checkpoint-coverage): derived from `config` in try_new;
    // reconstructed, never mutated after construction.
    fail_window: u64,
    /// Consecutive AT-steps without a delivery since the last estimator
    /// update.
    consecutive_failures: u64,
    /// Fixed BT-step transmission probability: 1/(1 + log₂(1/ε)).
    // lint:allow(checkpoint-coverage): derived from `config` in try_new;
    // reconstructed, never mutated after construction.
    bt_probability: f64,
    /// A BT-step occurs every `bt_period` steps.
    // lint:allow(checkpoint-coverage): derived from `config` in try_new;
    // reconstructed, never mutated after construction.
    bt_period: u64,
    /// Next communication step, numbered from 1.
    step: u64,
}

impl LogFailsAdaptive {
    /// Creates the protocol state from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use
    /// [`LogFailsAdaptive::try_new`] for fallible construction.
    pub fn new(config: LogFailsConfig) -> Self {
        Self::try_new(config).expect("invalid Log-fails Adaptive configuration")
    }

    /// Creates the protocol state from a configuration.
    ///
    /// # Errors
    /// Returns an error if any of `ξδ`, `ξβ`, `ξt`, `ε` is outside its
    /// admissible range (see [`LogFailsConfig`]).
    pub fn try_new(config: LogFailsConfig) -> Result<Self, ParameterError> {
        config.validate()?;
        let log_inv_eps = (1.0 / config.epsilon).log2().max(0.0);
        let fail_window = (config.xi_beta * log_inv_eps).ceil().max(1.0) as u64;
        let bt_probability = 1.0 / (1.0 + log_inv_eps);
        let bt_period = (1.0 / config.xi_t).round().max(2.0) as u64;
        Ok(Self {
            config,
            kappa_estimate: Self::floor_for(&config),
            fail_window,
            consecutive_failures: 0,
            bt_probability,
            bt_period,
            step: 1,
        })
    }

    fn floor_for(config: &LogFailsConfig) -> f64 {
        1.0 + std::f64::consts::E + config.xi_delta + config.xi_beta
    }

    /// The configuration this state was built from.
    pub fn config(&self) -> LogFailsConfig {
        self.config
    }

    /// Current value of the density estimator `κ̃`.
    pub fn kappa_estimate(&self) -> f64 {
        self.kappa_estimate
    }

    /// The fixed BT-step transmission probability `1/(1 + log₂(1/ε))`.
    pub fn bt_probability(&self) -> f64 {
        self.bt_probability
    }

    /// Length of the failure window (`⌈ξβ·log₂(1/ε)⌉`).
    pub fn fail_window(&self) -> u64 {
        self.fail_window
    }

    /// True if the *next* step is a BT-step.
    pub fn next_step_is_bt(&self) -> bool {
        self.step.is_multiple_of(self.bt_period)
    }

    /// Amount by which the estimator decreases on each delivery heard.
    fn decrement(&self) -> f64 {
        std::f64::consts::E + self.config.xi_delta + self.config.xi_beta
    }
}

impl FairProtocol for LogFailsAdaptive {
    fn transmission_probability(&self) -> f64 {
        if self.next_step_is_bt() {
            self.bt_probability
        } else {
            1.0 / self.kappa_estimate
        }
    }

    fn advance(&mut self, delivered: bool) {
        let is_bt = self.next_step_is_bt();
        if delivered {
            // Any communication heard resets the run of failures and pulls the
            // estimator down (never below its floor).
            self.consecutive_failures = 0;
            let floor = Self::floor_for(&self.config);
            self.kappa_estimate = (self.kappa_estimate - self.decrement()).max(floor);
        } else if !is_bt {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.fail_window {
                // Lazy batched increase: "updated after some steps without
                // communication".
                self.kappa_estimate += self.fail_window as f64;
                self.consecutive_failures = 0;
            }
        }
        self.step += 1;
    }

    fn schedule_phase(&self) -> u64 {
        // Position in the BT cycle *and* the consecutive-failure count: two
        // states at the same cycle position but with different failure
        // counts apply the lazy estimator bump at different future steps,
        // so they must not be treated as interchangeable. The failure count
        // is bounded by the fail window, keeping the phase space small.
        self.step % self.bt_period + self.bt_period * self.consecutive_failures
    }

    fn probability_tracks(&self) -> (f64, f64) {
        // The AT track 1/κ̃ and the (fixed) BT track. The phase already
        // carries the consecutive-failure count, so phase + these tracks pin
        // the full state — reporting only the *current* probability would
        // conflate states whose other track differs.
        (1.0 / self.kappa_estimate, self.bt_probability)
    }

    fn checkpoint_words(&self) -> Vec<u64> {
        // `fail_window`, `bt_probability` and `bt_period` are pure functions
        // of the configuration, re-derived at construction; only the three
        // mutable fields travel.
        vec![
            self.kappa_estimate.to_bits(),
            self.consecutive_failures,
            self.step,
        ]
    }

    fn restore_words(&mut self, words: &[u64]) -> bool {
        let [kappa, failures, step] = words else {
            return false;
        };
        let kappa = f64::from_bits(*kappa);
        // Every run starts at step 1 with κ̃ at its floor, only ever counts
        // steps up, keeps κ̃ finite and at least the floor, and resets the
        // failure run before it reaches the fail window. Words outside that
        // range come from no run, and would put the AT probability outside
        // [0, 1] or underflow the step arithmetic.
        let reachable = *step >= 1
            && kappa.is_finite()
            && kappa >= Self::floor_for(&self.config)
            && *failures < self.fail_window;
        if !reachable {
            return false;
        }
        self.kappa_estimate = kappa;
        self.consecutive_failures = *failures;
        self.step = *step;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_state(xi_t: f64, k: u64) -> LogFailsAdaptive {
        LogFailsAdaptive::try_new(LogFailsConfig::paper(xi_t, k)).unwrap()
    }

    #[test]
    fn paper_configuration_is_valid() {
        for &xi_t in &[0.5, 0.1] {
            for &k in &[10u64, 1000, 1_000_000] {
                let lfa = paper_state(xi_t, k);
                assert_eq!(lfa.config().xi_delta, 0.1);
                assert!((lfa.config().epsilon - 1.0 / (k as f64 + 1.0)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        let mut bad = LogFailsConfig::paper(0.5, 100);
        bad.xi_delta = 0.0;
        assert!(LogFailsAdaptive::try_new(bad).is_err());
        let mut bad = LogFailsConfig::paper(0.5, 100);
        bad.xi_beta = -1.0;
        assert!(LogFailsAdaptive::try_new(bad).is_err());
        let mut bad = LogFailsConfig::paper(0.5, 100);
        bad.xi_t = 0.75;
        assert!(LogFailsAdaptive::try_new(bad).is_err());
        let mut bad = LogFailsConfig::paper(0.5, 100);
        bad.epsilon = 1.5;
        assert!(LogFailsAdaptive::try_new(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid Log-fails Adaptive configuration")]
    fn new_panics_on_invalid_config() {
        let mut bad = LogFailsConfig::paper(0.5, 100);
        bad.xi_t = 0.0;
        let _ = LogFailsAdaptive::new(bad);
    }

    #[test]
    fn bt_probability_is_fixed_and_depends_on_epsilon() {
        let lfa = paper_state(0.5, 1023); // 1/eps = 1024, log2 = 10
        assert!((lfa.bt_probability() - 1.0 / 11.0).abs() < 1e-12);
        // The BT probability never changes, no matter what is observed.
        let mut lfa2 = lfa.clone();
        for i in 0..100 {
            lfa2.advance(i % 3 == 0);
        }
        assert_eq!(lfa.bt_probability(), lfa2.bt_probability());
    }

    #[test]
    fn bt_steps_occur_with_period_one_over_xi_t() {
        let mut half = paper_state(0.5, 100);
        let pattern: Vec<bool> = (0..10)
            .map(|_| {
                let b = half.next_step_is_bt();
                half.advance(false);
                b
            })
            .collect();
        assert_eq!(
            pattern,
            vec![false, true, false, true, false, true, false, true, false, true]
        );

        let mut tenth = paper_state(0.1, 100);
        let bt_count = (0..100)
            .filter(|_| {
                let b = tenth.next_step_is_bt();
                tenth.advance(false);
                b
            })
            .count();
        assert_eq!(bt_count, 10, "one BT-step in ten for xi_t = 1/10");
    }

    #[test]
    fn estimator_updates_lazily_after_fail_window() {
        let lfa = paper_state(0.5, 1023); // fail_window = ceil(0.1 * 10) = 1
        assert_eq!(lfa.fail_window(), 1);
        let lfa_large = paper_state(0.5, (1u64 << 40) - 1); // log2(1/eps) = 40
        assert_eq!(lfa_large.fail_window(), 4);

        // With fail_window = 4, the estimator must not move during the first
        // three silent AT-steps and jump by 4 at the fourth.
        let mut lfa = lfa_large;
        let initial = lfa.kappa_estimate();
        let mut at_fails = 0;
        while at_fails < 3 {
            if !lfa.next_step_is_bt() {
                at_fails += 1;
            }
            lfa.advance(false);
            assert_eq!(lfa.kappa_estimate(), initial);
        }
        // Fourth silent AT-step triggers the batched increase.
        while lfa.next_step_is_bt() {
            lfa.advance(false);
        }
        lfa.advance(false);
        assert!((lfa.kappa_estimate() - (initial + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn delivery_decreases_estimator_down_to_floor() {
        let mut lfa = paper_state(0.5, 1023);
        // Inflate the estimator.
        for _ in 0..200 {
            lfa.advance(false);
        }
        let inflated = lfa.kappa_estimate();
        assert!(inflated > lfa.config().xi_delta + 4.0);
        lfa.advance(true);
        assert!(lfa.kappa_estimate() < inflated);
        // Hammer with deliveries: the estimator must stop at its floor.
        for _ in 0..500 {
            lfa.advance(true);
        }
        let floor = 1.0 + std::f64::consts::E + 0.1 + 0.1;
        assert!((lfa.kappa_estimate() - floor).abs() < 1e-9);
    }

    #[test]
    fn delivery_resets_the_failure_run() {
        let mut lfa = paper_state(0.5, (1u64 << 40) - 1); // fail_window = 4
        let initial = lfa.kappa_estimate();
        // Two silent AT-steps, then a delivery, then two silent AT-steps:
        // never four consecutive failures, so no lazy increase; the only
        // change is the single decrement (clipped at the floor).
        let mut silent_at = 0;
        while silent_at < 2 {
            if !lfa.next_step_is_bt() {
                silent_at += 1;
            }
            lfa.advance(false);
        }
        lfa.advance(true);
        let mut silent_at = 0;
        while silent_at < 2 {
            if !lfa.next_step_is_bt() {
                silent_at += 1;
            }
            lfa.advance(false);
        }
        assert!(lfa.kappa_estimate() <= initial);
    }

    #[test]
    fn probability_is_always_valid() {
        let mut lfa = paper_state(0.1, 10_000);
        for i in 0..50_000 {
            let p = lfa.transmission_probability();
            assert!((0.0..=1.0).contains(&p), "step {i}: p = {p}");
            lfa.advance(i % 11 == 0);
        }
    }

    #[test]
    fn restore_rejects_states_no_run_reaches() {
        // k = 2⁴⁰ − 1 gives a fail window of 4, so a failure run can be
        // pending at checkpoint time.
        let mut lfa = paper_state(0.5, (1u64 << 40) - 1);
        for i in 0..101 {
            lfa.advance(i % 7 == 0);
        }
        let words = lfa.checkpoint_words();
        let fresh = || paper_state(0.5, (1u64 << 40) - 1);
        assert!(fresh().restore_words(&words));
        // Words: [κ̃, consecutive failures, step].
        let floor = 1.0 + std::f64::consts::E + 0.1 + 0.1;
        let unreachable = [
            (2, 0),
            (0, f64::NAN.to_bits()),
            (0, f64::INFINITY.to_bits()),
            (0, (floor - 0.5).to_bits()),
            (1, lfa.fail_window()),
            (1, u64::MAX),
        ];
        for (index, word) in unreachable {
            let mut bad = words.clone();
            bad[index] = word;
            let mut state = fresh();
            assert!(!state.restore_words(&bad), "word {index} = {word:#x}");
            assert_eq!(state, fresh());
        }
    }
}

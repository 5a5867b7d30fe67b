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
//!   the protocol stays a [`FairProtocol`](crate::FairProtocol) servable by
//!   the cohort engine.
//!
//! Because the pattern is periodic with period 64, the schedule position is
//! `(s − 1) mod 64`: together with the two probability tracks it pins the
//! entire state, so the cohort engine's exact-merge contract holds with a
//! 64-valued phase instead of One-fail Adaptive's 2-valued parity.
//!
//! The variant is One-fail Adaptive's own state ([`OneFail`]) with the
//! [`ThueMorse`] BT-step rule in place of strict alternation: the two kinds
//! share every update rule and the checkpoint layout.

use crate::one_fail::{BtStepRule, OneFail};

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

/// The randomised-parity rule: step `s` is a BT-step when bit
/// `(s − 1) mod 64` of [`PARITY_WORD`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThueMorse;

impl BtStepRule for ThueMorse {
    const DELTA_ERROR: &'static str =
        "randomised-parity One-fail requires e < delta <= sum_{j=1..5}(5/6)^j ~= 2.9906";

    fn is_bt(step: u64) -> bool {
        (PARITY_WORD >> ((step - 1) % 64)) & 1 == 1
    }

    fn phase(step: u64) -> u64 {
        // Position within the 64-step parity word: the word is periodic, so
        // this pins which of the two rules every future slot applies.
        // Together with the tracks (1/κ̃ and the BT probability — injective
        // in (κ̃, σ)) it pins the entire state, so phase- and track-equal
        // cohorts merge exactly.
        (step - 1) % 64
    }
}

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
pub type RandomizedParityOneFail = OneFail<ThueMorse>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_fail::DELTA_MAX;
    use crate::FairProtocol;

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
        assert!((rp.probability_tracks().1 - 0.5).abs() < 1e-12);
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
        let words = rp.checkpoint_words();
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

    #[test]
    fn restore_rejects_states_no_run_reaches() {
        // Step 0 would underflow the parity-word position (step − 1); a
        // NaN estimator would make the next AT probability NaN.
        let mut rp = RandomizedParityOneFail::with_default_delta();
        for i in 0..100 {
            rp.advance(i % 5 == 0);
        }
        let words = rp.checkpoint_words();
        assert!(RandomizedParityOneFail::with_default_delta().restore_words(&words));
        for (index, word) in [(2, 0), (0, f64::NAN.to_bits())] {
            let mut bad = words.clone();
            bad[index] = word;
            let mut fresh = RandomizedParityOneFail::with_default_delta();
            assert!(!fresh.restore_words(&bad), "word {index} = {word:#x}");
            assert_eq!(fresh.schedule_phase(), 0);
        }
    }
}

//! Exact sampling of the slot-outcome trichotomy.
//!
//! In a slotted multiple-access channel, the only thing the channel reveals
//! about a slot is whether **zero**, **exactly one**, or **more than one**
//! station transmitted (and, without collision detection, stations cannot even
//! tell the first and last case apart). When every one of the `m` active
//! stations transmits independently with the *same* probability `p` — which is
//! the case for the "fair" protocols of the paper (One-fail Adaptive,
//! Log-fails Adaptive, the known-k oracle) under batched arrivals — the number
//! of transmitters is `Binomial(m, p)` and the slot outcome only depends on
//! whether that draw is 0, 1 or ≥ 2.
//!
//! Sampling the trichotomy directly — instead of simulating every station —
//! is what makes the paper's `k = 10^7` experiments tractable: it costs O(1)
//! time and two logarithms per slot, independent of `m`.
//!
//! All probabilities are computed in log-space with `ln_1p` so they remain
//! accurate for `m` up to billions and `p` down to `1e-12`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The three observable outcomes of a communication slot.
///
/// These are *channel-level* outcomes. A station without collision detection
/// cannot distinguish [`SlotOutcome::Silence`] from [`SlotOutcome::Collision`];
/// that restriction lives in the per-station interface of `mac-protocols`,
/// whose `observe` takes one bit (was a message delivered), not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// No station transmitted (background noise).
    Silence,
    /// Exactly one station transmitted: its message is delivered.
    Delivery,
    /// Two or more stations transmitted: all messages are garbled.
    Collision,
}

impl SlotOutcome {
    /// Returns `true` if the outcome is a successful delivery.
    #[inline]
    pub fn is_delivery(self) -> bool {
        matches!(self, SlotOutcome::Delivery)
    }
}

/// The probabilities of the three slot outcomes for a given `(m, p)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcomeProbabilities {
    /// Probability that no station transmits: `(1-p)^m`.
    pub silence: f64,
    /// Probability that exactly one station transmits: `m·p·(1-p)^(m-1)`.
    pub delivery: f64,
    /// Probability that two or more stations transmit.
    pub collision: f64,
}

impl SlotOutcomeProbabilities {
    /// Returns the probability of the given outcome.
    pub fn of(&self, outcome: SlotOutcome) -> f64 {
        match outcome {
            SlotOutcome::Silence => self.silence,
            SlotOutcome::Delivery => self.delivery,
            SlotOutcome::Collision => self.collision,
        }
    }
}

/// Computes the exact outcome probabilities for a slot in which `m` stations
/// each transmit independently with probability `p`.
///
/// The computation is carried out in log-space:
/// `ln P[silence] = m·ln(1-p)` and
/// `ln P[delivery] = ln m + ln p + (m-1)·ln(1-p)`,
/// so it is stable for very large `m` and very small `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is not finite.
///
/// # Example
/// ```
/// use mac_prob::outcome::slot_outcome_probabilities;
/// // Two stations, each transmitting with probability 1/2:
/// let pr = slot_outcome_probabilities(2, 0.5);
/// assert!((pr.silence - 0.25).abs() < 1e-15);
/// assert!((pr.delivery - 0.50).abs() < 1e-15);
/// assert!((pr.collision - 0.25).abs() < 1e-15);
/// ```
pub fn slot_outcome_probabilities(m: u64, p: f64) -> SlotOutcomeProbabilities {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "transmission probability must be in [0,1], got {p}"
    );
    if m == 0 || p == 0.0 {
        return SlotOutcomeProbabilities {
            silence: 1.0,
            delivery: 0.0,
            collision: 0.0,
        };
    }
    if m == 1 {
        return SlotOutcomeProbabilities {
            silence: 1.0 - p,
            delivery: p,
            collision: 0.0,
        };
    }
    if p == 1.0 {
        // Every station transmits: certain collision for m >= 2.
        return SlotOutcomeProbabilities {
            silence: 0.0,
            delivery: 0.0,
            collision: 1.0,
        };
    }
    let mf = m as f64;
    let ln_q = (-p).ln_1p(); // ln(1-p), accurate for small p
    let silence = (mf * ln_q).exp();
    let delivery = (mf.ln() + p.ln() + (mf - 1.0) * ln_q).exp();
    let collision = (1.0 - silence - delivery).max(0.0);
    SlotOutcomeProbabilities {
        silence,
        delivery,
        collision,
    }
}

/// Samples the outcome of a slot in which `m` stations each transmit
/// independently with probability `p`.
///
/// Exact (up to f64 rounding of the outcome probabilities) and O(1) in `m`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is not finite.
///
/// # Example
/// ```
/// use mac_prob::outcome::{sample_slot_outcome, SlotOutcome};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// // A single active station transmitting with probability 1 always delivers.
/// assert_eq!(sample_slot_outcome(1, 1.0, &mut rng), SlotOutcome::Delivery);
/// ```
pub fn sample_slot_outcome<R: Rng + ?Sized>(m: u64, p: f64, rng: &mut R) -> SlotOutcome {
    let pr = slot_outcome_probabilities(m, p);
    let u: f64 = rng.gen();
    if u < pr.silence {
        SlotOutcome::Silence
    } else if u < pr.silence + pr.delivery {
        SlotOutcome::Delivery
    } else {
        SlotOutcome::Collision
    }
}

/// Samples the outcome of a slot in which station `i` transmits with its own
/// probability `ps[i]` (heterogeneous probabilities).
///
/// This is O(len(ps)): the per-station reference that the cohort kernel's
/// tests compare its classification against (no engine samples slots this
/// way). Returns the outcome together with the index of the transmitting
/// station when the outcome is a delivery.
pub fn sample_heterogeneous_slot<R: Rng + ?Sized>(
    ps: &[f64],
    rng: &mut R,
) -> (SlotOutcome, Option<usize>) {
    let mut transmitters = 0usize;
    let mut who = None;
    for (i, &p) in ps.iter().enumerate() {
        debug_assert!((0.0..=1.0).contains(&p));
        if rng.gen::<f64>() < p {
            transmitters += 1;
            if transmitters == 1 {
                who = Some(i);
            } else {
                // Early exit: outcome is already a collision and callers never
                // need the identity of colliding stations.
                return (SlotOutcome::Collision, None);
            }
        }
    }
    match transmitters {
        0 => (SlotOutcome::Silence, None),
        1 => (SlotOutcome::Delivery, who),
        _ => unreachable!("loop returns early on the second transmitter"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn probabilities_sum_to_one() {
        for &m in &[0u64, 1, 2, 3, 10, 1000, 1_000_000, 10_000_000_000] {
            for &p in &[0.0, 1e-9, 1e-3, 0.1, 0.5, 0.9, 1.0] {
                let pr = slot_outcome_probabilities(m, p);
                assert_close(pr.silence + pr.delivery + pr.collision, 1.0, 1e-9);
                assert!(pr.silence >= 0.0 && pr.delivery >= 0.0 && pr.collision >= 0.0);
            }
        }
    }

    #[test]
    fn zero_stations_is_always_silent() {
        let pr = slot_outcome_probabilities(0, 0.7);
        assert_eq!(pr.silence, 1.0);
        assert_eq!(pr.delivery, 0.0);
        assert_eq!(pr.collision, 0.0);
    }

    #[test]
    fn single_station_never_collides() {
        let pr = slot_outcome_probabilities(1, 0.3);
        assert_close(pr.delivery, 0.3, 1e-15);
        assert_close(pr.silence, 0.7, 1e-15);
        assert_eq!(pr.collision, 0.0);
    }

    #[test]
    fn all_transmit_collides_for_two_or_more() {
        let pr = slot_outcome_probabilities(5, 1.0);
        assert_eq!(pr.collision, 1.0);
    }

    #[test]
    fn two_stations_half_probability_closed_form() {
        let pr = slot_outcome_probabilities(2, 0.5);
        assert_close(pr.silence, 0.25, 1e-15);
        assert_close(pr.delivery, 0.5, 1e-15);
        assert_close(pr.collision, 0.25, 1e-15);
    }

    #[test]
    fn delivery_probability_approaches_one_over_e_at_p_equals_one_over_m() {
        for &m in &[100u64, 10_000, 1_000_000] {
            let pr = slot_outcome_probabilities(m, 1.0 / m as f64);
            assert_close(pr.delivery, (-1.0f64).exp(), 2.0 / m as f64 + 1e-3);
        }
    }

    #[test]
    fn large_m_small_p_is_numerically_stable() {
        let pr = slot_outcome_probabilities(1_000_000_000, 1e-9);
        // Poisson(1) limit: P0 = P1 = 1/e.
        assert_close(pr.silence, (-1.0f64).exp(), 1e-3);
        assert_close(pr.delivery, (-1.0f64).exp(), 1e-3);
        assert!(pr.collision > 0.0);
    }

    #[test]
    fn of_returns_matching_field() {
        let pr = slot_outcome_probabilities(3, 0.2);
        assert_eq!(pr.of(SlotOutcome::Silence), pr.silence);
        assert_eq!(pr.of(SlotOutcome::Delivery), pr.delivery);
        assert_eq!(pr.of(SlotOutcome::Collision), pr.collision);
    }

    #[test]
    #[should_panic(expected = "transmission probability")]
    fn rejects_probability_above_one() {
        let _ = slot_outcome_probabilities(2, 1.5);
    }

    #[test]
    fn sampling_matches_probabilities_empirically() {
        let mut rng = Xoshiro256pp::seed_from_u64(2024);
        let m = 50;
        let p = 0.02;
        let pr = slot_outcome_probabilities(m, p);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match sample_slot_outcome(m, p, &mut rng) {
                SlotOutcome::Silence => counts[0] += 1,
                SlotOutcome::Delivery => counts[1] += 1,
                SlotOutcome::Collision => counts[2] += 1,
            }
        }
        let tol = 4.0 * (0.25f64 / n as f64).sqrt(); // ~4 sigma
        assert_close(counts[0] as f64 / n as f64, pr.silence, tol);
        assert_close(counts[1] as f64 / n as f64, pr.delivery, tol);
        assert_close(counts[2] as f64 / n as f64, pr.collision, tol);
    }

    #[test]
    fn heterogeneous_slot_identifies_the_unique_transmitter() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        // Station 2 transmits with probability 1, everyone else 0.
        let ps = [0.0, 0.0, 1.0, 0.0];
        let (outcome, who) = sample_heterogeneous_slot(&ps, &mut rng);
        assert_eq!(outcome, SlotOutcome::Delivery);
        assert_eq!(who, Some(2));
    }

    #[test]
    fn heterogeneous_slot_collision_and_silence() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let all = [1.0, 1.0, 1.0];
        assert_eq!(
            sample_heterogeneous_slot(&all, &mut rng).0,
            SlotOutcome::Collision
        );
        let none = [0.0, 0.0];
        assert_eq!(
            sample_heterogeneous_slot(&none, &mut rng).0,
            SlotOutcome::Silence
        );
        let empty: [f64; 0] = [];
        assert_eq!(
            sample_heterogeneous_slot(&empty, &mut rng).0,
            SlotOutcome::Silence
        );
    }

    #[test]
    fn heterogeneous_matches_homogeneous_statistically() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let m = 8usize;
        let p = 0.125;
        let ps = vec![p; m];
        let n = 100_000;
        let mut delivered = 0usize;
        for _ in 0..n {
            if sample_heterogeneous_slot(&ps, &mut rng).0.is_delivery() {
                delivered += 1;
            }
        }
        let expected = slot_outcome_probabilities(m as u64, p).delivery;
        let tol = 4.0 * (expected * (1.0 - expected) / n as f64).sqrt();
        assert_close(delivered as f64 / n as f64, expected, tol);
    }
}

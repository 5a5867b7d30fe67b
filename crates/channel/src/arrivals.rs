//! Message-arrival models.
//!
//! The paper studies **static** k-selection: all `k` messages arrive in the
//! same slot (batched arrival, [`ArrivalModel::Batched`]). Its conclusions
//! point at the **dynamic** problem — messages arriving over time, either
//! statistically or adversarially — as future work; the simulator supports
//! both so that the `dynamic_arrivals` example and the extension experiments
//! can explore that regime:
//!
//! * [`ArrivalModel::Poisson`] — every slot, a Poisson(λ) number of new
//!   messages arrives at fresh stations (statistical arrivals);
//! * [`ArrivalModel::Bursts`] — an explicit adversarial schedule of
//!   `(slot, burst size)` pairs (worst-case batched bursts, cf. the bursty
//!   traffic measurements cited in the paper's introduction).
//!
//! A model is *sampled* into an [`ArrivalSchedule`] — the concrete list of
//! arrival slots, one per message — which is what the simulators consume.

use mac_prob::sampling::sample_poisson;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A stochastic or deterministic model of when messages arrive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// All `k` messages arrive simultaneously at slot 0 (the paper's static
    /// k-selection setting).
    Batched {
        /// Number of messages (= number of activated stations).
        k: u64,
    },
    /// In every slot of `0..horizon`, a Poisson(λ) number of messages arrives.
    Poisson {
        /// Expected number of arrivals per slot.
        rate: f64,
        /// Number of slots during which arrivals occur.
        horizon: u64,
    },
    /// An explicit list of `(slot, burst size)` pairs; bursts may repeat
    /// slots and need not be sorted.
    Bursts {
        /// The burst schedule.
        bursts: Vec<(u64, u64)>,
    },
}

impl ArrivalModel {
    /// Convenience constructor for the static setting.
    pub fn batched(k: u64) -> Self {
        ArrivalModel::Batched { k }
    }

    /// Expected total number of messages generated by the model.
    pub fn expected_messages(&self) -> f64 {
        match self {
            ArrivalModel::Batched { k } => *k as f64,
            ArrivalModel::Poisson { rate, horizon } => rate * *horizon as f64,
            ArrivalModel::Bursts { bursts } => bursts.iter().map(|(_, c)| *c as f64).sum(),
        }
    }

    /// True iff the model can be sampled: a Poisson rate must be finite and
    /// non-negative, and the counts of a burst schedule must sum to a
    /// message total that fits in a `u64`.
    pub fn is_valid(&self) -> bool {
        match self {
            ArrivalModel::Batched { .. } => true,
            ArrivalModel::Poisson { rate, .. } => rate.is_finite() && *rate >= 0.0,
            ArrivalModel::Bursts { bursts } => bursts
                .iter()
                .try_fold(0u64, |total, &(_, count)| total.checked_add(count))
                .is_some(),
        }
    }

    /// Samples a concrete [`ArrivalSchedule`] from the model: the per-message
    /// expansion of the bursts an [`crate::ArrivalStream`] over the same
    /// model and generator emits (both draw from one burst generator).
    ///
    /// Deterministic models ([`ArrivalModel::Batched`],
    /// [`ArrivalModel::Bursts`]) ignore the generator.
    ///
    /// # Panics
    /// Panics on an invalid model (see [`ArrivalModel::is_valid`]); the
    /// simulators' entry points reject one with a typed error first.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ArrivalSchedule {
        let model = self.normalised();
        let mut cursor = 0;
        let mut slots = Vec::new();
        while let Some((slot, count)) = model.next_burst(&mut cursor, rng) {
            slots.extend(std::iter::repeat_n(slot, count as usize));
        }
        ArrivalSchedule::new(slots)
    }

    /// The model with its bursts sorted by slot, empty bursts dropped and
    /// bursts at one slot merged, so [`ArrivalModel::next_burst`] emits
    /// strictly increasing slots. Other models are returned unchanged.
    ///
    /// # Panics
    /// Panics on an invalid model (see [`ArrivalModel::is_valid`]), so no
    /// sampler or stream starts on one and no merged count wraps.
    pub(crate) fn normalised(&self) -> ArrivalModel {
        assert!(
            self.is_valid(),
            "arrival model cannot be sampled (see ArrivalModel::is_valid)"
        );
        match self {
            ArrivalModel::Bursts { bursts } => {
                let mut sorted: Vec<(u64, u64)> =
                    bursts.iter().copied().filter(|&(_, c)| c > 0).collect();
                sorted.sort_unstable_by_key(|&(slot, _)| slot);
                let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
                for (slot, count) in sorted {
                    match merged.last_mut() {
                        Some((last_slot, last_count)) if *last_slot == slot => *last_count += count,
                        _ => merged.push((slot, count)),
                    }
                }
                ArrivalModel::Bursts { bursts: merged }
            }
            other => other.clone(),
        }
    }

    /// The burst generator behind both [`ArrivalModel::sample`] and
    /// [`crate::ArrivalStream`]: the next `(slot, count)` burst with
    /// `count > 0` of a [normalised](ArrivalModel::normalised) model, with
    /// `cursor` (starting at 0) the generator's position — the next Poisson
    /// slot to draw, or the next burst index. Poisson draws one
    /// [`sample_poisson`] per slot of `0..horizon`, in slot order.
    pub(crate) fn next_burst<R: Rng + ?Sized>(
        &self,
        cursor: &mut u64,
        rng: &mut R,
    ) -> Option<(u64, u64)> {
        match self {
            ArrivalModel::Batched { k } => {
                let first = *cursor == 0 && *k > 0;
                *cursor = 1;
                first.then_some((0, *k))
            }
            ArrivalModel::Poisson { rate, horizon } => {
                while *cursor < *horizon {
                    let slot = *cursor;
                    let count = sample_poisson(*rate, rng);
                    *cursor += 1;
                    if count > 0 {
                        return Some((slot, count));
                    }
                }
                None
            }
            ArrivalModel::Bursts { bursts } => {
                let burst = bursts.get(*cursor as usize).copied();
                if burst.is_some() {
                    *cursor += 1;
                }
                burst
            }
        }
    }
}

/// A concrete realisation of an arrival model: the arrival slot of every
/// message, sorted by slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalSchedule {
    arrival_slots: Vec<u64>,
}

impl ArrivalSchedule {
    /// Builds a schedule from per-message arrival slots (sorted internally).
    pub fn new(mut arrival_slots: Vec<u64>) -> Self {
        arrival_slots.sort_unstable();
        Self { arrival_slots }
    }

    /// Total number of messages in the schedule.
    pub fn len(&self) -> usize {
        self.arrival_slots.len()
    }

    /// True if the schedule contains no message.
    pub fn is_empty(&self) -> bool {
        self.arrival_slots.is_empty()
    }

    /// The arrival slot of every message, in non-decreasing order.
    pub fn arrival_slots(&self) -> &[u64] {
        &self.arrival_slots
    }

    /// The last slot at which any message arrives (`None` if empty).
    pub fn last_arrival(&self) -> Option<u64> {
        self.arrival_slots.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_prob::rng::Xoshiro256pp;
    use rand::SeedableRng;

    #[test]
    fn batched_schedule_is_all_zero() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let sched = ArrivalModel::batched(5).sample(&mut rng);
        assert_eq!(sched.len(), 5);
        assert_eq!(sched.arrival_slots(), &[0; 5]);
        assert_eq!(sched.last_arrival(), Some(0));
        assert_eq!(ArrivalModel::batched(5).expected_messages(), 5.0);
    }

    #[test]
    fn empty_batched_schedule() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let sched = ArrivalModel::batched(0).sample(&mut rng);
        assert!(sched.is_empty());
        assert_eq!(sched.last_arrival(), None);
    }

    #[test]
    fn bursts_expand_to_individual_messages() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let model = ArrivalModel::Bursts {
            bursts: vec![(10, 3), (2, 1), (10, 2)],
        };
        let sched = model.sample(&mut rng);
        assert_eq!(sched.len(), 6);
        assert_eq!(sched.arrival_slots(), &[2, 10, 10, 10, 10, 10]);
        assert_eq!(model.expected_messages(), 6.0);
    }

    #[test]
    fn poisson_schedule_has_roughly_rate_times_horizon_messages() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let model = ArrivalModel::Poisson {
            rate: 0.5,
            horizon: 10_000,
        };
        let sched = model.sample(&mut rng);
        let expected = model.expected_messages();
        assert!((sched.len() as f64 - expected).abs() < 5.0 * expected.sqrt());
        assert!(sched.last_arrival().unwrap() < 10_000);
        // Arrival slots are sorted.
        let slots = sched.arrival_slots();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn only_finite_non_negative_poisson_rates_are_valid() {
        for rate in [f64::NAN, -0.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                !ArrivalModel::Poisson { rate, horizon: 10 }.is_valid(),
                "{rate}"
            );
        }
        for rate in [0.0, 0.3, 25.0] {
            assert!(
                ArrivalModel::Poisson { rate, horizon: 10 }.is_valid(),
                "{rate}"
            );
        }
        assert!(ArrivalModel::batched(3).is_valid());
    }

    #[test]
    fn burst_totals_must_fit_in_u64() {
        let bursts = |bursts: Vec<(u64, u64)>| ArrivalModel::Bursts { bursts };
        assert!(bursts(vec![(0, u64::MAX)]).is_valid());
        assert!(bursts(vec![(0, u64::MAX - 1), (1, 1)]).is_valid());
        assert!(!bursts(vec![(0, u64::MAX), (1, 1)]).is_valid());
        assert!(!bursts(vec![(3, u64::MAX), (3, 1)]).is_valid());
    }

    #[test]
    #[should_panic(expected = "arrival model cannot be sampled")]
    fn sampling_an_overflowing_burst_schedule_panics() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, u64::MAX), (1, 1)],
        };
        model.sample(&mut Xoshiro256pp::seed_from_u64(0));
    }

    #[test]
    fn schedule_sorts_input() {
        let sched = ArrivalSchedule::new(vec![5, 1, 3]);
        assert_eq!(sched.arrival_slots(), &[1, 3, 5]);
    }
}

//! Runtime adversary: the stateful decision procedure behind an
//! [`AdversaryScenario`].
//!
//! # Query contract
//!
//! The simulators drive an [`AdversaryState`] under a strict contract (see
//! `crates/sim/DESIGN.md` §4 for why this keeps the fast paths exact in
//! distribution):
//!
//! * [`AdversaryState::jams_slot`] is called **only for busy slots** (at
//!   least one transmitter) and **in strictly increasing slot order**.
//!   Jamming an empty slot is unobservable in this model, so empty slots
//!   are never offered to the adversary.
//! * [`AdversaryState::jam_contended_bulk`] is the counts-only alternative
//!   for a batch of collision slots whose individual indices the caller
//!   never materialises (the window simulator's colliding bins): it is
//!   equivalent in distribution to calling `jams_slot` on each of them, and
//!   exists because jamming an already-colliding slot changes nothing but
//!   the reactive jammer's remaining budget.
//! * [`AdversaryState::misses_delivery`] is called **only for a delivery**,
//!   after the jam decision left it standing, and decides whether the
//!   listeners hear it.
//!
//! All randomness is drawn from the state's own RNG stream (seeded on a
//! dedicated path by the simulators), so an adversary — even an inactive
//! one — never advances the protocol RNG of a run.

use crate::model::{AdversaryModel, AdversaryScenario, JamTrigger};
use mac_prob::rng::Xoshiro256pp;
use mac_prob::wire::{Decoder, Encoder, WireError};
use rand::{Rng, SeedableRng};

/// Seed-derivation path tag used by every simulator for the adversary
/// stream: `derive_seed(run_seed, &[ADVERSARY_STREAM])`.
pub const ADVERSARY_STREAM: u64 = 0xAD5A;

/// The occupancy class of a busy slot, as offered to the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotClass {
    /// Exactly one station transmits: a delivery unless jammed.
    Single,
    /// Two or more stations transmit: a collision either way.
    Contended,
}

/// The runtime decision procedure of an [`AdversaryScenario`].
#[derive(Debug, Clone)]
pub struct AdversaryState {
    jamming: AdversaryModel,
    miss_delivery: f64,
    rng: Xoshiro256pp,
    /// Remaining jams for [`AdversaryModel::BudgetedReactiveJam`].
    budget_left: u64,
    /// Cursor into the normalised interval list of
    /// [`AdversaryModel::ScheduledJam`] (queries arrive in slot order).
    schedule_cursor: usize,
}

impl AdversaryState {
    /// Builds the runtime state for a scenario with its own RNG stream.
    ///
    /// # Panics
    /// Panics if the scenario fails [`AdversaryScenario::validate`] — the
    /// simulators validate configurations before any run starts.
    pub fn new(scenario: AdversaryScenario, seed: u64) -> Self {
        if let Err(message) = scenario.validate() {
            panic!("invalid adversary scenario: {message}");
        }
        let budget_left = match scenario.jamming {
            AdversaryModel::BudgetedReactiveJam { budget, .. } => budget,
            _ => 0,
        };
        Self {
            jamming: scenario.jamming.normalised(),
            miss_delivery: scenario.miss_delivery,
            // lint:allow(rng-stream-discipline): every simulator hands this
            // constructor derive_seed(run_seed, &[ADVERSARY_STREAM]); deriving
            // again here would shift the stream and break the inert-adversary
            // bit-identity guarantee against committed certificates.
            rng: Xoshiro256pp::seed_from_u64(seed),
            budget_left,
            schedule_cursor: 0,
        }
    }

    /// True if the adversary can affect the run at all. Simulators keep
    /// their pristine pre-adversary code paths when this is `false`.
    pub fn is_active(&self) -> bool {
        !self.jamming.is_none() || self.miss_delivery > 0.0
    }

    /// Remaining budget of a budgeted reactive jammer (0 for other models).
    pub fn budget_left(&self) -> u64 {
        self.budget_left
    }

    /// Writes the mutable run state — four RNG words, the remaining budget
    /// and the schedule cursor — into a checkpoint. The jamming model and
    /// the feedback fault are configuration, not state: callers record the
    /// [`AdversaryScenario`] separately ([`AdversaryModel::encode`]) and
    /// rebuild the state with [`AdversaryState::new`] before
    /// [`AdversaryState::decode`].
    pub fn encode(&self, out: &mut Encoder) {
        for w in self.rng.state_words() {
            out.put_u64(w);
        }
        out.put_u64(self.budget_left);
        out.put_usize(self.schedule_cursor);
    }

    /// Restores the run state written by [`AdversaryState::encode`] onto a
    /// state built from the run's scenario; the run then continues
    /// bit-identically to the uninterrupted one.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncated input or a cursor that does
    /// not fit in `usize`.
    pub fn decode(&mut self, input: &mut Decoder<'_>) -> Result<(), WireError> {
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = input.take_u64()?;
        }
        self.rng = Xoshiro256pp::from_state_words(rng);
        self.budget_left = input.take_u64()?;
        self.schedule_cursor = input.take_usize()?;
        Ok(())
    }

    /// Decides whether the adversary jams the given **busy** slot.
    ///
    /// Must be called in strictly increasing slot order (the scheduled
    /// jammer advances a cursor, and the budgeted jammer spends its budget
    /// in slot order).
    pub fn jams_slot(&mut self, slot: u64, class: SlotClass) -> bool {
        match &self.jamming {
            AdversaryModel::None => false,
            AdversaryModel::StochasticNoise { p } => self.rng.gen::<f64>() < *p,
            AdversaryModel::PeriodicJam {
                period,
                burst,
                phase,
            } => (slot.wrapping_add(*phase)) % period < *burst,
            AdversaryModel::ScheduledJam { bursts } => {
                // Containment is computed as `slot - start < len` so an
                // interval reaching past u64::MAX cannot overflow.
                while let Some(&(start, len)) = bursts.get(self.schedule_cursor) {
                    if slot < start {
                        return false;
                    }
                    if slot - start < len {
                        return true;
                    }
                    self.schedule_cursor += 1;
                }
                false
            }
            AdversaryModel::BudgetedReactiveJam { trigger, .. } => {
                let fires = self.budget_left > 0
                    && match trigger {
                        JamTrigger::NearSuccess => class == SlotClass::Single,
                        JamTrigger::Contended => class == SlotClass::Contended,
                    };
                if fires {
                    self.budget_left -= 1;
                }
                fires
            }
        }
    }

    /// Batch form of [`AdversaryState::jams_slot`] for `colliding` collision
    /// slots whose positions the caller does not materialise. Returns the
    /// number of them that were jammed.
    ///
    /// Jamming an already-contended slot leaves its outcome a collision, so
    /// only the budgeted jammer's remaining budget is affected; the other
    /// models return without touching any state (for the stochastic model
    /// the skipped Bernoulli draws are independent of every other decision,
    /// so the distribution of the run is unchanged).
    pub fn jam_contended_bulk(&mut self, colliding: u64) -> u64 {
        match &self.jamming {
            AdversaryModel::BudgetedReactiveJam {
                trigger: JamTrigger::Contended,
                ..
            } => {
                let jammed = self.budget_left.min(colliding);
                self.budget_left -= jammed;
                jammed
            }
            _ => 0,
        }
    }

    /// Decides whether the feedback fault hides a delivery from the
    /// listening stations. Acknowledgements are reliable, so the delivered
    /// station retires either way. Draws nothing when the fault is off.
    pub fn misses_delivery(&mut self) -> bool {
        self.miss_delivery > 0.0 && self.rng.gen::<f64>() < self.miss_delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jam_only(model: AdversaryModel) -> AdversaryState {
        AdversaryState::new(AdversaryScenario::jamming(model), 7)
    }

    #[test]
    fn inactive_adversary_never_jams() {
        let mut state = AdversaryState::new(AdversaryScenario::clean(), 0);
        assert!(!state.is_active());
        for slot in 0..100 {
            assert!(!state.jams_slot(slot, SlotClass::Single));
        }
        assert_eq!(state.jam_contended_bulk(50), 0);
        assert!(!state.misses_delivery());
    }

    #[test]
    fn zero_probability_noise_is_active_but_harmless() {
        let mut state = jam_only(AdversaryModel::StochasticNoise { p: 0.0 });
        assert!(state.is_active());
        for slot in 0..100 {
            assert!(!state.jams_slot(slot, SlotClass::Single));
        }
    }

    #[test]
    fn certain_noise_jams_everything() {
        let mut state = jam_only(AdversaryModel::StochasticNoise { p: 1.0 });
        for slot in 0..100 {
            assert!(state.jams_slot(slot, SlotClass::Contended));
        }
    }

    #[test]
    fn stochastic_noise_hits_at_its_rate() {
        let mut state = jam_only(AdversaryModel::StochasticNoise { p: 0.3 });
        let n = 100_000u64;
        let jams = (0..n)
            .filter(|&slot| state.jams_slot(slot, SlotClass::Single))
            .count() as f64;
        let rate = jams / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn periodic_jam_follows_its_pattern() {
        let mut state = jam_only(AdversaryModel::PeriodicJam {
            period: 4,
            burst: 2,
            phase: 1,
        });
        // (slot + 1) % 4 < 2  =>  jammed slots are 3,4, 7,8, 11,12, ...
        let jammed: Vec<u64> = (0..13)
            .filter(|&slot| state.jams_slot(slot, SlotClass::Single))
            .collect();
        assert_eq!(jammed, vec![0, 3, 4, 7, 8, 11, 12]);
    }

    #[test]
    fn scheduled_jam_honours_intervals_and_cursor() {
        let mut state = jam_only(AdversaryModel::ScheduledJam {
            bursts: vec![(10, 3), (2, 2)], // normalised to [(2,2), (10,3)]
        });
        let jammed: Vec<u64> = (0..20)
            .filter(|&slot| state.jams_slot(slot, SlotClass::Single))
            .collect();
        assert_eq!(jammed, vec![2, 3, 10, 11, 12]);
    }

    #[test]
    fn scheduled_jam_near_u64_max_does_not_overflow() {
        let mut state = jam_only(AdversaryModel::ScheduledJam {
            bursts: vec![(10, 2), (u64::MAX - 1, 5)],
        });
        assert!(state.jams_slot(10, SlotClass::Single));
        assert!(!state.jams_slot(12, SlotClass::Single));
        // The tail interval reaches past u64::MAX: it must jam every slot
        // from its start onwards instead of wrapping around.
        assert!(!state.jams_slot(u64::MAX - 2, SlotClass::Single));
        assert!(state.jams_slot(u64::MAX - 1, SlotClass::Single));
        assert!(state.jams_slot(u64::MAX, SlotClass::Single));
    }

    #[test]
    fn budgeted_near_success_only_jams_singles_until_exhausted() {
        let mut state = jam_only(AdversaryModel::BudgetedReactiveJam {
            budget: 2,
            trigger: JamTrigger::NearSuccess,
        });
        assert!(!state.jams_slot(0, SlotClass::Contended));
        assert!(state.jams_slot(1, SlotClass::Single));
        assert!(state.jams_slot(2, SlotClass::Single));
        assert!(!state.jams_slot(3, SlotClass::Single), "budget exhausted");
        assert_eq!(state.budget_left(), 0);
    }

    #[test]
    fn budgeted_contended_spends_on_collisions_only() {
        let mut state = jam_only(AdversaryModel::BudgetedReactiveJam {
            budget: 5,
            trigger: JamTrigger::Contended,
        });
        assert!(!state.jams_slot(0, SlotClass::Single));
        assert!(state.jams_slot(1, SlotClass::Contended));
        assert_eq!(state.jam_contended_bulk(3), 3);
        assert_eq!(state.jam_contended_bulk(3), 1, "only one jam left");
        assert_eq!(state.budget_left(), 0);
    }

    #[test]
    fn feedback_fault_flips_at_its_rates() {
        let mut state = AdversaryState::new(AdversaryScenario::faulty_feedback(1.0), 3);
        assert!(state.is_active());
        assert!((0..10).all(|_| state.misses_delivery()));
        let mut state = AdversaryState::new(AdversaryScenario::faulty_feedback(0.3), 3);
        let n = 100_000;
        let rate = (0..n).filter(|_| state.misses_delivery()).count() as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn clean_feedback_never_draws() {
        let mut a = jam_only(AdversaryModel::StochasticNoise { p: 0.5 });
        let mut b = jam_only(AdversaryModel::StochasticNoise { p: 0.5 });
        // Asking a clean fault must not consume randomness: interleaving
        // misses_delivery calls leaves the jam stream identical.
        let plain: Vec<bool> = (0..50).map(|s| a.jams_slot(s, SlotClass::Single)).collect();
        let interleaved: Vec<bool> = (0..50)
            .map(|s| {
                assert!(!b.misses_delivery());
                b.jams_slot(s, SlotClass::Single)
            })
            .collect();
        assert_eq!(plain, interleaved);
    }

    #[test]
    #[should_panic(expected = "invalid adversary scenario")]
    fn invalid_scenario_is_rejected_at_construction() {
        let _ = AdversaryState::new(
            AdversaryScenario::jamming(AdversaryModel::StochasticNoise { p: 2.0 }),
            0,
        );
    }
}

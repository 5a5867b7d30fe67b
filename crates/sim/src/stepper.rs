//! The exact simulator paused at every single-transmitter slot, for the
//! adversary strategy search.
//!
//! The strategy search ([`mac_adversary::search`]) explores a game tree
//! whose decision points are the single-transmitter slots of a run. To do
//! that soundly it needs to *pause* the exact simulation at each such slot,
//! snapshot the complete state (stations **and** RNG), and explore both the
//! jam and the no-jam branch. [`ExactSimulator::stepper`] provides exactly
//! that: an [`mac_adversary::AdversaryGame`] over the exact simulator's own
//! station loop (`StationCore` in `exact.rs`, built by the same visit as
//! every exact run): `advance_to_single` runs whole slots until a *decide*
//! phase finds one transmitter, and `resolve_single` runs that slot's
//! *resolve* phase with the search's jam decision in place of an
//! adversary's.
//!
//! ## Equivalence
//!
//! A playout with every single resolved unjammed therefore *is*
//! `ExactSimulator::run` on the same `(kind, k, seed)` — one loop, one RNG
//! stream — and a playout that jams a set `S` of singles is
//! `ExactSimulator::run` with a
//! [`mac_adversary::AdversaryModel::ScheduledJam`] over `S` (deterministic
//! jammers draw nothing from either stream). Both are unit-tested below; the
//! first is what makes a tier-(a) certificate a statement about the *real*
//! simulator, not a model of it. Any `k` works; the exhaustive search's own
//! `C(k+B, B)` tree is what keeps instances small.
//!
//! ## State keys
//!
//! The snapshot fingerprint ([`mac_adversary::AdversaryGame::state_key`])
//! concatenates the loop scalars, the raw 256-bit RNG state and every
//! active station's [`mac_protocols::Protocol::state_signature`]. The fair
//! line-up provides exact signatures (schedule phase and both probability
//! tracks, bit for bit), so the exhaustive search deduplicates;
//! window protocols return no signature and the search falls back to pure
//! tree exploration rather than risk unsound merging.

use crate::exact::ExactSimulator;
use mac_adversary::{AdversaryGame, AdversaryScenario};
use mac_channel::ArrivalSchedule;
use mac_protocols::ParameterError;

impl ExactSimulator {
    /// A resumable, snapshot-able handle on this simulator's batched
    /// `(k, seed)` run, for the adversary strategy search: the station loop
    /// of [`ExactSimulator::run`], paused at every single-transmitter slot.
    ///
    /// The kind is visited once into the monomorphic station loop, so
    /// stepping does not pay virtual dispatch per station. Feed the game to
    /// [`mac_adversary::exhaustive_worst_case`] to certify a worst case.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid,
    /// or if the simulator's options configure an adversary — the search
    /// *is* the adversary here, and layering a scripted one underneath
    /// would corrupt the game's jam accounting.
    ///
    /// # Example
    /// ```
    /// use mac_adversary::exhaustive_worst_case;
    /// use mac_protocols::ProtocolKind;
    /// use mac_sim::{ExactSimulator, RunOptions};
    ///
    /// let sim = ExactSimulator::new(ProtocolKind::KnownKOracle, RunOptions::default());
    /// let game = sim.stepper(4, 7).unwrap();
    /// let worst = exhaustive_worst_case(&*game, 2);
    /// assert!(worst.jam_slots.len() <= 2);
    /// ```
    pub fn stepper(&self, k: u64, seed: u64) -> Result<Box<dyn AdversaryGame>, ParameterError> {
        if self.options.adversary != AdversaryScenario::default() {
            return Err(ParameterError::new(
                "adversary",
                f64::NAN,
                "the stepper requires a clean scenario: the strategy search supplies the adversary",
            ));
        }
        let schedule = ArrivalSchedule::new(vec![0; k as usize]);
        let mut game = self.station_loop(&schedule, seed)?;
        // Every message arrives at slot 0: activate the stations now, so a
        // fresh game's state key already covers them.
        game.activate_arrivals();
        Ok(game)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOptions;
    use mac_adversary::{exhaustive_worst_case, AdversaryModel};
    use mac_protocols::ProtocolKind;

    /// Plays a stepper to the end, jamming the singles whose slot the
    /// predicate accepts, and returns (makespan, completed, jammed slots).
    fn playout(
        mut game: Box<dyn AdversaryGame>,
        mut jam: impl FnMut(u64) -> bool,
    ) -> (u64, bool, Vec<u64>) {
        let mut jammed = Vec::new();
        while let Some(slot) = game.advance_to_single() {
            let j = jam(slot);
            if j {
                jammed.push(slot);
            }
            game.resolve_single(j);
        }
        (game.makespan(), game.completed(), jammed)
    }

    #[test]
    fn unjammed_playout_matches_the_exact_simulator_bit_for_bit() {
        let mut kinds = ProtocolKind::paper_lineup();
        kinds.push(ProtocolKind::RandomizedParityOneFail { delta: 2.72 });
        for kind in kinds {
            // k = 100 exceeds the 64 bits of a machine word: the stepper
            // keeps no transmission bitmask.
            for (k, seed) in [(12u64, 1u64), (12, 7), (12, 42), (100, 5)] {
                let options = RunOptions::default();
                let reference = ExactSimulator::new(kind.clone(), options.clone())
                    .run(k, seed)
                    .unwrap();
                let game = ExactSimulator::new(kind.clone(), options.clone())
                    .stepper(k, seed)
                    .unwrap();
                let (makespan, completed, jammed) = playout(game, |_| false);
                assert!(completed, "{} k {k} seed {seed}", kind.label());
                assert!(jammed.is_empty());
                assert_eq!(
                    makespan,
                    reference.makespan,
                    "{} k {k} seed {seed}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn jammed_playout_matches_a_scheduled_jam_replay() {
        for kind in [
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ] {
            let options = RunOptions::default();
            let game = ExactSimulator::new(kind.clone(), options.clone())
                .stepper(8, 3)
                .unwrap();
            let mut left = 4u64;
            let (makespan, completed, jammed) = playout(game, |_| {
                let j = left > 0;
                left = left.saturating_sub(1);
                j
            });
            assert!(completed);
            assert_eq!(jammed.len(), 4);

            let replay_options = RunOptions {
                adversary: AdversaryScenario::jamming(
                    AdversaryModel::ScheduledJam {
                        bursts: jammed.iter().map(|&s| (s, 1)).collect(),
                    }
                    .normalised(),
                ),
                ..RunOptions::default()
            };
            let replay = ExactSimulator::new(kind.clone(), replay_options)
                .run(8, 3)
                .unwrap();
            assert_eq!(replay.makespan, makespan, "{}", kind.label());
            assert_eq!(replay.jammed_deliveries, 4, "{}", kind.label());
        }
    }

    #[test]
    fn fair_kinds_expose_state_keys_and_window_kinds_do_not() {
        let options = RunOptions::default();
        let fair = ExactSimulator::new(ProtocolKind::KnownKOracle, options.clone())
            .stepper(4, 1)
            .unwrap();
        assert!(fair.state_key().is_some());
        let window = ExactSimulator::new(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, options)
            .stepper(4, 1)
            .unwrap();
        assert!(window.state_key().is_none());
    }

    #[test]
    fn state_key_distinguishes_seeds_and_reflects_progress() {
        let options = RunOptions::default();
        let sim = ExactSimulator::new(ProtocolKind::KnownKOracle, options);
        let a = sim.stepper(4, 1).unwrap();
        let b = sim.stepper(4, 2).unwrap();
        assert_ne!(a.state_key(), b.state_key(), "seeds must differ in the key");
        let mut c = sim.stepper(4, 1).unwrap();
        let before = c.state_key();
        c.advance_to_single();
        assert_ne!(c.state_key(), before, "progress must change the key");
    }

    #[test]
    fn exhaustive_worst_case_dominates_the_clean_run() {
        let options = RunOptions::default();
        let clean = ExactSimulator::new(ProtocolKind::KnownKOracle, options.clone())
            .run(4, 2)
            .unwrap();
        let game = ExactSimulator::new(ProtocolKind::KnownKOracle, options)
            .stepper(4, 2)
            .unwrap();
        let worst = exhaustive_worst_case(&*game, 3);
        assert!(
            worst.makespan > clean.makespan,
            "a budget-3 jammer must be able to hurt a k=4 run ({} vs {})",
            worst.makespan,
            clean.makespan
        );
        assert!(worst.jam_slots.len() <= 3);
        assert!(worst.stats.deduplicated, "fair keys enable the memo table");

        // Zero budget certifies the clean run itself.
        let zero = exhaustive_worst_case(&*game, 0);
        assert_eq!(zero.makespan, clean.makespan);
        assert!(zero.jam_slots.is_empty());
    }

    #[test]
    fn rejects_configured_adversaries() {
        let armed = RunOptions {
            adversary: AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
                period: 2,
                burst: 1,
                phase: 0,
            }),
            ..RunOptions::default()
        };
        assert!(ExactSimulator::new(ProtocolKind::KnownKOracle, armed)
            .stepper(4, 1)
            .is_err());
    }
}

//! The exact simulator paused at every single-transmitter slot, for the
//! adversary strategy search.
//!
//! The strategy search ([`mac_adversary::search`]) explores a game tree
//! whose decision points are the single-transmitter slots of a run. To do
//! that soundly it needs to *pause* the exact simulation at each such slot,
//! snapshot the complete state (stations **and** RNG), and explore both the
//! jam and the no-jam branch. [`ExactStepper`] provides exactly that by
//! implementing [`mac_adversary::AdversaryGame`] over the exact simulator's
//! own station loop (`StationCore` in `exact.rs`): `advance_to_single` runs
//! whole slots until a *decide* phase finds one transmitter, and
//! `resolve_single` runs that slot's *resolve* phase with the search's jam
//! decision passed to the channel in place of an adversary.
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
//! line-up provides exact signatures (delivery count, schedule phase, both
//! probability tracks bit-for-bit), so the exhaustive search deduplicates;
//! window protocols return no signature and the search falls back to pure
//! tree exploration rather than risk unsound merging.

use crate::exact::{ExactSimulator, StationCore};
use crate::result::RunOptions;
use mac_adversary::{AdversaryGame, AdversaryScenario};
use mac_channel::ArrivalSchedule;
use mac_protocols::{
    FairNode, FairProtocol, KindVisitor, ParameterError, Protocol, ProtocolKind, WindowNode,
    WindowSchedule,
};
use std::fmt;

/// A resumable, snapshot-able handle on one exact batched run, for the
/// adversary strategy search.
///
/// Construction visits the protocol kind once into the exact simulator's
/// monomorphic station loop, so stepping does not pay virtual dispatch per
/// station. The stepper itself *is* an [`AdversaryGame`]; feed it to
/// [`mac_adversary::exhaustive_worst_case`] to certify a worst case.
///
/// # Example
/// ```
/// use mac_adversary::{exhaustive_worst_case, AdversaryGame};
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{ExactStepper, RunOptions};
///
/// let kind = ProtocolKind::KnownKOracle;
/// let game = ExactStepper::new(&kind, 4, 7, &RunOptions::default()).unwrap();
/// let worst = exhaustive_worst_case(&game, 2);
/// assert!(worst.jam_slots.len() <= 2);
/// ```
pub struct ExactStepper {
    inner: Box<dyn AdversaryGame>,
    kind: ProtocolKind,
}

impl fmt::Debug for ExactStepper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactStepper")
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl ExactStepper {
    /// Creates a stepper over a batched `(kind, k, seed)` instance on the
    /// paper's channel model.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid,
    /// or if `options` configures an adversary — the search *is* the
    /// adversary here, and layering a scripted one underneath would corrupt
    /// the game's jam accounting.
    pub fn new(
        kind: &ProtocolKind,
        k: u64,
        seed: u64,
        options: &RunOptions,
    ) -> Result<Self, ParameterError> {
        if options.adversary != AdversaryScenario::default() {
            return Err(ParameterError::new(
                "adversary",
                f64::NAN,
                "ExactStepper requires a clean scenario: the strategy search supplies the adversary",
            ));
        }
        let game = GameCore {
            sim: &ExactSimulator::new(kind.clone(), options.clone()),
            schedule: ArrivalSchedule::new(vec![0; k as usize]),
            seed,
        };
        Ok(Self {
            inner: kind.visit(k, game)?,
            kind: kind.clone(),
        })
    }
}

/// [`ExactStepper::new`]'s visit: the exact simulator's station core over
/// clones of the visited state's per-station adapter.
struct GameCore<'a> {
    sim: &'a ExactSimulator,
    schedule: ArrivalSchedule,
    seed: u64,
}

impl GameCore<'_> {
    fn core<Pr: Protocol + Clone + 'static>(self, station: Pr) -> Box<dyn AdversaryGame> {
        let stations = std::iter::repeat(station);
        let mut core = StationCore::new(self.sim, stations, &self.schedule, self.seed);
        // Every message arrives at slot 0: activate the stations now, so a
        // fresh game's state key already covers them.
        core.activate_arrivals();
        Box::new(core)
    }
}

impl KindVisitor for GameCore<'_> {
    type Output = Box<dyn AdversaryGame>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        self.core(FairNode::new(state))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        self.core(WindowNode::new(schedule))
    }
}

impl AdversaryGame for ExactStepper {
    fn advance_to_single(&mut self) -> Option<u64> {
        self.inner.advance_to_single()
    }
    fn resolve_single(&mut self, jam: bool) {
        self.inner.resolve_single(jam)
    }
    fn makespan(&self) -> u64 {
        self.inner.makespan()
    }
    fn completed(&self) -> bool {
        self.inner.completed()
    }
    fn state_key(&self) -> Option<Vec<u64>> {
        self.inner.state_key()
    }
    fn clone_game(&self) -> Box<dyn AdversaryGame> {
        self.inner.clone_game()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSimulator;
    use mac_adversary::{exhaustive_worst_case, AdversaryModel};

    /// Plays a stepper to the end, jamming the singles whose slot the
    /// predicate accepts, and returns (makespan, completed, jammed slots).
    fn playout(mut game: ExactStepper, mut jam: impl FnMut(u64) -> bool) -> (u64, bool, Vec<u64>) {
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
                let game = ExactStepper::new(&kind, k, seed, &options).unwrap();
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
            let game = ExactStepper::new(&kind, 8, 3, &options).unwrap();
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
        let fair = ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 1, &options).unwrap();
        assert!(fair.state_key().is_some());
        let window = ExactStepper::new(
            &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            4,
            1,
            &options,
        )
        .unwrap();
        assert!(window.state_key().is_none());
    }

    #[test]
    fn state_key_distinguishes_seeds_and_reflects_progress() {
        let options = RunOptions::default();
        let a = ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 1, &options).unwrap();
        let b = ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 2, &options).unwrap();
        assert_ne!(a.state_key(), b.state_key(), "seeds must differ in the key");
        let mut c = ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 1, &options).unwrap();
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
        let game = ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 2, &options).unwrap();
        let worst = exhaustive_worst_case(&game, 3);
        assert!(
            worst.makespan > clean.makespan,
            "a budget-3 jammer must be able to hurt a k=4 run ({} vs {})",
            worst.makespan,
            clean.makespan
        );
        assert!(worst.jam_slots.len() <= 3);
        assert!(worst.stats.deduplicated, "fair keys enable the memo table");

        // Zero budget certifies the clean run itself.
        let zero = exhaustive_worst_case(&game, 0);
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
        assert!(ExactStepper::new(&ProtocolKind::KnownKOracle, 4, 1, &armed).is_err());
    }
}

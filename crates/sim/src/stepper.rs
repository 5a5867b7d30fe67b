//! Resumable step/snapshot driver over the exact per-station simulator.
//!
//! The adversary strategy search ([`mac_adversary::search`]) explores a game
//! tree whose decision points are the single-transmitter slots of a run. To
//! do that soundly it needs to *pause* the exact simulation at each such
//! slot, snapshot the complete state (stations **and** RNG), and explore
//! both the jam and the no-jam branch. [`ExactStepper`] provides exactly
//! that interface by implementing [`mac_adversary::AdversaryGame`] over a
//! re-expression of [`crate::ExactSimulator`]'s station-driving loop.
//!
//! ## Equivalence contract
//!
//! A stepper playout with every single resolved unjammed consumes the
//! protocol RNG identically to `ExactSimulator::run` on the same
//! `(kind, k, seed)` — same per-station `decide` draws in the same active-vec
//! order, same observation fan-out, same `swap_remove` retirement — so its
//! makespan equals the exact simulator's bit-for-bit. A playout that jams a
//! set `S` of singles equals `ExactSimulator::run` with a
//! [`mac_adversary::AdversaryModel::ScheduledJam`] over `S` (deterministic
//! jammers draw nothing from either stream). Both identities are unit-tested
//! below; the first is what makes a tier-(a) certificate a statement about
//! the *real* simulator, not a model of it.
//!
//! ## State keys
//!
//! The snapshot fingerprint ([`mac_adversary::AdversaryGame::state_key`])
//! concatenates the driver scalars, the raw 256-bit RNG state and every
//! active station's [`mac_protocols::Protocol::state_signature`]. The fair
//! line-up provides exact signatures (delivery count, schedule phase, both
//! probability tracks bit-for-bit), so the exhaustive search deduplicates;
//! window protocols return no signature and the search falls back to pure
//! tree exploration rather than risk unsound merging.

use crate::result::RunOptions;
use mac_adversary::{AdversaryGame, AdversaryScenario};
use mac_channel::{ChannelModel, SlotOutcome};
use mac_prob::rng::Xoshiro256pp;
use mac_protocols::{
    FairNode, FairProtocol, KindVisitor, ParameterError, Protocol, ProtocolKind, WindowNode,
    WindowSchedule,
};
use rand::SeedableRng;
use std::fmt;

/// Stations are tracked in a `u64` transmission bitmask, so the exhaustive
/// tier is capped at 64 stations — far above the `C(k+B, B)` sizes the game
/// tree itself permits.
pub const MAX_STEPPER_STATIONS: u64 = 64;

/// The monomorphic game core: the exact simulator's batched station loop,
/// refactored into `advance_to_single` / `resolve_single` phases.
#[derive(Clone)]
struct Core<Pr: Protocol + Clone> {
    model: ChannelModel,
    rng: Xoshiro256pp,
    active: Vec<Pr>,
    /// Transmission decisions of the pending slot, one bit per active index.
    transmitted: u64,
    /// Active index of the pending slot's sole transmitter.
    sole_position: usize,
    /// True between `advance_to_single` returning `Some` and the matching
    /// `resolve_single`.
    pending: bool,
    slot: u64,
    max_slots: u64,
    remaining: u64,
    makespan: u64,
}

impl<Pr: Protocol + Clone> Core<Pr> {
    fn new(prototype: Pr, k: u64, seed: u64, options: &RunOptions) -> Self {
        // One fresh station per message, exactly as the exact simulator's
        // factory produces them (construction draws no randomness, so a
        // clone of an identically-built prototype is the same thing).
        Self {
            model: ChannelModel::without_collision_detection(),
            // lint:allow(rng-stream-discipline): the protocol stream IS the
            // raw run seed, matching the exact simulator draw-for-draw —
            // the stepper's whole conformance claim; deriving here would
            // break stream identity with every committed artifact.
            rng: Xoshiro256pp::seed_from_u64(seed),
            active: (0..k).map(|_| prototype.clone()).collect(),
            transmitted: 0,
            sole_position: usize::MAX,
            pending: false,
            slot: 0,
            max_slots: options.max_slots(k),
            remaining: k,
            makespan: 0,
        }
    }

    /// Fans the slot outcome out to every active station, mirroring the
    /// exact simulator: the delivered station (if any) sees the true
    /// outcome, everyone else the same outcome on this clean channel.
    fn observe_all(&mut self, outcome: SlotOutcome, delivered_position: usize) {
        let model = self.model;
        let mask = self.transmitted;
        for (pos, station) in self.active.iter_mut().enumerate() {
            let transmitted = mask & (1 << pos) != 0;
            let observation = model.observe(outcome, transmitted, pos == delivered_position);
            station.observe(observation);
        }
    }
}

impl<Pr: Protocol + Clone + 'static> AdversaryGame for Core<Pr> {
    fn advance_to_single(&mut self) -> Option<u64> {
        debug_assert!(!self.pending, "previous single was never resolved");
        while self.remaining > 0 && self.slot < self.max_slots {
            // Decision loop: one Bernoulli draw per active station, in
            // active-vec order — the exact simulator's RNG consumption.
            let mut count = 0u64;
            let mut mask = 0u64;
            let mut sole = usize::MAX;
            for (pos, station) in self.active.iter_mut().enumerate() {
                if station.decide(&mut self.rng) {
                    count += 1;
                    mask |= 1 << pos;
                    sole = pos;
                }
            }
            self.transmitted = mask;
            if count == 1 {
                // A would-be delivery: hand the jam/don't-jam decision to
                // the search.
                self.sole_position = sole;
                self.pending = true;
                return Some(self.slot);
            }
            // Silent and contended slots hold no non-dominated adversary
            // decision; resolve them internally.
            let outcome = if count == 0 {
                SlotOutcome::Silence
            } else {
                SlotOutcome::Collision
            };
            self.observe_all(outcome, usize::MAX);
            self.slot += 1;
        }
        None
    }

    fn resolve_single(&mut self, jam: bool) {
        assert!(self.pending, "no single-transmitter slot is pending");
        self.pending = false;
        if jam {
            // The jam destroys the delivery: every station (including the
            // transmitter, whose ACK never arrives) observes a collision.
            self.observe_all(SlotOutcome::Collision, usize::MAX);
        } else {
            let sole = self.sole_position;
            self.observe_all(SlotOutcome::Delivery, sole);
            self.active.swap_remove(sole);
            self.remaining -= 1;
            self.makespan = self.slot + 1;
        }
        self.sole_position = usize::MAX;
        self.slot += 1;
    }

    fn makespan(&self) -> u64 {
        if self.remaining == 0 {
            self.makespan
        } else {
            self.slot
        }
    }

    fn completed(&self) -> bool {
        self.remaining == 0
    }

    fn state_key(&self) -> Option<Vec<u64>> {
        let mut key = vec![
            self.slot,
            self.remaining,
            self.transmitted,
            self.sole_position as u64,
            u64::from(self.pending),
        ];
        key.extend(self.rng.state_words());
        for station in &self.active {
            // All-or-nothing: a single station without an exact signature
            // disables deduplication rather than risk an unsound merge.
            let signature = station.state_signature()?;
            key.push(signature.len() as u64);
            key.extend(signature);
        }
        Some(key)
    }

    fn clone_game(&self) -> Box<dyn AdversaryGame> {
        Box::new(self.clone())
    }
}

/// A resumable, snapshot-able handle on one exact batched run, for the
/// adversary strategy search.
///
/// Construction visits the protocol kind once into a monomorphic game
/// core (as [`crate::ExactSimulator`] does), so stepping does not pay
/// virtual dispatch per station. The stepper itself *is* an
/// [`AdversaryGame`]; feed it to
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
    /// if `k` exceeds [`MAX_STEPPER_STATIONS`], or if `options` configures
    /// an adversary — the search *is* the adversary here, and layering a
    /// scripted one underneath would corrupt the game's jam accounting.
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
        if k > MAX_STEPPER_STATIONS {
            return Err(ParameterError::new(
                "k",
                k as f64,
                "ExactStepper tracks transmissions in a 64-bit mask; exhaustive search is for small k",
            ));
        }
        let inner = kind.visit(k, GameCore { k, seed, options })?;
        Ok(Self {
            inner,
            kind: kind.clone(),
        })
    }
}

/// [`ExactStepper::new`]'s visit: the game core over the visited state's
/// per-station adapter.
struct GameCore<'a> {
    k: u64,
    seed: u64,
    options: &'a RunOptions,
}

impl KindVisitor for GameCore<'_> {
    type Output = Box<dyn AdversaryGame>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        let station = FairNode::new(state);
        Box::new(Core::new(station, self.k, self.seed, self.options))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        let station = WindowNode::new(schedule);
        Box::new(Core::new(station, self.k, self.seed, self.options))
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
            for seed in [1u64, 7, 42] {
                let options = RunOptions::default();
                let reference = ExactSimulator::new(kind.clone(), options.clone())
                    .run(12, seed)
                    .unwrap();
                let game = ExactStepper::new(&kind, 12, seed, &options).unwrap();
                let (makespan, completed, jammed) = playout(game, |_| false);
                assert!(completed, "{} seed {seed}", kind.label());
                assert!(jammed.is_empty());
                assert_eq!(makespan, reference.makespan, "{} seed {seed}", kind.label());
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
    fn rejects_oversized_instances_and_configured_adversaries() {
        let options = RunOptions::default();
        assert!(ExactStepper::new(&ProtocolKind::KnownKOracle, 65, 1, &options).is_err());
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

//! Protocol traits and adapters.
//!
//! Three levels of abstraction are provided:
//!
//! * [`Protocol`] — the per-station state machine interface: *decide* whether
//!   to transmit in the next slot, then *observe* the one bit the channel
//!   gives a station about that slot: whether another station's message got
//!   through. This is what the exact simulator drives, one instance per
//!   station, and it works for any protocol.
//! * [`FairProtocol`] — protocols in which every active station uses the
//!   same transmission probability in every slot and reacts only to public
//!   feedback. Wrapping a `FairProtocol` in a [`FairNode`] yields a
//!   [`Protocol`]; the fair fast simulator instead keeps a *single* shared
//!   copy of the state.
//! * [`WindowSchedule`] — protocols in which a station picks one uniform slot
//!   per window of a deterministic window-length sequence. Wrapping a
//!   schedule in a [`WindowNode`] yields a [`Protocol`]; the window fast
//!   simulator instead runs one balls-in-bins experiment per window.
//!
//! Which protocol a configuration names, and which of these shapes it
//! takes, is the kind table's business ([`crate::kind`]).

use rand::{Rng, RngCore};
use std::fmt::Debug;

/// A per-station contention-resolution protocol.
///
/// The driving loop is, for every slot while the station is active:
///
/// 1. `transmit = protocol.decide(rng)`;
/// 2. the channel resolves the slot from all stations' decisions;
/// 3. if the station's own message was delivered, the station is idle from
///    now on and the simulator drops it; every other station is told
///    `protocol.observe(heard_delivery)`.
///
/// That bit is everything the paper's channel tells a station that did not
/// deliver: without collision detection a collision and an empty slot both
/// read as noise, so what remains is whether some message got through.
pub trait Protocol: Debug {
    /// Decides whether the station transmits in the next slot.
    fn decide(&mut self, rng: &mut dyn RngCore) -> bool;

    /// Observes the slot that was just decided, which did not deliver this
    /// station's message: `heard_delivery` is true iff another station's
    /// message was delivered.
    fn observe(&mut self, heard_delivery: bool);

    /// An *exact* fingerprint of the station's protocol state, if the
    /// protocol can produce one: two stations returning equal signatures
    /// behave identically under identical future inputs (decide draws and
    /// heard bits), forever.
    ///
    /// This is the per-station analogue of the cohort engine's
    /// ([`FairProtocol::schedule_phase`], probability tracks) merge key: the
    /// adversary strategy search uses it to deduplicate game-tree nodes, and
    /// soundness of the resulting *certificates* requires exactness — a
    /// lossy hash could merge distinct states and silently prune the true
    /// worst case. Protocols that cannot pin their state exactly (window
    /// protocols carry in-window position and the chosen slot, which this
    /// interface does not expose) return `None`, and the search falls back
    /// to exploring without deduplication. The default is `None`.
    fn state_signature(&self) -> Option<Vec<u64>> {
        None
    }
}

/// A *fair* protocol: all active stations transmit with the same probability,
/// derived from public information only.
///
/// The object captures the **common state** of the active stations (under
/// batched arrivals every active station holds an identical copy). Each slot:
///
/// 1. every active station transmits with
///    [`FairProtocol::transmission_probability`];
/// 2. after the slot, [`FairProtocol::advance`] is called with `delivered =
///    true` iff some station's message was delivered in the slot.
///
/// `Send` is a supertrait so that engine states built over fair protocols
/// can be driven on the multi-threaded runner (the sharded multi-channel
/// sessions move each shard's state onto a worker thread).
pub trait FairProtocol: Debug + Send {
    /// The probability with which each active station transmits in the next
    /// slot. Always in `[0, 1]`.
    fn transmission_probability(&self) -> f64;

    /// Advances the common state by one slot. `delivered` states whether a
    /// message (necessarily of another station, from the point of view of the
    /// stations that remain active) was delivered in the slot.
    fn advance(&mut self, delivered: bool);

    /// The state's position within the protocol's deterministic update
    /// schedule — the *phase-schedule accessor* the cohort engine advances
    /// and merges cohorts by.
    ///
    /// Two copies of a protocol state may evolve in lockstep from now on
    /// only if they sit at the same schedule position: One-fail Adaptive's
    /// AT/BT parity decides which update rule the next slot applies,
    /// Log-fails Adaptive additionally counts consecutive failures towards
    /// its lazy estimator bump. The contract is: if two states report the
    /// same `schedule_phase()` **and** currently agree on the transmission
    /// probability of every track of their schedule, then feeding both the
    /// same feedback keeps them identical forever. Cohort merging relies on
    /// exactly this — states in different phases are never merged, however
    /// close their probabilities happen to be this slot.
    ///
    /// The default (a constant) is correct for protocols whose update rule
    /// does not depend on the step index, e.g. the known-k oracle.
    fn schedule_phase(&self) -> u64 {
        0
    }

    /// The current value of every probability track of the protocol's
    /// schedule, as a pair (protocols with a single track report it twice).
    ///
    /// The exactness contract extends [`FairProtocol::schedule_phase`]: two
    /// states reporting the same phase **and** bit-equal track pairs evolve
    /// in lockstep under identical feedback, forever. For the paper's fair
    /// line-up the pair is *injective* in the protocol state — One-fail and
    /// Log-fails Adaptive report their two cached tracks (the AT probability
    /// `1/κ̃` and the BT probability), the oracle's single track `1/remaining`
    /// determines its whole state — which is what lets the cohort engine
    /// merge on bit equality and the adversary search deduplicate game-tree
    /// nodes without unsoundness.
    ///
    /// The default reports the current transmission probability on both
    /// tracks; protocols whose state carries more than the current
    /// probability (at a fixed phase) **must** override this.
    fn probability_tracks(&self) -> (f64, f64) {
        let p = self.transmission_probability();
        (p, p)
    }

    /// Serialises the protocol's *mutable* state as raw words.
    ///
    /// The contract is exact resumption: feeding the returned words to
    /// [`FairProtocol::restore_words`] on a freshly constructed instance with
    /// identical parameters must yield a state whose future behaviour —
    /// every transmission probability, bit for bit — equals the original's.
    /// Incrementally maintained fields (Taylor-tracked estimators, rebase
    /// countdowns) must therefore be captured verbatim, never recomputed.
    /// Constructor parameters are *not* part of the words; the session layer
    /// records the [`ProtocolKind`](crate::ProtocolKind) separately and
    /// rebuilds from it.
    fn checkpoint_words(&self) -> Vec<u64>;

    /// Restores state captured by [`FairProtocol::checkpoint_words`] into
    /// this instance. Returns `false` (leaving the state untouched or
    /// partially default — callers must treat it as unusable) if the words
    /// are malformed.
    fn restore_words(&mut self, words: &[u64]) -> bool;
}

/// A window-based protocol, described by its (deterministic, possibly
/// infinite) sequence of window lengths.
///
/// A station executing a window protocol picks one slot uniformly at random
/// inside each successive window and transmits only in that slot; the only
/// feedback it reacts to is the delivery of its own message, upon which it
/// stops.
pub trait WindowSchedule: Debug + Send {
    /// Returns the length (≥ 1) of the next window.
    fn next_window(&mut self) -> u64;

    /// Serialises the schedule's mutable state as raw words. Same
    /// exact-resumption contract as [`FairProtocol::checkpoint_words`]:
    /// restoring the words into a freshly constructed schedule with
    /// identical parameters must reproduce the remaining window sequence
    /// bit for bit.
    fn checkpoint_words(&self) -> Vec<u64>;

    /// Restores state captured by [`WindowSchedule::checkpoint_words`].
    /// Returns `false` on malformed words.
    fn restore_words(&mut self, words: &[u64]) -> bool;
}

/// Adapter that runs a [`FairProtocol`] as a per-station [`Protocol`].
#[derive(Debug, Clone)]
pub struct FairNode<P> {
    state: P,
}

impl<P: FairProtocol> FairNode<P> {
    /// Wraps the given fair-protocol state for one station.
    pub fn new(state: P) -> Self {
        Self { state }
    }
}

impl<P: FairProtocol> Protocol for FairNode<P> {
    fn decide(&mut self, rng: &mut dyn RngCore) -> bool {
        let p = self.state.transmission_probability();
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        rng.gen::<f64>() < p
    }

    fn observe(&mut self, heard_delivery: bool) {
        self.state.advance(heard_delivery);
    }

    fn state_signature(&self) -> Option<Vec<u64>> {
        // Exact by the `probability_tracks` contract: phase + bit-equal
        // tracks pin the fair state's entire future, and the adapter adds
        // nothing per station.
        let (track_a, track_b) = self.state.probability_tracks();
        Some(vec![
            self.state.schedule_phase(),
            track_a.to_bits(),
            track_b.to_bits(),
        ])
    }
}

/// Adapter that runs a [`WindowSchedule`] as a per-station [`Protocol`].
#[derive(Debug, Clone)]
pub struct WindowNode<S> {
    schedule: S,
    window_len: u64,
    position: u64,
    chosen: u64,
}

impl<S: WindowSchedule> WindowNode<S> {
    /// Wraps the given window schedule for one station.
    pub fn new(schedule: S) -> Self {
        Self {
            schedule,
            window_len: 0,
            position: 0,
            chosen: 0,
        }
    }
}

impl<S: WindowSchedule> Protocol for WindowNode<S> {
    fn decide(&mut self, rng: &mut dyn RngCore) -> bool {
        // `window_len` starts at 0, so the first call opens the first window.
        if self.position >= self.window_len {
            self.window_len = self.schedule.next_window();
            assert!(self.window_len >= 1, "window length must be at least 1");
            self.position = 0;
            self.chosen = rng.gen_range(0..self.window_len);
        }
        let transmit = self.position == self.chosen;
        self.position += 1;
        transmit
    }

    /// A window station reacts to no feedback but its own delivery, upon
    /// which the simulator drops it.
    fn observe(&mut self, _heard_delivery: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KindVisitor, LogFailsAdaptive, OneFailAdaptive, ProtocolFamily, ProtocolKind};
    use mac_prob::rng::Xoshiro256pp;
    use rand::SeedableRng;

    /// A trivially predictable fair protocol for adapter tests: transmit with
    /// probability 1 until two deliveries have been heard, then probability 0.
    #[derive(Debug, Clone, Default)]
    struct TwoThenSilent {
        heard: u64,
    }

    impl FairProtocol for TwoThenSilent {
        fn transmission_probability(&self) -> f64 {
            if self.heard < 2 {
                1.0
            } else {
                0.0
            }
        }
        fn advance(&mut self, delivered: bool) {
            if delivered {
                self.heard += 1;
            }
        }
        fn checkpoint_words(&self) -> Vec<u64> {
            vec![self.heard]
        }
        fn restore_words(&mut self, words: &[u64]) -> bool {
            let [heard] = words else {
                return false;
            };
            self.heard = *heard;
            true
        }
    }

    /// A window schedule of constant windows of length 3.
    #[derive(Debug, Default)]
    struct ConstantThree;

    impl WindowSchedule for ConstantThree {
        fn next_window(&mut self) -> u64 {
            3
        }
        fn checkpoint_words(&self) -> Vec<u64> {
            Vec::new()
        }
        fn restore_words(&mut self, words: &[u64]) -> bool {
            words.is_empty()
        }
    }

    #[test]
    fn fair_node_transmits_and_reacts_to_feedback() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let mut node = FairNode::new(TwoThenSilent::default());
        assert!(node.decide(&mut rng), "p = 1 must transmit");
        node.observe(true);
        assert!(node.decide(&mut rng));
        node.observe(true);
        // Two deliveries heard: probability drops to zero.
        assert!(!node.decide(&mut rng));
        node.observe(false);
    }

    #[test]
    fn schedule_phase_tracks_the_protocols_step_structure() {
        use crate::{KnownKOracle, LogFailsConfig};
        // One-fail Adaptive: the AT/BT parity, alternating every slot.
        let mut ofa = OneFailAdaptive::with_default_delta();
        let first = ofa.schedule_phase();
        ofa.advance(false);
        assert_ne!(ofa.schedule_phase(), first);
        ofa.advance(false);
        assert_eq!(ofa.schedule_phase(), first);

        // The oracle has no step-dependent rule: a constant phase.
        let mut oracle = KnownKOracle::new(8);
        let p0 = oracle.schedule_phase();
        oracle.advance(true);
        oracle.advance(false);
        assert_eq!(oracle.schedule_phase(), p0);

        // Log-fails Adaptive: states differing only in their consecutive
        // failure count must not share a phase (they bump the estimator at
        // different future steps). Drive one copy with a delivery (resetting
        // the failure run) and one without, through a full BT cycle.
        // k = 10⁶ gives a fail window of 2, so one silent AT-step leaves a
        // *pending* failure run instead of bumping the estimator right away.
        let config = LogFailsConfig::paper(0.5, 1_000_000);
        let mut quiet = LogFailsAdaptive::try_new(config).unwrap();
        let mut heard = quiet.clone();
        let period = 2; // round(1/0.5)
        for step in 0..period {
            quiet.advance(false);
            heard.advance(step == 0);
        }
        assert_ne!(
            quiet.schedule_phase(),
            heard.schedule_phase(),
            "a pending failure run is part of the schedule position"
        );
    }

    #[test]
    fn window_node_transmits_exactly_once_per_window() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut node = WindowNode::new(ConstantThree);
        for _window in 0..50 {
            let mut transmissions = 0;
            for _ in 0..3 {
                if node.decide(&mut rng) {
                    transmissions += 1;
                }
                node.observe(false);
            }
            assert_eq!(transmissions, 1, "exactly one transmission per window");
        }
    }

    #[test]
    fn paper_lineup_has_five_entries_in_table_order() {
        let lineup = ProtocolKind::paper_lineup();
        assert_eq!(lineup.len(), 5);
        assert!(lineup[0].label().contains("1/2"));
        assert!(lineup[1].label().contains("1/10"));
        assert_eq!(lineup[2].label(), "One-fail Adaptive");
        assert_eq!(lineup[3].label(), "Exp Back-on/Back-off");
        assert_eq!(lineup[4].label(), "Loglog-iterated Back-off");
    }

    #[test]
    fn robust_lineup_builds_and_spans_both_families() {
        let lineup = ProtocolKind::robust_lineup();
        assert_eq!(lineup.len(), 4);
        assert!(lineup.iter().any(|k| k.family() == ProtocolFamily::Fair));
        assert!(lineup.iter().any(|k| k.family() == ProtocolFamily::Window));
        for kind in lineup {
            assert!(kind.build_node(16).is_ok(), "{}", kind.label());
        }
    }

    #[test]
    fn families_are_assigned_correctly() {
        assert_eq!(
            ProtocolKind::OneFailAdaptive { delta: 2.72 }.family(),
            ProtocolFamily::Fair
        );
        assert_eq!(
            ProtocolKind::ExpBackonBackoff { delta: 0.366 }.family(),
            ProtocolFamily::Window
        );
        assert_eq!(
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 }.family(),
            ProtocolFamily::Window
        );
        assert_eq!(ProtocolKind::KnownKOracle.family(), ProtocolFamily::Fair);
    }

    #[test]
    fn builders_return_matching_family() {
        struct Family;
        impl KindVisitor for Family {
            type Output = ProtocolFamily;
            fn fair<P: FairProtocol + Clone + 'static>(self, _: P) -> ProtocolFamily {
                ProtocolFamily::Fair
            }
            fn window<S: WindowSchedule + Clone + 'static>(self, _: S) -> ProtocolFamily {
                ProtocolFamily::Window
            }
        }
        let mut kinds = ProtocolKind::paper_lineup();
        kinds.extend([
            ProtocolKind::KnownKOracle,
            ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
            ProtocolKind::RExponentialBackoff { r: 2.0 },
        ]);
        for kind in kinds {
            // `family()` and the visit dispatch must agree on every kind.
            assert_eq!(kind.visit(100, Family).unwrap(), kind.family());
            // Fair nodes pin their state exactly; window nodes cannot.
            let node = kind.build_node(100).unwrap();
            assert_eq!(
                node.state_signature().is_some(),
                kind.family() == ProtocolFamily::Fair
            );
        }
    }

    #[test]
    fn invalid_parameters_are_rejected_by_builders() {
        assert!(ProtocolKind::OneFailAdaptive { delta: 1.0 }
            .build_node(10)
            .is_err());
        assert!(ProtocolKind::RandomizedParityOneFail { delta: 1.0 }
            .build_node(10)
            .is_err());
        assert!(ProtocolKind::ExpBackonBackoff { delta: 0.9 }
            .build_node(10)
            .is_err());
        assert!(ProtocolKind::LoglogIteratedBackoff { r: 0.5 }
            .build_node(10)
            .is_err());
    }

    #[test]
    fn labels_are_distinct_for_the_lineup() {
        let labels: Vec<String> = ProtocolKind::paper_lineup()
            .iter()
            .map(|k| k.label())
            .collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}

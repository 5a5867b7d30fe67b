//! The shared channel: slot resolution, counters and bookkeeping.
//!
//! [`Channel`] is the single authoritative arbiter of what happens in each
//! slot: the simulators collect the set of transmitters, hand it to
//! [`Channel::resolve_slot`], and distribute the resulting observations to
//! the stations. The channel also keeps aggregate statistics
//! ([`ChannelStats`]) and, optionally, a bounded per-slot trace
//! ([`crate::trace::Trace`]).
//!
//! A channel may carry an adversary ([`Channel::with_adversary`]): a jammer
//! that can convert busy slots into collisions and a feedback fault that
//! degrades what the stations are told about each slot (see
//! `mac-adversary`). The default channel is the paper's ideal one, and its
//! behaviour — including its consumption of any caller-provided RNG — is
//! bit-identical to a channel with no adversary support at all.

use crate::feedback::ChannelModel;
use crate::node::NodeId;
use crate::trace::{Trace, TraceEntry};
use mac_adversary::{AdversaryState, SlotClass};
use mac_prob::outcome::SlotOutcome;
use serde::{Deserialize, Serialize};

/// Aggregate counters of channel activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Total number of slots resolved.
    pub slots: u64,
    /// Slots in which nobody transmitted.
    pub silent_slots: u64,
    /// Slots in which exactly one station transmitted.
    pub deliveries: u64,
    /// Slots in which two or more stations transmitted.
    pub collisions: u64,
    /// Total number of individual transmissions attempted (sum over slots of
    /// the number of transmitters).
    pub transmissions: u64,
    /// Slots in which exactly one station transmitted but an adversary
    /// jammed the slot, destroying the delivery (such slots are counted
    /// under [`ChannelStats::collisions`], not
    /// [`ChannelStats::deliveries`]).
    #[serde(default)]
    pub jammed_deliveries: u64,
}

impl ChannelStats {
    /// Fraction of slots that delivered a message (`0` if no slot yet).
    pub fn utilisation(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.slots as f64
        }
    }
}

/// The result of resolving one slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotResolution {
    /// The slot index that was resolved.
    pub slot: u64,
    /// Channel-level outcome.
    pub outcome: SlotOutcome,
    /// The station whose message was delivered, if the outcome is
    /// [`SlotOutcome::Delivery`].
    pub delivered: Option<NodeId>,
    /// Number of stations that transmitted in the slot.
    pub transmitters: u64,
    /// True if an adversary jammed the slot (only possible for busy slots;
    /// implies `outcome == SlotOutcome::Collision`).
    pub jammed: bool,
    /// The outcome as reported to the listening stations after any feedback
    /// fault. Equal to `outcome` on a channel with reliable feedback. The
    /// acknowledged transmitter of a delivery always sees the true outcome.
    pub perceived: SlotOutcome,
}

/// The shared slotted channel.
///
/// # Example
/// ```
/// use mac_channel::{Channel, ChannelModel, NodeId, SlotOutcome};
/// let mut ch = Channel::new(ChannelModel::without_collision_detection());
/// assert_eq!(ch.resolve_slot(&[]).outcome, SlotOutcome::Silence);
/// assert_eq!(ch.resolve_slot(&[NodeId(4)]).delivered, Some(NodeId(4)));
/// assert_eq!(ch.current_slot(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    model: ChannelModel,
    stats: ChannelStats,
    next_slot: u64,
    trace: Option<Trace>,
    adversary: AdversaryState,
}

impl Channel {
    /// Creates a channel with the given capability model, no tracing and no
    /// adversary (the paper's ideal channel).
    pub fn new(model: ChannelModel) -> Self {
        Self {
            model,
            stats: ChannelStats::default(),
            next_slot: 0,
            trace: None,
            adversary: AdversaryState::inactive(),
        }
    }

    /// Enables tracing of up to `capacity` slots (older entries are dropped
    /// once the capacity is reached — the trace is a ring of the most recent
    /// slots).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(Trace::with_capacity(capacity));
        self
    }

    /// Installs an adversary (jamming and/or feedback faults) on the
    /// channel. The adversary carries its own RNG stream, so installing an
    /// inactive one leaves the channel's behaviour bit-identical.
    pub fn with_adversary(mut self, adversary: AdversaryState) -> Self {
        self.adversary = adversary;
        self
    }

    /// The channel capability model.
    pub fn model(&self) -> ChannelModel {
        self.model
    }

    /// The index of the next slot to be resolved (i.e. how many slots have
    /// elapsed so far).
    pub fn current_slot(&self) -> u64 {
        self.next_slot
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Returns the recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Resolves the next slot given the set of transmitting stations.
    ///
    /// The slice may be in any order; duplicates are a simulator bug and are
    /// rejected with a panic in debug builds.
    pub fn resolve_slot(&mut self, transmitters: &[NodeId]) -> SlotResolution {
        #[cfg(debug_assertions)]
        {
            let mut seen = transmitters.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(
                seen.len(),
                transmitters.len(),
                "a station transmitted twice in the same slot"
            );
        }
        let count = transmitters.len() as u64;
        let single = if count == 1 {
            Some(transmitters[0])
        } else {
            None
        };
        self.resolve_slot_by_count(count, single, None)
    }

    /// Resolves a slot for which only the *number* of transmitters is known
    /// (the exact simulator collects decisions without listing the
    /// transmitters). When the count is exactly 1, the caller supplies the
    /// identity of the transmitter via `single`, and `jam`, when given,
    /// decides whether that single-transmitter slot is jammed in place of
    /// the channel's adversary — how the strategy search plays the jammer.
    /// With `None` (and on every other slot) the adversary decides.
    pub fn resolve_slot_by_count(
        &mut self,
        count: u64,
        single: Option<NodeId>,
        jam: Option<bool>,
    ) -> SlotResolution {
        let slot = self.next_slot;
        self.next_slot += 1;
        let (mut outcome, mut delivered) = match count {
            0 => (SlotOutcome::Silence, None),
            1 => (SlotOutcome::Delivery, single),
            _ => (SlotOutcome::Collision, None),
        };
        // Jamming is only observable on busy slots: a jam signal on an
        // empty slot carries no message and reads as background noise.
        let mut jammed = false;
        if count >= 1 {
            let class = if count == 1 {
                SlotClass::Single
            } else {
                SlotClass::Contended
            };
            let jams = match jam {
                Some(jam) if count == 1 => jam,
                _ => self.adversary.jams_slot(slot, class),
            };
            if jams {
                jammed = true;
                if outcome == SlotOutcome::Delivery {
                    self.stats.jammed_deliveries += 1;
                }
                outcome = SlotOutcome::Collision;
                delivered = None;
            }
        }
        let perceived = self.adversary.perceive(outcome);
        self.stats.slots += 1;
        self.stats.transmissions += count;
        match outcome {
            SlotOutcome::Silence => self.stats.silent_slots += 1,
            SlotOutcome::Delivery => self.stats.deliveries += 1,
            SlotOutcome::Collision => self.stats.collisions += 1,
        }
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEntry {
                slot,
                outcome,
                transmitters: count,
                delivered,
                jammed,
            });
        }
        SlotResolution {
            slot,
            outcome,
            delivered,
            transmitters: count,
            jammed,
            perceived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slot_is_silence() {
        let mut ch = Channel::new(ChannelModel::default());
        let r = ch.resolve_slot(&[]);
        assert_eq!(r.outcome, SlotOutcome::Silence);
        assert_eq!(r.delivered, None);
        assert_eq!(r.slot, 0);
        assert_eq!(ch.stats().silent_slots, 1);
    }

    #[test]
    fn single_transmitter_delivers() {
        let mut ch = Channel::new(ChannelModel::default());
        let r = ch.resolve_slot(&[NodeId(9)]);
        assert_eq!(r.outcome, SlotOutcome::Delivery);
        assert_eq!(r.delivered, Some(NodeId(9)));
        assert_eq!(ch.stats().deliveries, 1);
        assert_eq!(ch.stats().transmissions, 1);
    }

    #[test]
    fn two_transmitters_collide() {
        let mut ch = Channel::new(ChannelModel::default());
        let r = ch.resolve_slot(&[NodeId(1), NodeId(2)]);
        assert_eq!(r.outcome, SlotOutcome::Collision);
        assert_eq!(r.delivered, None);
        assert_eq!(ch.stats().collisions, 1);
        assert_eq!(ch.stats().transmissions, 2);
    }

    #[test]
    fn slot_counter_advances() {
        let mut ch = Channel::new(ChannelModel::default());
        for i in 0..5 {
            let r = ch.resolve_slot(&[]);
            assert_eq!(r.slot, i);
        }
        assert_eq!(ch.current_slot(), 5);
        assert_eq!(ch.stats().slots, 5);
    }

    #[test]
    fn resolve_by_count_matches_resolve_by_set() {
        let mut a = Channel::new(ChannelModel::default());
        let mut b = Channel::new(ChannelModel::default());
        let ra = a.resolve_slot(&[NodeId(3)]);
        let rb = b.resolve_slot_by_count(1, Some(NodeId(3)), None);
        assert_eq!(ra, rb);
        let ra = a.resolve_slot(&[NodeId(3), NodeId(4), NodeId(5)]);
        let rb = b.resolve_slot_by_count(3, None, None);
        assert_eq!(ra.outcome, rb.outcome);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn utilisation_and_efficiency() {
        let mut ch = Channel::new(ChannelModel::default());
        ch.resolve_slot(&[NodeId(0)]);
        ch.resolve_slot(&[NodeId(1), NodeId(2)]);
        ch.resolve_slot(&[]);
        ch.resolve_slot(&[NodeId(3)]);
        let s = ch.stats();
        assert_eq!(s.slots, 4);
        assert!((s.utilisation() - 0.5).abs() < 1e-12);
        assert_eq!(ChannelStats::default().utilisation(), 0.0);
    }

    #[test]
    fn trace_records_entries() {
        let mut ch = Channel::new(ChannelModel::default()).with_trace(16);
        ch.resolve_slot(&[NodeId(1)]);
        ch.resolve_slot(&[NodeId(1), NodeId(2)]);
        let trace = ch.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.entries()[0].delivered, Some(NodeId(1)));
        assert_eq!(trace.entries()[1].outcome, SlotOutcome::Collision);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transmitted twice")]
    fn duplicate_transmitter_is_rejected_in_debug() {
        let mut ch = Channel::new(ChannelModel::default());
        ch.resolve_slot(&[NodeId(1), NodeId(1)]);
    }

    #[test]
    fn jammed_delivery_becomes_a_collision() {
        use mac_adversary::{AdversaryModel, AdversaryScenario};
        // Jam every slot: a lone transmitter never gets through.
        let adversary = AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
            period: 1,
            burst: 1,
            phase: 0,
        })
        .state(0);
        let mut ch = Channel::new(ChannelModel::default()).with_adversary(adversary);
        let r = ch.resolve_slot(&[NodeId(5)]);
        assert_eq!(r.outcome, SlotOutcome::Collision);
        assert_eq!(r.delivered, None);
        assert!(r.jammed);
        assert_eq!(r.perceived, SlotOutcome::Collision);
        assert_eq!(ch.stats().jammed_deliveries, 1);
        assert_eq!(ch.stats().collisions, 1);
        assert_eq!(ch.stats().deliveries, 0);
        // Empty slots are never offered to the adversary: still silence.
        let r = ch.resolve_slot(&[]);
        assert_eq!(r.outcome, SlotOutcome::Silence);
        assert!(!r.jammed);
        assert_eq!(ch.stats().silent_slots, 1);
    }

    #[test]
    fn jam_override_decides_single_transmitter_slots_only() {
        let mut ch = Channel::new(ChannelModel::default());
        let r = ch.resolve_slot_by_count(1, Some(NodeId(2)), Some(true));
        assert!(r.jammed);
        assert_eq!(r.outcome, SlotOutcome::Collision);
        assert_eq!(ch.stats().jammed_deliveries, 1);
        let r = ch.resolve_slot_by_count(1, Some(NodeId(2)), Some(false));
        assert_eq!(r.delivered, Some(NodeId(2)));
        // Contended slots are the adversary's (none here) whatever the
        // override says.
        let r = ch.resolve_slot_by_count(2, None, Some(true));
        assert!(!r.jammed);
    }

    #[test]
    fn feedback_fault_degrades_perceived_outcome_only() {
        use mac_adversary::{AdversaryScenario, FeedbackFault};
        let adversary = AdversaryScenario::faulty_feedback(FeedbackFault {
            confuse_collision_empty: 1.0,
            miss_delivery: 1.0,
        })
        .state(0);
        let mut ch = Channel::new(ChannelModel::default()).with_adversary(adversary);
        let r = ch.resolve_slot(&[NodeId(1)]);
        // The slot truly delivered (stats and `delivered` are unaffected)…
        assert_eq!(r.outcome, SlotOutcome::Delivery);
        assert_eq!(r.delivered, Some(NodeId(1)));
        assert_eq!(ch.stats().deliveries, 1);
        // …but the listeners are told it was a collision.
        assert_eq!(r.perceived, SlotOutcome::Collision);
        let r = ch.resolve_slot(&[]);
        assert_eq!(r.outcome, SlotOutcome::Silence);
        assert_eq!(r.perceived, SlotOutcome::Collision);
        let r = ch.resolve_slot(&[NodeId(1), NodeId(2)]);
        assert_eq!(r.outcome, SlotOutcome::Collision);
        assert_eq!(r.perceived, SlotOutcome::Silence);
    }

    #[test]
    fn inactive_adversary_matches_plain_channel() {
        use mac_adversary::AdversaryState;
        let mut plain = Channel::new(ChannelModel::default());
        let mut armed =
            Channel::new(ChannelModel::default()).with_adversary(AdversaryState::inactive());
        for transmitters in [vec![], vec![NodeId(1)], vec![NodeId(1), NodeId(2)]] {
            let a = plain.resolve_slot(&transmitters);
            let b = armed.resolve_slot(&transmitters);
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), armed.stats());
    }
}

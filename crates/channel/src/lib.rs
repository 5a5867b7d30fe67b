//! # mac-channel — the slotted multiple-access channel (Radio Network) model
//!
//! This crate implements the communication substrate of the paper
//! *Unbounded Contention Resolution in Multiple-Access Channels*
//! (Fernández Anta, Mosteiro, Muñoz — PODC 2011): a **single-hop Radio
//! Network**, i.e. a synchronous slotted channel shared by `n` stations in
//! which
//!
//! * if **exactly one** station transmits in a slot, its message is delivered
//!   to every station;
//! * if **two or more** stations transmit, a collision garbles every message;
//! * if **nobody** transmits, the slot carries only background noise;
//! * **without collision detection**, stations cannot distinguish background
//!   noise from collision noise (the paper's model); an optional
//!   collision-detection variant is provided for comparison experiments;
//! * a station learns that *its own* message was delivered (acknowledgement,
//!   e.g. 802.11-style), at which point it becomes *idle* — exactly the
//!   assumption of the paper (§2).
//!
//! The crate is deliberately independent of any particular protocol: given
//! the set of transmitters in a slot it resolves the slot outcome
//! ([`Channel`]), translates it into what each station can observe
//! ([`Observation`], [`ChannelModel`]), keeps global counters
//! ([`ChannelStats`]) and optionally a bounded trace ([`trace::Trace`]).
//! Which stations are *active* in the first place is governed by an arrival
//! model ([`arrivals`]): the paper's static (batched) arrivals, plus Poisson
//! and adversarial bursty arrivals for the dynamic extension discussed in the
//! paper's conclusions. The channel can additionally carry an adversary
//! ([`Channel::with_adversary`], re-exported from `mac-adversary`): jamming
//! models that destroy deliveries and feedback faults that degrade what the
//! stations are told about each slot.
//!
//! ```
//! use mac_channel::{Channel, ChannelModel, NodeId, SlotOutcome};
//!
//! let mut channel = Channel::new(ChannelModel::without_collision_detection());
//! // Slot 0: stations 1 and 3 transmit -> collision.
//! let r = channel.resolve_slot(&[NodeId(1), NodeId(3)]);
//! assert_eq!(r.outcome, SlotOutcome::Collision);
//! // Slot 1: only station 2 transmits -> delivery.
//! let r = channel.resolve_slot(&[NodeId(2)]);
//! assert_eq!(r.delivered, Some(NodeId(2)));
//! assert_eq!(channel.stats().deliveries, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod channel;
pub mod feedback;
pub mod node;
pub mod stream;
pub mod trace;

pub use arrivals::{ArrivalModel, ArrivalSchedule};
pub use channel::{Channel, ChannelStats, SlotResolution};
pub use feedback::{AckMode, ChannelModel, Observation};
pub use node::NodeId;
pub use stream::{ArrivalStream, ShardedArrivalStream, StreamSummary};

/// Re-export of the adversarial channel models (`mac-adversary`) so that a
/// channel and its adversary can be configured from one import path.
pub use mac_adversary as adversary;
pub use mac_adversary::{AdversaryModel, AdversaryScenario, AdversaryState, FeedbackFault};

/// Re-export of the channel-level slot outcome defined in `mac-prob` so that
/// downstream crates need only one import path.
pub use mac_prob::outcome::SlotOutcome;

/// A communication slot index (slots are numbered from 0).
///
/// The paper numbers communication steps from 1; the simulators in this
/// workspace number slots from 0 and translate when a protocol's definition
/// depends on parity (e.g. One-fail Adaptive's AT/BT alternation).
pub type Slot = u64;

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
//! * there is **no collision detection**: stations cannot distinguish
//!   background noise from collision noise, so a station that did not
//!   deliver learns one bit per slot — whether another station's message
//!   got through;
//! * a station learns that *its own* message was delivered (acknowledgement,
//!   e.g. 802.11-style), at which point it becomes *idle* — exactly the
//!   assumption of the paper (§2).
//!
//! The crate is deliberately independent of any particular protocol: it
//! names a slot's channel-level outcome ([`SlotOutcome`]) and records a
//! bounded per-slot trace ([`trace::Trace`]); the simulators in `mac-sim`
//! resolve the slots, hand each station its bit and keep the counters.
//! Which stations are
//! *active* in the first place is governed by an arrival model
//! ([`arrivals`]): the paper's static (batched) arrivals, plus Poisson and
//! adversarial bursty arrivals for the dynamic extension discussed in the
//! paper's conclusions. The adversarial channel models of `mac-adversary`
//! are re-exported here ([`adversary`]): jamming models that destroy
//! deliveries and a feedback fault that hides deliveries from the
//! listening stations.
//!
//! ```
//! use mac_channel::ArrivalModel;
//! use mac_prob::rng::Xoshiro256pp;
//! use rand::SeedableRng;
//!
//! // An adversarial schedule: three messages at slot 0, two more at slot 5.
//! // Bursts may come unsorted; the sampled schedule lists one arrival slot
//! // per message, in slot order.
//! let model = ArrivalModel::Bursts { bursts: vec![(5, 2), (0, 3)] };
//! assert_eq!(model.expected_messages(), 5.0);
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let schedule = model.sample(&mut rng);
//! assert_eq!(schedule.arrival_slots(), &[0, 0, 0, 5, 5]);
//! // The paper's static setting is one burst of k messages at slot 0.
//! assert_eq!(ArrivalModel::batched(4).sample(&mut rng).last_arrival(), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod node;
pub mod stream;
pub mod trace;

pub use arrivals::{ArrivalModel, ArrivalSchedule};
pub use node::NodeId;
pub use stream::{ArrivalStream, ShardedArrivalStream, StreamSummary};

/// Re-export of the adversarial channel models (`mac-adversary`) so that a
/// channel and its adversary can be configured from one import path.
pub use mac_adversary as adversary;
pub use mac_adversary::{AdversaryModel, AdversaryScenario, AdversaryState};

/// Re-export of the channel-level slot outcome defined in `mac-prob` so that
/// downstream crates need only one import path.
pub use mac_prob::outcome::SlotOutcome;

/// A communication slot index (slots are numbered from 0).
///
/// The paper numbers communication steps from 1; the simulators in this
/// workspace number slots from 0 and translate when a protocol's definition
/// depends on parity (e.g. One-fail Adaptive's AT/BT alternation).
pub type Slot = u64;

//! # mac-adversary — adversarial channel models for robustness experiments
//!
//! The paper analyses k-selection on an *ideal* slotted channel; its
//! introduction and conclusions motivate bursty, adversarial real-world
//! traffic, and the strongest follow-up work studies contention resolution
//! under noise and imperfect feedback (Bender–Kuszmaul et al., "Contention
//! Resolution Without Collision Detection", 2020) and under adversarial
//! jamming (Jiang–Zheng, "Robust and Optimal Contention Resolution without
//! Collision Detection", 2021). This crate makes those regimes expressible:
//!
//! * [`AdversaryModel`] — jamming: stochastic per-slot noise, oblivious
//!   periodic/scheduled jam patterns, and budgeted reactive jammers that
//!   target contended or near-success slots; a checkpoint writes the model
//!   as a tag and its parameters ([`AdversaryModel::encode`]);
//! * [`AdversaryScenario`] — the unit of configuration the simulators
//!   accept: a jamming model plus the one feedback fault a station can
//!   feel, a missed delivery on the broadcast feedback path (without
//!   collision detection a delivery is all a station hears);
//! * [`AdversaryState`] — the runtime decision procedure, with its **own
//!   RNG stream** so that a configured adversary never perturbs the
//!   protocol randomness of a seeded run (and `AdversaryModel::None` is
//!   bit-identical to having no adversary at all); a checkpoint writes its
//!   dynamic words ([`AdversaryState::encode`]) and rebuilds the rest from
//!   the scenario.
//!
//! ## Jamming semantics
//!
//! A jammed slot in which at least one station transmits becomes a
//! collision: a jammed would-be delivery is destroyed and the transmitting
//! station stays active (it receives no acknowledgement and hears noise,
//! exactly as in a genuine collision). Jamming an empty slot is
//! unobservable — the jam signal alone carries no message and, in the
//! paper's no-collision-detection model, is indistinguishable from
//! background noise — so the simulators never consult the adversary about
//! empty slots. See `crates/sim/DESIGN.md` §4 for how this convention keeps
//! the counts-only fast simulators exact in distribution.
//!
//! ```
//! use mac_adversary::{AdversaryModel, AdversaryScenario, SlotClass};
//!
//! let scenario = AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
//!     period: 3,
//!     burst: 1,
//!     phase: 0,
//! });
//! let mut adversary = scenario.state(42);
//! assert!(adversary.jams_slot(0, SlotClass::Single));
//! assert!(!adversary.jams_slot(1, SlotClass::Single));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod search;
pub mod state;

pub use model::{AdversaryModel, AdversaryScenario, JamTrigger};
pub use search::{
    budgeted_search, exhaustive_worst_case, AdversaryGame, Certificate, CertificateTier,
    ExhaustiveOutcome, ParamSchedule, ScoredCandidate, SearchOutcome, SearchStats,
};
pub use state::{AdversaryState, SlotClass, ADVERSARY_STREAM};

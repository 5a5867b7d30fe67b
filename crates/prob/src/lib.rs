//! # mac-prob — probability toolkit for multiple-access-channel simulation
//!
//! This crate provides the numerical substrate used by the contention-resolution
//! simulators in this workspace:
//!
//! * [`rng`] — deterministic, splittable random-number generation
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256pp`], seed derivation) so that every
//!   simulated run is reproducible from a master seed;
//! * [`outcome`] — exact sampling of the *slot outcome trichotomy*
//!   (silence / single delivery / collision) for a slot in which `m` stations
//!   each transmit independently with probability `p`, computed in log-space
//!   so it is stable up to `m = 10^9` and beyond;
//! * [`sampling`] — Bernoulli, binomial, geometric and Poisson samplers built
//!   only on a [`rand::RngCore`] source;
//! * [`binomial`] — the expected-O(1) exact binomial sampler (CDF inversion
//!   for small means, BTPE for large) and the incremental slot-threshold
//!   kernel behind the aggregate simulators' per-slot fast path;
//! * [`cohort`] — sum-of-binomials slot classification over station cohorts
//!   (the heterogeneous-phase generalisation of the aggregate slot kernel
//!   that the dynamic-arrival cohort engine runs on);
//! * [`balls`] — the balls-in-bins window walk (the random process behind
//!   contention-window protocols): conditional binomial blocks and slots,
//!   one per-ball resolver, and the slot-class tallies they produce;
//! * [`stats`] — streaming (Welford) and batch summary statistics, percentiles
//!   and normal-approximation confidence intervals used by the experiment
//!   runner;
//! * [`sketch`] — a mergeable KLL-style streaming quantile sketch with a
//!   deterministic rank-error ledger, the bounded-memory latency path of the
//!   streaming simulation sessions;
//! * [`wire`] — the hand-rolled word-oriented checkpoint codec those sessions
//!   serialise their engine state with;
//! * [`special`] — log-factorials, log-binomial coefficients, the exact
//!   binomial pmf, `ln Γ`, and the chi-square and Kolmogorov–Smirnov tails
//!   the samplers and the conformance harness are built on.
//!
//! # Example
//!
//! Sample the outcome of a slot in which 1000 stations transmit with
//! probability 1/1000 each:
//!
//! ```
//! use mac_prob::outcome::{SlotOutcome, slot_outcome_probabilities, sample_slot_outcome};
//! use mac_prob::rng::Xoshiro256pp;
//! use rand::SeedableRng;
//!
//! let probs = slot_outcome_probabilities(1000, 1e-3);
//! assert!((probs.silence + probs.delivery + probs.collision - 1.0).abs() < 1e-12);
//! // With p = 1/m the delivery probability is close to 1/e.
//! assert!((probs.delivery - (-1.0f64).exp()).abs() < 0.01);
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! match sample_slot_outcome(1000, 1e-3, &mut rng) {
//!     SlotOutcome::Silence | SlotOutcome::Delivery | SlotOutcome::Collision => {}
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balls;
pub mod binomial;
pub mod cohort;
pub mod outcome;
pub mod rng;
pub mod sampling;
pub mod sketch;
pub mod special;
pub mod stats;
pub mod wire;

pub use balls::{walk_window, walk_window_counts, SlotOccupancy, WalkScratch};
pub use binomial::{sample_binomial_fast, ModeKernel, SlotKernel, SlotKernelCache, SlotThresholds};
pub use cohort::CohortKernel;
pub use outcome::{
    sample_slot_outcome, slot_outcome_probabilities, SlotOutcome, SlotOutcomeProbabilities,
};
pub use rng::{derive_seed, SplitMix64, Xoshiro256pp};
pub use sampling::{
    sample_binomial, sample_geometric, sample_poisson, PoissonSampler, MAX_POISSON_RATE,
};
pub use sketch::{QuantileSketch, StreamingLatencyStats};
pub use stats::{ConfidenceInterval, StreamingStats, Summary};
pub use wire::{Decoder, Encoder, WireError};

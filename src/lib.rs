//! # contention-resolution
//!
//! A faithful, production-quality Rust reproduction of
//! *Unbounded Contention Resolution in Multiple-Access Channels*
//! (Fernández Anta, Mosteiro, Muñoz — PODC 2011 / arXiv:1107.0234):
//! randomized protocols that let an **unknown and unbounded** number of
//! stations share a slotted channel **without collision detection**, each
//! delivering one message, in time linear in the number of contenders.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names and provides a [`prelude`]:
//!
//! * [`prob`] (`mac-prob`) — probability toolkit: slot-outcome sampling,
//!   balls-in-bins, statistics, deterministic RNG streams;
//! * [`adversary`] (`mac-adversary`) — adversarial channel models: jamming
//!   schedules, stochastic noise, budgeted reactive jammers, and degraded
//!   feedback for robustness experiments;
//! * [`channel`] (`mac-channel`) — the slotted multiple-access channel model:
//!   slot outcomes, arrival models and streams, traces;
//! * [`protocols`] (`mac-protocols`) — One-fail Adaptive, Exp
//!   Back-on/Back-off, Log-fails Adaptive, Loglog-iterated Back-off,
//!   r-exponential back-off, the known-k oracle, and the analytical bounds of
//!   the paper's theorems;
//! * [`sim`] (`mac-sim`) — exact and fast simulators, the replicated
//!   experiment runner and the report renderers behind Figure 1 / Table 1.
//!
//! # Quickstart
//!
//! ```
//! use contention_resolution::prelude::*;
//!
//! // Solve static k-selection for 1000 stations with One-fail Adaptive.
//! let result = simulate(&ProtocolKind::OneFailAdaptive { delta: 2.72 }, 1_000, 42).unwrap();
//! assert!(result.completed);
//! // Theorem 1: the makespan is ≈ 2(δ+1)·k ≈ 7.44·k slots.
//! assert!((result.ratio() - 7.44).abs() < 2.0);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the harness that regenerates the paper's figure and
//! table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mac_adversary as adversary;
pub use mac_channel as channel;
pub use mac_prob as prob;
pub use mac_protocols as protocols;
pub use mac_sim as sim;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use crate::adversary::{AdversaryModel, AdversaryScenario, JamTrigger};
    pub use crate::channel::{ArrivalModel, ArrivalSchedule};
    pub use crate::protocols::{
        analysis, ExpBackonBackoff, FairProtocol, KnownKOracle, LogFailsAdaptive, LogFailsConfig,
        LoglogIteratedBackoff, OneFailAdaptive, Protocol, ProtocolKind, RExponentialBackoff,
        RandomizedParityOneFail, WindowSchedule,
    };
    pub use crate::sim::dynamic::{simulate_dynamic, DynamicReport};
    pub use crate::sim::report::{figure1_series, table1_markdown, to_csv};
    pub use crate::sim::{
        simulate, simulate_with_options, Checkpoint, CheckpointStore, CohortRun, CohortSimulator,
        ExactSimulator, Experiment, FairSimulator, FaultPlan, IntegrityError, RunOptions,
        RunResult, Session, SessionError, SessionStatus, ShardSupervision, ShardedSession,
        StallConfig, StallPolicy, WindowSimulator,
    };
}

//! # mac-sim — simulation engine for contention resolution on a shared channel
//!
//! This crate turns the protocol state machines of `mac-protocols` and the
//! channel model of `mac-channel` into the measurements reported in the
//! paper's evaluation (Figure 1 and Table 1): the number of slots until a
//! batch of `k` messages has been fully delivered, averaged over replicated
//! runs.
//!
//! Four simulators are provided, trading generality for speed. Each engine
//! is written once — one loop, generic over the protocol state, and one
//! result builder — and every other entry point runs that same loop:
//! `ProtocolKind::visit` (in `mac-protocols`) is the only code that turns a
//! configured kind into a state, so every fair kind runs on every fair
//! engine and every window kind on the window engine.
//!
//! | Simulator | Applies to | Cost | Used for |
//! |-----------|-----------|------|----------|
//! | [`exact::ExactSimulator`] | every kind, and any [`mac_protocols::Protocol`]; any arrival schedule | O(k) per slot | correctness reference, traces, window-protocol dynamic arrivals; paused at single-transmitter slots, the [`ExactStepper`] of the strategy search |
//! | [`fair::FairSimulator`] | every fair kind ([`mac_protocols::ProtocolFamily::Fair`]), batched arrivals | O(1) per slot (one binomial classification draw, cached thresholds) | the paper's sweep up to k = 10⁷ |
//! | [`cohort::CohortSimulator`] | every fair kind, **any arrival schedule** | O(active cohorts) per slot, one draw | dynamic-arrival (Poisson/bursts) experiments at paper scale; a dynamic [`Session`] driven to its end, as is [`dynamic::simulate_dynamic`]'s fair path |
//! | [`window::WindowSimulator`] | every window kind ([`mac_protocols::ProtocolFamily::Window`]), batched arrivals | O(min(m, w)) per window, O(1) when collisions are certain | the paper's sweep up to k = 10⁷ |
//!
//! The fair and window simulators are *exact in distribution*: they sample
//! the same random process as the per-station simulator, just without
//! materialising the stations (see the crate-level DESIGN.md for the
//! argument, and the integration tests for the statistical cross-check).
//!
//! On top of the simulators sit:
//!
//! * [`runner`] — replicated, multi-threaded experiment sweeps over a grid of
//!   protocols × instance sizes with deterministic per-run seeds;
//! * [`report`] — CSV / markdown / gnuplot-ready rendering of sweep results;
//! * [`dynamic`] — latency-oriented measurements for the dynamic-arrival
//!   extension discussed in the paper's conclusions;
//! * [`session`] — streaming sessions: the same engines driven in bounded
//!   slot bursts with live bounded-memory latency statistics, bit-exact
//!   checkpoint/resume, and a sharded multi-channel driver;
//! * [`stepper`] / [`search`] — the adversary strategy search: the exact
//!   engine's own loop, paused and snapshotted at every single-transmitter
//!   slot ([`ExactStepper`]), feeding `mac-adversary`'s exhaustive
//!   game-tree tier, and the fast-engine
//!   bindings for its budgeted beam tier, both emitting replayable
//!   worst-case jamming certificates.
//!
//! Every simulator additionally accepts an adversarial scenario
//! ([`RunOptions::adversary`], types re-exported from `mac-adversary` under
//! [`adversary`]): jamming models that destroy deliveries and feedback
//! faults that degrade what the stations observe. With the default (clean)
//! scenario, results and RNG streams are bit-identical to the
//! pre-adversary simulators; see `DESIGN.md` §4 for the integration
//! contract that keeps the fast paths exact in distribution under jamming.
//!
//! # Example: one run of each protocol at k = 1000
//!
//! ```
//! use mac_protocols::ProtocolKind;
//! use mac_sim::simulate;
//!
//! for kind in ProtocolKind::paper_lineup() {
//!     let result = simulate(&kind, 1_000, 42).unwrap();
//!     assert!(result.completed);
//!     // Every protocol in the paper's line-up needs at least one slot per
//!     // message, and far fewer than 100 slots per message at this size.
//!     assert!(result.makespan >= 1_000);
//!     assert!(result.makespan < 100_000, "{}", kind.label());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod aggregate;
pub mod cohort;
pub mod dynamic;
pub mod exact;
pub mod fair;
pub mod faults;
pub mod report;
pub mod result;
pub mod runner;
pub mod search;
pub mod session;
pub mod stepper;
pub mod store;
pub mod window;

pub use cohort::{CohortRun, CohortSimulator};
pub use exact::ExactSimulator;
pub use fair::FairSimulator;
pub use faults::{
    run_batched_chaos, ChaosError, ChaosReport, CorruptionKind, CrashPoint, FaultPlan, ShardKill,
};
pub use result::{RunOptions, RunResult};
pub use runner::{EngineChoice, Experiment, ExperimentCell, ExperimentResults};
pub use search::{worst_case_exhaustive, worst_case_search, BudgetedSearchCost};
pub use session::{
    Checkpoint, CheckpointKind, IntegrityError, Session, SessionError, SessionStatus, ShardHealth,
    ShardSupervision, ShardedSession, StallConfig, StallPolicy, StallReport,
};
pub use stepper::ExactStepper;
pub use store::{CheckpointStore, LoadOutcome, SkippedGeneration, StoreError};
pub use window::WindowSimulator;

/// Re-export of the adversarial channel models (`mac-adversary`) so that
/// simulation options can be configured from this crate alone.
pub use mac_adversary as adversary;
pub use mac_adversary::{AdversaryModel, AdversaryScenario, FeedbackFault, JamTrigger};

use mac_protocols::{FairProtocol, KindVisitor, ParameterError, ProtocolKind, WindowSchedule};
use session::SessionEngine;

/// Simulates one batched (static k-selection) run of `kind` with `k` messages
/// using the fastest applicable simulator, with default [`RunOptions`].
///
/// This is the convenience entry point used by the examples and the
/// benchmark harness; for finer control (slot caps, per-delivery records,
/// exact simulation, dynamic arrivals) use the simulator types directly.
///
/// # Errors
/// Returns a [`ParameterError`] if the protocol parameters are invalid.
///
/// # Example
/// ```
/// use mac_protocols::ProtocolKind;
/// let result = mac_sim::simulate(&ProtocolKind::OneFailAdaptive { delta: 2.72 }, 100, 7).unwrap();
/// assert!(result.completed);
/// assert_eq!(result.k, 100);
/// ```
pub fn simulate(kind: &ProtocolKind, k: u64, seed: u64) -> Result<RunResult, ParameterError> {
    simulate_with_options(kind, k, seed, &RunOptions::default())
}

/// Like [`simulate`], with explicit [`RunOptions`].
///
/// # Errors
/// Returns a [`ParameterError`] if the protocol parameters are invalid.
pub fn simulate_with_options(
    kind: &ProtocolKind,
    k: u64,
    seed: u64,
    options: &RunOptions,
) -> Result<RunResult, ParameterError> {
    run_fast(kind, k, seed, options, None)
}

/// Runs one batched instance of `kind` on its fast engine — the aggregate
/// engine for a fair state, the window engine for a window schedule — and,
/// with `jam_log`, records the adversary's effective jams (see
/// [`FairSimulator::run_logging_jams`]).
pub(crate) fn run_fast(
    kind: &ProtocolKind,
    k: u64,
    seed: u64,
    options: &RunOptions,
    jam_log: Option<&mut Vec<u64>>,
) -> Result<RunResult, ParameterError> {
    options.validate_adversary()?;
    let run = FastRun {
        label: kind.label(),
        k,
        seed,
        options,
        jam_log,
    };
    kind.visit(k, run)
}

struct FastRun<'a> {
    label: String,
    k: u64,
    seed: u64,
    options: &'a RunOptions,
    jam_log: Option<&'a mut Vec<u64>>,
}

impl KindVisitor for FastRun<'_> {
    type Output = RunResult;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> RunResult {
        let mut core = aggregate::FairEngineCore::new(state, self.k, self.seed, self.options);
        core.advance(u64::MAX, self.jam_log);
        core.result(&self.label)
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> RunResult {
        let mut core = window::WindowEngineCore::new(schedule, self.k, self.seed, self.options);
        core.advance(u64::MAX, self.jam_log);
        core.result(&self.label)
    }
}

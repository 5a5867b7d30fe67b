//! Streaming simulation sessions: resumable engines, bounded-memory live
//! statistics, and a sharded multi-channel driver.
//!
//! Every fast run is a session over one of two engine cores: the cohort
//! engine serves every fair run (a batched run is one cohort that arrives
//! at slot 0) and the window balls-in-bins engine every batched window
//! run. The one-shot entry points (`FairSimulator`, `WindowSimulator`,
//! `CohortSimulator`, `simulate_dynamic`) drive a core from slot 0 to its
//! end in one `advance`; a [`Session`] drives the *same* core behind an
//! incremental interface:
//!
//! * [`Session::advance`] runs a bounded number of slots and returns
//!   [`SessionStatus::Paused`] or [`SessionStatus::Finished`]; because the
//!   session drives the identical loop body the one-shot call uses, the
//!   finished run is **bit-identical** to the one-shot run — results *and*
//!   RNG streams (enforced by `tests/session_identity.rs`).
//! * [`Session::checkpoint`] serialises the full engine state — every RNG
//!   stream, the protocol's incremental state words, the adversary's
//!   dynamic state, the arrival stream's cursor, the latency sketch — into
//!   a portable word buffer ([`Checkpoint`]); [`Session::resume`] rebuilds
//!   a session that continues bit-identically to the uninterrupted run.
//!   Incrementally-maintained quantities (the cohort engine's Taylor-rebased
//!   slot kernels, One-fail Adaptive's κ/σ trackers, Exp Back-on/Back-off's
//!   running `w` product) are captured **verbatim**: recomputing them from
//!   their defining parameters would re-anchor the maintenance recurrences
//!   and diverge bitwise. See `DESIGN.md` §9.
//! * Dynamic sessions feed arrivals lazily from a
//!   [`mac_channel::ArrivalStream`] — stream-identical to the eager
//!   schedule expansion of [`crate::dynamic::simulate_dynamic`] — and
//!   record latencies into a bounded-memory
//!   [`StreamingLatencyStats`] (exact mean/max/count, KLL-style quantile
//!   sketch with a deterministic rank-error ledger) instead of a per-message
//!   vector, so a 10⁹-slot run holds O(sketch) memory with live statistics
//!   available at every pause ([`Session::live_stats`]).
//! * [`ShardedSession`] drives N independent channels: stations are hashed
//!   across shards by global arrival index, each shard runs its own
//!   [`Session`] on a derived RNG stream, shards advance in parallel on
//!   scoped threads, and the per-shard sketches merge losslessly
//!   ([`ShardedSession::merged_report`]).
//!
//! The layer is one module per decision: this file holds [`SessionError`],
//! the arrival feed, the engine trait and its visitors, [`Session`] and the
//! options codec; `session/frame.rs` the checkpoint frame ([`Checkpoint`],
//! [`IntegrityError`]); `session/watchdog.rs` the livelock watchdog
//! ([`StallConfig`], [`StallReport`]); and `session/sharded.rs` supervision,
//! shard health and [`ShardedSession`]. Every public name is re-exported
//! here.
//!
//! Seed derivation is compatible with `simulate_dynamic`: the arrival
//! stream uses `derive_seed(seed, &[ARRIVAL_STREAM])` and the (unsharded)
//! protocol run `derive_seed(seed, &[RUN_STREAM])`, so a one-shard dynamic
//! session sees exactly the arrivals of the monolithic path. Shard `i`
//! instead runs on `derive_seed(seed, &[SHARD_STREAM, i])`, and the
//! station-to-shard hash is salted with `derive_seed(seed,
//! &[SHARD_STREAM])`.

mod frame;
mod sharded;
mod watchdog;

pub use frame::{Checkpoint, CheckpointKind, IntegrityError};
pub use sharded::{ShardHealth, ShardSupervision, ShardedSession, SHARD_STREAM};
pub use watchdog::{StallConfig, StallPolicy, StallReport};

use crate::cohort::{CohortEngineCore, CohortRun};
use crate::dynamic::{validate_model, DynamicReport, ARRIVAL_STREAM, RUN_STREAM};
use crate::result::{RunOptions, RunResult};
use crate::run_state::{LatencyRecorder, RunState};
use crate::window::WindowEngineCore;
use frame::{open_frame, seal_frame, verify_frame};
use mac_adversary::{AdversaryModel, AdversaryScenario};
use mac_channel::{ArrivalModel, ArrivalStream, ShardedArrivalStream, StreamSummary};
use mac_prob::rng::derive_seed;
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::{FairProtocol, KindVisitor, ParameterError, ProtocolKind, WindowSchedule};
use std::fmt;
use watchdog::Watchdog;

/// Seed-derivation path tag for the latency sketch's compaction coin
/// (independent of every simulation stream, so attaching live statistics
/// never perturbs a run).
const SKETCH_STREAM: u64 = 0x5CE7;

/// Why a dynamic session rejects a window kind.
const WINDOW_DYNAMIC: &str = "dynamic sessions serve fair protocols on the cohort engine; window protocols run per-station on the exact engine";

/// Outcome of one [`Session::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The slot budget ran out before the run finished; the session can be
    /// advanced again (or checkpointed and resumed later).
    Paused,
    /// The run reached completion (every message delivered) or its slot
    /// cap; further advances are no-ops.
    Finished,
}

/// Errors surfaced by the session layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A checkpoint buffer was malformed or truncated.
    Wire(WireError),
    /// A checkpoint frame failed its integrity validation (truncation,
    /// corruption, version or kind mismatch) before decoding began.
    Integrity(IntegrityError),
    /// Protocol or adversary parameters were rejected.
    Parameter(ParameterError),
    /// The requested configuration has no streaming-session support.
    Unsupported(&'static str),
    /// The livelock watchdog detected a zero-delivery stall under
    /// [`StallPolicy::Abort`]; the report carries the diagnostics.
    Stalled(StallReport),
    /// A shard thread of an unsupervised [`ShardedSession`] panicked; the
    /// payload names the shard and carries the panic message so callers
    /// can react instead of crashing.
    ShardFailed {
        /// Index of the failed shard.
        shard: u32,
        /// The panic payload, when it was a string.
        panic: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Wire(e) => write!(f, "checkpoint wire error: {e}"),
            SessionError::Integrity(e) => write!(f, "checkpoint integrity error: {e}"),
            SessionError::Parameter(e) => write!(f, "parameter error: {e}"),
            SessionError::Unsupported(what) => write!(f, "unsupported session: {what}"),
            SessionError::Stalled(report) => write!(f, "run stalled: {report}"),
            SessionError::ShardFailed { shard, panic } => {
                write!(f, "shard {shard} thread panicked: {panic}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<IntegrityError> for SessionError {
    fn from(e: IntegrityError) -> Self {
        SessionError::Integrity(e)
    }
}

impl From<WireError> for SessionError {
    fn from(e: WireError) -> Self {
        SessionError::Wire(e)
    }
}

impl From<ParameterError> for SessionError {
    fn from(e: ParameterError) -> Self {
        SessionError::Parameter(e)
    }
}

/// Lazy arrival source of a dynamic session — the cohort engine's only
/// feed: a plain or sharded [`ArrivalStream`] with one burst of lookahead
/// (checkpointed alongside the stream cursor). Arrivals are consumed in
/// slot order: [`StreamFeed::take_due`] is called with non-decreasing slots.
#[derive(Debug)]
pub(crate) struct StreamFeed {
    source: StreamSource,
    /// Messages not yet handed to the engine: the lookahead burst and the
    /// rest of the stream.
    upcoming: u64,
    pending: Option<(u64, u64)>,
}

/// The stream behind a [`StreamFeed`].
#[derive(Debug, Clone)]
pub(crate) enum StreamSource {
    Plain(ArrivalStream),
    Sharded(ShardedArrivalStream),
}

impl StreamSource {
    fn next_burst(&mut self) -> Option<(u64, u64)> {
        match self {
            StreamSource::Plain(s) => s.next_burst(),
            StreamSource::Sharded(s) => s.next_burst(),
        }
    }

    /// The counting pre-pass: runs a copy of the source to exhaustion
    /// without materialising the arrivals and returns its totals.
    fn summarise(&self) -> StreamSummary {
        let mut counter = self.clone();
        let mut summary = StreamSummary::default();
        while let Some((slot, count)) = counter.next_burst() {
            summary.messages += count;
            summary.last_arrival = Some(slot);
        }
        summary
    }
}

impl StreamFeed {
    /// A feed over a fresh `source` that will emit `messages` messages, the
    /// count of its counting pre-pass ([`StreamSource::summarise`], or one
    /// walk for a whole fleet). The cohort engine needs it up front:
    /// protocol parameters and the slot cap depend on it, and a lazy stream
    /// cannot know it.
    fn new(source: StreamSource, messages: u64) -> Self {
        Self {
            source,
            upcoming: messages,
            pending: None,
        }
    }

    fn fill(&mut self) {
        if self.pending.is_none() {
            self.pending = self.source.next_burst();
        }
    }

    /// Removes and counts every pending arrival at or before `slot`.
    pub(crate) fn take_due(&mut self, slot: u64) -> u64 {
        let mut count = 0u64;
        loop {
            self.fill();
            match self.pending {
                Some((burst_slot, burst_count)) if burst_slot <= slot => {
                    count += burst_count;
                    self.upcoming -= burst_count;
                    self.pending = None;
                }
                _ => break,
            }
        }
        count
    }

    /// The slot of the next pending arrival, if any.
    pub(crate) fn peek_slot(&mut self) -> Option<u64> {
        self.fill();
        self.pending.map(|(slot, _)| slot)
    }

    /// Messages not yet handed to the engine (for `never_activated`).
    pub(crate) fn pending_messages(&self) -> u64 {
        self.upcoming
    }

    /// Messages the stream itself still owes, past the lookahead burst.
    pub(crate) fn stream_owes(&self) -> u64 {
        self.upcoming - self.pending.map_or(0, |(_, count)| count)
    }

    pub(crate) fn encode(&self, out: &mut Encoder) {
        match &self.source {
            StreamSource::Plain(s) => {
                out.put_u32(0);
                s.encode(out);
            }
            StreamSource::Sharded(s) => {
                out.put_u32(1);
                s.encode(out);
            }
        }
        match self.pending {
            Some((slot, count)) => {
                out.put_bool(true);
                out.put_u64(slot);
                out.put_u64(count);
            }
            None => out.put_bool(false),
        }
    }

    /// Inverse of [`StreamFeed::encode`]: the source and the lookahead
    /// burst. A frame stores no count of the messages still to come;
    /// [`StreamFeed::resumed`] derives it from the run.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
    ) -> Result<(StreamSource, Option<(u64, u64)>), WireError> {
        let source = match input.take_u32()? {
            0 => StreamSource::Plain(ArrivalStream::decode(input)?),
            1 => StreamSource::Sharded(ShardedArrivalStream::decode(input)?),
            _ => return Err(WireError::Malformed("unknown arrival source tag")),
        };
        let pending = if input.take_bool()? {
            let slot = input.take_u64()?;
            let count = input.take_u64()?;
            Some((slot, count))
        } else {
            None
        };
        Ok((source, pending))
    }

    /// The decoded feed of a run that still owes `owed` messages — its
    /// undelivered messages less those in live cohorts, `None` if that
    /// does not compute. Every undelivered message is either live or still
    /// in the feed, so the feed must owe exactly these: the lookahead burst
    /// and the rest of the stream. The rest is not walked here: the resume
    /// recounts it and compares [`StreamFeed::stream_owes`] with its count.
    ///
    /// # Errors
    /// [`WireError::Malformed`] if the run owes fewer messages than the
    /// lookahead burst holds.
    pub(crate) fn resumed(
        source: StreamSource,
        pending: Option<(u64, u64)>,
        owed: Option<u64>,
    ) -> Result<Self, WireError> {
        let lookahead = pending.map_or(0, |(_, count)| count);
        let Some(upcoming) = owed.filter(|&owed| owed >= lookahead) else {
            return Err(OWES_ANOTHER_COUNT);
        };
        Ok(Self {
            source,
            upcoming,
            pending,
        })
    }
}

/// Why a dynamic frame whose feed owes another count than its run is
/// rejected.
pub(crate) const OWES_ANOTHER_COUNT: WireError =
    WireError::Malformed("remaining count differs from the live and pending messages");

/// The engine behind a [`Session`]: one of the two generic cores, boxed
/// so a session pays one virtual call per advance chunk while each core's
/// slot loop stays monomorphic over its protocol state. The kind decides
/// the core ([`ProtocolKind::visit`]), so a frame does not name it. Every
/// core keeps its run accounting in one [`RunState`], which the session's
/// clock and count queries read and which it checkpoints ahead of the
/// core's own words.
pub(crate) trait SessionEngine: fmt::Debug + Send {
    fn run_state(&self) -> &RunState;
    /// Runs at least `max_slots` slots (see [`Session::advance`]). With
    /// `jam_log`, the core records the slot of every effective jam (see
    /// [`crate::FairSimulator::run_logging_jams`]).
    fn advance(&mut self, max_slots: u64, jam_log: Option<&mut Vec<u64>>);
    /// Activated, undelivered messages — the watchdog's progress signal.
    fn backlog(&self) -> u64;
    /// The aggregate result so far (capped-run convention while running).
    fn result(&self, label: &str) -> RunResult;
    /// The full run detail, which only the cohort engine keeps.
    fn cohort_run(&self, _label: &str) -> Option<CohortRun> {
        None
    }
    /// The arrival feed, which only the cohort engine has.
    fn feed(&self) -> Option<&StreamFeed> {
        None
    }
    /// Writes the core's own words, which follow the run state in a
    /// checkpoint.
    fn encode(&self, out: &mut Encoder);
}

/// The batched visit of [`Session::batched`] and [`crate::simulate`]: the
/// cohort engine for a fair state, fed one slot-0 burst of `k` messages
/// (an [`ArrivalModel::Batched`] stream), the window engine for a
/// schedule, with the latency sketch `stats` attached when given.
pub(crate) struct BatchedEngine<'a> {
    pub(crate) k: u64,
    pub(crate) seed: u64,
    pub(crate) options: &'a RunOptions,
    pub(crate) stats: Option<StreamingLatencyStats>,
}

impl KindVisitor for BatchedEngine<'_> {
    type Output = Box<dyn SessionEngine>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        let batch =
            StreamSource::Plain(ArrivalStream::new(&ArrivalModel::Batched { k: self.k }, 0));
        let summary = batch.summarise();
        let feed = StreamFeed::new(batch, summary.messages);
        let latencies = LatencyRecorder::new(self.k, false, self.stats);
        Box::new(CohortEngineCore::new(
            feed,
            summary.last_arrival,
            state,
            self.seed,
            self.options,
            latencies,
        ))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        let core = WindowEngineCore::new(schedule, self.k, self.seed, self.options, self.stats);
        Box::new(core)
    }
}

/// The dynamic sessions' visit: the cohort engine for a fair state; `None`
/// for a window schedule, whose dynamic runs are per-station on the exact
/// engine, which is not resumable.
struct DynamicEngine<'a> {
    feed: StreamFeed,
    last_arrival: Option<u64>,
    run_seed: u64,
    options: &'a RunOptions,
    recorder: LatencyRecorder,
}

impl KindVisitor for DynamicEngine<'_> {
    type Output = Option<Box<dyn SessionEngine>>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        Some(Box::new(CohortEngineCore::new(
            self.feed,
            self.last_arrival,
            state,
            self.run_seed,
            self.options,
            self.recorder,
        )))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, _: S) -> Self::Output {
        None
    }
}

/// [`Session::decode`]'s visit: decodes the engine's own words around
/// the decoded run state and the freshly visited state, whose incremental
/// words the checkpoint then overwrites verbatim.
struct DecodeEngine<'a, 'b> {
    run: RunState,
    input: &'a mut Decoder<'b>,
    options: &'a RunOptions,
}

impl KindVisitor for DecodeEngine<'_, '_> {
    type Output = Result<Box<dyn SessionEngine>, WireError>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        let cap = self.options.max_live_cohorts;
        let core = CohortEngineCore::decode(self.input, self.run, state, cap)?;
        Ok(Box::new(core))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        let scenario = &self.options.adversary;
        let core = WindowEngineCore::decode(self.input, self.run, schedule, scenario)?;
        Ok(Box::new(core))
    }
}

/// A resumable simulation run: one of the fast engines driven in bounded
/// slot bursts, with live streaming statistics and exact checkpoint/resume.
///
/// # Example
/// ```
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{RunOptions, Session, SessionStatus};
///
/// let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
/// let mut session = Session::batched(&kind, 500, 7, &RunOptions::default()).unwrap();
/// // Drive in 1000-slot bursts, checkpointing between bursts.
/// while session.advance(1_000).unwrap() == SessionStatus::Paused {
///     let checkpoint = session.checkpoint().unwrap();
///     session = Session::resume(&checkpoint).unwrap();
/// }
/// let result = session.result();
/// assert!(result.completed);
/// // Bit-identical to the uninterrupted one-shot run.
/// assert_eq!(result, mac_sim::simulate(&kind, 500, 7).unwrap());
/// ```
#[derive(Debug)]
pub struct Session {
    label: String,
    kind: ProtocolKind,
    options: RunOptions,
    engine: Box<dyn SessionEngine>,
    watchdog: Option<Watchdog>,
    /// Deterministic fault injection (never checkpointed): the session
    /// panics when its slot clock reaches this value. See
    /// [`Session::arm_fault_kill`].
    kill_at_slot: Option<u64>,
}

impl Session {
    /// Creates a resumable batched (static k-selection) session: fair
    /// protocols on the cohort engine as one cohort that arrives at slot 0,
    /// window protocols on the balls-in-bins engine — the same cores
    /// [`crate::simulate`] uses, so a session run is bit-identical to the
    /// one-shot one.
    ///
    /// # Errors
    /// Returns a [`SessionError::Parameter`] if the protocol or adversary
    /// parameters are invalid.
    pub fn batched(
        kind: &ProtocolKind,
        k: u64,
        seed: u64,
        options: &RunOptions,
    ) -> Result<Self, SessionError> {
        options.validate_adversary()?;
        let engine = BatchedEngine {
            k,
            seed,
            options,
            stats: Some(StreamingLatencyStats::new(derive_seed(
                seed,
                &[SKETCH_STREAM],
            ))),
        };
        Ok(Self::with_engine(kind, options, kind.visit(k, engine)?))
    }

    fn with_engine(
        kind: &ProtocolKind,
        options: &RunOptions,
        engine: Box<dyn SessionEngine>,
    ) -> Self {
        Self {
            label: kind.label(),
            kind: kind.clone(),
            options: options.clone(),
            engine,
            watchdog: None,
            kill_at_slot: None,
        }
    }

    /// Creates a resumable dynamic-arrival session on the cohort engine,
    /// feeding arrivals incrementally from a [`mac_channel::ArrivalStream`]
    /// and recording latencies into a bounded-memory sketch.
    ///
    /// Seed derivation matches [`crate::dynamic::simulate_dynamic`]
    /// (arrival stream on [`ARRIVAL_STREAM`], run on [`RUN_STREAM`]), which
    /// runs this same session to its end with exact latencies, so the
    /// session's aggregate [`RunResult`] is bit-identical to the monolithic
    /// run's.
    ///
    /// # Errors
    /// Returns [`SessionError::Unsupported`] for window protocols (their
    /// dynamic runs are per-station on the exact engine, which is not
    /// resumable) and [`SessionError::Parameter`] for invalid protocol,
    /// adversary or arrival-model parameters.
    pub fn dynamic(
        kind: &ProtocolKind,
        model: &ArrivalModel,
        seed: u64,
        options: &RunOptions,
    ) -> Result<Self, SessionError> {
        Self::dynamic_recording(kind, model, seed, options, false)?
            .ok_or(SessionError::Unsupported(WINDOW_DYNAMIC))
    }

    /// [`Session::dynamic`] with every latency recorded exactly instead of
    /// sketched when `exact_latencies` is set (`simulate_dynamic`); `None`
    /// for a window kind.
    pub(crate) fn dynamic_recording(
        kind: &ProtocolKind,
        model: &ArrivalModel,
        seed: u64,
        options: &RunOptions,
        exact_latencies: bool,
    ) -> Result<Option<Self>, ParameterError> {
        validate_model(model)?;
        let stream = ArrivalStream::new(model, derive_seed(seed, &[ARRIVAL_STREAM]));
        let run_seed = derive_seed(seed, &[RUN_STREAM]);
        Self::dynamic_on(
            kind,
            StreamSource::Plain(stream),
            run_seed,
            options,
            exact_latencies,
        )
    }

    /// The constructor every unsharded dynamic run shares
    /// ([`Session::dynamic`], `simulate_dynamic`,
    /// [`crate::CohortSimulator`]): the cohort engine over a fresh arrival
    /// `source`, after its counting pre-pass, seeded with `run_seed`; `None`
    /// for a window kind.
    pub(crate) fn dynamic_on(
        kind: &ProtocolKind,
        source: StreamSource,
        run_seed: u64,
        options: &RunOptions,
        exact_latencies: bool,
    ) -> Result<Option<Self>, ParameterError> {
        let summary = source.summarise();
        Self::dynamic_counted(kind, source, summary, run_seed, options, exact_latencies)
    }

    /// [`Session::dynamic_on`] over a source whose totals are already
    /// counted: a [`ShardedSession`] counts all its shards in one walk.
    pub(crate) fn dynamic_counted(
        kind: &ProtocolKind,
        source: StreamSource,
        summary: StreamSummary,
        run_seed: u64,
        options: &RunOptions,
        exact_latencies: bool,
    ) -> Result<Option<Self>, ParameterError> {
        options.validate_adversary()?;
        let feed = StreamFeed::new(source, summary.messages);
        let k = summary.messages;
        let sketch = (!exact_latencies)
            .then(|| StreamingLatencyStats::new(derive_seed(run_seed, &[SKETCH_STREAM])));
        let recorder = LatencyRecorder::new(k, exact_latencies, sketch);
        let engine = DynamicEngine {
            feed,
            last_arrival: summary.last_arrival,
            run_seed,
            options,
            recorder,
        };
        let engine = kind.visit(k, engine)?;
        Ok(engine.map(|engine| Self::with_engine(kind, options, engine)))
    }

    /// Drives the run to its end (ignoring any watchdog) and returns its
    /// full detail — the one-shot cohort run; `None` for a window session.
    pub(crate) fn into_cohort_run(mut self) -> Option<CohortRun> {
        self.engine.advance(u64::MAX, None);
        self.engine.cohort_run(&self.label)
    }

    /// Arms the livelock watchdog (or disarms it with `None`): a stall is
    /// flagged when [`StallConfig::window`] consecutive slots pass with a
    /// backlog of activated, undelivered messages and zero deliveries.
    ///
    /// The watchdog is pure bookkeeping on the slot/delivery clocks — it
    /// consumes no randomness and never perturbs the run, so an armed
    /// session remains bit-identical to an unarmed one (enforced by the
    /// identity suite). Its state travels in checkpoints.
    pub fn set_watchdog(&mut self, config: Option<StallConfig>) {
        self.watchdog = config.map(|c| {
            let mut wd = Watchdog::new(StallConfig::new(c.window, c.policy));
            wd.last_progress_slot = self.slot();
            wd
        });
    }

    /// The armed watchdog configuration, if any.
    pub fn watchdog(&self) -> Option<StallConfig> {
        self.watchdog.as_ref().map(|w| w.config)
    }

    /// Diagnostics of the first detected stall, if the watchdog flagged
    /// one.
    pub fn stall(&self) -> Option<&StallReport> {
        self.watchdog.as_ref().and_then(|w| w.stall.as_ref())
    }

    /// **Fault injection** (deterministic chaos testing): the session
    /// panics as soon as its slot clock reaches `slot` during an
    /// `advance`, emulating a crashed shard thread. The supervised
    /// [`ShardedSession`] driver uses this to rehearse panic capture,
    /// retry-from-checkpoint and quarantine; see [`crate::faults`].
    ///
    /// The armed kill is runtime-only — it is never checkpointed, and a
    /// session resumed from a checkpoint is unarmed.
    pub fn arm_fault_kill(&mut self, slot: Option<u64>) {
        self.kill_at_slot = slot;
    }

    /// Advances the run by (at least) `max_slots` slots. Window sessions
    /// treat windows as atomic and may overshoot by up to one window;
    /// dynamic sessions clamp silent fast-forwards to the budget.
    ///
    /// With a watchdog armed, the budget is consumed in window-bounded
    /// chunks so stalls are detected mid-advance; chunked driving is
    /// bit-identical to one-shot driving (the session contract), so the
    /// watchdog never changes a run's outcome.
    ///
    /// # Errors
    /// Returns [`SessionError::Stalled`] when the watchdog fires under
    /// [`StallPolicy::Abort`].
    pub fn advance(&mut self, max_slots: u64) -> Result<SessionStatus, SessionError> {
        let start = self.slot();
        loop {
            if self.is_finished() {
                break;
            }
            let spent = self.slot() - start;
            if spent >= max_slots {
                break;
            }
            let mut chunk = max_slots - spent;
            if let Some(wd) = &self.watchdog {
                let next_check = wd.last_progress_slot.saturating_add(wd.config.window);
                chunk = chunk.min(next_check.saturating_sub(self.slot()).max(1));
            }
            if let Some(kill) = self.kill_at_slot {
                assert!(
                    self.slot() < kill,
                    "injected fault: shard killed at slot {} (armed for slot {kill})",
                    self.slot()
                );
                chunk = chunk.min(kill.saturating_sub(self.slot()).max(1));
            }
            let delivered_before = self.delivered();
            self.engine.advance(chunk, None);
            if let Some(kill) = self.kill_at_slot {
                assert!(
                    self.slot() < kill,
                    "injected fault: shard killed at slot {} (armed for slot {kill})",
                    self.slot()
                );
            }
            let (slot, delivered, backlog, finished) = (
                self.slot(),
                self.delivered(),
                self.backlog(),
                self.is_finished(),
            );
            if let Some(wd) = &mut self.watchdog {
                if delivered > delivered_before || backlog == 0 {
                    // Progress: a delivery landed, or the channel is idle
                    // (an empty backlog cannot stall — the run is waiting
                    // for arrivals, not spinning on collisions).
                    wd.last_progress_slot = slot;
                } else if !finished
                    && slot >= wd.last_progress_slot.saturating_add(wd.config.window)
                {
                    let report = StallReport {
                        detected_at_slot: slot,
                        last_progress_slot: wd.last_progress_slot,
                        window: wd.config.window,
                        delivered,
                        backlog,
                    };
                    if wd.stall.is_none() {
                        wd.stall = Some(report.clone());
                    }
                    // Re-arm so the Report policy flags again only after
                    // another full zero-delivery window.
                    wd.last_progress_slot = slot;
                    match wd.config.policy {
                        StallPolicy::Report => {}
                        StallPolicy::Abort => return Err(SessionError::Stalled(report)),
                    }
                }
            }
        }
        Ok(self.status())
    }

    /// Activated-but-undelivered messages currently contending for the
    /// channel — the backlog the livelock watchdog monitors. It excludes
    /// messages that have not arrived yet: a batched fair session reads 0
    /// until slot 0 has run and [`Session::remaining`] after that, and a
    /// batched window session always reads [`Session::remaining`].
    pub fn backlog(&self) -> u64 {
        self.engine.backlog()
    }

    /// Runs the session to completion (or its slot cap) in one call.
    ///
    /// # Errors
    /// Same conditions as [`Session::advance`].
    pub fn run_to_completion(&mut self) -> Result<RunResult, SessionError> {
        self.advance(u64::MAX)?;
        Ok(self.result())
    }

    /// [`SessionStatus::Finished`] once the run completed or hit its cap.
    pub fn status(&self) -> SessionStatus {
        if self.is_finished() {
            SessionStatus::Finished
        } else {
            SessionStatus::Paused
        }
    }

    /// True once the run completed or hit its slot cap.
    pub fn is_finished(&self) -> bool {
        self.engine.run_state().is_finished()
    }

    /// The current slot clock.
    pub fn slot(&self) -> u64 {
        self.engine.run_state().slot
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.engine.run_state().delivered()
    }

    /// Activated-but-undelivered messages.
    pub fn remaining(&self) -> u64 {
        self.engine.run_state().remaining
    }

    /// The protocol configuration label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Live streaming latency statistics (exact mean/max/count plus
    /// sketched quantiles), available at any pause. Batched sessions push
    /// the delivery slot (equal to the latency for slot-0 arrivals);
    /// dynamic sessions push delivery − arrival.
    pub fn live_stats(&self) -> Option<&StreamingLatencyStats> {
        self.engine.run_state().latencies.streaming.as_ref()
    }

    /// Snapshot of the aggregate result at the current slot. While the run
    /// is unfinished, a fair session's makespan reads the slot clock and a
    /// window session's reads its slot cap.
    pub fn result(&self) -> RunResult {
        self.engine.result(&self.label)
    }

    /// Snapshot of the full cohort run detail (fair sessions only).
    pub fn cohort_run(&self) -> Option<CohortRun> {
        self.engine.cohort_run(&self.label)
    }

    /// Latency/throughput report from the streaming statistics: exact
    /// mean/max, sketched p50/p95 (deterministic rank-error bound via
    /// [`StreamingLatencyStats::rank_error_bound`]).
    pub fn live_report(&self) -> DynamicReport {
        let result = self.result();
        let mut report = match self.live_stats() {
            Some(stats) => DynamicReport::from_streaming(&result, stats),
            None => DynamicReport::from_parts(&result, Vec::new()),
        };
        report.stall_detected_at = self.stall().map(|s| s.detected_at_slot);
        report
    }

    /// Serialises the complete session state into an integrity-framed
    /// buffer (magic, version, declared length, trailing digest — see
    /// [`Checkpoint::verify`]). Resuming from the returned checkpoint
    /// continues **bit-identically** to the uninterrupted run.
    ///
    /// # Errors
    /// None: every protocol kind is checkpointable by its trait's contract,
    /// so the `Result`, kept for its callers, is always `Ok`.
    pub fn checkpoint(&self) -> Result<Checkpoint, SessionError> {
        let mut out = open_frame(CheckpointKind::Session);
        self.kind.encode(&mut out);
        encode_options(&self.options, &mut out);
        match &self.watchdog {
            Some(wd) => {
                out.put_bool(true);
                wd.encode(&mut out);
            }
            None => out.put_bool(false),
        }
        self.engine.run_state().encode(&mut out);
        self.engine.encode(&mut out);
        Ok(seal_frame(out))
    }

    /// Rebuilds a session from a [`Session::checkpoint`]. The frame's
    /// integrity (magic, version, length, digest) is verified **before**
    /// any state is reconstructed. The resumed session continues
    /// bit-identically to the uninterrupted original.
    ///
    /// # Errors
    /// Returns a typed [`SessionError::Integrity`] on a truncated,
    /// corrupted, version- or kind-mismatched frame, and a
    /// [`SessionError::Wire`] if the verified payload still fails to
    /// decode or describes a state no run reaches, such as a stream that
    /// owes another count than its run has left to deliver.
    pub fn resume(checkpoint: &Checkpoint) -> Result<Self, SessionError> {
        let session = Self::decode(checkpoint)?;
        // The one walk a resume makes: the rest of the stream, recounted
        // at the cost of the build's pre-pass over it.
        if let Some(feed) = session.engine.feed() {
            if feed.source.summarise().messages != feed.stream_owes() {
                return Err(OWES_ANOTHER_COUNT.into());
            }
        }
        Ok(session)
    }

    /// Rebuilds a session from its frame without walking its arrival
    /// stream: [`Session::resume`] recounts the one stream, and
    /// [`ShardedSession::resume`] every shard's in one walk of the master
    /// stream.
    pub(crate) fn decode(checkpoint: &Checkpoint) -> Result<Self, SessionError> {
        let payload = verify_frame(&checkpoint.words, CheckpointKind::Session)?;
        let mut input = Decoder::new(payload);
        let kind = ProtocolKind::decode(&mut input)?;
        let options = decode_options(&mut input)?;
        let watchdog = if input.take_bool()? {
            Some(Watchdog::decode(&mut input)?)
        } else {
            None
        };
        // The run state leads with the message count the protocol state is
        // built for, so the decoder reads it and then visits.
        let run = RunState::decode(&mut input, &options)?;
        if let Some(watchdog) = &watchdog {
            watchdog.check_against(run.slot)?;
        }
        let k = run.k;
        let decode = DecodeEngine {
            run,
            input: &mut input,
            options: &options,
        };
        let engine = kind.visit(k, decode)??;
        input.finish()?;
        let mut session = Self::with_engine(&kind, &options, engine);
        session.watchdog = watchdog;
        Ok(session)
    }
}

/// Run options travel in the checkpoint so a resume needs nothing but the
/// buffer. The jamming model is configuration, written as its own words;
/// the run state carries the adversary's dynamic words.
fn encode_options(options: &RunOptions, out: &mut Encoder) {
    out.put_u64(options.slot_cap_per_message);
    out.put_u64(options.min_slot_cap);
    out.put_bool(options.record_deliveries);
    options.adversary.jamming.encode(out);
    out.put_f64(options.adversary.miss_delivery);
    out.put_u64(options.max_live_cohorts);
}

fn decode_options(input: &mut Decoder<'_>) -> Result<RunOptions, WireError> {
    let slot_cap_per_message = input.take_u64()?;
    let min_slot_cap = input.take_u64()?;
    let record_deliveries = input.take_bool()?;
    let jamming = AdversaryModel::decode(input)?;
    let miss_delivery = input.take_f64()?;
    let max_live_cohorts = input.take_u64()?;
    let options = RunOptions {
        slot_cap_per_message,
        min_slot_cap,
        record_deliveries,
        adversary: AdversaryScenario {
            jamming,
            miss_delivery,
        },
        max_live_cohorts,
    };
    options
        .validate_adversary()
        .map_err(|_| WireError::Malformed("invalid adversary configuration"))?;
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::simulate_dynamic;
    use crate::simulate;

    fn ofa() -> ProtocolKind {
        ProtocolKind::OneFailAdaptive { delta: 2.72 }
    }

    fn rp_ofa() -> ProtocolKind {
        ProtocolKind::RandomizedParityOneFail { delta: 2.72 }
    }

    fn fair_kinds() -> [ProtocolKind; 4] {
        [
            ofa(),
            ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.5,
            },
            ProtocolKind::KnownKOracle,
            rp_ofa(),
        ]
    }

    #[test]
    fn batched_fair_session_matches_monolithic_run() {
        for kind in fair_kinds() {
            let mut session = Session::batched(&kind, 400, 5, &RunOptions::default()).unwrap();
            let result = session.run_to_completion().unwrap();
            assert_eq!(result, simulate(&kind, 400, 5).unwrap(), "{}", kind.label());
        }
    }

    #[test]
    fn dynamic_sessions_reject_bad_parameters_at_construction() {
        let bad = ProtocolKind::OneFailAdaptive { delta: 1.0 };
        let model = ArrivalModel::batched(10);
        let options = RunOptions::default();
        assert!(matches!(
            Session::dynamic(&bad, &model, 1, &options),
            Err(SessionError::Parameter(_))
        ));
        assert!(matches!(
            ShardedSession::new(&bad, &model, 1, &options, 2),
            Err(SessionError::Parameter(_))
        ));
    }

    #[test]
    fn invalid_arrival_rates_are_typed_errors() {
        let options = RunOptions::default();
        for rate in [f64::NAN, -1.0, f64::INFINITY] {
            let model = ArrivalModel::Poisson { rate, horizon: 100 };
            assert!(
                matches!(
                    Session::dynamic(&ofa(), &model, 1, &options),
                    Err(SessionError::Parameter(ref e)) if e.parameter() == "rate"
                ),
                "{rate}"
            );
            assert!(
                matches!(
                    ShardedSession::new(&ofa(), &model, 1, &options, 2),
                    Err(SessionError::Parameter(ref e)) if e.parameter() == "rate"
                ),
                "{rate}"
            );
        }
    }

    #[test]
    fn poisson_rates_above_the_bound_are_typed_errors() {
        // Above the bound a Poisson draw is slow, and from 2⁵⁸ on it never
        // ends (`rate − 30 == rate`), so every entry point refuses the rate
        // before sampling.
        let options = RunOptions::default();
        for rate in [65_537.0, 1e18, f64::MAX] {
            let model = ArrivalModel::Poisson { rate, horizon: 100 };
            let parameter = |e: SessionError| match e {
                SessionError::Parameter(e) => Some(e.parameter()),
                _ => None,
            };
            let dynamic = Session::dynamic(&ofa(), &model, 1, &options);
            assert_eq!(dynamic.err().and_then(parameter), Some("rate"), "{rate}");
            let fleet = ShardedSession::new(&ofa(), &model, 1, &options, 2);
            assert_eq!(fleet.err().and_then(parameter), Some("rate"), "{rate}");
            let eager = simulate_dynamic(&ofa(), &model, 1, &options);
            assert_eq!(eager.err().map(|e| e.parameter()), Some("rate"), "{rate}");
        }
        // A frame re-sealed over such a rate is malformed, not a hang.
        let model = ArrivalModel::Poisson {
            rate: 0.25,
            horizon: 100,
        };
        let mut session = Session::dynamic(&ofa(), &model, 1, &options).unwrap();
        session.advance(10).unwrap();
        let mut words = session.checkpoint().unwrap().words;
        let listed = [1, 0.25f64.to_bits(), 100];
        let at = (0..words.len())
            .find(|&i| words[i..].starts_with(&listed))
            .expect("the frame carries the Poisson model");
        words[at + 1] = 1e18f64.to_bits();
        let last = words.len() - 1;
        words[last] = mac_prob::wire::digest_words(&words[..last]);
        assert!(matches!(
            Session::resume(&Checkpoint { words }),
            Err(SessionError::Wire(WireError::Malformed(_)))
        ));
    }

    #[test]
    fn overflowing_burst_totals_are_typed_errors() {
        let options = RunOptions::default();
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, u64::MAX), (1, 1)],
        };
        assert!(matches!(
            Session::dynamic(&ofa(), &model, 1, &options),
            Err(SessionError::Parameter(ref e)) if e.parameter() == "bursts"
        ));
        assert!(matches!(
            ShardedSession::new(&ofa(), &model, 1, &options, 2),
            Err(SessionError::Parameter(ref e)) if e.parameter() == "bursts"
        ));
    }

    #[test]
    fn batched_window_session_matches_monolithic_run() {
        let kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
        let mut session = Session::batched(&kind, 400, 5, &RunOptions::default()).unwrap();
        let result = session.run_to_completion().unwrap();
        assert_eq!(result, simulate(&kind, 400, 5).unwrap());
    }

    #[test]
    fn bounded_advances_and_checkpoints_preserve_bit_identity() {
        for kind in fair_kinds() {
            let mut session = Session::batched(&kind, 600, 17, &RunOptions::default()).unwrap();
            let mut rounds = 0;
            while session.advance(100).unwrap() == SessionStatus::Paused {
                let checkpoint = session.checkpoint().unwrap();
                session = Session::resume(&checkpoint).unwrap();
                rounds += 1;
                assert!(rounds < 10_000, "session failed to make progress");
            }
            assert!(rounds > 1, "the budget must actually split the run");
            assert_eq!(session.result(), simulate(&kind, 600, 17).unwrap());
        }
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let mut session = Session::batched(&ofa(), 100, 3, &RunOptions::default()).unwrap();
        session.advance(50).unwrap();
        let checkpoint = session.checkpoint().unwrap();
        let rebuilt = Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
        assert_eq!(checkpoint, rebuilt);
        let mut resumed = Session::resume(&rebuilt).unwrap();
        assert_eq!(resumed.slot(), session.slot());
        assert_eq!(
            resumed.run_to_completion().unwrap(),
            session.run_to_completion().unwrap()
        );
    }

    #[test]
    fn dynamic_session_matches_simulate_dynamic_aggregates() {
        let kind = ofa();
        let model = ArrivalModel::Poisson {
            rate: 0.05,
            horizon: 2_000,
        };
        let options = RunOptions::default();
        let monolithic = simulate_dynamic(&kind, &model, 21, &options).unwrap();
        let mut session = Session::dynamic(&kind, &model, 21, &options).unwrap();
        session.run_to_completion().unwrap();
        let report = session.live_report();
        // Aggregate counters are bit-identical (same arrivals, same RNG
        // streams); mean/max latency are exact in the streaming path too.
        assert_eq!(report.messages, monolithic.messages);
        assert_eq!(report.delivered, monolithic.delivered);
        assert_eq!(report.makespan, monolithic.makespan);
        assert_eq!(report.mean_latency, monolithic.mean_latency);
        assert_eq!(report.max_latency, monolithic.max_latency);
    }

    #[test]
    fn dynamic_session_rejects_window_protocols() {
        let err = Session::dynamic(
            &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            &ArrivalModel::batched(10),
            1,
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SessionError::Unsupported(_)));
    }

    #[test]
    fn sharded_union_covers_every_message() {
        let kind = ofa();
        // Rate comfortably below the protocol's sustainable throughput so
        // every run completes within its slot cap.
        let model = ArrivalModel::Poisson {
            rate: 0.05,
            horizon: 5_000,
        };
        let options = RunOptions::default();
        let single = simulate_dynamic(&kind, &model, 9, &options).unwrap();
        for shards in [1u32, 2, 4] {
            let mut driver = ShardedSession::new(&kind, &model, 9, &options, shards).unwrap();
            assert_eq!(driver.status(), SessionStatus::Paused);
            driver.run_to_completion().unwrap();
            let report = driver.merged_report();
            assert_eq!(
                report.messages, single.messages,
                "{shards} shards must partition the arrival sequence"
            );
            assert_eq!(report.delivered, report.messages);
        }
    }

    #[test]
    fn sharded_checkpoint_resume_is_bit_identical() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 30), (200, 30), (5_000, 10)],
        };
        let options = RunOptions::default();
        for kind in [ofa(), rp_ofa()] {
            let mut unbroken = ShardedSession::new(&kind, &model, 3, &options, 2).unwrap();
            unbroken.run_to_completion().unwrap();

            let mut paused = ShardedSession::new(&kind, &model, 3, &options, 2).unwrap();
            paused.advance(500).unwrap();
            let checkpoint = paused.checkpoint().unwrap();
            let mut resumed = ShardedSession::resume(&checkpoint).unwrap();
            resumed.run_to_completion().unwrap();

            assert_eq!(resumed.merged_result(), unbroken.merged_result());
            let a = resumed.merged_stats();
            let b = unbroken.merged_stats();
            assert_eq!(a.count(), b.count());
            assert_eq!(a.quantile(0.5), b.quantile(0.5));
        }
    }

    #[test]
    fn live_stats_are_available_mid_run() {
        let mut session = Session::batched(&ofa(), 2_000, 1, &RunOptions::default()).unwrap();
        session.advance(2_000).unwrap();
        let delivered = session.delivered();
        let stats = session.live_stats().expect("sessions attach stats");
        assert_eq!(stats.count(), delivered);
        if delivered > 0 {
            assert!(stats.quantile(0.5) <= session.slot());
        }
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(Session::resume(&Checkpoint { words: vec![] }).is_err());
        assert!(Session::resume(&Checkpoint {
            words: vec![0xDEAD_BEEF, 1],
        })
        .is_err());
        let session = Session::batched(&ofa(), 10, 1, &RunOptions::default()).unwrap();
        let mut words = session.checkpoint().unwrap().words;
        words.truncate(words.len() - 1);
        assert!(Session::resume(&Checkpoint { words }).is_err());
    }
}

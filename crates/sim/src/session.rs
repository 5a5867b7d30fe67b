//! Streaming simulation sessions: resumable engines, bounded-memory live
//! statistics, and a sharded multi-channel driver.
//!
//! The monolithic runners (`FairSimulator`, `WindowSimulator`,
//! `CohortSimulator`) drive their engine cores from slot 0 to completion in
//! one call. A [`Session`] wraps the *same* cores — the fair aggregate
//! engine, the window balls-in-bins engine, and the cohort engine under
//! dynamic arrivals — behind an incremental interface:
//!
//! * [`Session::advance`] runs a bounded number of slots and returns
//!   [`SessionStatus::Paused`] or [`SessionStatus::Finished`]; because the
//!   session drives the identical loop body the monolithic runner uses, the
//!   finished run is **bit-identical** to the one-shot run — results *and*
//!   RNG streams (enforced by `tests/session_identity.rs`).
//! * [`Session::checkpoint`] serialises the full engine state — every RNG
//!   stream, the protocol's incremental state words, the adversary's
//!   dynamic state, the arrival stream's cursor, the latency sketch — into
//!   a portable word buffer ([`Checkpoint`]); [`Session::resume`] rebuilds
//!   a session that continues bit-identically to the uninterrupted run.
//!   Incrementally-maintained quantities (the fair engine's Taylor-rebased
//!   slot kernel, One-fail Adaptive's κ/σ trackers, Exp Back-on/Back-off's
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
//! Seed derivation is compatible with `simulate_dynamic`: the arrival
//! stream uses `derive_seed(seed, &[ARRIVAL_STREAM])` and the (unsharded)
//! protocol run `derive_seed(seed, &[RUN_STREAM])`, so a one-shard dynamic
//! session sees exactly the arrivals of the monolithic path. Shard `i`
//! instead runs on `derive_seed(seed, &[SHARD_STREAM, i])`, and the
//! station-to-shard hash is salted with `derive_seed(seed,
//! &[SHARD_STREAM])`.

use crate::aggregate::FairEngineCore;
use crate::cohort::{CohortEngineCore, CohortRun, LatencyRecorder};
use crate::dynamic::{validate_model, DynamicReport, ARRIVAL_STREAM, RUN_STREAM};
use crate::result::{RunOptions, RunResult};
use crate::window::WindowEngineCore;
use mac_adversary::{AdversaryModel, AdversaryScenario, FeedbackFault};
use mac_channel::{ArrivalModel, ArrivalStream, ShardStrategy, ShardedArrivalStream};
use mac_prob::rng::derive_seed;
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{self, Decoder, Encoder, WireError};
use mac_protocols::kind::Engine;
use mac_protocols::{FairProtocol, KindVisitor, ParameterError, ProtocolKind, WindowSchedule};
use std::fmt;
use std::str::FromStr;

/// Seed-derivation path tag for the sharded driver: shard `i` of a
/// [`ShardedSession`] runs on `derive_seed(seed, &[SHARD_STREAM, i])`, and
/// the station-to-shard hash salt is `derive_seed(seed, &[SHARD_STREAM])`.
pub const SHARD_STREAM: u64 = 0x5AAD;

/// Seed-derivation path tag for the latency sketch's compaction coin
/// (independent of every simulation stream, so attaching live statistics
/// never perturbs a run).
const SKETCH_STREAM: u64 = 0x5CE7;

/// Why a dynamic session rejects a window kind.
const WINDOW_DYNAMIC: &str = "dynamic sessions serve fair protocols on the cohort engine; window protocols run per-station on the exact engine";

/// First word of every serialised session checkpoint.
const CHECKPOINT_MAGIC: u64 = 0x4D41_4353_4553_5331; // "MACSESS1"

/// First word of every serialised sharded-driver checkpoint.
const SHARDED_MAGIC: u64 = 0x4D41_4353_4841_5244; // "MACSHARD"

/// Checkpoint format version (bumped on any layout change).
///
/// v1: PR 7 layout, no integrity frame. v2: integrity frame (length word +
/// trailing digest) and watchdog / shard-health state. v3: cohort knobs
/// (merge tolerance, live-class cap) in the options and the engine core,
/// the randomised-parity protocol tag, and the shard-assignment strategy in
/// sharded arrival streams. Engine tag 8 (batched randomised parity) came
/// later within v3 and changes no existing layout: an older v3 reader
/// rejects it as an unknown engine tag instead of misdecoding it.
const CHECKPOINT_VERSION: u64 = 3;

/// Words of frame overhead around a checkpoint payload: magic, version,
/// total length, and the trailing digest.
const FRAME_WORDS: usize = 4;

/// Outcome of one [`Session::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The slot budget ran out before the run finished; the session can be
    /// advanced again (or checkpointed and resumed later).
    Paused,
    /// The run reached completion (every message delivered) or its slot
    /// cap; further advances are no-ops.
    Finished,
    /// The livelock watchdog detected a zero-delivery stall and its
    /// [`StallPolicy::Pause`] asked for control back: the session is intact
    /// and checkpointable, and diagnostics are in [`Session::stall`].
    Stalled,
}

/// Which driver wrote a checkpoint: a single [`Session`] or the
/// [`ShardedSession`] fleet driver. The two use distinct magic words so a
/// frame fed to the wrong `resume` fails with a typed
/// [`IntegrityError::KindMismatch`] instead of decoding garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A [`Session::checkpoint`] frame.
    Session,
    /// A [`ShardedSession::checkpoint`] frame.
    Sharded,
}

impl fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointKind::Session => write!(f, "session"),
            CheckpointKind::Sharded => write!(f, "sharded session"),
        }
    }
}

/// Integrity failure detected while validating a checkpoint frame —
/// always **before** any engine state is reconstructed, so a bad buffer
/// can never leave a half-built session behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The buffer is shorter than its header claims (or too short to hold
    /// a header at all, in which case `expected_words` is `None`).
    Truncated {
        /// Total length recorded in the frame header, when readable.
        expected_words: Option<u64>,
        /// Words actually present.
        found_words: u64,
    },
    /// The buffer is longer than its header claims.
    TrailingData {
        /// Total length recorded in the frame header.
        expected_words: u64,
        /// Words actually present.
        found_words: u64,
    },
    /// The first word is neither the session nor the sharded magic — this
    /// is not a checkpoint at all.
    BadMagic {
        /// The word found where a magic was expected.
        found: u64,
    },
    /// A checkpoint of the wrong kind (session vs sharded) was fed to a
    /// `resume`.
    KindMismatch {
        /// The kind the frame's magic declares.
        found: CheckpointKind,
        /// The kind the caller required.
        expected: CheckpointKind,
    },
    /// The checkpoint was written by a different format version — carries
    /// both numbers so mixed-version fleets get an actionable error.
    VersionMismatch {
        /// The kind the frame's magic declares.
        kind: CheckpointKind,
        /// Version recorded in the frame.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The stored digest does not match the recomputed one: at least one
    /// word of the frame was corrupted in storage or transit.
    Corrupt {
        /// Digest stored in the frame's final word.
        stored_digest: u64,
        /// Digest recomputed over the frame contents.
        computed_digest: u64,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::Truncated {
                expected_words,
                found_words,
            } => match expected_words {
                Some(expected) => write!(
                    f,
                    "checkpoint truncated: header declares {expected} words, found {found_words}"
                ),
                None => write!(
                    f,
                    "checkpoint truncated: {found_words} words is too short for a frame header"
                ),
            },
            IntegrityError::TrailingData {
                expected_words,
                found_words,
            } => write!(
                f,
                "checkpoint has trailing data: header declares {expected_words} words, found {found_words}"
            ),
            IntegrityError::BadMagic { found } => {
                write!(f, "not a checkpoint (bad magic word {found:#018x})")
            }
            IntegrityError::KindMismatch { found, expected } => {
                write!(f, "checkpoint kind mismatch: found a {found} checkpoint, expected a {expected} checkpoint")
            }
            IntegrityError::VersionMismatch {
                kind,
                found,
                expected,
            } => write!(
                f,
                "{kind} checkpoint version mismatch: found v{found}, this build reads v{expected}"
            ),
            IntegrityError::Corrupt {
                stored_digest,
                computed_digest,
            } => write!(
                f,
                "checkpoint corrupt: stored digest {stored_digest:#018x} != computed {computed_digest:#018x}"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

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

/// A serialised session state: a self-describing `u64` word buffer (magic,
/// version, protocol and adversary configuration, full engine state) that
/// [`Session::resume`] turns back into a running session.
///
/// Checkpoints are plain data — they can cross processes or hosts of the
/// same build. [`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`] give a
/// little-endian byte serialisation for storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    words: Vec<u64>,
}

impl Checkpoint {
    /// The raw checkpoint words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Checkpoint size in bytes (8 per word).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Little-endian byte serialisation.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::words_to_bytes(&self.words)
    }

    /// Parses a checkpoint from [`Checkpoint::to_bytes`] output.
    ///
    /// # Errors
    /// Returns a [`SessionError::Wire`] if the byte length is not a
    /// multiple of 8.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SessionError> {
        Ok(Self {
            words: wire::bytes_to_words(bytes)?,
        })
    }

    /// Validates the integrity frame — magic, version, declared length and
    /// trailing digest — without reconstructing any state, and reports
    /// which driver wrote the checkpoint.
    ///
    /// This is exactly the validation `resume` performs first; a durable
    /// store uses it to decide whether a stored generation is still good.
    ///
    /// # Errors
    /// A typed [`IntegrityError`] distinguishing truncation, trailing
    /// data, corruption, and version mismatch.
    pub fn verify(&self) -> Result<CheckpointKind, IntegrityError> {
        let kind = peek_kind(&self.words)?;
        verify_frame(&self.words, kind)?;
        Ok(kind)
    }
}

/// Reads the kind of a frame from its magic word.
fn peek_kind(words: &[u64]) -> Result<CheckpointKind, IntegrityError> {
    match words.first() {
        None => Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: 0,
        }),
        Some(&CHECKPOINT_MAGIC) => Ok(CheckpointKind::Session),
        Some(&SHARDED_MAGIC) => Ok(CheckpointKind::Sharded),
        Some(&other) => Err(IntegrityError::BadMagic { found: other }),
    }
}

/// Validates a checkpoint frame of the `expected` kind and returns its
/// payload slice (the words between the header and the digest).
///
/// Validation order matters for error quality: magic (kind) first, then
/// version, then the declared length, then the digest — so a
/// version-mismatched frame reports the versions instead of "corrupt",
/// and a truncated frame reports the missing words. Every check runs
/// before a single payload word is decoded.
fn verify_frame(words: &[u64], expected: CheckpointKind) -> Result<&[u64], IntegrityError> {
    // The two slice patterns carry the FRAME_WORDS length proof: peeling
    // the trailing digest and then the three header words only succeeds on
    // a frame of at least four words, and `payload` is exactly the words
    // between the header and the digest.
    let [body @ .., stored] = words else {
        return Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: 0,
        });
    };
    let [_magic, version, declared, payload @ ..] = body else {
        return Err(IntegrityError::Truncated {
            expected_words: None,
            found_words: words.len() as u64,
        });
    };
    let found = peek_kind(words)?;
    if found != expected {
        return Err(IntegrityError::KindMismatch { found, expected });
    }
    if *version != CHECKPOINT_VERSION {
        return Err(IntegrityError::VersionMismatch {
            kind: found,
            found: *version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let present = words.len() as u64;
    if present < *declared {
        return Err(IntegrityError::Truncated {
            expected_words: Some(*declared),
            found_words: present,
        });
    }
    if present > *declared {
        return Err(IntegrityError::TrailingData {
            expected_words: *declared,
            found_words: present,
        });
    }
    let computed = wire::digest_words(body);
    if *stored != computed {
        return Err(IntegrityError::Corrupt {
            stored_digest: *stored,
            computed_digest: computed,
        });
    }
    Ok(payload)
}

/// Starts a checkpoint frame: magic, version, and a length placeholder
/// that [`seal_frame`] patches.
fn open_frame(kind: CheckpointKind) -> Encoder {
    let mut out = Encoder::new();
    out.put_u64(match kind {
        CheckpointKind::Session => CHECKPOINT_MAGIC,
        CheckpointKind::Sharded => SHARDED_MAGIC,
    });
    out.put_u64(CHECKPOINT_VERSION);
    out.put_u64(0); // total length, patched by seal_frame
    out
}

/// Closes a frame opened by [`open_frame`]: patches the total length and
/// appends the digest over everything before it.
fn seal_frame(out: Encoder) -> Checkpoint {
    let mut words = out.finish();
    debug_assert!(
        words.len() >= FRAME_WORDS - 1,
        "sealing an encoder that did not come from open_frame"
    );
    let with_digest = (words.len() + 1) as u64;
    if let Some(total_len) = words.get_mut(2) {
        *total_len = with_digest;
    }
    let digest = wire::digest_words(&words);
    words.push(digest);
    Checkpoint { words }
}

/// What the livelock watchdog does when it detects a zero-delivery stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// Record the stall (first occurrence) in [`Session::stall`] and keep
    /// running — the run proceeds to completion or its slot cap, but the
    /// stall is surfaced in the status and the dynamic report.
    Report,
    /// Stop advancing and return [`SessionError::Stalled`] with the
    /// diagnostics. The session stays intact, so the caller can still
    /// checkpoint it or read partial results.
    Abort,
    /// Return [`SessionStatus::Stalled`] from `advance`, handing control
    /// back so the caller can checkpoint and park the run. A later
    /// `advance` continues (and re-triggers after another full window
    /// without a delivery).
    Pause,
}

/// Configuration of the livelock watchdog: flag a stall when `window`
/// consecutive slots pass with **backlogged** (activated, undelivered)
/// messages and **zero** deliveries.
///
/// An idle channel — no activated messages, e.g. a dynamic session
/// fast-forwarding to its next arrival burst — is never a stall; the
/// window only runs while a backlog exists. Because the watchdog samples
/// at window boundaries, detection is guaranteed within **two** windows
/// of the last delivery (or of the idle→backlogged transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// Zero-delivery window in slots (clamped to ≥ 1).
    pub window: u64,
    /// What to do on detection.
    pub policy: StallPolicy,
}

impl StallConfig {
    /// A watchdog flagging after `window` backlogged slots without a
    /// delivery, under `policy`.
    pub fn new(window: u64, policy: StallPolicy) -> Self {
        Self {
            window: window.max(1),
            policy,
        }
    }
}

/// Diagnostics of a detected zero-delivery stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Slot at which the watchdog flagged the stall.
    pub detected_at_slot: u64,
    /// Last slot at which progress (a delivery, or an idle channel) was
    /// observed.
    pub last_progress_slot: u64,
    /// The configured zero-delivery window.
    pub window: u64,
    /// Messages delivered before the stall.
    pub delivered: u64,
    /// Activated, undelivered messages at detection time.
    pub backlog: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zero-delivery stall at slot {} ({} backlogged messages, no delivery since slot {}, window {})",
            self.detected_at_slot, self.backlog, self.last_progress_slot, self.window
        )
    }
}

/// Runtime state of the livelock watchdog (checkpointed, so a resumed
/// session keeps both its configuration and its progress clock).
#[derive(Debug, Clone)]
struct Watchdog {
    config: StallConfig,
    last_progress_slot: u64,
    last_delivered: u64,
    stall: Option<StallReport>,
}

impl Watchdog {
    fn new(config: StallConfig) -> Self {
        Self {
            config,
            last_progress_slot: 0,
            last_delivered: 0,
            stall: None,
        }
    }

    fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.config.window);
        out.put_u32(match self.config.policy {
            StallPolicy::Report => 0,
            StallPolicy::Abort => 1,
            StallPolicy::Pause => 2,
        });
        out.put_u64(self.last_progress_slot);
        out.put_u64(self.last_delivered);
        match &self.stall {
            Some(s) => {
                out.put_bool(true);
                out.put_u64(s.detected_at_slot);
                out.put_u64(s.last_progress_slot);
                out.put_u64(s.window);
                out.put_u64(s.delivered);
                out.put_u64(s.backlog);
            }
            None => out.put_bool(false),
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let window = input.take_u64()?;
        let policy = match input.take_u32()? {
            0 => StallPolicy::Report,
            1 => StallPolicy::Abort,
            2 => StallPolicy::Pause,
            _ => return Err(WireError::Malformed("unknown stall policy tag")),
        };
        let last_progress_slot = input.take_u64()?;
        let last_delivered = input.take_u64()?;
        let stall = if input.take_bool()? {
            Some(StallReport {
                detected_at_slot: input.take_u64()?,
                last_progress_slot: input.take_u64()?,
                window: input.take_u64()?,
                delivered: input.take_u64()?,
                backlog: input.take_u64()?,
            })
        } else {
            None
        };
        Ok(Self {
            config: StallConfig { window, policy },
            last_progress_slot,
            last_delivered,
            stall,
        })
    }
}

/// Lazy arrival source of a dynamic session — the cohort engine's only
/// feed: a plain or sharded [`ArrivalStream`] with one burst of lookahead
/// (checkpointed alongside the stream cursor). Arrivals are consumed in
/// slot order: [`StreamFeed::take_due`] is called with non-decreasing slots.
#[derive(Debug)]
pub(crate) struct StreamFeed {
    source: StreamSource,
    total: u64,
    activated: u64,
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
}

impl StreamFeed {
    /// A feed over a fresh `source`, after the counting pre-pass the cohort
    /// engine needs up front — protocol parameters and the slot cap depend
    /// on the message count, which a lazy stream cannot know. The pre-pass
    /// runs a copy of the source to exhaustion without materialising the
    /// arrivals; returns the feed and the slot of the last arrival.
    fn new(source: StreamSource) -> (Self, Option<u64>) {
        let mut counter = source.clone();
        let mut total = 0u64;
        let mut last_arrival = None;
        while let Some((slot, count)) = counter.next_burst() {
            total += count;
            last_arrival = Some(slot);
        }
        let feed = Self {
            source,
            total,
            activated: 0,
            pending: None,
        };
        (feed, last_arrival)
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
                    self.activated += burst_count;
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
        self.total - self.activated
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
        out.put_u64(self.total);
        out.put_u64(self.activated);
        match self.pending {
            Some((slot, count)) => {
                out.put_bool(true);
                out.put_u64(slot);
                out.put_u64(count);
            }
            None => out.put_bool(false),
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let source = match input.take_u32()? {
            0 => StreamSource::Plain(ArrivalStream::decode(input)?),
            1 => StreamSource::Sharded(ShardedArrivalStream::decode(input)?),
            _ => return Err(WireError::Malformed("unknown arrival source tag")),
        };
        let total = input.take_u64()?;
        let activated = input.take_u64()?;
        let pending = if input.take_bool()? {
            let slot = input.take_u64()?;
            let count = input.take_u64()?;
            Some((slot, count))
        } else {
            None
        };
        Ok(Self {
            source,
            total,
            activated,
            pending,
        })
    }
}

/// The engine behind a [`Session`]: one of the three generic cores, boxed
/// so a session pays one virtual call per advance chunk while each core's
/// slot loop stays monomorphic over its protocol state.
pub(crate) trait SessionEngine: fmt::Debug + Send {
    fn engine(&self) -> Engine;
    /// Runs at least `max_slots` slots (see [`Session::advance`]).
    fn advance(&mut self, max_slots: u64);
    fn slot(&self) -> u64;
    fn delivered(&self) -> u64;
    fn remaining(&self) -> u64;
    /// Activated, undelivered messages — the watchdog's progress signal.
    fn backlog(&self) -> u64;
    fn is_finished(&self) -> bool;
    fn streaming_stats(&self) -> Option<&StreamingLatencyStats>;
    /// The aggregate result so far (capped-run convention while running).
    fn result(&self, label: &str) -> RunResult;
    /// The full run detail, which only the cohort engine keeps.
    fn cohort_run(&self, _label: &str) -> Option<CohortRun> {
        None
    }
    /// Writes the payload that follows the engine tag (`false` if the
    /// protocol exposes no checkpointable state).
    fn encode_payload(&self, out: &mut Encoder) -> bool;
}

/// [`Session::batched`]'s visit: the fair aggregate engine for a fair
/// state, the window engine for a schedule.
struct BatchedEngine<'a> {
    k: u64,
    seed: u64,
    options: &'a RunOptions,
    stats: StreamingLatencyStats,
}

impl KindVisitor for BatchedEngine<'_> {
    type Output = Box<dyn SessionEngine>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        let mut core = FairEngineCore::new(state, self.k, self.seed, self.options);
        core.set_streaming_stats(self.stats);
        Box::new(core)
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        let mut core = WindowEngineCore::new(schedule, self.k, self.seed, self.options);
        core.set_streaming_stats(self.stats);
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

/// [`Session::resume`]'s visit: decodes the tagged engine's payload around
/// the freshly visited state, whose incremental words the payload then
/// overwrites verbatim.
struct DecodeEngine<'a, 'b> {
    engine: Engine,
    k: u64,
    input: &'a mut Decoder<'b>,
    scenario: &'a AdversaryScenario,
}

impl KindVisitor for DecodeEngine<'_, '_> {
    type Output = Result<Box<dyn SessionEngine>, WireError>;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> Self::Output {
        Ok(match self.engine {
            Engine::Fair => Box::new(FairEngineCore::decode(
                self.input,
                self.k,
                state,
                self.scenario,
            )?),
            Engine::Cohort => {
                let feed = StreamFeed::decode(self.input)?;
                Box::new(CohortEngineCore::decode(
                    self.input,
                    feed,
                    state,
                    self.scenario,
                )?)
            }
            Engine::Window => {
                return Err(WireError::Malformed(
                    "window engine tag with a fair protocol kind",
                ))
            }
        })
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> Self::Output {
        if self.engine != Engine::Window {
            return Err(WireError::Malformed(
                "fair engine tag with a window protocol kind",
            ));
        }
        let core = WindowEngineCore::decode(self.input, self.k, schedule, self.scenario)?;
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
/// // Bit-identical to the uninterrupted monolithic run.
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
    /// protocols on the aggregate engine, window protocols on the
    /// balls-in-bins engine — the same cores [`crate::simulate`] uses, so a
    /// session run is bit-identical to the monolithic one.
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
            stats: StreamingLatencyStats::new(derive_seed(seed, &[SKETCH_STREAM])),
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

    /// The constructor every dynamic run shares ([`Session::dynamic`],
    /// [`ShardedSession`], `simulate_dynamic`, [`crate::CohortSimulator`]):
    /// the cohort engine over a fresh arrival `source`, after its counting
    /// pre-pass, seeded with `run_seed`; `None` for a window kind.
    pub(crate) fn dynamic_on(
        kind: &ProtocolKind,
        source: StreamSource,
        run_seed: u64,
        options: &RunOptions,
        exact_latencies: bool,
    ) -> Result<Option<Self>, ParameterError> {
        options.validate_adversary()?;
        options.validate_cohort()?;
        let (feed, last_arrival) = StreamFeed::new(source);
        let k = feed.total;
        let recorder = if exact_latencies {
            LatencyRecorder::exact(k)
        } else {
            LatencyRecorder::streaming(StreamingLatencyStats::new(derive_seed(
                run_seed,
                &[SKETCH_STREAM],
            )))
        };
        let engine = DynamicEngine {
            feed,
            last_arrival,
            run_seed,
            options,
            recorder,
        };
        let engine = kind.visit(k, engine)?;
        Ok(engine.map(|engine| Self::with_engine(kind, options, engine)))
    }

    /// Drives the run to its end (ignoring any watchdog) and returns its
    /// full detail — the monolithic cohort run; `None` for a batched
    /// session.
    pub(crate) fn into_cohort_run(mut self) -> Option<CohortRun> {
        self.engine.advance(u64::MAX);
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
            wd.last_delivered = self.delivered();
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
        if self.watchdog.is_none() && self.kill_at_slot.is_none() {
            // Fast path: hand the engine the whole budget in one call.
            self.engine.advance(max_slots);
            return Ok(self.status());
        }
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
            self.engine.advance(chunk);
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
                if delivered > wd.last_delivered || backlog == 0 {
                    // Progress: a delivery landed, or the channel is idle
                    // (an empty backlog cannot stall — the run is waiting
                    // for arrivals, not spinning on collisions).
                    wd.last_delivered = delivered;
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
                    // Re-arm so Report/Pause policies flag again only
                    // after another full zero-delivery window.
                    wd.last_progress_slot = slot;
                    match wd.config.policy {
                        StallPolicy::Report => {}
                        StallPolicy::Abort => return Err(SessionError::Stalled(report)),
                        StallPolicy::Pause => return Ok(SessionStatus::Stalled),
                    }
                }
            }
        }
        Ok(self.status())
    }

    /// Activated-but-undelivered messages currently contending for the
    /// channel — the backlog the livelock watchdog monitors. For batched
    /// sessions this equals [`Session::remaining`]; for dynamic sessions
    /// it excludes messages that have not arrived yet.
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
        self.engine.is_finished()
    }

    /// The current slot clock.
    pub fn slot(&self) -> u64 {
        self.engine.slot()
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.engine.delivered()
    }

    /// Activated-but-undelivered messages.
    pub fn remaining(&self) -> u64 {
        self.engine.remaining()
    }

    /// The protocol configuration label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The protocol kind this session runs.
    pub fn kind(&self) -> &ProtocolKind {
        &self.kind
    }

    /// Live streaming latency statistics (exact mean/max/count plus
    /// sketched quantiles), available at any pause. Batched sessions push
    /// the delivery slot (equal to the latency for slot-0 arrivals);
    /// dynamic sessions push delivery − arrival.
    pub fn live_stats(&self) -> Option<&StreamingLatencyStats> {
        self.engine.streaming_stats()
    }

    /// Snapshot of the aggregate result at the current slot (capped-run
    /// convention while unfinished).
    pub fn result(&mut self) -> RunResult {
        self.engine.result(&self.label)
    }

    /// Snapshot of the full cohort run detail (dynamic sessions only).
    pub fn cohort_run(&mut self) -> Option<CohortRun> {
        self.engine.cohort_run(&self.label)
    }

    /// Latency/throughput report from the streaming statistics: exact
    /// mean/max, sketched p50/p95 (deterministic rank-error bound via
    /// [`StreamingLatencyStats::rank_error_bound`]).
    pub fn live_report(&mut self) -> DynamicReport {
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
    /// Returns [`SessionError::Unsupported`] if the protocol does not
    /// expose checkpointable state (all built-in protocols do).
    pub fn checkpoint(&self) -> Result<Checkpoint, SessionError> {
        let mut out = open_frame(CheckpointKind::Session);
        out.put_str(&self.label);
        self.kind.encode(&mut out);
        encode_options(&self.options, &mut out);
        match &self.watchdog {
            Some(wd) => {
                out.put_bool(true);
                wd.encode(&mut out);
            }
            None => out.put_bool(false),
        }
        let Some(tag) = self.kind.engine_tag(self.engine.engine()) else {
            return Err(SessionError::Unsupported(
                "engine has no checkpoint tag for this protocol kind",
            ));
        };
        out.put_u32(tag);
        if !self.engine.encode_payload(&mut out) {
            return Err(SessionError::Unsupported(
                "protocol does not expose checkpointable state",
            ));
        }
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
    /// decode (possible only across incompatible builds).
    pub fn resume(checkpoint: &Checkpoint) -> Result<Self, SessionError> {
        let payload = verify_frame(&checkpoint.words, CheckpointKind::Session)?;
        let mut input = Decoder::new(payload);
        let label = input.take_str()?;
        let kind = ProtocolKind::decode(&mut input)?;
        let options = decode_options(&mut input)?;
        let watchdog = if input.take_bool()? {
            Some(Watchdog::decode(&mut input)?)
        } else {
            None
        };
        let tag = input.take_u32()?;
        let engine = [Engine::Fair, Engine::Window, Engine::Cohort]
            .into_iter()
            .find(|&engine| kind.engine_tag(engine) == Some(tag))
            .ok_or(WireError::Malformed(
                "engine tag does not match the protocol kind",
            ))?;
        // Every engine payload leads with the message count the state is
        // built for, so the decoder reads it and then visits.
        let k = input.take_u64()?;
        let engine = kind.visit(
            k,
            DecodeEngine {
                engine,
                k,
                input: &mut input,
                scenario: &options.adversary,
            },
        )??;
        input.finish()?;
        Ok(Self {
            label,
            kind,
            options,
            engine,
            watchdog,
            kill_at_slot: None,
        })
    }
}

/// Run options travel in the checkpoint so a resume needs nothing but the
/// buffer. The jamming model rides its config-string round trip (the state
/// words capture the dynamic part; [`mac_adversary::AdversaryState::new`]
/// normalises the model, and `Display`/`FromStr` round-trip the normalised
/// form, so the restored cursor semantics match exactly).
fn encode_options(options: &RunOptions, out: &mut Encoder) {
    out.put_u64(options.slot_cap_per_message);
    out.put_u64(options.min_slot_cap);
    out.put_bool(options.record_deliveries);
    out.put_str(&options.adversary.jamming.to_string());
    out.put_f64(options.adversary.feedback.confuse_collision_empty);
    out.put_f64(options.adversary.feedback.miss_delivery);
    out.put_f64(options.merge_tolerance);
    out.put_u64(options.max_live_cohorts);
}

fn decode_options(input: &mut Decoder<'_>) -> Result<RunOptions, WireError> {
    let slot_cap_per_message = input.take_u64()?;
    let min_slot_cap = input.take_u64()?;
    let record_deliveries = input.take_bool()?;
    let jamming = AdversaryModel::from_str(&input.take_str()?)
        .map_err(|_| WireError::Malformed("unparseable jamming model config"))?;
    let confuse_collision_empty = input.take_f64()?;
    let miss_delivery = input.take_f64()?;
    let merge_tolerance = input.take_f64()?;
    let max_live_cohorts = input.take_u64()?;
    Ok(RunOptions {
        slot_cap_per_message,
        min_slot_cap,
        record_deliveries,
        adversary: AdversaryScenario {
            jamming,
            feedback: FeedbackFault {
                confuse_collision_empty,
                miss_delivery,
            },
        },
        merge_tolerance,
        max_live_cohorts,
    })
}

/// Supervision policy of a [`ShardedSession`]: how many times a failed
/// shard is retried from its last good checkpoint before it is
/// quarantined.
///
/// Retries back off deterministically: after its `n`-th failure a shard
/// sits out `2^(n-1)` supervision rounds (capped) before it is retried —
/// a schedule on the driver's round clock, not wall time, so supervised
/// recovery stays bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSupervision {
    /// Failures tolerated per shard before quarantine: the shard is
    /// retried from its last good checkpoint up to this many times, then
    /// frozen (the driver finishes the surviving shards and reports a
    /// partial result naming the quarantined shard).
    pub max_retries: u32,
}

impl ShardSupervision {
    /// A supervision policy quarantining a shard after `max_retries`
    /// failed retries.
    pub fn new(max_retries: u32) -> Self {
        Self { max_retries }
    }
}

impl Default for ShardSupervision {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

/// Per-shard health ledger of a supervised [`ShardedSession`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Cumulative thread failures (panics) of this shard.
    pub failures: u32,
    /// Supervision rounds this shard still sits out before its next retry
    /// (the deterministic backoff clock).
    pub cooldown: u64,
    /// True once the shard exhausted its retries and was frozen at its
    /// last good checkpoint; a quarantined shard never runs again and the
    /// merged result is partial (`completed = false`).
    pub quarantined: bool,
    /// The most recent panic message, when one was captured.
    pub last_panic: Option<String>,
}

/// Extracts a human-readable message from a captured panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// N independent channels driven in parallel: stations are hashed across
/// shards by global arrival index (salted per experiment), each shard runs
/// its own dynamic [`Session`] on a derived RNG stream, and the per-shard
/// latency sketches merge losslessly into fleet-level statistics.
///
/// This models the multi-channel extension the paper's conclusions point
/// at: throughput scales with the channel count while each channel runs
/// the unmodified single-channel protocol.
///
/// The driver is fault-tolerant: shard thread panics are captured and
/// surface as typed [`SessionError::ShardFailed`] errors, or — with
/// [`ShardedSession::set_supervision`] armed — trigger retry from the
/// shard's last good checkpoint with deterministic backoff and, after
/// `max_retries` failures, quarantine (the surviving shards finish and
/// the merged result is partial). See DESIGN.md §10.
///
/// # Example
/// ```
/// use mac_channel::ArrivalModel;
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{RunOptions, ShardedSession};
///
/// let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
/// let model = ArrivalModel::Poisson { rate: 0.05, horizon: 2_000 };
/// let mut driver = ShardedSession::new(&kind, &model, 11, &RunOptions::default(), 4).unwrap();
/// driver.run_to_completion().unwrap();
/// let report = driver.merged_report();
/// assert_eq!(report.delivered, report.messages);
/// ```
#[derive(Debug)]
pub struct ShardedSession {
    label: String,
    shards: Vec<Session>,
    supervision: Option<ShardSupervision>,
    health: Vec<ShardHealth>,
    /// Last checkpoint each shard successfully reached (refreshed before
    /// every supervised round; runtime-only, rebuilt after resume).
    last_good: Vec<Option<Checkpoint>>,
}

impl ShardedSession {
    /// Splits `model`'s arrivals across `shards` channels and builds one
    /// dynamic session per shard.
    ///
    /// Every shard re-derives the same master arrival stream
    /// (`derive_seed(seed, &[ARRIVAL_STREAM])`) and keeps the messages
    /// whose global index hashes to it, so the union over shards is
    /// exactly the single-channel arrival sequence. Shard `i`'s protocol
    /// run is seeded `derive_seed(seed, &[SHARD_STREAM, i])`.
    ///
    /// # Errors
    /// Returns [`SessionError::Unsupported`] for a zero shard count or a
    /// window protocol, and [`SessionError::Parameter`] for invalid
    /// parameters.
    pub fn new(
        kind: &ProtocolKind,
        model: &ArrivalModel,
        seed: u64,
        options: &RunOptions,
        shards: u32,
    ) -> Result<Self, SessionError> {
        Self::with_strategy(kind, model, seed, options, shards, ShardStrategy::Uniform)
    }

    /// [`ShardedSession::new`] with an explicit message→shard assignment
    /// strategy. Skewed strategies ([`ShardStrategy::HotShard`]) model a
    /// hot channel: the union over shards is still exactly the
    /// single-channel arrival sequence — only the per-shard load changes.
    ///
    /// # Errors
    /// As for [`ShardedSession::new`], plus [`SessionError::Unsupported`]
    /// for out-of-range strategy parameters.
    pub fn with_strategy(
        kind: &ProtocolKind,
        model: &ArrivalModel,
        seed: u64,
        options: &RunOptions,
        shards: u32,
        strategy: ShardStrategy,
    ) -> Result<Self, SessionError> {
        if shards == 0 {
            return Err(SessionError::Unsupported("shard count must be positive"));
        }
        if !strategy.is_valid() {
            return Err(SessionError::Unsupported(
                "shard strategy parameters out of range",
            ));
        }
        validate_model(model)?;
        let arrival_seed = derive_seed(seed, &[ARRIVAL_STREAM]);
        let salt = derive_seed(seed, &[SHARD_STREAM]);
        let mut sessions = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let stream = ShardedArrivalStream::with_strategy(
                ArrivalStream::new(model, arrival_seed),
                salt,
                shard,
                shards,
                strategy,
            );
            let run_seed = derive_seed(seed, &[SHARD_STREAM, u64::from(shard)]);
            let session = Session::dynamic_on(
                kind,
                StreamSource::Sharded(stream),
                run_seed,
                options,
                false,
            )?
            .ok_or(SessionError::Unsupported(WINDOW_DYNAMIC))?;
            sessions.push(session);
        }
        let count = sessions.len();
        Ok(Self {
            label: kind.label(),
            shards: sessions,
            supervision: None,
            health: vec![ShardHealth::default(); count],
            last_good: vec![None; count],
        })
    }

    /// The per-shard sessions (shard `i` at index `i`).
    pub fn shards(&self) -> &[Session] {
        &self.shards
    }

    /// Arms supervision (or disarms it with `None`): shard thread panics
    /// are captured and the shard is retried from its last good
    /// checkpoint with deterministic exponential backoff; after
    /// [`ShardSupervision::max_retries`] failures the shard is
    /// quarantined and the driver degrades to a partial result.
    ///
    /// Unsupervised (the default), a shard panic surfaces as a typed
    /// [`SessionError::ShardFailed`] instead of crashing the driver.
    pub fn set_supervision(&mut self, supervision: Option<ShardSupervision>) {
        self.supervision = supervision;
    }

    /// The armed supervision policy, if any.
    pub fn supervision(&self) -> Option<ShardSupervision> {
        self.supervision
    }

    /// The per-shard health ledger (shard `i` at index `i`).
    pub fn health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Indices of quarantined shards (empty unless supervision gave up on
    /// a shard).
    pub fn quarantined_shards(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Arms the livelock watchdog on every shard (see
    /// [`Session::set_watchdog`]).
    pub fn set_watchdog(&mut self, config: Option<StallConfig>) {
        for shard in &mut self.shards {
            shard.set_watchdog(config);
        }
    }

    /// Diagnostics of detected stalls, as `(shard, report)` pairs.
    pub fn stalls(&self) -> Vec<(u32, StallReport)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.stall().map(|r| (i as u32, r.clone())))
            .collect()
    }

    /// **Fault injection** (deterministic chaos testing): arms a kill on
    /// one shard's session — see [`Session::arm_fault_kill`]. The
    /// supervised driver uses this to rehearse panic capture, retry and
    /// quarantine.
    pub fn arm_shard_kill(&mut self, shard: u32, slot: Option<u64>) {
        if let Some(session) = self.shards.get_mut(shard as usize) {
            session.arm_fault_kill(slot);
        }
    }

    /// Advances every runnable shard by (at least) `max_slots` slots, in
    /// parallel on scoped threads (the same std-only pattern as the
    /// experiment runner: no work queue, one thread per runnable shard).
    /// Quarantined shards never run.
    ///
    /// Shard thread panics are captured, never propagated. Unsupervised,
    /// the first panic aborts the call with a typed
    /// [`SessionError::ShardFailed`] (the other shards keep the progress
    /// they made). Supervised ([`ShardedSession::set_supervision`]), the
    /// failed shard is rolled back to its last good checkpoint and
    /// retried after a deterministic backoff of `2^(n-1)` supervision
    /// rounds; after `max_retries` failures it is quarantined — frozen at
    /// its last good state — and the call keeps driving the surviving
    /// shards, so a single bad shard degrades the fleet to a partial
    /// result instead of sinking it.
    ///
    /// # Errors
    /// Propagates the first shard engine error, and shard panics as
    /// [`SessionError::ShardFailed`] when unsupervised.
    pub fn advance(&mut self, max_slots: u64) -> Result<SessionStatus, SessionError> {
        let n = self.shards.len();
        // Shards that already served their budget for *this* call (or
        // need no more driving).
        let mut done = vec![false; n];
        loop {
            let mut any_cooling = false;
            let eligible: Vec<bool> = done
                .iter()
                .zip(&self.health)
                .zip(&self.shards)
                .map(|((&served, health), shard)| {
                    if served || health.quarantined || shard.is_finished() {
                        return false;
                    }
                    if health.cooldown > 0 {
                        any_cooling = true;
                        return false;
                    }
                    true
                })
                .collect();
            if !eligible.contains(&true) {
                if !any_cooling {
                    break;
                }
                // Every runnable shard is benched: tick the backoff clock
                // (deterministic — rounds, not wall time) and re-check.
                for health in &mut self.health {
                    health.cooldown = health.cooldown.saturating_sub(1);
                }
                continue;
            }
            if self.supervision.is_some() {
                // Refresh last-good snapshots so a retry rolls back only
                // the failed round, not the whole call.
                for ((&runnable, snapshot), shard) in eligible
                    .iter()
                    .zip(&mut self.last_good)
                    .zip(&mut self.shards)
                {
                    if runnable {
                        *snapshot = Some(shard.checkpoint()?);
                    }
                }
            }
            let outcomes = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(&eligible)
                    .enumerate()
                    .filter(|(_, (_, &runnable))| runnable)
                    .map(|(i, (shard, _))| (i, scope.spawn(move || shard.advance(max_slots))))
                    .collect();
                handles
                    .into_iter()
                    .map(|(i, handle)| (i, handle.join()))
                    .collect::<Vec<_>>()
            });
            for (i, joined) in outcomes {
                match joined {
                    Ok(result) => {
                        // The shard ran its budget (or stalled/paused per
                        // its own policy); typed errors propagate.
                        result?;
                        if let Some(served) = done.get_mut(i) {
                            *served = true;
                        }
                    }
                    Err(payload) => {
                        let panic = panic_message(payload);
                        let Some(supervision) = self.supervision else {
                            return Err(SessionError::ShardFailed {
                                shard: i as u32,
                                panic,
                            });
                        };
                        // `i` enumerates the shard vector and every
                        // per-shard vector is built with one entry per
                        // shard, with the pre-round snapshot taken for
                        // every runnable shard — so none of these lookups
                        // can miss. If that invariant ever breaks, fail
                        // typed instead of panicking.
                        let (Some(health), Some(last_good), Some(shard), Some(served)) = (
                            self.health.get_mut(i),
                            self.last_good.get(i).and_then(Option::as_ref),
                            self.shards.get_mut(i),
                            done.get_mut(i),
                        ) else {
                            return Err(SessionError::ShardFailed {
                                shard: i as u32,
                                panic,
                            });
                        };
                        health.failures += 1;
                        health.last_panic = Some(panic);
                        *shard = Session::resume(last_good)?;
                        if health.failures > supervision.max_retries {
                            health.quarantined = true;
                            *served = true;
                        } else {
                            health.cooldown = 1u64 << (health.failures - 1).min(16);
                        }
                    }
                }
            }
        }
        Ok(self.status())
    }

    /// Runs every shard to completion (or its cap). Under supervision a
    /// quarantined shard does not block completion — the surviving shards
    /// finish and the merged result is partial.
    ///
    /// # Errors
    /// Propagates the first shard error, if any.
    pub fn run_to_completion(&mut self) -> Result<SessionStatus, SessionError> {
        self.advance(u64::MAX)
    }

    /// [`SessionStatus::Finished`] once every shard finished (quarantined
    /// shards count as terminally finished — frozen at their last good
    /// state).
    pub fn status(&self) -> SessionStatus {
        if self.is_finished() {
            SessionStatus::Finished
        } else {
            SessionStatus::Paused
        }
    }

    /// True once every shard finished or was quarantined.
    pub fn is_finished(&self) -> bool {
        self.shards
            .iter()
            .zip(&self.health)
            .all(|(shard, health)| shard.is_finished() || health.quarantined)
    }

    /// Messages delivered across all shards.
    pub fn delivered(&self) -> u64 {
        self.shards.iter().map(Session::delivered).sum()
    }

    /// Fleet-level latency statistics: the lossless merge of every shard's
    /// streaming sketch (mean/max/count stay exact; the merged quantile
    /// rank-error ledger is the sum of the shards').
    pub fn merged_stats(&self) -> StreamingLatencyStats {
        let mut merged = StreamingLatencyStats::new(0);
        for shard in &self.shards {
            if let Some(stats) = shard.live_stats() {
                merged.merge(stats);
            }
        }
        merged
    }

    /// Fleet-level aggregate result: message/delivery/collision counters
    /// summed over shards, the makespan the maximum over shards (the fleet
    /// finishes when its slowest channel does), `completed` iff every
    /// shard completed.
    pub fn merged_result(&mut self) -> RunResult {
        let label = self.label.clone();
        let mut merged = RunResult {
            protocol: label,
            k: 0,
            seed: 0,
            makespan: 0,
            completed: true,
            delivered: 0,
            collisions: 0,
            silent_slots: 0,
            jammed_deliveries: 0,
            never_activated: 0,
            delivery_slots: None,
        };
        for shard in &mut self.shards {
            let result = shard.result();
            merged.k += result.k;
            merged.makespan = merged.makespan.max(result.makespan);
            merged.completed &= result.completed;
            merged.delivered += result.delivered;
            merged.collisions += result.collisions;
            merged.silent_slots += result.silent_slots;
            merged.jammed_deliveries += result.jammed_deliveries;
            merged.never_activated += result.never_activated;
        }
        merged
    }

    /// Fleet-level latency/throughput report from the merged statistics.
    /// `throughput` is deliveries per fleet-makespan slot — per-channel
    /// throughput times the effective channel parallelism.
    pub fn merged_report(&mut self) -> DynamicReport {
        let result = self.merged_result();
        let stats = self.merged_stats();
        let mut report = DynamicReport::from_streaming(&result, &stats);
        report.stall_detected_at = self
            .shards
            .iter()
            .filter_map(|s| s.stall().map(|r| r.detected_at_slot))
            .min();
        report
    }

    /// Serialises every shard's full state — plus the supervision policy
    /// and per-shard health ledger — into one integrity-framed checkpoint
    /// (each embedded shard checkpoint carries its own frame too).
    ///
    /// # Errors
    /// Same conditions as [`Session::checkpoint`].
    pub fn checkpoint(&self) -> Result<Checkpoint, SessionError> {
        let mut out = open_frame(CheckpointKind::Sharded);
        out.put_str(&self.label);
        match &self.supervision {
            Some(s) => {
                out.put_bool(true);
                out.put_u32(s.max_retries);
            }
            None => out.put_bool(false),
        }
        out.put_usize(self.shards.len());
        for (shard, health) in self.shards.iter().zip(&self.health) {
            out.put_words(&shard.checkpoint()?.words);
            out.put_u32(health.failures);
            out.put_u64(health.cooldown);
            out.put_bool(health.quarantined);
            match &health.last_panic {
                Some(panic) => {
                    out.put_bool(true);
                    out.put_str(panic);
                }
                None => out.put_bool(false),
            }
        }
        Ok(seal_frame(out))
    }

    /// Rebuilds a sharded driver from a [`ShardedSession::checkpoint`].
    /// The frame's integrity is verified before any shard state is
    /// reconstructed.
    ///
    /// # Errors
    /// Returns a typed [`SessionError::Integrity`] on a truncated,
    /// corrupted, version- or kind-mismatched frame, and a
    /// [`SessionError::Wire`] if the verified payload still fails to
    /// decode.
    pub fn resume(checkpoint: &Checkpoint) -> Result<Self, SessionError> {
        let payload = verify_frame(&checkpoint.words, CheckpointKind::Sharded)?;
        let mut input = Decoder::new(payload);
        let label = input.take_str()?;
        let supervision = if input.take_bool()? {
            Some(ShardSupervision {
                max_retries: input.take_u32()?,
            })
        } else {
            None
        };
        let count = input.take_usize()?;
        let mut shards = Vec::with_capacity(count.min(1 << 16));
        let mut health = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let words = input.take_words()?.to_vec();
            shards.push(Session::resume(&Checkpoint { words })?);
            let failures = input.take_u32()?;
            let cooldown = input.take_u64()?;
            let quarantined = input.take_bool()?;
            let last_panic = if input.take_bool()? {
                Some(input.take_str()?)
            } else {
                None
            };
            health.push(ShardHealth {
                failures,
                cooldown,
                quarantined,
                last_panic,
            });
        }
        input.finish()?;
        let last_good = vec![None; shards.len()];
        Ok(Self {
            label,
            shards,
            supervision,
            health,
            last_good,
        })
    }
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

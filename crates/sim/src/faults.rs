//! Deterministic fault injection: crash points and checkpoint corruption —
//! and the chaos harness that proves recovery is bit-identical to the
//! unbroken twin run. Shard kills are armed on the sharded driver itself
//! ([`crate::ShardedSession::arm_shard_kill`]).
//!
//! Every fault a [`FaultPlan`] injects is a pure function of the plan: a
//! crash fires at a named slot, and a corruption draws its byte offset and
//! bit mask from the plan's own derived RNG stream
//! (`derive_seed(plan.seed, &[FAULT_STREAM])` — independent of every
//! simulation stream). Running the same plan twice injects byte-for-byte
//! the same faults, so the chaos suite's central assertion — *recovery is
//! bit-identical to the unbroken twin* — is a deterministic check, not a
//! flaky one.
//!
//! The harness drives a real [`Session`] through a real durable
//! [`CheckpointStore`]: advance in bounded bursts, publish a checkpoint
//! generation after each burst, and at each crash point *drop the live
//! session* (everything since the last published generation is lost,
//! exactly like a process crash), optionally corrupt the newest stored
//! generation (a torn or rotted write), then recover through
//! [`CheckpointStore::load_latest`] — which skips corrupt generations and
//! falls back to the last good one — and resume. See DESIGN.md §10.

use crate::result::{RunOptions, RunResult};
use crate::session::{Session, SessionError, SessionStatus, StallConfig};
use crate::store::{CheckpointStore, StoreError};
use mac_prob::rng::{derive_seed, SplitMix64};
use mac_protocols::ProtocolKind;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed-derivation path tag for fault-injection draws: corruption
/// offsets/masks come from `derive_seed(plan.seed, &[FAULT_STREAM])`, so
/// they never touch a simulation stream.
pub const FAULT_STREAM: u64 = 0xFA17;

/// How a scheduled corruption damages the newest stored checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// XOR one bit of one byte (offset and bit drawn from the fault
    /// stream) — the minimal corruption the integrity digest must catch.
    FlipByte,
    /// Truncate the file to a fault-stream-drawn prefix length — a torn
    /// write that survived a non-atomic save.
    Truncate,
}

/// One scheduled crash: the harness drops the live session once its slot
/// clock reaches `at_slot`, optionally corrupting the newest stored
/// generation before recovering from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Crash as soon as the session's slot clock reaches this value.
    pub at_slot: u64,
    /// Damage to inflict on the newest stored generation before recovery
    /// (`None` models a clean crash: the store is intact, only the live
    /// state since the last save is lost).
    pub corrupt: Option<CorruptionKind>,
}

/// A deterministic fault schedule for one chaos run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream (corruption offsets and masks).
    pub seed: u64,
    /// Slot-indexed crash points (driven in ascending slot order).
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan with no faults (the chaos harness then degenerates to a
    /// checkpoint-every-burst run — useful as a control).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            crashes: Vec::new(),
        }
    }
}

/// Errors surfaced by the chaos harness.
#[derive(Debug)]
pub enum ChaosError {
    /// The session layer failed in a way recovery could not mask.
    Session(SessionError),
    /// The durable store failed.
    Store(StoreError),
    /// Recovery found no usable generation to resume from (every stored
    /// generation was corrupted — more damage than the keep window).
    NoUsableGeneration,
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Session(e) => write!(f, "chaos run session error: {e}"),
            ChaosError::Store(e) => write!(f, "chaos run store error: {e}"),
            ChaosError::NoUsableGeneration => {
                write!(f, "chaos recovery found no usable checkpoint generation")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<SessionError> for ChaosError {
    fn from(e: SessionError) -> Self {
        ChaosError::Session(e)
    }
}

impl From<StoreError> for ChaosError {
    fn from(e: StoreError) -> Self {
        ChaosError::Store(e)
    }
}

/// What a chaos run survived, alongside its final result.
#[derive(Debug)]
pub struct ChaosReport {
    /// Final aggregate result (to compare against the unbroken twin).
    pub result: RunResult,
    /// Median live-stats latency at completion, when stats were attached
    /// (sketches must match the twin bit-for-bit too).
    pub p50_latency: Option<u64>,
    /// Crash points actually fired.
    pub crashes_fired: u64,
    /// Stored generations that failed verification during recoveries and
    /// were skipped in favour of an older good one.
    pub corrupt_generations_skipped: u64,
    /// Slots of work re-executed after recoveries (live progress lost to
    /// a crash and replayed from the last good generation).
    pub slots_replayed: u64,
}

/// Damages the newest stored generation according to `kind`, drawing the
/// offset/mask/length from `rng`. Returns `true` if a file was damaged
/// (a store with no generations is left untouched).
///
/// # Errors
/// Returns [`StoreError::Io`] if the file cannot be read or written.
pub fn corrupt_latest_generation(
    store: &CheckpointStore,
    rng: &mut SplitMix64,
    kind: CorruptionKind,
) -> Result<bool, StoreError> {
    let Some(&latest) = store.generations()?.last() else {
        return Ok(false);
    };
    let path = store.path_for(latest);
    let mut bytes = std::fs::read(&path)?;
    if bytes.is_empty() {
        return Ok(false);
    }
    match kind {
        CorruptionKind::FlipByte => {
            let offset = (rng.next() % bytes.len() as u64) as usize;
            let bit = rng.next() % 8;
            bytes[offset] ^= 1 << bit;
        }
        CorruptionKind::Truncate => {
            let new_len = (rng.next() % bytes.len() as u64) as usize;
            bytes.truncate(new_len);
        }
    }
    std::fs::write(&path, &bytes)?;
    Ok(true)
}

/// Drives a batched session through `plan`'s crash/corruption schedule
/// against a durable store in `store_dir`, recovering after every fault,
/// and returns the final result plus fault accounting. The caller
/// compares [`ChaosReport::result`] (and the sketch) against the unbroken
/// twin — the chaos suite's bit-identity assertion.
///
/// `checkpoint_every` is the burst size between published generations; a
/// `watchdog` is armed on the initial session and travels through every
/// checkpoint/recovery with it.
///
/// # Errors
/// Returns [`ChaosError`] if the session, store, or recovery fails in a
/// way the fault-tolerance layer is *not* expected to mask (e.g. every
/// kept generation corrupted).
#[allow(clippy::too_many_arguments)]
pub fn run_batched_chaos(
    kind: &ProtocolKind,
    k: u64,
    seed: u64,
    options: &RunOptions,
    plan: &FaultPlan,
    store_dir: impl Into<PathBuf>,
    checkpoint_every: u64,
    watchdog: Option<StallConfig>,
) -> Result<ChaosReport, ChaosError> {
    let mut session = Session::batched(kind, k, seed, options)?;
    session.set_watchdog(watchdog);
    let mut store = CheckpointStore::open(store_dir, 3)?;
    let mut fault_rng = SplitMix64::new(derive_seed(plan.seed, &[FAULT_STREAM]));
    let mut crashes: Vec<CrashPoint> = plan.crashes.clone();
    crashes.sort_by_key(|c| c.at_slot);
    let mut crashes = crashes.into_iter().peekable();
    let checkpoint_every = checkpoint_every.max(1);

    let mut crashes_fired = 0u64;
    let mut corrupt_generations_skipped = 0u64;
    let mut slots_replayed = 0u64;
    store.save(&session.checkpoint()?)?;
    while !session.is_finished() {
        // One burst. A stall under the Abort policy propagates as a
        // session error by design.
        let status = session.advance(checkpoint_every)?;
        // A crash due in this burst fires *before* the burst's state is
        // published: the live progress since the last good generation is
        // genuinely lost and must be replayed after recovery.
        if crashes
            .peek()
            .is_some_and(|crash| crash.at_slot <= session.slot())
        {
            let crash = crashes.next().expect("peeked");
            let lost_from = session.slot();
            drop(session); // the live process dies here
            if let Some(kind) = crash.corrupt {
                corrupt_latest_generation(&store, &mut fault_rng, kind)?;
            }
            let outcome = store.load_latest()?;
            corrupt_generations_skipped += outcome.skipped.len() as u64;
            let (_generation, checkpoint) = outcome.loaded.ok_or(ChaosError::NoUsableGeneration)?;
            session = Session::resume(&checkpoint)?;
            crashes_fired += 1;
            slots_replayed += lost_from.saturating_sub(session.slot());
            continue;
        }
        store.save(&session.checkpoint()?)?;
        if status == SessionStatus::Finished {
            break;
        }
    }
    Ok(ChaosReport {
        p50_latency: session.live_stats().map(|s| s.quantile(0.5)),
        result: session.result(),
        crashes_fired,
        corrupt_generations_skipped,
        slots_replayed,
    })
}

/// Monotonic counter making [`scratch_dir`] names unique within a
/// process.
static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory under the system temp dir, unique per
/// process and call — the chaos suite's store directories. The caller
/// owns cleanup (`fs::remove_dir_all`); a leaked scratch dir is harmless.
#[allow(clippy::disallowed_methods)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
    // lint:allow(nondeterminism-bans): chaos-harness plumbing — the temp
    // path decides where checkpoint bytes land on disk, never what they
    // contain; no simulated quantity depends on it.
    std::env::temp_dir().join(format!("mac-sim-{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;

    fn ofa() -> ProtocolKind {
        ProtocolKind::OneFailAdaptive { delta: 2.72 }
    }

    #[test]
    fn faultless_plan_matches_monolithic_run() {
        let dir = scratch_dir("chaos-control");
        let report = run_batched_chaos(
            &ofa(),
            300,
            11,
            &RunOptions::default(),
            &FaultPlan::none(1),
            &dir,
            200,
            None,
        )
        .unwrap();
        assert_eq!(report.crashes_fired, 0);
        assert_eq!(report.result, simulate(&ofa(), 300, 11).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_draws_are_deterministic() {
        let mut a = SplitMix64::new(derive_seed(7, &[FAULT_STREAM]));
        let mut b = SplitMix64::new(derive_seed(7, &[FAULT_STREAM]));
        for _ in 0..32 {
            assert_eq!(a.next(), b.next());
        }
    }
}

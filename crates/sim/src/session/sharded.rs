//! The sharded multi-channel driver: supervision, per-shard health and
//! [`ShardedSession`].

use super::frame::{open_frame, seal_frame, verify_frame};
use super::{
    Checkpoint, CheckpointKind, Session, SessionError, SessionStatus, StallConfig, StreamSource,
    OWES_ANOTHER_COUNT, WINDOW_DYNAMIC,
};
use crate::dynamic::{validate_model, DynamicReport, ARRIVAL_STREAM};
use crate::result::{RunOptions, RunResult};
use mac_channel::{ArrivalModel, ArrivalStream, ShardedArrivalStream};
use mac_prob::rng::derive_seed;
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, WireError};
use mac_protocols::ProtocolKind;

/// Seed-derivation path tag for the sharded driver: shard `i` of a
/// [`ShardedSession`] runs on `derive_seed(seed, &[SHARD_STREAM, i])`, and
/// the station-to-shard hash salt is `derive_seed(seed, &[SHARD_STREAM])`.
pub const SHARD_STREAM: u64 = 0x5AAD;

/// Supervision policy of a [`ShardedSession`]: how many times a failed
/// shard is retried from its last good checkpoint before it is
/// quarantined.
///
/// A failed shard is retried in the driver's next round, in parallel with
/// any other failed shard. Shards are independent, so when a retry runs
/// cannot change a result.
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
/// shard's last good checkpoint in the next round and, after
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
    /// whose global index hashes to it (a uniform salted hash, see
    /// [`mac_channel::ShardedArrivalStream`]), so the union over shards is
    /// exactly the single-channel arrival sequence. One walk of the master
    /// stream counts every shard's messages and finds its last arrival.
    /// Shard `i`'s protocol run is seeded `derive_seed(seed, &[SHARD_STREAM,
    /// i])`.
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
        if shards == 0 {
            return Err(SessionError::Unsupported("shard count must be positive"));
        }
        validate_model(model)?;
        let arrival_seed = derive_seed(seed, &[ARRIVAL_STREAM]);
        let salt = derive_seed(seed, &[SHARD_STREAM]);
        let master = ArrivalStream::new(model, arrival_seed);
        let mut sessions = Vec::with_capacity(shards as usize);
        for (shard, (view, summary)) in (0..).zip(ShardedArrivalStream::fleet(master, salt, shards))
        {
            let run_seed = derive_seed(seed, &[SHARD_STREAM, shard]);
            let session = Session::dynamic_counted(
                kind,
                StreamSource::Sharded(view),
                summary,
                run_seed,
                options,
                false,
            )?
            .ok_or(SessionError::Unsupported(WINDOW_DYNAMIC))?;
            sessions.push(session);
        }
        let count = sessions.len();
        Ok(Self {
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
    /// checkpoint in the next round; after
    /// [`ShardSupervision::max_retries`] failures the shard is quarantined
    /// and the driver degrades to a partial result.
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
    /// retried in the next round; after `max_retries` failures it is
    /// quarantined — frozen at its last good state — and the call keeps
    /// driving the surviving shards, so a single bad shard degrades the
    /// fleet to a partial result instead of sinking it.
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
            let eligible: Vec<bool> = done
                .iter()
                .zip(&self.health)
                .zip(&self.shards)
                .map(|((&served, health), shard)| {
                    !(served || health.quarantined || shard.is_finished())
                })
                .collect();
            if !eligible.contains(&true) {
                break;
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
                        // The shard ran its budget; typed errors, a
                        // stall under the Abort policy among them,
                        // propagate.
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
                        // Within its retries, the restored shard runs
                        // again in the next round.
                        if health.failures > supervision.max_retries {
                            health.quarantined = true;
                            *served = true;
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
    pub fn merged_result(&self) -> RunResult {
        let label = self.shards.first().map(Session::label).unwrap_or_default();
        let mut merged = RunResult {
            protocol: label.to_string(),
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
        for shard in &self.shards {
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
    pub fn merged_report(&self) -> DynamicReport {
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
    /// reconstructed. One walk of the master stream, from the earliest
    /// shard's position, recounts what every shard's stream still owes
    /// ([`ShardedArrivalStream::recount_fleet`]).
    ///
    /// # Errors
    /// Returns a typed [`SessionError::Integrity`] on a truncated,
    /// corrupted, version- or kind-mismatched frame, and a
    /// [`SessionError::Wire`] if the verified payload still fails to
    /// decode or describes a fleet [`ShardedSession::new`] never builds: no
    /// shard, a shard whose arrival view names another index, fleet size
    /// or salt, or that runs another kind or options than the first shard,
    /// a shard whose arrival state is not on the walk of the fleet's master
    /// stream, or a shard whose stream owes another count than its run has
    /// left to deliver.
    pub fn resume(checkpoint: &Checkpoint) -> Result<Self, SessionError> {
        let payload = verify_frame(&checkpoint.words, CheckpointKind::Sharded)?;
        let mut input = Decoder::new(payload);
        let supervision = if input.take_bool()? {
            Some(ShardSupervision {
                max_retries: input.take_u32()?,
            })
        } else {
            None
        };
        let count = input.take_usize()?;
        if count == 0 {
            return Err(WireError::Malformed("a fleet has no shard").into());
        }
        let mut shards = Vec::with_capacity(count.min(1 << 16));
        let mut health = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let words = input.take_words()?.to_vec();
            let shard = Session::decode(&Checkpoint { words })?;
            // Every shard runs the fleet's one kind under its one set of
            // options, as `new` builds it (the fleet's label is its first
            // shard's).
            let first = shards.first().unwrap_or(&shard);
            if first.kind != shard.kind || first.options != shard.options {
                return Err(WireError::Malformed("shard runs another kind or options").into());
            }
            shards.push(shard);
            let failures = input.take_u32()?;
            let quarantined = input.take_bool()?;
            let last_panic = if input.take_bool()? {
                Some(input.take_str()?)
            } else {
                None
            };
            health.push(ShardHealth {
                failures,
                quarantined,
                last_panic,
            });
        }
        input.finish()?;
        // Shard `i` keeps shard `i`'s share of one salted hash of one master
        // stream, and its stream owes what its run has left to deliver past
        // the feed's lookahead burst.
        let (owes, views): (Vec<u64>, Vec<&ShardedArrivalStream>) = shards
            .iter()
            .filter_map(|shard| {
                let feed = shard.engine.feed()?;
                match &feed.source {
                    StreamSource::Sharded(view) => Some((feed.stream_owes(), view)),
                    StreamSource::Plain(_) => None,
                }
            })
            .unzip();
        if views.len() != shards.len() {
            return Err(WireError::Malformed("fleet shard without a shard view").into());
        }
        if ShardedArrivalStream::recount_fleet(&views)? != owes {
            return Err(OWES_ANOTHER_COUNT.into());
        }
        let last_good = vec![None; shards.len()];
        Ok(Self {
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

    /// Recomputes the trailing digest of a frame whose payload was edited.
    fn reseal(words: &mut [u64]) {
        if let Some((digest, payload)) = words.split_last_mut() {
            *digest = mac_prob::wire::digest_words(payload);
        }
    }

    #[test]
    fn fleet_frames_with_a_shard_off_the_master_walk_are_malformed() {
        // A fleet resumes every shard's feed in one walk of the master
        // stream from the earliest shard's state, so a shard whose view sits
        // anywhere else on the master is not one `new` built and `advance`
        // moved. Re-sealed with shard 1's cursor or next master index moved
        // by one, both frames pass their digests.
        let model = ArrivalModel::Poisson {
            rate: 0.3,
            horizon: 3_000,
        };
        let ofa = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let mut fleet = ShardedSession::new(&ofa, &model, 5, &RunOptions::default(), 2).unwrap();
        fleet.advance(700).unwrap();
        let words = fleet.checkpoint().unwrap().words;
        assert!(ShardedSession::resume(&Checkpoint {
            words: words.clone()
        })
        .is_ok());
        let shard = fleet.shards[1].checkpoint().unwrap().words;
        let start = (0..words.len())
            .find(|&i| words[i..].starts_with(&shard))
            .expect("the fleet frame embeds shard 1's frame");
        // The view's words: the master stream's (model, RNG, cursor), then
        // the salt, the shard index, the shard count and the next index.
        let salt = derive_seed(5, &[SHARD_STREAM]);
        let view = (0..shard.len())
            .find(|&i| shard[i..].starts_with(&[salt, 1, 2]))
            .expect("shard 1's frame holds its view");
        for (what, at) in [("cursor", view - 1), ("next index", view + 3)] {
            let mut moved = shard.clone();
            moved[at] += 1;
            reseal(&mut moved);
            let mut frame = words.clone();
            frame[start..start + shard.len()].copy_from_slice(&moved);
            reseal(&mut frame);
            match ShardedSession::resume(&Checkpoint { words: frame }) {
                Err(SessionError::Wire(WireError::Malformed(_))) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_shards_that_disagree_on_kind_or_options_are_malformed() {
        // Shard 1 of a fleet spliced from another fleet on the same seed
        // and arrivals: its view still names index 1 of 2 and the fleet's
        // salt, but it runs another kind, or under another class cap.
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 20), (100, 20)],
        };
        let ofa = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let rp_ofa = ProtocolKind::RandomizedParityOneFail { delta: 2.72 };
        let clean = RunOptions::default();
        let capped = RunOptions {
            max_live_cohorts: 4,
            ..RunOptions::default()
        };
        for (kind, options) in [(&rp_ofa, &clean), (&ofa, &capped)] {
            let mut fleet = ShardedSession::new(&ofa, &model, 5, &clean, 2).unwrap();
            let other = ShardedSession::new(kind, &model, 5, options, 2).unwrap();
            fleet.shards.truncate(1);
            fleet.shards.extend(other.shards.into_iter().skip(1));
            let frame = fleet.checkpoint().unwrap();
            assert!(matches!(
                ShardedSession::resume(&frame),
                Err(SessionError::Wire(WireError::Malformed(_)))
            ));
        }
    }
}

//! Fast simulator for window protocols under batched arrivals.
//!
//! A window protocol has every station pick one uniformly random slot inside
//! each window of a deterministic window-length sequence, transmitting only
//! there, and reacting to nothing but the delivery of its own message. Under
//! a batched arrival all stations share the same window boundaries, so a
//! window of length `w` with `m` still-active stations is exactly a
//! balls-in-bins experiment: the stations whose slot (bin) is chosen by
//! nobody else are delivered (Lemma 1 of the paper analyses this process).
//!
//! The simulator therefore advances window by window, removing the
//! singletons and adding `w` slots to the clock. Within the final window
//! the makespan is the position of the last singleton actually needed,
//! exactly as a per-station simulation would report it.
//!
//! Every window runs through the aggregate slot walk
//! ([`mac_prob::balls::walk_window`]), whose internal dispatch — the
//! certain-collision shortcut, the conditional-binomial block resolver for
//! low loads, the per-slot mode-anchored loop for high loads, the sparse
//! per-ball tail — depends only on the window's load `(m, w)` (see
//! `DESIGN.md` §7). Both entry points reuse one per-run
//! [`WalkScratch`], so steady-state windows
//! perform **zero heap allocations**:
//!
//! * [`mac_prob::balls::walk_window_counts`] returns counts only — the
//!   path of a clean run that records nothing per delivery;
//! * [`mac_prob::balls::walk_window`] additionally hands back the ascending
//!   singleton positions, RNG-stream-identical to the counts-only walk. It
//!   runs when an adversary is active (a jammed singleton is a forced
//!   zero-delivery slot whose station stays in the game), when per-delivery
//!   slots are recorded, or when a session streams latency statistics.
//!
//! The loop state lives in one core, `WindowEngineCore`, which the monolithic
//! runner drives to completion in one call and the streaming session layer
//! (`crate::session`) drives window by window with checkpoints in between —
//! one loop body, so checkpointed runs are bit-identical to unbroken ones
//! by construction. A session checkpoint captures the schedule's state
//! words, the RNG and the adversary's dynamic state verbatim; the walk
//! scratch is pure buffers and is rebuilt empty on resume.
//!
//! See `crates/sim/DESIGN.md` for the scratch-buffer contract, the
//! exactness-in-distribution argument (§2, §5 for what the walk changes),
//! and the adversary integration contract (§4).

use crate::aggregate::{decode_optional_slots, encode_optional_slots};
use crate::result::{RunOptions, RunResult, MAX_PREALLOC_ENTRIES};
use crate::session::{Engine, SessionEngine};
use mac_adversary::{AdversaryScenario, AdversaryState, SlotClass, ADVERSARY_STREAM};
use mac_prob::balls::{walk_window, walk_window_counts, WalkScratch};
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::{ParameterError, ProtocolFamily, ProtocolKind, WindowSchedule};
use rand::SeedableRng;

/// Fast simulator for window protocols (Exp Back-on/Back-off, Loglog-iterated
/// Back-off, r-exponential back-off) on a batched instance.
///
/// # Example
/// ```
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{WindowSimulator, RunOptions};
///
/// let sim = WindowSimulator::new(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, RunOptions::default());
/// let result = sim.run(500, 1).unwrap();
/// assert!(result.completed);
/// assert_eq!(result.delivered, 500);
/// // Theorem 2's bound is 4(1+1/δ) ≈ 14.9 slots per message; observed ratios
/// // in the paper oscillate between 4 and 8.
/// assert!(result.ratio() < 14.9);
/// ```
#[derive(Debug, Clone)]
pub struct WindowSimulator {
    kind: ProtocolKind,
    options: RunOptions,
}

impl WindowSimulator {
    /// Creates a simulator for the given protocol kind.
    pub fn new(kind: ProtocolKind, options: RunOptions) -> Self {
        Self { kind, options }
    }

    /// Runs one batched instance with `k` messages.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid or
    /// the kind is not a window protocol.
    pub fn run(&self, k: u64, seed: u64) -> Result<RunResult, ParameterError> {
        self.run_inner(k, seed, None)
    }

    /// Runs one batched instance and additionally records the slot index of
    /// every jammed singleton (the adversary's *effective* jams).
    ///
    /// The returned slot list, replayed as an
    /// [`mac_adversary::AdversaryModel::ScheduledJam`] on the same seed,
    /// reproduces this run bit-identically: deterministic jam models consume
    /// no randomness from either stream, and jamming already-contended bins
    /// is observably inert. The strategy search uses this to turn a searched
    /// incumbent into a replayable certificate.
    ///
    /// # Errors
    /// Same conditions as [`WindowSimulator::run`].
    pub fn run_logging_jams(
        &self,
        k: u64,
        seed: u64,
    ) -> Result<(RunResult, Vec<u64>), ParameterError> {
        let mut log = Vec::new();
        let result = self.run_inner(k, seed, Some(&mut log))?;
        Ok((result, log))
    }

    fn run_inner(
        &self,
        k: u64,
        seed: u64,
        jam_log: Option<&mut Vec<u64>>,
    ) -> Result<RunResult, ParameterError> {
        if self.kind.family() != ProtocolFamily::Window {
            return Err(ParameterError::new(
                "protocol",
                f64::NAN,
                "WindowSimulator requires a window protocol kind; fair kinds run on FairSimulator",
            ));
        }
        crate::run_fast(&self.kind, k, seed, &self.options, jam_log)
    }
}

/// The complete loop state of one window-protocol run, advanceable in
/// bounded slot bursts. Windows are atomic: a budget is a *minimum* — the
/// window in flight when it runs out is always finished, so the executed
/// count can overshoot by up to one window length.
#[derive(Debug)]
pub(crate) struct WindowEngineCore<S> {
    schedule: S,
    k: u64,
    seed: u64,
    max_slots: u64,
    remaining: u64,
    elapsed: u64,
    makespan: u64,
    collisions: u64,
    silent: u64,
    jammed_deliveries: u64,
    adversary: AdversaryState,
    adversarial: bool,
    walk_scratch: WalkScratch,
    rng: Xoshiro256pp,
    delivery_slots: Option<Vec<u64>>,
    stats: Option<StreamingLatencyStats>,
}

impl<S: WindowSchedule> WindowEngineCore<S> {
    /// Builds the initial loop state — bit-identical to the state the
    /// monolithic runner entered its loop with.
    pub(crate) fn new(schedule: S, k: u64, seed: u64, options: &RunOptions) -> Self {
        let max_slots = options.max_slots(k);
        // The adversary draws from its own derived stream and the detailed
        // occupancy path consumes the protocol RNG identically to the
        // counts-only one, so a clean scenario leaves the run bit-identical
        // to the pre-adversary simulator.
        let adversary = options
            .adversary
            .state(derive_seed(seed, &[ADVERSARY_STREAM]));
        // Only *jamming* can touch a window protocol: stations react to
        // nothing but their own (reliable) acknowledgement, so feedback
        // faults are a strict no-op here and must not push the run off the
        // counts-only fast path.
        let adversarial = !options.adversary.jamming.is_none();
        let delivery_slots = options
            .record_deliveries
            .then(|| Vec::with_capacity(k.min(MAX_PREALLOC_ENTRIES) as usize));
        Self {
            schedule,
            k,
            seed,
            max_slots,
            remaining: k,
            elapsed: 0,
            makespan: 0,
            collisions: 0,
            silent: 0,
            jammed_deliveries: 0,
            adversary,
            adversarial,
            // All per-window state lives in buffers reused across windows
            // (the walk scratch grows its singleton list and block-resolver
            // buffers to their high-water marks); the buffers are pure
            // scratch, so a resumed run rebuilding them empty stays
            // bit-identical.
            walk_scratch: WalkScratch::new(),
            // lint:allow(rng-stream-discipline): the protocol stream IS the
            // raw run seed — the contract every committed BENCH_*.json and
            // certificate replays against; rerouting through derive_seed
            // would invalidate all of them.
            rng: Xoshiro256pp::seed_from_u64(seed),
            delivery_slots,
            stats: None,
        }
    }

    /// Attaches a streaming latency accumulator: every delivery pushes its
    /// slot index (= latency for batched arrivals). Routes windows through
    /// the detailed walk, which is RNG-stream-identical to the counts-only
    /// one, so the trajectory is unchanged.
    pub(crate) fn set_streaming_stats(&mut self, stats: StreamingLatencyStats) {
        self.stats = Some(stats);
    }

    /// Advances whole windows until at least `budget` slots have elapsed
    /// (or the run finishes) and returns the number of slots executed.
    pub(crate) fn advance(&mut self, budget: u64, mut jam_log: Option<&mut Vec<u64>>) -> u64 {
        let start = self.elapsed;
        while self.remaining > 0 && self.elapsed < self.max_slots && self.elapsed - start < budget {
            let w = self.schedule.next_window();
            // Every window runs through the aggregate slot walk
            // (`mac_prob::balls::walk_window`), whose internal dispatch —
            // certain-collision shortcut, conditional-binomial block
            // decomposition for low loads, the per-slot mode-anchored loop
            // for high loads, the sparse per-ball tail — was re-derived
            // from measured crossover points at k = 10⁷ (see `DESIGN.md`
            // §7): with the block resolver running the dense per-ball
            // machinery against L1-resident counter windows, the walk now
            // matches or beats the flat per-ball path at every (m, w). The
            // dispatch depends only on (m, w), never on the adversary, so a
            // configured-but-inert adversary stays bit-identical to a
            // clean run; the detailed walk (ascending singleton list) is
            // RNG-stream-identical to the counts-only walk, so
            // recording/jamming does not perturb a seeded trajectory
            // either.
            let detailed =
                self.adversarial || self.delivery_slots.is_some() || self.stats.is_some();
            let (delivered_in_window, last_delivered, empty_bins, colliding_bins, max_occupied) =
                if detailed {
                    let occupancy =
                        walk_window(self.remaining, w, &mut self.rng, &mut self.walk_scratch);
                    let mut delivered: u64 = 0;
                    let mut last: Option<u64> = None;
                    let mut jammed_singletons: u64 = 0;
                    // Singleton bins are ascending, satisfying the
                    // adversary's slot-order contract.
                    for &bin in self.walk_scratch.singleton_bins() {
                        if self.adversarial
                            && self
                                .adversary
                                .jams_slot(self.elapsed + bin, SlotClass::Single)
                        {
                            jammed_singletons += 1;
                            if let Some(log) = jam_log.as_deref_mut() {
                                log.push(self.elapsed + bin);
                            }
                        } else {
                            delivered += 1;
                            last = Some(bin);
                            if let Some(slots) = self.delivery_slots.as_mut() {
                                slots.push(self.elapsed + bin);
                            }
                            if let Some(stats) = self.stats.as_mut() {
                                stats.push(self.elapsed + bin);
                            }
                        }
                    }
                    if self.adversarial {
                        // Already-contended slots: only a reactive jammer's
                        // budget can change, never the outcome.
                        self.adversary.jam_contended_bulk(occupancy.colliding_bins);
                    }
                    self.collisions += jammed_singletons;
                    self.jammed_deliveries += jammed_singletons;
                    (
                        delivered,
                        last,
                        occupancy.empty_bins,
                        occupancy.colliding_bins,
                        occupancy.max_occupied_bin,
                    )
                } else {
                    let occupancy = walk_window_counts(
                        self.remaining,
                        w,
                        &mut self.rng,
                        &mut self.walk_scratch,
                    );
                    (
                        occupancy.singletons,
                        occupancy.max_occupied_bin,
                        occupancy.empty_bins,
                        occupancy.colliding_bins,
                        occupancy.max_occupied_bin,
                    )
                };
            self.collisions += colliding_bins;
            // Empty bins of a *fully used* window count as silent slots; for
            // the final window only the prefix up to the last needed
            // delivery counts.
            self.remaining -= delivered_in_window;
            if self.remaining == 0 {
                // Every ball of this window landed alone and unjammed (a
                // collision or a jammed singleton would leave its station
                // active), so the last delivery happens at the largest
                // occupied bin; slots after it are not part of the makespan.
                let last =
                    last_delivered.expect("remaining hit zero, so this window delivered something");
                debug_assert_eq!(colliding_bins, 0);
                debug_assert_eq!(max_occupied, Some(last));
                self.makespan = self.elapsed + last + 1;
                self.silent += (last + 1) - delivered_in_window;
                self.elapsed = self.makespan;
            } else {
                self.silent += empty_bins;
                self.elapsed += w;
                self.makespan = self.elapsed.min(self.max_slots);
            }
        }
        self.elapsed - start
    }

    /// Serialises the full loop state (`false` if the schedule does not
    /// support state extraction).
    pub(crate) fn encode(&self, out: &mut Encoder) -> bool {
        let Some(schedule_words) = self.schedule.checkpoint_words() else {
            return false;
        };
        out.put_u64(self.k);
        out.put_u64(self.seed);
        out.put_u64(self.max_slots);
        out.put_u64(self.remaining);
        out.put_u64(self.elapsed);
        out.put_u64(self.makespan);
        out.put_u64(self.collisions);
        out.put_u64(self.silent);
        out.put_u64(self.jammed_deliveries);
        out.put_words(&schedule_words);
        for w in self.rng.state_words() {
            out.put_u64(w);
        }
        for w in self.adversary.state_words() {
            out.put_u64(w);
        }
        encode_optional_slots(self.delivery_slots.as_deref(), out);
        match &self.stats {
            Some(stats) => {
                out.put_bool(true);
                stats.encode(out);
            }
            None => out.put_bool(false),
        }
        true
    }

    /// Rebuilds a core from [`WindowEngineCore::encode`]d words whose
    /// leading `k` the caller has already read. `schedule` is a freshly
    /// constructed schedule of the run's kind (its incremental state is
    /// overwritten verbatim), and `scenario` must be the run's original
    /// adversary configuration.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        k: u64,
        mut schedule: S,
        scenario: &AdversaryScenario,
    ) -> Result<Self, WireError> {
        let seed = input.take_u64()?;
        let max_slots = input.take_u64()?;
        let remaining = input.take_u64()?;
        let elapsed = input.take_u64()?;
        let makespan = input.take_u64()?;
        let collisions = input.take_u64()?;
        let silent = input.take_u64()?;
        let jammed_deliveries = input.take_u64()?;
        let schedule_words = input.take_words()?;
        let mut rng_words = [0u64; 4];
        for w in &mut rng_words {
            *w = input.take_u64()?;
        }
        let mut adversary_words = [0u64; 6];
        for w in &mut adversary_words {
            *w = input.take_u64()?;
        }
        let delivery_slots = decode_optional_slots(input)?;
        let stats = if input.take_bool()? {
            Some(StreamingLatencyStats::decode(input)?)
        } else {
            None
        };
        if !schedule.restore_words(schedule_words) {
            return Err(WireError::Malformed("schedule state words rejected"));
        }
        let mut adversary = scenario.state(0);
        if !adversary.restore_state_words(&adversary_words) {
            return Err(WireError::Malformed("adversary state words rejected"));
        }
        let adversarial = !scenario.jamming.is_none();
        Ok(Self {
            schedule,
            k,
            seed,
            max_slots,
            remaining,
            elapsed,
            makespan,
            collisions,
            silent,
            jammed_deliveries,
            adversary,
            adversarial,
            walk_scratch: WalkScratch::new(),
            rng: Xoshiro256pp::from_state_words(rng_words),
            delivery_slots,
            stats,
        })
    }
}

impl<S: WindowSchedule + 'static> SessionEngine for WindowEngineCore<S> {
    fn engine(&self) -> Engine {
        Engine::Window
    }
    fn advance(&mut self, max_slots: u64) {
        self.advance(max_slots, None);
    }
    fn slot(&self) -> u64 {
        self.elapsed
    }
    fn delivered(&self) -> u64 {
        self.k - self.remaining
    }
    fn remaining(&self) -> u64 {
        self.remaining
    }
    /// Batched runs activate every station at slot 0, so the backlog
    /// equals `remaining`.
    fn backlog(&self) -> u64 {
        self.remaining
    }
    fn is_finished(&self) -> bool {
        self.remaining == 0 || self.elapsed >= self.max_slots
    }
    fn streaming_stats(&self) -> Option<&StreamingLatencyStats> {
        self.stats.as_ref()
    }
    /// The run's aggregate result (capped-run convention before
    /// completion), with the delivery slots in slot order.
    fn result(&self, label: &str) -> RunResult {
        let completed = self.remaining == 0;
        let delivery_slots = self.delivery_slots.as_ref().map(|slots| {
            let mut slots = slots.clone();
            slots.sort_unstable();
            slots.truncate((self.k - self.remaining) as usize);
            slots
        });
        RunResult {
            protocol: label.to_string(),
            k: self.k,
            seed: self.seed,
            makespan: if completed {
                self.makespan
            } else {
                self.max_slots
            },
            completed,
            delivered: self.k - self.remaining,
            collisions: self.collisions,
            silent_slots: self.silent,
            jammed_deliveries: self.jammed_deliveries,
            never_activated: 0,
            delivery_slots,
        }
    }
    fn encode_payload(&self, out: &mut Encoder) -> bool {
        self.encode(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_prob::stats::StreamingStats;

    fn run(kind: ProtocolKind, k: u64, seed: u64) -> RunResult {
        WindowSimulator::new(kind, RunOptions::default())
            .run(k, seed)
            .unwrap()
    }

    #[test]
    fn empty_instance_completes_immediately() {
        let r = run(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, 0, 1);
        assert!(r.completed);
        assert_eq!(r.makespan, 0);
    }

    #[test]
    fn single_message_delivers_in_first_window() {
        let r = run(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, 1, 2);
        assert!(r.completed);
        // The first window has 2 slots; a lone station is always a singleton.
        assert!(r.makespan <= 2);
    }

    #[test]
    fn all_window_protocols_deliver_everything() {
        let kinds = [
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
            ProtocolKind::RExponentialBackoff { r: 2.0 },
        ];
        for kind in kinds {
            for &k in &[10u64, 100, 1_000] {
                let r = run(kind.clone(), k, k + 1);
                assert!(r.completed, "{} k={k}", kind.label());
                assert_eq!(r.delivered, k);
                assert!(r.makespan >= k);
            }
        }
    }

    #[test]
    fn ebb_ratio_stays_under_theorem2_bound_and_paper_range() {
        let mut stats = StreamingStats::new();
        for seed in 0..10 {
            let r = run(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, 5_000, seed);
            assert!(r.completed);
            stats.push(r.ratio());
        }
        // Theorem 2 bound: 14.9; the paper observes ratios between 4 and 8.
        assert!(stats.max() < 14.9, "max ratio {}", stats.max());
        assert!(
            stats.mean() > 3.0 && stats.mean() < 9.0,
            "mean ratio {}",
            stats.mean()
        );
    }

    #[test]
    fn llib_is_slower_than_ebb_on_average() {
        let mut ebb = StreamingStats::new();
        let mut llib = StreamingStats::new();
        for seed in 0..8 {
            ebb.push(run(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, 2_000, seed).ratio());
            llib.push(run(ProtocolKind::LoglogIteratedBackoff { r: 2.0 }, 2_000, seed).ratio());
        }
        assert!(
            llib.mean() > ebb.mean(),
            "paper finding: LLIB (≈10 slots/msg) is slower than EBB (4–8): {} vs {}",
            llib.mean(),
            ebb.mean()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let kind = ProtocolKind::LoglogIteratedBackoff { r: 2.0 };
        let a = run(kind.clone(), 400, 11);
        let b = run(kind, 400, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_fair_protocols() {
        let sim = WindowSimulator::new(
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            RunOptions::default(),
        );
        assert!(sim.run(10, 0).is_err());
    }

    #[test]
    fn delivery_slots_are_recorded_and_bounded_by_makespan() {
        let sim = WindowSimulator::new(
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            RunOptions::recording_deliveries(),
        );
        let r = sim.run(200, 9).unwrap();
        let slots = r.delivery_slots.clone().expect("recording requested");
        assert_eq!(slots.len(), 200);
        assert!(slots.iter().all(|&s| s < r.makespan));
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn incomplete_run_reported_with_tiny_cap() {
        let options = RunOptions {
            slot_cap_per_message: 1,
            min_slot_cap: 4,
            ..RunOptions::default()
        };
        let sim = WindowSimulator::new(ProtocolKind::RExponentialBackoff { r: 2.0 }, options);
        let r = sim.run(1_000, 5).unwrap();
        assert!(!r.completed);
        assert!(r.delivered < 1_000);
    }

    #[test]
    fn bounded_advance_matches_single_shot_run() {
        // Driving the core in small bursts must land on the same result as
        // one uninterrupted advance — the session layer depends on it.
        let kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
        let options = RunOptions::default();
        let single = run(kind.clone(), 800, 21);
        let schedule = mac_protocols::ExpBackonBackoff::try_new(0.366).unwrap();
        let mut core = WindowEngineCore::new(schedule, 800, 21, &options);
        while !core.is_finished() {
            core.advance(64, None);
        }
        assert_eq!(core.result(&kind.label()), single);
    }
}

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
//! singletons and adding `w` slots to the clock. The final window only
//! advances the clock through its last singleton, so the makespan, read
//! off the clock, is the slot after the last delivery, exactly as a
//! per-station simulation would report it.
//!
//! Every window runs through the aggregate slot walk
//! ([`mac_prob::balls::walk_window`]), whose internal dispatch — the
//! certain-collision shortcut, conditional-binomial blocks for low loads,
//! the per-slot mode-anchored loop for high loads, and one per-ball
//! resolver finishing the blocks and the sparse tail — depends only on the
//! window's load `(m, w)` (see `DESIGN.md` §7). Both entry points reuse one
//! per-run [`WalkScratch`], so steady-state windows perform **zero heap
//! allocations**:
//!
//! * [`mac_prob::balls::walk_window_counts`] returns counts only — the
//!   path of a clean run that records nothing per delivery;
//! * [`mac_prob::balls::walk_window`] additionally hands back the ascending
//!   singleton positions, RNG-stream-identical to the counts-only walk
//!   (`mac-prob`'s property tests pin this per seed). It runs when an
//!   adversary is active (a jammed singleton is a forced zero-delivery slot
//!   whose station stays in the game), when per-delivery slots are
//!   recorded, or when a session streams latency statistics.
//!
//! The loop state lives in one core, `WindowEngineCore`: the schedule and
//! the walk scratch, beside the run accounting every fast core shares
//! (counts, clock, RNG, adversary, latency record, delivery slots). The
//! monolithic runner drives it to completion in one call and the
//! streaming session layer (`crate::session`) drives it window by window
//! with checkpoints in between — one loop body, so checkpointed runs are
//! bit-identical to unbroken ones by construction. A session checkpoint
//! captures the schedule's state words, the RNG and the adversary's
//! dynamic state verbatim; the walk scratch is pure buffers and is rebuilt
//! empty on resume.
//!
//! See `crates/sim/DESIGN.md` for the scratch-buffer contract, the
//! exactness-in-distribution argument (§2, §5 for what the walk changes),
//! and the adversary integration contract (§4).

use crate::result::{RunOptions, RunResult};
use crate::run_state::{LatencyRecorder, RunState};
use crate::session::SessionEngine;
use mac_adversary::{AdversaryScenario, SlotClass};
use mac_prob::balls::{walk_window, walk_window_counts, WalkScratch};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::{ParameterError, ProtocolFamily, ProtocolKind, WindowSchedule};

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
    run: RunState,
    schedule: S,
    adversarial: bool,
    walk_scratch: WalkScratch,
}

impl<S: WindowSchedule> WindowEngineCore<S> {
    /// Builds the initial loop state — bit-identical to the state the
    /// monolithic runner entered its loop with. `stats`, when given,
    /// receives every delivery's slot index (= latency for batched
    /// arrivals); the run state records the delivery slots when `options`
    /// asks for them.
    pub(crate) fn new(
        schedule: S,
        k: u64,
        seed: u64,
        options: &RunOptions,
        stats: Option<StreamingLatencyStats>,
    ) -> Self {
        let latencies = LatencyRecorder::new(k, false, stats);
        Self {
            run: RunState::new(k, seed, options.max_slots(k), options, latencies),
            schedule,
            // Only *jamming* can touch a window protocol: stations react to
            // nothing but their own (reliable) acknowledgement, so feedback
            // faults are a strict no-op here and must not push the run off
            // the counts-only fast path.
            adversarial: !options.adversary.jamming.is_none(),
            // All per-window state lives in buffers reused across windows
            // (the walk scratch grows its singleton list and its per-ball
            // resolver's counter window and draw list to their high-water
            // marks); the buffers are pure scratch, so a resumed run
            // rebuilding them empty stays bit-identical.
            walk_scratch: WalkScratch::new(),
        }
    }

    /// Rebuilds a core from [`SessionEngine::encode`]d words around its
    /// decoded run state `run`. `schedule` is a freshly constructed schedule
    /// of the run's kind (its incremental state is overwritten verbatim),
    /// and `scenario` must be the run's original adversary configuration.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        run: RunState,
        mut schedule: S,
        scenario: &AdversaryScenario,
    ) -> Result<Self, WireError> {
        if !schedule.restore_words(input.take_words()?) {
            return Err(WireError::Malformed("schedule state words rejected"));
        }
        Ok(Self {
            run,
            schedule,
            adversarial: !scenario.jamming.is_none(),
            walk_scratch: WalkScratch::new(),
        })
    }
}

impl<S: WindowSchedule + 'static> SessionEngine for WindowEngineCore<S> {
    fn run_state(&self) -> &RunState {
        &self.run
    }
    /// Advances whole windows until at least `budget` slots have elapsed
    /// (or the run finishes).
    fn advance(&mut self, budget: u64, mut jam_log: Option<&mut Vec<u64>>) {
        let run = &mut self.run;
        let start = run.slot;
        while run.remaining > 0 && run.slot < run.max_slots && run.slot - start < budget {
            let w = self.schedule.next_window();
            // Every window runs through the aggregate slot walk
            // (`mac_prob::balls::walk_window`), whose internal dispatch —
            // certain-collision shortcut, conditional-binomial block
            // decomposition for low loads, the per-slot mode-anchored loop
            // for high loads, the sparse per-ball tail — was re-derived
            // from measured crossover points at k = 10⁷ (see `DESIGN.md`
            // §7): with blocks resolved per ball against L1-resident
            // counter windows, the walk matches or beats a flat per-ball
            // throw at every (m, w). The dispatch depends only on (m, w),
            // never on the adversary, so a configured-but-inert adversary
            // stays bit-identical to a clean run; the detailed walk
            // (ascending singleton list) is RNG-stream-identical to the
            // counts-only walk, so recording/jamming does not perturb a
            // seeded trajectory either.
            let detailed = self.adversarial
                || run.delivery_slots.is_some()
                || run.latencies.streaming.is_some();
            let (delivered_in_window, last_delivered, colliding_bins, max_occupied) = if detailed {
                let occupancy = walk_window(run.remaining, w, &mut run.rng, &mut self.walk_scratch);
                let mut delivered: u64 = 0;
                let mut last: Option<u64> = None;
                let mut jammed_singletons: u64 = 0;
                // Singleton bins are ascending, satisfying the
                // adversary's slot-order contract — and keeping the
                // recorded delivery slots in slot order.
                for &bin in self.walk_scratch.singleton_bins() {
                    if self.adversarial
                        && run.adversary.jams_slot(run.slot + bin, SlotClass::Single)
                    {
                        jammed_singletons += 1;
                        if let Some(log) = jam_log.as_deref_mut() {
                            log.push(run.slot + bin);
                        }
                    } else {
                        delivered += 1;
                        last = Some(bin);
                        // A batched message's latency is its delivery
                        // slot.
                        run.record(run.slot + bin, run.slot + bin);
                    }
                }
                if self.adversarial {
                    // Already-contended slots: only a reactive jammer's
                    // budget can change, never the outcome.
                    run.adversary.jam_contended_bulk(occupancy.colliding_bins);
                }
                run.collisions += jammed_singletons;
                run.jammed_deliveries += jammed_singletons;
                (
                    delivered,
                    last,
                    occupancy.colliding_bins,
                    occupancy.max_occupied_bin,
                )
            } else {
                let occupancy =
                    walk_window_counts(run.remaining, w, &mut run.rng, &mut self.walk_scratch);
                (
                    occupancy.singletons,
                    occupancy.max_occupied_bin,
                    occupancy.colliding_bins,
                    occupancy.max_occupied_bin,
                )
            };
            run.collisions += colliding_bins;
            // The empty bins are silent slots, which the clock counts; the
            // final window ends at its last needed delivery.
            run.remaining -= delivered_in_window;
            if run.remaining == 0 {
                // Every ball of this window landed alone and unjammed (a
                // collision or a jammed singleton would leave its station
                // active), so the last delivery happens at the largest
                // occupied bin; slots after it are not part of the makespan.
                let last =
                    last_delivered.expect("remaining hit zero, so this window delivered something");
                debug_assert_eq!(colliding_bins, 0);
                debug_assert_eq!(max_occupied, Some(last));
                run.slot += last + 1;
            } else {
                run.slot += w;
            }
        }
    }
    /// Batched runs activate every station at slot 0, so the backlog
    /// equals `remaining`.
    fn backlog(&self) -> u64 {
        self.run.remaining
    }
    /// The run's aggregate result (capped-run convention before
    /// completion), with the delivery slots in slot order: windows are
    /// walked in order and each one's singleton bins ascend.
    fn result(&self, label: &str) -> RunResult {
        self.run.result(label, self.run.max_slots, 0)
    }
    /// Writes the schedule's state words.
    fn encode(&self, out: &mut Encoder) {
        out.put_words(&self.schedule.checkpoint_words());
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
        let mut core = WindowEngineCore::new(schedule, 800, 21, &options, None);
        while !core.run.is_finished() {
            core.advance(64, None);
        }
        assert_eq!(core.result(&kind.label()), single);
    }
}

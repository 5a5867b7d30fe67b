//! The cohort engine: fast simulation of **every fair-protocol run**,
//! batched or under dynamic arrivals.
//!
//! A fair protocol puts every active station on one common probability as
//! long as they share their protocol state. Stations that arrive in the
//! same slot start in identical state and observe identical public
//! feedback, so they stay in lockstep forever: the population is a set of
//! *cohorts*, each internally homogeneous, one per arrival burst. A
//! batched instance is the special case of one cohort that arrives at slot
//! 0 ([`crate::FairSimulator`], [`crate::Session::batched`]). This engine
//! resolves each slot over the cohort decomposition with the
//! sum-of-binomials kernel of [`mac_prob::cohort`]:
//!
//! * a slot costs **O(active cohorts)** arithmetic and at most one uniform
//!   draw, instead of the exact simulator's O(active stations) — the
//!   structural win for bursty and clumped arrivals, where cohorts hold
//!   many stations each;
//! * while **exactly one cohort** is live (a whole batched run, and the
//!   quiet stretches of a dynamic one), a *single-cohort stretch* runs the
//!   slots up to the next arrival, the budget end or the slot cap on that
//!   cohort's own kernel line: O(1) per slot, usually a handful of
//!   arithmetic operations and no transcendental, with the kernel's one-
//!   cohort arithmetic, so it is stream-identical to the per-slot path
//!   (`DESIGN.md` §6);
//! * a single *dead* cohort (`P(T_i ≤ 1) = 0` at `f64` resolution, e.g. a
//!   large backlogged burst at an AT-scale probability) makes the slot a
//!   certain collision with **no draw at all**: in a `k = 10⁶` One-fail
//!   Adaptive run, half of all slots (the BT parity) are dead for 98% of
//!   the run;
//! * stretches with **no active station** are fast-forwarded to the next
//!   arrival in O(1) (they are silent by definition, and the adversary is
//!   only ever consulted about busy slots);
//! * cohorts whose probability schedules have **converged** are merged (see
//!   below), bounding the cohort count in long drain phases.
//!
//! Adversaries hook in per busy slot: jamming needs only the slot class
//! ([`SlotClass::Single`] / contended), which the classification provides,
//! and the missed-delivery fault consults only the adversary's own RNG
//! stream. The slot of every effective jam can be logged for the strategy
//! search's certificates ([`crate::FairSimulator::run_logging_jams`]).
//!
//! ## Merging
//!
//! Two cohorts are merged when they sit at the same
//! [`mac_protocols::FairProtocol::schedule_phase`] and *both* of their
//! cached probability tracks are bit-equal, which for the paper's fair
//! protocols pins the underlying states exactly (the track probabilities
//! are injective in the state given the phase), so merging introduces **no
//! approximation** — such merges fire in practice because estimator floors
//! and delivery-free stretches genuinely collapse states. See `DESIGN.md`
//! §6 for the contract.
//!
//! In bounded-class mode ([`RunOptions::max_live_cohorts`]) an arrival
//! that pushes the live count over the cap forces merges of the nearest
//! same-phase classes (`DESIGN.md` §12.1). The periodic scan and the cap
//! enforcement share one merge scratch in the core: each scan, and each
//! enforcement round, keys and sorts the live classes once and allocates
//! no working memory.
//!
//! ## Resumable core
//!
//! The loop state lives in one core, `CohortEngineCore`, and every fair
//! run is a session over it: arrivals come from the session's lazy
//! [`mac_channel::ArrivalStream`] feed (one [`ArrivalModel::Batched`]
//! burst for a batched run), latencies go to an exact vector
//! ([`CohortSimulator`], `simulate_dynamic`), a bounded-memory
//! [`StreamingLatencyStats`](mac_prob::sketch::StreamingLatencyStats)
//! sketch ([`crate::Session::dynamic`], [`crate::Session::batched`]) or
//! nowhere ([`crate::FairSimulator`]), and `advance(budget)` is the only
//! loop body — so a checkpointed run is bit-identical to an unbroken one by
//! construction. The core keeps the cohorts, their kernel and the merge
//! machinery beside the run accounting every fast core shares (counts,
//! clock, RNG, adversary, latency record, delivery slots, and the one
//! `RunResult` builder). [`CohortSimulator`] feeds its schedule as
//! per-slot bursts (an [`ArrivalModel::Bursts`] stream) and drives the
//! session to its end. A checkpoint captures every cohort's protocol state
//! words, the kernel caches, the RNG and the adversary's dynamic state
//! verbatim.
//!
//! Window protocols are *not* servable here (their per-slot decisions are
//! not independent Bernoulli trials): [`CohortSimulator`] rejects them and
//! `simulate_dynamic` routes them to the exact per-station engine instead.

use crate::result::{RunOptions, RunResult};
use crate::run_state::{LatencyRecorder, RunState};
use crate::session::{Session, SessionEngine, StreamFeed, StreamSource};
use mac_adversary::SlotClass;
use mac_channel::{ArrivalModel, ArrivalSchedule, ArrivalStream};
use mac_prob::binomial::SlotThresholds;
use mac_prob::cohort::{relative_gap, CohortKernel};
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::{FairProtocol, ParameterError, ProtocolKind};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Slots between merge scans. Scanning is O(active cohorts); once every few
/// dozen slots keeps its cost far below the per-slot classification while
/// still collapsing converged cohorts promptly on the run's timescale.
const MERGE_SCAN_PERIOD: u64 = 64;

/// The result of a cohort-engine run: the aggregate [`RunResult`] plus the
/// per-delivery latency detail the dynamic-arrival experiments need, and
/// engine diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortRun {
    /// Aggregate result, identical in shape to the other simulators'.
    pub result: RunResult,
    /// Latency (delivery slot − arrival slot) of every delivered message,
    /// in delivery order. Empty when the run recorded latencies into a
    /// streaming sketch instead (session runs).
    pub latencies: Vec<u64>,
    /// Number of cohort merges performed (diagnostic).
    pub merges: u64,
    /// Largest number of simultaneously active cohorts (diagnostic; the
    /// engine's per-slot cost is proportional to this, where the exact
    /// simulator's is proportional to the peak station count).
    pub peak_cohorts: usize,
}

/// One cohort: the shared protocol state of every station that arrived in
/// the same burst (or has been merged in), the number of still-active
/// members, and the arrival sub-groups for latency attribution.
#[derive(Debug)]
struct Cohort<P> {
    state: P,
    /// Active (undelivered) stations in this cohort.
    m: u64,
    /// `(arrival_slot, active count)` sub-groups; more than one entry only
    /// after a merge. Members are exchangeable, so a delivery picks a
    /// sub-group with probability proportional to its count.
    groups: Vec<(u64, u64)>,
}

impl<P> Cohort<P> {
    /// Delivers one member in the current slot of `run`: `fraction`,
    /// uniform in `[0, 1)` given the delivery (the leftover of
    /// [`CohortKernel::delivering_cohort`]), picks the member and with it
    /// the arrival sub-group its latency is counted from.
    fn deliver_one(&mut self, run: &mut RunState, fraction: f64) {
        let mut index = ((fraction * self.m as f64) as u64).min(self.m - 1);
        let group = self
            .groups
            .iter_mut()
            .find(|(_, count)| {
                if index < *count {
                    true
                } else {
                    index -= *count;
                    false
                }
            })
            .expect("group counts sum to the cohort size");
        run.deliver(run.slot - group.0);
        group.1 -= 1;
        if group.1 == 0 && self.groups.len() > 1 {
            self.groups.retain(|&(_, count)| count > 0);
        }
        self.m -= 1;
    }
}

/// Fast simulator for fair protocols under **arbitrary arrival schedules**.
///
/// # Example
/// ```
/// use mac_channel::ArrivalModel;
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{CohortSimulator, RunOptions};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
///
/// let model = ArrivalModel::Bursts { bursts: vec![(0, 40), (500, 40)] };
/// let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(1));
/// let sim = CohortSimulator::new(
///     ProtocolKind::OneFailAdaptive { delta: 2.72 },
///     RunOptions::default(),
/// );
/// let run = sim.run_schedule(&schedule, 7).unwrap();
/// assert!(run.result.completed);
/// assert_eq!(run.latencies.len(), 80);
/// ```
#[derive(Debug, Clone)]
pub struct CohortSimulator {
    kind: ProtocolKind,
    options: RunOptions,
}

impl CohortSimulator {
    /// Creates a cohort simulator for the given fair-protocol kind. Only
    /// cohorts with bit-equal probability tracks (exactly coinciding
    /// states, for the paper's fair protocols) are merged, so the engine
    /// stays law-identical to the exact per-station reference; the class
    /// cap is read from `options`, and with its default of `0` the live
    /// cohort count is unbounded.
    pub fn new(kind: ProtocolKind, options: RunOptions) -> Self {
        Self { kind, options }
    }

    /// Runs the schedule and returns the aggregate result plus per-delivery
    /// latencies.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters or the cohort
    /// knobs are invalid, or the kind is not a fair protocol (window
    /// protocols commit to one slot per window — their slots are not
    /// independent Bernoulli trials — and run per-station on
    /// [`crate::ExactSimulator`] instead).
    pub fn run_schedule(
        &self,
        schedule: &ArrivalSchedule,
        seed: u64,
    ) -> Result<CohortRun, ParameterError> {
        // One single-message burst per arrival: the stream merges bursts at
        // one slot, so it emits the schedule's per-slot grouping (and, being
        // deterministic, ignores its generator seed).
        let bursts = schedule.arrival_slots().iter().map(|&s| (s, 1)).collect();
        let source = StreamSource::Plain(ArrivalStream::new(&ArrivalModel::Bursts { bursts }, 0));
        Session::dynamic_on(&self.kind, source, seed, &self.options, true)?
            .and_then(Session::into_cohort_run)
            .ok_or_else(|| {
                ParameterError::new(
                    "protocol",
                    f64::NAN,
                    "CohortSimulator requires a fair protocol kind; window kinds run per-station on ExactSimulator",
                )
            })
    }
}

/// The complete loop state of one cohort-engine run, advanceable in bounded
/// slot bursts. Silent fast-forwards are clamped to the budget (they consume
/// no randomness, so resuming mid-gap is bit-safe); processed slots advance
/// one at a time, so the executed count never overshoots.
///
/// The slot-driving loop is monomorphic over the concrete protocol so the
/// per-cohort state queries inline. Its adversary contract: jamming is
/// offered busy slots only, in slot order, with the slot class, and a
/// delivery the jam left standing asks the missed-delivery fault whether
/// the listeners hear it.
#[derive(Debug)]
pub(crate) struct CohortEngineCore<P> {
    /// The run accounting; its latency record holds delivery − arrival.
    run: RunState,
    feed: StreamFeed,
    /// The state every fresh arrival cohort starts from (building a state
    /// draws no randomness, so a clone is a fresh build).
    prototype: P,
    max_live_cohorts: u64,
    cohorts: Vec<Cohort<P>>,
    kernel: CohortKernel,
    ms: Vec<f64>,
    ps: Vec<f64>,
    merge_scratch: MergeScratch,
    merges: u64,
    peak_cohorts: usize,
    slots_to_merge_scan: u64,
    adversarial: bool,
}

impl<P: FairProtocol + Clone> CohortEngineCore<P> {
    /// Builds the initial loop state over a fresh `feed` whose last arrival
    /// is at `last_arrival`, recording latencies into `latencies`. The
    /// live-class cap is read from `options`.
    pub(crate) fn new(
        feed: StreamFeed,
        last_arrival: Option<u64>,
        prototype: P,
        seed: u64,
        options: &RunOptions,
        latencies: LatencyRecorder,
    ) -> Self {
        let k = feed.pending_messages();
        // As in the exact simulator, the per-message budget is granted on
        // top of the arrival horizon.
        let max_slots = options
            .max_slots(k)
            .saturating_add(last_arrival.unwrap_or(0));
        let run = RunState::new(k, seed, max_slots, options, latencies);
        let adversarial = run.adversary.is_active();
        Self {
            run,
            feed,
            prototype,
            max_live_cohorts: options.max_live_cohorts,
            cohorts: Vec::new(),
            kernel: CohortKernel::new(),
            ms: Vec::new(),
            ps: Vec::new(),
            merge_scratch: MergeScratch::default(),
            merges: 0,
            peak_cohorts: 0,
            slots_to_merge_scan: MERGE_SCAN_PERIOD,
            adversarial,
        }
    }

    /// Rebuilds a core from [`SessionEngine::encode`]d words around its
    /// decoded run state `run`. `prototype` must be built from the run's
    /// original kind and message count, and `max_live_cohorts` is the run's
    /// class cap. The feed's stream is not walked here: the resume that
    /// called the decode recounts it.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        run: RunState,
        prototype: P,
        max_live_cohorts: u64,
    ) -> Result<Self, WireError> {
        let (source, pending) = StreamFeed::decode(input)?;
        let merges = input.take_u64()?;
        let peak_cohorts = usize::try_from(input.take_u64()?)
            .map_err(|_| WireError::Malformed("peak cohort count exceeds usize"))?;
        let slots_to_merge_scan = input.take_u64()?;
        let cohort_count = input.take_usize()?;
        let mut cohorts = Vec::with_capacity(cohort_count.min(1 << 20));
        for _ in 0..cohort_count {
            let words = input.take_words()?.to_vec();
            let m = input.take_u64()?;
            let group_count = input.take_usize()?;
            let mut groups = Vec::with_capacity(group_count.min(1 << 20));
            for _ in 0..group_count {
                let arrival = input.take_u64()?;
                let count = input.take_u64()?;
                groups.push((arrival, count));
            }
            // A live cohort has members, and every arrival sub-group holds
            // some of them: the delivery path picks a member's sub-group by
            // walking these counts.
            let members = groups.iter().try_fold(0u64, |sum, &(_, count)| {
                if count == 0 {
                    None
                } else {
                    sum.checked_add(count)
                }
            });
            if m == 0 || members != Some(m) {
                return Err(WireError::Malformed(
                    "cohort arrival groups do not partition its members",
                ));
            }
            // A delivery counts its latency from its sub-group's arrival
            // slot, which the slot clock has reached.
            if groups.iter().any(|&(arrival, _)| arrival > run.slot) {
                return Err(WireError::Malformed(
                    "cohort arrival group after the slot clock",
                ));
            }
            let mut state = prototype.clone();
            if !state.restore_words(&words) {
                return Err(WireError::Malformed("protocol state words rejected"));
            }
            cohorts.push(Cohort { state, m, groups });
        }
        let kernel = CohortKernel::decode(input)?;
        if kernel.len() != cohorts.len() {
            return Err(WireError::Malformed(
                "kernel cache count differs from the cohort count",
            ));
        }
        // Every undelivered message is either in a live cohort or still in
        // the feed; the empty-channel fast-forward relies on it.
        let owed = cohorts
            .iter()
            .try_fold(0u64, |sum, cohort| sum.checked_add(cohort.m))
            .and_then(|live| run.remaining.checked_sub(live));
        let feed = StreamFeed::resumed(source, pending, owed)?;
        let adversarial = run.adversary.is_active();
        Ok(Self {
            run,
            feed,
            prototype,
            max_live_cohorts,
            cohorts,
            kernel,
            ms: Vec::new(),
            ps: Vec::new(),
            merge_scratch: MergeScratch::default(),
            merges,
            peak_cohorts,
            slots_to_merge_scan,
            adversarial,
        })
    }

    /// A single-cohort stretch: the slots that run while exactly one cohort
    /// is live, up to the next arrival, the budget end `cap` or the slot
    /// cap, or through the cohort's last delivery. It resolves each slot on
    /// the cohort's own kernel line, with the one-cohort arithmetic of
    /// [`CohortKernel::classify`] and [`CohortKernel::delivering_cohort`],
    /// so it consumes the same draws and reaches the same state as the
    /// per-slot path would (`DESIGN.md` §6).
    fn run_alone(&mut self, cap: u64, mut jam_log: Option<&mut Vec<u64>>) {
        let run = &mut self.run;
        let start = run.slot;
        let end = self
            .feed
            .peek_slot()
            .map_or(cap, |due| due.min(cap))
            .min(run.max_slots);
        let cohort = &mut self.cohorts[0];
        let cache = self.kernel.cache_mut(0);
        let mut m = cohort.m as f64;
        let mut emptied = false;
        while run.slot < end {
            let p = cohort.state.transmission_probability();
            debug_assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
            let line = cache.select(m, p);
            let SlotThresholds { t0, t1: line_t1 } = line.thresholds();
            let band = line_t1 - t0;
            let t1 = t0 + band;
            let mut delivery = None;
            if line.is_dead() || t1 <= 0.0 {
                // Certain collision at f64 resolution: no draw is consumed.
                run.collisions += 1;
                if self.adversarial {
                    run.adversary.jams_slot(run.slot, SlotClass::Contended);
                }
            } else {
                let u = run.rng.gen::<f64>();
                let silent = u < t0;
                let single = !silent & (u < t1);
                if !self.adversarial {
                    // Branchless silence/collision split: only the (rarer)
                    // delivery takes a data-dependent branch.
                    run.silent += u64::from(silent);
                    run.collisions += u64::from(!(silent | single));
                    if single {
                        delivery = Some(u - t0);
                    }
                } else if single {
                    if run.adversary.jams_slot(run.slot, SlotClass::Single) {
                        run.collisions += 1;
                        run.jammed_deliveries += 1;
                        if let Some(log) = jam_log.as_deref_mut() {
                            log.push(run.slot);
                        }
                    } else {
                        delivery = Some(u - t0);
                    }
                } else if silent {
                    run.silent += 1;
                } else {
                    run.collisions += 1;
                    run.adversary.jams_slot(run.slot, SlotClass::Contended);
                }
            }
            let mut feedback = false;
            if let Some(x) = delivery {
                let fraction = if x < band {
                    (x / band).clamp(0.0, 1.0 - f64::EPSILON)
                } else {
                    0.0
                };
                cohort.deliver_one(run, fraction);
                m -= 1.0;
                feedback = !self.adversarial || !run.adversary.misses_delivery();
                if cohort.m == 0 {
                    run.slot += 1;
                    emptied = true;
                    break;
                }
            }
            cohort.state.advance(feedback);
            run.slot += 1;
        }
        // The per-slot path counts the merge-scan clock down once per slot;
        // its scans find nothing to merge while one cohort is live.
        let elapsed = (run.slot - start) % MERGE_SCAN_PERIOD;
        self.slots_to_merge_scan = if self.slots_to_merge_scan > elapsed {
            self.slots_to_merge_scan - elapsed
        } else {
            self.slots_to_merge_scan + MERGE_SCAN_PERIOD - elapsed
        };
        if emptied {
            self.cohorts.clear();
            self.kernel.swap_remove(0);
        }
    }
}

impl<P: FairProtocol + Clone + 'static> SessionEngine for CohortEngineCore<P> {
    fn run_state(&self) -> &RunState {
        &self.run
    }
    /// Advances until at least `budget` slots have elapsed or the run
    /// finishes. `jam_log`, when provided, records the slot of every
    /// effective jam (see [`crate::FairSimulator::run_logging_jams`]).
    fn advance(&mut self, budget: u64, mut jam_log: Option<&mut Vec<u64>>) {
        let cap = self.run.slot.saturating_add(budget);
        while !self.run.is_finished() && self.run.slot < cap {
            let run = &mut self.run;
            // Activate the arrival burst of this slot as one fresh cohort
            // (arrivals are sorted, so all due arrivals share the slot
            // after the fast-forward below).
            if self.feed.peek_slot().is_some_and(|due| due <= run.slot) {
                let count = self.feed.take_due(run.slot);
                let state = self.prototype.clone();
                self.kernel.push(count, state.transmission_probability());
                self.cohorts.push(Cohort {
                    state,
                    m: count,
                    groups: vec![(run.slot, count)],
                });
                // Bounded-class mode: pushes are the only operation that
                // grows the live class count, so enforcing the cap here
                // maintains the invariant everywhere else. `peak_cohorts`
                // is recorded *after* enforcement — it reports the live
                // class count the engine actually paid for per slot.
                if self.max_live_cohorts > 0 && self.cohorts.len() as u64 > self.max_live_cohorts {
                    self.merges += self.merge_scratch.enforce_class_cap(
                        &mut self.cohorts,
                        &mut self.kernel,
                        self.max_live_cohorts as usize,
                    );
                }
                self.peak_cohorts = self.peak_cohorts.max(self.cohorts.len());
            }

            // Fast-forward an empty channel to the next arrival: the slots
            // in between are silent by definition, and the adversary is only
            // ever consulted about busy slots. Clamping to the budget is
            // bit-safe — no randomness is consumed, and the next advance
            // resumes the fast-forward from the clamp point.
            if self.cohorts.is_empty() {
                let due = self
                    .feed
                    .peek_slot()
                    .expect("remaining > 0 with no active cohorts implies pending arrivals");
                let next = due.min(run.max_slots).min(cap);
                run.silent += next - run.slot;
                run.slot = next;
                continue;
            }
            if self.cohorts.len() == 1 {
                self.run_alone(cap, jam_log.as_deref_mut());
                continue;
            }

            self.ms.clear();
            self.ps.clear();
            for cohort in &self.cohorts {
                self.ms.push(cohort.m as f64);
                self.ps.push(cohort.state.transmission_probability());
            }
            let thresholds = self.kernel.classify(&self.ms, &self.ps);

            let mut delivered_feedback = false;
            if thresholds.is_dead() {
                // Certain collision at f64 resolution: no draw is consumed.
                run.collisions += 1;
                if self.adversarial {
                    run.adversary.jams_slot(run.slot, SlotClass::Contended);
                }
            } else {
                let u = run.rng.gen::<f64>();
                if u < thresholds.t0 {
                    run.silent += 1;
                } else if u < thresholds.t1 {
                    if self.adversarial && run.adversary.jams_slot(run.slot, SlotClass::Single) {
                        // The jam destroys the delivery: the transmitter
                        // stays active and the slot reads as a collision.
                        run.collisions += 1;
                        run.jammed_deliveries += 1;
                        if let Some(log) = jam_log.as_deref_mut() {
                            log.push(run.slot);
                        }
                    } else {
                        // Which cohort delivered, and — through the leftover
                        // uniform fraction — which of its members.
                        let (ci, fraction) = self.kernel.delivering_cohort(u - thresholds.t0);
                        let cohort = &mut self.cohorts[ci];
                        cohort.deliver_one(run, fraction);
                        // Acknowledgements are reliable; only the broadcast
                        // feedback to the remaining stations can be lost.
                        delivered_feedback = !self.adversarial || !run.adversary.misses_delivery();
                        if cohort.m == 0 {
                            self.cohorts.swap_remove(ci);
                            self.kernel.swap_remove(ci);
                        }
                    }
                } else {
                    run.collisions += 1;
                    if self.adversarial {
                        run.adversary.jams_slot(run.slot, SlotClass::Contended);
                    }
                }
            }

            // Every active station observes the same public feedback.
            for cohort in &mut self.cohorts {
                cohort.state.advance(delivered_feedback);
            }
            run.slot += 1;

            self.slots_to_merge_scan -= 1;
            if self.slots_to_merge_scan == 0 {
                self.slots_to_merge_scan = MERGE_SCAN_PERIOD;
                if self.cohorts.len() > 1 {
                    self.merges += self
                        .merge_scratch
                        .merge_converged(&mut self.cohorts, &mut self.kernel);
                }
            }
        }
    }
    /// The sum over active cohorts: unlike `remaining`, this excludes
    /// messages that have not arrived yet, so an idle channel
    /// fast-forwarding to its next burst reports a zero backlog.
    fn backlog(&self) -> u64 {
        self.cohorts.iter().map(|cohort| cohort.m).sum()
    }
    /// The run's aggregate result (capped-run convention before
    /// completion: the makespan reads the current slot).
    fn result(&self, label: &str) -> RunResult {
        self.run
            .result(label, self.run.slot, self.feed.pending_messages())
    }
    fn feed(&self) -> Option<&StreamFeed> {
        Some(&self.feed)
    }
    fn cohort_run(&self, label: &str) -> Option<CohortRun> {
        Some(CohortRun {
            result: self.result(label),
            latencies: self.run.latencies.exact.clone().unwrap_or_default(),
            merges: self.merges,
            peak_cohorts: self.peak_cohorts,
        })
    }
    /// Writes the arrival feed, the merge diagnostics and clock, every
    /// cohort (protocol state words, size, arrival groups) and the kernel
    /// caches. The prototype and the class cap are rebuilt from the kind
    /// and the options.
    fn encode(&self, out: &mut Encoder) {
        self.feed.encode(out);
        out.put_u64(self.merges);
        out.put_u64(self.peak_cohorts as u64);
        out.put_u64(self.slots_to_merge_scan);
        out.put_usize(self.cohorts.len());
        for cohort in &self.cohorts {
            out.put_words(&cohort.state.checkpoint_words());
            out.put_u64(cohort.m);
            out.put_usize(cohort.groups.len());
            for &(arrival, count) in &cohort.groups {
                out.put_u64(arrival);
                out.put_u64(count);
            }
        }
        self.kernel.encode(out);
    }
}

/// `|a - b| ≤ tolerance · max(a, b)` for non-negative probabilities; at
/// `tolerance = 0` this is exact equality (including `0 == 0`).
#[inline]
fn tracks_close(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * a.max(b)
}

/// The merge routines' reusable buffers: sort keys, index order, adjacent
/// gaps and victim flags. Scratch only — rebuilt by every merge scan and
/// enforcement round, empty on construction and on decode, never
/// checkpointed — so once the buffers have grown to the live class count,
/// merging allocates no working memory.
#[derive(Debug, Default)]
struct MergeScratch {
    /// `(schedule phase, track a, track b)` of cohort `i`, at index `i`.
    keys: Vec<(u64, f64, f64)>,
    /// Cohort indices sorted by key: same-phase cohorts with close tracks
    /// are adjacent.
    order: Vec<usize>,
    /// Track divergence of every adjacent same-phase pair in `order`.
    gaps: Vec<f64>,
    /// Cohorts emptied into their representative by the last walk.
    victim: Vec<bool>,
}

impl MergeScratch {
    /// Keys every cohort by (`schedule phase`, both cached track
    /// probabilities) and sorts the indices `0..n` by key.
    ///
    /// The sort stays `sort_unstable_by` over cohort-index order with this
    /// comparator: when two classes have bit-equal keys, the placement it
    /// gives them decides which one survives a merge (its state, kernel
    /// cache, arrival-group order and vector slot), and the committed
    /// saturation map and golden frames pin that choice. A stable sort, an
    /// index tie-break or an incrementally kept order would each move it.
    fn sort<P: FairProtocol>(&mut self, cohorts: &[Cohort<P>], kernel: &CohortKernel) {
        self.keys.clear();
        self.keys
            .extend(cohorts.iter().enumerate().map(|(i, cohort)| {
                let (a, b) = kernel.track_probabilities(i);
                (cohort.state.schedule_phase(), a, b)
            }));
        self.order.clear();
        self.order.extend(0..cohorts.len());
        let keys = &self.keys;
        self.order.sort_unstable_by(|&x, &y| {
            keys[x]
                .0
                .cmp(&keys[y].0)
                .then(keys[x].1.total_cmp(&keys[y].1))
                .then(keys[x].2.total_cmp(&keys[y].2))
        });
    }

    /// One merge scan: cohorts are sorted by `(schedule phase, track
    /// probabilities)` so that every *equality class* — same phase, both
    /// cached probability tracks bit-equal — forms a contiguous run, and
    /// each run collapses into its first member in a single walk.
    /// O(C log C) per scan, amortised to a fraction of the per-slot
    /// classification cost by [`MERGE_SCAN_PERIOD`]. Returns the number of
    /// merges performed.
    fn merge_converged<P: FairProtocol>(
        &mut self,
        cohorts: &mut Vec<Cohort<P>>,
        kernel: &mut CohortKernel,
    ) -> u64 {
        self.sort(cohorts, kernel);
        self.merge_sorted(cohorts, kernel, 0.0)
    }

    /// The merge walk over the order of the last [`MergeScratch::sort`],
    /// which must describe `cohorts` as they are now.
    ///
    /// Approximate merges (`tolerance > 0`, bounded-class enforcement only)
    /// use *weighted state adoption*: the surviving class keeps whichever
    /// of the two states carries the larger active membership, so the
    /// perturbation applies to the minority of the merged stations. At
    /// `tolerance = 0` (the periodic scan) the states are pinned bit-equal
    /// by the tracks, so the adoption rule is skipped and the engine stays
    /// bit-identical to its committed artifacts.
    fn merge_sorted<P: FairProtocol>(
        &mut self,
        cohorts: &mut Vec<Cohort<P>>,
        kernel: &mut CohortKernel,
        tolerance: f64,
    ) -> u64 {
        let n = cohorts.len();
        let keys = &self.keys;
        self.victim.clear();
        self.victim.resize(n, false);
        // Walk the sorted order: the first cohort of each run is the class
        // representative; followers within `tolerance` on both tracks (and
        // in the same phase) transfer their members and arrival sub-groups
        // to it.
        let mut merges = 0u64;
        let mut representative = self.order[0];
        for &i in self.order.iter().skip(1) {
            let (rp, ra, rb) = keys[representative];
            let (ip, ia, ib) = keys[i];
            if rp == ip && tracks_close(ra, ia, tolerance) && tracks_close(rb, ib, tolerance) {
                let (left, right) = if representative < i {
                    let (l, r) = cohorts.split_at_mut(i);
                    (&mut l[representative], &mut r[0])
                } else {
                    let (l, r) = cohorts.split_at_mut(representative);
                    (&mut r[0], &mut l[i])
                };
                if tolerance > 0.0 && right.m > left.m {
                    std::mem::swap(&mut left.state, &mut right.state);
                }
                left.m += right.m;
                left.groups.append(&mut right.groups);
                self.victim[i] = true;
                merges += 1;
            } else {
                representative = i;
            }
        }
        if merges == 0 {
            return 0;
        }
        // Remove emptied victims back to front: an element swapped into a
        // freed slot always comes from a higher index, which has already
        // been decided (and victims there are already gone), so the flags
        // stay aligned.
        for i in (0..n).rev() {
            if self.victim[i] {
                cohorts.swap_remove(i);
                kernel.swap_remove(i);
            }
        }
        merges
    }

    /// Bounded-class enforcement: force-merges the *nearest* same-phase
    /// classes until at most `cap` remain. Each round sorts the live
    /// classes once by `(phase, tracks)`, measures the track divergence of
    /// every adjacent same-phase pair, selects the smallest threshold that
    /// admits enough pairs to restore the cap, and runs the merge walk at
    /// that threshold on the same order — so the engine always spends its
    /// forced approximation on the classes that are already closest in
    /// law. Classes in distinct phases are never merged (their future
    /// schedules differ), so the reachable floor is the number of distinct
    /// live phases; if every class sits in its own phase the cap is left
    /// violated rather than corrupting the schedule. Returns the number of
    /// merges performed.
    fn enforce_class_cap<P: FairProtocol>(
        &mut self,
        cohorts: &mut Vec<Cohort<P>>,
        kernel: &mut CohortKernel,
        cap: usize,
    ) -> u64 {
        let mut merges = 0u64;
        while cohorts.len() > cap {
            let n = cohorts.len();
            self.sort(cohorts, kernel);
            // The divergence of a pair is the larger relative gap of its
            // two tracks: the smallest tolerance under which the pair
            // merges.
            let keys = &self.keys;
            self.gaps.clear();
            self.gaps.extend(self.order.windows(2).filter_map(|pair| {
                let (xp, xa, xb) = keys[pair[0]];
                let (yp, ya, yb) = keys[pair[1]];
                (xp == yp).then(|| relative_gap(xa, ya).max(relative_gap(xb, yb)))
            }));
            if self.gaps.is_empty() {
                // Every live class is alone in its phase: nothing is
                // mergeable.
                break;
            }
            // The (n - cap)-th smallest adjacent divergence admits at least
            // that many adjacent pairs; until the walk's first merge every
            // failing follower becomes the next representative, so the
            // first admitted adjacent pair always merges — each round
            // strictly shrinks the class count. Selection finds it without
            // sorting the gaps; `total_cmp` equality is bit equality, so it
            // is the same value a full sort would place there.
            let need = (n - cap).min(self.gaps.len());
            let (_, &mut nth, _) = self.gaps.select_nth_unstable_by(need - 1, f64::total_cmp);
            // One-ulp headroom: `relative_gap` is a quotient and
            // `tracks_close` re-multiplies, so without the nudge the
            // threshold pair can fail its own admission test and leave the
            // cap violated by one. Zero gaps (bit-equal tracks) stay
            // exactly zero.
            let threshold = nth * (1.0 + 4.0 * f64::EPSILON);
            let merged = self.merge_sorted(cohorts, kernel, threshold);
            if merged == 0 {
                break;
            }
            merges += merged;
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_adversary::{AdversaryModel, AdversaryScenario};
    use mac_prob::rng::Xoshiro256pp;
    use rand::SeedableRng;

    fn cohort(kind: ProtocolKind) -> CohortSimulator {
        CohortSimulator::new(kind, RunOptions::default())
    }

    fn ofa() -> ProtocolKind {
        ProtocolKind::OneFailAdaptive { delta: 2.72 }
    }

    #[test]
    fn empty_instance_completes_immediately() {
        let run = cohort(ofa())
            .run_schedule(&ArrivalSchedule::new(Vec::new()), 1)
            .unwrap();
        assert!(run.result.completed);
        assert_eq!(run.result.makespan, 0);
        assert!(run.latencies.is_empty());
        assert_eq!(run.peak_cohorts, 0);
    }

    #[test]
    fn batched_instance_is_a_single_cohort_and_accounts_slots() {
        for kind in [
            ofa(),
            ProtocolKind::LogFailsAdaptive {
                xi_delta: 0.1,
                xi_beta: 0.1,
                xi_t: 0.5,
            },
            ProtocolKind::KnownKOracle,
        ] {
            let run = cohort(kind.clone())
                .run_schedule(&ArrivalSchedule::new(vec![0; 500]), 11)
                .unwrap();
            assert!(run.result.completed, "{}", kind.label());
            assert_eq!(run.result.delivered, 500);
            assert_eq!(run.peak_cohorts, 1, "batched arrivals form one cohort");
            assert_eq!(run.latencies.len(), 500);
            assert_eq!(
                run.result.makespan,
                run.result.delivered + run.result.collisions + run.result.silent_slots,
                "slot accounting must balance"
            );
        }
    }

    #[test]
    fn rejects_window_protocols() {
        let sim = cohort(ProtocolKind::ExpBackonBackoff { delta: 0.366 });
        assert!(sim
            .run_schedule(&ArrivalSchedule::new(vec![0; 10]), 0)
            .is_err());
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 40), (100, 40), (2_000, 30)],
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(3));
        let sim = cohort(ofa());
        let a = sim.run_schedule(&schedule, 9).unwrap();
        let b = sim.run_schedule(&schedule, 9).unwrap();
        assert_eq!(a, b);
        let c = sim.run_schedule(&schedule, 10).unwrap();
        assert_ne!(a.result.makespan, c.result.makespan);
    }

    #[test]
    fn bounded_advance_matches_single_shot_run() {
        // Driving the core in small bursts must land on the same run as one
        // uninterrupted advance — the session layer depends on it. The gap
        // before the straggler exercises the budget-clamped fast-forward.
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 40), (100, 40), (50_000, 1)],
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(3));
        let single = cohort(ofa()).run_schedule(&schedule, 9).unwrap();
        let source = StreamSource::Plain(ArrivalStream::new(&model, 0));
        let mut session = Session::dynamic_on(&ofa(), source, 9, &RunOptions::default(), true)
            .unwrap()
            .expect("a fair kind runs on the cohort engine");
        while !session.is_finished() {
            session.advance(37).unwrap();
        }
        assert_eq!(session.cohort_run(), Some(single));
    }

    #[test]
    fn latencies_respect_arrival_slots() {
        // Two overlapping bursts (40 stations need far more than 4 slots)
        // plus a straggler after the backlog has drained. The burst offset
        // must be *even*: an odd offset lands the cohorts on opposite AT/BT
        // parities, and One-fail Adaptive's σ = 0 BT rule (transmit with
        // probability 1) then jams every slot outright — the parity
        // deadlock documented in DESIGN.md §6, confirmed by the exact
        // simulator.
        let mut arrivals = vec![0u64; 40];
        arrivals.extend(std::iter::repeat_n(4u64, 40));
        arrivals.push(4_000);
        let schedule = ArrivalSchedule::new(arrivals);
        let run = cohort(ofa()).run_schedule(&schedule, 5).unwrap();
        assert!(run.result.completed);
        assert_eq!(run.latencies.len(), 81);
        // Every latency is bounded by the makespan, and the run must extend
        // past the last arrival.
        assert!(run.result.makespan > 4_000);
        for &latency in &run.latencies {
            assert!(latency < run.result.makespan);
        }
        assert!(run.peak_cohorts >= 2, "staggered bursts overlap as cohorts");
    }

    #[test]
    fn sparse_arrivals_fast_forward_through_silent_stretches() {
        // Two lone messages 100,000 slots apart: the engine must not walk
        // the gap slot by slot drawing uniforms — the silent-slot count
        // still reflects the gap.
        let schedule = ArrivalSchedule::new(vec![0, 100_000]);
        let run = cohort(ofa()).run_schedule(&schedule, 2).unwrap();
        assert!(run.result.completed);
        assert_eq!(run.result.delivered, 2);
        assert!(run.result.silent_slots >= 90_000);
        assert_eq!(
            run.result.makespan,
            run.result.delivered + run.result.collisions + run.result.silent_slots
        );
    }

    #[test]
    fn permanently_jammed_channel_delivers_nothing() {
        let options = RunOptions {
            slot_cap_per_message: 5,
            min_slot_cap: 200,
            adversary: AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
                period: 1,
                burst: 1,
                phase: 0,
            }),
            ..RunOptions::default()
        };
        let run = CohortSimulator::new(ofa(), options)
            .run_schedule(&ArrivalSchedule::new(vec![0; 8]), 3)
            .unwrap();
        assert!(!run.result.completed);
        assert_eq!(run.result.delivered, 0);
        assert!(run.latencies.is_empty());
        assert!(run.result.jammed_deliveries > 0);
    }

    #[test]
    fn short_cap_reports_never_activated_messages() {
        // Zero slot budget: the cap collapses onto the arrival horizon, so
        // the trailing burst is never activated and must be reported as
        // such instead of blending into "undelivered".
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 0,
            ..RunOptions::default()
        };
        let schedule = ArrivalSchedule::new(vec![0, 0, 500, 500]);
        let run = CohortSimulator::new(ofa(), options)
            .run_schedule(&schedule, 1)
            .unwrap();
        assert!(!run.result.completed);
        assert_eq!(run.result.never_activated, 2);
        assert!(run.result.delivered <= 2);
    }

    #[test]
    fn exact_merges_fire_for_oracle_cohorts_with_identical_state() {
        // Two oracle bursts one slot apart: when the first slot delivers
        // nothing (probability ≈ 1 − 0.5·e^{-0.5} ≈ 0.7 per seed), the
        // second cohort is born in exactly the first cohort's state
        // (remaining = k, constant phase) and the next merge scan collapses
        // them bit-exactly. A handful of seeds makes the test robust to the
        // ~30% of seeds whose slot 0 delivers.
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 300), (1, 300)],
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(0));
        let merged = (0..6).any(|seed| {
            let run = cohort(ProtocolKind::KnownKOracle)
                .run_schedule(&schedule, seed)
                .unwrap();
            assert!(run.result.completed);
            run.merges >= 1
        });
        assert!(merged, "identical oracle cohorts must merge");
    }

    #[test]
    fn merged_cohort_bookkeeping_survives_odd_budgets_and_resumes() {
        // The oracle bursts of the merge test above plus a later pair, on a
        // seed whose slot 0 is silent: the first pair merges at the slot-64
        // scan into one cohort with two arrival groups, which then runs
        // alone until slot 2,000, so every pause in between falls inside a
        // single-cohort stretch. The later pair merges at the slot-2,048
        // scan while the first cohort is still live (three cohorts at the
        // peak), and after the first cohort drains the merged pair runs
        // alone on two arrival groups again. The session is driven in odd
        // budgets with a checkpoint round trip at every pause.
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 300), (1, 300), (2_000, 200), (2_001, 200)],
        };
        let kind = ProtocolKind::KnownKOracle;
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(0));
        let unbroken = cohort(kind.clone()).run_schedule(&schedule, 0).unwrap();
        let source = StreamSource::Plain(ArrivalStream::new(&model, 0));
        let mut session = Session::dynamic_on(&kind, source, 0, &RunOptions::default(), true)
            .unwrap()
            .expect("a fair kind runs on the cohort engine");
        for budget in [37, 101, 1, 63, 129].into_iter().cycle() {
            if session.advance(budget).unwrap() == crate::SessionStatus::Finished {
                break;
            }
            session = Session::resume(&session.checkpoint().unwrap()).unwrap();
        }
        let run = session.cohort_run().unwrap();
        assert_eq!(run, unbroken);
        let r = &run.result;
        let latencies = mac_prob::wire::digest_words(&run.latencies);
        assert_eq!((run.merges, run.peak_cohorts), (2, 3));
        assert_eq!(
            (r.makespan, r.delivered, r.collisions, r.silent_slots),
            (7_270, 1_000, 218, 6_052)
        );
        assert_eq!(latencies, 0xc73e_135e_98fb_5baa);
    }

    #[test]
    fn class_cap_holds_under_sustained_poisson_arrivals() {
        // Rate-2 Poisson over a long horizon explodes the unbounded
        // engine's class count (one class per arrival slot while the
        // backlog grows); the bounded mode must hold the live count at the
        // cap throughout — `peak_cohorts` is recorded post-enforcement.
        let model = ArrivalModel::Poisson {
            rate: 2.0,
            horizon: 2_000,
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(21));
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 2_000,
            ..RunOptions::default()
        };
        let cap = 24u64;
        let unbounded = CohortSimulator::new(ProtocolKind::KnownKOracle, options.clone())
            .run_schedule(&schedule, 7)
            .unwrap();
        let capped = RunOptions {
            max_live_cohorts: cap,
            ..options
        };
        let bounded = CohortSimulator::new(ProtocolKind::KnownKOracle, capped)
            .run_schedule(&schedule, 7)
            .unwrap();
        assert!(
            unbounded.peak_cohorts as u64 > cap,
            "the scenario must actually stress the cap (peak {})",
            unbounded.peak_cohorts
        );
        assert!(
            bounded.peak_cohorts as u64 <= cap,
            "bounded mode exceeded its cap: {} > {}",
            bounded.peak_cohorts,
            cap
        );
        assert!(bounded.merges > unbounded.merges);
        // Accounting stays balanced under forced merges: every elapsed slot
        // is a delivery, a collision or silence, complete or not.
        assert_eq!(
            bounded.result.delivered + bounded.result.collisions + bounded.result.silent_slots,
            bounded.result.makespan
        );
    }

    #[test]
    fn class_cap_stops_at_the_phase_floor() {
        // DESIGN.md §12.1: classes in distinct phases never merge, so
        // enforcement leaves the cap violated at the number of live phases.
        // Stock One-fail Adaptive's odd-offset bursts sit on opposite AT/BT
        // parities (and deadlock, §6): at cap 1 no same-phase pair exists.
        let schedule = ArrivalSchedule::new(
            std::iter::repeat_n(0u64, 40)
                .chain(std::iter::repeat_n(1u64, 40))
                .collect(),
        );
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 5_000,
            max_live_cohorts: 1,
            ..RunOptions::default()
        };
        let run = CohortSimulator::new(ofa(), options)
            .run_schedule(&schedule, 2)
            .unwrap();
        assert_eq!(run.peak_cohorts, 2);
        assert_eq!(run.merges, 0);
        assert_eq!(run.result.delivered, 0);

        // Randomised parity's phase is the position in its 64-step parity
        // word, so under saturation the floor is 64 live classes, far
        // above a cap of 8.
        let model = ArrivalModel::Poisson {
            rate: 2.0,
            horizon: 2_000,
        };
        let options = RunOptions {
            max_live_cohorts: 8,
            ..RunOptions::default()
        };
        let kind = ProtocolKind::RandomizedParityOneFail { delta: 2.72 };
        let mut session = Session::dynamic(&kind, &model, 21, &options).unwrap();
        session.advance(2_500).unwrap();
        let peak = session.cohort_run().unwrap().peak_cohorts;
        assert!(peak > 8 && peak <= 64, "peak {peak} classes");
    }

    #[test]
    fn randomized_parity_breaks_the_two_cohort_deadlock() {
        // DESIGN.md §6: two One-fail Adaptive cohorts on opposite AT/BT
        // parities jam every slot forever (the fresh cohort's σ = 0 BT rule
        // transmits with probability 1). Stock OFA must stall on the
        // odd-offset instance; the randomised-parity variant shares AT-steps
        // on a constant fraction of slots and must drain it.
        let schedule = ArrivalSchedule::new(
            std::iter::repeat_n(0u64, 40)
                .chain(std::iter::repeat_n(1u64, 40))
                .collect(),
        );
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 100_000,
            ..RunOptions::default()
        };
        let stock = CohortSimulator::new(ofa(), options.clone())
            .run_schedule(&schedule, 2)
            .unwrap();
        assert!(
            !stock.result.completed && stock.result.delivered == 0,
            "stock One-fail Adaptive must deadlock on the odd-offset bursts \
             (delivered {})",
            stock.result.delivered
        );
        let randomized = CohortSimulator::new(
            ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
            options,
        )
        .run_schedule(&schedule, 2)
        .unwrap();
        assert!(
            randomized.result.completed,
            "randomised parity must break the deadlock (delivered {} of 80)",
            randomized.result.delivered
        );
    }
}

//! The cohort aggregate engine: fast simulation of **fair protocols under
//! dynamic arrivals**.
//!
//! The aggregate fair engine (`crate::aggregate`) needs every active station
//! on one common probability, which batched arrivals guarantee and dynamic
//! arrivals break — but only at arrival boundaries. Stations that arrive in
//! the same slot start in identical protocol state and observe identical
//! public feedback, so they stay in lockstep forever: the population is a
//! set of *cohorts*, each internally homogeneous, one per arrival burst.
//! This engine resolves each slot over the cohort decomposition with the
//! sum-of-binomials kernel of [`mac_prob::cohort`]:
//!
//! * a slot costs **O(active cohorts)** arithmetic and at most one uniform
//!   draw, instead of the exact simulator's O(active stations) — the
//!   structural win for bursty and clumped arrivals, where cohorts hold
//!   many stations each;
//! * a single *dead* cohort (`P(T_i ≤ 1) = 0` at `f64` resolution, e.g. a
//!   large backlogged burst at an AT-scale probability) makes the slot a
//!   certain collision with **no draw at all**, extending the aggregate
//!   engine's dead-slot elision across the decomposition;
//! * stretches with **no active station** are fast-forwarded to the next
//!   arrival in O(1) (they are silent by definition, and the adversary is
//!   only ever consulted about busy slots);
//! * cohorts whose probability schedules have **converged** are merged (see
//!   below), bounding the cohort count in long drain phases.
//!
//! ## Merging
//!
//! Two cohorts are merged when they sit at the same
//! [`mac_protocols::FairProtocol::schedule_phase`] and *both* of their
//! cached probability tracks agree within the configured merge tolerance.
//! With the default tolerance of `0.0` a merge requires bit-equal tracks,
//! which for the paper's fair protocols pins the underlying states exactly
//! (the track probabilities are injective in the state given the phase), so
//! the default engine introduces **no approximation** — such merges fire in
//! practice because estimator floors and delivery-free stretches genuinely
//! collapse states. A positive tolerance ([`RunOptions::merge_tolerance`])
//! trades a documented, bounded probability perturbation at merge time for
//! a smaller cohort count; see `DESIGN.md` §6 for the contract.
//!
//! ## Resumable core
//!
//! The loop state lives in one core, `CohortEngineCore`, and every run is
//! a dynamic session over it: arrivals come from the session's lazy
//! [`mac_channel::ArrivalStream`] feed, latencies go to an exact vector
//! ([`CohortSimulator`], `simulate_dynamic`) or a bounded-memory
//! [`StreamingLatencyStats`] sketch ([`crate::Session::dynamic`]),
//! `advance(budget)` is the only loop body and `SessionEngine::result` the
//! only result builder — so a checkpointed run is bit-identical to an
//! unbroken one by construction. [`CohortSimulator`]
//! feeds its schedule as per-slot bursts (an [`ArrivalModel::Bursts`]
//! stream) and drives the session to its end. A checkpoint captures every
//! cohort's protocol state words, the kernel caches, the RNG and the
//! adversary's dynamic state verbatim.
//!
//! Window protocols are *not* servable here (their per-slot decisions are
//! not independent Bernoulli trials, `Protocol::slot_probability` is
//! `None`): [`CohortSimulator`] rejects them and `simulate_dynamic` routes
//! them to the exact per-station engine instead.

use crate::aggregate::{decode_optional_slots, encode_optional_slots};
use crate::result::{RunOptions, RunResult, MAX_PREALLOC_ENTRIES};
use crate::session::{Engine, Session, SessionEngine, StreamFeed, StreamSource};
use mac_adversary::{AdversaryScenario, AdversaryState, SlotClass, ADVERSARY_STREAM};
use mac_channel::{ArrivalModel, ArrivalSchedule, ArrivalStream};
use mac_prob::cohort::CohortKernel;
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::{FairProtocol, ParameterError, ProtocolKind};
use rand::{Rng, SeedableRng};
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

/// Where per-delivery latencies go: an exact in-order vector (the
/// monolithic runs) or a bounded-memory quantile sketch (sessions).
#[derive(Debug)]
pub(crate) struct LatencyRecorder {
    exact: Option<Vec<u64>>,
    streaming: Option<StreamingLatencyStats>,
}

impl LatencyRecorder {
    /// Records every latency of a `k`-message run exactly, in delivery
    /// order.
    pub(crate) fn exact(k: u64) -> Self {
        Self {
            exact: Some(Vec::with_capacity(k.min(MAX_PREALLOC_ENTRIES) as usize)),
            streaming: None,
        }
    }

    /// Records latencies into a mergeable streaming sketch only.
    pub(crate) fn streaming(stats: StreamingLatencyStats) -> Self {
        Self {
            exact: None,
            streaming: Some(stats),
        }
    }

    fn push(&mut self, latency: u64) {
        if let Some(exact) = self.exact.as_mut() {
            exact.push(latency);
        }
        if let Some(streaming) = self.streaming.as_mut() {
            streaming.push(latency);
        }
    }

    fn encode(&self, out: &mut Encoder) {
        encode_optional_slots(self.exact.as_deref(), out);
        match &self.streaming {
            Some(stats) => {
                out.put_bool(true);
                stats.encode(out);
            }
            None => out.put_bool(false),
        }
    }

    fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let exact = decode_optional_slots(input)?;
        let streaming = if input.take_bool()? {
            Some(StreamingLatencyStats::decode(input)?)
        } else {
            None
        };
        Ok(Self { exact, streaming })
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
    /// Creates a cohort simulator for the given fair-protocol kind. The
    /// cohort knobs are read from `options`: with the default merge
    /// tolerance of `0.0`, only cohorts with bit-equal probability tracks
    /// (exactly coinciding states, for the paper's fair protocols) are
    /// merged, so the engine stays law-identical to the exact per-station
    /// reference; with the default class cap of `0` the live cohort count
    /// is unbounded.
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

    /// Convenience wrapper: a batched (static k-selection) instance — a
    /// single cohort, equivalent in law to [`crate::FairSimulator`].
    ///
    /// # Errors
    /// Returns a [`ParameterError`] as for [`CohortSimulator::run_schedule`].
    pub fn run(&self, k: u64, seed: u64) -> Result<CohortRun, ParameterError> {
        self.run_schedule(&ArrivalSchedule::new(vec![0; k as usize]), seed)
    }
}

/// The complete loop state of one cohort-engine run, advanceable in bounded
/// slot bursts. Silent fast-forwards are clamped to the budget (they consume
/// no randomness, so resuming mid-gap is bit-safe); processed slots advance
/// one at a time, so the executed count never overshoots.
///
/// The slot-driving loop is monomorphic over the concrete protocol so the
/// per-cohort state queries inline. It mirrors the fair aggregate engine's
/// adversary contract: jamming is offered busy slots only, in slot order,
/// with the slot class; feedback faults reduce to the missed-delivery bit
/// for fair protocols.
#[derive(Debug)]
pub(crate) struct CohortEngineCore<P> {
    feed: StreamFeed,
    /// The state every fresh arrival cohort starts from (building a state
    /// draws no randomness, so a clone is a fresh build).
    prototype: P,
    k: u64,
    seed: u64,
    max_slots: u64,
    merge_tolerance: f64,
    max_live_cohorts: u64,
    cohorts: Vec<Cohort<P>>,
    kernel: CohortKernel,
    ms: Vec<f64>,
    ps: Vec<f64>,
    remaining: u64,
    slot: u64,
    makespan: u64,
    collisions: u64,
    silent: u64,
    jammed_deliveries: u64,
    merges: u64,
    peak_cohorts: usize,
    slots_to_merge_scan: u64,
    adversary: AdversaryState,
    adversarial: bool,
    rng: Xoshiro256pp,
    recorder: LatencyRecorder,
    delivery_slots: Option<Vec<u64>>,
}

impl<P: FairProtocol + Clone> CohortEngineCore<P> {
    /// Builds the initial loop state over a fresh `feed` whose last arrival
    /// is at `last_arrival`. The cohort knobs (merge tolerance, live-class
    /// cap) are read from `options`.
    pub(crate) fn new(
        feed: StreamFeed,
        last_arrival: Option<u64>,
        prototype: P,
        seed: u64,
        options: &RunOptions,
        recorder: LatencyRecorder,
    ) -> Self {
        let k = feed.pending_messages();
        // lint:allow(rng-stream-discipline): the protocol stream IS the raw
        // run seed — the contract every committed BENCH_*.json and
        // certificate replays against; only auxiliary streams (adversary,
        // arrivals, sketch) are derived off it.
        let rng = Xoshiro256pp::seed_from_u64(seed);
        let adversary = options
            .adversary
            .state(derive_seed(seed, &[ADVERSARY_STREAM]));
        let adversarial = adversary.is_active();
        let prealloc = k.min(MAX_PREALLOC_ENTRIES) as usize;
        let delivery_slots = options
            .record_deliveries
            .then(|| Vec::with_capacity(prealloc));
        Self {
            feed,
            prototype,
            k,
            seed,
            // As in the exact simulator, the per-message budget is granted
            // on top of the arrival horizon.
            max_slots: options
                .max_slots(k)
                .saturating_add(last_arrival.unwrap_or(0)),
            merge_tolerance: options.merge_tolerance,
            max_live_cohorts: options.max_live_cohorts,
            cohorts: Vec::new(),
            kernel: CohortKernel::new(),
            ms: Vec::new(),
            ps: Vec::new(),
            remaining: k,
            slot: 0,
            makespan: 0,
            collisions: 0,
            silent: 0,
            jammed_deliveries: 0,
            merges: 0,
            peak_cohorts: 0,
            slots_to_merge_scan: MERGE_SCAN_PERIOD,
            adversary,
            adversarial,
            rng,
            recorder,
            delivery_slots,
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.remaining == 0 || self.slot >= self.max_slots
    }

    /// Advances until at least `budget` slots have elapsed or the run
    /// finishes; returns the number of slots executed.
    pub(crate) fn advance(&mut self, budget: u64) -> u64 {
        let start = self.slot;
        let cap = start.saturating_add(budget);
        while self.remaining > 0 && self.slot < self.max_slots && self.slot < cap {
            // Activate the arrival burst of this slot as one fresh cohort
            // (arrivals are sorted, so all due arrivals share the slot
            // after the fast-forward below).
            if self.feed.peek_slot().is_some_and(|due| due <= self.slot) {
                let count = self.feed.take_due(self.slot);
                let state = self.prototype.clone();
                self.kernel.push(count, state.transmission_probability());
                self.cohorts.push(Cohort {
                    state,
                    m: count,
                    groups: vec![(self.slot, count)],
                });
                // Bounded-class mode: pushes are the only operation that
                // grows the live class count, so enforcing the cap here
                // maintains the invariant everywhere else. `peak_cohorts`
                // is recorded *after* enforcement — it reports the live
                // class count the engine actually paid for per slot.
                if self.max_live_cohorts > 0 && self.cohorts.len() as u64 > self.max_live_cohorts {
                    self.merges += enforce_class_cap(
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
                let next = due.min(self.max_slots).min(cap);
                self.silent += next - self.slot;
                self.slot = next;
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
                self.collisions += 1;
                if self.adversarial {
                    self.adversary.jams_slot(self.slot, SlotClass::Contended);
                }
            } else {
                let u = self.rng.gen::<f64>();
                if u < thresholds.t0 {
                    self.silent += 1;
                } else if u < thresholds.t1 {
                    if self.adversarial && self.adversary.jams_slot(self.slot, SlotClass::Single) {
                        // The jam destroys the delivery: the transmitter
                        // stays active and the slot reads as a collision.
                        self.collisions += 1;
                        self.jammed_deliveries += 1;
                    } else {
                        // Which cohort delivered, and — through the leftover
                        // uniform fraction — which arrival sub-group within
                        // it (members are exchangeable).
                        let (ci, fraction) = self.kernel.delivering_cohort(u - thresholds.t0);
                        let cohort = &mut self.cohorts[ci];
                        let mut index = ((fraction * cohort.m as f64) as u64).min(cohort.m - 1);
                        let group = cohort
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
                        self.recorder.push(self.slot - group.0);
                        group.1 -= 1;
                        if group.1 == 0 && cohort.groups.len() > 1 {
                            cohort.groups.retain(|&(_, count)| count > 0);
                        }
                        cohort.m -= 1;
                        self.remaining -= 1;
                        self.makespan = self.slot + 1;
                        if let Some(slots) = self.delivery_slots.as_mut() {
                            slots.push(self.slot);
                        }
                        // Acknowledgements are reliable; only the broadcast
                        // feedback to the remaining stations can be lost.
                        delivered_feedback = !self.adversarial || !self.adversary.misses_delivery();
                        if cohort.m == 0 {
                            self.cohorts.swap_remove(ci);
                            self.kernel.swap_remove(ci);
                        }
                    }
                } else {
                    self.collisions += 1;
                    if self.adversarial {
                        self.adversary.jams_slot(self.slot, SlotClass::Contended);
                    }
                }
            }

            // Every active station observes the same public feedback.
            for cohort in &mut self.cohorts {
                cohort.state.advance(delivered_feedback);
            }
            self.slot += 1;

            self.slots_to_merge_scan -= 1;
            if self.slots_to_merge_scan == 0 {
                self.slots_to_merge_scan = MERGE_SCAN_PERIOD;
                if self.cohorts.len() > 1 {
                    self.merges += merge_converged_cohorts(
                        &mut self.cohorts,
                        &mut self.kernel,
                        self.merge_tolerance,
                    );
                }
            }
        }
        self.slot - start
    }

    /// Serialises the full loop state except the feed and the prototype,
    /// which the session layer reconstructs and restores separately
    /// (`false` if the protocol does not support state extraction).
    pub(crate) fn encode(&self, out: &mut Encoder) -> bool {
        let mut cohort_words: Vec<Vec<u64>> = Vec::with_capacity(self.cohorts.len());
        for cohort in &self.cohorts {
            let Some(words) = cohort.state.checkpoint_words() else {
                return false;
            };
            cohort_words.push(words);
        }
        out.put_u64(self.k);
        out.put_u64(self.seed);
        out.put_u64(self.max_slots);
        out.put_f64(self.merge_tolerance);
        out.put_u64(self.max_live_cohorts);
        out.put_u64(self.remaining);
        out.put_u64(self.slot);
        out.put_u64(self.makespan);
        out.put_u64(self.collisions);
        out.put_u64(self.silent);
        out.put_u64(self.jammed_deliveries);
        out.put_u64(self.merges);
        out.put_u64(self.peak_cohorts as u64);
        out.put_u64(self.slots_to_merge_scan);
        out.put_usize(self.cohorts.len());
        for (cohort, words) in self.cohorts.iter().zip(&cohort_words) {
            out.put_words(words);
            out.put_u64(cohort.m);
            out.put_usize(cohort.groups.len());
            for &(arrival, count) in &cohort.groups {
                out.put_u64(arrival);
                out.put_u64(count);
            }
        }
        self.kernel.encode(out);
        for w in self.rng.state_words() {
            out.put_u64(w);
        }
        for w in self.adversary.state_words() {
            out.put_u64(w);
        }
        encode_optional_slots(self.delivery_slots.as_deref(), out);
        self.recorder.encode(out);
        true
    }

    /// Rebuilds a core from [`CohortEngineCore::encode`]d words. `feed` must
    /// already be restored to its checkpointed position, `prototype` must be
    /// built from the run's original kind and message count, and `scenario`
    /// must be the run's original adversary configuration.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        feed: StreamFeed,
        prototype: P,
        scenario: &AdversaryScenario,
    ) -> Result<Self, WireError> {
        let k = input.take_u64()?;
        let seed = input.take_u64()?;
        let max_slots = input.take_u64()?;
        let merge_tolerance = input.take_f64()?;
        let max_live_cohorts = input.take_u64()?;
        let remaining = input.take_u64()?;
        let slot = input.take_u64()?;
        let makespan = input.take_u64()?;
        let collisions = input.take_u64()?;
        let silent = input.take_u64()?;
        let jammed_deliveries = input.take_u64()?;
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
            let mut state = prototype.clone();
            if !state.restore_words(&words) {
                return Err(WireError::Malformed("protocol state words rejected"));
            }
            cohorts.push(Cohort { state, m, groups });
        }
        let kernel = CohortKernel::decode(input)?;
        let mut rng_words = [0u64; 4];
        for w in &mut rng_words {
            *w = input.take_u64()?;
        }
        let mut adversary_words = [0u64; 6];
        for w in &mut adversary_words {
            *w = input.take_u64()?;
        }
        let delivery_slots = decode_optional_slots(input)?;
        let recorder = LatencyRecorder::decode(input)?;
        let mut adversary = scenario.state(0);
        if !adversary.restore_state_words(&adversary_words) {
            return Err(WireError::Malformed("adversary state words rejected"));
        }
        let adversarial = adversary.is_active();
        Ok(Self {
            feed,
            prototype,
            k,
            seed,
            max_slots,
            merge_tolerance,
            max_live_cohorts,
            cohorts,
            kernel,
            ms: Vec::new(),
            ps: Vec::new(),
            remaining,
            slot,
            makespan,
            collisions,
            silent,
            jammed_deliveries,
            merges,
            peak_cohorts,
            slots_to_merge_scan,
            adversary,
            adversarial,
            rng: Xoshiro256pp::from_state_words(rng_words),
            recorder,
            delivery_slots,
        })
    }
}

impl<P: FairProtocol + Clone + 'static> SessionEngine for CohortEngineCore<P> {
    fn engine(&self) -> Engine {
        Engine::Cohort
    }
    fn advance(&mut self, max_slots: u64) {
        self.advance(max_slots);
    }
    fn slot(&self) -> u64 {
        self.slot
    }
    fn delivered(&self) -> u64 {
        self.k - self.remaining
    }
    fn remaining(&self) -> u64 {
        self.remaining
    }
    /// The sum over active cohorts: unlike `remaining`, this excludes
    /// messages that have not arrived yet, so an idle channel
    /// fast-forwarding to its next burst reports a zero backlog.
    fn backlog(&self) -> u64 {
        self.cohorts.iter().map(|cohort| cohort.m).sum()
    }
    fn is_finished(&self) -> bool {
        self.is_finished()
    }
    fn streaming_stats(&self) -> Option<&StreamingLatencyStats> {
        self.recorder.streaming.as_ref()
    }
    /// The run's aggregate result (capped-run convention before
    /// completion).
    fn result(&self, label: &str) -> RunResult {
        let completed = self.remaining == 0;
        RunResult {
            protocol: label.to_string(),
            k: self.k,
            seed: self.seed,
            makespan: if completed { self.makespan } else { self.slot },
            completed,
            delivered: self.k - self.remaining,
            collisions: self.collisions,
            silent_slots: self.silent,
            jammed_deliveries: self.jammed_deliveries,
            never_activated: self.feed.pending_messages(),
            delivery_slots: self.delivery_slots.clone(),
        }
    }
    fn cohort_run(&self, label: &str) -> Option<CohortRun> {
        Some(CohortRun {
            result: self.result(label),
            latencies: self.recorder.exact.clone().unwrap_or_default(),
            merges: self.merges,
            peak_cohorts: self.peak_cohorts,
        })
    }
    /// The message count leads (the decoder rebuilds the prototype state
    /// from it before the core decodes), then the arrival feed, then the
    /// core.
    fn encode_payload(&self, out: &mut Encoder) -> bool {
        out.put_u64(self.k);
        self.feed.encode(out);
        self.encode(out)
    }
}

/// `|a - b| ≤ tolerance · max(a, b)` for non-negative probabilities; at
/// `tolerance = 0` this is exact equality (including `0 == 0`).
#[inline]
fn tracks_close(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * a.max(b)
}

/// Sort key (`schedule phase`, both cached track probabilities) and the
/// index permutation that orders cohorts by it: same-phase cohorts with
/// close tracks become adjacent, which both merge routines rely on.
fn sorted_cohort_order<P: FairProtocol>(
    cohorts: &[Cohort<P>],
    kernel: &CohortKernel,
) -> (Vec<(u64, f64, f64)>, Vec<usize>) {
    let n = cohorts.len();
    let keys: Vec<(u64, f64, f64)> = (0..n)
        .map(|i| {
            let (a, b) = kernel.track_probabilities(i);
            (cohorts[i].state.schedule_phase(), a, b)
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&x, &y| {
        keys[x]
            .0
            .cmp(&keys[y].0)
            .then(keys[x].1.total_cmp(&keys[y].1))
            .then(keys[x].2.total_cmp(&keys[y].2))
    });
    (keys, order)
}

/// One merge scan: cohorts are sorted by `(schedule phase, track
/// probabilities)` so that every *equality class* — same phase, both cached
/// probability tracks within `tolerance` of the class representative —
/// forms a contiguous run, and each run collapses into its first member in
/// a single scan. O(C log C) per scan, amortised to a fraction of the
/// per-slot classification cost by [`MERGE_SCAN_PERIOD`]. Returns the
/// number of merges performed.
///
/// Approximate merges (`tolerance > 0`) use *weighted state adoption*: the
/// surviving class keeps whichever of the two states carries the larger
/// active membership, so the perturbation applies to the minority of the
/// merged stations. At `tolerance = 0` the states are pinned bit-equal by
/// the tracks, so the adoption rule is skipped and the default engine stays
/// bit-identical to its committed artifacts.
fn merge_converged_cohorts<P: FairProtocol>(
    cohorts: &mut Vec<Cohort<P>>,
    kernel: &mut CohortKernel,
    tolerance: f64,
) -> u64 {
    let n = cohorts.len();
    let (keys, order) = sorted_cohort_order(cohorts, kernel);

    // Walk the sorted order: the first cohort of each run is the class
    // representative; followers within `tolerance` on both tracks (and in
    // the same phase) transfer their members and arrival sub-groups to it.
    let mut victim = vec![false; n];
    let mut merges = 0u64;
    let mut representative = order[0];
    for &i in order.iter().skip(1) {
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
            victim[i] = true;
            merges += 1;
        } else {
            representative = i;
        }
    }
    if merges == 0 {
        return 0;
    }
    // Remove emptied victims back to front: an element swapped into a freed
    // slot always comes from a higher index, which has already been decided
    // (and victims there are already gone), so the flags stay aligned.
    for i in (0..n).rev() {
        if victim[i] {
            cohorts.swap_remove(i);
            kernel.swap_remove(i);
        }
    }
    merges
}

/// Bounded-class enforcement: force-merges the *nearest* same-phase classes
/// until at most `cap` remain. Each round sorts the live classes by
/// `(phase, tracks)`, measures the relative track divergence of every
/// adjacent same-phase pair, and re-runs the merge scan at the smallest
/// threshold that admits enough pairs to restore the cap — so the engine
/// always spends its forced approximation on the classes that are already
/// closest in law. Classes in distinct phases are never merged (their
/// future schedules differ), so the reachable floor is the number of
/// distinct live phases; if every class sits in its own phase the cap is
/// left violated rather than corrupting the schedule. Returns the number of
/// merges performed.
fn enforce_class_cap<P: FairProtocol>(
    cohorts: &mut Vec<Cohort<P>>,
    kernel: &mut CohortKernel,
    cap: usize,
) -> u64 {
    let mut merges = 0u64;
    while cohorts.len() > cap {
        let n = cohorts.len();
        let (keys, order) = sorted_cohort_order(cohorts, kernel);
        let mut gaps: Vec<f64> = order
            .windows(2)
            .filter(|pair| keys[pair[0]].0 == keys[pair[1]].0)
            .map(|pair| kernel.track_divergence(pair[0], pair[1]))
            .collect();
        if gaps.is_empty() {
            // Every live class is alone in its phase: nothing is mergeable.
            break;
        }
        // The (n - cap)-th smallest adjacent divergence admits at least
        // that many adjacent pairs; until the scan's first merge every
        // failing follower becomes the next representative, so the first
        // admitted adjacent pair always merges — each round strictly
        // shrinks the class count.
        gaps.sort_unstable_by(f64::total_cmp);
        let need = (n - cap).min(gaps.len());
        // One-ulp headroom: `relative_gap` is a quotient and `tracks_close`
        // re-multiplies, so without the nudge the threshold pair can fail
        // its own admission test and leave the cap violated by one. Zero
        // gaps (bit-equal tracks) stay exactly zero.
        let threshold = gaps[need - 1] * (1.0 + 4.0 * f64::EPSILON);
        let merged = merge_converged_cohorts(cohorts, kernel, threshold);
        if merged == 0 {
            break;
        }
        merges += merged;
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_adversary::{AdversaryModel, AdversaryScenario};
    use mac_channel::ArrivalModel;
    use mac_prob::stats::StreamingStats;

    fn cohort(kind: ProtocolKind) -> CohortSimulator {
        CohortSimulator::new(kind, RunOptions::default())
    }

    fn ofa() -> ProtocolKind {
        ProtocolKind::OneFailAdaptive { delta: 2.72 }
    }

    #[test]
    fn empty_instance_completes_immediately() {
        let run = cohort(ofa()).run(0, 1).unwrap();
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
            let run = cohort(kind.clone()).run(500, 11).unwrap();
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
        assert!(sim.run(10, 0).is_err());
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
        let run = CohortSimulator::new(ofa(), options).run(8, 3).unwrap();
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
    fn aggressive_merge_tolerance_still_completes_with_sane_statistics() {
        // A large tolerance forces approximate merges; the run must stay
        // well-formed (complete, balanced accounting) and land in the same
        // makespan ballpark as the law-exact engine. The oracle is the fair
        // protocol that keeps delivering under heavily overlapping arrivals
        // (One-fail Adaptive's BT track deadlocks there — see DESIGN.md §6).
        let model = ArrivalModel::Poisson {
            rate: 2.0,
            horizon: 200,
        };
        let schedule = model.sample(&mut Xoshiro256pp::seed_from_u64(8));
        let kind = ProtocolKind::KnownKOracle;
        let mut exact_tol = StreamingStats::new();
        let mut loose_tol = StreamingStats::new();
        let mut merged_any = false;
        for seed in 0..20 {
            let a = cohort(kind.clone()).run_schedule(&schedule, seed).unwrap();
            let loose = RunOptions {
                merge_tolerance: 0.05,
                ..RunOptions::default()
            };
            let b = CohortSimulator::new(kind.clone(), loose)
                .run_schedule(&schedule, 1_000 + seed)
                .unwrap();
            assert!(a.result.completed && b.result.completed);
            assert_eq!(
                b.result.makespan,
                b.result.delivered + b.result.collisions + b.result.silent_slots
            );
            merged_any |= b.merges > a.merges;
            exact_tol.push(a.result.makespan as f64);
            loose_tol.push(b.result.makespan as f64);
        }
        assert!(
            merged_any,
            "a 5% tolerance must merge more than bit-equality"
        );
        let tolerance = (6.0 * (exact_tol.std_error() + loose_tol.std_error())).max(30.0);
        assert!(
            (exact_tol.mean() - loose_tol.mean()).abs() < tolerance,
            "approximate merging drifted the makespan: {} vs {}",
            exact_tol.mean(),
            loose_tol.mean()
        );
    }

    #[test]
    fn invalid_merge_tolerances_are_typed_errors() {
        let with_tolerance = |merge_tolerance| {
            let options = RunOptions {
                merge_tolerance,
                ..RunOptions::default()
            };
            CohortSimulator::new(ofa(), options).run(4, 0)
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1] {
            let err = with_tolerance(bad).unwrap_err();
            assert_eq!(err.parameter(), "merge_tolerance", "{bad}");
        }
        // And the happy path still works.
        assert!(with_tolerance(0.01).is_ok());
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

    #[test]
    fn batched_cohort_and_fair_simulators_agree_statistically() {
        // On batched arrivals the cohort engine *is* the aggregate fair
        // engine (one cohort): their makespan distributions must agree.
        let kind = ofa();
        let mut cohort_stats = StreamingStats::new();
        let mut fair_stats = StreamingStats::new();
        for seed in 0..40 {
            cohort_stats.push(cohort(kind.clone()).run(64, seed).unwrap().result.makespan as f64);
            fair_stats.push(
                crate::FairSimulator::new(kind.clone(), RunOptions::default())
                    .run(64, 10_000 + seed)
                    .unwrap()
                    .makespan as f64,
            );
        }
        let tolerance = (4.0 * (cohort_stats.std_error() + fair_stats.std_error())).max(10.0);
        assert!(
            (cohort_stats.mean() - fair_stats.mean()).abs() < tolerance,
            "cohort {} vs fair {}",
            cohort_stats.mean(),
            fair_stats.mean()
        );
    }
}

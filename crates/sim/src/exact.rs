//! Exact per-station simulator.
//!
//! The exact simulator materialises every station as its own
//! [`mac_protocols::Protocol`] instance and drives the slotted channel one
//! slot at a time: collect every active station's transmission decision,
//! resolve the slot through [`mac_channel::Channel`], hand each station its
//! observation. It is O(active stations) per slot — far too slow for the
//! paper's `k = 10⁷` sweep, but it
//!
//! * works for **any** protocol (fair, window or otherwise) and any arrival
//!   schedule (batched, Poisson, adversarial bursts), so it is the reference
//!   implementation the fast simulators are validated against;
//! * produces per-station detail (arrival and delivery slot of every
//!   message), which the dynamic-arrival experiments need for latency
//!   metrics.
//!
//! The loop is written once, in `StationCore`, with each slot split in two
//! phases: *decide* activates the arrivals due, collects every active
//! station's decision and counts the transmitters; *resolve* runs the
//! channel, fans the observations out and retires the delivered station.
//! [`ExactSimulator`] drives both phases back to back to the end of the
//! run; [`crate::ExactStepper`] is the same core paused between them at
//! every single-transmitter slot, where the strategy search chooses the jam.

use crate::result::{RunOptions, RunResult};
use mac_adversary::{AdversaryGame, ADVERSARY_STREAM};
use mac_channel::trace::Trace;
use mac_channel::{ArrivalSchedule, Channel, ChannelModel, NodeId, SlotResolution};
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_protocols::{
    FairNode, FairProtocol, KindVisitor, ParameterError, Protocol, ProtocolKind, WindowNode,
    WindowSchedule,
};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::iter::Repeat;

/// Per-message detail of an exact run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageOutcome {
    /// Station holding the message.
    pub node: NodeId,
    /// Slot at which the message arrived (0 for batched instances).
    pub arrival_slot: u64,
    /// Slot at which the message was delivered, if it was delivered before
    /// the slot cap.
    pub delivered_slot: Option<u64>,
    /// Number of times the station transmitted (its radio *energy* cost —
    /// the quantity that matters for the sensor-network motivation of the
    /// paper's introduction).
    pub transmissions: u64,
}

impl MessageOutcome {
    /// Delivery latency in slots (delivery − arrival), if delivered.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_slot.map(|d| d - self.arrival_slot)
    }
}

/// The result of an exact run: the usual [`RunResult`] plus per-message
/// detail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedRun {
    /// Aggregate result, identical in shape to the fast simulators' output.
    pub result: RunResult,
    /// Per-message arrival/delivery detail, indexed by station.
    pub messages: Vec<MessageOutcome>,
    /// Bounded per-slot trace of channel activity, recorded when the
    /// simulator was built with [`ExactSimulator::with_trace`].
    pub trace: Option<Trace>,
}

impl DetailedRun {
    /// Latencies (delivery − arrival) of all delivered messages, in slots.
    pub fn latencies(&self) -> Vec<u64> {
        self.messages.iter().filter_map(|m| m.latency()).collect()
    }

    /// Total number of transmissions performed by all stations (the total
    /// radio energy spent by the network).
    pub fn total_transmissions(&self) -> u64 {
        self.messages.iter().map(|m| m.transmissions).sum()
    }

    /// Mean number of transmissions per message (`None` for empty
    /// instances); the per-station energy cost of the protocol.
    pub fn mean_transmissions(&self) -> Option<f64> {
        if self.messages.is_empty() {
            None
        } else {
            Some(self.total_transmissions() as f64 / self.messages.len() as f64)
        }
    }

    /// Largest number of transmissions performed by any single station.
    pub fn max_transmissions(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| m.transmissions)
            .max()
            .unwrap_or(0)
    }
}

/// Exact per-station simulator.
///
/// # Example
/// ```
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{ExactSimulator, RunOptions};
///
/// let sim = ExactSimulator::new(ProtocolKind::ExpBackonBackoff { delta: 0.366 }, RunOptions::default());
/// let run = sim.run(64, 3).unwrap();
/// assert!(run.completed);
/// assert_eq!(run.delivered, 64);
/// ```
#[derive(Debug, Clone)]
pub struct ExactSimulator {
    kind: ProtocolKind,
    options: RunOptions,
    model: ChannelModel,
    trace_capacity: Option<usize>,
}

impl ExactSimulator {
    /// Creates an exact simulator using the paper's channel model (no
    /// collision detection, immediate acknowledgements).
    pub fn new(kind: ProtocolKind, options: RunOptions) -> Self {
        Self {
            kind,
            options,
            model: ChannelModel::without_collision_detection(),
            trace_capacity: None,
        }
    }

    /// Overrides the channel capability model (e.g. to experiment with
    /// collision detection).
    pub fn with_model(mut self, model: ChannelModel) -> Self {
        self.model = model;
        self
    }

    /// Records a bounded per-slot trace (the most recent `capacity` slots)
    /// into [`DetailedRun::trace`] — jammed slots are flagged, which is how
    /// the examples make adversary activity visible.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Runs a batched (static k-selection) instance and returns the aggregate
    /// result.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid.
    pub fn run(&self, k: u64, seed: u64) -> Result<RunResult, ParameterError> {
        let schedule = ArrivalSchedule::new(vec![0; k as usize]);
        Ok(self.run_schedule(&schedule, seed)?.result)
    }

    /// Runs a batched instance and additionally records the slot index of
    /// every jammed would-be delivery (the adversary's *effective* jams:
    /// slots in which exactly one station transmitted and the jam turned the
    /// delivery into a collision).
    ///
    /// The returned slot list, replayed as an
    /// [`mac_adversary::AdversaryModel::ScheduledJam`] on the same seed,
    /// reproduces this run bit-identically: deterministic jam models consume
    /// no randomness from either stream, and jamming already-contended slots
    /// is observably inert. The strategy search uses this to turn a searched
    /// incumbent into a replayable certificate.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid.
    pub fn run_logging_jams(
        &self,
        k: u64,
        seed: u64,
    ) -> Result<(RunResult, Vec<u64>), ParameterError> {
        let schedule = ArrivalSchedule::new(vec![0; k as usize]);
        let mut log = Vec::new();
        let run = self.run_schedule_inner(&schedule, seed, Some(&mut log))?;
        Ok((run.result, log))
    }

    /// Runs an instance with an arbitrary arrival schedule and returns
    /// per-message detail.
    ///
    /// The protocol kind is visited **once** into a monomorphic
    /// instantiation of the station loop, so the per-station
    /// `decide`/`observe` calls inline instead of going through virtual
    /// dispatch `O(active stations)` times per slot.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid.
    pub fn run_schedule(
        &self,
        schedule: &ArrivalSchedule,
        seed: u64,
    ) -> Result<DetailedRun, ParameterError> {
        self.run_schedule_inner(schedule, seed, None)
    }

    fn run_schedule_inner(
        &self,
        schedule: &ArrivalSchedule,
        seed: u64,
        jam_log: Option<&mut Vec<u64>>,
    ) -> Result<DetailedRun, ParameterError> {
        self.options.validate_adversary()?;
        let run = StationRun {
            sim: self,
            label: self.kind.label(),
            schedule,
            seed,
            jam_log,
        };
        self.kind.visit(schedule.len() as u64, run)
    }

    /// Runs an instance in which every station executes a protocol produced
    /// by `factory` (one fresh instance per message).
    ///
    /// This entry point exists for protocols that are not describable by a
    /// [`ProtocolKind`] — e.g. the collision-detection baseline
    /// [`mac_protocols::CdAdaptive`] — and for experiments that mix custom
    /// per-station behaviour with the standard channel model.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if `factory` reports one.
    pub fn run_schedule_with(
        &self,
        factory: &dyn Fn() -> Result<Box<dyn Protocol>, ParameterError>,
        label: &str,
        schedule: &ArrivalSchedule,
        seed: u64,
    ) -> Result<DetailedRun, ParameterError> {
        self.options.validate_adversary()?;
        // Every station is built up front: building one draws no
        // randomness, so building it before its arrival slot changes
        // nothing, and a failing factory surfaces before the run starts.
        // `Box<dyn Protocol>` implements `Protocol` by forwarding, so the
        // generic loop covers the dynamic case too (with virtual dispatch —
        // custom factories are not on the benchmarked path).
        let stations = (0..schedule.len())
            .map(|_| factory())
            .collect::<Result<Vec<_>, _>>()?;
        let mut core = StationCore::new(self, stations.into_iter(), schedule, seed);
        core.run_to_end(None);
        Ok(core.into_detailed(label))
    }
}

/// The station loop of one exact run, one slot at a time in two phases:
/// [`StationCore::decide_slot`] then [`StationCore::resolve_slot`].
///
/// Generic over the concrete station type so that `decide`/`observe`
/// inline. Active stations are stored contiguously (message index + state);
/// a delivered station is retired with an O(1) `swap_remove`. The resulting
/// iteration order differs from arrival order after the first delivery,
/// which is distributionally irrelevant: the decisions consume i.i.d.
/// uniforms, so permuting the order in which stations draw permutes nothing
/// observable.
#[derive(Clone)]
pub(crate) struct StationCore<Pr, I> {
    /// Fresh stations, one per message, taken in arrival order.
    stations: I,
    active: Vec<(u32, Pr)>,
    /// The decided slot's transmission flags by active position, written by
    /// index and never cleared: at k stations per slot, per-push
    /// bookkeeping here is measurable.
    transmitted: Vec<bool>,
    /// The decided slot's transmitter count.
    transmitters: u64,
    /// Active position of the decided slot's sole transmitter, or
    /// `usize::MAX` unless exactly one station transmitted and the slot is
    /// still unresolved.
    sole_position: usize,
    /// Per-message detail; message `i` is station `i`, activated at its
    /// arrival slot.
    messages: Vec<MessageOutcome>,
    activated: usize,
    rng: Xoshiro256pp,
    channel: Channel,
    model: ChannelModel,
    seed: u64,
    max_slots: u64,
    remaining: u64,
    makespan: u64,
    delivery_slots: Option<Vec<u64>>,
}

impl<Pr: Protocol, I: Iterator<Item = Pr>> StationCore<Pr, I> {
    /// The loop state at slot 0 of a run of `sim` over `schedule`, before
    /// any station is activated.
    pub(crate) fn new(
        sim: &ExactSimulator,
        stations: I,
        schedule: &ArrivalSchedule,
        seed: u64,
    ) -> Self {
        let k = schedule.len();
        // The adversary lives inside the channel and draws from its own
        // derived stream; with a clean scenario the channel — and the
        // protocol RNG consumption — is bit-identical to the pre-adversary
        // simulator.
        let mut channel = Channel::new(sim.model).with_adversary(
            sim.options
                .adversary
                .state(derive_seed(seed, &[ADVERSARY_STREAM])),
        );
        if let Some(capacity) = sim.trace_capacity {
            channel = channel.with_trace(capacity);
        }
        Self {
            stations,
            active: Vec::new(),
            transmitted: Vec::new(),
            transmitters: 0,
            sole_position: usize::MAX,
            messages: schedule
                .arrival_slots()
                .iter()
                .enumerate()
                .map(|(i, &arrival)| MessageOutcome {
                    node: NodeId(i as u64),
                    arrival_slot: arrival,
                    delivered_slot: None,
                    transmissions: 0,
                })
                .collect(),
            activated: 0,
            // lint:allow(rng-stream-discipline): the protocol stream IS the raw
            // run seed — the contract every committed BENCH_*.json and
            // certificate replays against; only the adversary stream above
            // is derived off it.
            rng: Xoshiro256pp::seed_from_u64(seed),
            channel,
            model: sim.model,
            seed,
            // The per-message budget is granted on top of the arrival
            // horizon.
            max_slots: sim
                .options
                .max_slots(k as u64)
                .saturating_add(schedule.last_arrival().unwrap_or(0)),
            remaining: k as u64,
            makespan: 0,
            delivery_slots: sim.options.record_deliveries.then(|| Vec::with_capacity(k)),
        }
    }

    /// True once every message is delivered or the slot cap is reached.
    fn is_finished(&self) -> bool {
        self.remaining == 0 || self.channel.current_slot() >= self.max_slots
    }

    /// Whether every message has been delivered.
    fn completed(&self) -> bool {
        self.remaining == 0
    }

    /// The run's makespan: the slot after the last delivery once complete,
    /// else the slots elapsed so far (the cap, once finished).
    fn makespan(&self) -> u64 {
        if self.completed() {
            self.makespan
        } else {
            self.channel.current_slot()
        }
    }

    /// Activates the stations whose message arrives at or before the
    /// current slot.
    pub(crate) fn activate_arrivals(&mut self) {
        let slot = self.channel.current_slot();
        while let Some(message) = self.messages.get(self.activated) {
            if message.arrival_slot > slot {
                break;
            }
            let Some(station) = self.stations.next() else {
                break;
            };
            self.active.push((self.activated as u32, station));
            self.activated += 1;
        }
    }

    /// Phase one of a slot: activates the arrivals due, collects every
    /// active station's decision, and returns the number of transmitters.
    ///
    /// Both phases are force-inlined, so each caller's slot loop compiles
    /// into one function with its per-station loops (measured faster than
    /// two calls per slot).
    #[inline(always)]
    fn decide_slot(&mut self) -> u64 {
        self.activate_arrivals();
        if self.transmitted.len() < self.active.len() {
            self.transmitted.resize(self.active.len(), false);
        }
        // The loop draws from a local copy of the generator, stored back
        // after it: every `decide` borrows the generator, and a borrow of a
        // field of `self` would make the compiler reload the vectors around
        // each call.
        let mut rng = self.rng.clone();
        let mut transmitters = 0u64;
        let mut sole_position = usize::MAX;
        for (pos, (idx, station)) in self.active.iter_mut().enumerate() {
            let transmit = station.decide(&mut rng);
            self.transmitted[pos] = transmit;
            if transmit {
                transmitters += 1;
                sole_position = pos;
                self.messages[*idx as usize].transmissions += 1;
            }
        }
        self.rng = rng;
        self.transmitters = transmitters;
        self.sole_position = if transmitters == 1 {
            sole_position
        } else {
            usize::MAX
        };
        transmitters
    }

    /// Phase two: resolves the decided slot on the channel, hands every
    /// active station its observation and retires the delivered one.
    /// `jam`, when given, decides whether a single-transmitter slot is
    /// jammed in place of the channel's adversary.
    #[inline(always)]
    fn resolve_slot(&mut self, jam: Option<bool>) -> SlotResolution {
        let sole = self
            .active
            .get(self.sole_position)
            .map(|&(idx, _)| NodeId(u64::from(idx)));
        let resolution = self
            .channel
            .resolve_slot_by_count(self.transmitters, sole, jam);
        // The acknowledged transmitter sees the true outcome (ACKs are
        // reliable); everyone else sees the possibly fault-degraded
        // `perceived` outcome.
        let delivered_position = if resolution.delivered.is_some() {
            self.sole_position
        } else {
            usize::MAX
        };
        let (model, transmitted) = (self.model, &self.transmitted);
        for (pos, (_, station)) in self.active.iter_mut().enumerate() {
            let delivered_own = pos == delivered_position;
            let outcome_seen = if delivered_own {
                resolution.outcome
            } else {
                resolution.perceived
            };
            station.observe(model.observe(outcome_seen, transmitted[pos], delivered_own));
        }
        if delivered_position != usize::MAX {
            let idx = self.active[delivered_position].0 as usize;
            self.messages[idx].delivered_slot = Some(resolution.slot);
            self.remaining -= 1;
            self.makespan = resolution.slot + 1;
            if let Some(slots) = self.delivery_slots.as_mut() {
                slots.push(resolution.slot);
            }
            self.active.swap_remove(delivered_position);
        }
        self.sole_position = usize::MAX;
        resolution
    }

    /// Drives both phases to the end of the run. `jam_log`, when provided,
    /// records the slot of every effective jam — a single-transmitter slot
    /// the adversary turned from a delivery into a collision.
    fn run_to_end(&mut self, mut jam_log: Option<&mut Vec<u64>>) {
        while !self.is_finished() {
            self.decide_slot();
            let resolution = self.resolve_slot(None);
            if resolution.jammed && resolution.transmitters == 1 {
                if let Some(log) = jam_log.as_deref_mut() {
                    log.push(resolution.slot);
                }
            }
        }
    }

    /// The run's result and per-message detail (capped-run convention
    /// before completion).
    fn into_detailed(self, label: &str) -> DetailedRun {
        let k = self.messages.len() as u64;
        let stats = self.channel.stats();
        let result = RunResult {
            protocol: label.to_string(),
            k,
            seed: self.seed,
            makespan: self.makespan(),
            completed: self.completed(),
            delivered: k - self.remaining,
            collisions: stats.collisions,
            silent_slots: stats.silent_slots,
            jammed_deliveries: stats.jammed_deliveries,
            // Messages whose arrival slot lies at or beyond the cap never
            // had their station created: report them instead of letting a
            // capped dynamic run read as a protocol failure.
            never_activated: (self.messages.len() - self.activated) as u64,
            delivery_slots: self.delivery_slots,
        };
        DetailedRun {
            result,
            trace: self.channel.trace().cloned(),
            messages: self.messages,
        }
    }
}

/// [`crate::ExactStepper`]'s game: the station loop paused between the two
/// phases of every single-transmitter slot, where the strategy search
/// decides the jam in place of an adversary.
impl<Pr: Protocol + Clone + 'static> AdversaryGame for StationCore<Pr, Repeat<Pr>> {
    fn advance_to_single(&mut self) -> Option<u64> {
        while !self.is_finished() {
            let slot = self.channel.current_slot();
            if self.decide_slot() == 1 {
                // A would-be delivery: hand the jam/don't-jam decision to
                // the search.
                return Some(slot);
            }
            // Silent and contended slots hold no non-dominated adversary
            // decision; resolve them internally.
            self.resolve_slot(None);
        }
        None
    }

    fn resolve_single(&mut self, jam: bool) {
        assert!(
            self.sole_position != usize::MAX,
            "no single-transmitter slot is pending"
        );
        self.resolve_slot(Some(jam));
    }

    fn makespan(&self) -> u64 {
        StationCore::makespan(self)
    }

    fn completed(&self) -> bool {
        StationCore::completed(self)
    }

    /// An exact fingerprint of the run's future: the slot clock, the
    /// undelivered count, the pending sole transmitter, the raw RNG state
    /// and every active station's [`Protocol::state_signature`] in active
    /// order — or `None` if a station has no exact signature.
    fn state_key(&self) -> Option<Vec<u64>> {
        let mut key = vec![
            self.channel.current_slot(),
            self.remaining,
            self.sole_position as u64,
        ];
        key.extend(self.rng.state_words());
        for (_, station) in &self.active {
            let signature = station.state_signature()?;
            key.push(signature.len() as u64);
            key.extend(signature);
        }
        Some(key)
    }

    fn clone_game(&self) -> Box<dyn AdversaryGame> {
        Box::new(self.clone())
    }
}

/// [`ExactSimulator::run_schedule`]'s visit: every station is a clone of
/// the visited prototype state (building one draws no randomness), wrapped
/// in its family's per-station adapter.
struct StationRun<'a> {
    sim: &'a ExactSimulator,
    label: String,
    schedule: &'a ArrivalSchedule,
    seed: u64,
    jam_log: Option<&'a mut Vec<u64>>,
}

impl StationRun<'_> {
    fn run<Pr: Protocol + Clone>(self, station: Pr) -> DetailedRun {
        let stations = std::iter::repeat(station);
        let mut core = StationCore::new(self.sim, stations, self.schedule, self.seed);
        core.run_to_end(self.jam_log);
        core.into_detailed(&self.label)
    }
}

impl KindVisitor for StationRun<'_> {
    type Output = DetailedRun;

    fn fair<P: FairProtocol + Clone + 'static>(self, state: P) -> DetailedRun {
        self.run(FairNode::new(state))
    }

    fn window<S: WindowSchedule + Clone + 'static>(self, schedule: S) -> DetailedRun {
        self.run(WindowNode::new(schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_channel::ArrivalModel;
    use mac_prob::stats::StreamingStats;
    use rand::SeedableRng;

    fn exact(kind: ProtocolKind) -> ExactSimulator {
        ExactSimulator::new(kind, RunOptions::default())
    }

    #[test]
    fn empty_instance_completes() {
        let r = exact(ProtocolKind::OneFailAdaptive { delta: 2.72 })
            .run(0, 1)
            .unwrap();
        assert!(r.completed);
        assert_eq!(r.makespan, 0);
    }

    #[test]
    fn every_paper_protocol_solves_small_instances() {
        for kind in ProtocolKind::paper_lineup() {
            for &k in &[1u64, 2, 17, 64] {
                let r = exact(kind.clone()).run(k, 1000 + k).unwrap();
                assert!(r.completed, "{} k={k}", kind.label());
                assert_eq!(r.delivered, k, "{} k={k}", kind.label());
                assert!(r.makespan >= k);
            }
        }
    }

    #[test]
    fn oracle_with_single_station_finishes_in_one_slot() {
        let r = exact(ProtocolKind::KnownKOracle).run(1, 5).unwrap();
        assert_eq!(r.makespan, 1);
    }

    #[test]
    fn detailed_run_reports_latencies_for_batched_arrivals() {
        let sim = exact(ProtocolKind::ExpBackonBackoff { delta: 0.366 });
        let run = sim
            .run_schedule(&ArrivalSchedule::new(vec![0; 32]), 7)
            .unwrap();
        assert!(run.result.completed);
        assert_eq!(run.messages.len(), 32);
        let latencies = run.latencies();
        assert_eq!(latencies.len(), 32);
        // With batched arrivals the latency equals the delivery slot.
        let max_latency = *latencies.iter().max().unwrap();
        assert_eq!(max_latency + 1, run.result.makespan);
    }

    #[test]
    fn transmission_energy_is_tracked_per_station() {
        // A window protocol transmits exactly once per window it
        // participates in, so every delivered station has at least one
        // transmission, and the totals are consistent with the channel's
        // transmission counter implied by collisions + deliveries.
        let sim = exact(ProtocolKind::ExpBackonBackoff { delta: 0.366 });
        let run = sim
            .run_schedule(&ArrivalSchedule::new(vec![0; 40]), 5)
            .unwrap();
        assert!(run.result.completed);
        for message in &run.messages {
            assert!(
                message.transmissions >= 1,
                "a station cannot be delivered without transmitting"
            );
        }
        assert!(run.total_transmissions() >= 40);
        assert!(run.max_transmissions() >= 1);
        let mean = run.mean_transmissions().unwrap();
        assert!(mean >= 1.0);
        // Energy sanity: on average a station should not need more than a few
        // dozen transmissions to get one message through at this size.
        assert!(mean < 50.0, "mean transmissions {mean}");
    }

    #[test]
    fn oracle_energy_is_one_transmission_per_station_on_average_scale() {
        // The known-k oracle transmits with probability 1/m, so the expected
        // number of transmissions per station over the whole run is ≈ e·(1)
        // ... small; mainly we check the plumbing for fair protocols too.
        let sim = exact(ProtocolKind::KnownKOracle);
        let run = sim
            .run_schedule(&ArrivalSchedule::new(vec![0; 30]), 8)
            .unwrap();
        assert!(run.result.completed);
        assert!(run.total_transmissions() >= 30);
        assert!(run.mean_transmissions().unwrap() < 20.0);
    }

    #[test]
    fn staggered_arrivals_are_respected() {
        let sim = exact(ProtocolKind::OneFailAdaptive { delta: 2.72 });
        let schedule = ArrivalSchedule::new(vec![0, 0, 50, 50, 100]);
        let run = sim.run_schedule(&schedule, 9).unwrap();
        assert!(run.result.completed);
        for message in &run.messages {
            let delivered = message.delivered_slot.expect("all delivered");
            assert!(
                delivered >= message.arrival_slot,
                "a message cannot be delivered before it arrives"
            );
        }
        assert!(run.result.makespan > 100, "the last arrival is at slot 100");
    }

    #[test]
    fn capped_run_counts_never_activated_stations() {
        // With a zero slot budget the cap collapses onto the arrival
        // horizon: the trailing arrivals are never activated, and the run
        // must say so instead of reporting them as plain non-deliveries.
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 0,
            ..RunOptions::default()
        };
        let sim = ExactSimulator::new(ProtocolKind::OneFailAdaptive { delta: 2.72 }, options);
        let schedule = ArrivalSchedule::new(vec![0, 0, 300, 300, 300]);
        let run = sim.run_schedule(&schedule, 7).unwrap();
        assert!(!run.result.completed);
        assert_eq!(run.result.never_activated, 3);
        assert!(run.result.delivered <= 2);
        // The unactivated stations hold no per-message detail.
        for message in &run.messages[2..] {
            assert_eq!(message.delivered_slot, None);
            assert_eq!(message.transmissions, 0);
        }
        // A completed run reports zero.
        let completed = exact(ProtocolKind::OneFailAdaptive { delta: 2.72 })
            .run_schedule(&schedule, 7)
            .unwrap();
        assert!(completed.result.completed);
        assert_eq!(completed.result.never_activated, 0);
    }

    #[test]
    fn poisson_arrivals_complete_under_light_load() {
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let schedule = ArrivalModel::Poisson {
            rate: 0.05,
            horizon: 2_000,
        }
        .sample(&mut rng);
        let sim = exact(ProtocolKind::OneFailAdaptive { delta: 2.72 });
        let run = sim.run_schedule(&schedule, 17).unwrap();
        assert!(run.result.completed);
        assert_eq!(run.result.delivered, schedule.len() as u64);
    }

    #[test]
    fn exact_and_fair_simulators_agree_statistically() {
        // Mean makespan of the exact per-station simulator and the O(1)-per-slot
        // fair simulator must agree for a small instance (they sample the same
        // process). 40 replications at k = 24 keep the test fast; the means are
        // compared with a generous 4-sigma-ish tolerance.
        let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let mut exact_stats = StreamingStats::new();
        let mut fair_stats = StreamingStats::new();
        for seed in 0..40 {
            exact_stats.push(exact(kind.clone()).run(24, seed).unwrap().makespan as f64);
            fair_stats.push(
                crate::FairSimulator::new(kind.clone(), RunOptions::default())
                    .run(24, 10_000 + seed)
                    .unwrap()
                    .makespan as f64,
            );
        }
        let tolerance = 4.0 * (exact_stats.std_error() + fair_stats.std_error());
        assert!(
            (exact_stats.mean() - fair_stats.mean()).abs() < tolerance.max(10.0),
            "exact {} vs fair {}",
            exact_stats.mean(),
            fair_stats.mean()
        );
    }

    #[test]
    fn exact_and_window_simulators_agree_statistically() {
        let kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
        let mut exact_stats = StreamingStats::new();
        let mut window_stats = StreamingStats::new();
        for seed in 0..40 {
            exact_stats.push(exact(kind.clone()).run(24, seed).unwrap().makespan as f64);
            window_stats.push(
                crate::WindowSimulator::new(kind.clone(), RunOptions::default())
                    .run(24, 10_000 + seed)
                    .unwrap()
                    .makespan as f64,
            );
        }
        let tolerance = 4.0 * (exact_stats.std_error() + window_stats.std_error());
        assert!(
            (exact_stats.mean() - window_stats.mean()).abs() < tolerance.max(10.0),
            "exact {} vs window {}",
            exact_stats.mean(),
            window_stats.mean()
        );
    }

    #[test]
    fn collision_detection_model_does_not_break_protocols() {
        // The paper's protocols ignore the extra information, but the
        // simulator must accept the richer channel model.
        let sim = exact(ProtocolKind::OneFailAdaptive { delta: 2.72 })
            .with_model(ChannelModel::with_collision_detection());
        let r = sim.run(32, 4).unwrap();
        assert!(r.completed);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sim = exact(ProtocolKind::LoglogIteratedBackoff { r: 2.0 });
        let a = sim.run(50, 123).unwrap();
        let b = sim.run(50, 123).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_factory_runs_the_cd_adaptive_baseline_on_a_cd_channel() {
        use mac_protocols::CdAdaptive;
        // With collision detection the ternary-feedback baseline resolves
        // contention efficiently…
        let sim = ExactSimulator::new(ProtocolKind::KnownKOracle, RunOptions::default())
            .with_model(ChannelModel::with_collision_detection());
        let schedule = ArrivalSchedule::new(vec![0; 100]);
        let run = sim
            .run_schedule_with(
                &|| Ok(Box::new(CdAdaptive::with_default_growth()) as Box<_>),
                "cd-adaptive",
                &schedule,
                3,
            )
            .unwrap();
        assert!(run.result.completed);
        assert_eq!(run.result.protocol, "cd-adaptive");
        assert!(
            run.result.ratio() < 8.0,
            "collision detection should give a small ratio, got {:.2}",
            run.result.ratio()
        );

        // …whereas on the paper's channel (no collision detection) the same
        // protocol receives no usable feedback, never adapts, and cannot
        // finish within a generous cap: exactly the gap the paper's
        // protocols close.
        let blind = ExactSimulator::new(
            ProtocolKind::KnownKOracle,
            RunOptions {
                slot_cap_per_message: 50,
                min_slot_cap: 5_000,
                ..RunOptions::default()
            },
        );
        let stuck = blind
            .run_schedule_with(
                &|| Ok(Box::new(CdAdaptive::with_default_growth()) as Box<_>),
                "cd-adaptive-blind",
                &schedule,
                3,
            )
            .unwrap();
        assert!(
            !stuck.result.completed,
            "without collision detection the baseline must stall (delivered {})",
            stuck.result.delivered
        );
    }
}

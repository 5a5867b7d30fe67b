//! The run accounting every engine core shares.
//!
//! The exact station loop (`crate::exact`), the window core
//! (`crate::window`) and the cohort core (`crate::cohort`, every fair run,
//! batched or dynamic) each drive a different model, but they account for
//! a run the same way: the message count, seed and slot cap, the slot
//! clock and its tally (makespan, collisions, silence, jammed deliveries),
//! the protocol RNG, the adversary's dynamic state, the latency record and
//! the delivery slots. That state lives in one [`RunState`], with one
//! constructor, one delivery step, one [`RunResult`] builder and one codec;
//! each core keeps only its model's state beside it, and resolves its slots
//! itself. The run state is the one owner of the delivery slots, which it
//! records when the options ask for them; they stand beside the latency
//! record, because a dynamic run's latencies are not its delivery slots.
//!
//! A session checkpoint writes the run state once, as one block ahead of
//! the core's own words (see `DESIGN.md` §9). The exact engine has no
//! checkpoint and never calls the codec.

use crate::result::{RunOptions, RunResult};
use mac_adversary::{AdversaryState, ADVERSARY_STREAM};
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use rand::SeedableRng;

/// Cap on up-front buffer reservations sized from `k` (16M entries ≈ 128 MB
/// of `u64`s): beyond this the per-delivery lists grow on demand instead of
/// trusting an absurd `k` with a giant allocation.
const MAX_PREALLOC_ENTRIES: u64 = 1 << 24;

/// An empty per-delivery list with room for the `k` deliveries of a run
/// (up to [`MAX_PREALLOC_ENTRIES`]).
fn preallocated(k: u64) -> Vec<u64> {
    Vec::with_capacity(k.min(MAX_PREALLOC_ENTRIES) as usize)
}

/// Where per-delivery latencies go: an exact in-order vector, a
/// bounded-memory quantile sketch, both or neither.
#[derive(Debug, Clone)]
pub(crate) struct LatencyRecorder {
    pub(crate) exact: Option<Vec<u64>>,
    pub(crate) streaming: Option<StreamingLatencyStats>,
}

impl LatencyRecorder {
    /// Records every latency of a `k`-message run exactly when `exact` is
    /// set, and into `streaming` when given.
    pub(crate) fn new(k: u64, exact: bool, streaming: Option<StreamingLatencyStats>) -> Self {
        Self {
            exact: exact.then(|| preallocated(k)),
            streaming,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, latency: u64) {
        if let Some(exact) = self.exact.as_mut() {
            exact.push(latency);
        }
        if let Some(streaming) = self.streaming.as_mut() {
            streaming.push(latency);
        }
    }

    /// The latency record's words: the exact list present (+ list), the
    /// sketch present (+ sketch).
    pub(crate) fn encode(&self, out: &mut Encoder) {
        match &self.exact {
            Some(exact) => {
                out.put_bool(true);
                out.put_words(exact);
            }
            None => out.put_bool(false),
        }
        match &self.streaming {
            Some(stats) => {
                out.put_bool(true);
                stats.encode(out);
            }
            None => out.put_bool(false),
        }
    }

    pub(crate) fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let exact = if input.take_bool()? {
            Some(input.take_words()?.to_vec())
        } else {
            None
        };
        let streaming = if input.take_bool()? {
            Some(StreamingLatencyStats::decode(input)?)
        } else {
            None
        };
        Ok(Self { exact, streaming })
    }
}

/// The run accounting of one engine run (see the module documentation).
#[derive(Debug, Clone)]
pub(crate) struct RunState {
    pub(crate) k: u64,
    pub(crate) seed: u64,
    pub(crate) max_slots: u64,
    pub(crate) remaining: u64,
    /// The slot clock: slots elapsed since the run began.
    pub(crate) slot: u64,
    pub(crate) makespan: u64,
    pub(crate) collisions: u64,
    pub(crate) silent: u64,
    pub(crate) jammed_deliveries: u64,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) adversary: AdversaryState,
    pub(crate) latencies: LatencyRecorder,
    /// The slot of every delivery, in delivery order, exactly when the
    /// options record deliveries.
    pub(crate) delivery_slots: Option<Vec<u64>>,
}

impl RunState {
    /// The state at slot 0 of a `k`-message run capped at `max_slots`,
    /// under the adversary of `options`, recording delivery slots when
    /// `options` asks for them.
    pub(crate) fn new(
        k: u64,
        seed: u64,
        max_slots: u64,
        options: &RunOptions,
        latencies: LatencyRecorder,
    ) -> Self {
        Self {
            k,
            seed,
            max_slots,
            remaining: k,
            slot: 0,
            makespan: 0,
            collisions: 0,
            silent: 0,
            jammed_deliveries: 0,
            // lint:allow(rng-stream-discipline): the protocol stream IS the
            // raw run seed — the contract every committed BENCH_*.json and
            // certificate replays against; only auxiliary streams
            // (adversary, arrivals, sketch) are derived off it.
            rng: Xoshiro256pp::seed_from_u64(seed),
            // The adversary draws from its own derived stream, so the
            // protocol RNG is consumed identically whether or not an
            // adversary is configured.
            adversary: options
                .adversary
                .state(derive_seed(seed, &[ADVERSARY_STREAM])),
            latencies,
            delivery_slots: options.record_deliveries.then(|| preallocated(k)),
        }
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.k - self.remaining
    }

    /// True once every message is delivered or the slot cap is reached.
    pub(crate) fn is_finished(&self) -> bool {
        self.remaining == 0 || self.slot >= self.max_slots
    }

    /// One message delivered in the current slot, `latency` slots after it
    /// arrived.
    #[inline]
    pub(crate) fn deliver(&mut self, latency: u64) {
        self.remaining -= 1;
        self.makespan = self.slot + 1;
        self.record(self.slot, latency);
    }

    /// Records one delivery in `slot`, `latency` slots after its message
    /// arrived, in the delivery slots and the latency record. The window
    /// core, which settles a window's counts in one step, records each of
    /// its deliveries here.
    #[inline]
    pub(crate) fn record(&mut self, slot: u64, latency: u64) {
        if let Some(slots) = self.delivery_slots.as_mut() {
            slots.push(slot);
        }
        self.latencies.push(latency);
    }

    /// The run's aggregate result. Valid at any point: before the run
    /// completes, the makespan reads `unfinished_makespan` (the capped-run
    /// convention of the engine).
    pub(crate) fn result(
        &self,
        label: &str,
        unfinished_makespan: u64,
        never_activated: u64,
    ) -> RunResult {
        let completed = self.remaining == 0;
        RunResult {
            protocol: label.to_string(),
            k: self.k,
            seed: self.seed,
            makespan: if completed {
                self.makespan
            } else {
                unfinished_makespan
            },
            completed,
            delivered: self.delivered(),
            collisions: self.collisions,
            silent_slots: self.silent,
            jammed_deliveries: self.jammed_deliveries,
            never_activated,
            delivery_slots: self.delivery_slots.clone(),
        }
    }

    /// Writes the whole run state: the message count, seed and slot cap,
    /// the remaining count, the slot clock and its tally (makespan,
    /// collisions, silent, jammed), the protocol RNG's 4 words, the
    /// adversary's words, the latency record and, when the options record
    /// deliveries, the delivery slots.
    pub(crate) fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.k);
        out.put_u64(self.seed);
        out.put_u64(self.max_slots);
        out.put_u64(self.remaining);
        out.put_u64(self.slot);
        out.put_u64(self.makespan);
        out.put_u64(self.collisions);
        out.put_u64(self.silent);
        out.put_u64(self.jammed_deliveries);
        for w in self.rng.state_words() {
            out.put_u64(w);
        }
        self.adversary.encode(out);
        self.latencies.encode(out);
        if let Some(slots) = &self.delivery_slots {
            out.put_words(slots);
        }
    }

    /// Inverse of [`RunState::encode`]. `options` must be the run's
    /// original options.
    ///
    /// # Errors
    /// [`WireError::Malformed`] for a state no run reaches: more messages
    /// remaining than the run has, or a tally that `check_tally` rejects.
    pub(crate) fn decode(input: &mut Decoder<'_>, options: &RunOptions) -> Result<Self, WireError> {
        let k = input.take_u64()?;
        let seed = input.take_u64()?;
        let max_slots = input.take_u64()?;
        let mut run = Self::new(
            k,
            seed,
            max_slots,
            options,
            LatencyRecorder::new(k, false, None),
        );
        run.remaining = input.take_u64()?;
        if run.remaining > k {
            return Err(WireError::Malformed(
                "more messages remain than the run has",
            ));
        }
        run.slot = input.take_u64()?;
        run.makespan = input.take_u64()?;
        run.collisions = input.take_u64()?;
        run.silent = input.take_u64()?;
        run.jammed_deliveries = input.take_u64()?;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = input.take_u64()?;
        }
        run.rng = Xoshiro256pp::from_state_words(rng);
        run.adversary.decode(input)?;
        run.latencies = LatencyRecorder::decode(input)?;
        if let Some(slots) = run.delivery_slots.as_mut() {
            slots.extend_from_slice(input.take_words()?);
        }
        run.check_tally()?;
        Ok(run)
    }

    /// The tally every run keeps at every pause: each elapsed slot is
    /// silent, a collision (a jammed delivery among them) or a delivery,
    /// the last delivery lies within the elapsed slots, and every delivery
    /// record holds one entry per delivery. The engines count up from
    /// these, so a state outside them could overflow a count mid-run.
    fn check_tally(&self) -> Result<(), WireError> {
        let delivered = self.delivered();
        let tallied = self
            .silent
            .checked_add(self.collisions)
            .and_then(|busy| busy.checked_add(delivered));
        if tallied != Some(self.slot) {
            return Err(WireError::Malformed(
                "silent slots, collisions and deliveries do not add up to the slot clock",
            ));
        }
        if self.jammed_deliveries > self.collisions {
            return Err(WireError::Malformed(
                "more jammed deliveries than collisions",
            ));
        }
        if self.makespan > self.slot {
            return Err(WireError::Malformed("makespan past the slot clock"));
        }
        let recorded = [
            self.latencies.exact.as_ref().map(|list| list.len() as u64),
            self.latencies
                .streaming
                .as_ref()
                .map(StreamingLatencyStats::count),
            self.delivery_slots.as_ref().map(|list| list.len() as u64),
        ];
        if recorded
            .into_iter()
            .flatten()
            .any(|count| count != delivered)
        {
            return Err(WireError::Malformed(
                "a delivery record holds another count than the deliveries",
            ));
        }
        Ok(())
    }
}

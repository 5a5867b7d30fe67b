//! The run accounting every engine core shares.
//!
//! The exact station loop (`crate::exact`), the window core
//! (`crate::window`) and the cohort core (`crate::cohort`, every fair run,
//! batched or dynamic) each drive a different model, but they account for
//! a run the same way: the message count, seed and slot cap, the slot
//! clock and its tally (makespan, collisions, silence, jammed deliveries),
//! the protocol RNG, the adversary's dynamic state and the latency record.
//! That state lives in one [`RunState`], with one constructor, one
//! delivery step, one [`RunResult`] builder and one codec; each core keeps
//! only its model's state beside it, and resolves its slots itself.
//!
//! A session checkpoint writes the run state once, as one block ahead of
//! the core's own words (see `DESIGN.md` §9). The exact engine has no
//! checkpoint and never calls the codec.

use crate::result::RunResult;
use mac_adversary::{AdversaryScenario, AdversaryState, ADVERSARY_STREAM};
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
pub(crate) fn preallocated(k: u64) -> Vec<u64> {
    Vec::with_capacity(k.min(MAX_PREALLOC_ENTRIES) as usize)
}

/// Where per-delivery latencies go: an exact in-order vector, a
/// bounded-memory quantile sketch, both or neither. A batched run's
/// latency is its delivery slot, so the window core keeps its recorded
/// delivery slots in the exact half; the cohort core keeps them apart,
/// because a dynamic run's latencies are not its delivery slots.
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

    /// The latency record's words, the last part of the run state's block.
    pub(crate) fn encode(&self, out: &mut Encoder) {
        encode_optional_slots(self.exact.as_deref(), out);
        match &self.streaming {
            Some(stats) => {
                out.put_bool(true);
                stats.encode(out);
            }
            None => out.put_bool(false),
        }
    }

    pub(crate) fn decode(input: &mut Decoder<'_>) -> Result<Self, WireError> {
        let exact = decode_optional_slots(input)?;
        let streaming = if input.take_bool()? {
            Some(StreamingLatencyStats::decode(input)?)
        } else {
            None
        };
        Ok(Self { exact, streaming })
    }
}

/// Shared codec for an optional per-delivery slot list.
pub(crate) fn encode_optional_slots(slots: Option<&[u64]>, out: &mut Encoder) {
    match slots {
        Some(slots) => {
            out.put_bool(true);
            out.put_words(slots);
        }
        None => out.put_bool(false),
    }
}

/// Inverse of [`encode_optional_slots`].
pub(crate) fn decode_optional_slots(
    input: &mut Decoder<'_>,
) -> Result<Option<Vec<u64>>, WireError> {
    if input.take_bool()? {
        Ok(Some(input.take_words()?.to_vec()))
    } else {
        Ok(None)
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
}

impl RunState {
    /// The state at slot 0 of a `k`-message run capped at `max_slots`.
    pub(crate) fn new(
        k: u64,
        seed: u64,
        max_slots: u64,
        scenario: &AdversaryScenario,
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
            adversary: scenario.state(derive_seed(seed, &[ADVERSARY_STREAM])),
            latencies,
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
        delivery_slots: Option<&[u64]>,
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
            delivery_slots: delivery_slots.map(<[u64]>::to_vec),
        }
    }

    /// Writes the whole run state: the message count, seed and slot cap,
    /// the remaining count, the slot clock and its tally (makespan,
    /// collisions, silent, jammed), the protocol RNG's 4 words, the
    /// adversary's words and the latency record.
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
    }

    /// Inverse of [`RunState::encode`]. `scenario` must be the run's
    /// original adversary configuration.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        scenario: &AdversaryScenario,
    ) -> Result<Self, WireError> {
        let k = input.take_u64()?;
        let seed = input.take_u64()?;
        let max_slots = input.take_u64()?;
        let mut run = Self::new(
            k,
            seed,
            max_slots,
            scenario,
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
        Ok(run)
    }
}

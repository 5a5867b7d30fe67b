//! The aggregate slot engine: O(1) — and usually transcendental-free —
//! resolution of homogeneous slots for fair protocols.
//!
//! One slot of a fair protocol with `m` active stations at common
//! probability `p` is resolved by a single binomial classification draw
//! (`T = 0` empty, `T = 1` delivery, `T ≥ 2` collision; see
//! [`mac_prob::binomial`]). This engine adds the two ingredients that make
//! the *whole run* fast, not just each slot O(1):
//!
//! * a **two-line threshold cache** of [`SlotKernel`](mac_prob::binomial::SlotKernel)s.
//!   Fair protocols interleave at most two probability tracks per feedback
//!   event (e.g. One-fail Adaptive's AT/BT parity), and each track either
//!   repeats its probability exactly (BT between deliveries, Log-fails
//!   within a failure window, the oracle always) — a bit-equality cache hit
//!   — or drifts by `O(p/κ̃)` per slot, which the kernel follows with short
//!   Taylor updates. `exp`/`ln` are paid a few times per *delivery* instead
//!   of per slot.
//! * **dead-slot elision**: when `P(T ≤ 1)` underflows to `0.0` (a few
//!   thousand stations at a BT-scale probability already do), no uniform
//!   draw can change the outcome and the collision is recorded without
//!   consuming randomness. In a `k = 10⁶` One-fail Adaptive run, *half* of
//!   all slots (the BT parity) are dead for 98% of the run.
//!
//! The engine is generic over the concrete [`FairProtocol`] so the per-slot
//! protocol calls inline into the loop (no virtual dispatch); the
//! `ProtocolKind::visit` callers instantiate it once per fair state type.
//!
//! ## Resumable core
//!
//! The loop state lives in [`FairEngineCore`]: the monolithic entry point
//! (`crate::run_fast`) constructs a core and drives it to completion in one
//! [`FairEngineCore::advance`] call, while the streaming
//! session layer (`crate::session`) drives the *same* core in bounded
//! bursts with checkpoints in between — so a checkpointed run is
//! bit-identical to an unbroken one by construction, not by a parallel
//! reimplementation. The checkpoint captures every incrementally-maintained
//! quantity verbatim (protocol state words, the RNG, the adversary's
//! dynamic state, both kernel cache lines): rebuilding any of them from
//! their defining parameters would re-anchor the Taylor maintenance and
//! diverge bitwise.
//!
//! ## Contract
//!
//! Distribution-identical to the per-slot trichotomy sampler this replaces
//! (and to the per-station reference): the thresholds are the same
//! probabilities up to a documented `~1e-12` relative tolerance from the
//! incremental maintenance, and skipping dead draws only removes
//! comparisons that could not have succeeded. RNG *streams* differ — see
//! `DESIGN.md` §5 for the distributional-equivalence vs bit-identity
//! contract, and `tests/aggregate_equivalence.rs` for the paired
//! statistical checks against the exact simulator.
//!
//! Adversaries hook in exactly as in the per-slot path: busy-slot jamming
//! needs only the slot class ([`SlotClass::Single`] / contended), which the
//! classification provides, and feedback faults consult only the adversary's
//! own RNG stream.

use crate::result::{RunOptions, RunResult, MAX_PREALLOC_ENTRIES};
use crate::session::SessionEngine;
use mac_adversary::{AdversaryScenario, AdversaryState, SlotClass, ADVERSARY_STREAM};
use mac_prob::binomial::SlotKernelCache;
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::kind::Engine;
use mac_protocols::FairProtocol;
use rand::{Rng, SeedableRng};

/// The complete loop state of one aggregate fair run, advanceable in
/// bounded slot bursts (see the module documentation).
#[derive(Debug)]
pub(crate) struct FairEngineCore<P> {
    state: P,
    k: u64,
    seed: u64,
    max_slots: u64,
    remaining: u64,
    m: f64,
    slot: u64,
    makespan: u64,
    collisions: u64,
    silent: u64,
    jammed_deliveries: u64,
    adversary: AdversaryState,
    adversarial: bool,
    cache: SlotKernelCache,
    rng: Xoshiro256pp,
    delivery_slots: Option<Vec<u64>>,
    stats: Option<StreamingLatencyStats>,
}

impl<P: FairProtocol> FairEngineCore<P> {
    /// Builds the initial loop state — bit-identical to the state the
    /// monolithic runner entered its loop with.
    pub(crate) fn new(state: P, k: u64, seed: u64, options: &RunOptions) -> Self {
        let max_slots = options.max_slots(k);
        // The adversary draws from its own derived stream, so the protocol
        // RNG is consumed identically whether or not an adversary is
        // configured.
        let adversary = options
            .adversary
            .state(derive_seed(seed, &[ADVERSARY_STREAM]));
        let adversarial = adversary.is_active();
        let delivery_slots = options
            .record_deliveries
            .then(|| Vec::with_capacity(k.min(MAX_PREALLOC_ENTRIES) as usize));
        // The two cached probability tracks (see `SlotKernelCache`: exact
        // hit on either line, else the line nearest in *relative*
        // probability moves — the protocols' tracks live at very different
        // scales). Both lines start on the protocol's first probability;
        // the nearest-probability rule sorts the tracks out within the
        // first two slots.
        let p0 = if k > 0 {
            state.transmission_probability()
        } else {
            0.0
        };
        Self {
            state,
            k,
            seed,
            max_slots,
            remaining: k,
            m: k as f64,
            slot: 0,
            makespan: 0,
            collisions: 0,
            silent: 0,
            jammed_deliveries: 0,
            adversary,
            adversarial,
            cache: SlotKernelCache::new(k, p0),
            // lint:allow(rng-stream-discipline): the protocol stream IS the
            // raw run seed — the contract every committed BENCH_*.json and
            // certificate replays against; rerouting through derive_seed
            // would invalidate all of them.
            rng: Xoshiro256pp::seed_from_u64(seed),
            delivery_slots,
            stats: None,
        }
    }

    /// Attaches a streaming latency accumulator, or none (the runs of
    /// `crate::simulate` carry none): every delivery pushes its
    /// slot index (= latency, since batched arrivals happen at slot 0).
    /// Consumes no protocol randomness, so the trajectory is unchanged.
    pub(crate) fn set_streaming_stats(&mut self, stats: Option<StreamingLatencyStats>) {
        self.stats = stats;
    }

    /// Advances up to `budget` slots (fewer if the run finishes first) and
    /// returns the number of slots executed.
    ///
    /// `jam_log`, when provided, records the slot index of every jammed
    /// would-be delivery (the *effective* jams — the only adversary actions
    /// with an observable effect). The log is what the strategy search
    /// replays as a [`mac_adversary::AdversaryModel::ScheduledJam`]
    /// certificate; the logging itself consumes no randomness, so a logged
    /// run is bit-identical to an unlogged one.
    pub(crate) fn advance(&mut self, budget: u64, mut jam_log: Option<&mut Vec<u64>>) -> u64 {
        let mut executed: u64 = 0;
        while self.remaining > 0 && self.slot < self.max_slots && executed < budget {
            let p = self.state.transmission_probability();
            debug_assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
            let line = self.cache.select(self.m, p);

            let mut delivered = false;
            if line.is_dead() {
                // Certain collision at f64 resolution: no draw can fall
                // below the thresholds, so none is consumed.
                self.collisions += 1;
                if self.adversarial {
                    // Jamming an already-contended slot changes nothing but
                    // a reactive jammer's budget.
                    self.adversary.jams_slot(self.slot, SlotClass::Contended);
                }
            } else {
                let thresholds = line.thresholds();
                let u = self.rng.gen::<f64>();
                let is_delivery = u >= thresholds.t0 && u < thresholds.t1;
                if !self.adversarial {
                    // Branchless silence/collision split: only the (rarer)
                    // delivery takes a data-dependent branch.
                    self.silent += u64::from(u < thresholds.t0);
                    self.collisions += u64::from(u >= thresholds.t1);
                    if is_delivery {
                        self.remaining -= 1;
                        self.m -= 1.0;
                        self.makespan = self.slot + 1;
                        if let Some(slots) = self.delivery_slots.as_mut() {
                            slots.push(self.slot);
                        }
                        if let Some(stats) = self.stats.as_mut() {
                            stats.push(self.slot);
                        }
                        delivered = true;
                    }
                } else if is_delivery {
                    if self.adversary.jams_slot(self.slot, SlotClass::Single) {
                        // The jam destroys the delivery: the transmitter
                        // stays active and the slot reads as a collision.
                        self.collisions += 1;
                        self.jammed_deliveries += 1;
                        if let Some(log) = jam_log.as_deref_mut() {
                            log.push(self.slot);
                        }
                    } else {
                        self.remaining -= 1;
                        self.m -= 1.0;
                        self.makespan = self.slot + 1;
                        if let Some(slots) = self.delivery_slots.as_mut() {
                            slots.push(self.slot);
                        }
                        if let Some(stats) = self.stats.as_mut() {
                            stats.push(self.slot);
                        }
                        // Acknowledgements are reliable; only the broadcast
                        // feedback to the remaining stations can be lost.
                        delivered = !self.adversary.misses_delivery();
                    }
                } else if u >= thresholds.t1 {
                    self.adversary.jams_slot(self.slot, SlotClass::Contended);
                    self.collisions += 1;
                } else {
                    self.silent += 1;
                }
            }
            self.state.advance(delivered);
            self.slot += 1;
            executed += 1;
        }
        executed
    }

    /// Serialises the full loop state. Returns `false` (leaving the encoder
    /// untouched beyond the attempt) if the protocol does not support state
    /// extraction.
    pub(crate) fn encode(&self, out: &mut Encoder) -> bool {
        let Some(protocol_words) = self.state.checkpoint_words() else {
            return false;
        };
        out.put_u64(self.k);
        out.put_u64(self.seed);
        out.put_u64(self.max_slots);
        out.put_u64(self.remaining);
        out.put_f64(self.m);
        out.put_u64(self.slot);
        out.put_u64(self.makespan);
        out.put_u64(self.collisions);
        out.put_u64(self.silent);
        out.put_u64(self.jammed_deliveries);
        out.put_words(&protocol_words);
        for w in self.rng.state_words() {
            out.put_u64(w);
        }
        for w in self.adversary.state_words() {
            out.put_u64(w);
        }
        self.cache.encode(out);
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

    /// Rebuilds a core from [`FairEngineCore::encode`]d words whose leading
    /// `k` the caller has already read. `state` is a fresh protocol built
    /// for that `k` (its incremental state is then overwritten verbatim from
    /// the checkpoint), and `scenario` must be the run's original adversary
    /// configuration.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        k: u64,
        mut state: P,
        scenario: &AdversaryScenario,
    ) -> Result<Self, WireError> {
        let seed = input.take_u64()?;
        let max_slots = input.take_u64()?;
        let remaining = input.take_u64()?;
        let m = input.take_f64()?;
        let slot = input.take_u64()?;
        let makespan = input.take_u64()?;
        let collisions = input.take_u64()?;
        let silent = input.take_u64()?;
        let jammed_deliveries = input.take_u64()?;
        let protocol_words = input.take_words()?;
        let mut rng_words = [0u64; 4];
        for w in &mut rng_words {
            *w = input.take_u64()?;
        }
        let mut adversary_words = [0u64; 6];
        for w in &mut adversary_words {
            *w = input.take_u64()?;
        }
        let cache = SlotKernelCache::decode(input)?;
        let delivery_slots = decode_optional_slots(input)?;
        let stats = if input.take_bool()? {
            Some(StreamingLatencyStats::decode(input)?)
        } else {
            None
        };

        if !state.restore_words(protocol_words) {
            return Err(WireError::Malformed("protocol state words rejected"));
        }
        let mut adversary = scenario.state(0);
        if !adversary.restore_state_words(&adversary_words) {
            return Err(WireError::Malformed("adversary state words rejected"));
        }
        let adversarial = adversary.is_active();
        Ok(Self {
            state,
            k,
            seed,
            max_slots,
            remaining,
            m,
            slot,
            makespan,
            collisions,
            silent,
            jammed_deliveries,
            adversary,
            adversarial,
            cache,
            rng: Xoshiro256pp::from_state_words(rng_words),
            delivery_slots,
            stats,
        })
    }
}

impl<P: FairProtocol + 'static> SessionEngine for FairEngineCore<P> {
    fn engine(&self) -> Engine {
        Engine::Fair
    }
    fn advance(&mut self, max_slots: u64, jam_log: Option<&mut Vec<u64>>) {
        self.advance(max_slots, jam_log);
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
    /// Batched runs activate every station at slot 0, so the backlog
    /// equals `remaining`.
    fn backlog(&self) -> u64 {
        self.remaining
    }
    fn is_finished(&self) -> bool {
        self.remaining == 0 || self.slot >= self.max_slots
    }
    fn streaming_stats(&self) -> Option<&StreamingLatencyStats> {
        self.stats.as_ref()
    }
    /// The run's aggregate result. Valid at any point; before the run
    /// finishes it reports the capped-run convention (`completed = false`,
    /// `makespan = max_slots`) on the slots executed so far.
    fn result(&self, label: &str) -> RunResult {
        let completed = self.remaining == 0;
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
            delivery_slots: self.delivery_slots.clone(),
        }
    }
    fn encode_payload(&self, out: &mut Encoder) -> bool {
        self.encode(out)
    }
}

/// Shared codec for the optional per-delivery slot list the cores carry.
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

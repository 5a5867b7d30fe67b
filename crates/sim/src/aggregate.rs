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
//! The loop state lives in [`FairEngineCore`]: the protocol state, the
//! active count `m` and the kernel cache, beside the run accounting every
//! fast core shares ([`RunState`]: counts, clock, RNG, adversary, latency
//! record). The monolithic entry point (`crate::run_fast`) constructs a
//! core and drives it to completion in one `advance` call, while the
//! streaming session layer (`crate::session`) drives the *same* core in
//! bounded bursts with checkpoints in between — so a checkpointed run is
//! bit-identical to an unbroken one by construction, not by a parallel
//! reimplementation. The checkpoint captures every
//! incrementally-maintained quantity verbatim (protocol state words, the
//! RNG, the adversary's dynamic state, both kernel cache lines): rebuilding
//! any of them from their defining parameters would re-anchor the Taylor
//! maintenance and diverge bitwise.
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
//! classification provides, and the missed-delivery fault consults only the
//! adversary's own RNG stream.

use crate::result::{RunOptions, RunResult};
use crate::run_state::{LatencyRecorder, RunState};
use crate::session::{Engine, SessionEngine};
use mac_adversary::SlotClass;
use mac_prob::binomial::SlotKernelCache;
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::wire::{Decoder, Encoder, WireError};
use mac_protocols::FairProtocol;
use rand::Rng;

/// The complete loop state of one aggregate fair run, advanceable in
/// bounded slot bursts (see the module documentation).
#[derive(Debug)]
pub(crate) struct FairEngineCore<P> {
    run: RunState,
    state: P,
    /// The active count, `run.remaining` as `f64` (kept beside it so the
    /// slot loop converts nothing; checkpoints write only `remaining`).
    m: f64,
    adversarial: bool,
    cache: SlotKernelCache,
}

impl<P: FairProtocol> FairEngineCore<P> {
    /// Builds the initial loop state — bit-identical to the state the
    /// monolithic runner entered its loop with. `stats`, when given,
    /// receives every delivery's slot index (= latency, since batched
    /// arrivals happen at slot 0); it consumes no protocol randomness, so
    /// the trajectory is unchanged.
    pub(crate) fn new(
        state: P,
        k: u64,
        seed: u64,
        options: &RunOptions,
        stats: Option<StreamingLatencyStats>,
    ) -> Self {
        let latencies = LatencyRecorder::new(k, options.record_deliveries, stats);
        let run = RunState::new(k, seed, options.max_slots(k), &options.adversary, latencies);
        let adversarial = run.adversary.is_active();
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
            run,
            state,
            m: k as f64,
            adversarial,
            cache: SlotKernelCache::new(k, p0),
        }
    }

    /// Rebuilds a core from [`SessionEngine::encode`]d words around its
    /// decoded run state `run`. `state` is a fresh protocol built for the
    /// run's `k` (its incremental state is then overwritten verbatim from
    /// the checkpoint). The active count `m` is rebuilt from the remaining
    /// count, which it always equals.
    pub(crate) fn decode(
        input: &mut Decoder<'_>,
        run: RunState,
        mut state: P,
    ) -> Result<Self, WireError> {
        if !state.restore_words(input.take_words()?) {
            return Err(WireError::Malformed("protocol state words rejected"));
        }
        let cache = SlotKernelCache::decode(input)?;
        let adversarial = run.adversary.is_active();
        Ok(Self {
            m: run.remaining as f64,
            run,
            state,
            adversarial,
            cache,
        })
    }
}

impl<P: FairProtocol + 'static> SessionEngine for FairEngineCore<P> {
    fn engine(&self) -> Engine {
        Engine::Fair
    }
    fn run_state(&self) -> &RunState {
        &self.run
    }
    /// Advances up to `budget` slots (fewer if the run finishes first).
    ///
    /// `jam_log`, when provided, records the slot index of every jammed
    /// would-be delivery (the *effective* jams — the only adversary actions
    /// with an observable effect). The log is what the strategy search
    /// replays as a [`mac_adversary::AdversaryModel::ScheduledJam`]
    /// certificate; the logging itself consumes no randomness, so a logged
    /// run is bit-identical to an unlogged one.
    fn advance(&mut self, budget: u64, mut jam_log: Option<&mut Vec<u64>>) {
        let run = &mut self.run;
        let mut executed: u64 = 0;
        while run.remaining > 0 && run.slot < run.max_slots && executed < budget {
            let p = self.state.transmission_probability();
            debug_assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
            let line = self.cache.select(self.m, p);

            let mut delivered = false;
            if line.is_dead() {
                // Certain collision at f64 resolution: no draw can fall
                // below the thresholds, so none is consumed.
                run.collisions += 1;
                if self.adversarial {
                    // Jamming an already-contended slot changes nothing but
                    // a reactive jammer's budget.
                    run.adversary.jams_slot(run.slot, SlotClass::Contended);
                }
            } else {
                let thresholds = line.thresholds();
                let u = run.rng.gen::<f64>();
                let is_delivery = u >= thresholds.t0 && u < thresholds.t1;
                if !self.adversarial {
                    // Branchless silence/collision split: only the (rarer)
                    // delivery takes a data-dependent branch.
                    run.silent += u64::from(u < thresholds.t0);
                    run.collisions += u64::from(u >= thresholds.t1);
                    if is_delivery {
                        self.m -= 1.0;
                        run.deliver(run.slot);
                        delivered = true;
                    }
                } else if is_delivery {
                    if run.adversary.jams_slot(run.slot, SlotClass::Single) {
                        // The jam destroys the delivery: the transmitter
                        // stays active and the slot reads as a collision.
                        run.collisions += 1;
                        run.jammed_deliveries += 1;
                        if let Some(log) = jam_log.as_deref_mut() {
                            log.push(run.slot);
                        }
                    } else {
                        self.m -= 1.0;
                        run.deliver(run.slot);
                        // Acknowledgements are reliable; only the broadcast
                        // feedback to the remaining stations can be lost.
                        delivered = !run.adversary.misses_delivery();
                    }
                } else if u >= thresholds.t1 {
                    run.adversary.jams_slot(run.slot, SlotClass::Contended);
                    run.collisions += 1;
                } else {
                    run.silent += 1;
                }
            }
            self.state.advance(delivered);
            run.slot += 1;
            executed += 1;
        }
    }
    /// Batched runs activate every station at slot 0, so the backlog
    /// equals `remaining`.
    fn backlog(&self) -> u64 {
        self.run.remaining
    }
    /// The run's aggregate result. Valid at any point; before the run
    /// finishes it reports the capped-run convention (`completed = false`,
    /// `makespan = max_slots`) on the slots executed so far.
    fn result(&self, label: &str) -> RunResult {
        let recorded = self.run.latencies.exact.as_deref();
        self.run.result(label, self.run.max_slots, 0, recorded)
    }
    /// Writes the protocol state words and both kernel cache lines.
    fn encode(&self, out: &mut Encoder) {
        out.put_words(&self.state.checkpoint_words());
        self.cache.encode(out);
    }
}

//! Fast simulator for fair protocols under batched arrivals.
//!
//! A *fair* protocol has every active station transmit with the same
//! probability `p_t` in slot `t`, where `p_t` is a function of public
//! information only (the slot number and the sequence of deliveries so far).
//! Under a batched arrival all stations start in the same state, observe the
//! same channel, and therefore hold identical state forever; the only
//! per-station randomness is the independent Bernoulli(`p_t`) transmission
//! decision.
//!
//! Consequently the slot outcome depends only on the number `m` of active
//! stations: the number of transmitters is `T ~ Binomial(m, p_t)`, and the
//! slot is a delivery iff `T = 1` (the delivered station being a uniformly
//! random active one), silent iff `T = 0`, and a collision otherwise. A
//! batched instance is thus one *cohort* that arrives at slot 0, and the
//! simulator runs it on the cohort engine (`crate::cohort`), whose
//! single-cohort stretch resolves each slot from one binomial
//! classification draw: O(1) work per slot regardless of `m`, with cached
//! incrementally-maintained thresholds so that a typical slot costs a
//! handful of arithmetic operations and certain collisions cost no
//! randomness at all. This is what makes the paper's `k = 10⁷` data points
//! affordable.
//!
//! The equivalence with the per-station simulator is exact in distribution
//! (same stochastic process, marginalised over station identities — see
//! `DESIGN.md` §2 and §5); the integration tests check it statistically, and
//! `mac-prob`'s unit tests check the thresholds against the explicit
//! binomial.

use crate::result::{RunOptions, RunResult};
use mac_protocols::{ParameterError, ProtocolFamily, ProtocolKind};

/// Fast simulator for every fair protocol kind ([`ProtocolFamily::Fair`]:
/// One-fail Adaptive and its randomised-parity variant, Log-fails Adaptive,
/// the known-k oracle) on a batched instance.
///
/// # Example
/// ```
/// use mac_protocols::ProtocolKind;
/// use mac_sim::{FairSimulator, RunOptions};
///
/// let sim = FairSimulator::new(ProtocolKind::OneFailAdaptive { delta: 2.72 }, RunOptions::default());
/// let result = sim.run(500, 1).unwrap();
/// assert!(result.completed);
/// assert_eq!(result.delivered, 500);
/// // Theorem 1's linear factor is 2(δ+1) ≈ 7.44; the average ratio observed
/// // in the paper is ≈ 7.4, so a single run stays well under 12.
/// assert!(result.ratio() < 12.0);
/// ```
#[derive(Debug, Clone)]
pub struct FairSimulator {
    kind: ProtocolKind,
    options: RunOptions,
}

impl FairSimulator {
    /// Creates a simulator for the given protocol kind.
    pub fn new(kind: ProtocolKind, options: RunOptions) -> Self {
        Self { kind, options }
    }

    /// Runs one batched instance with `k` messages.
    ///
    /// The protocol kind is visited into a monomorphic instantiation of the
    /// cohort engine, so the per-slot protocol calls inline into the hot
    /// loop.
    ///
    /// # Errors
    /// Returns a [`ParameterError`] if the protocol parameters are invalid or
    /// the kind is not a fair protocol.
    pub fn run(&self, k: u64, seed: u64) -> Result<RunResult, ParameterError> {
        self.run_inner(k, seed, None)
    }

    /// Runs one batched instance and additionally records the slot index of
    /// every jammed would-be delivery (the adversary's *effective* jams).
    ///
    /// The returned slot list, replayed as an
    /// [`mac_adversary::AdversaryModel::ScheduledJam`] on the same seed,
    /// reproduces this run bit-identically: deterministic jam models consume
    /// no randomness from either stream, and jamming already-contended slots
    /// is observably inert. The strategy search uses this to turn a searched
    /// incumbent into a replayable certificate. The logging itself consumes
    /// no randomness, so a logged run is bit-identical to an unlogged one.
    ///
    /// # Errors
    /// Same conditions as [`FairSimulator::run`].
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
        if self.kind.family() != ProtocolFamily::Fair {
            return Err(ParameterError::new(
                "protocol",
                f64::NAN,
                "FairSimulator requires a fair protocol kind; window kinds run on WindowSimulator",
            ));
        }
        crate::run_fast(&self.kind, k, seed, &self.options, jam_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_prob::stats::StreamingStats;

    fn run(kind: ProtocolKind, k: u64, seed: u64) -> RunResult {
        FairSimulator::new(kind, RunOptions::default())
            .run(k, seed)
            .unwrap()
    }

    #[test]
    fn empty_instance_completes_immediately() {
        let r = run(ProtocolKind::OneFailAdaptive { delta: 2.72 }, 0, 1);
        assert!(r.completed);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn single_message_is_delivered_quickly() {
        let r = run(ProtocolKind::OneFailAdaptive { delta: 2.72 }, 1, 2);
        assert!(r.completed);
        assert_eq!(r.delivered, 1);
        // A single station transmits with probability ≥ 1/(δ+1) ≈ 0.27 (AT)
        // and 1 (first BT step), so this finishes within a handful of slots.
        assert!(r.makespan <= 64, "makespan {}", r.makespan);
    }

    #[test]
    fn one_fail_adaptive_delivers_all_messages() {
        let kinds = [
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
        ];
        for (kind, k) in kinds
            .iter()
            .flat_map(|kind| [10u64, 100, 1000].map(|k| (kind, k)))
        {
            let r = run(kind.clone(), k, k);
            assert!(r.completed, "{} k={k}", kind.label());
            assert_eq!(r.delivered, k);
            assert!(r.makespan >= k, "at least one slot per message");
            assert_eq!(
                r.makespan,
                r.delivered + r.collisions + r.silent_slots,
                "slot accounting must balance at the makespan"
            );
        }
    }

    #[test]
    fn log_fails_adaptive_delivers_all_messages() {
        for &xi_t in &[0.5, 0.1] {
            let r = run(
                ProtocolKind::LogFailsAdaptive {
                    xi_delta: 0.1,
                    xi_beta: 0.1,
                    xi_t,
                },
                500,
                7,
            );
            assert!(r.completed);
            assert_eq!(r.delivered, 500);
        }
    }

    #[test]
    fn oracle_ratio_is_close_to_e() {
        let mut stats = StreamingStats::new();
        for seed in 0..20 {
            let r = run(ProtocolKind::KnownKOracle, 2_000, seed);
            assert!(r.completed);
            stats.push(r.ratio());
        }
        // E[slots/message] for the oracle is ≈ e ≈ 2.718; 20 runs at k = 2000
        // concentrate tightly around it.
        assert!(
            (stats.mean() - std::f64::consts::E).abs() < 0.15,
            "oracle mean ratio {}",
            stats.mean()
        );
    }

    #[test]
    fn one_fail_ratio_matches_paper_constant_at_moderate_k() {
        // Table 1 reports a ratio of ≈ 7.4 for k ≥ 10³; allow generous slack
        // for a small number of replications.
        let mut stats = StreamingStats::new();
        for seed in 0..10 {
            let r = run(ProtocolKind::OneFailAdaptive { delta: 2.72 }, 5_000, seed);
            assert!(r.completed);
            stats.push(r.ratio());
        }
        assert!(
            (stats.mean() - 7.44).abs() < 0.8,
            "One-fail Adaptive mean ratio {} (expected ≈ 7.4)",
            stats.mean()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
        let a = run(kind.clone(), 300, 99);
        let b = run(kind.clone(), 300, 99);
        assert_eq!(a, b);
        let c = run(kind, 300, 100);
        assert!(
            a.makespan != c.makespan || a.collisions != c.collisions,
            "different seeds should give different trajectories"
        );
    }

    #[test]
    fn rejects_window_protocols() {
        let sim = FairSimulator::new(
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            RunOptions::default(),
        );
        assert!(sim.run(10, 0).is_err());
    }

    #[test]
    fn delivery_slots_are_recorded_when_requested() {
        let sim = FairSimulator::new(
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            RunOptions::recording_deliveries(),
        );
        let r = sim.run(50, 3).unwrap();
        let slots = r.delivery_slots.expect("recording was requested");
        assert_eq!(slots.len(), 50);
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(*slots.last().unwrap() + 1, r.makespan);
    }

    #[test]
    fn incomplete_run_is_reported_when_cap_is_tiny() {
        let options = RunOptions {
            slot_cap_per_message: 1,
            min_slot_cap: 10,
            ..RunOptions::default()
        };
        let sim = FairSimulator::new(ProtocolKind::OneFailAdaptive { delta: 2.72 }, options);
        let r = sim.run(1_000, 5).unwrap();
        assert!(!r.completed);
        assert_eq!(r.makespan, 1_000);
        assert!(r.delivered < 1_000);
    }
}

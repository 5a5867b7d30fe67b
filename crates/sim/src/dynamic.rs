//! Dynamic-arrival experiments (the paper's §6 future-work direction).
//!
//! The paper analyses *static* k-selection (all messages arrive at once) and
//! points at the dynamic problem — statistical or adversarial arrivals — as
//! the natural next step, conjecturing that non-monotonic strategies remain
//! promising there. This module provides the measurement side of that
//! extension: it runs any protocol of the crate against a
//! [`mac_channel::ArrivalModel`] and reports latency and throughput metrics
//! instead of just the makespan.
//!
//! Fair protocols are served by the **cohort engine**: a dynamic
//! [`crate::Session`] run to its end with every latency recorded,
//! O(active cohorts) per slot instead of the exact simulator's O(active
//! stations), which is what makes Poisson/burst experiments at `k = 10⁵`
//! and beyond affordable. Window protocols (whose per-slot decisions are
//! not independent Bernoulli trials) fall back to the exact per-station
//! engine.

use crate::exact::ExactSimulator;
use crate::result::{RunOptions, RunResult};
use crate::session::Session;
use mac_channel::ArrivalModel;
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sketch::StreamingLatencyStats;
use mac_prob::stats::percentile_sorted_u64;
use mac_protocols::{ParameterError, ProtocolKind};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Derivation-path constant for the arrival-schedule RNG stream: the
/// schedule is sampled with `derive_seed(seed, &[ARRIVAL_STREAM])`, so two
/// protocols evaluated with the same seed see the same arrival pattern.
/// The session layer ([`crate::session`]) uses the same constant to stay
/// stream-identical to [`simulate_dynamic`].
pub const ARRIVAL_STREAM: u64 = 0xA11;

/// Derivation-path constant for the protocol-run RNG stream (independent of
/// the arrival stream by construction).
pub const RUN_STREAM: u64 = 0x51A;

/// Rejects an arrival model the samplers cannot draw from: a Poisson rate
/// outside `[0, MAX_POISSON_RATE]` (NaN, negative, infinite, or above 2¹⁶,
/// where a draw is too slow or never ends; see
/// [`mac_prob::sampling::MAX_POISSON_RATE`]), or burst counts whose total
/// overflows `u64` (the `bursts` error carries the total as an `f64`).
pub(crate) fn validate_model(model: &ArrivalModel) -> Result<(), ParameterError> {
    match model {
        _ if model.is_valid() => Ok(()),
        ArrivalModel::Poisson { rate, .. } => Err(ParameterError::new(
            "rate",
            *rate,
            "Poisson arrival rate must lie in [0, MAX_POISSON_RATE = 2^16]",
        )),
        _ => Err(ParameterError::new(
            "bursts",
            model.expected_messages(),
            "burst counts must sum to at most u64::MAX messages",
        )),
    }
}

/// Latency and throughput summary of a dynamic-arrival run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicReport {
    /// Protocol configuration label.
    pub protocol: String,
    /// Number of messages that arrived.
    pub messages: u64,
    /// Number of messages delivered before the slot cap.
    pub delivered: u64,
    /// Slot at which the last delivery happened (or the cap).
    pub makespan: u64,
    /// Mean delivery latency (delivery slot − arrival slot) over delivered
    /// messages.
    pub mean_latency: f64,
    /// Median delivery latency.
    pub p50_latency: f64,
    /// 95th-percentile delivery latency.
    pub p95_latency: f64,
    /// Maximum delivery latency.
    pub max_latency: u64,
    /// Delivered messages per slot over the whole run.
    pub throughput: f64,
    /// Number of would-be deliveries destroyed by jamming (zero on the
    /// ideal channel).
    #[serde(default)]
    pub jammed_deliveries: u64,
    /// Messages whose arrival slot was never reached before the run's slot
    /// cap (see [`RunResult::never_activated`]): a capped run with pending
    /// arrivals is a truncated measurement, not a protocol failure.
    #[serde(default)]
    pub never_activated: u64,
    /// Slot at which a session's livelock watchdog first detected a
    /// zero-delivery stall (`None` when no watchdog was armed or no stall
    /// occurred). On sharded runs this is the earliest stall across
    /// shards. See [`crate::session::StallConfig`].
    #[serde(default)]
    pub stall_detected_at: Option<u64>,
}

impl DynamicReport {
    /// Builds the report from a bounded-memory streaming accumulator
    /// (session runs): mean/max/count are exact, the percentiles carry the
    /// sketch's deterministic rank-error bound
    /// ([`StreamingLatencyStats::rank_error_bound`]).
    pub fn from_streaming(result: &RunResult, stats: &StreamingLatencyStats) -> Self {
        let latency = if stats.count() == 0 {
            (0.0, 0.0, 0.0, 0)
        } else {
            (
                stats.mean(),
                stats.quantile(0.50) as f64,
                stats.quantile(0.95) as f64,
                stats.max(),
            )
        };
        Self::with_latency(result, latency)
    }

    /// Builds the report from an aggregate result and the (unsorted)
    /// integer latencies of its delivered messages.
    ///
    /// All order statistics are computed on the integer slice: the mean via
    /// an exact `u128` sum and `max_latency` straight from the data, so no
    /// latency is round-tripped through `f64` (which above 2⁵³ would
    /// silently round — the old bug this module carried). A run with zero
    /// deliveries reports all-zero latency statistics.
    pub fn from_parts(result: &RunResult, mut latencies: Vec<u64>) -> Self {
        latencies.sort_unstable();
        // split_last carries the non-emptiness proof in the types: the Some
        // arm has the maximum in hand, and the percentile lookups (None only
        // on an empty slice) fall back to it instead of panicking.
        let latency = match latencies.split_last() {
            None => (0.0, 0.0, 0.0, 0),
            Some((&max, _)) => {
                let total: u128 = latencies.iter().map(|&l| u128::from(l)).sum();
                (
                    total as f64 / latencies.len() as f64,
                    percentile_sorted_u64(&latencies, 50.0).unwrap_or(max as f64),
                    percentile_sorted_u64(&latencies, 95.0).unwrap_or(max as f64),
                    max,
                )
            }
        };
        Self::with_latency(result, latency)
    }

    /// The report of `result` with its `(mean, p50, p95, max)` delivery
    /// latency statistics.
    fn with_latency(result: &RunResult, latency: (f64, f64, f64, u64)) -> Self {
        let (mean_latency, p50_latency, p95_latency, max_latency) = latency;
        Self {
            protocol: result.protocol.clone(),
            messages: result.k,
            delivered: result.delivered,
            makespan: result.makespan,
            mean_latency,
            p50_latency,
            p95_latency,
            max_latency,
            throughput: if result.makespan == 0 {
                0.0
            } else {
                result.delivered as f64 / result.makespan as f64
            },
            jammed_deliveries: result.jammed_deliveries,
            never_activated: result.never_activated,
            stall_detected_at: None,
        }
    }
}

/// Runs `kind` against an arrival model and summarises latency/throughput.
///
/// The arrival schedule is sampled from `model` with a seed derived from
/// `seed`, and the protocol run uses an independent derived seed, so two
/// protocols evaluated with the same `seed` see the *same* arrival pattern —
/// which is what a comparison experiment wants.
///
/// Fair protocols run on the cohort engine — the
/// [`Session::dynamic`] session driven to its end, with exact latencies;
/// window protocols run per-station on the exact engine over the sampled
/// schedule. Both paths produce the same report fields, and the cohort path
/// is law-identical to the exact one (enforced by
/// `tests/aggregate_equivalence.rs`).
///
/// # Errors
/// Returns a [`ParameterError`] if the protocol, adversary or arrival-model
/// parameters are invalid.
pub fn simulate_dynamic(
    kind: &ProtocolKind,
    model: &ArrivalModel,
    seed: u64,
    options: &RunOptions,
) -> Result<DynamicReport, ParameterError> {
    if let Some(run) = Session::dynamic_recording(kind, model, seed, options, true)?
        .and_then(Session::into_cohort_run)
    {
        return Ok(DynamicReport::from_parts(&run.result, run.latencies));
    }
    let mut arrival_rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, &[ARRIVAL_STREAM]));
    let schedule = model.sample(&mut arrival_rng);
    let run = ExactSimulator::new(kind.clone(), options.clone())
        .run_schedule(&schedule, derive_seed(seed, &[RUN_STREAM]))?;
    Ok(DynamicReport::from_parts(&run.result, run.latencies()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_model_reduces_to_static_problem() {
        let report = simulate_dynamic(
            &ProtocolKind::OneFailAdaptive { delta: 2.72 },
            &ArrivalModel::batched(64),
            1,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(report.messages, 64);
        assert_eq!(report.delivered, 64);
        assert_eq!(report.max_latency + 1, report.makespan);
        assert!(report.throughput > 0.0 && report.throughput <= 1.0);
        assert!(report.p50_latency <= report.p95_latency);
        assert!(report.p95_latency <= report.max_latency as f64);
        assert_eq!(report.never_activated, 0);
    }

    #[test]
    fn light_poisson_load_has_low_latency() {
        let report = simulate_dynamic(
            &ProtocolKind::OneFailAdaptive { delta: 2.72 },
            &ArrivalModel::Poisson {
                rate: 0.02,
                horizon: 3_000,
            },
            5,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(report.messages, report.delivered);
        // Under 2% load the channel is mostly idle, so latencies stay modest
        // compared with the batched case.
        assert!(
            report.mean_latency < 200.0,
            "mean latency {}",
            report.mean_latency
        );
    }

    #[test]
    fn same_seed_gives_same_arrivals_across_protocols() {
        let model = ArrivalModel::Poisson {
            rate: 0.05,
            horizon: 500,
        };
        let a = simulate_dynamic(
            &ProtocolKind::OneFailAdaptive { delta: 2.72 },
            &model,
            9,
            &RunOptions::default(),
        )
        .unwrap();
        let b = simulate_dynamic(
            &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            &model,
            9,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(a.messages, b.messages, "identical arrival pattern");
    }

    #[test]
    fn zero_deliveries_produce_zero_valued_stats() {
        use mac_adversary::{AdversaryModel, AdversaryScenario};
        // A permanently jammed channel delivers nothing: every latency
        // statistic must be an explicit zero (not NaN, not a fallback).
        let options = RunOptions {
            slot_cap_per_message: 5,
            min_slot_cap: 100,
            adversary: AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
                period: 1,
                burst: 1,
                phase: 0,
            }),
            ..RunOptions::default()
        };
        let report = simulate_dynamic(
            &ProtocolKind::OneFailAdaptive { delta: 2.72 },
            &ArrivalModel::batched(4),
            3,
            &options,
        )
        .unwrap();
        assert_eq!(report.delivered, 0);
        assert_eq!(report.mean_latency, 0.0);
        assert_eq!(report.p50_latency, 0.0);
        assert_eq!(report.p95_latency, 0.0);
        assert_eq!(report.max_latency, 0);
        assert_eq!(report.throughput, 0.0);
        assert!(
            report.jammed_deliveries > 0,
            "the jammer must have destroyed at least one would-be delivery"
        );
    }

    #[test]
    fn bursty_arrivals_are_handled() {
        let report = simulate_dynamic(
            &ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            &ArrivalModel::Bursts {
                bursts: vec![(0, 20), (500, 20), (1_000, 20)],
            },
            13,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(report.messages, 60);
        assert_eq!(report.delivered, 60);
        assert!(report.makespan >= 1_000);
    }

    #[test]
    fn latency_statistics_survive_values_beyond_f64_integer_precision() {
        // Regression: latencies used to round-trip through f64, so a
        // maximum above 2^53 came back rounded. Feed latencies straight
        // into the report builder and check the integer statistics.
        let huge = (1u64 << 60) + 12_345;
        let result = RunResult {
            protocol: "test".into(),
            k: 3,
            seed: 0,
            makespan: huge + 1,
            completed: true,
            delivered: 3,
            collisions: 0,
            silent_slots: 0,
            jammed_deliveries: 0,
            never_activated: 0,
            delivery_slots: None,
        };
        let report = DynamicReport::from_parts(&result, vec![huge, 4, 2]);
        assert_eq!(
            report.max_latency, huge,
            "the maximum must be carried as an exact integer"
        );
        // (huge + 4 + 2) / 3, summed in u128 before the final conversion.
        let expected_mean = ((huge as u128 + 6) as f64) / 3.0;
        assert_eq!(report.mean_latency, expected_mean);
        // Median of [2, 4, huge] is the middle element, exactly.
        assert_eq!(report.p50_latency, 4.0);
    }

    #[test]
    fn even_count_median_interpolates() {
        // Regression for the nearest-rank percentile bug: the median of an
        // even-length latency sample is the midpoint of the middle pair.
        let result = RunResult {
            protocol: "test".into(),
            k: 4,
            seed: 0,
            makespan: 100,
            completed: true,
            delivered: 4,
            collisions: 0,
            silent_slots: 0,
            jammed_deliveries: 0,
            never_activated: 0,
            delivery_slots: None,
        };
        let report = DynamicReport::from_parts(&result, vec![1, 3, 9, 27]);
        assert_eq!(report.p50_latency, 6.0);
        assert_eq!(report.max_latency, 27);
    }

    #[test]
    fn invalid_poisson_rates_are_typed_errors() {
        for rate in [f64::NAN, -0.25, f64::INFINITY] {
            let model = ArrivalModel::Poisson { rate, horizon: 50 };
            for kind in [
                ProtocolKind::OneFailAdaptive { delta: 2.72 },
                ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ] {
                let err = simulate_dynamic(&kind, &model, 1, &RunOptions::default()).unwrap_err();
                assert_eq!(err.parameter(), "rate", "{rate} {}", kind.label());
            }
        }
    }

    #[test]
    fn overflowing_burst_totals_are_typed_errors() {
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, u64::MAX), (1, 1)],
        };
        for kind in [
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ] {
            let err = simulate_dynamic(&kind, &model, 1, &RunOptions::default()).unwrap_err();
            assert_eq!(err.parameter(), "bursts", "{}", kind.label());
        }
    }

    #[test]
    fn capped_run_reports_never_activated_arrivals() {
        // A cap that collapses onto the arrival horizon leaves the trailing
        // burst unactivated; the report must surface it so the run is not
        // misread as a protocol failure.
        let options = RunOptions {
            slot_cap_per_message: 0,
            min_slot_cap: 0,
            ..RunOptions::default()
        };
        let model = ArrivalModel::Bursts {
            bursts: vec![(0, 2), (5_000, 3)],
        };
        for kind in [
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ] {
            let report = simulate_dynamic(&kind, &model, 21, &options).unwrap();
            assert_eq!(
                report.never_activated,
                3,
                "{}: the trailing burst never activates",
                kind.label()
            );
            assert!(report.delivered <= 2);
            assert_eq!(report.messages, 5);
        }
    }
}

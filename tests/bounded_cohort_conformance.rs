//! Bounded-class cohort conformance: the live-class cap (`max_live_cohorts`)
//! forces merges through the measured-divergence schedule in
//! `enforce_class_cap`, at a non-zero tolerance that adopts the
//! majority-weight survivor state. That is an *approximation* of the exact
//! per-station law, so it must pass the same paired-seed law-agreement
//! gates as the unbounded engine (DESIGN.md §5, §12): makespan
//! mean/median/KS against `ExactSimulator` plus pooled-latency KS, on
//! workloads feasible for the exact engine that genuinely exceed the cap.
//!
//! The suite also pins the documented drift ledger of DESIGN.md §12: the
//! periodic merge scan's tolerance (`0.0`, bit-equal tracks only) carries
//! a stated KS budget on the reference workload, and the ledger test fails
//! if the engine ever drifts past it.

use contention_resolution::prelude::*;
use contention_resolution::prob::rng::Xoshiro256pp;
use contention_resolution::prob::stats::conformance::{assert_law_agreement, Conformance};
use contention_resolution::prob::stats::{two_sample_ks_test, StreamingStats};
use rand::SeedableRng;

const REPS: u64 = 60;

/// Cap used by the bounded-mode conformance runs: far below the unbounded
/// peak of the workloads (6 concurrent classes for the clumped bursts), so
/// `enforce_class_cap` fires on every rep that exceeds it.
const CAP: u64 = 3;

/// Bounded-mode line-ups. The clumped bursts land six cohorts on even
/// offsets (all on One-fail Adaptive's AT parity, so the protocol drains
/// them); Randomised-parity One-fail spreads cohorts over a 64-slot parity
/// word, so only the Poisson workload — where same-phase classes recur —
/// is cap-enforceable *and* completable for it.
fn lineups() -> Vec<(&'static str, ArrivalModel, Vec<ProtocolKind>)> {
    vec![
        (
            "clumped-bursts",
            ArrivalModel::Bursts {
                bursts: vec![(0, 12), (2, 12), (4, 12), (6, 12), (8, 12), (10, 12)],
            },
            vec![
                ProtocolKind::OneFailAdaptive { delta: 2.72 },
                ProtocolKind::LogFailsAdaptive {
                    xi_delta: 0.1,
                    xi_beta: 0.1,
                    xi_t: 0.5,
                },
                ProtocolKind::KnownKOracle,
            ],
        ),
        (
            "poisson",
            ArrivalModel::Poisson {
                rate: 0.04,
                horizon: 1_500,
            },
            vec![
                ProtocolKind::OneFailAdaptive { delta: 2.72 },
                ProtocolKind::KnownKOracle,
                ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
            ],
        ),
    ]
}

/// Paired exact-vs-bounded-cohort runs on one sampled schedule per rep
/// (same arrival-seed idiom as `aggregate_equivalence.rs`): returns both
/// makespan sample sets, both pooled latency sets, and the peak live-class
/// count observed across all bounded runs.
#[allow(clippy::type_complexity)]
fn paired_bounded_runs(
    kind: &ProtocolKind,
    model: &ArrivalModel,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, usize) {
    let exact_options = RunOptions::default();
    let bounded_options = RunOptions {
        max_live_cohorts: CAP,
        ..RunOptions::default()
    };
    let mut exact_mk = Vec::new();
    let mut bounded_mk = Vec::new();
    let mut exact_lat = Vec::new();
    let mut bounded_lat = Vec::new();
    let mut peak = 0usize;
    for rep in 0..REPS {
        let mut arrival_rng = Xoshiro256pp::seed_from_u64(7_000 + rep);
        let schedule = model.sample(&mut arrival_rng);
        let exact = ExactSimulator::new(kind.clone(), exact_options.clone())
            .run_schedule(&schedule, rep)
            .unwrap();
        let bounded = CohortSimulator::new(kind.clone(), bounded_options.clone())
            .run_schedule(&schedule, 90_000 + rep)
            .unwrap();
        peak = peak.max(bounded.peak_cohorts);
        exact_mk.push(exact.result.makespan as f64);
        bounded_mk.push(bounded.result.makespan as f64);
        exact_lat.extend(exact.latencies().iter().map(|&l| l as f64));
        bounded_lat.extend(bounded.latencies.iter().map(|&l| l as f64));
    }
    (exact_mk, bounded_mk, exact_lat, bounded_lat, peak)
}

/// Same latency gate as the unbounded equivalence suite: scale-aware mean
/// tolerance plus a conservative two-sample KS level.
fn assert_latency_agreement(exact: &[f64], bounded: &[f64], label: &str) {
    let exact_stats: StreamingStats = exact.iter().copied().collect();
    let bounded_stats: StreamingStats = bounded.iter().copied().collect();
    let tolerance = (4.0 * (exact_stats.std_error() + bounded_stats.std_error())).max(8.0);
    assert!(
        (exact_stats.mean() - bounded_stats.mean()).abs() < tolerance,
        "{label}: exact latency mean {:.1} vs bounded {:.1} (tolerance {:.1})",
        exact_stats.mean(),
        bounded_stats.mean(),
        tolerance
    );
    let ks = two_sample_ks_test(exact, bounded);
    assert!(
        ks.is_consistent_at(1e-4),
        "{label}: latency KS statistic {:.3}, p = {:.2e}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn bounded_mode_matches_exact_law_at_feasible_rates() {
    for (model_name, model, kinds) in lineups() {
        for kind in kinds {
            let label = format!("{} / {model_name} / cap {CAP}", kind.label());
            let (exact_mk, bounded_mk, exact_lat, bounded_lat, peak) =
                paired_bounded_runs(&kind, &model);
            // The cap must genuinely bind on these pinned seeds (every
            // line-up exceeds it unbounded) and must hold afterwards.
            assert!(
                peak <= CAP as usize,
                "{label}: bounded peak {peak} exceeded the cap"
            );
            assert_law_agreement(
                &Conformance::new(1e-3),
                &exact_mk,
                &bounded_mk,
                4.0,
                10.0,
                &label,
            );
            assert_latency_agreement(&exact_lat, &bounded_lat, &label);
        }
    }
}

/// The documented drift ledger of DESIGN.md §12: merge tolerance → KS
/// budget on the reference workload (known-k oracle, Poisson rate 2.0 over
/// a 120-slot horizon — sustained overload, so merge scans genuinely fire).
/// Each entry must keep its tolerance-τ makespan law consistent with the
/// exact per-station law at the stated KS level. **Editing a tolerance in
/// DESIGN.md §12 without re-validating its budget makes this test fail.**
const DRIFT_LEDGER: &[(f64, f64)] = &[(0.0, 1e-3)];

#[test]
fn documented_tolerances_stay_within_their_ks_budgets() {
    let kind = ProtocolKind::KnownKOracle;
    let model = ArrivalModel::Poisson {
        rate: 2.0,
        horizon: 120,
    };
    let reps = 40u64;
    // One exact reference sample set, shared across ledger entries (the
    // exact law does not depend on the cohort merge tolerance).
    let mut exact_mk = Vec::new();
    for rep in 0..reps {
        let mut arrival_rng = Xoshiro256pp::seed_from_u64(7_000 + rep);
        let schedule = model.sample(&mut arrival_rng);
        let exact = ExactSimulator::new(kind.clone(), RunOptions::default())
            .run_schedule(&schedule, rep)
            .unwrap();
        exact_mk.push(exact.result.makespan as f64);
    }
    for &(tolerance, budget) in DRIFT_LEDGER {
        let simulator = CohortSimulator::new(kind.clone(), RunOptions::default());
        let mut cohort_mk = Vec::new();
        for rep in 0..reps {
            let mut arrival_rng = Xoshiro256pp::seed_from_u64(7_000 + rep);
            let schedule = model.sample(&mut arrival_rng);
            let run = simulator.run_schedule(&schedule, 90_000 + rep).unwrap();
            cohort_mk.push(run.result.makespan as f64);
        }
        let ks = two_sample_ks_test(&exact_mk, &cohort_mk);
        assert!(
            ks.is_consistent_at(budget),
            "tolerance {tolerance:e} exceeded its documented KS budget {budget:e}: \
             statistic {:.3}, p = {:.2e}",
            ks.statistic,
            ks.p_value
        );
    }
}

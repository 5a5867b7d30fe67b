//! Aggregate-vs-per-station equivalence: the fast simulators resolve each
//! homogeneous slot from a single binomial classification draw (and batch
//! whole windows); the exact simulator materialises every station. The two
//! must sample the same distribution — this suite checks it with paired
//! seed sets across every homogeneous protocol, on clean and jammed
//! channels and under missed-delivery feedback, using the mean/percentile
//! tolerances and the two-sample Kolmogorov–Smirnov test from
//! `mac_prob::stats`.
//!
//! The fast paths are *distribution*-identical, not stream-identical: see
//! `crates/sim/DESIGN.md` §5 for the contract this suite enforces.

use contention_resolution::prelude::*;
use contention_resolution::prob::stats::conformance::{assert_law_agreement, Conformance};
use contention_resolution::prob::stats::{two_sample_ks_test, StreamingStats};

const K: u64 = 32;
const REPS: u64 = 60;

/// The homogeneous (fair-family) protocol kinds, which the aggregate fair
/// engine serves.
fn fair_kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::OneFailAdaptive { delta: 2.72 },
        ProtocolKind::LogFailsAdaptive {
            xi_delta: 0.1,
            xi_beta: 0.1,
            xi_t: 0.5,
        },
        ProtocolKind::LogFailsAdaptive {
            xi_delta: 0.1,
            xi_beta: 0.1,
            xi_t: 0.1,
        },
        ProtocolKind::KnownKOracle,
        ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
    ]
}

/// The window-family kinds, which the aggregate window walk serves.
fn window_kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
    ]
}

/// Channel scenarios the equivalence must hold under: the ideal channel,
/// two jamming adversaries (the aggregate paths feed the adversary only the
/// slot class, which is exactly what busy-slot jamming needs) and a feedback
/// fault that hides deliveries from the listeners.
fn scenarios() -> Vec<(&'static str, AdversaryScenario)> {
    vec![
        ("clean", AdversaryScenario::clean()),
        (
            "periodic-jam",
            AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
                period: 5,
                burst: 1,
                phase: 0,
            }),
        ),
        (
            "stochastic-noise",
            AdversaryScenario::jamming(AdversaryModel::StochasticNoise { p: 0.1 }),
        ),
        ("missed-deliveries", AdversaryScenario::faulty_feedback(0.3)),
    ]
}

fn exact_makespans(kind: &ProtocolKind, options: &RunOptions, seed_base: u64) -> Vec<f64> {
    (0..REPS)
        .map(|seed| {
            let run = ExactSimulator::new(kind.clone(), options.clone())
                .run(K, seed_base + seed)
                .unwrap();
            assert!(run.completed, "{} did not complete", kind.label());
            run.makespan as f64
        })
        .collect()
}

fn fast_makespans(kind: &ProtocolKind, options: &RunOptions, seed_base: u64) -> Vec<f64> {
    (0..REPS)
        .map(|seed| {
            let run = simulate_with_options(kind, K, seed_base + seed, options).unwrap();
            assert!(run.completed, "{} did not complete", kind.label());
            run.makespan as f64
        })
        .collect()
}

/// Mean (4σ with an absolute floor for tiny makespans), median, and
/// two-sample KS agreement through the shared conformance harness. The KS
/// level is conservative (the suite runs dozens of comparisons; 1e-3 keeps
/// the family-wise false-positive rate low while still catching any real
/// distributional drift).
fn assert_distributions_agree(exact: &[f64], fast: &[f64], label: &str) {
    assert_law_agreement(&Conformance::new(1e-3), exact, fast, 4.0, 10.0, label);
}

#[test]
fn fair_aggregate_matches_exact_across_protocols_and_channels() {
    for kind in fair_kinds() {
        for (scenario_name, scenario) in scenarios() {
            let options = RunOptions::adversarial(scenario);
            let exact = exact_makespans(&kind, &options, 0);
            let fast = fast_makespans(&kind, &options, 50_000);
            assert_distributions_agree(
                &exact,
                &fast,
                &format!("{} / {scenario_name}", kind.label()),
            );
        }
    }
}

#[test]
fn window_aggregate_matches_exact_across_protocols_and_channels() {
    for kind in window_kinds() {
        for (scenario_name, scenario) in scenarios() {
            let options = RunOptions::adversarial(scenario);
            let exact = exact_makespans(&kind, &options, 0);
            let fast = fast_makespans(&kind, &options, 50_000);
            assert_distributions_agree(
                &exact,
                &fast,
                &format!("{} / {scenario_name}", kind.label()),
            );
        }
    }
}

/// Dynamic-arrival workloads for the cohort-vs-exact equivalence: Poisson
/// and adversarial bursts, sized so every protocol of the fair line-up
/// completes on clean and jammed channels. Burst offsets are even on
/// purpose: odd offsets put One-fail Adaptive cohorts on opposite AT/BT
/// parities and the protocol genuinely deadlocks (DESIGN.md §6) — which
/// both engines reproduce, but which makes a completion-asserting test
/// meaningless.
fn dynamic_models() -> Vec<(&'static str, ArrivalModel)> {
    vec![
        (
            "poisson",
            ArrivalModel::Poisson {
                rate: 0.04,
                horizon: 1_500,
            },
        ),
        (
            "bursts",
            ArrivalModel::Bursts {
                bursts: vec![(0, 24), (300, 16), (302, 8), (1_200, 16)],
            },
        ),
    ]
}

/// Paired cohort-vs-exact runs on one schedule: returns per-run makespans
/// of both engines plus their pooled latency samples.
#[allow(clippy::type_complexity)]
fn paired_dynamic_runs(
    kind: &ProtocolKind,
    model: &ArrivalModel,
    options: &RunOptions,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    use contention_resolution::prob::rng::Xoshiro256pp;
    use rand::SeedableRng;

    let mut exact_makespans = Vec::new();
    let mut cohort_makespans = Vec::new();
    let mut exact_latencies = Vec::new();
    let mut cohort_latencies = Vec::new();
    for rep in 0..REPS {
        // Both engines consume the *same* sampled schedule per repetition,
        // with independent protocol seeds.
        let mut arrival_rng = Xoshiro256pp::seed_from_u64(7_000 + rep);
        let schedule = model.sample(&mut arrival_rng);
        let exact = ExactSimulator::new(kind.clone(), options.clone())
            .run_schedule(&schedule, rep)
            .unwrap();
        let cohort = CohortSimulator::new(kind.clone(), options.clone())
            .run_schedule(&schedule, 90_000 + rep)
            .unwrap();
        // Capped runs are legitimate samples of the capped process (a
        // jam-resonance trap can stall One-fail Adaptive on rare schedules
        // — both engines reproduce it) and enter the makespan comparison
        // at the cap; latencies are pooled over delivered messages only.
        exact_makespans.push(exact.result.makespan as f64);
        cohort_makespans.push(cohort.result.makespan as f64);
        exact_latencies.extend(exact.latencies().iter().map(|&l| l as f64));
        cohort_latencies.extend(cohort.latencies.iter().map(|&l| l as f64));
    }
    (
        exact_makespans,
        cohort_makespans,
        exact_latencies,
        cohort_latencies,
    )
}

/// Mean + KS agreement for pooled latency samples. The pooled samples are
/// weakly dependent within a run, so the KS level is conservative; the mean
/// is additionally checked per-sample with a scale-aware tolerance.
fn assert_latency_distributions_agree(exact: &[f64], cohort: &[f64], label: &str) {
    let exact_stats: StreamingStats = exact.iter().copied().collect();
    let cohort_stats: StreamingStats = cohort.iter().copied().collect();
    let tolerance = (4.0 * (exact_stats.std_error() + cohort_stats.std_error())).max(8.0);
    assert!(
        (exact_stats.mean() - cohort_stats.mean()).abs() < tolerance,
        "{label}: exact latency mean {:.1} vs cohort {:.1} (tolerance {:.1})",
        exact_stats.mean(),
        cohort_stats.mean(),
        tolerance
    );
    let ks = two_sample_ks_test(exact, cohort);
    assert!(
        ks.is_consistent_at(1e-4),
        "{label}: latency KS statistic {:.3}, p = {:.2e}",
        ks.statistic,
        ks.p_value
    );
}

#[test]
fn cohort_engine_matches_exact_on_dynamic_arrivals() {
    // The cohort aggregate engine must sample the same law as the exact
    // per-station simulator on dynamic schedules: makespan mean/median/KS
    // plus latency-distribution agreement, across arrival models and
    // channels, for the whole fair line-up.
    for kind in fair_kinds() {
        for (model_name, model) in dynamic_models() {
            for (scenario_name, scenario) in scenarios() {
                let options = RunOptions::adversarial(scenario);
                let label = format!("{} / {model_name} / {scenario_name}", kind.label());
                let (exact_mk, cohort_mk, exact_lat, cohort_lat) =
                    paired_dynamic_runs(&kind, &model, &options);
                assert_distributions_agree(&exact_mk, &cohort_mk, &label);
                assert_latency_distributions_agree(&exact_lat, &cohort_lat, &label);
            }
        }
    }
}

#[test]
fn aggregate_slot_class_totals_match_exact() {
    // Beyond the makespan, the slot-class composition (delivered /
    // collision / silent) of whole runs must agree: compare the aggregate
    // engine's totals with the per-station reference across paired seed
    // sets, as proportions of all simulated slots.
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let options = RunOptions::default();
    let mut totals = [[0u64; 3]; 2];
    for seed in 0..REPS {
        let exact = ExactSimulator::new(kind.clone(), options.clone())
            .run(K, seed)
            .unwrap();
        let fast = simulate_with_options(&kind, K, 50_000 + seed, &options).unwrap();
        for (row, run) in [(0, exact), (1, fast)] {
            totals[row][0] += run.delivered;
            totals[row][1] += run.collisions;
            totals[row][2] += run.silent_slots;
        }
    }
    for (class, pair) in totals[0].iter().zip(&totals[1]).enumerate() {
        let a = *pair.0 as f64;
        let b = *pair.1 as f64;
        let scale = (a + b).max(1.0);
        // Slot-class totals over 60 runs concentrate well within ±10%.
        assert!(
            (a - b).abs() / scale < 0.10,
            "class {class}: exact {a} vs aggregate {b}"
        );
    }
}

#[test]
fn window_walk_slot_class_totals_and_makespans_match_exact() {
    // The rewired window walk (mode-anchored collision sampling, block
    // decomposition, measured dispatch) must stay law-identical to the
    // per-station reference on makespan *and* on the slot-class
    // composition, for both window protocols under every channel scenario:
    // paired seed sets, per-class totals within ±10%, and makespan KS
    // through the shared conformance gate.
    for kind in window_kinds() {
        for (scenario_name, scenario) in scenarios() {
            let options = RunOptions::adversarial(scenario);
            let label = format!("{} / {scenario_name} (slot classes)", kind.label());
            let mut exact_mk = Vec::new();
            let mut fast_mk = Vec::new();
            let mut totals = [[0u64; 3]; 2];
            for seed in 0..REPS {
                let exact = ExactSimulator::new(kind.clone(), options.clone())
                    .run(K, seed)
                    .unwrap();
                let fast = simulate_with_options(&kind, K, 70_000 + seed, &options).unwrap();
                exact_mk.push(exact.makespan as f64);
                fast_mk.push(fast.makespan as f64);
                for (row, run) in [(0, exact), (1, fast)] {
                    totals[row][0] += run.delivered;
                    totals[row][1] += run.collisions;
                    totals[row][2] += run.silent_slots;
                }
            }
            assert_distributions_agree(&exact_mk, &fast_mk, &label);
            for (class, pair) in totals[0].iter().zip(&totals[1]).enumerate() {
                let a = *pair.0 as f64;
                let b = *pair.1 as f64;
                let scale = (a + b).max(1.0);
                assert!(
                    (a - b).abs() / scale < 0.10,
                    "{label}: class {class} exact {a} vs walk {b}"
                );
            }
        }
    }
}

#[test]
fn aggregate_engine_is_deterministic_and_complete_at_scale() {
    // A larger smoke run through every aggregate path (dead-slot elision,
    // kernel drift, window walk shortcut): deterministic per seed, all
    // messages delivered, slot accounting balanced.
    for kind in [
        ProtocolKind::OneFailAdaptive { delta: 2.72 },
        ProtocolKind::ExpBackonBackoff { delta: 0.366 },
    ] {
        let a = simulate(&kind, 50_000, 7).unwrap();
        let b = simulate(&kind, 50_000, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.completed);
        assert_eq!(a.delivered, 50_000);
        assert_eq!(a.makespan, a.delivered + a.collisions + a.silent_slots);
    }
}

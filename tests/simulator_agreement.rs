//! Integration tests validating the fast simulators against the exact
//! per-station simulator and checking determinism / reproducibility of the
//! experiment runner across crates.

use contention_resolution::prelude::*;
use contention_resolution::prob::rng::derive_seed;
use contention_resolution::prob::stats::StreamingStats;

/// Mean and standard error of the makespan over `reps` replications.
fn makespan_stats<F: Fn(u64) -> u64>(reps: u64, run: F) -> StreamingStats {
    let mut stats = StreamingStats::new();
    for seed in 0..reps {
        stats.push(run(seed) as f64);
    }
    stats
}

fn assert_means_agree(a: &StreamingStats, b: &StreamingStats, label: &str) {
    // 4-sigma agreement of the means, with an absolute floor for tiny values.
    let tolerance = (4.0 * (a.std_error() + b.std_error())).max(8.0);
    assert!(
        (a.mean() - b.mean()).abs() < tolerance,
        "{label}: exact mean {:.1} vs fast mean {:.1} (tolerance {:.1})",
        a.mean(),
        b.mean(),
        tolerance
    );
}

#[test]
fn fair_fast_path_matches_exact_simulation_for_one_fail_adaptive() {
    let kind = ProtocolKind::OneFailAdaptive { delta: 2.72 };
    let k = 32;
    let reps = 60;
    let exact = makespan_stats(reps, |seed| {
        ExactSimulator::new(kind.clone(), RunOptions::default())
            .run(k, seed)
            .unwrap()
            .makespan
    });
    let fast = makespan_stats(reps, |seed| {
        simulate(&kind, k, 7_000 + seed).unwrap().makespan
    });
    assert_means_agree(&exact, &fast, "One-fail Adaptive, k=32");
}

#[test]
fn fair_fast_path_matches_exact_simulation_for_log_fails_adaptive() {
    let kind = ProtocolKind::LogFailsAdaptive {
        xi_delta: 0.1,
        xi_beta: 0.1,
        xi_t: 0.5,
    };
    let k = 32;
    let reps = 60;
    let exact = makespan_stats(reps, |seed| {
        ExactSimulator::new(kind.clone(), RunOptions::default())
            .run(k, seed)
            .unwrap()
            .makespan
    });
    let fast = makespan_stats(reps, |seed| {
        simulate(&kind, k, 9_000 + seed).unwrap().makespan
    });
    assert_means_agree(&exact, &fast, "Log-fails Adaptive, k=32");
}

#[test]
fn window_fast_path_matches_exact_simulation_for_ebb_and_llib() {
    for kind in [
        ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
    ] {
        let k = 32;
        let reps = 60;
        let exact = makespan_stats(reps, |seed| {
            ExactSimulator::new(kind.clone(), RunOptions::default())
                .run(k, seed)
                .unwrap()
                .makespan
        });
        let fast = makespan_stats(reps, |seed| {
            simulate(&kind, k, 11_000 + seed).unwrap().makespan
        });
        assert_means_agree(&exact, &fast, &kind.label());
    }
}

#[test]
fn window_fast_path_matches_exact_across_dispatch_bands() {
    // The walk's dispatch table (certain-all-collision shortcut, block
    // decomposition, per-slot mode loops, sparse per-ball tail) is selected
    // per window from (m, w) alone. Protocol runs at these sizes sweep every
    // band a batched run can reach:
    //
    // * k = 24  — tiny windows, certain-collision for w ≤ 4 (λ ≥ 6 with
    //   m = 24... the union bound fires for w = 2), single-block windows,
    //   and the sparse tail once most messages drain;
    // * k = 600 — early windows w ∈ {2, 4, 8} are certain-all-collision
    //   (λ ≥ 75), mid windows land in the tail loop's sampled high-λ band
    //   (w < 4096, λ ∈ (8, ~110)), late windows are blocks and sparse.
    //
    // (The per-slot fused loop's entry band — λ ≥ 48 with w ≥ 4096 —
    // needs m ≥ 200k stations, beyond what a per-station reference can
    // check affordably; `DESIGN.md` §7.3 lists what pins the walk there
    // instead: the exact-law tests in `crates/prob/tests/properties.rs`,
    // where λ and w are set explicitly, the mode sampler's chi-square
    // against its exact conditional pmf, and the walks' per-seed stream
    // identity.)
    for kind in [
        ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
        ProtocolKind::RExponentialBackoff { r: 2.0 },
    ] {
        for &k in &[24u64, 600] {
            let reps = if k >= 600 { 15 } else { 40 };
            let exact = makespan_stats(reps, |seed| {
                ExactSimulator::new(kind.clone(), RunOptions::default())
                    .run(k, 100 + seed)
                    .unwrap()
                    .makespan
            });
            let fast = makespan_stats(reps, |seed| {
                simulate(&kind, k, 13_000 + seed).unwrap().makespan
            });
            assert_means_agree(&exact, &fast, &format!("{} k={k}", kind.label()));
        }
    }
}

#[test]
fn certain_all_collision_windows_deliver_nothing_and_advance_the_clock() {
    // The certain-all-collision shortcut edge: a batched EBB run at k large
    // enough that the whole first phase is hopeless must report every one
    // of those slots as a collision (no deliveries, no silent slots) — and
    // the shortcut must agree with the per-station reference on when the
    // first delivery can possibly happen. Checked structurally: makespan ≥
    // k (one delivery per slot) and collisions + silent + delivered ==
    // makespan hold on both engines, and the fast engine's totals stay
    // within the statistical envelope of the exact one's.
    let kind = ProtocolKind::ExpBackonBackoff { delta: 0.366 };
    let k = 2_000u64;
    let mut exact_collisions = StreamingStats::new();
    let mut fast_collisions = StreamingStats::new();
    for seed in 0..10u64 {
        let exact = ExactSimulator::new(kind.clone(), RunOptions::default())
            .run(k, seed)
            .unwrap();
        let fast = simulate(&kind, k, 40_000 + seed).unwrap();
        for run in [&exact, &fast] {
            assert!(run.completed);
            assert_eq!(
                run.makespan,
                run.delivered + run.collisions + run.silent_slots
            );
        }
        exact_collisions.push(exact.collisions as f64);
        fast_collisions.push(fast.collisions as f64);
    }
    assert_means_agree(
        &exact_collisions,
        &fast_collisions,
        "EBB k=2000 collision totals",
    );
}

#[test]
fn experiment_runner_is_reproducible_and_thread_count_independent() {
    let base = Experiment {
        protocols: vec![
            ProtocolKind::OneFailAdaptive { delta: 2.72 },
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
        ],
        ks: vec![50, 500],
        replications: 3,
        master_seed: 777,
        options: RunOptions::default(),
        threads: 1,
    };
    let single = base.run().unwrap();
    let mut parallel = base.clone();
    parallel.threads = 4;
    assert_eq!(single, parallel.run().unwrap());
}

#[test]
fn exact_engine_and_fast_engine_agree_in_the_runner() {
    let experiment = Experiment {
        protocols: vec![
            ProtocolKind::ExpBackonBackoff { delta: 0.366 },
            ProtocolKind::RandomizedParityOneFail { delta: 2.72 },
        ],
        ks: vec![24],
        replications: 30,
        master_seed: 31,
        options: RunOptions::default(),
        threads: 0,
    };
    let fast = experiment.run().unwrap();
    for (pi, f) in fast.cells.iter().enumerate() {
        // The exact engine on the seeds the runner derives for the same
        // cell under master seed 32.
        let exact = ExactSimulator::new(f.kind.clone(), RunOptions::default());
        let e: StreamingStats = (0..experiment.replications)
            .map(|rep| {
                let seed = derive_seed(32, &[pi as u64, 0, rep]);
                exact.run(f.k, seed).unwrap().makespan as f64
            })
            .collect();
        let tolerance =
            (4.0 * (f.makespan.std_dev + e.std_dev()) / (f.replications as f64).sqrt()).max(8.0);
        assert!(
            (f.makespan.mean - e.mean()).abs() < tolerance,
            "{}: fast {} vs exact {} (tolerance {tolerance:.1})",
            f.protocol,
            f.makespan.mean,
            e.mean()
        );
    }
}

#[test]
fn reports_render_consistently_from_a_real_sweep() {
    let results = Experiment {
        protocols: ProtocolKind::paper_lineup(),
        ks: vec![10, 100],
        replications: 2,
        master_seed: 5,
        options: RunOptions::default(),
        threads: 0,
    }
    .run()
    .unwrap();

    let csv = to_csv(&results);
    assert_eq!(csv.trim().lines().count(), 1 + 5 * 2);

    let table = table1_markdown(&results);
    for label in [
        "One-fail Adaptive",
        "Exp Back-on/Back-off",
        "Loglog-iterated Back-off",
    ] {
        assert!(table.contains(label), "table must contain {label}");
    }
    assert!(
        table.contains("7.4")
            && table.contains("14.9")
            && table.contains("7.8")
            && table.contains("4.4")
    );

    let series = figure1_series(&results);
    assert_eq!(series.matches("# k  mean_steps").count(), 5);
}

//! Criterion benchmark: throughput of the simulation primitives themselves —
//! slot-outcome sampling, whole window-simulator runs and binomial sampling —
//! independent of any particular protocol.
//!
//! Run with `cargo bench -p mac-bench --bench sim_throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mac_prob::outcome::sample_slot_outcome;
use mac_prob::rng::Xoshiro256pp;
use mac_prob::sampling::sample_binomial;
use mac_protocols::ProtocolKind;
use mac_sim::{RunOptions, WindowSimulator};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_slot_outcome(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_outcome_sampling");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &m in &[10u64, 10_000, 10_000_000] {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("stations", m), &m, |bencher, &m| {
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            let p = 1.0 / m as f64;
            bencher.iter(|| black_box(sample_slot_outcome(black_box(m), black_box(p), &mut rng)));
        });
    }
    group.finish();
}

/// One complete window-simulator run (Exp Back-on/Back-off) per iteration:
/// the unit of work behind every Figure 1 data point of the window family.
fn bench_window_simulator_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_simulator_run");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &k in &[100_000u64, 1_000_000] {
        group.throughput(Throughput::Elements(k));
        group.bench_with_input(BenchmarkId::new("ebb", k), &k, |bencher, &k| {
            let sim = WindowSimulator::new(
                ProtocolKind::ExpBackonBackoff { delta: 0.366 },
                RunOptions::default(),
            );
            let mut seed = 0u64;
            bencher.iter(|| {
                seed = seed.wrapping_add(1);
                let result = sim.run(black_box(k), seed).expect("valid parameters");
                assert!(result.completed);
                black_box(result.makespan)
            });
        });
    }
    group.finish();
}

fn bench_binomial_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("binomial_sampler");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &(n, p) in &[(1_000u64, 0.001f64), (1_000_000, 0.000_001)] {
        group.bench_with_input(BenchmarkId::new("n", n), &(n, p), |bencher, &(n, p)| {
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            bencher.iter(|| black_box(sample_binomial(black_box(n), black_box(p), &mut rng)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_slot_outcome,
    bench_window_simulator_run,
    bench_binomial_sampler
);
criterion_main!(benches);

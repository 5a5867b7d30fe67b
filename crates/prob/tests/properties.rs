//! Property-based tests for the probability toolkit.

use mac_prob::balls::{expected_singleton_fraction, walk_window, walk_window_counts, WalkScratch};
use mac_prob::binomial::{sample_binomial_fast, ModeKernel, SlotKernel, SlotThresholds};
use mac_prob::outcome::{sample_slot_outcome, slot_outcome_probabilities, SlotOutcome};
use mac_prob::rng::{derive_seed, Xoshiro256pp};
use mac_prob::sampling::{sample_binomial, sample_geometric, sample_poisson};
use mac_prob::sketch::{QuantileSketch, StreamingLatencyStats};
use mac_prob::special::{binomial_pmf, ln_binomial, ln_factorial};
use mac_prob::stats::{
    chi_square_test, conformance, percentile, two_sample_ks_test, StreamingStats,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Chi-square goodness of fit of a sampler against the exact binomial pmf:
/// draws `reps` samples of `Binomial(n, p)`, bins them through the shared
/// conformance harness (tails pooled at the ≥ 5 expected-count rule), and
/// requires the fit not to be rejected at the 0.1% level.
fn assert_binomial_gof<F: FnMut(&mut Xoshiro256pp) -> u64>(
    n: u64,
    p: f64,
    seed: u64,
    reps: u64,
    mut draw: F,
) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let pmf: Vec<f64> = (0..=n.min(4096)).map(|t| binomial_pmf(n, t, p)).collect();
    let result = conformance::sample_vs_pmf_chi_square(&pmf, reps, || draw(&mut rng));
    conformance::Conformance::new(0.001).assert_consistent(&result, &format!("n={n} p={p}"));
}

#[test]
fn fast_binomial_sampler_passes_chi_square_gof() {
    // Covers CDF inversion (small mean), BTPE (large mean) and the
    // complement path, against the exact log-space pmf.
    for &(n, p, seed) in &[
        (12u64, 0.3f64, 1u64),
        (40, 0.1, 2),
        (300, 0.02, 3),  // inversion, mean 6
        (200, 0.25, 4),  // BTPE, mean 50
        (2000, 0.03, 5), // BTPE, mean 60
        (50, 0.85, 6),   // complement + BTPE
        (1000, 0.5, 7),  // symmetric BTPE
    ] {
        assert_binomial_gof(n, p, seed, 40_000, |rng| sample_binomial_fast(n, p, rng));
    }
}

#[test]
fn reference_and_fast_binomial_samplers_agree() {
    // The independent geometric-skip sampler must pass the same gate on a
    // shared case, tying the two implementations to one distribution.
    let (n, p) = (120u64, 0.05f64);
    assert_binomial_gof(n, p, 11, 40_000, |rng| sample_binomial_fast(n, p, rng));
    assert_binomial_gof(n, p, 12, 40_000, |rng| sample_binomial(n, p, rng));
}

#[test]
fn slot_kernel_classification_passes_chi_square_gof() {
    // One uniform against the kernel's (incrementally maintained)
    // thresholds must reproduce the exact slot trichotomy. Drive the kernel
    // through a drift to the target (m, p) first so the tested thresholds
    // come from the Taylor path, not a fresh anchor.
    let m = 5_000u64;
    let p = 1.0 / 7_000.0;
    let mut kernel = SlotKernel::new(m, 1.0 / 6_500.0);
    let mut kappa = 6_500.0;
    while kappa < 7_000.0 {
        kappa += 1.0;
        kernel.update(m as f64, 1.0 / kappa);
    }
    let exact = SlotThresholds::exact(m, p);
    assert!((kernel.thresholds().t0 - exact.t0).abs() < 1e-11);
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let reps = 120_000u64;
    let mut observed = [0u64; 3];
    for _ in 0..reps {
        match kernel.classify(rng.gen::<f64>()) {
            SlotOutcome::Silence => observed[0] += 1,
            SlotOutcome::Delivery => observed[1] += 1,
            SlotOutcome::Collision => observed[2] += 1,
        }
    }
    let pr = slot_outcome_probabilities(m, p);
    let result = chi_square_test(&observed, &[pr.silence, pr.delivery, pr.collision]);
    assert!(
        result.is_consistent_at(0.001),
        "chi2 = {:.1}, p = {:.2e}",
        result.statistic,
        result.p_value
    );
}

// ---- The window walk against the exact occupancy law ----
//
// `m` balls fall uniformly into `w` bins (Lemma 1's experiment). The oracles
// below are plain `f64` arithmetic written out in this file, so the laws the
// walk is held to share no code with the samplers that produce it.

/// `P(k of r balls land in the next bin)` for `k = 0..=r`, with `left` bins
/// to go: `Binomial(r, 1/left)` by the ratio recurrence.
fn next_bin_pmf(r: usize, left: u64) -> Vec<f64> {
    if left == 1 {
        let mut pmf = vec![0.0; r + 1];
        pmf[r] = 1.0;
        return pmf;
    }
    let p = 1.0 / left as f64;
    let mut term = (r as f64 * (-p).ln_1p()).exp();
    let mut pmf = Vec::with_capacity(r + 1);
    for k in 0..=r {
        pmf.push(term);
        term *= (r - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
    }
    pmf
}

/// Exact pmf of the number of singleton bins, by dynamic programming over
/// the bins: with `r` balls in play and `left` bins to go, the next bin
/// receives `Binomial(r, 1/left)` of them.
fn singleton_count_pmf(m: u64, w: u64) -> Vec<f64> {
    let (m, w_cells) = (m as usize, w as usize + 1);
    // by_left[r][s]: probability that, after the bins resolved so far, r
    // balls are still in play and s of those bins were singletons.
    let mut by_left = vec![vec![0.0f64; w_cells]; m + 1];
    by_left[m][0] = 1.0;
    for left in (1..=w).rev() {
        let mut next = vec![vec![0.0f64; w_cells]; m + 1];
        for (r, row) in by_left.iter().enumerate() {
            let pmf = next_bin_pmf(r, left);
            for (s, &mass) in row.iter().enumerate().filter(|(_, &q)| q > 0.0) {
                for (k, &q) in pmf.iter().enumerate() {
                    next[r - k][s + usize::from(k == 1)] += mass * q;
                }
            }
        }
        by_left = next;
    }
    by_left.swap_remove(0)
}

/// Exact `(mean, variance)` of the singleton, empty and colliding totals of
/// one window, from the one-bin marginal `X_i ~ Binomial(m, 1/w)` and the
/// two-bin marginal (cells `1/w`, `1/w`, `1 − 2/w`) of the multinomial
/// occupancy.
fn class_moments(m: u64, w: u64) -> [(f64, f64); 3] {
    let (m, w) = (m as f64, w as f64);
    let ln_q1 = (-1.0 / w).ln_1p();
    let ln_q2 = (-2.0 / w).ln_1p();
    let p0 = (m * ln_q1).exp();
    let p1 = m / w * ((m - 1.0) * ln_q1).exp();
    let p00 = (m * ln_q2).exp();
    let p10 = m / w * ((m - 1.0) * ln_q2).exp();
    let p11 = m * (m - 1.0) / (w * w) * ((m - 2.0) * ln_q2).exp();
    let pairs = w * (w - 1.0);
    let (singles, empty) = (w * p1, w * p0);
    let var_singles = singles + pairs * p11 - singles * singles;
    let var_empty = empty + pairs * p00 - empty * empty;
    let cov = pairs * p10 - singles * empty;
    [
        (singles, var_singles),
        (empty, var_empty),
        (w - singles - empty, var_singles + var_empty + 2.0 * cov),
    ]
}

/// First position of each tenth of a `w`-bin window, then `w`: bin `t`
/// lies in tenth `10·t/w`.
fn tenth_bounds(w: u64) -> [u64; 11] {
    std::array::from_fn(|b| (b as u64 * w).div_ceil(10))
}

#[test]
fn singleton_count_pmf_is_a_law_with_lemma_one_mean() {
    // The DP oracle itself: a probability law whose mean is Lemma 1's
    // closed form m·(1 − 1/w)^(m−1).
    for &(m, w) in &[
        (1u64, 1u64),
        (3, 1),
        (48, 16),
        (12, 12),
        (64, 16),
        (40, 120),
    ] {
        let pmf = singleton_count_pmf(m, w);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12, "m={m} w={w}");
        let mean: f64 = pmf.iter().enumerate().map(|(s, &q)| s as f64 * q).sum();
        let lemma = m as f64 * expected_singleton_fraction(m, w);
        assert!(
            (mean - lemma).abs() < 1e-9,
            "m={m} w={w}: {mean} vs {lemma}"
        );
    }
}

#[test]
fn walk_singleton_count_passes_chi_square_against_the_exact_pmf() {
    let cases: &[(u64, u64)] = &[(48, 16), (12, 12), (64, 16), (40, 120)];
    let gate = conformance::Conformance::with_comparisons(0.001, cases.len() as u32);
    let mut scratch = WalkScratch::new();
    for &(m, w) in cases {
        let pmf = singleton_count_pmf(m, w);
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(31, &[m, w]));
        let result = conformance::sample_vs_pmf_chi_square(&pmf, 30_000, || {
            walk_window(m, w, &mut rng, &mut scratch).singletons
        });
        gate.assert_consistent(&result, &format!("singleton count m={m} w={w}"));
    }
}

#[test]
fn walk_class_totals_match_the_exact_moments() {
    // Singleton, empty and colliding totals over 400 windows against their
    // exact means and variances: the sparse tail (the first two cases),
    // blocks running into the sparse tail, one whole-window block, two
    // blocks at λ = 1 and two at λ = 5.
    let cases: &[(u64, u64)] = &[
        (100, 5_000),
        (1_024, 16_384),
        (2_000, 16_000),
        (3_000, 1_000),
        (8_192, 8_192),
        (40_960, 8_192),
    ];
    let windows = 400u64;
    let mut scratch = WalkScratch::new();
    for &(m, w) in cases {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(47, &[m, w]));
        let mut totals = [0u64; 3];
        for _ in 0..windows {
            let occ = walk_window_counts(m, w, &mut rng, &mut scratch);
            totals[0] += occ.singletons;
            totals[1] += occ.empty_bins;
            totals[2] += occ.colliding_bins;
        }
        let n = windows as f64;
        for (class, (&total, &(mean, var))) in totals.iter().zip(&class_moments(m, w)).enumerate() {
            let z = (total as f64 - n * mean) / (n * var).sqrt();
            assert!(
                z.abs() < 5.0,
                "m={m} w={w}: class {class} total {total} vs exact mean {:.1} (z = {z:.2})",
                n * mean
            );
        }
    }
}

#[test]
fn walk_last_occupied_bin_matches_the_exact_law() {
    // P(last occupied bin < x) = (x/w)^m, binned in tenths of the window:
    // one whole-window block, then the sparse tail twice.
    let cases: &[(u64, u64)] = &[(5, 40), (30, 2_000), (3, 100_000)];
    let gate = conformance::Conformance::with_comparisons(0.001, cases.len() as u32);
    let mut scratch = WalkScratch::new();
    for &(m, w) in cases {
        let bounds = tenth_bounds(w);
        let below = |x: u64| (x as f64 / w as f64).powi(m as i32);
        let pmf: Vec<f64> = bounds
            .windows(2)
            .map(|b| below(b[1]) - below(b[0]))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(53, &[m, w]));
        let result = conformance::sample_vs_pmf_chi_square(&pmf, 20_000, || {
            let occ = walk_window_counts(m, w, &mut rng, &mut scratch);
            occ.max_occupied_bin.expect("balls were thrown") * 10 / w
        });
        gate.assert_consistent(&result, &format!("last occupied bin m={m} w={w}"));
    }
}

#[test]
fn walk_singleton_positions_fall_evenly_across_the_window() {
    // Every bin is equally likely to hold a singleton, so the detailed
    // walk's singleton list must fill the tenths of the window in
    // proportion to their widths. A block or tail offset that is off
    // shifts mass between tenths.
    let cases: &[(u64, u64)] = &[
        (100, 5_000),
        (2_000, 16_000),
        (8_192, 8_192),
        (40_960, 8_192),
    ];
    let gate = conformance::Conformance::with_comparisons(0.001, cases.len() as u32);
    let mut scratch = WalkScratch::new();
    for &(m, w) in cases {
        let bounds = tenth_bounds(w);
        let widths: Vec<f64> = bounds
            .windows(2)
            .map(|b| (b[1] - b[0]) as f64 / w as f64)
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(59, &[m, w]));
        let mut observed = [0u64; 10];
        for _ in 0..200 {
            walk_window(m, w, &mut rng, &mut scratch);
            for &bin in scratch.singleton_bins() {
                observed[(bin * 10 / w) as usize] += 1;
            }
        }
        let result = chi_square_test(&observed, &widths);
        gate.assert_consistent(&result, &format!("singleton positions m={m} w={w}"));
    }
}

/// Exact conditional pmf of `T | T ≥ 2` for `T ~ Binomial(n, p)`, indexed by
/// value and truncated to `support` cells (the conformance histogram pools
/// the truncated upper tail).
fn conditional_ge2_pmf(n: u64, p: f64, support: u64) -> (Vec<f64>, f64) {
    let t1 = binomial_pmf(n, 0, p) + binomial_pmf(n, 1, p);
    let mass = 1.0 - t1;
    let pmf: Vec<f64> = (0..=support.min(n))
        .map(|t| {
            if t < 2 {
                0.0
            } else {
                binomial_pmf(n, t, p) / mass
            }
        })
        .collect();
    (pmf, mass)
}

#[test]
fn mode_sampler_passes_chi_square_across_lambda_bands() {
    // The mode-anchored conditional sampler against the exact conditional
    // pmf across the λ bands the window walk spans: below the conditioning
    // cut (0.5), the CDF-continuation band (2), the sampling crossover (8),
    // the mid band (50) and beyond the dead-slot boundary (200). One
    // Bonferroni-corrected suite-wide gate at α = 0.001.
    let cases: &[(u64, f64)] = &[
        (2_000, 2.5e-4),     // λ = 0.5
        (8_000, 2.5e-4),     // λ = 2
        (32_000, 2.5e-4),    // λ = 8
        (200_000, 2.5e-4),   // λ = 50
        (2_000_000, 1.0e-4), // λ = 200
    ];
    let gate = conformance::Conformance::with_comparisons(0.001, cases.len() as u32);
    for (case, &(n, p)) in cases.iter().enumerate() {
        let kernel = ModeKernel::new(n, p);
        let (pmf, mass) = conditional_ge2_pmf(n, p, 1024);
        let mut rng = Xoshiro256pp::seed_from_u64(700 + case as u64);
        let reps = 40_000;
        let result = conformance::sample_vs_pmf_chi_square(&pmf, reps, || {
            kernel.sample_cond_ge2(mass * rng.gen::<f64>())
        });
        gate.assert_consistent(&result, &format!("mode sampler n={n} p={p}"));
    }
}

#[test]
fn mode_sampler_passes_chi_square_across_drift_and_reanchor_boundaries() {
    // Drive the kernel along a window-walk-shaped drift (n dropping by ~λ
    // per slot, w shrinking by one) and goodness-of-fit the *drifted* pmf —
    // including checkpoints far past the quartic re-anchor budget, so both
    // the incremental path and the exact re-anchors are exercised.
    let lambda = 24.0f64;
    let mut w = 120_000u64;
    let mut n = (lambda * w as f64) as u64;
    let mut kernel = ModeKernel::new(n, 1.0 / w as f64);
    let mut rng = Xoshiro256pp::seed_from_u64(41);
    let checkpoints = [1u64, 137, 1_000, 5_000, 20_000, 60_000];
    let gate = conformance::Conformance::with_comparisons(0.001, checkpoints.len() as u32);
    let mut step = 0u64;
    for &checkpoint in &checkpoints {
        while step < checkpoint {
            let t = sample_binomial_fast(n, 1.0 / w as f64, &mut rng).max(2);
            n -= t.min(n);
            w -= 1;
            kernel.update(n as f64, 1.0 / w as f64);
            step += 1;
        }
        let (pmf, mass) = conditional_ge2_pmf(n, 1.0 / w as f64, 512);
        let result = conformance::sample_vs_pmf_chi_square(&pmf, 30_000, || {
            kernel.sample_cond_ge2(mass * rng.gen::<f64>())
        });
        gate.assert_consistent(&result, &format!("drift step {checkpoint} (n={n} w={w})"));
    }
}

#[test]
fn detailed_and_counts_only_walks_are_stream_identical() {
    // `walk_window` and `walk_window_counts` differ only in whether the
    // singleton list is kept: per seed they must return the same tallies
    // and leave the generator in the same state, in every resolver regime
    // (edges, dense and sparse blocks, the sparse tail, blocks running into
    // the tail, the per-slot loops and the certain-collision shortcut). The
    // counts-only side reuses one scratch across every case, so a counter
    // window left dirty by an earlier window shows up as a mismatch.
    let cases: &[(u64, u64)] = &[
        (0, 7),
        (1, 5),
        (2, 2),
        (7, 1),
        (48, 16),
        (100, 5_000),
        (12, 100_000),
        (2_000, 16_000),
        (8_192, 8_192),
        (40_960, 8_192),
        (16_384, 512),
        (131_072, 2_048),
        (300_000, 5_000),
        (1_000_000, 4),
    ];
    let mut reused = WalkScratch::new();
    for &(m, w) in cases {
        for seed in 0..20u64 {
            let mut rng_detailed = Xoshiro256pp::seed_from_u64(derive_seed(seed, &[m, w]));
            let mut rng_counts = rng_detailed.clone();
            let detailed = walk_window(m, w, &mut rng_detailed, &mut WalkScratch::new());
            let counts = walk_window_counts(m, w, &mut rng_counts, &mut reused);
            assert_eq!(detailed, counts, "m={m} w={w} seed={seed}");
            assert_eq!(
                rng_detailed, rng_counts,
                "m={m} w={w} seed={seed}: diverged generators"
            );
        }
    }
}

/// Exact rank of `v` in a sorted stream: `|{x : x ≤ v}|`.
fn true_rank(sorted: &[u64], v: u64) -> u64 {
    sorted.partition_point(|&x| x <= v) as u64
}

/// Asserts the sketch's proven ledger against the exact sorted stream: for
/// each probed quantile, the returned value's *true* rank must be within
/// `rank_error_bound()` of the target rank (the defining guarantee), and
/// the estimated rank of arbitrary thresholds must match the exact rank
/// within the same ledger.
fn assert_sketch_within_ledger(sketch: &QuantileSketch, mut sorted: Vec<u64>, label: &str) {
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    assert_eq!(sketch.count(), n, "{label}: count");
    assert_eq!(sketch.min(), sorted.first().copied(), "{label}: min");
    assert_eq!(sketch.max(), sorted.last().copied(), "{label}: max");
    let bound = sketch.rank_error_bound();
    for &q in &[0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let v = sketch.quantile(q).unwrap();
        // A tied value occupies a rank *interval*; the certificate says the
        // target rank is within the ledger of some rank of `v`.
        let lo = sorted.partition_point(|&x| x < v) as u64;
        let hi = true_rank(&sorted, v);
        assert!(
            lo <= target + bound && hi + bound + 1 >= target,
            "{label}: q={q} returned ranks [{lo}, {hi}], target {target}, ledger {bound}"
        );
    }
    // Rank estimates at data-driven thresholds obey the same certificate.
    for &v in sorted.iter().step_by((sorted.len() / 64).max(1)) {
        let est = sketch.estimated_rank(v);
        assert!(
            est.abs_diff(true_rank(&sorted, v)) <= bound,
            "{label}: rank estimate at {v} off by more than the ledger {bound}"
        );
    }
}

#[test]
fn quantile_sketch_ledger_holds_at_scale() {
    // 10⁴ … 10⁶ i.i.d. samples: the deterministic worst-case certificate
    // must hold, and must stay useful (ledger ≤ 2% of the stream at 10⁶
    // with the default capacity).
    for &(n, seed) in &[(10_000u64, 1u64), (100_000, 2), (1_000_000, 3)] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut sketch = QuantileSketch::new(seed ^ 0x5CE7);
        let mut data = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let v = rng.gen_range(0..1_000_000u64);
            sketch.push(v);
            data.push(v);
        }
        assert!(
            sketch.rank_error_bound() * 50 <= n,
            "ledger {} exceeds 2% of n={n}",
            sketch.rank_error_bound()
        );
        assert!(
            sketch.retained_items() < 64 * 1024,
            "sketch memory must stay bounded"
        );
        assert_sketch_within_ledger(&sketch, data, &format!("iid n={n}"));
    }
}

#[test]
fn quantile_sketch_survives_adversarial_orderings() {
    // Compaction must not exploit input order: sorted, reversed,
    // organ-pipe, alternating-extremes and heavily duplicated streams all
    // carry the same certificate.
    let n = 100_000u64;
    let ascending: Vec<u64> = (0..n).collect();
    let descending: Vec<u64> = (0..n).rev().collect();
    let organ_pipe: Vec<u64> = (0..n / 2).chain((0..n / 2).rev()).collect();
    let alternating: Vec<u64> = (0..n).map(|i| if i % 2 == 0 { i } else { n - i }).collect();
    let duplicated: Vec<u64> = (0..n).map(|i| i % 17).collect();
    for (label, data) in [
        ("ascending", ascending),
        ("descending", descending),
        ("organ-pipe", organ_pipe),
        ("alternating", alternating),
        ("duplicated", duplicated),
    ] {
        let mut sketch = QuantileSketch::new(0xADAD);
        for &v in &data {
            sketch.push(v);
        }
        assert_sketch_within_ledger(&sketch, data, label);
    }
}

#[test]
fn sharded_sketch_merge_agrees_with_single_stream() {
    // Round-robin the stream over 8 shard sketches (the sharded driver's
    // shape), merge, and hold the merged ledger against the exact stream.
    // Mean and max stay exact through the merge.
    let n = 200_000u64;
    let shards = 8usize;
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    let mut single = StreamingLatencyStats::new(7);
    let mut parts: Vec<StreamingLatencyStats> = (0..shards)
        .map(|i| StreamingLatencyStats::new(1_000 + i as u64))
        .collect();
    let mut data = Vec::with_capacity(n as usize);
    for i in 0..n {
        let v = rng.gen_range(0..1_000_000u64);
        single.push(v);
        parts[(i as usize) % shards].push(v);
        data.push(v);
    }
    let mut merged = StreamingLatencyStats::new(0);
    for part in &parts {
        merged.merge(part);
    }
    assert_eq!(merged.count(), single.count());
    assert_eq!(merged.max(), single.max());
    assert!(
        (merged.mean() - single.mean()).abs() < 1e-9,
        "mean is exact"
    );
    data.sort_unstable();
    let exact_mean = data.iter().sum::<u64>() as f64 / n as f64;
    assert!((merged.mean() - exact_mean).abs() < 1e-6);
    // Both sketches' quantiles sit within their own ledgers of the exact
    // ranks, so they agree with each other within the summed ledgers.
    let merged_bound = merged.rank_error_bound();
    let single_bound = single.rank_error_bound();
    for &q in &[0.50, 0.95, 0.99] {
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        for (label, v, bound) in [
            ("merged", merged.quantile(q), merged_bound),
            ("single", single.quantile(q), single_bound),
        ] {
            let lo = data.partition_point(|&x| x < v) as u64;
            let hi = true_rank(&data, v);
            assert!(
                lo <= target + bound && hi + bound + 1 >= target,
                "{label}: q={q} ranks [{lo}, {hi}] vs target {target} (ledger {bound})"
            );
        }
    }
}

#[test]
fn sketch_reconstruction_passes_ks_conformance() {
    // Distribution-level check through the shared conformance gate: a
    // sample reconstructed from the sketch's quantile function must be
    // KS-indistinguishable from the original stream.
    let n = 50_000u64;
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let mut sketch = QuantileSketch::new(9);
    let mut data = Vec::with_capacity(n as usize);
    for _ in 0..n {
        // Geometric-flavoured latencies: heavy tail like a backoff run.
        let v = sample_geometric(0.001, &mut rng).min(100_000);
        sketch.push(v);
        data.push(v as f64);
    }
    let m = 2_000usize;
    let reconstructed: Vec<f64> = (0..m)
        .map(|i| sketch.quantile((i as f64 + 0.5) / m as f64).unwrap() as f64)
        .collect();
    let result = two_sample_ks_test(&data, &reconstructed);
    conformance::Conformance::new(0.001).assert_consistent(&result, "sketch reconstruction KS");
}

proptest! {
    #[test]
    fn outcome_probabilities_form_a_distribution(m in 0u64..=10_000_000, p in 0.0f64..=1.0) {
        let pr = slot_outcome_probabilities(m, p);
        prop_assert!(pr.silence >= 0.0 && pr.silence <= 1.0);
        prop_assert!(pr.delivery >= 0.0 && pr.delivery <= 1.0);
        prop_assert!(pr.collision >= 0.0 && pr.collision <= 1.0);
        prop_assert!((pr.silence + pr.delivery + pr.collision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outcome_sample_is_in_support(m in 0u64..=1000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let outcome = sample_slot_outcome(m, p, &mut rng);
        if m == 0 {
            prop_assert_eq!(outcome, SlotOutcome::Silence);
        }
        if m == 1 {
            prop_assert_ne!(outcome, SlotOutcome::Collision);
        }
    }

    #[test]
    fn binomial_sample_is_bounded(n in 0u64..=500, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let x = sample_binomial(n, p, &mut rng);
        prop_assert!(x <= n);
        if p == 0.0 { prop_assert_eq!(x, 0); }
        if p == 1.0 { prop_assert_eq!(x, n); }
    }

    #[test]
    fn geometric_is_finite(p in 0.001f64..=1.0, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let _ = sample_geometric(p, &mut rng);
    }

    #[test]
    fn poisson_is_reasonable(lambda in 0.0f64..=200.0, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let x = sample_poisson(lambda, &mut rng);
        // 200 + 20 sigma is astronomically unlikely to be exceeded.
        prop_assert!((x as f64) < lambda + 20.0 * lambda.sqrt() + 50.0);
    }

    #[test]
    fn expected_singleton_fraction_is_probability(m in 1u64..=1_000_000, w in 1u64..=1_000_000) {
        let f = expected_singleton_fraction(m, w);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn derive_seed_is_pure(master in any::<u64>(), path in prop::collection::vec(any::<u64>(), 0..5)) {
        prop_assert_eq!(derive_seed(master, &path), derive_seed(master, &path));
    }

    #[test]
    fn streaming_stats_mean_is_bounded_by_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: StreamingStats = xs.iter().copied().collect();
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
        prop_assert!(s.ci95().contains(s.mean()));
    }

    #[test]
    fn streaming_stats_merge_matches_sequential(
        xs in prop::collection::vec(-1e3f64..1e3, 0..100),
        ys in prop::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut merged: StreamingStats = xs.iter().copied().collect();
        let right: StreamingStats = ys.iter().copied().collect();
        merged.merge(&right);
        let all: StreamingStats = xs.iter().chain(ys.iter()).copied().collect();
        prop_assert_eq!(merged.count(), all.count());
        prop_assert!((merged.mean() - all.mean()).abs() < 1e-6);
        prop_assert!((merged.variance() - all.variance()).abs() < 1e-4);
    }

    #[test]
    fn percentile_interpolates_within_the_sample_range(xs in prop::collection::vec(-1e3f64..1e3, 1..100), q in 0.0f64..=100.0) {
        // The interpolated percentile is monotone in q and bracketed by the
        // sample extremes (it is an element only at integral ranks).
        let p = percentile(&xs, q).unwrap();
        let lo = xs.iter().copied().reduce(f64::min).unwrap();
        let hi = xs.iter().copied().reduce(f64::max).unwrap();
        prop_assert!(lo <= p && p <= hi);
        prop_assert_eq!(percentile(&xs, 0.0).unwrap(), lo);
        prop_assert_eq!(percentile(&xs, 100.0).unwrap(), hi);
        prop_assert!(percentile(&xs, (q / 2.0).max(0.0)).unwrap() <= p);
    }

    #[test]
    fn ln_binomial_pascal_identity(n in 1u64..60, k in 0u64..60) {
        prop_assume!(k <= n);
        // C(n+1, k+1) = C(n, k) + C(n, k+1), checked in linear space.
        let lhs = ln_binomial(n + 1, k + 1).exp();
        let rhs = ln_binomial(n, k).exp() + ln_binomial(n, k + 1).exp();
        prop_assert!((lhs - rhs).abs() <= 1e-6 * lhs.max(1.0));
    }

    #[test]
    fn ln_factorial_is_monotone(n in 1u64..10_000) {
        prop_assert!(ln_factorial(n) >= ln_factorial(n - 1));
    }

    #[test]
    fn sketch_quantiles_stay_within_the_ledger(
        xs in prop::collection::vec(0u64..1_000_000, 1..3_000),
        seed in any::<u64>(),
        q in 0.0f64..=1.0,
    ) {
        let mut sketch = QuantileSketch::with_capacity(64, seed);
        for &v in &xs {
            sketch.push(v);
        }
        let mut xs = xs;
        xs.sort_unstable();
        let n = xs.len() as u64;
        let bound = sketch.rank_error_bound();
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let v = sketch.quantile(q).unwrap();
        // Tie-aware: the target rank must fall within the ledger of the
        // returned value's rank interval.
        let lo = xs.partition_point(|&x| x < v) as u64;
        let hi = xs.partition_point(|&x| x <= v) as u64;
        prop_assert!(lo <= target + bound && hi + bound + 1 >= target);
        prop_assert_eq!(sketch.min(), xs.first().copied());
        prop_assert_eq!(sketch.max(), xs.last().copied());
    }

    #[test]
    fn sketch_merge_conserves_weight_and_sums_ledgers(
        xs in prop::collection::vec(0u64..1_000, 0..500),
        ys in prop::collection::vec(0u64..1_000, 0..500),
    ) {
        let mut left = QuantileSketch::with_capacity(64, 1);
        for &v in &xs { left.push(v); }
        let mut right = QuantileSketch::with_capacity(64, 2);
        for &v in &ys { right.push(v); }
        let ledgers_before = left.rank_error_bound() + right.rank_error_bound();
        left.merge(&right);
        prop_assert_eq!(left.count(), (xs.len() + ys.len()) as u64);
        // Merging concatenates levels without loss: the ledger only grows
        // by compactions the merge itself triggers.
        prop_assert!(left.rank_error_bound() >= ledgers_before);
        if !xs.is_empty() || !ys.is_empty() {
            let exact_max = xs.iter().chain(ys.iter()).copied().max();
            prop_assert_eq!(left.max(), exact_max);
        }
    }

    #[test]
    fn binomial_pmf_in_unit_interval(n in 0u64..=2000, k in 0u64..=2000, p in 0.0f64..=1.0) {
        let x = binomial_pmf(n, k, p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&x));
    }
}

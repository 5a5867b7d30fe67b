//! Streaming and batch summary statistics.
//!
//! The experiment runner (`mac-sim`) aggregates the makespan of many
//! replicated simulation runs; this module provides the aggregation
//! primitives:
//!
//! * [`StreamingStats`] — single-pass Welford accumulation of count, mean,
//!   variance, min and max; merging two accumulators is supported so that
//!   per-thread partial results can be combined;
//! * [`Summary`] — an immutable snapshot (plus the 95% normal-approximation
//!   confidence interval) that is what gets serialised into result records;
//! * [`percentile`] — linearly interpolated percentile of a slice (with
//!   sorted-slice and integer variants for callers that sort once);
//! * [`ConfidenceInterval`] — a `[lo, hi]` pair with its nominal level;
//! * [`chi_square_test`] / [`two_sample_ks_test`] — goodness-of-fit and
//!   two-sample equivalence tests, used by the binomial-sampler property
//!   tests and the aggregate-vs-per-station simulator equivalence suite.

use crate::special::{kolmogorov_survival, regularized_gamma_p};
use serde::{Deserialize, Serialize};

/// Single-pass (Welford) accumulator for mean/variance/min/max.
///
/// # Example
/// ```
/// use mac_prob::stats::StreamingStats;
/// let mut s = StreamingStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford/Chan).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// 95% normal-approximation confidence interval for the mean.
    pub fn ci95(&self) -> ConfidenceInterval {
        let half = 1.959_963_985 * self.std_error();
        ConfidenceInterval {
            lo: self.mean() - half,
            hi: self.mean() + half,
            level: 0.95,
        }
    }

    /// Produces an immutable summary snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: if self.count == 0 { f64::NAN } else { self.min },
            max: if self.count == 0 { f64::NAN } else { self.max },
            ci95: self.ci95(),
        }
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamingStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Nominal coverage level (e.g. 0.95).
    pub level: f64,
}

impl ConfidenceInterval {
    /// Returns `true` if `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Returns `true` if the two intervals overlap.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// Immutable summary of a set of observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation (NaN if empty).
    pub min: f64,
    /// Maximum observation (NaN if empty).
    pub max: f64,
    /// 95% confidence interval for the mean.
    pub ci95: ConfidenceInterval,
}

/// Linearly interpolated percentile (`q` in `[0, 100]`) of a slice.
///
/// The slice does not need to be sorted; a sorted copy is made internally.
/// Returns `None` for an empty slice.
///
/// # Example
/// ```
/// use mac_prob::stats::percentile;
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile(&xs, 50.0), Some(3.0));
/// assert_eq!(percentile(&xs, 100.0), Some(5.0));
/// // Even-length samples interpolate: the median of [1, 2, 3, 4] is 2.5.
/// assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
}

/// Linearly interpolated percentile of an **already sorted** slice.
///
/// The rank is `q/100 · (n − 1)`; a fractional rank interpolates linearly
/// between the two neighbouring order statistics (the "C = 1" / inclusive
/// convention of NumPy's default `linear` method), so `q = 50` of an
/// even-length sample is the midpoint of the two middle elements — the
/// textbook median — rather than the lower one, `q = 0` is the minimum and
/// `q = 100` the maximum exactly.
///
/// Callers that need several percentiles of the same data should sort once
/// and use this directly instead of paying one sort per [`percentile`]
/// call. Returns `None` for an empty slice.
///
/// # Example
/// ```
/// use mac_prob::stats::percentile_sorted;
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(percentile_sorted(&xs, 50.0), Some(3.0));
/// // Rank 0.95·4 = 3.8 interpolates between 4.0 and 5.0.
/// assert_eq!(percentile_sorted(&xs, 95.0), Some(4.8));
/// ```
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0,100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires sorted input"
    );
    let rank = (q / 100.0) * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let fraction = rank - lower as f64;
    let value = if fraction == 0.0 || lower + 1 == sorted.len() {
        sorted[lower]
    } else {
        sorted[lower] + fraction * (sorted[lower + 1] - sorted[lower])
    };
    Some(value)
}

/// Linearly interpolated percentile of an **already sorted** slice of
/// integers, with the same rank convention as [`percentile_sorted`].
///
/// The two order statistics are converted to `f64` individually (exact for
/// values below 2⁵³); callers needing the exact maximum of huge integer
/// samples should read `sorted.last()` directly rather than ask for
/// `q = 100`.
///
/// # Example
/// ```
/// use mac_prob::stats::percentile_sorted_u64;
/// assert_eq!(percentile_sorted_u64(&[1, 2, 3, 4], 50.0), Some(2.5));
/// assert_eq!(percentile_sorted_u64(&[7], 0.0), Some(7.0));
/// ```
pub fn percentile_sorted_u64(sorted: &[u64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0,100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted_u64 requires sorted input"
    );
    let rank = (q / 100.0) * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let fraction = rank - lower as f64;
    let lo = sorted[lower] as f64;
    let value = if fraction == 0.0 || lower + 1 == sorted.len() {
        lo
    } else {
        lo + fraction * (sorted[lower + 1] as f64 - lo)
    };
    Some(value)
}

/// Result of a statistical hypothesis test: the test statistic and the
/// probability of seeing a statistic at least this extreme under the null
/// hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// The value of the test statistic.
    pub statistic: f64,
    /// Degrees of freedom (chi-square) or the effective sample factor
    /// `√(n·m/(n+m))` (Kolmogorov–Smirnov).
    pub parameter: f64,
    /// The p-value under the null hypothesis.
    pub p_value: f64,
}

impl TestResult {
    /// `true` when the null hypothesis is *not* rejected at significance
    /// level `alpha` — the assertion equivalence tests make.
    pub fn is_consistent_at(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Pearson chi-square goodness-of-fit test of observed category counts
/// against expected probabilities.
///
/// Categories with expected probability 0 must have observed count 0 (a
/// nonzero observation there yields `p_value = 0`); such categories
/// contribute no degree of freedom. The p-value uses the chi-square CDF
/// `P(dof/2, x/2)` via [`regularized_gamma_p`].
///
/// # Panics
/// Panics if the slices differ in length, fewer than two categories have
/// positive expected probability, or the probabilities do not sum to ~1.
///
/// # Example
/// ```
/// use mac_prob::stats::chi_square_test;
/// // A fair three-sided die observed 300 times.
/// let result = chi_square_test(&[98, 104, 98], &[1.0 / 3.0; 3]);
/// assert!(result.is_consistent_at(0.01));
/// ```
pub fn chi_square_test(observed: &[u64], expected_probabilities: &[f64]) -> TestResult {
    assert_eq!(
        observed.len(),
        expected_probabilities.len(),
        "observed and expected lengths differ"
    );
    let total_probability: f64 = expected_probabilities.iter().sum();
    assert!(
        (total_probability - 1.0).abs() < 1e-6,
        "expected probabilities sum to {total_probability}, not 1"
    );
    let n: u64 = observed.iter().sum();
    let nf = n as f64;
    let mut statistic = 0.0;
    let mut categories = 0u64;
    let mut impossible_observed = false;
    for (&obs, &prob) in observed.iter().zip(expected_probabilities) {
        assert!((0.0..=1.0).contains(&prob), "invalid probability {prob}");
        if prob == 0.0 {
            impossible_observed |= obs > 0;
            continue;
        }
        categories += 1;
        let expected = nf * prob;
        let diff = obs as f64 - expected;
        statistic += diff * diff / expected;
    }
    assert!(
        categories >= 2,
        "chi-square needs at least two categories with positive probability"
    );
    let dof = (categories - 1) as f64;
    let p_value = if impossible_observed {
        0.0
    } else {
        1.0 - regularized_gamma_p(dof / 2.0, statistic / 2.0)
    };
    TestResult {
        statistic,
        parameter: dof,
        p_value,
    }
}

/// Two-sample Kolmogorov–Smirnov test: the supremum distance between the
/// empirical CDFs of `a` and `b`, with the asymptotic p-value from the
/// Kolmogorov distribution ([`kolmogorov_survival`]).
///
/// Both samples are sorted internally; ties are handled by advancing both
/// cursors past equal values before comparing the CDFs. The asymptotic
/// p-value is accurate for samples of a few dozen observations and larger
/// (the regime the simulator equivalence tests use).
///
/// # Panics
/// Panics if either sample is empty or contains NaN.
///
/// # Example
/// ```
/// use mac_prob::stats::two_sample_ks_test;
/// let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let b: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
/// // Nearly identical distributions: large p-value.
/// assert!(two_sample_ks_test(&a, &b).is_consistent_at(0.05));
/// ```
pub fn two_sample_ks_test(a: &[f64], b: &[f64]) -> TestResult {
    assert!(!a.is_empty() && !b.is_empty(), "KS needs non-empty samples");
    let sort = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
        v
    };
    let a = sort(a);
    let b = sort(b);
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut statistic = 0.0f64;
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        statistic = statistic.max((i as f64 / na - j as f64 / nb).abs());
    }
    let effective = (na * nb / (na + nb)).sqrt();
    TestResult {
        statistic,
        parameter: effective,
        p_value: kolmogorov_survival(effective * statistic),
    }
}

pub mod conformance {
    //! Statistical-conformance harness for sampler rewrites and
    //! engine-equivalence suites.
    //!
    //! Every fast path in this workspace is *exact in law*, not in stream
    //! (`crates/sim/DESIGN.md` §5), so its tests are statistical: chi-square
    //! goodness of fit of drawn samples against an exact pmf, and paired-seed
    //! two-sample comparisons (mean, median, Kolmogorov–Smirnov) between an
    //! engine under test and the per-station reference. This module is the
    //! shared machinery those suites use — the support binning with tail
    //! pooling and the paired-sample agreement assertion — so that a
    //! sampler rewrite is pinned by one reusable gate instead of ad-hoc
    //! copies.
    //!
    //! ## Significance levels and multiplicity
    //!
    //! [`Conformance`] carries the *suite-wide* significance level `α`. A
    //! suite running `n` comparisons divides it per test (Bonferroni:
    //! `α_per_test = α/n` via [`Conformance::with_comparisons`]), which
    //! controls the family-wise false-positive rate at `α` at the price of
    //! conservatism — appropriate here, where a failure gates CI and false
    //! alarms are expensive, while real distributional drift (a wrong pmf
    //! term, a biased sampler) produces p-values tens of orders of magnitude
    //! below any sane level.

    use super::{chi_square_test, percentile, two_sample_ks_test, StreamingStats, TestResult};

    /// Suite-wide statistical-conformance configuration: the significance
    /// level and the number of planned comparisons it is spread over.
    #[derive(Debug, Clone, Copy)]
    pub struct Conformance {
        alpha: f64,
        comparisons: u32,
    }

    impl Conformance {
        /// A conformance gate at suite-wide significance `alpha` for a
        /// single comparison.
        pub fn new(alpha: f64) -> Self {
            assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "bad alpha");
            Self {
                alpha,
                comparisons: 1,
            }
        }

        /// Spreads the suite-wide level over `comparisons` planned tests
        /// (Bonferroni correction).
        pub fn with_comparisons(alpha: f64, comparisons: u32) -> Self {
            assert!(comparisons >= 1, "need at least one comparison");
            let mut cfg = Self::new(alpha);
            cfg.comparisons = comparisons;
            cfg
        }

        /// The per-test significance level `α / comparisons`.
        pub fn per_test_alpha(&self) -> f64 {
            self.alpha / self.comparisons as f64
        }

        /// Panics with a diagnostic unless `result` is consistent with the
        /// null hypothesis at the per-test level.
        pub fn assert_consistent(&self, result: &TestResult, label: &str) {
            assert!(
                result.is_consistent_at(self.per_test_alpha()),
                "{label}: statistic {:.4} (parameter {:.1}), p = {:.3e} < per-test alpha {:.1e}",
                result.statistic,
                result.parameter,
                result.p_value,
                self.per_test_alpha()
            );
        }
    }

    /// Support binning of an exact pmf for chi-square goodness of fit:
    /// values whose expected count under `planned_samples` draws reaches
    /// `min_expected` get individual cells; everything below the first such
    /// value pools into a lower-tail cell, everything above the last into
    /// an upper-tail cell.
    #[derive(Debug, Clone)]
    pub struct PmfHistogram {
        lo: usize,
        hi: usize,
        observed: Vec<u64>,
        expected: Vec<f64>,
    }

    impl PmfHistogram {
        /// Builds the binning for `pmf` (indexed by value) under
        /// `planned_samples` draws. `min_expected` is the classic ≥ 5
        /// expected-count rule; pass a larger value for extra headroom.
        ///
        /// # Panics
        /// Panics if no cell reaches `min_expected` (the sample is too
        /// small to test against this pmf).
        pub fn new(pmf: &[f64], planned_samples: u64, min_expected: f64) -> Self {
            let threshold = min_expected / planned_samples as f64;
            let lo = pmf
                .iter()
                .position(|&q| q >= threshold)
                .unwrap_or_else(|| panic!("no pmf cell reaches {min_expected} expected counts"));
            let hi = pmf.iter().rposition(|&q| q >= threshold).unwrap().max(lo);
            // Cells: [<= lo-1], lo, lo+1, …, hi, [>= hi+1].
            let cells = hi - lo + 3;
            let mut expected = vec![0.0f64; cells];
            expected[0] = pmf[..lo].iter().sum();
            for v in lo..=hi {
                expected[v - lo + 1] = pmf[v];
            }
            expected[cells - 1] = (1.0 - expected[..cells - 1].iter().sum::<f64>()).max(0.0);
            Self {
                lo,
                hi,
                observed: vec![0; cells],
                expected,
            }
        }

        /// Records one drawn value.
        pub fn record(&mut self, value: u64) {
            let v = value as usize;
            let cell = if v < self.lo {
                0
            } else if v > self.hi {
                self.observed.len() - 1
            } else {
                v - self.lo + 1
            };
            self.observed[cell] += 1;
        }

        /// Pearson chi-square of the recorded counts against the binned pmf.
        pub fn chi_square(&self) -> TestResult {
            chi_square_test(&self.observed, &self.expected)
        }
    }

    /// One-shot sample-vs-exact-pmf chi-square: draws `reps` samples from
    /// `draw` and tests them against `pmf` (indexed by value, tails pooled
    /// at the ≥ 5 expected-count rule).
    pub fn sample_vs_pmf_chi_square<F: FnMut() -> u64>(
        pmf: &[f64],
        reps: u64,
        mut draw: F,
    ) -> TestResult {
        let mut hist = PmfHistogram::new(pmf, reps, 5.0);
        for _ in 0..reps {
            hist.record(draw());
        }
        hist.chi_square()
    }

    /// Paired-sample law-agreement gate: means within `sigmas` standard
    /// errors (with an absolute floor for tiny scales), medians within the
    /// same tolerance, and the two-sample Kolmogorov–Smirnov test not
    /// rejected at the per-test level. This is the workhorse assertion of
    /// the engine-equivalence suites (aggregate vs exact, cohort vs exact,
    /// window walk before/after).
    #[allow(clippy::too_many_arguments)]
    pub fn assert_law_agreement(
        cfg: &Conformance,
        reference: &[f64],
        candidate: &[f64],
        sigmas: f64,
        mean_floor: f64,
        label: &str,
    ) {
        let ref_stats: StreamingStats = reference.iter().copied().collect();
        let cand_stats: StreamingStats = candidate.iter().copied().collect();
        let tolerance = (sigmas * (ref_stats.std_error() + cand_stats.std_error())).max(mean_floor);
        assert!(
            (ref_stats.mean() - cand_stats.mean()).abs() < tolerance,
            "{label}: reference mean {:.2} vs candidate mean {:.2} (tolerance {:.2})",
            ref_stats.mean(),
            cand_stats.mean(),
            tolerance
        );
        let p50_ref = percentile(reference, 50.0).unwrap();
        let p50_cand = percentile(candidate, 50.0).unwrap();
        assert!(
            (p50_ref - p50_cand).abs() < tolerance.max(0.25 * p50_ref.abs()),
            "{label}: reference p50 {p50_ref} vs candidate p50 {p50_cand}"
        );
        let ks = two_sample_ks_test(reference, candidate);
        cfg.assert_consistent(&ks, &format!("{label} (KS)"));
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn per_test_alpha_applies_bonferroni() {
            let cfg = Conformance::with_comparisons(0.01, 10);
            assert!((cfg.per_test_alpha() - 0.001).abs() < 1e-15);
            assert_eq!(Conformance::new(0.05).per_test_alpha(), 0.05);
        }

        #[test]
        fn histogram_pools_tails_and_accepts_its_own_pmf() {
            // Binomial(20, 0.3)-ish shape via a hand-rolled pmf.
            let pmf: Vec<f64> = (0..=20)
                .map(|t| crate::special::binomial_pmf(20, t, 0.3))
                .collect();
            let mut hist = PmfHistogram::new(&pmf, 10_000, 5.0);
            // Feed expected counts directly: statistic ~ 0.
            for (v, &q) in pmf.iter().enumerate() {
                for _ in 0..(q * 10_000.0).round() as u64 {
                    hist.record(v as u64);
                }
            }
            let r = hist.chi_square();
            assert!(r.p_value > 0.5, "{r:?}");
        }

        #[test]
        fn sample_vs_pmf_rejects_a_wrong_distribution() {
            use crate::rng::Xoshiro256pp;
            use rand::{Rng, SeedableRng};
            let pmf: Vec<f64> = (0..=20)
                .map(|t| crate::special::binomial_pmf(20, t, 0.3))
                .collect();
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            // Draw from Binomial(20, 0.4) instead: must be rejected hard.
            let bad = sample_vs_pmf_chi_square(&pmf, 20_000, || {
                (0..20).map(|_| u64::from(rng.gen::<f64>() < 0.4)).sum()
            });
            assert!(bad.p_value < 1e-12, "{bad:?}");
        }

        #[test]
        #[should_panic(expected = "KS")]
        fn law_agreement_rejects_shifted_samples() {
            let cfg = Conformance::new(0.001);
            let a: Vec<f64> = (0..300).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..300).map(|i| i as f64 + 200.0).collect();
            assert_law_agreement(&cfg, &a, &b, 1e9, f64::INFINITY, "shifted");
        }

        #[test]
        fn law_agreement_accepts_identical_samples() {
            let cfg = Conformance::new(0.001);
            let a: Vec<f64> = (0..300).map(|i| (i % 37) as f64).collect();
            assert_law_agreement(&cfg, &a, &a.clone(), 4.0, 8.0, "identical");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        assert!(s.summary().min.is_nan());
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let s: StreamingStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(
            s.min(),
            *xs.iter().min_by(|a, b| a.partial_cmp(b).unwrap()).unwrap()
        );
        assert_eq!(
            s.max(),
            *xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap()).unwrap()
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(123);
        let mut sa: StreamingStats = a.iter().copied().collect();
        let sb: StreamingStats = b.iter().copied().collect();
        sa.merge(&sb);
        let all: StreamingStats = xs.iter().copied().collect();
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-9);
        assert!((sa.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(sa.min(), all.min());
        assert_eq!(sa.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: StreamingStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s, before);
        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn ci95_contains_mean_and_shrinks_with_n() {
        let small: StreamingStats = (0..10).map(|i| i as f64).collect();
        let large: StreamingStats = (0..10_000).map(|i| (i % 10) as f64).collect();
        assert!(small.ci95().contains(small.mean()));
        let w_small = small.ci95().hi - small.ci95().lo;
        let w_large = large.ci95().hi - large.ci95().lo;
        assert!(w_large < w_small);
    }

    #[test]
    fn interval_overlap_logic() {
        let a = ConfidenceInterval {
            lo: 0.0,
            hi: 1.0,
            level: 0.95,
        };
        let b = ConfidenceInterval {
            lo: 0.9,
            hi: 2.0,
            level: 0.95,
        };
        let c = ConfidenceInterval {
            lo: 1.5,
            hi: 2.0,
            level: 0.95,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.contains(0.5));
        assert!(!a.contains(1.5));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Rank 0.2·4 = 0.8 interpolates between 1 and 3.
        assert_eq!(percentile(&xs, 20.0), Some(1.0 + 0.8 * 2.0));
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        // Rank 0.9·4 = 3.6 interpolates between 7 and 9.
        assert!((percentile(&xs, 90.0).unwrap() - 8.2).abs() < 1e-12);
        assert_eq!(percentile(&xs, 100.0), Some(9.0));
    }

    #[test]
    fn percentile_median_of_even_length_sample_is_the_midpoint() {
        // The original nearest-rank rule returned the lower-middle element
        // here; the interpolated definition returns the textbook median.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.5));
        assert_eq!(percentile_sorted(&[10.0, 20.0], 50.0), Some(15.0));
    }

    #[test]
    fn percentile_boundaries_and_single_element() {
        // q = 0 and q = 100 are exactly the extremes, on odd and even sizes.
        for xs in [vec![2.0, 8.0, 5.0], vec![2.0, 8.0, 5.0, 11.0]] {
            assert_eq!(percentile(&xs, 0.0), Some(2.0));
            assert_eq!(percentile(&xs, 100.0), xs.iter().copied().reduce(f64::max));
        }
        // A single-element slice answers every quantile with that element.
        for q in [0.0, 37.5, 50.0, 100.0] {
            assert_eq!(percentile(&[42.0], q), Some(42.0));
            assert_eq!(percentile_sorted(&[42.0], q), Some(42.0));
            assert_eq!(percentile_sorted_u64(&[42], q), Some(42.0));
        }
        assert_eq!(percentile_sorted_u64(&[], 50.0), None);
    }

    #[test]
    fn percentile_u64_matches_the_f64_version() {
        let xs = [1u64, 5, 9, 12, 40, 41];
        let fs: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        for q in [0.0, 10.0, 33.3, 50.0, 77.7, 95.0, 100.0] {
            assert_eq!(percentile_sorted_u64(&xs, q), percentile_sorted(&fs, q));
        }
    }

    #[test]
    fn extend_adds_observations() {
        let mut s = StreamingStats::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 150.0);
    }

    #[test]
    fn chi_square_accepts_matching_counts_and_rejects_skewed_ones() {
        // Perfectly matching counts: statistic 0, p-value 1.
        let fit = chi_square_test(&[250, 250, 500], &[0.25, 0.25, 0.5]);
        assert_eq!(fit.statistic, 0.0);
        assert!((fit.p_value - 1.0).abs() < 1e-12);
        assert_eq!(fit.parameter, 2.0);
        // Grossly skewed counts: rejected at any reasonable level.
        let off = chi_square_test(&[900, 50, 50], &[0.25, 0.25, 0.5]);
        assert!(off.p_value < 1e-10);
        assert!(!off.is_consistent_at(0.001));
    }

    #[test]
    fn chi_square_handles_zero_probability_categories() {
        // A zero-probability category with zero observations contributes
        // nothing; with observations, the null is impossible.
        let ok = chi_square_test(&[500, 500, 0], &[0.5, 0.5, 0.0]);
        assert!(ok.is_consistent_at(0.05));
        assert_eq!(ok.parameter, 1.0);
        let bad = chi_square_test(&[500, 499, 1], &[0.5, 0.5, 0.0]);
        assert_eq!(bad.p_value, 0.0);
    }

    #[test]
    fn chi_square_p_value_is_calibrated() {
        // The 95th percentile of chi-square with 1 dof is 3.841: a statistic
        // just below must give p just above 0.05.
        let n = 10_000u64;
        // Construct counts with statistic ~ 3.8: diff²·(1/E1+1/E2) with
        // E1 = E2 = 5000 → diff = sqrt(3.8·2500) ≈ 97.5.
        let fit = chi_square_test(&[5097, 4903], &[0.5, 0.5]);
        assert!(fit.statistic > 3.5 && fit.statistic < 3.85);
        assert!(fit.p_value > 0.05 && fit.p_value < 0.07, "{:?}", fit);
        assert_eq!(n, 10_000); // silence unused warning paranoia
    }

    #[test]
    fn ks_distinguishes_shifted_samples() {
        let a: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let shifted: Vec<f64> = (0..200).map(|i| i as f64 + 100.0).collect();
        let reject = two_sample_ks_test(&a, &shifted);
        assert!(reject.p_value < 1e-6);
        let same = two_sample_ks_test(&a, &a);
        assert_eq!(same.statistic, 0.0);
        assert!((same.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ks_statistic_is_the_cdf_sup_distance() {
        // a = {1,2}, b = {1,3}: CDFs differ by 1/2 on [2,3).
        let result = two_sample_ks_test(&[1.0, 2.0], &[1.0, 3.0]);
        assert!((result.statistic - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ks_rejects_empty_sample() {
        let _ = two_sample_ks_test(&[], &[1.0]);
    }
}

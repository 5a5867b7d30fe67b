//! Discrete samplers built directly on a [`rand::Rng`] source.
//!
//! The workspace deliberately avoids an external distributions crate: the
//! simulators only need a handful of discrete samplers, all of which are
//! implemented (and tested) here:
//!
//! * [`sample_geometric`] — number of failures before the first success, via
//!   inversion (`⌊ln U / ln(1-p)⌋`), O(1);
//! * [`sample_binomial`] — exact for any `(n, p)`: waiting-time (geometric
//!   skip) sampling when `n·min(p,1-p)` is small, otherwise the normal
//!   approximation is *not* used — instead the count is built from the
//!   Poisson-style BTRS-free split described below, which keeps the sampler
//!   exact at the cost of O(n·p) expected work. The simulators never need
//!   large `n·p` draws, so exactness is preferred over constant-time;
//! * [`sample_poisson`] — Knuth multiplication method for small λ, normal
//!   rejection-free sum-of-exponentials splitting for large λ, up to
//!   [`MAX_POISSON_RATE`]; [`PoissonSampler`] draws the same at one rate
//!   with Knuth's limits computed once.
//!
//! Arrival processes (`mac-channel`) use the Poisson and geometric samplers;
//! tests use the binomial sampler to cross-check the fast slot-outcome path.

use rand::Rng;

/// Samples a Geometric(`p`) variable: the number of independent failures
/// before the first success, each trial succeeding with probability `p`.
///
/// Support `{0, 1, 2, …}`. Sampled by inversion, O(1).
///
/// # Panics
/// Panics if `p` is not in `(0, 1]`.
///
/// # Example
/// ```
/// use mac_prob::sampling::sample_geometric;
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(0);
/// assert_eq!(sample_geometric(1.0, &mut rng), 0);
/// ```
#[inline]
pub fn sample_geometric<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    assert!(
        p > 0.0 && p <= 1.0,
        "Geometric parameter must be in (0,1], got {p}"
    );
    if p >= 1.0 {
        return 0;
    }
    // U in (0,1]; using 1-gen() avoids ln(0).
    let u = 1.0 - rng.gen::<f64>();
    let g = (u.ln() / (-p).ln_1p()).floor();
    if g < 0.0 {
        0
    } else if g > u64::MAX as f64 {
        u64::MAX
    } else {
        g as u64
    }
}

/// Samples a Binomial(`n`, `p`) variable exactly.
///
/// Strategy:
/// * degenerate cases (`p ∈ {0,1}`, `n = 0`) are returned directly;
/// * for `p > 1/2` the complement `n - Binomial(n, 1-p)` is sampled so the
///   expected work is always `O(n·min(p, 1-p) + 1)`;
/// * the count of successes is produced by repeatedly sampling the geometric
///   waiting time to the next success and skipping over it (the "geometric
///   method" of Devroye, ch. X.4), which is exact.
///
/// The simulators only draw binomials whose mean is at most a few units
/// (e.g. the number of transmitters in one slot), so the expected-linear cost
/// in `n·p` is irrelevant in practice, and exactness lets the fast simulators
/// be validated against the per-node ones bit-for-bit in distribution.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]`.
///
/// # Example
/// ```
/// use mac_prob::sampling::sample_binomial;
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(0);
/// assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
/// assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
/// let x = sample_binomial(10, 0.3, &mut rng);
/// assert!(x <= 10);
/// ```
pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "Binomial parameter must be in [0,1], got {p}"
    );
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_binomial(n, 1.0 - p, rng);
    }
    // Geometric-skip method: positions of successes among n trials are found
    // by accumulating geometric gaps.
    let mut successes = 0u64;
    let mut position = 0u64;
    loop {
        let gap = sample_geometric(p, rng);
        // The next success would occur at trial index position + gap (0-based).
        if gap >= n - position {
            break;
        }
        successes += 1;
        position += gap + 1;
        if position >= n {
            break;
        }
    }
    successes
}

/// The largest Poisson rate the samplers accept, 2¹⁶: over 3000 times the
/// largest rate the repository runs (20). A draw costs O(λ) uniform draws,
/// and at rates of 2⁵⁸ and above the 30-chunk split below never ends
/// (`λ − 30 == λ` in `f64`), so the bound keeps every draw finite and
/// cheap.
pub const MAX_POISSON_RATE: f64 = 65_536.0;

/// Samples a Poisson(λ) variable.
///
/// For `λ ≤ 30` the Knuth multiplication method is used (exact, O(λ)).
/// For larger λ the variable is split as the sum of independent Poisson
/// variables with parameter ≤ 30 (exact, O(λ/30) recursion depth is folded
/// into a loop), which keeps the sampler exact without requiring a rejection
/// method. A caller that draws many times at one rate should build a
/// [`PoissonSampler`] once: this function builds one per call.
///
/// # Panics
/// Panics unless `0 ≤ λ ≤` [`MAX_POISSON_RATE`] (so also on a non-finite
/// λ).
///
/// # Example
/// ```
/// use mac_prob::sampling::sample_poisson;
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let mut rng = Xoshiro256pp::seed_from_u64(0);
/// assert_eq!(sample_poisson(0.0, &mut rng), 0);
/// let x = sample_poisson(3.5, &mut rng);
/// assert!(x < 100);
/// ```
pub fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    PoissonSampler::new(lambda).sample(rng)
}

/// [`sample_poisson`] at one fixed rate, with Knuth's limits computed once:
/// the same 30-chunk split, the same draws and the same counts, without an
/// `exp` per draw.
///
/// # Example
/// ```
/// use mac_prob::sampling::{sample_poisson, PoissonSampler};
/// use mac_prob::rng::Xoshiro256pp;
/// use rand::SeedableRng;
/// let sampler = PoissonSampler::new(0.4);
/// let (mut a, mut b) = (Xoshiro256pp::seed_from_u64(3), Xoshiro256pp::seed_from_u64(3));
/// for _ in 0..100 {
///     assert_eq!(sampler.sample(&mut a), sample_poisson(0.4, &mut b));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonSampler {
    /// Full chunks of rate 30 drawn before the tail.
    chunks: u32,
    /// `exp(−30)`, the limit of a full chunk.
    chunk_limit: f64,
    /// `exp(−tail)` for the rate left after the full chunks; `None` at rate
    /// 0, which draws nothing.
    tail_limit: Option<f64>,
}

impl PoissonSampler {
    /// Precomputes the limits of rate `lambda`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ λ ≤` [`MAX_POISSON_RATE`] (so also on a
    /// non-finite λ).
    pub fn new(lambda: f64) -> Self {
        assert!(
            (0.0..=MAX_POISSON_RATE).contains(&lambda),
            "Poisson parameter must be in [0, {MAX_POISSON_RATE}], got {lambda}"
        );
        // Split into chunks of at most 30 to keep exp(-chunk) well away from
        // the subnormal range used by the multiplication method.
        let mut chunks = 0;
        let mut remaining = lambda;
        while remaining > 30.0 {
            chunks += 1;
            remaining -= 30.0;
        }
        Self {
            chunks,
            chunk_limit: (-30.0f64).exp(),
            tail_limit: (lambda > 0.0).then(|| (-remaining).exp()),
        }
    }

    /// Draws one Poisson variable at the sampler's rate.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let Some(tail_limit) = self.tail_limit else {
            return 0;
        };
        let mut total = 0u64;
        for _ in 0..self.chunks {
            total += knuth_poisson(self.chunk_limit, rng);
        }
        total + knuth_poisson(tail_limit, rng)
    }
}

/// Knuth's multiplication method: the number of uniforms whose running
/// product stays above `limit = exp(−λ)`, less one.
#[inline]
fn knuth_poisson<R: Rng + ?Sized>(limit: f64, rng: &mut R) -> u64 {
    let mut count = 0u64;
    let mut product: f64 = rng.gen();
    while product > limit {
        count += 1;
        product *= rng.gen::<f64>();
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::stats::StreamingStats;
    use rand::SeedableRng;

    fn mean_of<F: FnMut(&mut Xoshiro256pp) -> f64>(seed: u64, n: usize, mut f: F) -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut stats = StreamingStats::new();
        for _ in 0..n {
            stats.push(f(&mut rng));
        }
        (stats.mean(), stats.std_dev())
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_geometric(1.0, &mut rng), 0);
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        // E[G] = (1-p)/p
        for &p in &[0.1, 0.4, 0.75] {
            let (mean, _) = mean_of(3, 200_000, |r| sample_geometric(p, r) as f64);
            let expected = (1.0 - p) / p;
            assert!(
                (mean - expected).abs() < 0.05 * (expected + 1.0),
                "p={p}: {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(17, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(17, 1.0, &mut rng), 17);
        for _ in 0..1000 {
            assert!(sample_binomial(5, 0.5, &mut rng) <= 5);
        }
    }

    #[test]
    fn binomial_mean_and_variance_match_theory() {
        for &(n, p) in &[(20u64, 0.25f64), (100, 0.02), (7, 0.9)] {
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            let mut stats = StreamingStats::new();
            for _ in 0..100_000 {
                stats.push(sample_binomial(n, p, &mut rng) as f64);
            }
            let mean = n as f64 * p;
            let var = n as f64 * p * (1.0 - p);
            assert!(
                (stats.mean() - mean).abs() < 0.03 * (mean + 1.0),
                "n={n} p={p}: mean {} vs {mean}",
                stats.mean()
            );
            assert!(
                (stats.variance() - var).abs() < 0.08 * (var + 1.0),
                "n={n} p={p}: var {} vs {var}",
                stats.variance()
            );
        }
    }

    #[test]
    fn binomial_complement_path_is_consistent() {
        // p = 0.98 goes through the complement branch.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut stats = StreamingStats::new();
        for _ in 0..50_000 {
            stats.push(sample_binomial(50, 0.98, &mut rng) as f64);
        }
        assert!((stats.mean() - 49.0).abs() < 0.1, "mean {}", stats.mean());
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    /// The per-call Knuth form `sample_poisson` had before
    /// [`PoissonSampler`]: `exp(−λ)` recomputed on every chunk of every
    /// draw.
    fn per_call_poisson(lambda: f64, rng: &mut Xoshiro256pp) -> u64 {
        let knuth = |lambda: f64, rng: &mut Xoshiro256pp| {
            let limit = (-lambda).exp();
            let mut count = 0u64;
            let mut product: f64 = rng.gen();
            while product > limit {
                count += 1;
                product *= rng.gen::<f64>();
            }
            count
        };
        if lambda == 0.0 {
            return 0;
        }
        let mut total = 0u64;
        let mut remaining = lambda;
        while remaining > 30.0 {
            total += knuth(30.0, rng);
            remaining -= 30.0;
        }
        total + knuth(remaining, rng)
    }

    #[test]
    fn poisson_sampler_replays_the_per_call_knuth_form() {
        for lambda in [
            0.0, 1e-12, 0.05, 0.15, 2.0, 20.0, 30.0, 30.5, 61.0, 95.5, 200.0,
        ] {
            let sampler = PoissonSampler::new(lambda);
            let mut ours = Xoshiro256pp::seed_from_u64(10);
            let mut theirs = Xoshiro256pp::seed_from_u64(10);
            let mut total = 0u64;
            for draw in 0..10_000 {
                let count = sampler.sample(&mut ours);
                assert_eq!(
                    count,
                    per_call_poisson(lambda, &mut theirs),
                    "λ={lambda} draw {draw}"
                );
                total += count;
            }
            assert_eq!(ours.state_words(), theirs.state_words(), "λ={lambda}");
            // Every rate from 0.05 up draws arrivals, so the counts compared
            // are not all zero.
            assert_eq!(total == 0, lambda < 1e-3, "λ={lambda}: {total} arrivals");
        }
    }

    #[test]
    fn poisson_rates_above_the_bound_are_rejected() {
        for lambda in [
            MAX_POISSON_RATE + 1.0,
            1e18,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ] {
            let caught = std::panic::catch_unwind(|| PoissonSampler::new(lambda));
            assert!(caught.is_err(), "λ={lambda}");
        }
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let count = PoissonSampler::new(MAX_POISSON_RATE).sample(&mut rng);
        assert!(count.abs_diff(65_536) < 2_000, "{count}");
    }

    #[test]
    fn poisson_mean_matches_small_and_large_lambda() {
        for &lambda in &[0.5, 4.0, 75.0] {
            let (mean, _) = mean_of(8, 60_000, |r| sample_poisson(lambda, r) as f64);
            assert!(
                (mean - lambda).abs() < 0.03 * (lambda + 1.0),
                "lambda={lambda}: {mean}"
            );
        }
    }

    #[test]
    fn binomial_agrees_with_slot_outcome_probabilities() {
        // P[Binomial(m,p) == 1] must equal the delivery probability of the
        // slot-outcome module: this is the cross-check that justifies the
        // fast simulator.
        use crate::outcome::slot_outcome_probabilities;
        let m = 40u64;
        let p = 0.05f64;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let n = 200_000;
        let mut ones = 0usize;
        for _ in 0..n {
            if sample_binomial(m, p, &mut rng) == 1 {
                ones += 1;
            }
        }
        let expected = slot_outcome_probabilities(m, p).delivery;
        let tol = 4.0 * (expected * (1.0 - expected) / n as f64).sqrt();
        assert!(
            ((ones as f64 / n as f64) - expected).abs() < tol,
            "{} vs {expected}",
            ones as f64 / n as f64
        );
    }
}

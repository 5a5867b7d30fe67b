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
//!   rejection-free sum-of-exponentials splitting for large λ.
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

/// Samples a Poisson(λ) variable.
///
/// For `λ ≤ 30` the Knuth multiplication method is used (exact, O(λ)).
/// For larger λ the variable is split as the sum of independent Poisson
/// variables with parameter ≤ 30 (exact, O(λ/30) recursion depth is folded
/// into a loop), which keeps the sampler exact without requiring a rejection
/// method.
///
/// # Panics
/// Panics if `λ` is negative or not finite.
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
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "Poisson parameter must be finite and non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    let mut total = 0u64;
    let mut remaining = lambda;
    // Split into chunks of at most 30 to keep exp(-chunk) well away from the
    // subnormal range used by the multiplication method.
    while remaining > 30.0 {
        total += knuth_poisson(30.0, rng);
        remaining -= 30.0;
    }
    total + knuth_poisson(remaining, rng)
}

fn knuth_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    let limit = (-lambda).exp();
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

//! Special functions behind the samplers and the statistical tests.
//!
//! Logarithms of factorials and binomial coefficients and the exact
//! binomial pmf (the mode anchor of the binomial sampler in
//! [`crate::binomial`], and the reference law of the property tests),
//! `ln Γ`, and the two p-value tails of the conformance harness in
//! [`crate::stats`]: the regularized lower incomplete gamma function
//! (chi-square) and the Kolmogorov survival function (Kolmogorov–Smirnov).

/// Natural logarithm of `n!`, computed exactly by summation for `n ≤ 256` and
/// by Stirling's series (with the `1/(12n)` and `1/(360n^3)` corrections) for
/// larger `n`.
///
/// Accuracy is better than `1e-9` relative error over the whole range, which
/// is far more than the tail bounds need.
///
/// # Example
/// ```
/// use mac_prob::special::ln_factorial;
/// assert_eq!(ln_factorial(0), 0.0);
/// assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    if n <= 256 {
        let mut acc = 0.0;
        for i in 2..=n {
            acc += (i as f64).ln();
        }
        acc
    } else {
        let x = n as f64;
        let ln2pi = (2.0 * std::f64::consts::PI).ln();
        (x + 0.5) * x.ln() - x + 0.5 * ln2pi + 1.0 / (12.0 * x) - 1.0 / (360.0 * x.powi(3))
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `-inf` when `k > n`.
///
/// # Example
/// ```
/// use mac_prob::special::ln_binomial;
/// assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-12);
/// assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
/// ```
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Exact probability that a `Binomial(n, p)` variable equals `k`.
///
/// Computed in log-space; accurate for large `n`.
pub fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_p = ln_binomial(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p();
    ln_p.exp()
}

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`, via the
/// Lanczos approximation (g = 7, 9 coefficients; relative error below
/// `1e-13` over the positive reals).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_1,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`,
/// the CDF of a `Gamma(a, 1)` variable — and hence, as `P(dof/2, x/2)`, the
/// CDF of a chi-square variable with `dof` degrees of freedom.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise (the
/// standard construction; both converge to `~1e-14`).
///
/// # Panics
/// Panics unless `a > 0` and `x ≥ 0`.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "shape must be positive, got {a}");
    assert!(x >= 0.0, "argument must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    let ln_prefactor = a * x.ln() - x - ln_gamma(a);
    if x < a + 1.0 {
        // Series: P(a,x) = e^{-x} x^a / Γ(a) · Σ_{n≥0} x^n / (a(a+1)…(a+n)).
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut denom = a;
        for _ in 0..500 {
            denom += 1.0;
            term *= x / denom;
            sum += term;
            if term.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        (ln_prefactor.exp() * sum).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a,x) (modified Lentz).
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        (1.0 - ln_prefactor.exp() * h).clamp(0.0, 1.0)
    }
}

/// Asymptotic survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}` — the limiting p-value of the
/// (scaled) Kolmogorov–Smirnov statistic.
///
/// Returns 1 for `λ ≤ 0`; the alternating series is truncated once terms
/// drop below `1e-12`.
pub fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-12 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_values() {
        let factorials = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, &f) in factorials.iter().enumerate() {
            assert!((ln_factorial(n as u64) - f.ln()).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // The exact and Stirling branches must agree near the switch point.
        let exact: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - exact).abs() / exact < 1e-9);
    }

    #[test]
    fn ln_binomial_symmetry_and_edges() {
        assert_eq!(ln_binomial(10, 0), 0.0);
        assert_eq!(ln_binomial(10, 10), 0.0);
        assert!((ln_binomial(10, 3) - ln_binomial(10, 7)).abs() < 1e-10);
        assert_eq!(ln_binomial(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 40;
        let p = 0.3;
        let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn binomial_pmf_degenerate() {
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
    }

    #[test]
    fn binomial_pmf_matches_slot_outcome() {
        use crate::outcome::slot_outcome_probabilities;
        let m = 1000u64;
        let p = 1.0 / 997.0;
        let pr = slot_outcome_probabilities(m, p);
        assert!((binomial_pmf(m, 0, p) - pr.silence).abs() < 1e-12);
        assert!((binomial_pmf(m, 1, p) - pr.delivery).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_matches_factorials_and_half_integers() {
        for n in 1..=20u64 {
            assert!(
                (ln_gamma(n as f64 + 1.0) - ln_factorial(n)).abs() < 1e-10,
                "n={n}"
            );
        }
        // Γ(1/2) = √π.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((ln_gamma(0.5) - sqrt_pi.ln()).abs() < 1e-12);
        // Γ(3/2) = √π/2.
        assert!((ln_gamma(1.5) - (sqrt_pi / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn regularized_gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x} (exponential CDF).
        for &x in &[0.1f64, 1.0, 3.0, 10.0] {
            assert!(
                (regularized_gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12,
                "x={x}"
            );
        }
        // Chi-square with 2 dof: P(chi2 <= 5.991) ~ 0.95.
        assert!((regularized_gamma_p(1.0, 5.991 / 2.0) - 0.95).abs() < 1e-3);
        // Chi-square with 10 dof: P(chi2 <= 18.307) ~ 0.95.
        assert!((regularized_gamma_p(5.0, 18.307 / 2.0) - 0.95).abs() < 1e-3);
        assert_eq!(regularized_gamma_p(2.0, 0.0), 0.0);
        // Monotone in x, approaching 1.
        assert!(regularized_gamma_p(3.0, 50.0) > 0.999_999);
    }

    #[test]
    fn kolmogorov_survival_known_values() {
        // Standard critical values of the Kolmogorov distribution.
        assert!((kolmogorov_survival(1.358) - 0.05).abs() < 2e-3);
        assert!((kolmogorov_survival(1.224) - 0.10).abs() < 2e-3);
        assert_eq!(kolmogorov_survival(0.0), 1.0);
        assert!(kolmogorov_survival(3.0) < 1e-6);
        assert!(kolmogorov_survival(0.2) > 0.999);
    }
}

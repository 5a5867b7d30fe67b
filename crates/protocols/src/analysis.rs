//! Closed-form quantities from the paper's analysis.
//!
//! This module collects the analytical expressions of the paper that the
//! kind table quotes in the "Analysis" column of Table 1
//! ([`ProtocolKind::analysis_label`](crate::ProtocolKind::analysis_label))
//! or that the tests check measured behaviour against:
//!
//! * Theorem 1 (One-fail Adaptive): makespan `2(δ+1)k + O(log² k)` with
//!   probability ≥ `1 − 2/(1+k)`, for `e < δ ≤ Σ_{j=1..5}(5/6)^j`;
//! * Theorem 2 (Exp Back-on/Back-off): makespan `4(1+1/δ)k` with probability
//!   ≥ `1 − 1/k^c`, for `0 < δ < 1/e` and big enough `k`;
//! * the appendix quantities `τ = 300δ·ln(1+k)` and `M` (Lemma 5/6);
//! * the linear-regime constants quoted in §5: 7.4 for One-fail Adaptive,
//!   14.9 for Exp Back-on/Back-off, `(e+1+ξ)` -style constants for Log-fails
//!   Adaptive, and the fair-protocol optimum `e`. The back-off baselines'
//!   entries are `Θ` shapes with no constant, which the kind table quotes
//!   as text.

use crate::error::ParameterError;
use crate::one_fail::DELTA_MAX;

/// The optimum slots-per-message ratio achievable by any *fair* protocol
/// (every station using the same transmission probability in a slot): `e`.
///
/// Quoted at the end of §5 of the paper as the reference point for the
/// measured ratios.
pub fn fair_protocol_optimal_ratio() -> f64 {
    std::f64::consts::E
}

// ---------------------------------------------------------------------------
// One-fail Adaptive (Theorem 1 and appendix lemmata)
// ---------------------------------------------------------------------------

/// The linear-regime slots-per-message factor of One-fail Adaptive:
/// `2(δ+1)`. For the paper's `δ = 2.72` this is the 7.44 ≈ 7.4 of Table 1.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 1's range.
pub fn ofa_linear_factor(delta: f64) -> Result<f64, ParameterError> {
    validate_ofa_delta(delta)?;
    Ok(2.0 * (delta + 1.0))
}

/// Theorem 1's success probability: `1 − 2/(1+k)`.
pub fn ofa_success_probability(k: u64) -> f64 {
    1.0 - 2.0 / (1.0 + k as f64)
}

/// The round threshold `τ = 300·δ·ln(1+k)` used throughout the appendix
/// analysis of One-fail Adaptive.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 1's range.
pub fn ofa_tau(delta: f64, k: u64) -> Result<f64, ParameterError> {
    validate_ofa_delta(delta)?;
    Ok(300.0 * delta * (1.0 + k as f64).ln())
}

/// The message threshold `M` of Lemmas 5 and 6:
/// `M = ((δ+1)·ln δ − 1)/(ln δ − 1) · S + ((γ+2τ+1)·ln δ − 1)/(ln δ − 1)`
/// with `S = 2·Σ_{j=0..4}(5/6)^j·τ` and `γ = (δ−1)(3−δ)/(δ−2)`.
///
/// Below `M` messages, the BT algorithm finishes the job in
/// `O(log k · ln(1+k))` slots (Lemma 6); above it, the AT algorithm delivers
/// with high probability (Lemma 5).
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 1's range.
pub fn ofa_bt_threshold(delta: f64, k: u64) -> Result<f64, ParameterError> {
    validate_ofa_delta(delta)?;
    let tau = ofa_tau(delta, k)?;
    let gamma = (delta - 1.0) * (3.0 - delta) / (delta - 2.0);
    let s: f64 = 2.0 * (0..=4).map(|j| (5.0f64 / 6.0).powi(j)).sum::<f64>() * tau;
    let ln_d = delta.ln();
    Ok(((delta + 1.0) * ln_d - 1.0) / (ln_d - 1.0) * s
        + ((gamma + 2.0 * tau + 1.0) * ln_d - 1.0) / (ln_d - 1.0))
}

/// A usable upper bound on the makespan of One-fail Adaptive of the form of
/// Theorem 1: `2(δ+1)·k` plus the additive term contributed by the BT
/// endgame, estimated as `c_bt · log₂(k) · ln(1+k)` slots.
///
/// The constant in Theorem 1's `O(log² k)` is not made explicit in the paper;
/// `c_bt` defaults to 4 in [`ofa_makespan_bound`], which the integration
/// tests verify to dominate the measured makespan for all simulated sizes.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 1's range.
pub fn ofa_makespan_bound_with_constant(
    delta: f64,
    k: u64,
    c_bt: f64,
) -> Result<f64, ParameterError> {
    let linear = ofa_linear_factor(delta)? * k as f64;
    let kf = (k.max(2)) as f64;
    Ok(linear + c_bt * kf.log2() * (1.0 + kf).ln())
}

/// [`ofa_makespan_bound_with_constant`] with the default additive constant 4.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 1's range.
pub fn ofa_makespan_bound(delta: f64, k: u64) -> Result<f64, ParameterError> {
    ofa_makespan_bound_with_constant(delta, k, 4.0)
}

fn validate_ofa_delta(delta: f64) -> Result<(), ParameterError> {
    if !delta.is_finite() || delta <= std::f64::consts::E || delta > DELTA_MAX {
        return Err(ParameterError::new(
            "delta",
            delta,
            "One-fail Adaptive analysis requires e < delta <= 2.9906",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Exp Back-on/Back-off (Theorem 2)
// ---------------------------------------------------------------------------

/// The makespan bound of Theorem 2 expressed as a slots-per-message factor:
/// `4(1 + 1/δ)`. For the paper's `δ = 0.366` this is the 14.93 ≈ 14.9 of
/// Table 1.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 2's range `(0, 1/e)`.
pub fn ebb_linear_factor(delta: f64) -> Result<f64, ParameterError> {
    validate_ebb_delta(delta)?;
    Ok(4.0 * (1.0 + 1.0 / delta))
}

/// Theorem 2's makespan bound `4(1 + 1/δ)·k`.
///
/// # Errors
/// Returns an error if `δ` is outside Theorem 2's range.
pub fn ebb_makespan_bound(delta: f64, k: u64) -> Result<f64, ParameterError> {
    Ok(ebb_linear_factor(delta)? * k as f64)
}

fn validate_ebb_delta(delta: f64) -> Result<(), ParameterError> {
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 / std::f64::consts::E {
        return Err(ParameterError::new(
            "delta",
            delta,
            "Exp Back-on/Back-off analysis requires 0 < delta < 1/e",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Baseline: Log-fails Adaptive
// ---------------------------------------------------------------------------

/// The linear-regime slots-per-message constant of Log-fails Adaptive, as
/// used for the "Analysis" column of Table 1:
/// `(e + 1 + ξδ + ξβ)/(1 − ξt)`.
///
/// With the paper's `ξδ = ξβ = 0.1` this gives ≈ 7.8 for `ξt = 1/2` and
/// ≈ 4.4 for `ξt = 1/10`, matching the table.
pub fn lfa_analysis_factor(xi_delta: f64, xi_beta: f64, xi_t: f64) -> f64 {
    (std::f64::consts::E + 1.0 + xi_delta + xi_beta) / (1.0 - xi_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofa_factor_matches_table1() {
        // 2(2.72 + 1) = 7.44, printed as 7.4 in the paper.
        let f = ofa_linear_factor(2.72).unwrap();
        assert!((f - 7.44).abs() < 1e-12);
        assert_eq!(format!("{:.1}", f), "7.4");
    }

    #[test]
    fn ebb_factor_matches_table1() {
        // 4(1 + 1/0.366) = 14.93, printed as 14.9 in the paper.
        let f = ebb_linear_factor(0.366).unwrap();
        assert!((f - (4.0 * (1.0 + 1.0 / 0.366))).abs() < 1e-12);
        assert_eq!(format!("{:.1}", f), "14.9");
    }

    #[test]
    fn lfa_factors_match_table1() {
        assert_eq!(format!("{:.1}", lfa_analysis_factor(0.1, 0.1, 0.5)), "7.8");
        assert_eq!(format!("{:.1}", lfa_analysis_factor(0.1, 0.1, 0.1)), "4.4");
    }

    #[test]
    fn fair_optimum_is_e() {
        assert_eq!(fair_protocol_optimal_ratio(), std::f64::consts::E);
        // Every protocol's linear factor must exceed the fair optimum.
        assert!(ofa_linear_factor(2.72).unwrap() > fair_protocol_optimal_ratio());
        assert!(ebb_linear_factor(0.366).unwrap() > fair_protocol_optimal_ratio());
    }

    #[test]
    fn ofa_success_probability_tends_to_one() {
        assert!(ofa_success_probability(1) < ofa_success_probability(100));
        assert!(ofa_success_probability(100) < ofa_success_probability(1_000_000));
        assert!(ofa_success_probability(1_000_000) < 1.0);
        assert!((ofa_success_probability(999) - (1.0 - 2.0 / 1000.0)).abs() < 1e-12);
    }

    #[test]
    fn ofa_tau_and_threshold_are_logarithmic() {
        let tau3 = ofa_tau(2.72, 1000).unwrap();
        let tau6 = ofa_tau(2.72, 1_000_000).unwrap();
        assert!(tau6 / tau3 < 2.1, "tau grows only logarithmically");
        let m3 = ofa_bt_threshold(2.72, 1000).unwrap();
        let m6 = ofa_bt_threshold(2.72, 1_000_000).unwrap();
        assert!(m3 > 0.0 && m6 > m3);
        assert!(m6 / m3 < 2.1, "M grows only logarithmically");
        // M is a (large-constant) multiple of tau.
        assert!(m3 > tau3);
    }

    #[test]
    fn ofa_makespan_bound_is_dominated_by_linear_term_for_large_k() {
        let k = 1_000_000u64;
        let bound = ofa_makespan_bound(2.72, k).unwrap();
        let linear = ofa_linear_factor(2.72).unwrap() * k as f64;
        assert!(bound > linear);
        assert!(bound < 1.01 * linear, "additive term is o(k)");
        // For small k the additive term matters: at k = 10 it contributes
        // more than 30% on top of the linear term.
        let small = ofa_makespan_bound(2.72, 10).unwrap();
        assert!(small > ofa_linear_factor(2.72).unwrap() * 10.0 * 1.3);
    }

    #[test]
    fn analysis_rejects_out_of_range_parameters() {
        assert!(ofa_linear_factor(2.0).is_err());
        assert!(ofa_linear_factor(3.2).is_err());
        assert!(ofa_tau(1.0, 10).is_err());
        assert!(ofa_bt_threshold(5.0, 10).is_err());
        assert!(ebb_linear_factor(0.5).is_err());
        assert!(ebb_linear_factor(0.0).is_err());
        assert!(ebb_makespan_bound(-1.0, 10).is_err());
    }
}

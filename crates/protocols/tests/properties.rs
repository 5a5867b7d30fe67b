//! Property-based tests for the protocol state machines.
//!
//! These check the invariants that the simulators rely on: probabilities stay
//! in `[0, 1]`, estimators respect their floors, window schedules produce
//! positive windows with the right monotonicity structure, and the adapters
//! ([`FairNode`], [`WindowNode`]) behave identically to the shared state they
//! wrap.

use mac_prob::rng::Xoshiro256pp;
use mac_protocols::analysis;
use mac_protocols::{
    ExpBackonBackoff, FairNode, FairProtocol, KnownKOracle, LogFailsAdaptive, LogFailsConfig,
    LoglogIteratedBackoff, OneFailAdaptive, Protocol, RExponentialBackoff, WindowSchedule,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// Valid δ range for One-fail Adaptive (strictly inside the admissible
/// interval so that floating-point rounding cannot push it out).
fn ofa_delta() -> impl Strategy<Value = f64> {
    2.72f64..=2.99
}

/// Valid δ range for Exp Back-on/Back-off.
fn ebb_delta() -> impl Strategy<Value = f64> {
    0.01f64..=0.36
}

proptest! {
    #[test]
    fn ofa_probability_and_floor_invariants(
        delta in ofa_delta(),
        deliveries in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut ofa = OneFailAdaptive::try_new(delta).unwrap();
        for &delivered in &deliveries {
            let p = ofa.transmission_probability();
            prop_assert!((0.0..=1.0).contains(&p));
            ofa.advance(delivered);
            prop_assert!(ofa.kappa_estimate() >= delta + 1.0 - 1e-9);
        }
        let heard = deliveries.iter().filter(|&&d| d).count() as u64;
        prop_assert_eq!(ofa.received(), heard);
    }

    #[test]
    fn ofa_estimator_never_exceeds_initial_plus_at_steps(
        delta in ofa_delta(),
        deliveries in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        // κ̃ grows by at most one per AT-step, so it can never exceed its
        // initial value plus the number of AT-steps elapsed — the property
        // used in the proof of Lemma 5 ("the density estimator never exceeds
        // the actual density" requires this growth bound).
        let mut ofa = OneFailAdaptive::try_new(delta).unwrap();
        let initial = ofa.kappa_estimate();
        let mut at_steps = 0u64;
        for (i, &delivered) in deliveries.iter().enumerate() {
            if i % 2 == 0 {
                at_steps += 1; // steps 1, 3, 5, … are AT-steps
            }
            ofa.advance(delivered);
            prop_assert!(ofa.kappa_estimate() <= initial + at_steps as f64 + 1e-9);
        }
    }

    #[test]
    fn lfa_probability_and_floor_invariants(
        xi_t in 0.05f64..=0.5,
        k in 1u64..=1_000_000,
        deliveries in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let config = LogFailsConfig::paper(xi_t, k);
        let mut lfa = LogFailsAdaptive::try_new(config).unwrap();
        let floor = lfa.kappa_estimate();
        for &delivered in &deliveries {
            let p = lfa.transmission_probability();
            prop_assert!((0.0..=1.0).contains(&p));
            lfa.advance(delivered);
            prop_assert!(lfa.kappa_estimate() >= floor - 1e-9);
        }
    }

    #[test]
    fn oracle_probability_is_exactly_inverse_remaining(
        k in 0u64..=10_000,
        deliveries in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut oracle = KnownKOracle::new(k);
        let mut remaining = k;
        for &d in &deliveries {
            if remaining == 0 {
                prop_assert_eq!(oracle.transmission_probability(), 0.0);
            } else {
                prop_assert!((oracle.transmission_probability() - 1.0 / remaining as f64).abs() < 1e-15);
            }
            oracle.advance(d);
            if d {
                remaining = remaining.saturating_sub(1);
            }
        }
        prop_assert_eq!(oracle.remaining(), remaining);
    }

    #[test]
    fn ebb_windows_are_positive_and_phase_starts_double(delta in ebb_delta()) {
        let mut ebb = ExpBackonBackoff::try_new(delta).unwrap();
        let mut last_phase = 0u32;
        let mut expected_start = 2u64;
        for _ in 0..300 {
            let w = ebb.next_window();
            prop_assert!(w >= 1);
            let phase = ebb.phase();
            if phase != last_phase {
                prop_assert_eq!(w, expected_start, "first window of phase {}", phase);
                expected_start = expected_start.saturating_mul(2);
                last_phase = phase;
            }
        }
    }

    #[test]
    fn window_schedules_emit_positive_windows(r in 1.1f64..=8.0) {
        let mut llib = LoglogIteratedBackoff::try_new(r).unwrap();
        let mut exp = RExponentialBackoff::try_new(r).unwrap();
        let mut prev_llib = 0u64;
        let mut prev_exp = 0u64;
        for _ in 0..200 {
            let w1 = llib.next_window();
            let w2 = exp.next_window();
            prop_assert!(w1 >= 1 && w2 >= 1);
            prop_assert!(w1 >= prev_llib, "loglog-iterated is monotone");
            prop_assert!(w2 >= prev_exp, "exponential is monotone");
            prev_llib = w1;
            prev_exp = w2;
        }
    }

    #[test]
    fn fair_node_agrees_with_wrapped_state_on_observations(
        delta in ofa_delta(),
        observations in prop::collection::vec(any::<bool>(), 1..200),
        seed in any::<u64>(),
    ) {
        // Driving a FairNode with "someone else delivered / nobody delivered"
        // observations must leave its inner state identical to driving the
        // bare FairProtocol directly: the node's signature (schedule phase
        // and both probability tracks, which pin a fair state) is the bare
        // state's.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut node = FairNode::new(OneFailAdaptive::try_new(delta).unwrap());
        let mut bare = OneFailAdaptive::try_new(delta).unwrap();
        for &delivered in &observations {
            let _ = node.decide(&mut rng);
            node.observe(delivered);
            bare.advance(delivered);
        }
        let (track_a, track_b) = bare.probability_tracks();
        let expected = vec![bare.schedule_phase(), track_a.to_bits(), track_b.to_bits()];
        prop_assert_eq!(node.state_signature(), Some(expected));
    }

    #[test]
    fn analysis_factors_dominate_fair_optimum(
        ofa_d in ofa_delta(),
        ebb_d in ebb_delta(),
    ) {
        let e = analysis::fair_protocol_optimal_ratio();
        prop_assert!(analysis::ofa_linear_factor(ofa_d).unwrap() > e);
        prop_assert!(analysis::ebb_linear_factor(ebb_d).unwrap() > e);
    }

    #[test]
    fn makespan_bounds_are_monotone_in_k(
        ofa_d in ofa_delta(),
        ebb_d in ebb_delta(),
        k in 2u64..=1_000_000,
    ) {
        prop_assert!(
            analysis::ofa_makespan_bound(ofa_d, k + 1).unwrap()
                >= analysis::ofa_makespan_bound(ofa_d, k).unwrap()
        );
        prop_assert!(
            analysis::ebb_makespan_bound(ebb_d, k + 1).unwrap()
                >= analysis::ebb_makespan_bound(ebb_d, k).unwrap()
        );
    }
}

//! Jammed channel: the same seeded instance under increasingly hostile
//! adversaries.
//!
//! ```bash
//! cargo run --release --example jammed_channel
//! ```
//!
//! A small batch of stations runs One-fail Adaptive on the paper's ideal
//! channel and then — with the *same protocol randomness* (the adversary
//! draws from its own RNG stream) — under a periodic jammer, a budgeted
//! reactive jammer that targets near-success slots, stochastic noise, and a
//! feedback fault that hides deliveries from the listeners. The bounded
//! per-slot trace makes the adversary's work visible: `*` delivery, `x`
//! collision, `.` silence, `!` jammed slot.

use contention_resolution::prelude::*;
use contention_resolution::sim::ExactSimulator;

fn run(scenario: AdversaryScenario, label: &str, k: u64, seed: u64) {
    let options = RunOptions::adversarial(scenario);
    let sim = ExactSimulator::new(ProtocolKind::OneFailAdaptive { delta: 2.72 }, options)
        .with_trace(2_000);
    let run = sim
        .run_schedule(&ArrivalSchedule::new(vec![0; k as usize]), seed)
        .expect("paper parameters are valid");
    let trace = run.trace.as_ref().expect("tracing was enabled");

    println!("{label}");
    println!(
        "  makespan {} slots, {}/{} delivered, {} deliveries destroyed by jamming",
        run.result.makespan, run.result.delivered, k, run.result.jammed_deliveries
    );
    println!("  timeline {}", trace.ascii_timeline());
    println!();
}

fn main() {
    let k = 12;
    let seed = 2011;

    println!(
        "One-fail Adaptive, k = {k} stations, same seed under every adversary\n\
         (timeline: `*` delivery, `x` collision, `.` silence, `!` jammed slot)\n"
    );

    run(
        AdversaryScenario::clean(),
        "ideal channel (the paper's model)",
        k,
        seed,
    );
    run(
        AdversaryScenario::jamming(AdversaryModel::PeriodicJam {
            period: 3,
            burst: 1,
            phase: 0,
        }),
        "periodic jammer: every third slot is unusable",
        k,
        seed,
    );
    run(
        AdversaryScenario::jamming(AdversaryModel::BudgetedReactiveJam {
            budget: 6,
            trigger: JamTrigger::NearSuccess,
        }),
        "reactive jammer: destroys the first 6 would-be deliveries, then runs dry",
        k,
        seed,
    );
    run(
        AdversaryScenario::jamming(AdversaryModel::StochasticNoise { p: 0.25 }),
        "stochastic noise: each busy slot corrupted with probability 1/4",
        k,
        seed,
    );
    run(
        AdversaryScenario::faulty_feedback(0.2),
        "missed deliveries: each delivery hidden from the listeners with probability 1/5",
        k,
        seed,
    );

    println!(
        "two things to notice: the missed-delivery run is slot-for-slot identical\n\
         to the ideal one — a lost delivery broadcast leaves the survivors'\n\
         estimate of the contention high, but at this seed that flips no\n\
         transmission decision — and the jammed runs degrade gracefully: destroyed\n\
         deliveries (`!`) cost extra slots, but the stations keep contending.\n\
         (graceful degradation is not unconditional: a periodic jammer whose\n\
         period aligns with the protocol's AT/BT step parity — period 2, phase 0 —\n\
         blocks One-fail Adaptive outright; robustness_sweep quantifies all of\n\
         this at scale.)"
    );
}

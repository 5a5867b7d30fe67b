//! Parameter sensitivity: how the protocols' δ constants trade off against
//! the measured slots-per-message ratio.
//!
//! ```bash
//! cargo run --release --example parameter_sweep
//! ```
//!
//! Theorem 1 admits any `e < δ ≤ 2.99` for One-fail Adaptive and Theorem 2
//! any `0 < δ < 1/e` for Exp Back-on/Back-off; the paper's simulations pick
//! δ = 2.72 and δ = 0.366. This example sweeps both parameters at a fixed
//! instance size and prints measured ratio vs. the analytical factor, showing
//! why the paper's choices are sensible defaults. A last section sweeps the
//! growth factor `r` of the two monotone back-off baselines at the same size.

use contention_resolution::prelude::*;
use contention_resolution::prob::stats::StreamingStats;

fn mean_ratio(kind: &ProtocolKind, k: u64, replications: u64) -> f64 {
    let mut stats = StreamingStats::new();
    for rep in 0..replications {
        let result = simulate(kind, k, 1_000 + rep).expect("parameters validated by caller");
        assert!(result.completed);
        stats.push(result.ratio());
    }
    stats.mean()
}

fn main() {
    let k = 20_000;
    let replications = 3;

    println!("One-fail Adaptive, k = {k}: measured ratio vs analysis 2(δ+1)\n");
    println!("{:>8} {:>12} {:>12}", "delta", "measured", "analysis");
    for delta in [2.72, 2.80, 2.90, 2.99] {
        let measured = mean_ratio(&ProtocolKind::OneFailAdaptive { delta }, k, replications);
        let bound = analysis::ofa_linear_factor(delta).expect("in range");
        println!("{delta:>8.2} {measured:>12.2} {bound:>12.2}");
    }

    println!("\nExp Back-on/Back-off, k = {k}: measured ratio vs analysis 4(1+1/δ)\n");
    println!("{:>8} {:>12} {:>12}", "delta", "measured", "analysis");
    for delta in [0.05, 0.15, 0.25, 0.30, 0.366] {
        let measured = mean_ratio(&ProtocolKind::ExpBackonBackoff { delta }, k, replications);
        let bound = analysis::ebb_linear_factor(delta).expect("in range");
        println!("{delta:>8.3} {measured:>12.2} {bound:>12.2}");
    }

    println!(
        "\nLarger δ makes Exp Back-on/Back-off's analysis constant smaller, but the\n\
         measured averages move far less: most windows deliver well more than the δ\n\
         fraction the worst-case analysis accounts for."
    );

    println!("\nMonotone back-off, k = {k}: measured ratio per growth factor r\n");
    println!(
        "{:>8} {:>16} {:>16}",
        "r", "loglog-iterated", "r-exponential"
    );
    for r in [1.5, 2.0, 3.0, 4.0] {
        let loglog = mean_ratio(&ProtocolKind::LoglogIteratedBackoff { r }, k, replications);
        let exponential = mean_ratio(&ProtocolKind::RExponentialBackoff { r }, k, replications);
        println!("{r:>8.1} {loglog:>16.2} {exponential:>16.2}");
    }

    println!(
        "\nr-exponential Back-off pays more the faster its windows grow: its last\n\
         messages wait out a window r times longer than the one before."
    );
}

//! Side-by-side comparison of every protocol in the paper's evaluation.
//!
//! ```bash
//! cargo run --release --example protocol_comparison
//! ```
//!
//! Runs the five configurations of the paper's Figure 1 / Table 1 (plus the
//! known-k oracle as the fair-protocol optimum) on a small grid of instance
//! sizes with a few replications each, and prints the slots-per-message
//! ratios as a markdown table — a miniature of Table 1 that finishes in
//! seconds.

use contention_resolution::prelude::*;

fn main() {
    let ks = vec![100, 1_000, 10_000, 100_000];
    let replications = 5;

    let mut protocols = ProtocolKind::paper_lineup();
    protocols.push(ProtocolKind::KnownKOracle);
    protocols.push(ProtocolKind::RExponentialBackoff { r: 2.0 });

    let experiment = Experiment {
        protocols,
        ks: ks.clone(),
        replications,
        master_seed: 7,
        options: RunOptions::default(),
        threads: 0,
    };

    println!("ratio slots/k, {replications} replications per cell (cf. Table 1 of the paper)\n");
    let results = experiment.run().expect("paper parameters are valid");
    println!("{}", table1_markdown(&results));

    println!("raw CSV:\n");
    print!("{}", to_csv(&results));
}

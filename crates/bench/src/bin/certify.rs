//! Worst-case jamming certificates: the committed robustness table.
//!
//! ```bash
//! cargo run -p mac-bench --release --bin certify
//! # Options:
//! #   --seed S       master seed (default 2011)
//! #   --out PATH     write the table to PATH instead of stdout
//! #   --check PATH   regenerate and diff against a committed table;
//! #                  exit 1 on any mismatch (a CI release gate)
//! ```
//!
//! Runs both tiers of the adversary strategy search
//! (`mac_sim::worst_case_exhaustive` / `mac_sim::worst_case_search`) over
//! the robustness line-up (One-fail Adaptive, Exp Back-on/Back-off,
//! Loglog-iterated Back-off, known-k oracle) at two jam budgets each, and
//! renders one deterministic markdown table per tier:
//!
//! * **tier (a)** — exhaustive game-tree certificates at small k: the worst
//!   makespan is a *proof* over all budget-B jamming strategies, and the jam
//!   slots are printed in full. On One-fail Adaptive the certified attacks
//!   land on a stride-2, single-parity comb — the AT/BT resonance,
//!   rediscovered by search rather than scripted (asserted by
//!   `tests/certificate_replay.rs`);
//! * **tier (b)** — budgeted beam-search certificates at k = 1000 on the
//!   fast engines: best-found attacks (no optimality claim), summarised by
//!   jam count, span and stride.
//!
//! Everything is derived from the master seed, so `--check` against the
//! committed `CERTIFICATES.md` is an exact string comparison. The cell
//! generators live in [`mac_bench::certify`] so the integration tests can
//! replay the committed certificates.

use mac_bench::certify::{
    render, tier_a_certificates, tier_b_certificates, DEFAULT_SEED, TIER_A_BUDGETS, TIER_A_K,
    TIER_B_BUDGETS, TIER_B_K,
};

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires an integer");
            }
            "--out" => out_path = Some(args.next().expect("--out requires a path")),
            "--check" => check_path = Some(args.next().expect("--check requires a path")),
            other => panic!("unknown option {other} (expected --seed/--out/--check)"),
        }
    }

    eprintln!(
        "certify: tier (a) exhaustive at k = {TIER_A_K}, tier (b) search at k = {TIER_B_K}, budgets {TIER_A_BUDGETS:?}/{TIER_B_BUDGETS:?}, seed {seed}"
    );
    let tier_a = tier_a_certificates(seed);
    for (certificate, stats) in &tier_a {
        eprintln!(
            "  [a] {} B={}: worst {} / clean {} ({} leaves, {} memo hits)",
            certificate.protocol,
            certificate.budget,
            certificate.makespan,
            certificate.clean_makespan,
            stats.leaves,
            stats.memo_hits
        );
    }
    let tier_b = tier_b_certificates(seed);
    for (certificate, cost) in &tier_b {
        eprintln!(
            "  [b] {} B={}: worst {} / clean {} ({} evaluations, {} rounds)",
            certificate.protocol,
            certificate.budget,
            certificate.makespan,
            certificate.clean_makespan,
            cost.evaluations,
            cost.rounds
        );
    }
    let rendered = render(seed, &tier_a, &tier_b);

    if let Some(path) = check_path {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        if committed == rendered {
            eprintln!("certify: {path} is up to date");
        } else {
            eprintln!("certify: {path} DIFFERS from the regenerated table;");
            eprintln!(
                "regenerate with: cargo run -p mac-bench --release --bin certify -- --out {path}"
            );
            print!("{rendered}");
            std::process::exit(1);
        }
    } else if let Some(path) = out_path {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("certify: wrote {path}");
    } else {
        print!("{rendered}");
    }
}

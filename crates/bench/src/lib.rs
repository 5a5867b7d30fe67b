//! # mac-bench — evaluation harness for the paper's figures and tables
//!
//! This crate hosts the binaries that regenerate the evaluation artefacts of
//! the paper (run them with `--release`; the full paper-scale sweep to
//! `k = 10⁷` is opt-in because it takes minutes):
//!
//! * `cargo run -p mac-bench --release --bin figure1` — Figure 1: average
//!   number of slots to solve static k-selection vs. `k`, one series per
//!   protocol (gnuplot-ready blocks + CSV);
//! * `cargo run -p mac-bench --release --bin table1` — Table 1: the ratio
//!   slots/k per protocol and `k`, with the paper's "Analysis" column;
//! * `cargo run -p mac-bench --release --bin ablation_delta` — sensitivity of
//!   both new protocols to their δ parameter (extension experiment);
//! * `cargo run -p mac-bench --release --bin ablation_backoff` — growth-factor
//!   sweep for the monotone back-off baselines (extension experiment).
//!
//! Whole-run wall time of the simulators is measured by the `perf_snapshot`
//! binary below and by the end-to-end benchmark in `perfbench/`; a speed
//! number counts only once it lands in a committed `BENCH_*.json`.
//!
//! # Perf tracking: the `BENCH_*.json` workflow
//!
//! The repository tracks simulator throughput across PRs with committed
//! snapshot files at the repository root, one per snapshot generation:
//! `BENCH_01.json` (this PR's baseline), `BENCH_02.json` for the next
//! perf-relevant change, and so on. Each file records slots-simulated per
//! second for the three engines (fair, window, exact) in a stable,
//! diff-friendly JSON format (`mac-bench/perf-snapshot/v1`).
//!
//! To add a new snapshot after a perf-relevant change, run from the
//! repository root and commit the new file:
//!
//! ```bash
//! cargo run -p mac-bench --release --bin perf_snapshot -- --max-exp 6
//! ```
//!
//! (The binary writes the next free `BENCH_NN.json` in the current
//! directory — existing snapshots are never overwritten.) A change is a
//! regression if a new snapshot's `slots_per_sec` falls well below the
//! previous snapshot's on the same machine class; the numbers are
//! best-of-`--reps` wall-clock measurements, so small jitter is expected but
//! halvings are real. The `perf_snapshot` binary accepts the shared
//! [`HarnessOptions`] flags (`--seed`, `--max-exp`, `--reps`); the
//! end-to-end benchmark in `perfbench/` attributes a regression to a layer.
//!
//! The library part of the crate contains the small amount of shared plumbing
//! used by the binaries: command-line parsing, default grids, the next free
//! snapshot name ([`next_snapshot_path`]) and the byte-for-byte gate on
//! committed artefacts ([`check_committed`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod saturation;

use mac_sim::Experiment;

/// The instance sizes of the paper's evaluation: powers of ten from 10 up to
/// `10^max_exponent` (the paper uses `max_exponent = 7`).
pub fn paper_ks(max_exponent: u32) -> Vec<u64> {
    (1..=max_exponent).map(|e| 10u64.pow(e)).collect()
}

/// The next free `BENCH_NN.json` in the current directory: the snapshot
/// writers (`perf_snapshot`, `saturation_map`) add a file instead of
/// overwriting a committed one.
///
/// # Panics
/// If `BENCH_01.json` to `BENCH_99.json` all exist.
pub fn next_snapshot_path() -> String {
    (1..=99)
        .map(|n| format!("BENCH_{n:02}.json"))
        .find(|p| !std::path::Path::new(p).exists())
        .expect("fewer than 99 snapshots")
}

/// The `--check` gate of the artefact writers (`certify`,
/// `saturation_map`): compares a regenerated artefact with the committed
/// file at `path`, byte for byte. Every artefact is deterministic per seed,
/// so any difference is drift.
///
/// # Errors
/// A message naming the file and its first differing line, with both
/// versions of that line, or the error that kept the file from being read.
pub fn check_committed(path: &str, regenerated: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if committed == regenerated {
        return Ok(());
    }
    let quote = |line: Option<&str>| line.map_or("end of file".to_string(), |l| format!("{l:?}"));
    let (mut old, mut new) = (
        committed.split_inclusive('\n'),
        regenerated.split_inclusive('\n'),
    );
    let (line, old, new) = (1..)
        .map(|line| (line, old.next(), new.next()))
        .find(|(_, old, new)| old != new)
        .expect("unequal texts differ on some line");
    Err(format!(
        "{path}:{line}: committed {}, regenerated {}",
        quote(old),
        quote(new)
    ))
}

/// Parses the `--flag <u64>` arguments of a gate binary (program name
/// excluded) against its known `(flag, default)` pairs and returns one value
/// per flag, in the order given; absent flags keep their default.
///
/// # Panics
/// With a usage message on an unknown argument, or on a flag whose value
/// is missing or not a `u64` — the harness binaries' documented behaviour.
pub fn parse_u64_flags<const N: usize>(
    args: impl IntoIterator<Item = String>,
    flags: [(&str, u64); N],
) -> [u64; N] {
    let usage = flags.map(|(flag, default)| format!("[{flag} N (default {default})]"));
    let usage = usage.join(" ");
    let mut values = flags.map(|(_, default)| default);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some(i) = flags.iter().position(|&(flag, _)| flag == arg) else {
            panic!("unknown argument `{arg}`; usage: {usage}");
        };
        let value = args.next().unwrap_or_default();
        values[i] = value.parse().unwrap_or_else(|_| {
            panic!("{arg} requires an integer argument, got `{value}`; usage: {usage}")
        });
    }
    values
}

/// Minimal command-line options shared by the harness binaries.
///
/// Recognised flags (all optional):
/// `--max-exp <u32>` (default 5; the paper uses 7),
/// `--reps <u64>` (default 10, as in the paper),
/// `--seed <u64>` (default 2011),
/// `--full` (shorthand for `--max-exp 7`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Largest instance size is `10^max_exp`.
    pub max_exp: u32,
    /// Replications per (protocol, k) cell.
    pub reps: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            max_exp: 5,
            reps: 10,
            seed: 2011,
        }
    }
}

impl HarnessOptions {
    /// Parses the options from an iterator of command-line arguments
    /// (excluding the program name). Unknown flags cause a panic with a usage
    /// message, which is the desired behaviour for a harness binary.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--max-exp" => {
                    options.max_exp = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--max-exp requires an integer argument");
                }
                "--reps" => {
                    options.reps = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--reps requires an integer argument");
                }
                "--seed" => {
                    options.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires an integer argument");
                }
                "--full" => options.max_exp = 7,
                "--help" | "-h" => {
                    println!(
                        "usage: [--max-exp N] [--reps R] [--seed S] [--full]\n\
                         --max-exp N  largest instance size is 10^N (default 5, paper uses 7)\n\
                         --reps R     replications per cell (default 10, as in the paper)\n\
                         --seed S     master seed (default 2011)\n\
                         --full       shorthand for --max-exp 7 (the paper-scale sweep)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument `{other}` (try --help)"),
            }
        }
        assert!(
            (1..=7).contains(&options.max_exp),
            "--max-exp must be between 1 and 7"
        );
        options
    }

    /// The experiment this option set describes: the paper's sweep with
    /// this option set's sizes, replications and seed.
    pub fn experiment(&self) -> Experiment {
        Experiment {
            replications: self.reps,
            ..Experiment::paper(paper_ks(self.max_exp), self.seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ks_are_powers_of_ten() {
        assert_eq!(paper_ks(3), vec![10, 100, 1000]);
        assert_eq!(paper_ks(7).len(), 7);
        assert_eq!(*paper_ks(7).last().unwrap(), 10_000_000);
    }

    #[test]
    fn default_options_match_paper_replications() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.reps, 10);
        let experiment = opts.experiment();
        assert_eq!(experiment.protocols.len(), 5);
        assert_eq!(experiment.replications, 10);
    }

    #[test]
    fn parse_recognises_all_flags() {
        let opts = HarnessOptions::parse(
            ["--max-exp", "3", "--reps", "2", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(
            opts,
            HarnessOptions {
                max_exp: 3,
                reps: 2,
                seed: 9
            }
        );
        let full = HarnessOptions::parse(["--full".to_string()]);
        assert_eq!(full.max_exp, 7);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_unknown_flags() {
        HarnessOptions::parse(["--bogus".to_string()]);
    }

    fn gate_flags(args: &[&str]) -> [u64; 2] {
        let args = args.iter().map(|s| s.to_string());
        parse_u64_flags(args, [("--seed", 2011), ("--k", 20_000)])
    }

    #[test]
    fn gate_flags_parse_values_and_keep_defaults() {
        assert_eq!(gate_flags(&[]), [2011, 20_000]);
        assert_eq!(gate_flags(&["--k", "50"]), [2011, 50]);
        assert_eq!(gate_flags(&["--k", "50", "--seed", "7"]), [7, 50]);
    }

    #[test]
    #[should_panic(expected = "unknown argument `--slots`")]
    fn gate_flags_reject_unknown_flags() {
        gate_flags(&["--slots", "10"]);
    }

    #[test]
    #[should_panic(expected = "--k requires an integer argument")]
    fn gate_flags_reject_unparseable_values() {
        gate_flags(&["--k", "abc"]);
    }

    #[test]
    fn check_committed_names_the_first_differing_line() {
        let dir = mac_sim::faults::scratch_dir("check-committed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artefact.md");
        std::fs::write(&path, "a\nb: 1\nc\n").unwrap();
        let path_str = path.to_str().unwrap();
        let check = |text: &str| check_committed(path_str, text);
        assert_eq!(check("a\nb: 1\nc\n"), Ok(()));
        assert_eq!(
            check("a\nb: 2\nc\n"),
            Err(format!(
                r#"{path_str}:2: committed "b: 1\n", regenerated "b: 2\n""#
            ))
        );
        assert_eq!(
            check("a\nb: 1\nc\nd\n"),
            Err(format!(
                r#"{path_str}:4: committed end of file, regenerated "d\n""#
            ))
        );
        assert_eq!(
            check("a\nb: 1\nc"),
            Err(format!(r#"{path_str}:3: committed "c\n", regenerated "c""#))
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(check("a\n").unwrap_err().starts_with(path_str));
    }
}

//! `mac-lint` — workspace static analysis for the determinism and
//! checkpoint contracts everything else in this repository hand-keeps.
//!
//! Every guarantee this reproduction makes — bit-identical
//! checkpoint/resume, inert-adversary stream identity, certificate replay —
//! rests on invariants that no type system enforces: RNG streams must be
//! derived, checkpoints must cover every field, frame layouts must not
//! drift under a constant version. The dynamic tests catch violations
//! *after* they ship a wrong bit; this pass rejects them at lint time.
//!
//! Five rules, each with file:line diagnostics and a mandatory-reason
//! escape hatch (`// lint:allow(<rule>): <reason>` — an allow without a
//! reason is itself an error):
//!
//! | rule | contract |
//! |------|----------|
//! | `rng-stream-discipline`  | RNG construction flows through `derive_seed` + a `*_STREAM` constant |
//! | `checkpoint-coverage`    | every struct field appears in `checkpoint_words`/`restore_words` |
//! | `nondeterminism-bans`    | no hash-ordered iteration, wall clocks, env reads or thread identity in result-affecting crates |
//! | `panic-hygiene`          | no `unwrap`/`expect`/bare indexing on session/store/stepper/dynamic library paths |
//! | `wire-version-hygiene`   | frame-layout fingerprints match the committed ledger at the committed `CHECKPOINT_VERSION` |
//!
//! Run locally with `cargo run -p mac-lint`; CI runs the same binary in
//! the `build-and-test` job. The scanner is a hand-rolled lexer
//! ([`lexer`]) — no syn, no proc-macro machinery, no dependencies — so it
//! builds offline and lints the whole workspace in milliseconds.

pub mod analysis;
pub mod lexer;
pub mod rules;

use analysis::analyze;
use rules::wire;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, pointing at a workspace-relative file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of a workspace pass.
#[derive(Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
}

/// Relative path of the committed frame-layout ledger.
pub const LEDGER_PATH: &str = "crates/lint/wire.ledger";

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", ".github"];

/// Collects every `.rs` file under the workspace root (sorted, relative,
/// forward slashes), skipping build output and the vendored stubs.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the whole pass over a workspace. With `update_ledger`, the
/// frame-layout ledger is rewritten from the current tree instead of
/// checked against it.
pub fn lint_workspace(root: &Path, update_ledger: bool) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut frames = Vec::new();
    let mut version = None;
    for rel in workspace_rs_files(root)? {
        let source = fs::read_to_string(root.join(&rel))?;
        let analysis = analyze(&rel, &source);
        report.files_scanned += 1;
        report.diagnostics.extend(rules::run_file_rules(&analysis));
        frames.extend(wire::frames_of(&analysis));
        if rel == wire::SESSION_FILE {
            version = wire::checkpoint_version(&analysis);
        }
    }
    let ledger_file: PathBuf = root.join(LEDGER_PATH);
    if update_ledger {
        let Some(version) = version else {
            return Err(io::Error::other("CHECKPOINT_VERSION not found"));
        };
        fs::write(&ledger_file, wire::render_ledger(&frames, version))?;
    } else {
        let ledger_text = fs::read_to_string(&ledger_file).ok();
        report.diagnostics.extend(wire::check_ledger(
            &frames,
            version,
            ledger_text.as_deref(),
            LEDGER_PATH,
        ));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    // Allows are line-granular, so multiple hits of one rule on one line
    // (e.g. two indexing expressions) collapse to a single finding.
    report
        .diagnostics
        .dedup_by(|a, b| (&a.path, a.line, &a.rule) == (&b.path, b.line, &b.rule));
    Ok(report)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

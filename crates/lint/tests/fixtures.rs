//! Fixture tests for the invariants pass: one known-bad snippet per rule
//! must produce its diagnostic (and the corrected form must not), a
//! seeded field-added-but-not-serialized mutation of *real* protocol
//! source must be caught, and the current tree must lint clean — so the
//! lint gate in CI is known to fail on the bug classes it claims to
//! reject, not just to pass on a healthy tree.

use mac_lint::analysis::analyze;
use mac_lint::rules::{run_file_rules, wire};
use mac_lint::{lint_workspace, workspace_rs_files, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

fn diags(path: &str, source: &str) -> Vec<Diagnostic> {
    run_file_rules(&analyze(path, source))
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

// --- rng-stream-discipline -------------------------------------------------

#[test]
fn rng_fixture_raw_seed_in_library_code_fails() {
    let bad =
        "pub fn start(seed: u64) -> Xoshiro256pp {\n    Xoshiro256pp::seed_from_u64(seed)\n}\n";
    let found = diags("crates/sim/src/fixture.rs", bad);
    assert_eq!(rules_of(&found), ["rng-stream-discipline"]);
    assert_eq!(found[0].line, 2);
    assert_eq!(found[0].path, "crates/sim/src/fixture.rs");
}

#[test]
fn rng_fixture_derived_seed_passes() {
    let good = "pub fn start(seed: u64) -> Xoshiro256pp {\n    Xoshiro256pp::seed_from_u64(derive_seed(seed, &[RUN_STREAM]))\n}\n";
    assert!(diags("crates/sim/src/fixture.rs", good).is_empty());
}

#[test]
fn rng_fixture_test_code_and_tooling_crates_are_out_of_scope() {
    let in_test = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let rng = Xoshiro256pp::seed_from_u64(7);\n    }\n}\n";
    assert!(diags("crates/sim/src/fixture.rs", in_test).is_empty());
    let in_bench =
        "pub fn start(seed: u64) -> Xoshiro256pp {\n    Xoshiro256pp::seed_from_u64(seed)\n}\n";
    assert!(diags("crates/bench/src/fixture.rs", in_bench).is_empty());
}

// --- checkpoint-coverage ---------------------------------------------------

const CHECKPOINT_FIXTURE: &str = "\
pub struct Clock {
    ticks: u64,
    drift: u64,
}
impl Resumable for Clock {
    fn checkpoint_words(&self, out: &mut Vec<u64>) {
        out.push(self.ticks);
    }
    fn restore_words(&mut self, mut words: impl Iterator<Item = u64>) {
        self.ticks = words.next().unwrap_or(0);
    }
}
";

#[test]
fn checkpoint_fixture_unreferenced_field_fails() {
    let found = diags("crates/protocols/src/fixture.rs", CHECKPOINT_FIXTURE);
    assert_eq!(rules_of(&found), ["checkpoint-coverage"]);
    assert!(found[0].message.contains("`drift`"), "{}", found[0].message);
    assert_eq!(found[0].line, 3);
}

#[test]
fn checkpoint_fixture_restore_reference_counts_as_coverage() {
    let fixed = CHECKPOINT_FIXTURE.replace(
        "self.ticks = words.next().unwrap_or(0);",
        "self.ticks = words.next().unwrap_or(0);\n        self.drift = words.next().unwrap_or(0);",
    );
    assert!(diags("crates/protocols/src/fixture.rs", &fixed).is_empty());
}

/// The acceptance demonstration: seed a field-added-but-not-serialized
/// mutation into the *real* OneFailAdaptive source and watch the rule
/// catch it at the new field's declaration line.
#[test]
fn checkpoint_rule_catches_seeded_mutation_of_real_source() {
    let rel = "crates/protocols/src/one_fail.rs";
    let source = fs::read_to_string(workspace_root().join(rel)).expect("protocol source exists");
    assert!(
        diags(rel, &source).is_empty(),
        "the unmutated source must be clean"
    );
    let marker = "pub struct OneFailAdaptive {";
    let mutated = source.replace(
        marker,
        "pub struct OneFailAdaptive {\n    ghost_counter: u64,",
    );
    assert_ne!(source, mutated, "mutation marker not found in {rel}");
    let found = diags(rel, &mutated);
    assert_eq!(rules_of(&found), ["checkpoint-coverage"]);
    assert!(
        found[0].message.contains("`ghost_counter`"),
        "{}",
        found[0].message
    );
}

// --- nondeterminism-bans ---------------------------------------------------

#[test]
fn nondet_fixture_hash_containers_and_clocks_fail() {
    let bad = "use std::collections::HashMap;\npub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let found = diags("crates/channel/src/fixture.rs", bad);
    // HashMap on line 1, Instant in the return type and in the body.
    assert_eq!(
        rules_of(&found),
        [
            "nondeterminism-bans",
            "nondeterminism-bans",
            "nondeterminism-bans"
        ]
    );
    let fixed = "use std::collections::BTreeMap;\npub fn t(slot: u64) -> u64 {\n    slot\n}\n";
    assert!(diags("crates/channel/src/fixture.rs", fixed).is_empty());
}

#[test]
fn nondet_fixture_env_read_fails_and_allow_with_reason_suppresses() {
    let bad = "pub fn dir() -> std::path::PathBuf {\n    std::env::temp_dir()\n}\n";
    let found = diags("crates/sim/src/fixture.rs", bad);
    assert_eq!(rules_of(&found), ["nondeterminism-bans"]);
    let allowed = "pub fn dir() -> std::path::PathBuf {\n    // lint:allow(nondeterminism-bans): harness plumbing, not results\n    std::env::temp_dir()\n}\n";
    assert!(diags("crates/sim/src/fixture.rs", allowed).is_empty());
}

// --- panic-hygiene -----------------------------------------------------------

#[test]
fn panic_fixture_unwrap_expect_and_indexing_fail() {
    let bad = "pub fn f(v: &[u64]) -> u64 {\n    let x = v.first().unwrap();\n    let y = v.last().expect(\"non-empty\");\n    x + y + v[0]\n}\n";
    let found = diags("crates/sim/src/store.rs", bad);
    assert_eq!(
        rules_of(&found),
        ["panic-hygiene", "panic-hygiene", "panic-hygiene"]
    );
    assert_eq!(found.iter().map(|d| d.line).collect::<Vec<_>>(), [2, 3, 4]);
}

#[test]
fn panic_fixture_get_and_slice_patterns_pass() {
    let good = "pub fn f(v: &[u64]) -> u64 {\n    let [first, .., last] = v else { return 0 };\n    first + last + v.first().copied().unwrap_or(0)\n}\n";
    assert!(diags("crates/sim/src/store.rs", good).is_empty());
}

#[test]
fn panic_fixture_out_of_scope_files_are_ignored() {
    let bad = "pub fn f(v: &[u64]) -> u64 { v[0] }\n";
    assert!(diags("crates/sim/src/exact.rs", bad).is_empty());
}

// --- wire-version-hygiene ----------------------------------------------------

const SESSION_FIXTURE: &str = "\
const CHECKPOINT_VERSION: u64 = 2;
pub struct Watchdog {
    window: u64,
    threshold: u64,
}
impl Watchdog {
    fn encode(&self, out: &mut Encoder) {
        out.put_u64(self.window);
        out.put_u64(self.threshold);
    }
}
";

#[test]
fn wire_fixture_layout_change_without_version_bump_fails() {
    let analysis = analyze(wire::SESSION_FILE, SESSION_FIXTURE);
    let frames = wire::frames_of(&analysis);
    assert_eq!(frames.len(), 1);
    let version = wire::checkpoint_version(&analysis);
    assert_eq!(version, Some(2));
    let ledger = wire::render_ledger(&frames, 2);

    // Unchanged layout against its own ledger: clean.
    assert!(wire::check_ledger(&frames, version, Some(&ledger), "L").is_empty());

    // Reorder the emission without touching the version: must fail, and
    // the message must demand a version bump.
    let reordered = SESSION_FIXTURE.replace(
        "out.put_u64(self.window);\n        out.put_u64(self.threshold);",
        "out.put_u64(self.threshold);\n        out.put_u64(self.window);",
    );
    assert_ne!(reordered, SESSION_FIXTURE);
    let changed = analyze(wire::SESSION_FILE, &reordered);
    let changed_frames = wire::frames_of(&changed);
    let found = wire::check_ledger(&changed_frames, version, Some(&ledger), "L");
    assert_eq!(found.len(), 1);
    assert!(
        found[0].message.contains("bump the version"),
        "{}",
        found[0].message
    );

    // Same change *with* a version bump: the message flips to asking for
    // a ledger regeneration instead.
    let bumped = reordered.replace("CHECKPOINT_VERSION: u64 = 2", "CHECKPOINT_VERSION: u64 = 3");
    let bumped_analysis = analyze(wire::SESSION_FILE, &bumped);
    let bumped_frames = wire::frames_of(&bumped_analysis);
    let bumped_version = wire::checkpoint_version(&bumped_analysis);
    assert_eq!(bumped_version, Some(3));
    let found = wire::check_ledger(&bumped_frames, bumped_version, Some(&ledger), "L");
    assert_eq!(found.len(), 1);
    assert!(
        found[0].message.contains("--update-ledger"),
        "{}",
        found[0].message
    );
}

/// An engine core whose payload a session frame embeds, declared through a
/// generic inherent impl as the real cores are.
const CORE_FIXTURE: &str = "\
pub(crate) struct FairEngineCore<P> {
    state: P,
    slot: u64,
    silent: u64,
}
impl<P: FairProtocol> FairEngineCore<P> {
    pub(crate) fn encode(&self, out: &mut Encoder) -> bool {
        out.put_u64(self.slot);
        out.put_u64(self.silent);
        out.put_words(&self.state.checkpoint_words());
        true
    }
}
";

#[test]
fn wire_fixture_engine_core_payloads_are_fingerprinted() {
    let path = "crates/sim/src/aggregate.rs";
    let frames = wire::frames_of(&analyze(path, CORE_FIXTURE));
    let keys: Vec<&str> = frames.iter().map(|f| f.key.as_str()).collect();
    assert_eq!(
        keys,
        ["crates/sim/src/aggregate.rs::FairEngineCore::encode"]
    );
    let ledger = wire::render_ledger(&frames, 3);
    assert!(wire::check_ledger(&frames, Some(3), Some(&ledger), "L").is_empty());

    // Swapping two payload fields under the same version must fail.
    let swapped = CORE_FIXTURE.replace(
        "out.put_u64(self.slot);\n        out.put_u64(self.silent);",
        "out.put_u64(self.silent);\n        out.put_u64(self.slot);",
    );
    assert_ne!(swapped, CORE_FIXTURE);
    let changed = wire::frames_of(&analyze(path, &swapped));
    let found = wire::check_ledger(&changed, Some(3), Some(&ledger), "L");
    assert_eq!(rules_of(&found), ["wire-version-hygiene"]);
    assert!(found[0].message.contains("bump the version"));

    // An `encode` outside the frame files is not a checkpoint layout.
    assert!(wire::frames_of(&analyze("crates/sim/src/store.rs", CORE_FIXTURE)).is_empty());
}

/// The codecs a frame embeds outside the engine cores are fingerprinted
/// too — free functions in the session file and the arrival streams'
/// methods. Swapping the first two words of the *real* `encode_options`, or
/// moving the *real* `ArrivalStream::encode`'s cursor word after `emitted`,
/// must fail against the committed ledger under the same version.
#[test]
fn wire_rule_catches_reordered_embedded_codecs_in_real_sources() {
    let root = workspace_root();
    let ledger = fs::read_to_string(root.join(mac_lint::LEDGER_PATH)).expect("committed ledger");
    let session = fs::read_to_string(root.join(wire::SESSION_FILE)).expect("session source");
    let version = wire::checkpoint_version(&analyze(wire::SESSION_FILE, &session));
    let cases = [
        (
            wire::SESSION_FILE,
            "crates/sim/src/session.rs::encode_options",
            vec![(
                "    out.put_u64(options.slot_cap_per_message);\n    out.put_u64(options.min_slot_cap);",
                "    out.put_u64(options.min_slot_cap);\n    out.put_u64(options.slot_cap_per_message);",
            )],
        ),
        (
            "crates/channel/src/stream.rs",
            "crates/channel/src/stream.rs::ArrivalStream::encode",
            vec![
                ("        out.put_u64(self.cursor);\n", ""),
                (
                    "        out.put_u64(self.emitted);\n",
                    "        out.put_u64(self.emitted);\n        out.put_u64(self.cursor);\n",
                ),
            ],
        ),
    ];
    for (rel, key, edits) in cases {
        let source = fs::read_to_string(root.join(rel)).expect("frame source");
        // The ledger entries of this file alone, so the rest of the tree's
        // frames do not read as stale entries.
        let own: String = ledger
            .lines()
            .filter(|line| line.starts_with(&format!("{rel}::")))
            .map(|line| format!("{line}\n"))
            .collect();
        let frames = wire::frames_of(&analyze(rel, &source));
        assert!(frames.iter().any(|f| f.key == key), "{key} is not a frame");
        assert!(wire::check_ledger(&frames, version, Some(&own), "L").is_empty());

        let mut mutated = source.clone();
        for (from, to) in edits {
            assert_eq!(mutated.matches(from).count(), 1, "{rel}: {from:?}");
            mutated = mutated.replacen(from, to, 1);
        }
        let changed = wire::frames_of(&analyze(rel, &mutated));
        let found = wire::check_ledger(&changed, version, Some(&own), "L");
        assert_eq!(rules_of(&found), ["wire-version-hygiene"], "{key}");
        assert!(found[0].message.contains(key), "{}", found[0].message);
        assert!(found[0].message.contains("bump the version"));
    }
}

#[test]
fn wire_fixture_missing_ledger_fails() {
    let analysis = analyze(wire::SESSION_FILE, SESSION_FIXTURE);
    let frames = wire::frames_of(&analysis);
    let found = wire::check_ledger(&frames, Some(2), None, "crates/lint/wire.ledger");
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("missing frame-layout ledger"));
}

// --- allow-annotation contract ----------------------------------------------

#[test]
fn allow_without_reason_never_suppresses_and_is_itself_flagged() {
    let bad = "pub fn dir() -> std::path::PathBuf {\n    // lint:allow(nondeterminism-bans)\n    std::env::temp_dir()\n}\n";
    let found = diags("crates/sim/src/fixture.rs", bad);
    let mut rules = rules_of(&found);
    rules.sort_unstable();
    assert_eq!(rules, ["lint-allow", "nondeterminism-bans"]);
}

/// Meta-test over the real tree: every `lint:allow` annotation in the
/// workspace parses, names a known rule, and carries a non-empty reason.
#[test]
fn every_allow_in_the_workspace_carries_a_reason() {
    let root = workspace_root();
    let mut total_allows = 0usize;
    for rel in workspace_rs_files(&root).expect("workspace scan") {
        let source = fs::read_to_string(root.join(&rel)).expect("readable source");
        let analysis = analyze(&rel, &source);
        assert!(
            analysis.meta_diagnostics.is_empty(),
            "malformed allow annotations in {rel}: {:?}",
            analysis.meta_diagnostics
        );
        for allow in &analysis.allows {
            assert!(
                !allow.reason.trim().is_empty(),
                "{rel}:{}: allow without a reason",
                allow.line
            );
            total_allows += 1;
        }
    }
    // The triaged tree carries annotations; losing them all would mean
    // the parser regressed into not seeing any.
    assert!(total_allows >= 10, "only {total_allows} allows found");
}

// --- the tree itself ----------------------------------------------------------

/// The gate CI enforces: the current tree, including the committed
/// wire.ledger, must be violation-free.
#[test]
fn current_tree_lints_clean() {
    let report = lint_workspace(&workspace_root(), false).expect("lint pass runs");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}

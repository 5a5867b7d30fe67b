//! Rule `wire-version-hygiene`: the serialized layout of every checkpoint
//! frame — the ordered field list each `checkpoint_words` emits, and the
//! ordered emission sequence of every codec a frame embeds (each `encode`
//! or `encode_*` function, method or free, in the [`ENCODE_FILES`]) and of
//! the two frame writers themselves (the session's and the fleet's
//! `checkpoint`) — is
//! fingerprinted into a committed ledger (`crates/lint/wire.ledger`).
//! Changing a layout without bumping `CHECKPOINT_VERSION` fails the lint:
//! an old checkpoint would otherwise decode into garbage *silently*,
//! because the integrity digest only protects against corruption, not
//! against a reader with a different field map. Regenerate the ledger
//! with `cargo run -p mac-lint -- --update-ledger` after a version bump.
//!
//! A codec that writes the parameters of a matched enum variant
//! (`out.put_f64(*delta)`) also gets a `<key>#params` entry fingerprinting
//! those names in write order: its emission sequence reads every such write
//! as the same `put_f64`, so a swap of two same-typed parameters would
//! otherwise pass. The companion entry adds that coverage without changing
//! the fingerprint of any layout entry, whose change must keep meaning a
//! layout change.

use crate::analysis::{deref_args, dotted_idents, self_field_refs, FileAnalysis};
use crate::Diagnostic;
use std::collections::BTreeMap;

pub const RULE: &str = "wire-version-hygiene";

/// The file that owns the frame format and its version constant.
pub const SESSION_FILE: &str = "crates/sim/src/session/frame.rs";

/// Files whose codec bodies are frame layouts: the session modules (the
/// frame, the options and arrival feed, the watchdog, the sharded driver),
/// the kind table (the protocol kind a session frame records), the jamming
/// model and the adversary state (the options' model and the run state's
/// adversary words), the engine cores (window, cohort) whose words a
/// session frame carries and the run state every frame writes as one
/// block, the arrival streams and shard views a cohort frame carries, and
/// the kernel caches and latency sketches the cores carry verbatim.
pub const ENCODE_FILES: [&str; 13] = [
    SESSION_FILE,
    "crates/sim/src/session.rs",
    "crates/sim/src/session/watchdog.rs",
    "crates/sim/src/session/sharded.rs",
    "crates/protocols/src/kind.rs",
    "crates/adversary/src/model.rs",
    "crates/adversary/src/state.rs",
    "crates/sim/src/window.rs",
    "crates/sim/src/cohort.rs",
    "crates/sim/src/run_state.rs",
    "crates/channel/src/stream.rs",
    "crates/prob/src/binomial.rs",
    "crates/prob/src/sketch.rs",
];

/// True for the name of a codec writer: `encode`, `encode_*`, or a frame
/// writer's `checkpoint`.
fn is_codec(fn_name: &str) -> bool {
    fn_name == "encode" || fn_name.starts_with("encode_") || fn_name == "checkpoint"
}

/// One fingerprinted checkpoint frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Stable ledger key: `<path>::<Type>::<fn>`, or `<path>::<fn>` for a
    /// free function.
    pub key: String,
    pub fingerprint: u64,
    pub path: String,
    pub line: u32,
}

/// Extracts the fingerprintable frames of one file: `checkpoint_words`
/// bodies of types declared in the file (ordered `self.<field>` refs) and,
/// in the [`ENCODE_FILES`], every codec body (ordered `.ident` sequence —
/// field reads and `put_*` codec calls in emission order). Test code is
/// never a frame.
pub fn frames_of(analysis: &FileAnalysis) -> Vec<Frame> {
    let mut frames = Vec::new();
    for f in analysis.impl_fns.iter().chain(&analysis.free_fns) {
        if analysis.is_test_line(f.line) {
            continue;
        }
        let (material, params): (Vec<String>, Vec<String>) = match f.fn_name.as_str() {
            "checkpoint_words" => {
                if !analysis.structs.iter().any(|s| s.name == f.type_name) {
                    continue; // delegation wrappers (Box<dyn …>) have no layout
                }
                let fields = self_field_refs(&analysis.tokens, f.body);
                (fields.into_iter().map(|(n, _)| n).collect(), Vec::new())
            }
            name if is_codec(name) && ENCODE_FILES.contains(&analysis.path.as_str()) => (
                dotted_idents(&analysis.tokens, f.body),
                deref_args(&analysis.tokens, f.body),
            ),
            _ => continue,
        };
        let key = if f.type_name.is_empty() {
            format!("{}::{}", analysis.path, f.fn_name)
        } else {
            format!("{}::{}::{}", analysis.path, f.type_name, f.fn_name)
        };
        if !params.is_empty() {
            frames.push(Frame {
                key: format!("{key}#params"),
                fingerprint: fnv1a(&params),
                path: analysis.path.clone(),
                line: f.line,
            });
        }
        frames.push(Frame {
            key,
            fingerprint: fnv1a(&material),
            path: analysis.path.clone(),
            line: f.line,
        });
    }
    frames
}

/// Reads the `CHECKPOINT_VERSION` constant out of the frame file
/// ([`SESSION_FILE`]).
pub fn checkpoint_version(analysis: &FileAnalysis) -> Option<u64> {
    let tokens = &analysis.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.text == "CHECKPOINT_VERSION" {
            // const CHECKPOINT_VERSION : u64 = <n> ;
            for j in i + 1..(i + 6).min(tokens.len()) {
                if tokens[j].text == "=" {
                    return tokens.get(j + 1).and_then(|n| n.text.parse().ok());
                }
            }
        }
    }
    None
}

/// One committed ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    pub fingerprint: u64,
    pub version: u64,
}

/// Parses the committed ledger (`<key> <fingerprint-hex> v<version>`).
pub fn parse_ledger(text: &str) -> BTreeMap<String, LedgerEntry> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(fp), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let (Ok(fingerprint), Some(Ok(version))) = (
            u64::from_str_radix(fp, 16),
            v.strip_prefix('v').map(str::parse),
        ) else {
            continue;
        };
        map.insert(
            key.to_string(),
            LedgerEntry {
                fingerprint,
                version,
            },
        );
    }
    map
}

/// Renders the ledger for committing.
pub fn render_ledger(frames: &[Frame], version: u64) -> String {
    let mut out = String::from(
        "# Checkpoint-frame layout ledger — maintained by mac-lint.\n\
         # <frame key> <layout fingerprint> v<CHECKPOINT_VERSION at commit time>\n\
         # Regenerate after a deliberate layout change (and version bump) with:\n\
         #   cargo run -p mac-lint -- --update-ledger\n",
    );
    let mut sorted: Vec<&Frame> = frames.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    for f in sorted {
        out.push_str(&format!("{} {:016x} v{}\n", f.key, f.fingerprint, version));
    }
    out
}

/// Compares discovered frames against the committed ledger.
pub fn check_ledger(
    frames: &[Frame],
    version: Option<u64>,
    ledger_text: Option<&str>,
    ledger_path: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Some(version) = version else {
        diags.push(Diagnostic {
            path: SESSION_FILE.to_string(),
            line: 1,
            rule: RULE.to_string(),
            message: "could not locate the CHECKPOINT_VERSION constant".to_string(),
        });
        return diags;
    };
    let Some(ledger_text) = ledger_text else {
        diags.push(Diagnostic {
            path: ledger_path.to_string(),
            line: 1,
            rule: RULE.to_string(),
            message: format!(
                "missing frame-layout ledger with {} frame(s) in the tree; \
                 run `cargo run -p mac-lint -- --update-ledger` and commit it",
                frames.len()
            ),
        });
        return diags;
    };
    let ledger = parse_ledger(ledger_text);
    for frame in frames {
        match ledger.get(&frame.key) {
            None => diags.push(Diagnostic {
                path: frame.path.clone(),
                line: frame.line,
                rule: RULE.to_string(),
                message: format!(
                    "checkpoint frame `{}` is not in the committed ledger; if the new \
                     frame is deliberate, run `cargo run -p mac-lint -- --update-ledger`",
                    frame.key
                ),
            }),
            Some(entry) if entry.fingerprint != frame.fingerprint => {
                let message = if version == entry.version {
                    format!(
                        "serialized layout of `{}` changed but CHECKPOINT_VERSION is \
                         still {version}; bump the version (old checkpoints must be \
                         rejected, not misdecoded), then regenerate the ledger",
                        frame.key
                    )
                } else {
                    format!(
                        "serialized layout of `{}` changed and CHECKPOINT_VERSION was \
                         bumped to {version}; run `cargo run -p mac-lint -- \
                         --update-ledger` to commit the new layout",
                        frame.key
                    )
                };
                diags.push(Diagnostic {
                    path: frame.path.clone(),
                    line: frame.line,
                    rule: RULE.to_string(),
                    message,
                });
            }
            Some(_) => {}
        }
    }
    for key in ledger.keys() {
        if !frames.iter().any(|f| &f.key == key) {
            diags.push(Diagnostic {
                path: ledger_path.to_string(),
                line: 1,
                rule: RULE.to_string(),
                message: format!(
                    "ledger entry `{key}` no longer matches any frame in the tree; \
                     run `cargo run -p mac-lint -- --update-ledger`"
                ),
            });
        }
    }
    diags
}

/// FNV-1a over the layout material, with a separator between elements so
/// `["ab","c"]` and `["a","bc"]` differ.
fn fnv1a(material: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for item in material {
        for &b in item.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash ^= 0x1F;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

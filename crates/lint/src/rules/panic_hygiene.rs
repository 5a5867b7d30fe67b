//! Rule `panic-hygiene`: the resumable-session spine (session, store,
//! stepper, dynamic) must not panic on library paths — a panic there
//! kills a shard mid-checkpoint, which is exactly the fault class the
//! supervision layer exists to contain, so it must come from *outside*
//! (chaos injection), never from our own `unwrap`. Banned: `.unwrap()`,
//! `.expect(…)` and bare slice/array indexing; use typed `SessionError`
//! variants, `.get(…)`, slice patterns, or annotate provable infallibility.

use crate::analysis::FileAnalysis;
use crate::lexer::{Token, TokenKind};
use crate::Diagnostic;

pub const RULE: &str = "panic-hygiene";

/// The no-panic library surfaces: the session module (`session.rs` and
/// every file under its directory, so a later split stays in scope) and
/// the files below. The rest of the sim crate reports through
/// `RunResult`/errors already and panics only on internal invariant
/// breaks, which `debug_assert` covers.
const SESSION_DIR: &str = "crates/sim/src/session/";
const SCOPED_FILES: [&str; 4] = [
    "crates/sim/src/session.rs",
    "crates/sim/src/store.rs",
    "crates/sim/src/stepper.rs",
    "crates/sim/src/dynamic.rs",
];

pub fn check(analysis: &FileAnalysis) -> Vec<Diagnostic> {
    let path = analysis.path.as_str();
    if !path.starts_with(SESSION_DIR) && !SCOPED_FILES.contains(&path) {
        return Vec::new();
    }
    let tokens = &analysis.tokens;
    let mut diags = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if analysis.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && is_punct(&tokens[i - 1], ".")
            && is_punct_opt(tokens.get(i + 1), "(")
        {
            diags.push(Diagnostic {
                path: analysis.path.clone(),
                line: t.line,
                rule: RULE.to_string(),
                message: format!(
                    ".{}() can panic on a library path; return a typed error, restructure \
                     so the invariant is in the types, or annotate the infallibility proof",
                    t.text
                ),
            });
            continue;
        }
        // Bare indexing: `expr[…]` — an identifier, `)` or `]` directly
        // followed by `[`. Array types/literals, attributes and slice
        // patterns don't match (their `[` follows `#`, `=`, `<`, …).
        if is_punct(t, "[")
            && i > 0
            && (tokens[i - 1].kind == TokenKind::Ident
                || is_punct(&tokens[i - 1], ")")
                || is_punct(&tokens[i - 1], "]"))
            && !is_keyword(&tokens[i - 1])
        {
            diags.push(Diagnostic {
                path: analysis.path.clone(),
                line: t.line,
                rule: RULE.to_string(),
                message: "bare indexing can panic on a library path; use .get(…), \
                          .get_mut(…), iterators or slice patterns, or annotate why the \
                          index is in range"
                    .to_string(),
            });
        }
    }
    diags
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_punct_opt(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| is_punct(t, s))
}

/// Keywords that may legitimately precede `[` without forming an index
/// expression (`let [a, b] = …`, `if let [x] = …`, `in [1, 2]`, …).
fn is_keyword(t: &Token) -> bool {
    matches!(
        t.text.as_str(),
        "let" | "in" | "mut" | "ref" | "return" | "match" | "if" | "else" | "dyn" | "as"
    )
}

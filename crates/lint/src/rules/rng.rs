//! Rule `rng-stream-discipline`: raw RNG construction in non-test library
//! code must visibly flow through `derive_seed` with a named `*_STREAM`
//! constant, so every stream's derivation path is auditable at the call
//! site. Sites that root a run from a seed the *caller* already derived
//! (engine cores, replay paths) carry an allow annotation explaining it.

use crate::analysis::FileAnalysis;
use crate::lexer::{Token, TokenKind};
use crate::rules::in_result_affecting_crate;
use crate::Diagnostic;

pub const RULE: &str = "rng-stream-discipline";

/// The module that *implements* the discipline (`derive_seed` and the
/// generators themselves) is exempt: it is the mechanism, not a client.
const EXEMPT: &str = "crates/prob/src/rng.rs";

pub fn check(analysis: &FileAnalysis) -> Vec<Diagnostic> {
    if !in_result_affecting_crate(&analysis.path) || analysis.path == EXEMPT {
        return Vec::new();
    }
    let tokens = &analysis.tokens;
    let mut diags = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let construction = construction_at(tokens, i);
        let Some((call_open, label)) = construction else {
            i += 1;
            continue;
        };
        let line = tokens[i].line;
        if !analysis.is_test_line(line) && !args_are_disciplined(tokens, call_open) {
            diags.push(Diagnostic {
                path: analysis.path.clone(),
                line,
                rule: RULE.to_string(),
                message: format!(
                    "{label} does not flow through derive_seed with a named *_STREAM \
                     constant; derive the seed at the call site or annotate why this \
                     site must consume a caller-derived stream"
                ),
            });
        }
        i = call_open + 1;
    }
    diags
}

/// If `i` starts an RNG construction, returns the index of its opening
/// `(` and a label. Recognised: `<rng>::seed_from_u64(…)` /
/// `seed_from_u64(…)` call sites and `Xoshiro256pp::new(…)` /
/// `SplitMix64::new(…)`. Definitions (`fn seed_from_u64`) don't count.
fn construction_at(tokens: &[Token], i: usize) -> Option<(usize, &'static str)> {
    let t = &tokens[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let prev_is_fn = i > 0 && tokens[i - 1].kind == TokenKind::Ident && tokens[i - 1].text == "fn";
    if prev_is_fn {
        return None;
    }
    if t.text == "seed_from_u64" && is_punct(tokens.get(i + 1), "(") {
        return Some((i + 1, "raw seed_from_u64"));
    }
    if (t.text == "Xoshiro256pp" || t.text == "SplitMix64")
        && is_punct(tokens.get(i + 1), ":")
        && is_punct(tokens.get(i + 2), ":")
        && tokens
            .get(i + 3)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "new")
        && is_punct(tokens.get(i + 4), "(")
    {
        let label = if t.text == "Xoshiro256pp" {
            "raw Xoshiro256pp::new"
        } else {
            "raw SplitMix64::new"
        };
        return Some((i + 4, label));
    }
    None
}

/// True if the call's argument list contains both a `derive_seed` call and
/// an identifier ending in `_STREAM`.
fn args_are_disciplined(tokens: &[Token], open: usize) -> bool {
    let mut depth = 0i32;
    let mut saw_derive = false;
    let mut saw_stream = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "derive_seed" {
                saw_derive = true;
            } else if t.text.ends_with("_STREAM") {
                saw_stream = true;
            }
        }
        i += 1;
    }
    saw_derive && saw_stream
}

fn is_punct(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
}

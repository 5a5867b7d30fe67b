//! Per-file structural analysis on top of the token stream: test-region
//! tracking, `lint:allow` annotations, struct field lists and
//! `impl`-block method bodies.

use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::rules::RULE_NAMES;
use crate::Diagnostic;

/// A parsed `// lint:allow(<rule>): <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Line of the code the annotation governs (same line for trailing
    /// comments, otherwise the next code line, skipping attributes).
    pub target_line: u32,
}

/// A named-field struct definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: u32,
    /// `(field_name, line)` in declaration order.
    pub fields: Vec<(String, u32)>,
}

/// A function with a body: a method found inside an `impl` block, or a
/// free function.
#[derive(Debug, Clone)]
pub struct ImplFn {
    /// Last path segment of the implemented type (`Box<dyn T>` → `Box`);
    /// empty for a free function.
    pub type_name: String,
    pub fn_name: String,
    pub line: u32,
    /// Token range (indices into `tokens`) of the body, braces excluded.
    pub body: (usize, usize),
}

/// Everything the rules need to know about one source file.
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    /// Diagnostics produced by the analysis itself (malformed allows).
    pub meta_diagnostics: Vec<Diagnostic>,
    pub structs: Vec<StructDef>,
    pub impl_fns: Vec<ImplFn>,
    /// Functions outside `impl` and `trait` blocks (`type_name` empty).
    pub free_fns: Vec<ImplFn>,
    /// Sorted, disjoint (start, end) inclusive line ranges that are
    /// test-only code (`#[cfg(test)]` / `#[test]` items).
    test_ranges: Vec<(u32, u32)>,
}

impl FileAnalysis {
    /// True if `line` lies inside a `#[cfg(test)]` or `#[test]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True if an allow for `rule` governs `line`.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.target_line == line && !a.reason.is_empty())
    }
}

/// Analyzes one file's source text.
pub fn analyze(path: &str, source: &str) -> FileAnalysis {
    let lexed = lex(source);
    let tokens = lexed.tokens;
    let test_ranges = find_test_ranges(&tokens);
    let (allows, meta_diagnostics) = collect_allows(path, &lexed.comments, &tokens);
    let structs = find_structs(&tokens);
    let impl_fns = find_impl_fns(&tokens);
    let free_fns = find_free_fns(&tokens);
    FileAnalysis {
        path: path.to_string(),
        tokens,
        allows,
        meta_diagnostics,
        structs,
        impl_fns,
        free_fns,
        test_ranges,
    }
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

/// Index just past the `]` matching the `[` at `open` (which must be `[`).
fn skip_bracket_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if is_punct(&tokens[i], "[") {
            depth += 1;
        } else if is_punct(&tokens[i], "]") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if is_punct(&tokens[i], "{") {
            depth += 1;
        } else if is_punct(&tokens[i], "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Finds line ranges of items annotated `#[cfg(test)]` / `#[test]`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(&tokens[i], "#") || i + 1 >= tokens.len() || !is_punct(&tokens[i + 1], "[") {
            i += 1;
            continue;
        }
        let close = skip_bracket_group(tokens, i + 1);
        let attr = &tokens[i + 2..close.saturating_sub(1)];
        let is_test_attr = match attr.first() {
            Some(t) if is_ident(t, "test") => true,
            Some(t) if is_ident(t, "cfg") => attr.iter().any(|t| is_ident(t, "test")),
            _ => false,
        };
        if !is_test_attr {
            i = close;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes, then span the item: to the matching
        // `}` if it opens a brace before a top-level `;`, else to the `;`.
        let mut j = close;
        while j + 1 < tokens.len() && is_punct(&tokens[j], "#") && is_punct(&tokens[j + 1], "[") {
            j = skip_bracket_group(tokens, j + 1);
        }
        while j < tokens.len() {
            if is_punct(&tokens[j], "{") {
                let end = matching_brace(tokens, j);
                ranges.push((start_line, tokens[end.min(tokens.len() - 1)].line));
                j = end + 1;
                break;
            }
            if is_punct(&tokens[j], ";") {
                ranges.push((start_line, tokens[j].line));
                j += 1;
                break;
            }
            j += 1;
        }
        i = j.max(close);
    }
    ranges
}

/// Parses `lint:allow(...)` comments; malformed ones become diagnostics.
fn collect_allows(
    path: &str,
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut meta = Vec::new();
    for comment in comments {
        // Doc comments are prose; only plain `//` / `/* */` comments can
        // carry annotations (so documentation may *describe* the syntax).
        if comment.doc {
            continue;
        }
        let Some(pos) = comment.text.find("lint:allow") else {
            continue;
        };
        let rest = &comment.text[pos + "lint:allow".len()..];
        let mut diag = |message: String| {
            meta.push(Diagnostic {
                path: path.to_string(),
                line: comment.line,
                rule: "lint-allow".to_string(),
                message,
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            diag("malformed lint:allow — expected `lint:allow(<rule>): <reason>`".to_string());
            continue;
        };
        let Some(close) = rest.find(')') else {
            diag("malformed lint:allow — missing `)` after the rule name".to_string());
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULE_NAMES.contains(&rule.as_str()) {
            diag(format!(
                "unknown rule `{rule}` in lint:allow (known rules: {})",
                RULE_NAMES.join(", ")
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diag(format!(
                "lint:allow({rule}) carries no reason — every escape hatch must say why"
            ));
            continue;
        }
        let target_line = allow_target_line(comment, tokens);
        allows.push(Allow {
            rule,
            reason: reason.to_string(),
            line: comment.line,
            target_line,
        });
    }
    (allows, meta)
}

/// The code line an allow annotation governs: the comment's own line for
/// trailing comments, otherwise the next code line, skipping attributes.
fn allow_target_line(comment: &Comment, tokens: &[Token]) -> u32 {
    if comment.code_before {
        return comment.line;
    }
    let mut idx = match tokens.iter().position(|t| t.line > comment.line) {
        Some(i) => i,
        None => return comment.line,
    };
    // Attributes between the annotation and the code it shields are
    // transparent: an allow comment above `#[serde(default)]` above a
    // field still governs the field.
    while idx + 1 < tokens.len() && is_punct(&tokens[idx], "#") && is_punct(&tokens[idx + 1], "[") {
        idx = skip_bracket_group(tokens, idx + 1);
    }
    tokens.get(idx).map_or(comment.line, |t| t.line)
}

/// Extracts named-field struct definitions.
fn find_structs(tokens: &[Token]) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(&tokens[i], "struct") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        // Scan to the body `{`, tracking angle depth through generics and
        // where-clauses; `-` `>` pairs (return arrows in bounds) are not
        // closers. Unit (`;`) and tuple (`(`) structs are skipped.
        let mut j = i + 2;
        let mut angle = 0i32;
        let mut body_open = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if is_punct(t, "<") {
                angle += 1;
            } else if is_punct(t, ">") && !is_punct(&tokens[j - 1], "-") {
                angle -= 1;
            } else if angle == 0 && is_punct(t, "{") {
                body_open = Some(j);
                break;
            } else if angle == 0 && (is_punct(t, ";") || is_punct(t, "(")) {
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j;
            continue;
        };
        let close = matching_brace(tokens, open);
        out.push(StructDef {
            name,
            line,
            fields: parse_fields(&tokens[open + 1..close]),
        });
        i = close + 1;
    }
    out
}

/// Parses the fields of a struct body (tokens between the braces).
fn parse_fields(body: &[Token]) -> Vec<(String, u32)> {
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes and visibility.
        if is_punct(&body[i], "#") && i + 1 < body.len() && is_punct(&body[i + 1], "[") {
            i = skip_bracket_group(body, i + 1);
            continue;
        }
        if is_ident(&body[i], "pub") {
            i += 1;
            if i < body.len() && is_punct(&body[i], "(") {
                let mut depth = 0i32;
                while i < body.len() {
                    if is_punct(&body[i], "(") {
                        depth += 1;
                    } else if is_punct(&body[i], ")") {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Field: `name :`.
        if body[i].kind == TokenKind::Ident && i + 1 < body.len() && is_punct(&body[i + 1], ":") {
            fields.push((body[i].text.clone(), body[i].line));
            // Skip the type to the separating comma at nesting level 0;
            // `>` after `-` is a return arrow, not an angle close.
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < body.len() {
                let t = &body[j];
                if is_punct(t, "<") || is_punct(t, "(") || is_punct(t, "[") {
                    depth += 1;
                } else if is_punct(t, ")")
                    || is_punct(t, "]")
                    || (is_punct(t, ">") && !is_punct(&body[j - 1], "-"))
                {
                    depth -= 1;
                } else if depth <= 0 && is_punct(t, ",") {
                    j += 1;
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    fields
}

/// Extracts methods defined inside `impl` blocks, with their bodies.
fn find_impl_fns(tokens: &[Token]) -> Vec<ImplFn> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(&tokens[i], "impl") {
            i += 1;
            continue;
        }
        // Header: optional generics, a path, optional `for <path>`, then
        // the block. The implemented type is the path after `for` when
        // present, else the first path; its name is the ident right before
        // the first `<` of that path (or its last ident).
        let mut j = i + 1;
        // Skip the impl's own generic parameters, so an inherent generic
        // impl (`impl<P: Tr> Core<P>`) resolves to `Core`, not to nothing.
        if tokens.get(j).is_some_and(|t| is_punct(t, "<")) {
            let mut depth = 0i32;
            while j < tokens.len() {
                if is_punct(&tokens[j], "<") {
                    depth += 1;
                } else if is_punct(&tokens[j], ">") && !is_punct(&tokens[j - 1], "-") {
                    depth -= 1;
                }
                j += 1;
                if depth == 0 {
                    break;
                }
            }
        }
        let mut angle = 0i32;
        let mut header: Vec<usize> = Vec::new();
        let mut for_at: Option<usize> = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if is_punct(t, "<") {
                angle += 1;
            } else if is_punct(t, ">") && !is_punct(&tokens[j - 1], "-") {
                angle -= 1;
            } else if angle == 0 && is_punct(t, "{") {
                break;
            } else if angle == 0 && is_ident(t, "for") {
                for_at = Some(header.len());
            } else if angle == 0 && is_ident(t, "where") {
                break;
            }
            header.push(j);
            j += 1;
        }
        // Find the body opener (skip a where-clause if we stopped at one).
        while j < tokens.len() && !is_punct(&tokens[j], "{") {
            j += 1;
        }
        if j >= tokens.len() {
            break;
        }
        let type_span: Vec<usize> = match for_at {
            Some(pos) => header[pos..]
                .iter()
                .copied()
                .filter(|&k| !is_ident(&tokens[k], "for"))
                .collect(),
            None => header,
        };
        let type_name = type_name_of(tokens, &type_span);
        let open = j;
        let close = matching_brace(tokens, open);
        // Walk the impl body for `fn <name>` items.
        let mut k = open + 1;
        while k < close {
            if is_ident(&tokens[k], "fn")
                && tokens
                    .get(k + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident)
            {
                let fn_name = tokens[k + 1].text.clone();
                let line = tokens[k + 1].line;
                let mut b = k + 2;
                while b < close && !is_punct(&tokens[b], "{") && !is_punct(&tokens[b], ";") {
                    b += 1;
                }
                if b < close && is_punct(&tokens[b], "{") {
                    let body_close = matching_brace(tokens, b);
                    out.push(ImplFn {
                        type_name: type_name.clone(),
                        fn_name,
                        line,
                        body: (b + 1, body_close),
                    });
                    k = body_close + 1;
                    continue;
                }
                k = b + 1;
                continue;
            }
            k += 1;
        }
        i = close + 1;
    }
    out
}

/// Index of the first `{` or `;` at or after `from` — the token that opens
/// an item's body or ends its declaration (the token count if neither).
fn item_opener(tokens: &[Token], from: usize) -> usize {
    (from..tokens.len())
        .find(|&j| is_punct(&tokens[j], "{") || is_punct(&tokens[j], ";"))
        .unwrap_or(tokens.len())
}

/// Extracts free functions — `fn` items outside `impl` and `trait` blocks,
/// at the top level or in inline modules — with their bodies.
fn find_free_fns(tokens: &[Token]) -> Vec<ImplFn> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        let named_fn = is_ident(t, "fn")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident);
        if !named_fn && !is_ident(t, "impl") && !is_ident(t, "trait") {
            i += 1;
            continue;
        }
        let open = item_opener(tokens, i + 1);
        if open >= tokens.len() || !is_punct(&tokens[open], "{") {
            i = open + 1;
            continue;
        }
        let close = matching_brace(tokens, open);
        if named_fn {
            out.push(ImplFn {
                type_name: String::new(),
                fn_name: tokens[i + 1].text.clone(),
                line: tokens[i + 1].line,
                body: (open + 1, close),
            });
        }
        // Either way the block is done: an impl's or trait's methods are
        // not free functions, and a function's nested items are its own.
        i = close + 1;
    }
    out
}

/// The type name of an impl-header path span: the ident right before the
/// first `<`, else the last ident (`Box<dyn T>` → `Box`, `a::B` → `B`).
fn type_name_of(tokens: &[Token], span: &[usize]) -> String {
    let mut last_ident = String::new();
    for (pos, &k) in span.iter().enumerate() {
        if is_punct(&tokens[k], "<") {
            break;
        }
        if tokens[k].kind == TokenKind::Ident {
            let _ = pos;
            last_ident = tokens[k].text.clone();
        }
    }
    last_ident
}

/// Ordered `self.<ident>` references inside a token range.
pub fn self_field_refs(tokens: &[Token], range: (usize, usize)) -> Vec<(String, u32)> {
    let mut refs = Vec::new();
    let mut i = range.0;
    while i + 2 < range.1 {
        if is_ident(&tokens[i], "self")
            && is_punct(&tokens[i + 1], ".")
            && tokens[i + 2].kind == TokenKind::Ident
        {
            refs.push((tokens[i + 2].text.clone(), tokens[i + 2].line));
            i += 3;
            continue;
        }
        i += 1;
    }
    refs
}

/// Ordered idents written as a dereferenced call argument, `f(*name)`,
/// inside a token range — the parameters an `encode` body writes out of a
/// matched enum variant, which its dotted idents never name.
pub fn deref_args(tokens: &[Token], range: (usize, usize)) -> Vec<String> {
    tokens[range.0..range.1]
        .windows(4)
        .filter(|w| {
            is_punct(&w[0], "(")
                && is_punct(&w[1], "*")
                && w[2].kind == TokenKind::Ident
                && is_punct(&w[3], ")")
        })
        .map(|w| w[2].text.clone())
        .collect()
}

/// Ordered idents appearing right after a `.` inside a token range —
/// the wire-layout fingerprint material of an `encode` body (field
/// references and `put_*` codec calls, in emission order).
pub fn dotted_idents(tokens: &[Token], range: (usize, usize)) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = range.0.max(1);
    while i + 1 < range.1 {
        if is_punct(&tokens[i], ".") && tokens[i + 1].kind == TokenKind::Ident {
            out.push(tokens[i + 1].text.clone());
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let a = analyze("x.rs", src);
        assert!(!a.is_test_line(1));
        assert!(a.is_test_line(2));
        assert!(a.is_test_line(4));
        assert!(a.is_test_line(5));
    }

    #[test]
    fn test_attr_on_fn_is_tracked() {
        let src = "#[test]\nfn check() {\n    body();\n}\nfn lib() {}\n";
        let a = analyze("x.rs", src);
        assert!(a.is_test_line(3));
        assert!(!a.is_test_line(5));
    }

    #[test]
    fn allow_targets_next_code_line_through_attributes() {
        let src = "// lint:allow(nondeterminism-bans): trusted\n#[serde(default)]\nuse std::collections::HashMap;\n";
        let a = analyze("x.rs", src);
        assert_eq!(a.allows.len(), 1);
        assert_eq!(a.allows[0].target_line, 3);
        assert!(a.is_allowed("nondeterminism-bans", 3));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let m = HashMap::new(); // lint:allow(nondeterminism-bans): lookup only\n";
        let a = analyze("x.rs", src);
        assert_eq!(a.allows[0].target_line, 1);
    }

    #[test]
    fn allow_without_reason_is_a_diagnostic() {
        let src = "// lint:allow(panic-hygiene)\nfoo.unwrap();\n";
        let a = analyze("x.rs", src);
        assert!(a.allows.is_empty());
        assert_eq!(a.meta_diagnostics.len(), 1);
        assert!(a.meta_diagnostics[0].message.contains("no reason"));
    }

    #[test]
    fn allow_with_unknown_rule_is_a_diagnostic() {
        let src = "// lint:allow(made-up-rule): because\nfoo();\n";
        let a = analyze("x.rs", src);
        assert!(a.allows.is_empty());
        assert!(a.meta_diagnostics[0].message.contains("unknown rule"));
    }

    #[test]
    fn struct_fields_are_extracted_with_lines() {
        let src = "pub struct S<T: Clone> {\n    /// doc\n    pub a: u64,\n    b: Vec<(u32, T)>,\n    c: [u64; 4],\n}\n";
        let a = analyze("x.rs", src);
        assert_eq!(a.structs.len(), 1);
        let names: Vec<_> = a.structs[0]
            .fields
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(a.structs[0].fields[1].1, 4);
    }

    #[test]
    fn impl_fns_resolve_type_names_and_bodies() {
        let src = "impl Tr for Foo {\n    fn checkpoint_words(&self) -> u64 {\n        self.alpha + self.beta\n    }\n}\nimpl<P> Tr for Box<P> {\n    fn checkpoint_words(&self) -> u64 { self.x }\n}\nimpl<P: Tr<u8>, A> Core<P, A> {\n    fn encode(&self) {}\n}\n";
        let a = analyze("x.rs", src);
        assert_eq!(a.impl_fns.len(), 3);
        assert_eq!(a.impl_fns[0].type_name, "Foo");
        assert_eq!(a.impl_fns[1].type_name, "Box");
        assert_eq!(a.impl_fns[2].type_name, "Core");
        let refs = self_field_refs(&a.tokens, a.impl_fns[0].body);
        let names: Vec<_> = refs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn free_fns_skip_impl_and_trait_blocks() {
        let src = "fn encode_kind(k: u8) {\n    out.put_u32(k);\n}\nimpl Foo {\n    fn encode(&self) {}\n}\ntrait Tr {\n    fn encode(&self) {}\n}\nmod inner {\n    pub fn encode_model(m: u8) {}\n}\ntype F = fn(u64);\n";
        let a = analyze("x.rs", src);
        let names: Vec<_> = a.free_fns.iter().map(|f| f.fn_name.as_str()).collect();
        assert_eq!(names, ["encode_kind", "encode_model"]);
        assert!(a.free_fns.iter().all(|f| f.type_name.is_empty()));
        assert_eq!(dotted_idents(&a.tokens, a.free_fns[0].body), ["put_u32"]);
    }

    #[test]
    fn trait_default_methods_are_not_impl_fns() {
        let src = "trait Tr {\n    fn checkpoint_words(&self) -> u64 { 0 }\n}\n";
        let a = analyze("x.rs", src);
        assert!(a.impl_fns.is_empty());
    }
}

//! Item-level parsing on top of the lexer — just enough structure for
//! the whole-program rules (R7, R9).
//!
//! The per-file rules (R1, R2a, R6) are token-shaped and need no structure,
//! but "no allocation reachable from the hot path" and "every public
//! miner reaches the mining seam" are properties of the
//! *program*, not of any one line. This module recovers the minimum
//! structure those rules need from the token stream: module nesting,
//! `impl` blocks (with their trait and self type), and function items
//! with the calls their bodies make. It is deliberately not a Rust
//! parser — no expressions, no types, no generics — and it shares the
//! lexer's failure philosophy: confusing input degrades into missing
//! edges, never into a crash.

use crate::lexer::{Lexed, TokenKind};

/// One call site observed inside a function body, classified by shape.
/// The shapes map directly onto the resolution heuristics in
/// [`crate::graph`]: a path call pins the receiver, a method call is
/// resolved by name across every impl, a macro never produces an edge
/// (macros the rules care about are matched by name instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)` — a bare call, resolved module-outward.
    Free(String),
    /// `Seg::name(..)` — the segment right before the final `::`.
    Path(String, String),
    /// `.name(..)` — resolved across all impls by name.
    Method(String),
    /// `name!(..)` — macro invocation; matched by name, never resolved.
    Macro(String),
}

/// One call site: what was called and where.
#[derive(Debug, Clone)]
pub struct Call {
    pub kind: CallKind,
    pub line: u32,
    /// Byte offset of the called name.
    pub start: usize,
}

/// One `fn` item with everything the call graph needs.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Inline module path within the file (`mod a { mod b { .. } }` →
    /// `["a", "b"]`). The file's own module path is added by the graph.
    pub modules: Vec<String>,
    /// Any `pub` qualifier, including restricted ones (`pub(crate)`).
    pub is_pub: bool,
    /// Self type when declared inside an `impl` block.
    pub impl_type: Option<String>,
    /// Trait name when declared inside an `impl Trait for Type` block.
    pub impl_trait: Option<String>,
    pub line: u32,
    /// Byte offset of the `fn` keyword (for test-region classification).
    pub start: usize,
    /// Calls made by the body, in source order.
    pub calls: Vec<Call>,
    /// True when the item sits inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// The parsed form of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
}

/// What a `{` we descended into belongs to.
enum Scope {
    Module(String),
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    FnBody,
    Other,
}

/// Names that never produce call-graph edges when seen as `.name(..)` or
/// bare `name(..)` — std-library vocabulary that would otherwise connect
/// everything to everything. Path calls (`Type::name`) stay precise and
/// ignore this list.
pub const BUILTIN_CALLS: &[&str] = &[
    // Collections / iterators.
    "len", "is_empty", "push", "pop", "insert", "remove", "clear", "get", "get_mut",
    "contains", "contains_key", "entry", "or_insert", "keys", "values", "iter",
    "iter_mut", "into_iter", "next", "map", "map_or", "filter", "filter_map",
    "flat_map", "flatten", "fold", "sum", "product", "collect", "extend", "drain",
    "retain", "sort", "sort_by", "sort_by_key", "sort_unstable", "dedup", "min",
    "max", "min_by", "max_by", "min_by_key", "max_by_key", "take", "take_while",
    "skip", "skip_while", "step_by", "zip", "chain", "rev", "enumerate", "count",
    "position", "find", "any", "all", "last", "first", "windows", "chunks", "split",
    "split_at", "join", "resize", "truncate", "swap", "fill", "binary_search",
    "copied", "cloned", "by_ref", "peekable", "peek", "reserve", "shrink_to_fit",
    // Option / Result.
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err", "ok_or",
    "ok_or_else", "and_then", "or_else", "is_some", "is_none", "is_ok", "is_err",
    "is_some_and", "is_none_or", "map_err", "as_deref", "take", "replace",
    "get_or_insert_with",
    // Conversions / borrows.
    "as_ref", "as_mut", "as_str", "as_slice", "as_bytes", "as_os_str", "borrow",
    "borrow_mut", "into", "from", "try_into", "try_from", "to_vec", "parse",
    "into_inner", "leak", "deref",
    // Construction vocabulary shared with std.
    "new", "with_capacity", "default", "build", "clone", "drop",
    // Numerics.
    "abs", "floor", "ceil", "round", "sqrt", "powi", "powf", "ln", "log2", "log10",
    "exp", "signum", "to_bits", "from_bits", "wrapping_add", "wrapping_sub",
    "wrapping_mul", "saturating_add", "saturating_sub", "saturating_mul",
    "checked_add", "checked_sub", "checked_mul", "checked_div", "count_ones",
    "leading_zeros", "trailing_zeros", "rotate_left", "rotate_right", "pow",
    "rem_euclid", "div_euclid", "clamp", "is_finite", "is_nan",
    // Strings (the allocation-family names are matched by the rules, not
    // edges, so they are deliberately *not* listed here).
    "trim", "trim_start", "trim_end", "trim_start_matches", "trim_end_matches",
    "starts_with", "ends_with", "strip_prefix", "strip_suffix", "split_once",
    "splitn", "lines", "chars", "bytes", "char_indices", "find", "rfind",
    "replace", "repeat", "to_lowercase", "to_uppercase", "eq_ignore_ascii_case",
    "is_ascii_whitespace", "is_ascii_alphanumeric", "is_ascii_alphabetic",
    "is_ascii_digit", "push_str",
    // Sync / thread vocabulary (never a workspace call).
    "lock", "read", "write", "wait", "notify_all", "notify_one", "fetch_add",
    "load", "store", "spawn", "scope", "join", "send", "recv",
    // Time / misc std.
    "elapsed", "as_secs_f64", "as_millis", "as_micros", "as_nanos", "duration_since",
    "to_owned_vec", "cmp", "partial_cmp", "eq", "ne", "hash", "fmt", "display",
    "args", "var", "exit", "flush", "write_all", "write_fmt", "read_to_string",
    "create_dir_all", "read_dir", "file_name", "extension", "is_dir", "exists",
    "strip_prefix", "to_string_lossy", "to_path_buf", "parent", "components",
];

/// Parses one lexed file into items. `test_regions` are the byte ranges
/// of `#[cfg(test)]`/`#[test]` items (see [`crate::rules`]); functions
/// starting inside one are marked `in_test`.
pub fn parse_file(src: &str, lexed: &Lexed, test_regions: &[(usize, usize)]) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile::default();
    let mut stack: Vec<Scope> = Vec::new();
    let in_test =
        |pos: usize| test_regions.iter().any(|&(s, e)| pos >= s && pos < e);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match lexed.text(src, i) {
                "{" => {
                    stack.push(Scope::Other);
                    i += 1;
                    continue;
                }
                "}" => {
                    stack.pop();
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match lexed.text(src, i) {
            "mod" if lexed.tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident) => {
                let name = lexed.text(src, i + 1).to_string();
                if lexed.is_punct(src, i + 2, "{") {
                    stack.push(Scope::Module(name));
                    i += 3;
                } else {
                    // Out-of-line `mod name;` — the file graph handles it.
                    i += 2;
                }
                continue;
            }
            "impl" => {
                let (ty, tr, body_open) = parse_impl_header(src, lexed, i);
                match body_open {
                    Some(open) => {
                        stack.push(Scope::Impl { ty, tr });
                        i = open + 1;
                    }
                    None => i += 1,
                }
                continue;
            }
            "fn" if lexed.tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident) => {
                let name = lexed.text(src, i + 1).to_string();
                let is_pub = has_pub_qualifier(src, lexed, i);
                let (impl_type, impl_trait) = innermost_impl(&stack);
                let modules: Vec<String> = stack
                    .iter()
                    .filter_map(|s| match s {
                        Scope::Module(m) => Some(m.clone()),
                        Scope::Impl { .. } | Scope::FnBody | Scope::Other => None,
                    })
                    .collect();
                // Find the body `{` (or a `;` for a trait-method decl),
                // skipping the signature's parenthesized parameter list.
                let mut j = i + 2;
                let mut pdepth = 0i32;
                let mut body_open = None;
                while j < toks.len() {
                    if toks[j].kind == TokenKind::Punct {
                        match lexed.text(src, j) {
                            "(" | "[" => pdepth += 1,
                            ")" | "]" => pdepth -= 1,
                            "{" if pdepth == 0 => {
                                body_open = Some(j);
                                break;
                            }
                            ";" if pdepth == 0 => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                let item = FnItem {
                    name,
                    modules,
                    is_pub,
                    impl_type,
                    impl_trait,
                    line: t.line,
                    start: t.start,
                    calls: Vec::new(),
                    in_test: in_test(t.start),
                };
                match body_open {
                    Some(open) => {
                        let idx = out.fns.len();
                        out.fns.push(item);
                        collect_calls(src, lexed, open, &mut out.fns[idx].calls);
                        stack.push(Scope::FnBody);
                        i = open + 1;
                    }
                    None => {
                        out.fns.push(item);
                        i = j + 1;
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// True when the item keyword at token `i` carries a `pub` qualifier:
/// scans backwards over the qualifier vocabulary (`const`, `unsafe`,
/// `async`, `extern "C"`, `pub(crate)`, …) until a non-qualifier token.
fn has_pub_qualifier(src: &str, lexed: &Lexed, i: usize) -> bool {
    let toks = &lexed.tokens;
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].kind {
            TokenKind::Ident => match lexed.text(src, j) {
                "pub" => return true,
                "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "self"
                | "in" => {}
                _ => return false,
            },
            TokenKind::Punct => match lexed.text(src, j) {
                "(" | ")" | "::" => {}
                _ => return false,
            },
            TokenKind::Literal => {} // extern "C"
            TokenKind::Lifetime => return false,
        }
    }
    false
}

/// The innermost enclosing `impl` block on the scope stack.
fn innermost_impl(stack: &[Scope]) -> (Option<String>, Option<String>) {
    for s in stack.iter().rev() {
        if let Scope::Impl { ty, tr } = s {
            return (ty.clone(), tr.clone());
        }
    }
    (None, None)
}

/// Parses an `impl` header starting at the `impl` keyword (token `i`):
/// returns `(self type, trait name, index of the body '{')`. Handles
/// `impl<G> Type<G>`, `impl Trait for Type`, and `where` clauses; the
/// self type / trait is the last path segment at angle-bracket depth 0.
fn parse_impl_header(
    src: &str,
    lexed: &Lexed,
    i: usize,
) -> (Option<String>, Option<String>, Option<usize>) {
    let toks = &lexed.tokens;
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut saw_where = false;
    let mut body_open = None;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct => match lexed.text(src, j) {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if angle <= 0 => break, // `impl Trait for Type;`-ish noise
                _ => {}
            },
            TokenKind::Ident if angle <= 0 && !saw_where => {
                match lexed.text(src, j) {
                    "for" => saw_for = true,
                    "where" => saw_where = true,
                    "dyn" | "mut" | "const" | "unsafe" => {}
                    name => {
                        if saw_for {
                            after_for = Some(name.to_string());
                        } else {
                            before_for = Some(name.to_string());
                        }
                    }
                }
            }
            TokenKind::Ident | TokenKind::Literal | TokenKind::Lifetime => {}
        }
        j += 1;
    }
    if saw_for {
        (after_for, before_for, body_open)
    } else {
        (before_for, None, body_open)
    }
}

/// Walks the balanced body opening at token `open` and records every
/// call-shaped token sequence.
fn collect_calls(src: &str, lexed: &Lexed, open: usize, out: &mut Vec<Call>) {
    let toks = &lexed.tokens;
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        // An attribute (`#[expect(..)]`, `#![..]`) names lints, not calls.
        if lexed.is_punct(src, j, "#") {
            let bang = usize::from(lexed.is_punct(src, j + 1, "!"));
            if lexed.is_punct(src, j + 1 + bang, "[") {
                j = lexed.skip_group(src, j + 1 + bang);
                continue;
            }
        }
        if toks[j].kind == TokenKind::Punct {
            match lexed.text(src, j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        } else if toks[j].kind == TokenKind::Ident {
            let name = lexed.text(src, j);
            let (line, start) = (toks[j].line, toks[j].start);
            if lexed.is_punct(src, j + 1, "!") {
                out.push(Call {
                    kind: CallKind::Macro(name.to_string()),
                    line,
                    start,
                });
            } else if lexed.is_punct(src, j + 1, "(")
                || (lexed.is_punct(src, j + 1, "::")
                    && lexed.is_punct(src, j + 2, "<"))
            {
                // `name(..)` — or `name::<T>(..)` turbofish.
                let kind = if j > 0 && lexed.is_punct(src, j - 1, ".") {
                    CallKind::Method(name.to_string())
                } else if j > 1
                    && lexed.is_punct(src, j - 1, "::")
                    && toks[j - 2].kind == TokenKind::Ident
                {
                    CallKind::Path(lexed.text(src, j - 2).to_string(), name.to_string())
                } else {
                    CallKind::Free(name.to_string())
                };
                out.push(Call { kind, line, start });
            }
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_regions;

    fn parse(src: &str) -> ParsedFile {
        let lexed = lex(src);
        let regions = test_regions(src, &lexed);
        parse_file(src, &lexed, &regions)
    }

    #[test]
    fn fn_items_with_modules_and_visibility() {
        let src = "pub fn top() {}\nmod inner {\n    pub(crate) fn mid() { helper(); }\n    fn helper() {}\n}";
        let p = parse(src);
        let names: Vec<(&str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![("top", true), ("mid", true), ("helper", false)]
        );
        assert_eq!(p.fns[1].modules, vec!["inner"]);
        assert_eq!(p.fns[1].calls.len(), 1);
        assert_eq!(p.fns[1].calls[0].kind, CallKind::Free("helper".into()));
    }

    #[test]
    fn impl_blocks_carry_type_and_trait() {
        let src = "impl<'a, K: BoundaryKernel> L2Engine<'a, K> { fn try_pair(&self) {} }\n\
                   impl BoundaryKernel for ClipKernel { fn interval(&self) {} }\n\
                   impl Drop for Retire<'_> { fn drop(&mut self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("L2Engine"));
        assert_eq!(p.fns[0].impl_trait, None);
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("ClipKernel"));
        assert_eq!(p.fns[1].impl_trait.as_deref(), Some("BoundaryKernel"));
        assert_eq!(p.fns[2].impl_type.as_deref(), Some("Retire"));
        assert_eq!(p.fns[2].impl_trait.as_deref(), Some("Drop"));
    }

    #[test]
    fn calls_are_classified_by_shape() {
        let src = "fn f() { g(); x.m(); Occ::push(); format!(\"x\"); h::<u8>(); }";
        let p = parse(src);
        let kinds: Vec<&CallKind> = p.fns[0].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &CallKind::Free("g".into()),
                &CallKind::Method("m".into()),
                &CallKind::Path("Occ".into(), "push".into()),
                &CallKind::Macro("format".into()),
                &CallKind::Free("h".into()),
            ]
        );
    }

    #[test]
    fn test_region_functions_are_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}";
        let p = parse(src);
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test, "{:?}", p.fns);
    }

    #[test]
    fn attributes_are_not_calls() {
        let src = "fn f() {\n    #[expect(clippy::expect_used, reason = \"x\")]\n    \
                   let a = g().expect(\"x\");\n}";
        let p = parse(src);
        let kinds: Vec<&CallKind> = p.fns[0].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(
            kinds,
            vec![&CallKind::Free("g".into()), &CallKind::Method("expect".into())]
        );
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn sig(&self) -> usize; fn with_default(&self) { self.sig(); } }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].calls.is_empty());
        assert_eq!(p.fns[1].calls.len(), 1);
    }
}

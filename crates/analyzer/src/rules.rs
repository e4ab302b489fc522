//! The project-specific rules, R1–R5, evaluated over a lexed file.
//!
//! Every rule guards an invariant the compiler cannot see but the
//! system's exactness guarantee rests on:
//!
//! * **R1 `and-count`** — apriori gates must use the fused
//!   `Bitmap::and_count` instead of `.and(..).count_ones()`, which
//!   allocates an intermediate bitmap on the hottest path in the miner.
//!   Only the bitmap kernel module (`crates/bitmap/src/kernel.rs`, the
//!   one legitimate home of raw word loops) and test code (equivalence
//!   fixtures pin the fused kernels to the unfused reference) may spell
//!   the unfused form.
//! * **R2 `panic`** — library code of `core`/`events`/`bitmap`/
//!   `baselines`/`mi` must not panic on user data: no `unwrap`, `expect`,
//!   `panic!`, `assert!`/`assert_eq!`/`assert_ne!`, `unreachable!`,
//!   `todo!` or `unimplemented!` outside test code, unless the line (or
//!   the line above) carries `// lint: allow(panic, reason)` naming the
//!   invariant that makes the panic unreachable or the documented
//!   precondition it enforces. `debug_assert*` is always allowed — it
//!   vanishes in release builds.
//! * **R3 `boundary-match`** — a `match` whose arm patterns name
//!   `BoundaryPolicy` variants must be exhaustive *by name*: no `_ =>`
//!   and no catch-all binding arm. Adding a fourth policy must be a
//!   compile error at every decision point, not a silent fall-through.
//! * **R4 `unsafe`** — no `unsafe` outside `bench/src/alloc_track.rs`
//!   (the global-allocator shim), and every crate root must carry
//!   `#![forbid(unsafe_code)]` (`bench`: `#![deny(unsafe_code)]`).
//! * **R5 `write-discard`** — sink/writer results must not be silently
//!   discarded: no `let _ = …write…` statements and no `.ok();` on a
//!   write-family call. Writer sinks latch errors for
//!   `PatternSink::finish`; everything else must propagate.
//! * **R6 `filter-confinement`** — `CorrelationFilter` may only be
//!   constructed (`CorrelationFilter::new(..)` or a struct literal) in
//!   `crates/core/src/candidates.rs` (the definition),
//!   `crates/core/src/approx.rs` (the single construction seam) and
//!   `crates/core/src/executor.rs` (the exchange coordinator). The
//!   one-plan equivalence — every A-HTPGM composition yields the same
//!   pattern set — rests on every path consuming the *same* L1/L2
//!   gates; a filter assembled anywhere else can silently disagree.
//!
//! Suppression marker grammar (matched per line, same line or the line
//! directly above the flagged token):
//!
//! ```text
//! // lint: allow(<rule>, <reason>)
//! ```
//!
//! where `<rule>` is one of `and_count`, `panic`, `boundary_match`,
//! `unsafe`, `write_discard`, `filter_confinement`. The reason is
//! mandatory — a bare allow does not suppress.

use std::cell::Cell;

use crate::lexer::{lex, Lexed, TokenKind};
use crate::report::Violation;

/// Crates whose non-test library code falls under R2.
pub const PANIC_FREE_CRATES: &[&str] = &["core", "events", "bitmap", "baselines", "mi"];

/// Macro/method names R2 flags (without the `!`).
const PANIC_IDENTS: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Identifiers that mark a call as write-family for R5.
const WRITE_IDENTS: &[&str] = &["write", "writeln", "write_all", "write_fmt", "flush"];

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name under `crates/` (`core`, `bitmap`, …).
    pub crate_name: String,
    /// Path relative to the workspace root, for reporting.
    pub rel_path: String,
    /// True for files under `tests/`, `benches/` or `examples/` — whole
    /// file is test context for R2.
    pub is_test_file: bool,
}

impl FileContext {
    /// Classifies `rel_path` (workspace-relative, `/`-separated).
    pub fn classify(rel_path: &str) -> FileContext {
        let mut parts = rel_path.split('/');
        let crate_name = if parts.next() == Some("crates") {
            parts.next().unwrap_or("").to_string()
        } else {
            String::new()
        };
        let dir = parts.next().unwrap_or("");
        FileContext {
            crate_name,
            rel_path: rel_path.to_string(),
            is_test_file: matches!(dir, "tests" | "benches" | "examples"),
        }
    }
}

/// One parsed `// lint: allow(rule, reason)` marker. `used` latches when
/// the marker actually suppresses a finding; the stale-allow audit
/// reports markers that never fire.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    pub used: Cell<bool>,
}

/// Extracts allow markers from the file's comments. Markers without a
/// reason are reported as violations of the marker grammar itself —
/// a bare allow suppresses nothing.
pub fn collect_allows(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(body) = rest.split(')').next() else {
            continue;
        };
        match body.split_once(',') {
            Some((rule, reason)) if !reason.trim().is_empty() => allows.push(Allow {
                rule: rule.trim().to_string(),
                reason: reason.trim().to_string(),
                line: c.line,
                used: Cell::new(false),
            }),
            _ => out.push(Violation {
                rule: "marker".into(),
                file: ctx.rel_path.clone(),
                line: c.line,
                message: format!(
                    "malformed allow marker `{}`: use `// lint: allow(rule, reason)` \
                     with a non-empty reason",
                    c.text
                ),
            }),
        }
    }
    allows
}

/// True if `rule` is allowed on `line` (marker on the same line or the
/// line directly above). Marks every matching marker as used, feeding
/// the stale-allow audit.
pub(crate) fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    let mut hit = false;
    for a in allows {
        if a.rule == rule && (a.line == line || a.line + 1 == line) {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Byte ranges of test code inside a non-test source file: bodies of
/// items annotated `#[cfg(test)]` or `#[test]`.
pub(crate) fn test_regions(src: &str, lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Attribute start: `#` `[` … `]` (outer only; `#![…]` is a crate
        // attribute, never a test marker on an item).
        if !(lexed.is_punct(src, i, "#") && lexed.is_punct(src, i + 1, "[")) {
            i += 1;
            continue;
        }
        // Scan the attribute body for `test` / `cfg ( test`.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            if toks[j].kind == TokenKind::Punct {
                match lexed.text(src, j) {
                    "[" | "(" => depth += 1,
                    "]" | ")" => depth -= 1,
                    _ => {}
                }
            } else if toks[j].kind == TokenKind::Ident && lexed.text(src, j) == "test" {
                is_test_attr = true;
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // The annotated item's extent: skip further attributes, then run
        // to the end of the first brace block (or a `;` for brace-less
        // items like `#[cfg(test)] use …;`).
        let mut k = j;
        while k + 1 < toks.len()
            && lexed.is_punct(src, k, "#")
            && lexed.is_punct(src, k + 1, "[")
        {
            let mut d = 1i32;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].kind == TokenKind::Punct {
                    match lexed.text(src, k) {
                        "[" | "(" => d += 1,
                        "]" | ")" => d -= 1,
                        _ => {}
                    }
                }
                k += 1;
            }
        }
        let start = toks[i].start;
        let mut d = 0i32;
        let mut end = None;
        while k < toks.len() {
            if toks[k].kind == TokenKind::Punct {
                match lexed.text(src, k) {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            end = Some(toks[k].end);
                            break;
                        }
                    }
                    ";" if d == 0 => {
                        end = Some(toks[k].end);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let end = end.unwrap_or(src.len());
        regions.push((start, end));
        // Continue after the item — nested `#[test]` fns inside a
        // `#[cfg(test)] mod` are already covered by the outer region.
        i = toks
            .iter()
            .position(|t| t.start >= end)
            .unwrap_or(toks.len());
    }
    regions
}

/// Runs every applicable per-file rule over one source file.
pub fn check_source(src: &str, ctx: &FileContext) -> Vec<Violation> {
    let lexed = lex(src);
    let mut out = Vec::new();
    let allows = collect_allows(&lexed, ctx, &mut out);
    let tests = test_regions(src, &lexed);
    check_source_with(src, &lexed, ctx, &allows, &tests, &mut out);
    out
}

/// The per-file rules (R1–R6) over pre-computed lex/allow/test-region
/// state, so the workspace driver can share `allows` with the
/// whole-program rules and the stale-allow audit.
pub(crate) fn check_source_with(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    tests: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let in_test = |pos: usize| tests.iter().any(|&(s, e)| pos >= s && pos < e);

    rule_and_count(src, lexed, ctx, allows, &in_test, out);
    rule_panic(src, lexed, ctx, allows, &in_test, out);
    rule_boundary_match(src, lexed, ctx, allows, out);
    rule_unsafe(src, lexed, ctx, allows, out);
    rule_write_discard(src, lexed, ctx, allows, out);
    rule_filter_confinement(src, lexed, ctx, allows, &in_test, out);
}

/// Files allowed to construct a `CorrelationFilter` under R6: the
/// definition, the one construction seam, and the exchange coordinator.
const FILTER_CONSTRUCTION_FILES: &[&str] = &[
    "crates/core/src/candidates.rs",
    "crates/core/src/approx.rs",
    "crates/core/src/executor.rs",
];

/// R6: `CorrelationFilter` construction — `CorrelationFilter::new(..)`
/// or a `CorrelationFilter { .. }` struct literal — outside the allowed
/// files and test code. Type mentions (`&CorrelationFilter<'_>`,
/// `struct CorrelationFilter`) are fine everywhere: consuming the filter
/// is the point, assembling a second one is the bug.
fn rule_filter_confinement(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if FILTER_CONSTRUCTION_FILES.contains(&ctx.rel_path.as_str()) || ctx.is_test_file {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if !lexed.is_ident(src, i, "CorrelationFilter") || in_test(tok.start) {
            continue;
        }
        // A declaration (`struct CorrelationFilter …`) is not a
        // construction site.
        if i > 0 && lexed.is_ident(src, i - 1, "struct") {
            continue;
        }
        let constructs = (lexed.is_punct(src, i + 1, "::")
            && lexed.is_ident(src, i + 2, "new")
            && lexed.is_punct(src, i + 3, "("))
            || lexed.is_punct(src, i + 1, "{");
        if !constructs {
            continue;
        }
        let line = tok.line;
        if !allowed(allows, "filter_confinement", line) {
            out.push(Violation {
                rule: "R6/filter_confinement".into(),
                file: ctx.rel_path.clone(),
                line,
                message: "`CorrelationFilter` constructed outside the approx module / \
                          exchange coordinator; build it via `correlation_filter` so \
                          every A-HTPGM path consumes the same L1/L2 gates"
                    .into(),
            });
        }
    }
}

/// R1: `.and(..).count_ones()` outside the bitmap kernel module and test
/// code.
fn rule_and_count(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    // The kernel module is where the word-level loops live — the one
    // place allowed to spell popcounts by hand; test files and test
    // regions pin the fused kernels to the unfused reference form.
    if ctx.rel_path == "crates/bitmap/src/kernel.rs" || ctx.is_test_file {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !(lexed.is_punct(src, i, ".")
            && lexed.is_ident(src, i + 1, "and")
            && lexed.is_punct(src, i + 2, "("))
        {
            continue;
        }
        if in_test(toks[i].start) {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 1i32;
        let mut j = i + 3;
        while j < toks.len() && depth > 0 {
            if toks[j].kind == TokenKind::Punct {
                match lexed.text(src, j) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
            }
            j += 1;
        }
        if lexed.is_punct(src, j, ".") && lexed.is_ident(src, j + 1, "count_ones") {
            let line = toks[i].line;
            if !allowed(allows, "and_count", line) {
                out.push(Violation {
                    rule: "R1/and_count".into(),
                    file: ctx.rel_path.clone(),
                    line,
                    message: "`.and(..).count_ones()` allocates an intermediate bitmap; \
                              use the fused `Bitmap::and_count` (every apriori gate \
                              must go through it)"
                        .into(),
                });
            }
        }
    }
}

/// R2: panicking constructs in non-test library code of the panic-free
/// crates.
fn rule_panic(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !PANIC_FREE_CRATES.contains(&ctx.crate_name.as_str()) || ctx.is_test_file {
        return;
    }
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let word = lexed.text(src, i);
        if !PANIC_IDENTS.contains(&word) || in_test(tok.start) {
            continue;
        }
        // Macros must be invoked (`panic!(`); methods must be called
        // (`.unwrap(`). A stray identifier named `assert` in a path or
        // a field called `expect` is not a panic site.
        let is_macro = matches!(
            word,
            "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo"
                | "unimplemented"
        );
        let invoked = if is_macro {
            lexed.is_punct(src, i + 1, "!")
        } else {
            lexed.is_punct(src, i.wrapping_sub(1), ".") && lexed.is_punct(src, i + 1, "(")
        };
        if !invoked {
            continue;
        }
        let line = tok.line;
        if !allowed(allows, "panic", line) {
            out.push(Violation {
                rule: "R2/panic".into(),
                file: ctx.rel_path.clone(),
                line,
                message: format!(
                    "`{word}` can panic in library code reachable from user data; \
                     propagate an error, or annotate the invariant with \
                     `// lint: allow(panic, reason)`"
                ),
            });
        }
    }
}

/// R3: a `match` whose arm patterns name `BoundaryPolicy` must have no
/// wildcard or catch-all-binding arm.
fn rule_boundary_match(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !lexed.is_ident(src, i, "match") {
            continue;
        }
        // Scrutinee runs to the first `{` at paren depth 0.
        let mut j = i + 1;
        let mut pdepth = 0i32;
        while j < toks.len() {
            if toks[j].kind == TokenKind::Punct {
                match lexed.text(src, j) {
                    "(" | "[" => pdepth += 1,
                    ")" | "]" => pdepth -= 1,
                    "{" if pdepth == 0 => break,
                    ";" if pdepth == 0 => return, // `match` as an ident, not the keyword
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        let Some((names_policy, bad_arm)) = scan_match_arms(src, lexed, j) else {
            continue;
        };
        if !names_policy {
            continue;
        }
        if let Some((line, what)) = bad_arm {
            if !allowed(allows, "boundary_match", line) {
                out.push(Violation {
                    rule: "R3/boundary_match".into(),
                    file: ctx.rel_path.clone(),
                    line,
                    message: format!(
                        "{what} in a `BoundaryPolicy` match: name every variant so \
                         adding a policy is a compile error at this decision point"
                    ),
                });
            }
        }
    }
}

/// Walks the arms of the match body opening at token `open` (a `{`).
/// Returns `(arm patterns mention BoundaryPolicy, first wildcard/catch-all
/// arm as (line, description))`, or `None` if the body never closes.
fn scan_match_arms(
    src: &str,
    lexed: &Lexed,
    open: usize,
) -> Option<(bool, Option<(u32, &'static str)>)> {
    let toks = &lexed.tokens;
    let mut names_policy = false;
    let mut bad: Option<(u32, &'static str)> = None;
    let mut i = open + 1;
    let mut depth = 0i32; // relative to the body
    let mut pattern: Vec<usize> = Vec::new(); // token indices of the current arm pattern
    let mut in_pattern = true;
    let mut expr_brace: i32 = -1; // depth at which a block-expression arm opened
    while i < toks.len() {
        let is_p = toks[i].kind == TokenKind::Punct;
        let text = lexed.text(src, i);
        if is_p {
            match text {
                "{" | "(" | "[" => {
                    if !in_pattern && depth == 0 && text == "{" && expr_brace < 0 {
                        expr_brace = 0;
                    }
                    depth += 1;
                }
                "}" | ")" | "]" => {
                    if text == "}" && depth == 0 {
                        // End of the match body.
                        if in_pattern && !pattern.is_empty() {
                            check_arm_pattern(src, lexed, &pattern, &mut names_policy, &mut bad);
                        }
                        return Some((names_policy, bad));
                    }
                    depth -= 1;
                    if !in_pattern && text == "}" && expr_brace == depth {
                        // Block-expression arm closed: next arm.
                        expr_brace = -1;
                        in_pattern = true;
                        pattern.clear();
                        i += 1;
                        // Optional trailing comma.
                        if lexed.is_punct(src, i, ",") {
                            i += 1;
                        }
                        continue;
                    }
                }
                "=>" if in_pattern && depth == 0 => {
                    check_arm_pattern(src, lexed, &pattern, &mut names_policy, &mut bad);
                    in_pattern = false;
                    i += 1;
                    continue;
                }
                "," if !in_pattern && depth == 0 => {
                    in_pattern = true;
                    pattern.clear();
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        if in_pattern && depth >= 0 {
            pattern.push(i);
        }
        i += 1;
    }
    None
}

/// Classifies one arm pattern: records whether it names `BoundaryPolicy`
/// and whether it is a wildcard (`_`) or catch-all binding (a lone
/// identifier that is not a path or literal), optionally guarded.
fn check_arm_pattern(
    src: &str,
    lexed: &Lexed,
    pattern: &[usize],
    names_policy: &mut bool,
    bad: &mut Option<(u32, &'static str)>,
) {
    if pattern.is_empty() {
        return;
    }
    for &t in pattern {
        if lexed.is_ident(src, t, "BoundaryPolicy") {
            *names_policy = true;
        }
    }
    // Strip a guard: everything from a top-level `if` onward.
    let head: Vec<usize> = pattern
        .iter()
        .copied()
        .take_while(|&t| !lexed.is_ident(src, t, "if"))
        .collect();
    let line = lexed.tokens[pattern[0]].line;
    if bad.is_none() {
        if head.len() == 1 && lexed.is_ident(src, head[0], "_") {
            *bad = Some((line, "wildcard `_` arm"));
        } else if head.len() == 1
            && lexed.tokens[head[0]].kind == TokenKind::Ident
            && !matches!(lexed.text(src, head[0]), "true" | "false")
        {
            *bad = Some((line, "catch-all binding arm"));
        }
    }
}

/// R4: the `unsafe` keyword outside the allocator shim.
fn rule_unsafe(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    out: &mut Vec<Violation>,
) {
    if ctx.rel_path == "crates/bench/src/alloc_track.rs" {
        return;
    }
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && lexed.text(src, i) == "unsafe"
            && !allowed(allows, "unsafe", t.line)
        {
            out.push(Violation {
                rule: "R4/unsafe".into(),
                file: ctx.rel_path.clone(),
                line: t.line,
                message: "`unsafe` is confined to bench/src/alloc_track.rs (the \
                          global-allocator shim); every other crate is \
                          `#![forbid(unsafe_code)]`"
                    .into(),
            });
        }
    }
}

/// R5: discarded write results — `let _ = …write…;` statements and
/// `.ok();` on write-family calls.
fn rule_write_discard(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    allows: &[Allow],
    out: &mut Vec<Violation>,
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        // `let _ = <expr containing a write-family ident> ;`
        if lexed.is_ident(src, i, "let")
            && lexed.is_ident(src, i + 1, "_")
            && lexed.is_punct(src, i + 2, "=")
        {
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut writes = false;
            while j < toks.len() {
                if toks[j].kind == TokenKind::Punct {
                    match lexed.text(src, j) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if toks[j].kind == TokenKind::Ident
                    && WRITE_IDENTS.contains(&lexed.text(src, j))
                {
                    writes = true;
                }
                j += 1;
            }
            let line = toks[i].line;
            if writes && !allowed(allows, "write_discard", line) {
                out.push(Violation {
                    rule: "R5/write_discard".into(),
                    file: ctx.rel_path.clone(),
                    line,
                    message: "write result discarded with `let _ =`; propagate the \
                              error (writer sinks latch it for `finish`), or annotate \
                              an infallible target with \
                              `// lint: allow(write_discard, reason)`"
                        .into(),
                });
            }
        }
        // `…write…(…).ok();` — swallowing the Result.
        if lexed.is_punct(src, i, ".")
            && lexed.is_ident(src, i + 1, "ok")
            && lexed.is_punct(src, i + 2, "(")
            && lexed.is_punct(src, i + 3, ")")
            && lexed.is_punct(src, i + 4, ";")
        {
            // Scan the statement backwards for a write-family identifier.
            let mut j = i;
            let mut depth = 0i32;
            let mut writes = false;
            while j > 0 {
                j -= 1;
                if toks[j].kind == TokenKind::Punct {
                    match lexed.text(src, j) {
                        ")" | "]" | "}" => depth += 1,
                        "(" | "[" => depth -= 1,
                        "{" => break,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if toks[j].kind == TokenKind::Ident
                    && WRITE_IDENTS.contains(&lexed.text(src, j))
                {
                    writes = true;
                }
            }
            let line = toks[i].line;
            if writes && !allowed(allows, "write_discard", line) {
                out.push(Violation {
                    rule: "R5/write_discard".into(),
                    file: ctx.rel_path.clone(),
                    line,
                    message: "write result swallowed with `.ok()`; propagate the error \
                              or latch it for `finish`"
                        .into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Seeded regression fixtures: one deliberately bad snippet per rule,
    //! plus the allow-marker and test-region escape hatches.

    use super::*;

    fn check(rel_path: &str, src: &str) -> Vec<Violation> {
        check_source(src, &FileContext::classify(rel_path))
    }

    #[test]
    fn r1_catches_unfused_and_count() {
        let bad = "fn f(a: &Bitmap, b: &Bitmap) -> usize { a.and(b).count_ones() }";
        let v = check("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R1/and_count");
        // Only the kernel module may spell the unfused form — the rest of
        // the bitmap crate's library code must go through the kernels too.
        assert!(check("crates/bitmap/src/kernel.rs", bad).is_empty());
        assert_eq!(check("crates/bitmap/src/lib.rs", bad).len(), 1);
        // Test files and test regions pin fused kernels to the unfused
        // reference form.
        assert!(check("crates/bitmap/tests/equiv.rs", bad).is_empty());
        let in_mod = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                      fn t() { assert_eq!(a.and_count(&b), a.and(&b).count_ones()); }\n}";
        assert!(check("crates/bitmap/src/lib.rs", in_mod).is_empty());
        // The fused call is fine anywhere.
        let good = "fn f(a: &Bitmap, b: &Bitmap) -> usize { a.and_count(b) }";
        assert!(check("crates/core/src/x.rs", good).is_empty());
        // Nested arguments don't confuse the paren matcher.
        let nested = "let n = x.and(&y.and(&z)).count_ones();";
        assert_eq!(check("crates/core/src/x.rs", nested).len(), 1);
    }

    #[test]
    fn r2_catches_panics_in_library_code() {
        let bad = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }";
        let v = check("crates/events/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R2/panic");
        // Not a panic-free crate: no finding.
        assert!(check("crates/datagen/src/x.rs", bad).is_empty());
        // Test files are exempt.
        assert!(check("crates/events/tests/x.rs", bad).is_empty());
        // debug_assert is always fine.
        let dbg = "pub fn f(x: usize) { debug_assert!(x > 0); }";
        assert!(check("crates/core/src/x.rs", dbg).is_empty());
        // Macros: panic! and assert! are caught.
        let mac = "pub fn f() { assert!(cond, \"nope\"); }";
        assert_eq!(check("crates/mi/src/x.rs", mac).len(), 1);
    }

    #[test]
    fn r2_respects_allow_marker_and_test_modules() {
        let marked = "pub fn f(v: &[u32]) -> u32 {\n    \
                      // lint: allow(panic, v is non-empty by construction)\n    \
                      *v.first().unwrap()\n}";
        assert!(check("crates/core/src/x.rs", marked).is_empty(), "marker on line above");
        let same_line =
            "pub fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() } // lint: allow(panic, ok)";
        assert!(check("crates/core/src/x.rs", same_line).is_empty(), "marker on same line");
        let tests = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                     fn t() { Some(1).unwrap(); panic!(\"boom\"); }\n}";
        assert!(check("crates/core/src/x.rs", tests).is_empty(), "cfg(test) module exempt");
        // A reason-less marker is itself a violation and suppresses nothing.
        let bare = "// lint: allow(panic)\npub fn f() { panic!(\"x\"); }";
        let v = check("crates/core/src/x.rs", bare);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.rule == "marker"));
        assert!(v.iter().any(|x| x.rule == "R2/panic"));
    }

    #[test]
    fn r3_catches_wildcard_boundary_match() {
        let bad = "fn f(b: BoundaryPolicy) -> u32 {\n    match b {\n        \
                   BoundaryPolicy::Discard => 1,\n        _ => 0,\n    }\n}";
        let v = check("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R3/boundary_match");
        // A catch-all binding is just as bad.
        let binding = "fn f(b: BoundaryPolicy) -> u32 {\n    match b {\n        \
                       BoundaryPolicy::Discard => 1,\n        other => 0,\n    }\n}";
        assert_eq!(check("crates/core/src/x.rs", binding).len(), 1);
        // Exhaustive-by-name matches pass, including or-patterns.
        let good = "fn f(b: BoundaryPolicy) -> u32 {\n    match b {\n        \
                    BoundaryPolicy::Clip | BoundaryPolicy::Discard => 0,\n        \
                    BoundaryPolicy::TrueExtent => 1,\n    }\n}";
        assert!(check("crates/core/src/x.rs", good).is_empty());
        // Matches not naming BoundaryPolicy in their *patterns* are out of
        // scope, even when arms construct policies.
        let unrelated = "fn f(s: &str) -> Result<BoundaryPolicy, String> {\n    match s {\n        \
                         \"clip\" => Ok(BoundaryPolicy::Clip),\n        \
                         other => Err(format!(\"{other}\")),\n    }\n}";
        assert!(check("crates/core/src/x.rs", unrelated).is_empty());
    }

    #[test]
    fn r4_confines_unsafe() {
        let bad = "pub fn f(p: *mut u8) { unsafe { *p = 0; } }";
        let v = check("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R4/unsafe");
        assert!(check("crates/bench/src/alloc_track.rs", bad).is_empty());
        // `unsafe_code` inside the forbid attribute is one identifier,
        // not the keyword.
        assert!(check("crates/core/src/lib.rs", "#![forbid(unsafe_code)]").is_empty());
    }

    #[test]
    fn r5_catches_discarded_write_results() {
        let let_discard = "fn f(w: &mut W) { let _ = writeln!(w, \"x\"); }";
        let v = check("crates/core/src/x.rs", let_discard);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R5/write_discard");
        let ok_discard = "fn f(w: &mut W) { w.write_all(b\"x\").ok(); }";
        assert_eq!(check("crates/core/src/x.rs", ok_discard).len(), 1);
        // Propagated writes are fine.
        let good = "fn f(w: &mut W) -> io::Result<()> { w.write_all(b\"x\")?; w.flush() }";
        assert!(check("crates/core/src/x.rs", good).is_empty());
        // `let _ =` of a non-write expression is fine.
        let unrelated = "fn f(x: u32) { let _ = x; }";
        assert!(check("crates/core/src/x.rs", unrelated).is_empty());
        // Marker suppresses (e.g. fmt::Write into a String is infallible).
        let marked = "fn f(s: &mut String) {\n    \
                      // lint: allow(write_discard, fmt::Write to String is infallible)\n    \
                      let _ = write!(s, \"x\");\n}";
        assert!(check("crates/core/src/x.rs", marked).is_empty());
    }

    #[test]
    fn r6_confines_filter_construction() {
        let call = "fn f(g: &Graph) -> CorrelationFilter<'_> { CorrelationFilter::new(a, e) }";
        let v = check("crates/core/src/shard.rs", call);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R6/filter_confinement");
        // Struct literals are constructions too.
        let literal = "let f = CorrelationFilter { allowed, edge };";
        assert_eq!(check("crates/ftpm/src/lib.rs", literal).len(), 1);
        // The definition, the approx seam and the exchange coordinator
        // are the allowed homes.
        assert!(check("crates/core/src/candidates.rs", call).is_empty());
        assert!(check("crates/core/src/approx.rs", call).is_empty());
        assert!(check("crates/core/src/executor.rs", call).is_empty());
        // Test files and test regions may assemble fixtures.
        assert!(check("crates/core/tests/approx.rs", call).is_empty());
        let in_mod = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                      fn t() { let f = CorrelationFilter::new(a, e); }\n}";
        assert!(check("crates/core/src/shard.rs", in_mod).is_empty());
        // Consuming the filter — type positions, declarations — is fine
        // everywhere.
        let uses = "struct CorrelationFilter<'a> { x: u8 }\n\
                    fn g(c: Option<&CorrelationFilter<'_>>) {}";
        assert!(check("crates/core/src/shard.rs", uses).is_empty());
        // Marker suppresses with a reason.
        let marked = "fn f() {\n    \
                      // lint: allow(filter_confinement, event-level gate shares the seam)\n    \
                      let f = CorrelationFilter::new(a, e);\n}";
        assert!(check("crates/core/src/shard.rs", marked).is_empty());
    }

    #[test]
    fn fixture_strings_do_not_self_trip() {
        // Rule text inside string literals or comments is data.
        let src = "// mentions .unwrap() and unsafe\nconst S: &str = \
                   \"a.and(b).count_ones() panic! unsafe\";";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }
}

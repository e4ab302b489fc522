//! The per-file rules, R1, R2a and R6, evaluated over a lexed file.
//!
//! Every rule guards an invariant the toolchain cannot express but the
//! system's exactness guarantee rests on:
//!
//! * **R1 `and-count`** — apriori gates must use the fused
//!   `Bitmap::and_count` instead of `.and(..).count_ones()`, which
//!   allocates an intermediate bitmap on the hottest path in the miner.
//!   Only the bitmap kernel module (`crates/bitmap/src/kernel.rs`, the
//!   one legitimate home of raw word loops) and test code (equivalence
//!   fixtures pin the fused kernels to the unfused reference) may spell
//!   the unfused form.
//! * **R2a `assert`** — library code of `core`/`events`/`bitmap`/
//!   `baselines`/`mi` must not `assert!`/`assert_eq!`/`assert_ne!`
//!   outside test code. The rest of R2 (`unwrap`, `expect`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`) is clippy's, denied in
//!   those crates' roots; a documented contract check is spelled
//!   `if … { panic!(…) }` under `#[expect(clippy::panic, reason = …)]`,
//!   so every deliberate panic carries its reason. Clippy cannot take
//!   this half: `disallowed_macros` also fires inside `debug_assert!`,
//!   which stays allowed because it vanishes in release builds. R2a has
//!   no suppression.
//! * **R6 `filter-confinement`** — `CorrelationFilter` may only be
//!   constructed (`CorrelationFilter::new(..)` or a struct literal) in
//!   `crates/core/src/candidates.rs` (the definition),
//!   `crates/core/src/approx.rs` (the single construction seam) and
//!   `crates/core/src/executor.rs` (the exchange coordinator). The
//!   one-plan equivalence — every A-HTPGM composition yields the same
//!   pattern set — rests on every path consuming the *same* L1/L2
//!   gates; a filter assembled anywhere else can silently disagree.
//!
//! Test code — files under `tests/`, `benches/` or `examples/`, and
//! items annotated `#[test]` or `#[cfg(test)]` — is exempt from all
//! three.

use crate::lexer::{lex, Lexed, TokenKind};
use crate::report::Violation;

/// Crates whose non-test library code falls under R2a.
pub const PANIC_FREE_CRATES: &[&str] = &["core", "events", "bitmap", "baselines", "mi"];

/// Macro names R2a flags (without the `!`).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name under `crates/` (`core`, `bitmap`, …).
    pub crate_name: String,
    /// Path relative to the workspace root, for reporting.
    pub rel_path: String,
    /// True for files under `tests/`, `benches/` or `examples/` — the
    /// whole file is test context.
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

/// Byte ranges of the items and statements carrying an outer attribute
/// (`#[…]`) for which `matches` holds; `matches` sees the tokens between
/// the brackets. A range runs from the `#` over any further attributes
/// to the end of the annotated item: its first top-level brace block, or
/// its `;` (a `let` statement always runs to its `;`). Inner attributes
/// (`#![…]`) are never matched. A matched item nested in another is not
/// reported separately.
pub(crate) fn attribute_regions(
    src: &str,
    lexed: &Lexed,
    matches: impl Fn(&[usize]) -> bool,
) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(lexed.is_punct(src, i, "#") && lexed.is_punct(src, i + 1, "[")) {
            i += 1;
            continue;
        }
        let after = lexed.skip_group(src, i + 1);
        let body: Vec<usize> = (i + 2..after.saturating_sub(1)).collect();
        if !matches(&body) {
            i = after;
            continue;
        }
        let mut k = after;
        while lexed.is_punct(src, k, "#") && lexed.is_punct(src, k + 1, "[") {
            k = lexed.skip_group(src, k + 1);
        }
        let is_let = lexed.is_ident(src, k, "let");
        let mut depth = 0i32;
        let mut end = src.len();
        while k < toks.len() {
            if toks[k].kind == TokenKind::Punct {
                match lexed.text(src, k) {
                    "[" | "(" | "{" => depth += 1,
                    close @ ("]" | ")" | "}") => {
                        depth -= 1;
                        if depth < 0 {
                            // The enclosing group closed first: the
                            // attribute sat on a field or an argument.
                            end = toks[k].start;
                            break;
                        }
                        if depth == 0 && close == "}" && !is_let {
                            end = toks[k].end;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end = toks[k].end;
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        regions.push((toks[i].start, end));
        i = toks.iter().position(|t| t.start >= end).unwrap_or(toks.len());
    }
    regions
}

/// Byte ranges of test code inside a non-test source file: the items
/// annotated exactly `#[test]` or `#[cfg(test)]`. (`#[cfg(not(test))]`
/// and `#[cfg_attr(test, …)]` items are library code.)
pub(crate) fn test_regions(src: &str, lexed: &Lexed) -> Vec<(usize, usize)> {
    attribute_regions(src, lexed, |body| {
        let words: Vec<&str> = body.iter().map(|&t| lexed.text(src, t)).collect();
        matches!(words.as_slice(), ["test"] | ["cfg", "(", "test", ")"])
    })
}

/// Byte ranges documented by `#[expect(clippy::<lint>, …)]` for the
/// given clippy lint name (e.g. `expect_used`).
pub(crate) fn expect_regions(src: &str, lexed: &Lexed, lint: &str) -> Vec<(usize, usize)> {
    attribute_regions(src, lexed, |body| {
        lexed.is_ident(src, body.first().copied().unwrap_or(usize::MAX), "expect")
            && body.windows(3).any(|w| {
                lexed.is_ident(src, w[0], "clippy")
                    && lexed.is_punct(src, w[1], "::")
                    && lexed.is_ident(src, w[2], lint)
            })
    })
}

/// True when byte offset `pos` lies in one of `regions`.
pub(crate) fn within(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| pos >= s && pos < e)
}

/// Runs every per-file rule over one source file.
pub fn check_source(src: &str, ctx: &FileContext) -> Vec<Violation> {
    let lexed = lex(src);
    let mut out = Vec::new();
    let tests = test_regions(src, &lexed);
    check_source_with(src, &lexed, ctx, &tests, &mut out);
    out
}

/// The per-file rules over pre-computed lex and test-region state, so
/// the workspace driver can share them with the whole-program rules.
pub(crate) fn check_source_with(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    tests: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    if ctx.is_test_file {
        return;
    }
    let in_test = |pos: usize| within(tests, pos);
    rule_and_count(src, lexed, ctx, &in_test, out);
    rule_assert(src, lexed, ctx, &in_test, out);
    rule_filter_confinement(src, lexed, ctx, &in_test, out);
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
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if FILTER_CONSTRUCTION_FILES.contains(&ctx.rel_path.as_str()) {
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
        if constructs {
            out.push(Violation {
                rule: "R6/filter_confinement".into(),
                file: ctx.rel_path.clone(),
                line: tok.line,
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
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    // The kernel module is where the word-level loops live — the one
    // place allowed to spell popcounts by hand.
    if ctx.rel_path == "crates/bitmap/src/kernel.rs" {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if !(lexed.is_punct(src, i, ".")
            && lexed.is_ident(src, i + 1, "and")
            && lexed.is_punct(src, i + 2, "("))
            || in_test(tok.start)
        {
            continue;
        }
        let j = lexed.skip_group(src, i + 2);
        if lexed.is_punct(src, j, ".") && lexed.is_ident(src, j + 1, "count_ones") {
            out.push(Violation {
                rule: "R1/and_count".into(),
                file: ctx.rel_path.clone(),
                line: tok.line,
                message: "`.and(..).count_ones()` allocates an intermediate bitmap; \
                          use the fused `Bitmap::and_count` (every apriori gate \
                          must go through it)"
                    .into(),
            });
        }
    }
}

/// R2a: `assert!`-family invocations in non-test library code of the
/// panic-free crates.
fn rule_assert(
    src: &str,
    lexed: &Lexed,
    ctx: &FileContext,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !PANIC_FREE_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for (i, tok) in lexed.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || in_test(tok.start) {
            continue;
        }
        let word = lexed.text(src, i);
        if !ASSERT_MACROS.contains(&word) || !lexed.is_punct(src, i + 1, "!") {
            continue;
        }
        out.push(Violation {
            rule: "R2a/assert".into(),
            file: ctx.rel_path.clone(),
            line: tok.line,
            message: format!(
                "`{word}!` can panic in library code reachable from user data; \
                 propagate an error, or state a documented contract as \
                 `if … {{ panic!(…) }}` under \
                 `#[expect(clippy::panic, reason = \"…\")]`"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    //! Seeded regression fixtures: one deliberately bad snippet per rule,
    //! plus the test-region escape hatch.

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
        // `cfg(not(test))` and `cfg_attr(test, …)` items are library code.
        let not_test = "#[cfg(not(test))]\npub fn f(a: &Bitmap, b: &Bitmap) -> usize {\n    \
                        a.and(b).count_ones()\n}";
        assert_eq!(check("crates/core/src/x.rs", not_test).len(), 1);
        let cfg_attr = "#[cfg_attr(test, derive(Debug))]\npub struct S;\n\
                        pub fn f(a: &Bitmap, b: &Bitmap) -> usize { a.and(b).count_ones() }";
        assert_eq!(check("crates/core/src/x.rs", cfg_attr).len(), 1);
        // The fused call is fine anywhere.
        let good = "fn f(a: &Bitmap, b: &Bitmap) -> usize { a.and_count(b) }";
        assert!(check("crates/core/src/x.rs", good).is_empty());
        // Nested arguments don't confuse the paren matcher.
        let nested = "let n = x.and(&y.and(&z)).count_ones();";
        assert_eq!(check("crates/core/src/x.rs", nested).len(), 1);
    }

    #[test]
    fn r2_catches_panics_in_library_code() {
        let bad = "pub fn f(x: usize) { assert!(x > 0, \"nope\"); }";
        let v = check("crates/events/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R2a/assert");
        for mac in ["assert_eq!(a, b)", "assert_ne!(a, b)"] {
            let src = format!("pub fn f(a: u8, b: u8) {{ {mac}; }}");
            assert_eq!(check("crates/mi/src/x.rs", &src).len(), 1, "{mac}");
        }
        // Not a panic-free crate: no finding.
        assert!(check("crates/datagen/src/x.rs", bad).is_empty());
        // Test files are exempt.
        assert!(check("crates/events/tests/x.rs", bad).is_empty());
        // debug_assert is always fine — it vanishes in release builds.
        let dbg = "pub fn f(x: usize) { debug_assert!(x > 0); debug_assert_eq!(x, 1); }";
        assert!(check("crates/core/src/x.rs", dbg).is_empty());
        // `unwrap`/`expect`/`panic!` are clippy's (`clippy::unwrap_used`
        // and friends), not the analyzer's.
        let clippy_side = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }";
        assert!(check("crates/core/src/x.rs", clippy_side).is_empty());
        // An `#[expect]` does not suppress R2a: asserts have no escape.
        let expected = "#[expect(clippy::panic, reason = \"contract\")]\n\
                        pub fn f(x: usize) { assert!(x > 0); }";
        assert_eq!(check("crates/core/src/x.rs", expected).len(), 1);
    }

    #[test]
    fn r2_exempts_test_modules_only() {
        let tests = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                     fn t() { assert!(true); assert_eq!(1, 1); }\n}";
        assert!(check("crates/core/src/x.rs", tests).is_empty(), "cfg(test) module exempt");
        let test_fn = "#[test]\nfn t() { assert!(true); }";
        assert!(check("crates/core/src/x.rs", test_fn).is_empty(), "#[test] fn exempt");
        // Any other attribute mentioning `test` marks library code.
        let not_test = "#[cfg(not(test))]\npub fn f(x: usize) { assert!(x > 0); }";
        assert_eq!(check("crates/core/src/x.rs", not_test).len(), 1);
        // Code after a test module is library code again.
        let after = "#[cfg(test)]\nmod tests {}\npub fn f(x: usize) { assert!(x > 0); }";
        assert_eq!(check("crates/core/src/x.rs", after).len(), 1);
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
    }

    #[test]
    fn expect_regions_cover_the_annotated_statement_or_item() {
        let src = "fn f(v: &[u32], w: [u8; 2]) -> u32 {\n    \
                   #[expect(clippy::expect_used, reason = \"non-empty\")]\n    \
                   let x = g(|a| { a }).expect(\"non-empty\");\n    \
                   v.first().expect(\"undocumented\");\n}\n\
                   #[expect(clippy::panic, reason = \"contract\")]\n\
                   fn h(w: [u8; 2]) { panic!(\"x\"); }";
        let lexed = lex(src);
        let at = |needle: &str| src.find(needle).expect("needle in source");
        let expects = expect_regions(src, &lexed, "expect_used");
        assert_eq!(expects.len(), 1, "{expects:?}");
        // A `let` runs to its `;`, past the closure's braces.
        assert!(within(&expects, at("expect(\"non-empty\")")));
        assert!(!within(&expects, at("expect(\"undocumented\")")));
        // A fn runs to the end of its body, past `;` inside `[u8; 2]`.
        let panics = expect_regions(src, &lexed, "panic");
        assert!(within(&panics, at("panic!")));
        assert!(expect_regions(src, &lexed, "unwrap_used").is_empty());
    }

    #[test]
    fn fixture_strings_do_not_self_trip() {
        // Rule text inside string literals or comments is data.
        let src = "// mentions assert!(x) and .and(b).count_ones()\nconst S: &str = \
                   \"a.and(b).count_ones() assert!(x) CorrelationFilter::new(a)\";";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }
}

//! `nvalloc_lint` — dependency-free static analysis over `crates/**/*.rs`.
//!
//! Four rules, all tuned to the invariants this repo actually relies on:
//!
//! * `unsafe-comment` — every `unsafe` token in non-test code must be
//!   preceded (within three non-empty lines, or on the same line) by a
//!   `// SAFETY:` comment stating the proof obligation.
//! * `persistence` — direct persistence primitives on the pool
//!   (`.write_u64(` / `.flush(` / `.fence(` / …) are allowed only in
//!   `crates/pmem` and the allowlisted persistence modules of
//!   `crates/core/src`. Everything else must go through those modules, so
//!   the pmsan shadow machine and the crash-image tracker see every store.
//! * `repr-c-sizes` — every `#[repr(C)]` type in `crates/core` or
//!   `crates/pmem` must appear in `tests/layout_sizes.rs`, the
//!   compile-time layout table that pins persistent-format sizes.
//! * `determinism` — `std::time` and `rand` are banned from
//!   `crates/core/src` non-test code: recovery and replay must be
//!   deterministic. Deliberate uses (lock-profiling telemetry) carry a
//!   waiver comment.
//! * `sched-ordering` — every `Ordering::Relaxed` in the four lock-free
//!   metadata modules (the ones the `sched` feature routes through the
//!   schedule explorer) must carry a `// sched: ordering-ok(<reason>)`
//!   comment on the same line or within the two preceding non-empty
//!   lines. A Relaxed access is exactly the kind the explorer's race
//!   detector treats as carrying no happens-before edge, so each one
//!   needs a stated reason why that is sound.
//!
//! A waiver is a comment on the same or the immediately preceding line:
//! `// nvalloc-lint: allow(<rule>)`. Bodies of `#[cfg(test)] mod … { }`
//! are skipped entirely.
//!
//! Usage:
//!   nvalloc_lint [ROOT]              lint the whole tree (default ".")
//!   nvalloc_lint --file F --as VPATH lint one file as if it lived at
//!                                    VPATH inside the tree (fixtures/CI)
//!
//! Exit status: 0 clean, 1 violations, 2 usage/IO error.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `crates/core/src` files allowed to touch pool persistence primitives
/// directly. Everything else goes through these modules.
const PERSISTENCE_ALLOWLIST: &[&str] = &[
    "arena.rs",
    "bitmap.rs",
    "booklog.rs",
    "front.rs",
    "global.rs",
    "large.rs",
    "morph.rs",
    "recovery.rs",
    "slab.rs",
    "wal.rs",
];

/// Method tokens that constitute a direct persistence call on the pool.
const PERSISTENCE_TOKENS: &[&str] = &[
    ".write_u64(",
    ".write_u16(",
    ".fill_bytes(",
    ".flush(",
    ".flush_writeback(",
    ".fence(",
    ".fence_pending(",
    ".persist_u64(",
    ".charge_store(",
];

/// Substrings whose presence in `crates/core/src` non-test code breaks
/// the determinism guarantee.
const DETERMINISM_TOKENS: &[&str] = &["std::time", "use rand", "rand::"];

/// The lock-free metadata modules the `sched` feature instruments; every
/// `Ordering::Relaxed` here must justify itself with a
/// `// sched: ordering-ok(<reason>)` comment (see DESIGN.md §16).
const SCHED_ORDERING_MODULES: &[&str] = &["remote.rs", "rtree.rs", "observe.rs", "global.rs"];

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// One source line split into executable code (strings blanked, comments
/// removed) and its trailing line-comment text, if any.
#[derive(Debug, Default, Clone)]
struct LineView {
    code: String,
    comment: String,
}

/// Strip comments and string contents, line by line, keeping line-comment
/// text separately so `SAFETY:` / waiver markers remain inspectable.
/// Handles `//`, nested `/* */`, `"…"` with escapes, raw strings
/// (`r"…"` / `r#"…"#`), and char literals without tripping on lifetimes.
fn split_source(src: &str) -> Vec<LineView> {
    let mut out = Vec::new();
    let mut block_depth = 0usize; // nested /* */ depth carried across lines
    let mut raw_hashes: Option<usize> = None; // inside r#"…"# with N hashes
    let mut in_str = false; // inside a normal "…" (can span lines)

    for line in src.lines() {
        let bytes: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if block_depth > 0 {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    block_depth -= 1;
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    block_depth += 1;
                    i += 2;
                } else {
                    // Keep block-comment text visible to the comment
                    // channel too, so /* SAFETY: … */ works.
                    comment.push(c);
                    i += 1;
                }
                continue;
            }
            if let Some(h) = raw_hashes {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..h {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        raw_hashes = None;
                        code.push('"');
                        i += 1 + h;
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
                continue;
            }
            if in_str {
                match c {
                    '\\' => {
                        code.push(' ');
                        i += 2; // skip the escaped char, whatever it is
                    }
                    '"' => {
                        in_str = false;
                        code.push('"');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                }
                continue;
            }
            match c {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    comment.push_str(&line[byte_index(line, i)..]);
                    break;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    block_depth += 1;
                    i += 2;
                }
                '"' => {
                    in_str = true;
                    code.push('"');
                    i += 1;
                }
                'r' if bytes.get(i + 1) == Some(&'"') => {
                    raw_hashes = Some(0);
                    code.push_str("r\"");
                    i += 2;
                }
                'r' if bytes.get(i + 1) == Some(&'#') => {
                    // Count hashes; only a raw string if a quote follows.
                    let mut h = 0usize;
                    while bytes.get(i + 1 + h) == Some(&'#') {
                        h += 1;
                    }
                    if bytes.get(i + 1 + h) == Some(&'"') {
                        raw_hashes = Some(h);
                        code.push_str("r\"");
                        i += 2 + h;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal iff it closes within a few chars
                    // ('x', '\n', '\u{1F}'); otherwise it's a lifetime.
                    let lit_len = char_literal_len(&bytes[i..]);
                    if let Some(n) = lit_len {
                        code.push('\'');
                        for _ in 1..n {
                            code.push(' ');
                        }
                        i += n;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(LineView { code, comment });
    }
    out
}

/// Byte offset of the `i`-th char of `line` (lines are mostly ASCII; this
/// keeps the comment slice correct when they are not).
fn byte_index(line: &str, char_idx: usize) -> usize {
    line.char_indices().nth(char_idx).map_or(line.len(), |(b, _)| b)
}

/// If `chars` (starting at `'`) opens a char literal, its length in chars.
fn char_literal_len(chars: &[char]) -> Option<usize> {
    match chars.get(1)? {
        '\\' => {
            // Escape: '\n', '\'', '\u{...}' — scan to the closing quote.
            let mut j = 2;
            while j < chars.len() && j < 12 {
                if chars[j] == '\'' && chars[j - 1] != '\\' {
                    return Some(j + 1);
                }
                j += 1;
            }
            None
        }
        _ => {
            if chars.get(2) == Some(&'\'') {
                Some(3)
            } else {
                None // lifetime ('a) or loop label ('outer:)
            }
        }
    }
}

/// True if `code` contains `word` as a standalone identifier token.
fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= code.len()
            || !code[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Does line `i` carry a waiver for `rule` (same line or the line above)?
fn waived(lines: &[LineView], i: usize, rule: &str) -> bool {
    let marker = format!("nvalloc-lint: allow({rule})");
    if lines[i].comment.contains(&marker) {
        return true;
    }
    i > 0 && lines[i - 1].comment.contains(&marker)
}

/// Is there a `sched: ordering-ok(<non-empty reason>)` comment anywhere
/// on the statement containing line `i`, or within the two preceding
/// non-empty lines above the statement's first line? Multi-line calls
/// (`compare_exchange(a,\n b,\n Ordering::Relaxed,\n …)`) are walked
/// back to their first line so one comment covers the whole expression.
fn ordering_ok_nearby(lines: &[LineView], i: usize) -> bool {
    let has_marker = |l: &LineView| {
        l.comment.find("sched: ordering-ok(").map(|p| p + "sched: ordering-ok(".len()).is_some_and(
            |start| {
                let rest = &l.comment[start..];
                rest.find(')').is_some_and(|end| !rest[..end].trim().is_empty())
            },
        )
    };
    // Rewind to the statement's first line (bounded walk).
    let mut start = i;
    for _ in 0..12 {
        if start == 0 || !is_continuation(lines, start) {
            break;
        }
        start -= 1;
    }
    if lines[start..=i].iter().any(has_marker) {
        return true;
    }
    let mut seen = 0usize;
    let mut j = start;
    while j > 0 && seen < 2 {
        j -= 1;
        let l = &lines[j];
        if l.code.trim().is_empty() && l.comment.trim().is_empty() {
            continue;
        }
        if has_marker(l) {
            return true;
        }
        seen += 1;
    }
    false
}

/// Is line `j` a continuation of the statement begun above it? True when
/// the nearest code-bearing line above ends mid-expression (open paren,
/// trailing comma/operator) or this line starts with a chaining token.
fn is_continuation(lines: &[LineView], j: usize) -> bool {
    let cur = lines[j].code.trim();
    if cur.starts_with('.') || cur.starts_with(')') || cur.starts_with('?') {
        return true;
    }
    let mut k = j;
    while k > 0 {
        k -= 1;
        let prev = lines[k].code.trim_end();
        if prev.trim().is_empty() {
            continue; // blank or comment-only line: keep looking up
        }
        const OPEN_ENDINGS: &[&str] = &["(", ",", "=", "&&", "||", "+", "|", "&", "=>"];
        return OPEN_ENDINGS.iter().any(|e| prev.ends_with(e));
    }
    false
}

/// Is there a `SAFETY:` comment on this line or within the three
/// preceding non-empty lines?
fn safety_nearby(lines: &[LineView], i: usize) -> bool {
    if lines[i].comment.contains("SAFETY:") {
        return true;
    }
    let mut seen = 0usize;
    let mut j = i;
    while j > 0 && seen < 3 {
        j -= 1;
        let l = &lines[j];
        if l.code.trim().is_empty() && l.comment.trim().is_empty() {
            continue;
        }
        if l.comment.contains("SAFETY:") {
            return true;
        }
        seen += 1;
    }
    false
}

/// Whether `path` (repo-relative, `/`-separated) is subject to each rule.
struct Scope {
    unsafe_rule: bool,
    persistence_rule: bool,
    determinism_rule: bool,
    sched_ordering_rule: bool,
    collect_repr: bool,
}

fn scope_of(vpath: &str) -> Scope {
    let in_core_src = vpath.starts_with("crates/core/src/");
    let in_pmem = vpath.starts_with("crates/pmem/");
    let base = vpath.rsplit('/').next().unwrap_or(vpath);
    Scope {
        unsafe_rule: true,
        persistence_rule: in_core_src && !PERSISTENCE_ALLOWLIST.contains(&base),
        determinism_rule: in_core_src,
        sched_ordering_rule: in_core_src && SCHED_ORDERING_MODULES.contains(&base),
        collect_repr: in_core_src || in_pmem,
    }
}

/// Lint one file. Appends `(struct_name, vpath, line)` for every
/// `#[repr(C)]` type it sees to `repr_types`.
fn lint_file(
    vpath: &str,
    src: &str,
    repr_types: &mut Vec<(String, String, usize)>,
) -> Vec<Violation> {
    let scope = scope_of(vpath);
    let lines = split_source(src);
    let mut out = Vec::new();

    let mut depth = 0usize;
    let mut skip_above: Option<usize> = None; // inside #[cfg(test)] mod at this depth
    let mut pending_test_attr = false;

    for (i, l) in lines.iter().enumerate() {
        let code = l.code.trim();
        let opens = l.code.matches('{').count();
        let closes = l.code.matches('}').count();
        let in_skip = skip_above.is_some();

        if !in_skip && !code.is_empty() {
            if let Some(rest) = code.strip_prefix("#[cfg(test)]") {
                pending_test_attr = true;
                // `#[cfg(test)] mod x { … }` on one line still enters.
                if is_mod_item(rest) {
                    skip_above = Some(depth);
                    pending_test_attr = false;
                }
            } else if code.starts_with("#[") || code.starts_with("#!") {
                // Other attributes between #[cfg(test)] and the item
                // (e.g. #[allow]) keep the pending flag alive.
            } else if pending_test_attr {
                if is_mod_item(code) {
                    skip_above = Some(depth);
                }
                pending_test_attr = false;
            }
        }

        let now_skipped = skip_above.is_some();
        if !now_skipped {
            run_rules(vpath, &scope, &lines, i, &mut out, repr_types);
        }

        depth = depth + opens - closes.min(depth + opens);
        if let Some(d) = skip_above {
            if depth <= d {
                skip_above = None;
            }
        }
    }
    out
}

/// Does this code line declare a module (`mod x {` / `pub(crate) mod x;`)?
fn is_mod_item(code: &str) -> bool {
    let code = code.trim();
    code.starts_with("mod ") || code.contains(" mod ") || code == "mod"
}

fn run_rules(
    vpath: &str,
    scope: &Scope,
    lines: &[LineView],
    i: usize,
    out: &mut Vec<Violation>,
    repr_types: &mut Vec<(String, String, usize)>,
) {
    let l = &lines[i];
    let lineno = i + 1;

    if scope.unsafe_rule && has_word(&l.code, "unsafe") && !safety_nearby(lines, i) {
        out.push(Violation {
            file: vpath.to_string(),
            line: lineno,
            rule: "unsafe-comment",
            msg: "`unsafe` without a `// SAFETY:` comment on or within the 3 preceding lines"
                .to_string(),
        });
    }

    if scope.persistence_rule {
        for tok in PERSISTENCE_TOKENS {
            if l.code.contains(tok) && !waived(lines, i, "persistence") {
                out.push(Violation {
                    file: vpath.to_string(),
                    line: lineno,
                    rule: "persistence",
                    msg: format!(
                        "direct persistence call `{tok}` outside the allowlisted modules \
                         ({} under crates/core/src, or crates/pmem)",
                        PERSISTENCE_ALLOWLIST.join(", ")
                    ),
                });
                break;
            }
        }
    }

    if scope.determinism_rule {
        for tok in DETERMINISM_TOKENS {
            if l.code.contains(tok) && !waived(lines, i, "determinism") {
                out.push(Violation {
                    file: vpath.to_string(),
                    line: lineno,
                    rule: "determinism",
                    msg: format!(
                        "`{tok}` in crates/core non-test code; recovery must be deterministic \
                         (waive deliberate telemetry uses with \
                         `// nvalloc-lint: allow(determinism)`)"
                    ),
                });
                break;
            }
        }
    }

    if scope.sched_ordering_rule
        && l.code.contains("Ordering::Relaxed")
        && !waived(lines, i, "sched-ordering")
        && !ordering_ok_nearby(lines, i)
    {
        out.push(Violation {
            file: vpath.to_string(),
            line: lineno,
            rule: "sched-ordering",
            msg: format!(
                "`Ordering::Relaxed` in a sched-instrumented module ({}) without a \
                 `// sched: ordering-ok(<reason>)` comment on this line or the two \
                 preceding lines; state why no happens-before edge is needed",
                SCHED_ORDERING_MODULES.join(", ")
            ),
        });
    }

    if scope.collect_repr && l.code.contains("#[repr(C)]") {
        // The type name is on this line or one of the next few
        // (attributes/derives may sit in between).
        for near in lines.iter().take(lines.len().min(i + 6)).skip(i) {
            if let Some(name) = type_name_in(&near.code) {
                repr_types.push((name, vpath.to_string(), lineno));
                break;
            }
        }
    }
}

/// Extract the type name from a `struct X` / `union X` / `enum X` line.
fn type_name_in(code: &str) -> Option<String> {
    for kw in ["struct ", "union ", "enum "] {
        if let Some(pos) = code.find(kw) {
            let rest = &code[pos + kw.len()..];
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

/// Cross-check collected `#[repr(C)]` types against the layout table.
fn check_repr_coverage(root: &Path, repr_types: &[(String, String, usize)]) -> Vec<Violation> {
    if repr_types.is_empty() {
        return Vec::new();
    }
    let table_path = root.join("tests/layout_sizes.rs");
    let table = fs::read_to_string(&table_path).unwrap_or_default();
    let mut out = Vec::new();
    for (name, file, line) in repr_types {
        if !table.contains(name.as_str()) {
            out.push(Violation {
                file: file.clone(),
                line: *line,
                rule: "repr-c-sizes",
                msg: format!(
                    "#[repr(C)] type `{name}` is not covered by tests/layout_sizes.rs; \
                     add a size/alignment assertion for it"
                ),
            });
        }
    }
    out
}

/// All `.rs` files under `root/crates`, skipping `target/` and `fixtures/`.
fn walk(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut stack = vec![root.join("crates")];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let rd = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in rd {
            let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn lint_tree(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let mut repr_types = Vec::new();
    for path in walk(root)? {
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let vpath = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        violations.extend(lint_file(&vpath, &src, &mut repr_types));
    }
    violations.extend(check_repr_coverage(root, &repr_types));
    Ok(violations)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [] => lint_tree(Path::new(".")),
        [root] if !root.starts_with("--") => lint_tree(Path::new(root)),
        [flag_f, file, flag_as, vpath] if flag_f == "--file" && flag_as == "--as" => {
            fs::read_to_string(file).map_err(|e| format!("read {file}: {e}")).map(|src| {
                let mut repr_types = Vec::new();
                lint_file(vpath, &src, &mut repr_types)
            })
        }
        _ => {
            eprintln!("usage: nvalloc_lint [ROOT] | nvalloc_lint --file FILE --as VPATH");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(violations) if violations.is_empty() => {
            println!("nvalloc_lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("nvalloc_lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("nvalloc_lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(vpath: &str, src: &str) -> Vec<Violation> {
        let mut repr = Vec::new();
        lint_file(vpath, src, &mut repr)
    }

    #[test]
    fn stripper_removes_strings_and_comments() {
        let v = split_source("let x = \"unsafe // not code\"; // unsafe here\n/* unsafe */ let y;");
        assert!(!v[0].code.contains("unsafe"));
        assert!(v[0].comment.contains("unsafe here"));
        assert!(!v[1].code.contains("unsafe"));
        assert!(v[1].comment.contains("unsafe"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let v = split_source("let r = r#\"unsafe \" inside\"#; fn f<'a>(x: &'a u8) {}");
        assert!(!v[0].code.contains("unsafe"));
        assert!(v[0].code.contains("fn f<'a>"));
        let v = split_source("let c = 'u'; let d = '\\n'; let bad = unsafe { 0 };");
        assert!(has_word(&v[0].code, "unsafe"));
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let src = "fn f() {\n    let p = unsafe { std::ptr::null::<u8>() };\n}\n";
        let v = lint_str("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unsafe-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unsafe_with_safety_ok() {
        let src = "fn f() {\n    // SAFETY: null is a valid *const u8.\n    let p = unsafe { std::ptr::null::<u8>() };\n}\n";
        assert!(lint_str("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_code_attr_not_flagged() {
        assert!(lint_str("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn persistence_outside_allowlist_flagged() {
        let src = "fn f(pool: &P, t: &mut T) {\n    pool.write_u64(t, 0, 1);\n}\n";
        let v = lint_str("crates/core/src/shards.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "persistence");
        // Same code in an allowlisted module or another crate is fine.
        assert!(lint_str("crates/core/src/wal.rs", src).is_empty());
        assert!(lint_str("crates/bench/src/scale.rs", src).is_empty());
    }

    #[test]
    fn persistence_in_test_mod_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(pool: &P, t: &mut T) {\n        pool.write_u64(t, 0, 1);\n    }\n}\n";
        assert!(lint_str("crates/core/src/shards.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_mod_still_linted() {
        let src = "#[cfg(not(test))]\nmod faults {\n    fn f(pool: &P, t: &mut T) { pool.fence(t); }\n}\n";
        let v = lint_str("crates/core/src/shards.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn determinism_flagged_and_waivable() {
        let src = "use std::time::Instant;\n";
        let v = lint_str("crates/core/src/config.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "determinism");
        let waived =
            "// nvalloc-lint: allow(determinism) — lock-profiling only\nuse std::time::Instant;\n";
        assert!(lint_str("crates/core/src/config.rs", waived).is_empty());
        // Outside crates/core the rule does not apply.
        assert!(lint_str("crates/bench/src/scale.rs", src).is_empty());
    }

    #[test]
    fn repr_c_collected() {
        let mut repr = Vec::new();
        let src = "#[repr(C)]\n#[derive(Clone, Copy)]\npub struct WalEntryRaw {\n    a: u64,\n}\n";
        let v = lint_file("crates/core/src/wal.rs", src, &mut repr);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(repr.len(), 1);
        assert_eq!(repr[0].0, "WalEntryRaw");
    }

    #[test]
    fn fixture_bad_unsafe_fails() {
        let src = include_str!("../fixtures/bad_unsafe.rs");
        let v = lint_str("crates/lint/fixtures/bad_unsafe.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "unsafe-comment"),
            "expected unsafe-comment violation, got {v:?}"
        );
    }

    #[test]
    fn fixture_bad_persistence_fails() {
        let src = include_str!("../fixtures/bad_persistence.rs");
        let v = lint_str("crates/core/src/not_allowlisted.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "persistence"),
            "expected persistence violation, got {v:?}"
        );
    }

    #[test]
    fn sched_ordering_flagged_and_justified() {
        let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        // Only the four instrumented modules are in scope.
        let v = lint_str("crates/core/src/remote.rs", bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "sched-ordering");
        assert!(lint_str("crates/core/src/arena.rs", bare).is_empty());
        assert!(lint_str("crates/pmem/src/pool.rs", bare).is_empty());
        // Same-line and preceding-line justifications both pass.
        let same =
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); } // sched: ordering-ok(stat counter)\n";
        assert!(lint_str("crates/core/src/rtree.rs", same).is_empty());
        let above = "fn f(c: &AtomicU64) {\n    // sched: ordering-ok(ticket; no payload)\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_str("crates/core/src/remote.rs", above).is_empty());
        // An empty reason does not count; the generic waiver still works.
        let empty = "fn f(c: &AtomicU64) {\n    // sched: ordering-ok()\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(lint_str("crates/core/src/observe.rs", empty).len(), 1);
        let waived = "// nvalloc-lint: allow(sched-ordering)\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(lint_str("crates/core/src/global.rs", waived).is_empty());
    }

    #[test]
    fn fixture_bad_ordering_fails() {
        let src = include_str!("../fixtures/bad_ordering.rs");
        let v = lint_str("crates/core/src/remote.rs", src);
        let hits: Vec<usize> =
            v.iter().filter(|v| v.rule == "sched-ordering").map(|v| v.line).collect();
        // `bump` (bare) and `empty_reason` trip; `bump_justified` does not.
        assert_eq!(hits.len(), 2, "{v:?}");
    }

    #[test]
    fn fixture_clean_passes() {
        let src = include_str!("../fixtures/clean.rs");
        let v = lint_str("crates/core/src/not_allowlisted.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn real_tree_is_clean() {
        // The crate sits at crates/lint; the repo root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let v = lint_tree(&root).expect("walk tree");
        assert!(v.is_empty(), "lint violations in tree:\n{}", {
            let mut s = String::new();
            for viol in &v {
                s.push_str(&format!("{viol}\n"));
            }
            s
        });
    }
}

//! The lint rules. Every source rule reads one [`SyntaxFile`]: R1–R4 and
//! R6 live here, the R7–R10 concurrency-audit family in [`crate::audit`],
//! and R5 checks manifest text. See DESIGN.md §12 for rationale and the
//! annotation grammar.

use crate::audit;
use crate::lexer::TokenKind;
use crate::syntax::{ident, punct, SyntaxFile};

/// A rule identifier, stable across output and CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: iteration over `HashMap`/`HashSet` in deterministic crates.
    NondetIter,
    /// R2: wall-clock reads outside the bench harnesses.
    WallClock,
    /// R3: unannotated panic sites in pipeline crates.
    Panics,
    /// R4: order/precision-sensitive float operations in kernel/replay paths.
    Float,
    /// R5: non-path dependencies in any manifest.
    Hermeticity,
    /// R6: bare `catch_unwind` outside the sanctioned supervision boundaries.
    Unwind,
    /// R7: `unsafe` regions without a non-empty `// safety:` justification.
    UnsafeAudit,
    /// R8: atomic accesses without an explicit (and, for Relaxed/SeqCst,
    /// justified) `Ordering::`.
    AtomicOrdering,
    /// R9: live lock guards across blocking calls, same-mutex re-locks, and
    /// condvar notifies after the guard was released.
    LockDiscipline,
    /// R10: silently discarded `Result`s in the pipeline/runtime core.
    ResultDiscard,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 10] = [
        Rule::NondetIter,
        Rule::WallClock,
        Rule::Panics,
        Rule::Float,
        Rule::Hermeticity,
        Rule::Unwind,
        Rule::UnsafeAudit,
        Rule::AtomicOrdering,
        Rule::LockDiscipline,
        Rule::ResultDiscard,
    ];

    /// Stable rule name used in output and `--rule` arguments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::Panics => "panics",
            Rule::Float => "float",
            Rule::Hermeticity => "hermeticity",
            Rule::Unwind => "unwind",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::LockDiscipline => "lock-discipline",
            Rule::ResultDiscard => "result-discard",
        }
    }

    /// The escape-hatch annotation tag each rule accepts (always with a
    /// non-empty justification after it).
    #[must_use]
    pub fn annotation_tag(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-ok:",
            Rule::WallClock => "wall-clock-ok:",
            Rule::Panics => "invariant:",
            Rule::Float => "float-ok:",
            Rule::Hermeticity => "hermetic-ok:",
            Rule::Unwind => "unwind-ok:",
            Rule::UnsafeAudit => "safety:",
            Rule::AtomicOrdering => "ordering:",
            Rule::LockDiscipline => "lock-ok:",
            Rule::ResultDiscard => "discard-ok:",
        }
    }

    /// Parse a `--rule` argument (accepts a couple of aliases).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "nondet-iter" | "nondet" | "r1" => Some(Rule::NondetIter),
            "wall-clock" | "wallclock" | "r2" => Some(Rule::WallClock),
            "panics" | "panic" | "r3" => Some(Rule::Panics),
            "float" | "r4" => Some(Rule::Float),
            "hermeticity" | "hermetic" | "r5" => Some(Rule::Hermeticity),
            "unwind" | "r6" => Some(Rule::Unwind),
            "unsafe-audit" | "unsafe" | "r7" => Some(Rule::UnsafeAudit),
            "atomic-ordering" | "atomic" | "r8" => Some(Rule::AtomicOrdering),
            "lock-discipline" | "lock" | "r9" => Some(Rule::LockDiscipline),
            "result-discard" | "discard" | "r10" => Some(Rule::ResultDiscard),
            _ => None,
        }
    }
}

/// One reported violation, rendered as `file:line: rule: msg`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule.name(), self.msg)
    }
}

/// Crates whose learned tables, JSON output, and replay must be bit-exact:
/// R1's scope.
pub const DETERMINISTIC_CRATES: [&str; 6] =
    ["core", "policy", "rl", "runtime", "smart-home", "sim"];

/// Crates on the load-bearing ingest → learn → optimize → serve path: R3's
/// scope (faults there are data, not bugs — see DESIGN.md §10).
pub const PIPELINE_CRATES: [&str; 4] = ["core", "policy", "smart-home", "runtime"];

/// Crates holding the numeric kernels and the replay path: R4's scope.
pub const FLOAT_CRATES: [&str; 2] = ["neural", "rl"];

/// The sanctioned panic boundaries: the only files allowed a bare
/// `catch_unwind`. Everywhere else a caught panic must either feed a
/// supervised recovery path or carry an `// unwind-ok:` justification —
/// silently swallowing a panic hides corrupted state (R6's scope).
pub const UNWIND_BOUNDARY_FILES: [&str; 2] =
    ["crates/stdkit/src/pool.rs", "crates/runtime/src/supervisor.rs"];

/// Crates where a silently dropped `Result` can hide a pipeline fault:
/// R10's scope (R7–R9 are workspace-wide).
pub const DISCARD_CRATES: [&str; 4] = ["core", "policy", "runtime", "stdkit"];

/// Which workspace crate (directory under `crates/`) a relative path is in,
/// and whether it is under that crate's `src/`.
#[must_use]
pub fn crate_of(rel_path: &str) -> Option<(&str, bool)> {
    let mut parts = rel_path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let krate = parts.next()?;
    let in_src = parts.next() == Some("src");
    Some((krate, in_src))
}

/// Does `rule` apply to the source file at `rel_path` during a workspace
/// walk? (Explicitly listed files bypass this — see the engine.)
#[must_use]
pub fn in_scope(rule: Rule, rel_path: &str) -> bool {
    match rule {
        Rule::NondetIter => crate_of(rel_path)
            .is_some_and(|(c, src)| src && DETERMINISTIC_CRATES.contains(&c)),
        Rule::Panics => crate_of(rel_path)
            .is_some_and(|(c, src)| src && PIPELINE_CRATES.contains(&c)),
        Rule::Float => {
            crate_of(rel_path).is_some_and(|(c, src)| src && FLOAT_CRATES.contains(&c))
        }
        Rule::WallClock => {
            // Banned everywhere except the bench harnesses: the jarvis-bench
            // crate and stdkit's bench module.
            !rel_path.starts_with("crates/bench/")
                && rel_path != "crates/stdkit/src/bench.rs"
        }
        Rule::Hermeticity => rel_path.ends_with(".toml"),
        Rule::Unwind => !UNWIND_BOUNDARY_FILES.contains(&rel_path),
        // The concurrency audit is workspace-wide: unsafe/atomics/locks are
        // load-bearing wherever they appear.
        Rule::UnsafeAudit | Rule::AtomicOrdering | Rule::LockDiscipline => {
            rel_path.ends_with(".rs")
        }
        Rule::ResultDiscard => {
            crate_of(rel_path).is_some_and(|(c, src)| src && DISCARD_CRATES.contains(&c))
        }
    }
}

/// Run one source rule over a parsed file.
#[must_use]
pub fn check_source(rule: Rule, rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    match rule {
        Rule::NondetIter => check_nondet_iter(rel_path, f),
        Rule::WallClock => check_wall_clock(rel_path, f),
        Rule::Panics => check_panics(rel_path, f),
        Rule::Float => check_float(rel_path, f),
        Rule::Hermeticity => Vec::new(),
        Rule::Unwind => check_unwind(rel_path, f),
        Rule::UnsafeAudit => audit::check_unsafe_audit(rel_path, f),
        Rule::AtomicOrdering => audit::check_atomic_ordering(rel_path, f),
        Rule::LockDiscipline => audit::check_lock_discipline(rel_path, f),
        Rule::ResultDiscard => audit::check_result_discard(rel_path, f),
    }
}

/// Drive a token-pattern rule: `hit(i)` returns `(rank, msg)` when token
/// `i` matches one of the rule's patterns. Test code is skipped, each line
/// reports at most one finding (its lowest-ranked hit, the first on ties),
/// and a line is dropped when it or its statement carries the rule's
/// annotation.
fn check_tokens(
    rule: Rule,
    rel_path: &str,
    f: &SyntaxFile,
    mut hit: impl FnMut(usize) -> Option<(usize, String)>,
) -> Vec<Violation> {
    // (token, rank, msg) of the best hit per line, in line order.
    let mut best: Vec<(usize, usize, String)> = Vec::new();
    for i in 0..f.tokens.len() {
        let Some((rank, msg)) = hit(i) else { continue };
        if f.token_in_test(i) {
            continue;
        }
        match best.last_mut() {
            Some(b) if f.tokens[b.0].line == f.tokens[i].line => {
                if rank < b.1 {
                    *b = (i, rank, msg);
                }
            }
            _ => best.push((i, rank, msg)),
        }
    }
    best.into_iter()
        .filter(|&(i, _, _)| {
            let stmt_line = f.tokens[f.stmt_start(i)].line;
            !f.annotated(f.tokens[i].line, stmt_line, rule.annotation_tag())
        })
        .map(|(i, _, msg)| Violation {
            file: rel_path.to_string(),
            line: f.tokens[i].line + 1,
            rule,
            msg,
        })
        .collect()
}

/// The identifier after a `::` that follows token `i` (`Instant` → `now`).
fn path_next(f: &SyntaxFile, i: usize) -> Option<&str> {
    let a = f.next_code(i + 1).filter(|&a| punct(f, a, ":"))?;
    let b = f.next_code(a + 1).filter(|&b| punct(f, b, ":"))?;
    ident(f, f.next_code(b + 1)?)
}

// ---------------------------------------------------------------------------
// R1: nondeterministic iteration
// ---------------------------------------------------------------------------

/// Methods that iterate a hash collection in storage order.
const ITER_METHODS: [&str; 8] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "retain",
];

fn check_nondet_iter(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    let idents = hash_idents(f);
    check_tokens(Rule::NondetIter, rel_path, f, |i| {
        let name = ident(f, i)?;
        // `recv.method(…)` ranks by method; a `for … in recv {` loop ranks last.
        let (rank, recv) = if let Some(rank) = ITER_METHODS.iter().position(|m| *m == name) {
            f.method_call(i)?;
            (rank, f.prev_code(f.prev_code(i)?)?)
        } else if name == "for" {
            (ITER_METHODS.len(), for_loop_target(f, i)?)
        } else {
            return None;
        };
        let recv = ident(f, recv)?;
        if !idents.iter().any(|h| h == recv) || order_pinned(f, i) {
            return None;
        }
        let method = if name == "for" { "for-in" } else { name };
        Some((
            rank,
            format!(
                "`{recv}.{method}` iterates a HashMap/HashSet in storage order in a \
                 deterministic crate; use BTreeMap/BTreeSet, sort the result, or justify \
                 with `// nondet-ok: <why>`"
            ),
        ))
    })
}

/// Identifiers in this file declared with a `HashMap`/`HashSet` type: a
/// field, parameter, or `let` annotation (`name: &HashMap<…>`), or a
/// constructor binding (`name = HashMap::new()`).
fn hash_idents(f: &SyntaxFile) -> Vec<String> {
    let mut idents = Vec::new();
    for i in 0..f.tokens.len() {
        let Some(ty) = ident(f, i) else { continue };
        if !(ty.ends_with("HashMap") || ty.ends_with("HashSet")) {
            continue;
        }
        let generic = f.next_code(i + 1).is_some_and(|j| punct(f, j, "<"));
        let ctor = path_next(f, i).is_some();
        if !generic && !ctor {
            continue;
        }
        // Walk back over a `std::collections::` path prefix.
        let mut start = i;
        while let Some(seg) = f
            .prev_code(start)
            .filter(|&c| punct(f, c, ":"))
            .and_then(|c| f.prev_code(c).filter(|&c| punct(f, c, ":")))
            .and_then(|c| f.prev_code(c).filter(|&s| ident(f, s).is_some()))
        {
            start = seg;
        }
        let Some(before) = f.prev_code(start) else { continue };
        let name = if punct(f, before, "=") {
            // `name = HashMap::new()`; `==`/`+=`/… have a punct before `=`.
            f.prev_code(before).filter(|_| ctor)
        } else {
            // `name: &&HashMap<…>` (a `&mut` or lifetime is not followed).
            let mut colon = Some(before);
            while let Some(amp) = colon.filter(|&c| punct(f, c, "&")) {
                colon = f.prev_code(amp);
            }
            colon
                .filter(|&c| punct(f, c, ":"))
                .and_then(|c| f.prev_code(c))
                .filter(|&n| !punct(f, n, ":"))
        };
        if let Some(name) = name.and_then(|n| ident(f, n)) {
            if !idents.iter().any(|h| h == name) {
                idents.push(name.to_string());
            }
        }
    }
    idents
}

/// `for <pat> in [&][mut] a.b.c {` — the token of the loop target's last
/// path segment, when the target is a plain path.
fn for_loop_target(f: &SyntaxFile, i: usize) -> Option<usize> {
    let d = f.depth_of(i);
    let mut j = f.next_code(i + 1)?;
    while !(ident(f, j) == Some("in") && f.depth_of(j) == d) {
        if f.depth_of(j) == d && ["{", ";", "}"].iter().any(|p| punct(f, j, p)) {
            return None;
        }
        j = f.next_code(j + 1)?;
    }
    j = f.next_code(j + 1)?;
    while punct(f, j, "&") || ident(f, j) == Some("mut") {
        j = f.next_code(j + 1)?;
    }
    loop {
        let seg = j;
        if !matches!(f.tokens[seg].kind, TokenKind::Ident | TokenKind::Number) {
            return None;
        }
        j = f.next_code(seg + 1)?;
        if punct(f, j, "{") {
            return Some(seg);
        }
        if punct(f, j, ":") && f.next_code(j + 1).is_some_and(|k| punct(f, k, ":")) {
            j = f.next_code(j + 1)?;
        } else if !punct(f, j, ".") {
            return None;
        }
        j = f.next_code(j + 1)?;
    }
}

/// Is the iteration at token `i` pinned to a deterministic order: a
/// `sort*`/`BTree*` identifier in its statement or the next one, or — for
/// a fn's tail expression — in the fn's return type?
fn order_pinned(f: &SyntaxFile, i: usize) -> bool {
    let pins = |from: usize, to: usize| {
        (from..to).any(|k| ident(f, k).is_some_and(|t| t.contains("sort") || t.contains("BTree")))
    };
    let end = f.stmt_end(i);
    // The next statement, when one follows in the same block.
    let next = f.next_code(end + 1).filter(|&n| f.depth_of(n) == f.depth_of(end));
    let next_end = next.filter(|_| punct(f, end, ";")).map_or(end, |n| f.stmt_end(n));
    if pins(f.stmt_start(i), next_end) {
        return true;
    }
    // A tail expression: its value is the fn's return value, typed by the
    // tokens between the parameter list and the body.
    f.fn_scope_of(i).is_some_and(|s| {
        s.close == end && {
            let params = (0..s.open).rev().find(|&k| punct(f, k, ")")).unwrap_or(s.open);
            pins(params, s.open)
        }
    })
}

// ---------------------------------------------------------------------------
// R2: wall-clock
// ---------------------------------------------------------------------------

fn check_wall_clock(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    check_tokens(Rule::WallClock, rel_path, f, |i| {
        let (rank, token) = match ident(f, i)? {
            "Instant" if path_next(f, i) == Some("now") => (0, "Instant::now"),
            t if t.contains("SystemTime") => (1, "SystemTime"),
            _ => return None,
        };
        Some((
            rank,
            format!(
                "`{token}` outside stdkit::bench / crates/bench: wall-clock reads \
                 break replay determinism; inject a clock or justify with \
                 `// wall-clock-ok: <why>`"
            ),
        ))
    })
}

// ---------------------------------------------------------------------------
// R3: panic policy
// ---------------------------------------------------------------------------

/// Panicking macros; they rank after `.unwrap()` and `.expect(`.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_panics(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    check_tokens(Rule::Panics, rel_path, f, |i| {
        let name = ident(f, i)?;
        let next = f.next_code(i + 1)?;
        let after = f.next_code(next + 1);
        let (rank, token) = match name {
            // `.unwrap()` takes no argument; `.expect(` any.
            "unwrap" if f.method_call(i).is_some() && after.is_some_and(|a| punct(f, a, ")")) => {
                (0, "unwrap()".to_string())
            }
            "expect" if f.method_call(i).is_some() => (1, "expect(".to_string()),
            _ => {
                let rank = PANIC_MACROS.iter().position(|m| *m == name)?;
                if !(punct(f, next, "!") && after.is_some_and(|a| punct(f, a, "("))) {
                    return None;
                }
                (2 + rank, format!("{name}!("))
            }
        };
        Some((
            rank,
            format!(
                "`{token}` in a pipeline crate: faults are data, not bugs — return \
                 JarvisError/ModelError, or justify with `// invariant: <why it \
                 cannot fire>`"
            ),
        ))
    })
}

// ---------------------------------------------------------------------------
// R4: float determinism
// ---------------------------------------------------------------------------

fn check_float(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    check_tokens(Rule::Float, rel_path, f, |i| {
        let (rank, token, why) = match ident(f, i)? {
            "mul_add" if f.method_call(i).is_some() => {
                (0, "mul_add", "contracts to FMA on some targets, changing results bitwise")
            }
            "powf" if f.method_call(i).is_some() => {
                (1, "powf", "libm-dependent, not bit-reproducible across platforms")
            }
            "as" => match ident(f, f.next_code(i + 1)?)? {
                "f32" => (2, "as f32", "narrows f64 precision in an f64 workspace"),
                "f64" => (3, "as f64", "lossy above 2^53 / for negative values"),
                _ => return None,
            },
            _ => return None,
        };
        Some((
            rank,
            format!(
                "`{token}` in a kernel/replay path: {why}; restructure or justify with \
                 `// float-ok: <why exact>`"
            ),
        ))
    })
}

// ---------------------------------------------------------------------------
// R5: hermeticity
// ---------------------------------------------------------------------------

/// Check one Cargo manifest: every dependency entry must be `path`-based or
/// a `workspace = true` alias, and `[features]` must not gate optional
/// (external) dependencies via `dep:`.
#[must_use]
pub fn check_manifest(rel_path: &str, text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let (content, comment) = match line.split_once('#') {
            Some((c, rest)) => (c.trim(), rest),
            None => (line, ""),
        };
        if content.is_empty() {
            continue;
        }
        if content.starts_with('[') {
            section = content.trim_matches(|c| c == '[' || c == ']').to_string();
            // `[dependencies.foo]` long-form tables declare a dep by header;
            // require the body to be path-only like any inline entry (the
            // body lines are checked below under the same section).
            continue;
        }
        let escaped = {
            let p = comment.find("hermetic-ok:");
            p.is_some_and(|p| !comment[p + "hermetic-ok:".len()..].trim().is_empty())
        };
        if section.contains("dependencies") {
            let Some((key, value)) = content.split_once('=') else { continue };
            let (key, value) = (key.trim(), value.trim());
            let in_tree = value.contains("path =")
                || value.contains("path=")
                || value.contains("workspace = true")
                || value.contains("workspace=true")
                || key.ends_with(".workspace")
                || key == "path"
                || key == "features"
                || key == "optional"
                || key == "default-features";
            let registryish = value.contains("git =")
                || value.contains("git=")
                || value.contains("registry")
                || key == "version"
                || key == "git";
            if (!in_tree || registryish) && !escaped {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::Hermeticity,
                    msg: format!(
                        "[{section}] `{key} = {value}` is not an in-tree path/workspace \
                         dependency — external crates break the offline build"
                    ),
                });
            }
        } else if section == "features" && content.contains("dep:") && !escaped {
            out.push(Violation {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: Rule::Hermeticity,
                msg: format!(
                    "[features] `{content}` feature-gates an optional dependency \
                     (`dep:`): std replacements must be unconditional in-tree code"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R6: panic boundaries
// ---------------------------------------------------------------------------

fn check_unwind(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    check_tokens(Rule::Unwind, rel_path, f, |i| {
        // Imports are harmless; the rule polices call sites.
        (ident(f, i)?.contains("catch_unwind") && !in_use_tree(f, i)).then(|| {
            (
                0,
                "`catch_unwind` outside stdkit::pool / runtime::supervisor: a swallowed \
                 panic hides corrupted state; route the failure through the supervised \
                 recovery path or justify with `// unwind-ok: <why>`"
                    .to_string(),
            )
        })
    })
}

/// Is token `i` part of a `use` declaration's path tree?
fn in_use_tree(f: &SyntaxFile, i: usize) -> bool {
    let mut j = i;
    while let Some(p) = f.prev_code(j) {
        match ident(f, p) {
            Some("use") => return true,
            Some(_) => {}
            None if [":", "{", "}", ","].iter().any(|s| punct(f, p, s)) => {}
            None => return false,
        }
        j = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rule: Rule, path: &str, src: &str) -> Vec<Violation> {
        check_source(rule, path, &SyntaxFile::parse(src))
    }

    #[test]
    fn nondet_iter_flags_hash_iteration() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in s.m.iter() { use_it(k, v); } }\n";
        let v = check(Rule::NondetIter, "crates/policy/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn nondet_iter_accepts_sorted_and_btree() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Vec<u32> {\n\
                       let mut v: Vec<u32> = s.m.keys().copied().collect();\n\
                       v.sort();\n\
                       v\n\
                   }\n";
        assert!(check(Rule::NondetIter, "crates/policy/src/x.rs", src).is_empty());
        let src2 = "struct S { m: HashSet<u32> }\n\
                    fn f(s: &S) -> BTreeSet<u32> { s.m.iter().copied().collect() }\n";
        assert!(check(Rule::NondetIter, "crates/policy/src/x.rs", src2).is_empty());
    }

    #[test]
    fn nondet_iter_sort_in_a_sibling_block_does_not_pin() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S, b: bool, v: &mut Vec<u32>) {\n\
                       if b {\n\
                           *v = s.m.keys().copied().collect();\n\
                       } else {\n\
                           v.sort();\n\
                       }\n\
                   }\n";
        assert_eq!(lines(&check(Rule::NondetIter, "crates/policy/src/x.rs", src)), [4]);
    }

    #[test]
    fn nondet_iter_respects_annotation() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> u32 { s.m.values().count() as u32 } \
                   // nondet-ok: count is order-independent\n";
        assert!(check(Rule::NondetIter, "crates/rl/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_ignores_btreemap_and_vec() {
        let src = "struct S { m: BTreeMap<u32, u32>, v: Vec<u32> }\n\
                   fn f(s: &S) { for x in s.m.keys() {} for y in s.v.iter() {} }\n";
        assert!(check(Rule::NondetIter, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_catches_for_in_ref() {
        let src = "fn f() { let m = HashSet::new(); for x in &m { go(x); } }\n";
        let v = check(Rule::NondetIter, "crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn nondet_iter_survives_a_file_that_starts_mid_type() {
        let src = "&HashMap<u32, u32>\n";
        assert!(check(Rule::NondetIter, "crates/policy/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_iter_catches_multiline_chains() {
        let src = "struct S { times: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> Option<u32> {\n\
                       s.times\n\
                           .iter()\n\
                           .map(|(_, v)| *v)\n\
                           .min_by_key(|v| *v)\n\
                   }\n";
        let v = check(Rule::NondetIter, "crates/policy/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let v = check(
            Rule::WallClock,
            "crates/runtime/src/x.rs",
            "fn f() { let t = Instant::now(); }\nfn g() { SystemTime::now(); }\n",
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn wall_clock_skips_strings_and_tests() {
        let src = "fn f() { log(\"Instant::now\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { Instant::now(); } }\n";
        assert!(check(Rule::WallClock, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panics_flags_and_escapes() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"set\") } \
                   // invariant: populated by the constructor\n";
        let v = check(Rule::Panics, "crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn float_flags_powf_mul_add_and_casts() {
        let src = "fn f(x: f64, n: usize) -> f64 { x.powf(2.0) + x.mul_add(2.0, 1.0) + n as f64 }\n";
        let v = check(Rule::Float, "crates/neural/src/x.rs", src);
        assert_eq!(v.len(), 1, "one violation per line (first token wins)");
        let src2 = "fn g(n: usize) -> f64 { n as f64 } // float-ok: n < 2^53, cast exact\n";
        assert!(check(Rule::Float, "crates/neural/src/x.rs", src2).is_empty());
    }

    #[test]
    fn manifest_rule_flags_external_deps() {
        let toml = "[dependencies]\n\
                    jarvis-stdkit.workspace = true\n\
                    rand = \"0.8\"\n\
                    serde = { version = \"1\", features = [\"derive\"] }\n\
                    local = { path = \"../local\" }\n\
                    [features]\n\
                    fancy = [\"dep:rand\"]\n";
        let v = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
        assert_eq!(v[2].line, 7);
    }

    #[test]
    fn unwind_flags_bare_catch_unwind_and_escapes() {
        let src = "fn f() { let _ = std::panic::catch_unwind(|| risky()); }\n\
                   fn g() {\n\
                       // unwind-ok: propcheck must report the failing case, not die with it\n\
                       let _ = std::panic::catch_unwind(|| risky());\n\
                   }\n";
        let v = check(Rule::Unwind, "crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwind_exempts_the_sanctioned_boundaries_on_walks() {
        for file in UNWIND_BOUNDARY_FILES {
            assert!(!in_scope(Rule::Unwind, file), "{file} must be exempt");
        }
        assert!(in_scope(Rule::Unwind, "crates/core/src/x.rs"));
        assert!(in_scope(Rule::Unwind, "src/main.rs"));
    }

    #[test]
    fn unwind_skips_test_code() {
        let src = "#[cfg(test)]\nmod t { fn g() { let _ = catch_unwind(|| 1); } }\n";
        assert!(check(Rule::Unwind, "crates/core/src/x.rs", src).is_empty());
    }

    fn lines(v: &[Violation]) -> Vec<usize> {
        v.iter().map(|v| v.line).collect()
    }

    #[test]
    fn string_and_comment_text_is_not_code() {
        let src = "fn f() { let x = \"Instant::now()\"; } // Instant::now()\n";
        assert!(check(Rule::WallClock, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn block_comments_span_lines_and_code_resumes_after() {
        let src = "fn f() { a /* panic!(\n.unwrap() */ ; b.unwrap(); }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [2]);
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let src = "fn f() { let s = r#\".unwrap() \"quoted\" \"#; x.y(); }\n\
                   fn g() { let s = r#\"\"#; x.unwrap(); }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [2]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // .unwrap()\n\
                   fn g<'a>(x: &'a Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [2]);
    }

    #[test]
    fn quote_char_literal_opens_no_string() {
        let src = "fn f() { let c = '\"'; let s = \"x.unwrap()\"; }\n\
                   fn g() { let c = '\"'; x.unwrap(); }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [2]);
    }

    #[test]
    fn cfg_test_scope_ends_with_its_module() {
        let src = "fn a() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() { y.unwrap(); }\n\
                   }\n\
                   fn c() { z.unwrap(); }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [1, 6]);
    }

    #[test]
    fn annotations_on_the_line_or_above_need_a_justification() {
        let src = "fn f() {\n\
                   a.unwrap(); // invariant: index from enumerate\n\
                   // invariant: static catalogue\n\
                   b.unwrap();\n\
                   c.unwrap(); // invariant:\n\
                   }\n";
        assert_eq!(lines(&check(Rule::Panics, "crates/core/src/x.rs", src)), [5]);
    }

    #[test]
    fn one_finding_per_line_names_the_highest_priority_pattern() {
        let src = "fn f(x: Option<u32>) { x.expect(\"set\"); panic!(\"no\"); x.unwrap(); }\n";
        let v = check(Rule::Panics, "crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.starts_with("`unwrap()`"), "{}", v[0].msg);
    }

    #[test]
    fn unwind_skips_multi_line_use_trees() {
        let src = "use std::panic::{\n    catch_unwind,\n    AssertUnwindSafe,\n};\n\
                   fn f() { let _ = catch_unwind(|| 1); }\n";
        assert_eq!(lines(&check(Rule::Unwind, "crates/core/src/x.rs", src)), [5]);
    }

    #[test]
    fn manifest_rule_accepts_workspace_and_path() {
        let toml = "[workspace.dependencies]\n\
                    jarvis = { path = \"crates/core\" }\n\
                    [dev-dependencies]\n\
                    jarvis-attacks.workspace = true\n";
        assert!(check_manifest("Cargo.toml", toml).is_empty());
    }
}

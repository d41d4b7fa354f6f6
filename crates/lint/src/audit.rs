//! R7–R10: the concurrency-audit rule family.
//!
//! These rules consume the [`SyntaxFile`] token-tree pass instead of raw
//! lines — they need call-site context (receiver paths, argument spans),
//! statement extents (a five-line `compare_exchange` is one statement), and
//! attached comments that survive attribute lines. See DESIGN.md §12.
//!
//! * **R7 `unsafe-audit`** — every `unsafe` block / fn / impl / trait must
//!   carry a non-empty `// safety:` (or `/// # Safety`) justification.
//! * **R8 `atomic-ordering`** — every atomic `load/store/swap/fetch_*/
//!   compare_exchange*` must name an explicit `Ordering::`; `Relaxed`
//!   outside the pure-counter idiom (`fetch_add`/`fetch_sub`) and any
//!   `SeqCst` additionally need `// ordering:` stating the happens-before
//!   edge relied on or deliberately forgone.
//! * **R9 `lock-discipline`** — a live `.lock()` guard across a blocking
//!   call (`send/recv/join/run_scoped/wait`), a same-mutex re-lock in one
//!   scope, or a condvar notify *after* the guard was released (the PR-7
//!   pool-race shape: the waiter can wake, observe completion, and free the
//!   stack job before the notify touches it). Notify *under* the guard is
//!   the sanctioned fix idiom and passes. `// lock-ok:` is the escape hatch.
//! * **R10 `result-discard`** — `let _ = <call>` and statement-final
//!   `.ok();` silently drop a `Result`; justify with `// discard-ok:`.

use crate::lexer::TokenKind;
use crate::rules::{Rule, Violation};
use crate::syntax::{ident, punct, ScopeKind, SyntaxFile};

fn violation(rel_path: &str, line0: usize, rule: Rule, msg: String) -> Violation {
    Violation { file: rel_path.to_string(), line: line0 + 1, rule, msg }
}

// ---------------------------------------------------------------------------
// R7: unsafe-audit
// ---------------------------------------------------------------------------

/// Every `unsafe` region needs an attached, non-empty safety justification.
#[must_use]
pub fn check_unsafe_audit(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if ident(f, i) != Some("unsafe") || f.token_in_test(i) {
            continue;
        }
        let what = match f.next_code(i + 1).and_then(|j| {
            let t = &f.tokens[j];
            Some(t.text.as_str())
        }) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            Some("extern") => "unsafe extern",
            Some("{") => "unsafe block",
            _ => "unsafe",
        };
        let line = f.tokens[i].line;
        let stmt_line = f.tokens[f.stmt_start(i)].line;
        if f.annotated(line, stmt_line, "safety:") {
            continue;
        }
        out.push(violation(
            rel_path,
            line,
            Rule::UnsafeAudit,
            format!(
                "`{what}` without an attached `// safety:` comment — state the invariant \
                 that makes this region sound (who owns the pointer, what keeps it alive, \
                 what the caller must uphold)"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// R8: atomic-ordering
// ---------------------------------------------------------------------------

/// Atomic accessors whose memory ordering matters.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Identifiers declared with an `Atomic*` type in this file (field / let /
/// static type annotations, `= AtomicUsize::new(..)` bindings, including
/// through `&`, `&mut`, and `Arc<..>`/`Box<..>` wrappers).
fn atomic_idents(f: &SyntaxFile) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in 0..f.tokens.len() {
        let Some(name) = ident(f, i) else { continue };
        if !name.starts_with("Atomic") || name.len() == "Atomic".len() {
            continue;
        }
        // Walk back over a `std::sync::atomic::` path prefix.
        let mut head = i;
        loop {
            let Some(c1) = f.prev_code(head) else { break };
            if !punct(f, c1, ":") {
                break;
            }
            let Some(c2) = f.prev_code(c1) else { break };
            if !punct(f, c2, ":") {
                break;
            }
            match f.prev_code(c2) {
                Some(p) if ident(f, p).is_some() => head = p,
                _ => break,
            }
        }
        // Skip reference sigils and shared-ownership wrappers.
        let mut before = f.prev_code(head);
        loop {
            match before {
                Some(b) if punct(f, b, "&") => before = f.prev_code(b),
                Some(b) if ident(f, b) == Some("mut") => before = f.prev_code(b),
                Some(b) if f.tokens[b].kind == TokenKind::Lifetime => before = f.prev_code(b),
                Some(b) if punct(f, b, "<") => {
                    match f.prev_code(b) {
                        Some(w) if matches!(ident(f, w), Some("Arc" | "Box" | "Rc")) => {
                            before = f.prev_code(w);
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        let Some(b) = before else { continue };
        let bound = if punct(f, b, ":") {
            // A type annotation — but not the tail of a `::` path.
            match f.prev_code(b) {
                Some(p) if punct(f, p, ":") => None,
                Some(p) => ident(f, p).map(str::to_string),
                None => None,
            }
        } else if punct(f, b, "=") {
            match f.prev_code(b) {
                Some(p) if matches!(f.tokens[p].text.as_str(), "=" | "!" | "<" | ">" | "+" | "-") => {
                    None
                }
                Some(p) => ident(f, p).map(str::to_string),
                None => None,
            }
        } else {
            None
        };
        if let Some(n) = bound {
            if !out.contains(&n) {
                out.push(n);
            }
        }
    }
    out
}

/// Every atomic access must name its `Ordering::`; weak and maximally
/// strong orderings need a written happens-before argument.
#[must_use]
pub fn check_atomic_ordering(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    let atomics = atomic_idents(f);
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let Some(method) = ident(f, i) else { continue };
        if !ATOMIC_METHODS.contains(&method) || f.token_in_test(i) {
            continue;
        }
        let Some(open) = f.method_call(i) else { continue };
        let Some(close) = f.partner(open) else { continue };

        let recv_is_atomic = f.receiver_path(i).is_some_and(|p| {
            p.rsplit('.')
                .next()
                .is_some_and(|last| atomics.iter().any(|a| a == last))
        });
        // Which `Ordering::X` names appear in the argument span?
        let mut has_ordering_path = false;
        let mut names: Vec<&str> = Vec::new();
        for k in open + 1..close {
            if ident(f, k) == Some("Ordering") && punct(f, k + 1, ":") {
                has_ordering_path = true;
            }
            if let Some(n) = ident(f, k) {
                if ORDERING_NAMES.contains(&n) && !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        if !recv_is_atomic && !has_ordering_path {
            continue; // `Vec::swap`, iterator `fold`-style `load`s, etc.
        }
        let line = f.tokens[i].line;
        let stmt_line = f.tokens[f.stmt_start(i)].line;
        if !has_ordering_path {
            out.push(violation(
                rel_path,
                line,
                Rule::AtomicOrdering,
                format!(
                    "atomic `.{method}` without an explicit `Ordering::` at the call site — \
                     name the ordering (and justify Relaxed/SeqCst with `// ordering: <edge>`)"
                ),
            ));
            continue;
        }
        let relaxed = names.contains(&"Relaxed");
        let seqcst = names.contains(&"SeqCst");
        // The pure-counter idiom: a Relaxed fetch_add/fetch_sub carries no
        // synchronization claim — nothing to justify.
        let counter = matches!(method, "fetch_add" | "fetch_sub")
            && relaxed
            && names.iter().all(|n| *n == "Relaxed");
        let needs_note = seqcst || (relaxed && !counter);
        if needs_note && !f.annotated(line, stmt_line, "ordering:") {
            let which = if seqcst { "SeqCst" } else { "Relaxed" };
            out.push(violation(
                rel_path,
                line,
                Rule::AtomicOrdering,
                format!(
                    "`Ordering::{which}` on `.{method}` needs `// ordering: <why>` stating \
                     the happens-before edge it relies on or deliberately forgoes"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R9: lock-discipline
// ---------------------------------------------------------------------------

/// Calls that block the current thread while any mutex guard is live.
const BLOCKING_METHODS: [&str; 9] = [
    "send",
    "recv",
    "recv_timeout",
    "join",
    "run_scoped",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
];

struct Guard {
    name: String,
    path: String,
    line: usize,
}

struct Frame {
    /// `true` for a fn body: released-guard history never leaks out of it.
    fn_body: bool,
    guards: Vec<Guard>,
    /// 0-based line where a guard was first released in this frame's
    /// lexical flow (explicit `drop(guard)` or an inner scope ending).
    released: Option<usize>,
}

/// Track `.lock()` guards lexically through each fn: flag blocking calls
/// under a live guard, same-mutex re-locks, and condvar notifies after the
/// guard was released.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_lock_discipline(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    let mut is_fn_open = vec![false; f.tokens.len().max(1)];
    for s in &f.scopes {
        if s.kind == ScopeKind::Fn {
            if let Some(flag) = is_fn_open.get_mut(s.open) {
                *flag = true;
            }
        }
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let t = &f.tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => frames.push(Frame {
                    fn_body: is_fn_open[i],
                    guards: Vec::new(),
                    released: None,
                }),
                "}" => {
                    if let Some(popped) = frames.pop() {
                        // A fn boundary: whatever was locked or released
                        // inside stays inside.
                        if !popped.fn_body {
                            let first = if popped.guards.is_empty() {
                                popped.released
                            } else {
                                popped.released.or(Some(t.line))
                            };
                            if let Some(l) = first {
                                if let Some(parent) = frames.last_mut() {
                                    parent.released.get_or_insert(l);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        if t.kind != TokenKind::Ident || f.token_in_test(i) {
            continue;
        }
        let line = t.line;
        let stmt_line = f.tokens[f.stmt_start(i)].line;
        match t.text.as_str() {
            "lock" => {
                let Some(open) = f.method_call(i) else { continue };
                let path = f.receiver_path(i);
                // Same-mutex re-lock while an earlier guard is live: the
                // second `.lock()` deadlocks (std::sync::Mutex is not
                // reentrant).
                if let Some(p) = &path {
                    if let Some(g) = frames
                        .iter()
                        .flat_map(|fr| fr.guards.iter())
                        .find(|g| &g.path == p)
                    {
                        if !f.annotated(line, stmt_line, "lock-ok:") {
                            out.push(violation(
                                rel_path,
                                line,
                                Rule::LockDiscipline,
                                format!(
                                    "re-locking `{p}` while guard `{}` from line {} is \
                                     still live deadlocks; reuse the guard or justify \
                                     with `// lock-ok: <why>`",
                                    g.name,
                                    g.line + 1
                                ),
                            ));
                        }
                    }
                }
                // A new guard binding: `let [mut] NAME = <path>.lock()
                // [.expect(..)|.unwrap()|?] ;`. Anything else (a guard
                // temporary inside a larger expression) dies at its own
                // statement and is not tracked.
                let Some(close) = f.partner(open) else { continue };
                let Some(bound) = guard_binding(f, i, close) else { continue };
                if let Some(frame) = frames.last_mut() {
                    frame.guards.push(Guard {
                        name: bound,
                        path: path.unwrap_or_else(|| format!("<expr@{line}>")),
                        line,
                    });
                }
            }
            "drop" => {
                // Free-fn `drop(guard)` releases and records the release.
                if f
                    .prev_code(i)
                    .is_some_and(|p| punct(f, p, "."))
                {
                    continue;
                }
                let Some(open) = f.next_code(i + 1).filter(|&j| punct(f, j, "(")) else {
                    continue;
                };
                let Some(arg) = f.next_code(open + 1) else { continue };
                let Some(name) = ident(f, arg) else { continue };
                if !f.next_code(arg + 1).is_some_and(|j| punct(f, j, ")")) {
                    continue;
                }
                let mut hit = false;
                for frame in &mut frames {
                    if let Some(pos) = frame.guards.iter().position(|g| g.name == name) {
                        frame.guards.remove(pos);
                        hit = true;
                    }
                }
                if hit {
                    if let Some(frame) = frames.last_mut() {
                        frame.released.get_or_insert(line);
                    }
                }
            }
            "notify_one" | "notify_all" => {
                if f.method_call(i).is_none() {
                    continue;
                }
                let released = frames.iter().find_map(|fr| fr.released);
                if let Some(rel_line) = released {
                    if !f.annotated(line, stmt_line, "lock-ok:") {
                        out.push(violation(
                            rel_path,
                            line,
                            Rule::LockDiscipline,
                            format!(
                                "condvar `.{}` after the guard was released (line {}): a \
                                 waiter can win the race and free the waited-on state \
                                 first (the PR-7 pool race) — notify while holding the \
                                 lock, or justify with `// lock-ok: <why the state \
                                 outlives the waiter>`",
                                t.text,
                                rel_line + 1
                            ),
                        ));
                    }
                }
            }
            m if BLOCKING_METHODS.contains(&m) => {
                let Some(open) = f.method_call(i) else { continue };
                let live: Vec<&Guard> =
                    frames.iter().flat_map(|fr| fr.guards.iter()).collect();
                if live.is_empty() {
                    continue;
                }
                // `cv.wait(guard)` *consumes* the guard — the sanctioned
                // blocking-with-guard idiom.
                if m.starts_with("wait") {
                    let close = f.partner(open).unwrap_or(f.tokens.len());
                    let consumed = (open + 1..close).any(|k| {
                        ident(f, k).is_some_and(|n| live.iter().any(|g| g.name == n))
                    });
                    if consumed {
                        continue;
                    }
                }
                if !f.annotated(line, stmt_line, "lock-ok:") {
                    let g = live[live.len() - 1];
                    out.push(violation(
                        rel_path,
                        line,
                        Rule::LockDiscipline,
                        format!(
                            "guard `{}` (locked at line {}) is live across blocking \
                             `.{m}()` — every other user of that mutex stalls behind \
                             this call; drop the guard first or justify with \
                             `// lock-ok: <why>`",
                            g.name,
                            g.line + 1
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// When the `.lock()` whose method ident is at `i` (args close at `close`)
/// is the tail of a simple `let` binding, return the bound guard name.
fn guard_binding(f: &SyntaxFile, i: usize, close: usize) -> Option<String> {
    let mut j = f.next_code(close + 1)?;
    loop {
        if punct(f, j, "?") {
            j = f.next_code(j + 1)?;
            continue;
        }
        if punct(f, j, ".") {
            let m = f.next_code(j + 1)?;
            if !matches!(ident(f, m), Some("expect" | "unwrap")) {
                return None;
            }
            let open = f.next_code(m + 1)?;
            if !punct(f, open, "(") {
                return None;
            }
            j = f.next_code(f.partner(open)? + 1)?;
            continue;
        }
        break;
    }
    if !punct(f, j, ";") {
        return None;
    }
    let start = f.stmt_start(i);
    if ident(f, start) != Some("let") {
        return None;
    }
    let mut n = f.next_code(start + 1)?;
    if ident(f, n) == Some("mut") {
        n = f.next_code(n + 1)?;
    }
    ident(f, n).map(str::to_string)
}

// ---------------------------------------------------------------------------
// R10: result-discard
// ---------------------------------------------------------------------------

/// `let _ = <call>` and statement-final `.ok();` silently drop a `Result`.
#[must_use]
pub fn check_result_discard(rel_path: &str, f: &SyntaxFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if f.token_in_test(i) {
            continue;
        }
        match ident(f, i) {
            Some("let") => {
                let Some(u) = f.next_code(i + 1).filter(|&j| ident(f, j) == Some("_"))
                else {
                    continue;
                };
                if !f.next_code(u + 1).is_some_and(|j| punct(f, j, "=")) {
                    continue;
                }
                // `while let` / `if let` patterns are flow control, not
                // discards.
                if f
                    .prev_code(i)
                    .and_then(|p| ident(f, p))
                    .is_some_and(|p| p == "while" || p == "if")
                {
                    continue;
                }
                // Only calls are suspect: `let _ = &x;` discards nothing.
                let d = f.depth_of(i);
                let mut k = u + 1;
                let mut saw_call = false;
                while k < f.tokens.len() {
                    if punct(f, k, ";") && f.depth_of(k) <= d {
                        break;
                    }
                    if punct(f, k, "(") {
                        saw_call = true;
                    }
                    k += 1;
                }
                let line = f.tokens[i].line;
                if saw_call && !f.annotated(line, line, "discard-ok:") {
                    out.push(violation(
                        rel_path,
                        line,
                        Rule::ResultDiscard,
                        "`let _ =` discards a call result — a swallowed Err here hides a \
                         fault the pipeline is supposed to surface; handle it or justify \
                         with `// discard-ok: <why>`"
                            .to_string(),
                    ));
                }
            }
            Some("ok") => {
                let Some(open) = f.method_call(i) else { continue };
                let Some(close) = f.partner(open) else { continue };
                // `let y = g().ok();` / `x = g().ok();` / `return g().ok();`
                // consume the value — only a bare `<chain>.ok();` discards.
                let start = f.stmt_start(i);
                let consumed = (start..i).any(|k| {
                    punct(f, k, "=") || matches!(ident(f, k), Some("let" | "return"))
                });
                if consumed {
                    continue;
                }
                if f.next_code(close + 1).is_some_and(|j| punct(f, j, ";")) {
                    let line = f.tokens[i].line;
                    let stmt_line = f.tokens[f.stmt_start(i)].line;
                    if !f.annotated(line, stmt_line, "discard-ok:") {
                        out.push(violation(
                            rel_path,
                            line,
                            Rule::ResultDiscard,
                            "statement-final `.ok();` throws the Result away — handle the \
                             Err or justify with `// discard-ok: <why>`"
                                .to_string(),
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rule: Rule, src: &str) -> Vec<Violation> {
        let f = SyntaxFile::parse(src);
        match rule {
            Rule::UnsafeAudit => check_unsafe_audit("x.rs", &f),
            Rule::AtomicOrdering => check_atomic_ordering("x.rs", &f),
            Rule::LockDiscipline => check_lock_discipline("x.rs", &f),
            Rule::ResultDiscard => check_result_discard("x.rs", &f),
            _ => unreachable!("R1–R6 are tested in rules.rs"),
        }
    }

    #[test]
    fn unsafe_block_needs_safety_comment() {
        let v = check(Rule::UnsafeAudit, "fn f(p: *mut u8) { unsafe { *p = 0; } }\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("unsafe block"));
        let ok = "fn f(p: *mut u8) {\n\
                  // safety: p points into the caller's live buffer\n\
                  unsafe { *p = 0; }\n\
                  }\n";
        assert!(check(Rule::UnsafeAudit, ok).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section() {
        let src = "/// # Safety: caller must pass a live, aligned pointer\n\
                   unsafe fn raw(p: *const u8) -> u8 { *p }\n";
        assert!(check(Rule::UnsafeAudit, src).is_empty());
        let bare = "unsafe fn raw(p: *const u8) -> u8 { *p }\n";
        assert_eq!(check(Rule::UnsafeAudit, bare).len(), 1);
    }

    #[test]
    fn unsafe_impl_is_flagged_individually() {
        // Two impls, one comment: only the adjacent one is covered.
        let src = "// safety: T is Send so the queue is too\n\
                   unsafe impl<T: Send> Send for Q<T> {}\n\
                   unsafe impl<T: Send> Sync for Q<T> {}\n";
        let v = check(Rule::UnsafeAudit, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn atomic_without_ordering_trips() {
        let src = "struct S { head: AtomicUsize }\n\
                   fn f(s: &S) -> usize { s.head.load(order()) }\n";
        let v = check(Rule::AtomicOrdering, src);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("explicit `Ordering::`"));
    }

    #[test]
    fn relaxed_needs_note_except_counters() {
        let trip = "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }\n";
        assert_eq!(check(Rule::AtomicOrdering, trip).len(), 1);
        let counter = "fn f(x: &AtomicU64) { x.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(check(Rule::AtomicOrdering, counter).is_empty());
        let noted = "fn f(x: &AtomicU64) {\n\
                     // ordering: racy stat counter, readers tolerate staleness\n\
                     x.store(1, Ordering::Relaxed);\n\
                     }\n";
        assert!(check(Rule::AtomicOrdering, noted).is_empty());
    }

    #[test]
    fn seqcst_needs_note_and_acquire_release_pass() {
        let trip = "fn f(x: &AtomicBool) -> bool { x.load(Ordering::SeqCst) }\n";
        assert_eq!(check(Rule::AtomicOrdering, trip).len(), 1);
        let fine = "fn f(x: &AtomicBool) -> bool { x.load(Ordering::Acquire) }\n\
                    fn g(x: &AtomicBool) { x.store(true, Ordering::Release); }\n";
        assert!(check(Rule::AtomicOrdering, fine).is_empty());
    }

    #[test]
    fn multi_line_cas_reads_stmt_start_annotation() {
        let src = "fn f(t: &AtomicU64, a: u64, b: u64) {\n\
                   // ordering: ticket claim; the seq store publishes, not this CAS\n\
                   let _r = t.compare_exchange(\n\
                       a,\n\
                       b,\n\
                       Ordering::Relaxed,\n\
                       Ordering::Relaxed,\n\
                   );\n\
                   }\n";
        assert!(check(Rule::AtomicOrdering, src).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic() {
        let src = "fn f(v: &mut Vec<u32>) { v.sort_by(|a, b| b.cmp(a)); v.swap(0, 1); }\n";
        assert!(check(Rule::AtomicOrdering, src).is_empty());
    }

    /// The PR-7 pool race, reduced: worker drops the state guard, *then*
    /// notifies the condvar of a stack-allocated job — the waiter can
    /// observe completion and pop its frame before `notify_all` runs.
    #[test]
    fn notify_after_guard_release_trips_r9() {
        let src = "fn run_ticket(job: &Job) {\n\
                       let mut state = job.state.lock().unwrap();\n\
                       state.remaining -= 1;\n\
                       drop(state);\n\
                       job.cv.notify_all();\n\
                   }\n";
        let v = check(Rule::LockDiscipline, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("after the guard was released"));
    }

    /// The shipped PR-7 fix: notify while still holding the guard.
    #[test]
    fn notify_under_the_guard_passes_r9() {
        let src = "fn run_ticket(job: &Job) {\n\
                       let mut state = job.state.lock().unwrap();\n\
                       state.remaining -= 1;\n\
                       if state.remaining == 0 { job.cv.notify_all(); }\n\
                       drop(state);\n\
                   }\n";
        assert!(check(Rule::LockDiscipline, src).is_empty());
    }

    #[test]
    fn scope_end_release_also_counts() {
        let src = "fn f(m: &M) {\n\
                       {\n\
                           let g = m.state.lock().unwrap();\n\
                           g.bump();\n\
                       }\n\
                       m.cv.notify_one();\n\
                   }\n";
        let v = check(Rule::LockDiscipline, src);
        assert_eq!(v.len(), 1, "{v:?}");
        let ok = "fn f(m: &M) {\n\
                       {\n\
                           let g = m.state.lock().unwrap();\n\
                           g.bump();\n\
                       }\n\
                       // lock-ok: cv and state share the Arc; waiters re-check the predicate\n\
                       m.cv.notify_one();\n\
                   }\n";
        assert!(check(Rule::LockDiscipline, ok).is_empty());
    }

    #[test]
    fn released_history_stays_inside_its_fn() {
        let src = "fn a(m: &M) { let g = m.s.lock().unwrap(); drop(g); }\n\
                   fn b(m: &M) { m.cv.notify_all(); }\n";
        assert!(check(Rule::LockDiscipline, src).is_empty());
    }

    #[test]
    fn blocking_call_under_live_guard_trips() {
        let src = "fn f(m: &M, tx: &Sender<u32>) {\n\
                       let g = m.state.lock().unwrap();\n\
                       tx.send(g.v).unwrap();\n\
                   }\n";
        let v = check(Rule::LockDiscipline, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("live across blocking"));
    }

    #[test]
    fn condvar_wait_consumes_the_guard() {
        let src = "fn f(m: &M) {\n\
                       let mut g = m.state.lock().unwrap();\n\
                       while !g.ready { g = m.cv.wait(g).unwrap(); }\n\
                   }\n";
        assert!(check(Rule::LockDiscipline, src).is_empty());
    }

    #[test]
    fn same_mutex_relock_trips() {
        let src = "fn f(m: &M) {\n\
                       let a = m.state.lock().unwrap();\n\
                       let b = m.state.lock().unwrap();\n\
                       use_both(a, b);\n\
                   }\n";
        let v = check(Rule::LockDiscipline, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("re-locking"));
    }

    #[test]
    fn temporary_guard_is_not_tracked() {
        let src = "fn f(&mut self) {\n\
                       let hs = std::mem::take(&mut *self.handles.lock().unwrap());\n\
                       for h in hs { h.join().unwrap(); }\n\
                   }\n";
        assert!(check(Rule::LockDiscipline, src).is_empty());
    }

    #[test]
    fn result_discards_trip_and_annotate() {
        let src = "fn f(tx: &Sender<u32>) { let _ = tx.send(1); }\n";
        assert_eq!(check(Rule::ResultDiscard, src).len(), 1);
        let src2 = "fn f(tx: &Sender<u32>) { tx.send(1).ok(); }\n";
        assert_eq!(check(Rule::ResultDiscard, src2).len(), 1);
        let ok = "fn f(tx: &Sender<u32>) {\n\
                  // discard-ok: receiver gone means shutdown; nothing to do\n\
                  let _ = tx.send(1);\n\
                  }\n";
        assert!(check(Rule::ResultDiscard, ok).is_empty());
    }

    #[test]
    fn non_call_underscore_and_ok_chains_pass() {
        let src = "fn f(x: u32) { let _ = x; let y = g().ok(); use_it(y); }\n";
        assert!(check(Rule::ResultDiscard, src).is_empty());
    }
}

//! `jarvis-lint`: the in-tree determinism & safety lint engine.
//!
//! Jarvis's reproduction guarantee is bit-exact determinism — the learning
//! phase (Algorithm 1) and the constrained DQN (Algorithm 2) are validated
//! by byte-identical replay across seeds, shard counts, and thread counts —
//! and its serving core now rests on hand-rolled lock-free code and
//! `unsafe` SIMD kernels. This crate makes both a *checked property of the
//! sources*: a zero-dependency static-analysis tool with one analysis
//! layer. Each `.rs` file is lexed once ([`lexer`]) and given a token-tree
//! and scope pass ([`syntax`]); every source rule reads that one
//! [`SyntaxFile`], with its one test-scope table and its one annotation
//! lookup. R5 checks manifest text.
//!
//! | rule | name | what it bans |
//! |------|------|--------------|
//! | R1 | `nondet-iter` | `HashMap`/`HashSet` iteration in deterministic crates |
//! | R2 | `wall-clock` | `Instant::now()`/`SystemTime` outside the bench harnesses |
//! | R3 | `panics` | unannotated `unwrap`/`expect`/`panic!` in pipeline crates |
//! | R4 | `float` | `mul_add`/`powf`/lossy `as` float casts in kernel/replay paths |
//! | R5 | `hermeticity` | non-`path` dependencies in any manifest |
//! | R6 | `unwind` | bare `catch_unwind` outside stdkit::pool / runtime::supervisor |
//! | R7 | `unsafe-audit` | `unsafe` without a non-empty `// safety:` justification |
//! | R8 | `atomic-ordering` | atomics without explicit (and justified) `Ordering::` |
//! | R9 | `lock-discipline` | guards across blocking calls, re-locks, notify-after-release |
//! | R10 | `result-discard` | `let _ =` / stray `.ok();` on core-path `Result`s |
//!
//! See DESIGN.md §12 for each rule's rationale and the annotation grammar
//! (`// invariant:`, `// nondet-ok:`, `// float-ok:`, `// wall-clock-ok:`,
//! `// unwind-ok:`, `// safety:`, `// ordering:`, `// lock-ok:`,
//! `// discard-ok:`, and `# hermetic-ok:` in manifests).
//!
//! Run it as `cargo run -p jarvis-lint -- [--quick] [--rule NAME] [--json]
//! [--timing] [--budget-ms N] [paths…]`; output is machine-readable
//! `file:line: rule: msg` (or a JSON array with `--json`), exit code 1 when
//! any violation is found, 3 when the walk blows its time budget.

pub mod audit;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod syntax;

pub use engine::{
    find_root, lint_paths, lint_paths_report, lint_workspace, lint_workspace_report, LintReport,
    Options,
};
pub use lexer::{lex, Token, TokenKind};
pub use rules::{check_manifest, check_source, Rule, Violation};
pub use syntax::{Scope, ScopeKind, SyntaxFile};

//! Fixture-driven integration tests: every rule trips on its trip fixture,
//! stays quiet on the clean and annotated ones, and the CLI mirrors that
//! with its exit codes (0 clean, 1 violations, 2 usage error).

use jarvis_lint::{check_source, lint_paths, Options, Rule, SyntaxFile};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run_rule(rule: Rule, fixture: &str) -> Vec<String> {
    let opts = Options { rules: vec![rule], quick: false };
    let path = fixtures().join(fixture);
    assert!(path.is_file(), "missing fixture {}", path.display());
    lint_paths(&root(), &[path], &opts)
        .expect("lint fixture")
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// (rule, trip, clean, annotated) — one triple per rule.
const CASES: [(Rule, &str, &str, &str); 10] = [
    (
        Rule::NondetIter,
        "nondet_iter/trip.rs",
        "nondet_iter/clean.rs",
        "nondet_iter/annotated.rs",
    ),
    (Rule::WallClock, "wall_clock/trip.rs", "wall_clock/clean.rs", "wall_clock/annotated.rs"),
    (Rule::Panics, "panics/trip.rs", "panics/clean.rs", "panics/annotated.rs"),
    (Rule::Float, "float/trip.rs", "float/clean.rs", "float/annotated.rs"),
    (
        Rule::Hermeticity,
        "hermeticity/trip_manifest.toml",
        "hermeticity/clean_manifest.toml",
        "hermeticity/annotated_manifest.toml",
    ),
    (Rule::Unwind, "unwind/trip.rs", "unwind/clean.rs", "unwind/annotated.rs"),
    (
        Rule::UnsafeAudit,
        "unsafe_audit/trip.rs",
        "unsafe_audit/clean.rs",
        "unsafe_audit/annotated.rs",
    ),
    (
        Rule::AtomicOrdering,
        "atomic_ordering/trip.rs",
        "atomic_ordering/clean.rs",
        "atomic_ordering/annotated.rs",
    ),
    (
        Rule::LockDiscipline,
        "lock_discipline/trip.rs",
        "lock_discipline/clean.rs",
        "lock_discipline/annotated.rs",
    ),
    (
        Rule::ResultDiscard,
        "result_discard/trip.rs",
        "result_discard/clean.rs",
        "result_discard/annotated.rs",
    ),
];

#[test]
fn every_rule_trips_on_its_trip_fixture() {
    for (rule, trip, _, _) in CASES {
        let v = run_rule(rule, trip);
        assert!(!v.is_empty(), "{} did not trip on {trip}", rule.name());
        for line in &v {
            assert!(
                line.contains(&format!(": {}: ", rule.name())),
                "malformed violation line: {line}"
            );
        }
    }
}

#[test]
fn every_rule_passes_clean_and_annotated_fixtures() {
    for (rule, _, clean, annotated) in CASES {
        let v = run_rule(rule, clean);
        assert!(v.is_empty(), "{} tripped on {clean}: {v:?}", rule.name());
        let v = run_rule(rule, annotated);
        assert!(v.is_empty(), "{} tripped on {annotated}: {v:?}", rule.name());
    }
}

#[test]
fn nondeterministic_fold_order_trips_r1() {
    let v = run_rule(Rule::NondetIter, "nondet_iter/fold_trip.rs");
    assert!(!v.is_empty(), "a HashMap-order SPL fold must trip R1");
    assert!(
        v.iter().any(|line| line.contains("support.iter")),
        "the violation should point at the fold's hash-map iteration: {v:?}"
    );
}

/// Beyond a tag on the site's own line or the line directly above, every
/// rule accepts three annotation forms: a tag anywhere in the attached
/// comment/attribute block, a tag in another case, and a tag on a
/// multi-line statement's first line. Each fixture is clean as written and
/// trips once its tags are renamed, so the annotations are load-bearing.
#[test]
fn annotation_forms_attach_and_are_load_bearing() {
    for (rule, fixture, tag) in [
        (Rule::Panics, "annotations/attached_block.rs", "invariant:"),
        (Rule::Float, "annotations/case.rs", "FLOAT-OK:"),
        (Rule::WallClock, "annotations/stmt_first_line.rs", "wall-clock-ok:"),
    ] {
        let v = run_rule(rule, fixture);
        assert!(v.is_empty(), "{} tripped on {fixture}: {v:?}", rule.name());
        let src = std::fs::read_to_string(fixtures().join(fixture))
            .expect("read fixture")
            .replace(tag, "note:");
        let v = check_source(rule, fixture, &SyntaxFile::parse(&src));
        assert!(!v.is_empty(), "{} did not trip on {fixture} without its tags", rule.name());
    }
}

#[test]
fn continual_learning_sources_are_in_lint_scope() {
    use jarvis_lint::rules::in_scope;
    for file in ["crates/runtime/src/online.rs", "crates/runtime/src/policy_store.rs"] {
        assert!(in_scope(Rule::NondetIter, file), "{file} must be under R1");
        assert!(in_scope(Rule::WallClock, file), "{file} must be under R2");
        assert!(in_scope(Rule::Panics, file), "{file} must be under R3");
    }
    assert!(in_scope(Rule::NondetIter, "crates/policy/src/incremental.rs"));
}

/// The R9 trip fixture reproduces the PR-7 pool race shape (condvar notify
/// after the guard drop on a stack job) and must flag exactly that line;
/// the clean fixture ships the fix pattern (notify under the guard) and
/// must stay silent.
#[test]
fn r9_trip_is_the_pr7_race_and_clean_is_the_fix() {
    let v = run_rule(Rule::LockDiscipline, "lock_discipline/trip.rs");
    assert!(
        v.iter()
            .any(|l| l.contains("after the guard was released") && l.contains("notify_all")),
        "the PR-7 notify-after-release shape must trip R9: {v:?}"
    );
    assert!(
        v.iter().any(|l| l.contains("live across blocking")),
        "the guard-across-send shape must trip R9: {v:?}"
    );
    assert!(
        v.iter().any(|l| l.contains("re-locking")),
        "the same-mutex re-lock shape must trip R9: {v:?}"
    );
    let clean = run_rule(Rule::LockDiscipline, "lock_discipline/clean.rs");
    assert!(
        clean.is_empty(),
        "the shipped notify-under-the-guard fix must pass R9: {clean:?}"
    );
}

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_jarvis-lint"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("run jarvis-lint")
}

#[test]
fn cli_trip_fixture_exits_nonzero_with_report() {
    for (rule, trip, _, _) in CASES {
        let path = fixtures().join(trip);
        let out = cli(&["--rule", rule.name(), path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{} on {trip}", rule.name());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!(": {}: ", rule.name())),
            "{} stdout lacks a violation line: {stdout}",
            rule.name()
        );
    }
}

#[test]
fn cli_clean_and_annotated_fixtures_exit_zero() {
    for (rule, _, clean, annotated) in CASES {
        for fixture in [clean, annotated] {
            let path = fixtures().join(fixture);
            let out = cli(&["--rule", rule.name(), path.to_str().unwrap()]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{} on {fixture}: {}",
                rule.name(),
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

#[test]
fn cli_unknown_rule_is_a_usage_error() {
    let out = cli(&["--rule", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_json_output_carries_all_finding_fields() {
    let path = fixtures().join("atomic_ordering/trip.rs");
    let out = cli(&["--json", "--rule", "atomic-ordering", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "trip fixture still exits 1 under --json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "not a JSON array: {stdout}");
    for field in
        ["\"file\":", "\"line\":", "\"rule\": \"atomic-ordering\"", "\"msg\":", "\"annotation\": \"ordering:\""]
    {
        assert!(stdout.contains(field), "JSON output lacks {field}: {stdout}");
    }
}

#[test]
fn cli_json_clean_run_is_an_empty_array() {
    let path = fixtures().join("atomic_ordering/clean.rs");
    let out = cli(&["--json", "--rule", "atomic-ordering", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim().replace(char::is_whitespace, ""), "[]");
}

#[test]
fn cli_timing_prints_a_per_rule_table() {
    let path = fixtures().join("unsafe_audit/clean.rs");
    let out = cli(&["--timing", "--rule", "unsafe-audit", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unsafe-audit") && stderr.contains("ms"), "{stderr}");
}

#[test]
fn cli_budget_exceeded_exits_3() {
    // A zero-millisecond budget cannot be met by any real walk.
    let path = fixtures().join("unsafe_audit/clean.rs");
    let out = cli(&["--budget-ms", "0", "--rule", "unsafe-audit", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BUDGET EXCEEDED"), "{stderr}");
}

#[test]
fn cli_help_documents_exit_codes_and_all_rules() {
    let out = cli(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["exit codes", "0  clean", "1  violations", "2  usage", "3  --budget-ms"] {
        assert!(stderr.contains(needle), "--help lacks {needle:?}: {stderr}");
    }
    for (rule, _, _, _) in CASES {
        assert!(stderr.contains(rule.name()), "--help lacks rule {}", rule.name());
    }
}

//! The workspace walker and rule driver.

use crate::rules::{self, Rule, Violation};
use crate::syntax::SyntaxFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What to lint and how.
#[derive(Debug, Clone)]
pub struct Options {
    /// Rules to run (default: all ten).
    pub rules: Vec<Rule>,
    /// Quick mode: walk only `crates/` plus the root manifest (skips the
    /// repo-root `src/`; rule results are identical today, the quick walk is
    /// just the pre-commit fast path).
    pub quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { rules: Rule::ALL.to_vec(), quick: false }
    }
}

/// A full lint run: the findings plus where the walk spent its time (the
/// verify.sh budget gate and the human `--timing` output both read this).
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All violations, sorted and deduplicated.
    pub violations: Vec<Violation>,
    /// Cumulative per-rule check time across every file, in [`Rule::ALL`]
    /// order (only rules that ran appear).
    pub timings: Vec<(Rule, Duration)>,
    /// Number of files scanned.
    pub files: usize,
}

/// Directory names never descended into: build output, VCS metadata, the
/// lint fixture corpus (which exists to *trip* rules), and test/bench/demo
/// code (every source rule is scoped to shipping, non-test code).
const SKIP_DIRS: [&str; 6] = ["target", ".git", "fixtures", "tests", "benches", "examples"];

/// Lint the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns an error when the tree cannot be read.
pub fn lint_workspace(root: &Path, opts: &Options) -> io::Result<Vec<Violation>> {
    lint_workspace_report(root, opts).map(|r| r.violations)
}

/// [`lint_workspace`] with per-rule timing and file counts.
///
/// # Errors
///
/// Returns an error when the tree cannot be read.
pub fn lint_workspace_report(root: &Path, opts: &Options) -> io::Result<LintReport> {
    let mut files = Vec::new();
    if opts.quick {
        collect(&root.join("crates"), root, &mut files)?;
        let manifest = root.join("Cargo.toml");
        if manifest.is_file() {
            files.push(manifest);
        }
    } else {
        collect(root, root, &mut files)?;
    }
    lint_files(root, &files, opts, false)
}

/// Lint explicit paths (files are linted unconditionally with every
/// requested rule — scope filters apply only to directory walks, so fixture
/// files and one-off checks work: `jarvis-lint --rule panics some/file.rs`).
///
/// # Errors
///
/// Returns an error when a path cannot be read.
pub fn lint_paths(root: &Path, paths: &[PathBuf], opts: &Options) -> io::Result<Vec<Violation>> {
    lint_paths_report(root, paths, opts).map(|r| r.violations)
}

/// [`lint_paths`] with per-rule timing and file counts.
///
/// # Errors
///
/// Returns an error when a path cannot be read.
pub fn lint_paths_report(
    root: &Path,
    paths: &[PathBuf],
    opts: &Options,
) -> io::Result<LintReport> {
    let mut walked = Vec::new();
    let mut explicit = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() { p.clone() } else { root.join(p) };
        if abs.is_dir() {
            collect(&abs, root, &mut walked)?;
        } else {
            explicit.push(abs);
        }
    }
    let mut report = lint_files(root, &walked, opts, false)?;
    let extra = lint_files(root, &explicit, opts, true)?;
    report.violations.extend(extra.violations);
    report.violations.sort();
    report.violations.dedup();
    report.files += extra.files;
    for (rule, d) in extra.timings {
        match report.timings.iter_mut().find(|(r, _)| *r == rule) {
            Some((_, total)) => *total += d,
            None => report.timings.push((rule, d)),
        }
    }
    Ok(report)
}

/// Recursively collect lintable files (`.rs` sources and `Cargo.toml`
/// manifests), sorted for deterministic reports.
fn collect(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect(&path, root, out)?;
        } else {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".rs") || name == "Cargo.toml" {
                out.push(path);
            }
        }
    }
    Ok(())
}

/// Workspace-relative display path with `/` separators.
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Run the requested rules over a file list. With `explicit`, scope filters
/// are bypassed and `.toml` files other than `Cargo.toml` are treated as
/// manifests (fixture support).
fn lint_files(
    root: &Path,
    files: &[PathBuf],
    opts: &Options,
    explicit: bool,
) -> io::Result<LintReport> {
    let mut out = Vec::new();
    let mut timings: Vec<(Rule, Duration)> =
        opts.rules.iter().map(|&r| (r, Duration::ZERO)).collect();
    let mut spent = |rule: Rule, d: Duration| {
        if let Some((_, total)) = timings.iter_mut().find(|(r, _)| *r == rule) {
            *total += d;
        }
    };
    for path in files {
        let rel = rel_display(root, path);
        let is_manifest = rel.ends_with(".toml");
        let text = fs::read_to_string(path)?;
        if is_manifest {
            if opts.rules.contains(&Rule::Hermeticity)
                && (explicit || rules::in_scope(Rule::Hermeticity, &rel))
            {
                // wall-clock-ok: lint self-timing for the verify.sh gate
                let t0 = std::time::Instant::now();
                out.extend(rules::check_manifest(&rel, &text));
                spent(Rule::Hermeticity, t0.elapsed());
            }
            continue;
        }
        // One lex and token-tree pass per file, shared by every source rule.
        let syntax = SyntaxFile::parse(&text);
        for &rule in &opts.rules {
            if rule == Rule::Hermeticity {
                continue;
            }
            if explicit || rules::in_scope(rule, &rel) {
                // wall-clock-ok: lint self-timing for the verify.sh gate
                let t0 = std::time::Instant::now();
                out.extend(rules::check_source(rule, &rel, &syntax));
                spent(rule, t0.elapsed());
            }
        }
    }
    out.sort();
    timings.retain(|(_, d)| !d.is_zero());
    Ok(LintReport { violations: out, timings, files: files.len() })
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_walks_up_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }

    #[test]
    fn rel_display_uses_forward_slashes() {
        let root = Path::new("/a/b");
        assert_eq!(rel_display(root, Path::new("/a/b/c/d.rs")), "c/d.rs");
    }

    #[test]
    fn report_carries_timing_for_rules_that_ran() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let opts = Options { rules: vec![Rule::UnsafeAudit], quick: true };
        let report = lint_workspace_report(&root, &opts).expect("walk");
        assert!(report.files > 0);
        assert!(report.timings.iter().any(|(r, _)| *r == Rule::UnsafeAudit));
    }
}

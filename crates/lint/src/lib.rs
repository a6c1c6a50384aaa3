#![forbid(unsafe_code)]
//! # teccl-lint
//!
//! A workspace-aware static analysis pass for TE-CCL's repo-specific
//! invariants: the concurrency, cancellation and hashing properties that
//! keep the schedule service correct but that no compiler or test
//! machine-checks. Std-only: a lightweight Rust lexer and brace/item
//! scanner (no full parser), a rule engine, `file:line` diagnostics, a JSON
//! report, and `// lint:allow(rule): reason` escapes that themselves
//! require a reason.
//!
//! The rules (see `crates/lint/README.md` for the catalog and history):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `lock-discipline` | no raw `.lock()`/`.wait(g)` in `teccl-service` outside `sync.rs`, nor anywhere in `teccl-lp` |
//! | `lock-order` | the static lock-acquisition graph is acyclic and follows `LockRank` |
//! | `budget-coverage` | every hot solver loop charges/checks the `SolveBudget` |
//! | `panic-hygiene` | no panicking constructs outside the `catch_unwind` boundary |
//! | `hash-stability` | key-derivation code stays deterministic (no `DefaultHasher`, …) |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `no-env-knobs` | solver code reads no environment variable |
//! | `one-reader` | product code decodes JSON from its text, never through `Value::parse` |
//!
//! Run with `cargo run -p teccl-lint --release -- --workspace`.

pub mod allow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use std::path::{Path, PathBuf};

use report::{Finding, Outcome};
use scan::SourceFile;

/// Walks upward from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under `root` (skipping `target`, `.git` and
/// other dot-directories) as `(workspace-relative path, contents)`.
/// Relative paths are `/`-separated regardless of platform, and sorted so
/// runs are deterministic.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = std::fs::read_to_string(&path)?;
                out.push((rel, text));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Runs every rule over in-memory `(relative path, source)` pairs and
/// applies the `lint:allow` escapes. This is the whole pipeline; the CLI
/// only adds file IO around it.
pub fn analyze(sources: &[(String, String)]) -> Outcome {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect();

    let mut raw: Vec<Finding> = rules::run_all(&files);
    // The escapes themselves are linted; meta-findings are unsuppressible.
    let per_file_allows: Vec<(usize, Vec<allow::Allow>)> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (i, allow::collect_allows(f)))
        .collect();
    for (i, allows) in &per_file_allows {
        raw.extend(allow::validate_allows(
            &files[*i],
            allows,
            rules::RULE_NAMES,
        ));
    }

    let mut outcome = Outcome {
        files_scanned: files.len(),
        ..Outcome::default()
    };
    for mut finding in raw {
        let allows = files
            .iter()
            .position(|f| f.rel == finding.file)
            .and_then(|i| per_file_allows.iter().find(|(j, _)| *j == i))
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[]);
        match allow::suppressing(allows, &finding) {
            Some(a) => {
                finding.allowed = Some(a.reason.clone());
                outcome.allowed.push(finding);
            }
            None => outcome.errors.push(finding),
        }
    }
    // Deterministic output: sort by file, line, rule.
    let sort_key = |f: &Finding| (f.file.clone(), f.line, f.rule);
    outcome.errors.sort_by_key(sort_key);
    outcome.allowed.sort_by_key(sort_key);
    outcome
}

/// Convenience for tests: analyze a set of snippets.
pub fn analyze_snippets(snippets: &[(&str, &str)]) -> Outcome {
    let owned: Vec<(String, String)> = snippets
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze(&owned)
}

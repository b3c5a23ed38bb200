//! `cargo xtask lint-sync`: the static wall in front of the model checker.
//!
//! The bounded model checker (`oneperc-verify`) can only explore
//! synchronization it can see — an operation that reaches `std::sync`
//! directly bypasses the scheduler and silently shrinks the verified
//! surface. This pass keeps that surface closed:
//!
//! * In the **façade crates** (`percolation`, `oneperc` — crates with a
//!   `src/sync.rs`), production code must import `Mutex`, `Condvar`,
//!   `thread`, `mpsc` and `atomic` from `crate::sync`, never from `std`.
//! * In **every other workspace crate**, introducing `std::sync::Mutex`,
//!   `std::sync::Condvar` or `std::thread` at all is rejected — new
//!   synchronization belongs behind a façade so it stays model-checkable.
//! * `.lock().unwrap()` is rejected everywhere in production code: the
//!   workspace idiom is `unwrap_or_else(PoisonError::into_inner)` where
//!   poisoning is recoverable, or `.expect("…invariant…")` where it is a
//!   bug — a bare `unwrap` documents neither.
//!
//! Test modules are out of scope (they may use raw `std` freely: they run
//! only under the real scheduler). The scan relies on the repo convention
//! that `#[cfg(test)]` / `#[cfg(all(test, …))]` modules are the tail of a
//! file: scanning stops at the first such attribute. Doc comments and `//`
//! comments are skipped, and a line carrying `lint-sync: allow` is exempt
//! (use sparingly, with a reason on the same line).

use std::path::Path;
use std::process::ExitCode;

use crate::{rust_sources, Finding};

/// Crates whose production code is scanned, and whether they carry a
/// `crate::sync` façade (which tightens the rule set).
const CRATES: &[(&str, bool)] = &[
    ("circuit", false),
    ("corpus", false),
    ("graphstate", false),
    ("hardware", false),
    ("ir", false),
    ("mapper", false),
    ("oneperc", true),
    ("oneq", false),
    ("percolation", true),
];

// Not scanned: `verify` (the shim itself — the one place raw `std::sync`
// is the point), `bench` (perf harness; never runs under the model),
// `shims` (vendored stand-ins for crates.io deps), `xtask` (this tool).

pub(crate) fn run(root: &Path) -> ExitCode {
    // A stale entry would scan nothing and still pass: refuse it instead.
    let missing = missing_crates(root);
    if !missing.is_empty() {
        for krate in &missing {
            eprintln!(
                "lint-sync: `{krate}` is listed in CRATES but crates/{krate}/src is not a directory"
            );
        }
        return ExitCode::FAILURE;
    }

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for &(krate, has_facade) in CRATES {
        let src = root.join("crates").join(krate).join("src");
        for file in rust_sources(&src) {
            // The façade itself is where the std names are re-exported.
            if has_facade && file.ends_with("sync.rs") && file.parent() == Some(src.as_path()) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else { continue };
            scanned += 1;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            scan_file(&rel, &text, has_facade, &mut findings);
        }
    }

    if findings.is_empty() {
        println!("lint-sync: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            eprintln!("{finding}");
        }
        eprintln!(
            "lint-sync: {} violation(s) in {scanned} scanned files \
             (see CONCURRENCY.md for the routing rules)",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// The `CRATES` entries with no `src` directory under `root`.
fn missing_crates(root: &Path) -> Vec<&'static str> {
    CRATES
        .iter()
        .map(|&(krate, _)| krate)
        .filter(|krate| !root.join("crates").join(krate).join("src").is_dir())
        .collect()
}

fn scan_file(rel: &Path, text: &str, has_facade: bool, findings: &mut Vec<Finding>) {
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_start();
        // Test modules are the tail of a file by repo convention; raw std
        // primitives are fine there (tests run under the real scheduler).
        if line.starts_with("#[cfg(test)]") || line.starts_with("#[cfg(all(test") {
            break;
        }
        if line.starts_with("//") || line.contains("lint-sync: allow") {
            continue;
        }
        let lineno = idx + 1;
        let mut report = |message: String| {
            findings.push(Finding { file: rel.to_path_buf(), line: lineno, message });
        };

        if line.contains(".lock().unwrap()") {
            report(
                "`.lock().unwrap()`: recover poisoning with \
                 `unwrap_or_else(PoisonError::into_inner)` or state the invariant \
                 with `.expect(\"…\")`"
                    .into(),
            );
        }

        if has_facade {
            // Façade crates: every schedulable primitive must route through
            // `crate::sync` so the model checker sees it.
            for primitive in ["Mutex", "Condvar", "mpsc", "atomic"] {
                if mentions_std_sync_item(line, primitive) {
                    report(format!(
                        "raw `std::sync::{primitive}`: import it from `crate::sync` so \
                         `--cfg oneperc_model` builds route it through the model scheduler"
                    ));
                }
            }
            if line.contains("std::thread") {
                report(
                    "raw `std::thread`: use `crate::sync::thread` so spawn/join/park \
                     are visible to the model scheduler"
                        .into(),
                );
            }
        } else {
            // Crates without a façade must not grow ad-hoc synchronization:
            // a new concurrent subsystem starts by adding a façade.
            for primitive in ["Mutex", "Condvar"] {
                if mentions_std_sync_item(line, primitive) {
                    report(format!(
                        "`std::sync::{primitive}` in a crate without a `sync` façade: \
                         add one (see percolation/src/sync.rs) so the code stays \
                         model-checkable"
                    ));
                }
            }
            if line.contains("std::thread") {
                report(
                    "`std::thread` in a crate without a `sync` façade: add one \
                     (see percolation/src/sync.rs) so the code stays model-checkable"
                        .into(),
                );
            }
        }
    }
}

/// Whether `line` references `item` out of `std::sync` — either as an
/// inline path (`std::sync::Mutex<T>`) or inside a grouped import
/// (`use std::sync::{Arc, Mutex}`).
fn mentions_std_sync_item(line: &str, item: &str) -> bool {
    if line.contains(&format!("std::sync::{item}")) {
        return true;
    }
    if let Some(rest) = line.split("std::sync::{").nth(1) {
        let group = rest.split('}').next().unwrap_or(rest);
        return group
            .split(',')
            .any(|entry| entry.split_whitespace().next() == Some(item));
    }
    false
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::{mentions_std_sync_item, missing_crates, CRATES};

    #[test]
    fn every_listed_crate_has_sources() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(missing_crates(&root), Vec::<&str>::new());
        // An empty tree lists every entry as missing.
        let nowhere = root.join("crates/xtask/no-such-workspace");
        assert_eq!(missing_crates(&nowhere).len(), CRATES.len());
    }

    #[test]
    fn inline_path_is_detected() {
        assert!(mentions_std_sync_item("let m: std::sync::Mutex<u8> = x;", "Mutex"));
        assert!(!mentions_std_sync_item("let m: std::sync::Arc<u8> = x;", "Mutex"));
    }

    #[test]
    fn grouped_import_is_detected() {
        assert!(mentions_std_sync_item("use std::sync::{Arc, Mutex};", "Mutex"));
        assert!(mentions_std_sync_item("use std::sync::{Condvar, Arc};", "Condvar"));
        assert!(!mentions_std_sync_item("use std::sync::{Arc, OnceLock};", "Mutex"));
    }

    #[test]
    fn renamed_import_is_detected() {
        assert!(mentions_std_sync_item("use std::sync::{Mutex as StdMutex};", "Mutex"));
    }
}

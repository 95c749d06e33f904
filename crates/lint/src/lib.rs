//! syd-lint: workspace-aware protocol & concurrency static analyzer.
//!
//! A purpose-built companion to `syd-check` (dynamic invariants) and
//! `syd-model` (exhaustive protocol exploration): this crate analyzes the
//! *source* of the workspace and enforces the concurrency and protocol
//! discipline the SyD kernel depends on, with `file:line` diagnostics:
//!
//! * **lock-order** — nested `Mutex`/`RwLock` acquisitions must respect
//!   the declared hierarchy (store < engine < node < transport) and the
//!   global acquisition graph must stay acyclic; reacquiring a held
//!   `std::sync` lock is a self-deadlock.
//! * **guard-across-rpc** — no lock guard may be live across an
//!   `invoke*` / transport-send call.
//! * **no-blocking-in-poll-loop** — no `thread::sleep`, blocking `recv`
//!   or blocking socket ops inside the transport poll loop / runtime loop.
//! * **counter-registry** — metric names must be constants from
//!   `syd_telemetry::names`, and registered names must have call sites.
//! * **coordination-boundary** — §4.3 mark/lock/negotiation entry points
//!   are only reachable from the negotiation core.
//!
//! On top of the per-file walk sits an *interprocedural* layer (DESIGN.md
//! §15): a workspace call graph ([`callgraph`]) plus per-function effect
//! summaries ([`effects`]) propagated to fixpoint, powering:
//!
//! * **transitive-blocking** — a poll loop blocks through helpers.
//! * interprocedural **guard-across-rpc** / **lock-order** — guards held
//!   across helpers that transitively RPC or acquire locks.
//! * **strong-capture-cycle** — closures registered on the shared runtime
//!   loop / worker pool capturing strong `Arc`s of runtime-owning types.
//! * **stale-suppression** — expired or no-longer-matching `[[allow]]`s.
//!
//! The analyzer is deliberately dependency-free: a hand-rolled lexer and
//! a brace-structure scope walker over the token stream, not a full
//! parser. That keeps it honest (fast, no build-graph coupling) at the
//! cost of a documented, config-suppressesable false-positive surface —
//! see `lint.toml` and DESIGN.md §12 / §15.

pub mod callgraph;
pub mod config;
pub mod effects;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod walker;

use config::Config;
use report::Report;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Parses the given files and runs every rule.
///
/// `workspace_mode` additionally enables whole-workspace checks
/// (orphaned metric constants) that need the complete file set.
pub fn analyze(files: &[(String, String)], config: &Config, workspace_mode: bool) -> Report {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();
    rules::run_all(&parsed, config, workspace_mode)
}

/// Collects every workspace `.rs` file under `root`, skipping build
/// output, VCS metadata, the lint fixture corpus (which violates the
/// rules on purpose) and any nested cargo workspace (`benchmark/` is one:
/// other code, not held to this workspace's `lint.toml`). Paths come back
/// workspace-relative, `/`-separated, sorted.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target"
                    || name.starts_with('.')
                    || name == "fixtures"
                    || declares_workspace(&path)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                let src = std::fs::read_to_string(&path)?;
                out.push((rel, src));
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if declares_workspace(&dir) {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

/// True when `dir` holds a `Cargo.toml` with a `[workspace]` table.
fn declares_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn analyze_clean_snippet() {
        let files = vec![(
            "crates/x/src/a.rs".to_string(),
            "struct S { state: Mutex<u8> } fn f(&self) { let g = self.state.lock(); }".to_string(),
        )];
        let report = analyze(&files, &Config::default(), false);
        assert!(report.clean(), "{}", report.render_text());
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn the_walk_stops_at_a_nested_workspace() {
        let root = std::env::temp_dir().join(format!("syd-lint-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (file, text) in [
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
            ("crates/a/src/lib.rs", "fn a() {}"),
            (
                "nested/Cargo.toml",
                "[workspace]\n[package]\nname = \"n\"\n",
            ),
            ("nested/src/main.rs", "fn main() {}"),
            ("nested/shims/x/src/lib.rs", "fn x() {}"),
        ] {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        }
        let files = workspace_files(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let paths: Vec<&str> = files.iter().map(|(path, _)| path.as_str()).collect();
        assert_eq!(paths, ["crates/a/src/lib.rs"]);
    }

    #[test]
    fn analyze_flags_reentrancy() {
        let files = vec![(
            "crates/x/src/a.rs".to_string(),
            "struct S { state: Mutex<u8> } \
             fn f(&self) { let g = self.state.lock(); let h = self.state.lock(); }"
                .to_string(),
        )];
        let report = analyze(&files, &Config::default(), false);
        assert_eq!(report.diagnostics.len(), 1, "{}", report.render_text());
        assert_eq!(report.diagnostics[0].rule.name(), "lock-order");
    }
}

//! semloc-lint, run over the repository with the benchmark's sources
//! added, reports nothing.

use std::path::{Path, PathBuf};

use semloc_lint::{lint, load_workspace, FileKind, SourceFile};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("benchmark directory reads")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn benchmark_sources_have_zero_findings() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .parent()
        .expect("the benchmark sits under the repository root");
    let mut ws = load_workspace(root).expect("workspace loads");
    let before = ws.files.len();
    let mut paths = Vec::new();
    rs_files(&here.join("src"), &mut paths);
    rs_files(&here.join("tests"), &mut paths);
    for p in paths {
        let rel = p.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let kind = if rel.ends_with("/src/main.rs") {
            FileKind::Bin
        } else if rel.contains("/tests/") {
            FileKind::TestsDir
        } else {
            FileKind::LibSrc
        };
        ws.files.push(SourceFile {
            rel_path: rel,
            crate_dir: None,
            kind,
            content: std::fs::read_to_string(&p).expect("source reads"),
        });
    }
    assert!(ws.files.len() > before + 5, "benchmark sources were added");
    let report = lint(&ws);
    assert!(
        report.findings.is_empty(),
        "semloc-lint found {} violation(s):\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

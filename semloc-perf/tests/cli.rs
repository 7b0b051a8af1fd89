//! The command's contract: its last line is one JSON object whose metric
//! names are exactly those `BENCHMARK.json` declares, every emitted name
//! is in the metric alphabet, and a refused environment exits non-zero
//! without a result.

use std::process::Command;

use semloc_perf::names::is_valid;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every `"name": "<x>"` inside the array that follows `"<section>":`.
fn declared(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} missing"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted")].to_string())
        .collect()
}

/// The metric keys of the result line, in order.
fn emitted(line: &str) -> Vec<String> {
    let chunks: Vec<&str> = line.split("\": {\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .filter_map(|chunk| chunk.rsplit_once('"').map(|(_, k)| k.to_string()))
        .collect()
}

fn run(workload: &str, trace: &str) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_semloc-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .env_remove("SEMLOC_CKPT_DIR")
        .env_remove("SEMLOC_TRACE_DIR")
        .env_remove("SEMLOC_DECODE_CACHE_MB")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    (
        out.status.success(),
        stdout,
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    let json = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&json, section);
        assert!(!want.is_empty());
        let (ok, stdout, stderr) = run("mc-shared", trace);
        assert!(ok, "run failed:\n{stdout}\n{stderr}");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        assert_eq!(emitted(last), want, "--trace {trace} metric names");
        // Every name in the human report is in the alphabet too.
        for line in stdout.lines().filter(|l| l.starts_with("  ")) {
            let name = line.split_whitespace().next().expect("non-empty line");
            if name.contains('.') || name.contains('_') && !name.ends_with(':') {
                assert!(is_valid(name), "emitted name {name:?}");
            }
        }
    }
}

#[test]
fn declared_names_are_in_the_alphabet() {
    let json = benchmark_json();
    for section in ["end_to_end", "per_layer"] {
        for name in declared(&json, section) {
            assert!(is_valid(&name), "{section} name {name:?}");
        }
    }
}

#[test]
fn knobs_that_change_what_is_timed_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_semloc-perf"))
        .args([
            "--workload",
            "arena",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SEMLOC_DECODE_CACHE_MB", "0")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
}

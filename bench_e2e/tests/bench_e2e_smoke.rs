//! Every workload at `--scale smoke`: each metric `BENCHMARK.json`
//! names is printed with its unit, the last line is the result object,
//! and every correctness check holds. A damaged warm-store artifact
//! must fail the run.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = [
    "protect_cold",
    "protect_warm",
    "campaign_ladder",
    "serve_mixed",
];

/// A scratch working directory for one benchmark invocation.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ipas-bench-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let scratch = Scratch::new(&format!("{workload}-{trace}"));
    Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seed", "2016", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "smoke"])
        .args(extra)
        .current_dir(&scratch.0)
        .output()
        .expect("bench_e2e runs")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file lists `workloads`, `end_to_end` and `per_layer` in that
/// order, and every metric object starts with its name and unit.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = match body[1..].find("\"per_layer\"") {
        Some(end) if section != "per_layer" => &body[..end],
        _ => body,
    };
    let quoted = |s: &str, key: &str| -> Option<String> {
        let rest = &s[s.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((quoted(obj, "name")?, quoted(obj, "unit")?)))
        .collect()
}

fn assert_reports(workload: &str, trace: &str, section: &str) {
    let out = bench(workload, trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{stderr}"
    );
    let expected = metrics(section);
    assert!(
        !expected.is_empty(),
        "no {section} metrics in BENCHMARK.json"
    );
    for (name, unit) in &expected {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{workload} {name} ")))
            .unwrap_or_else(|| panic!("{workload}: {name} not printed:\n{stdout}"));
        assert!(
            line.contains(&format!(" {unit} n=")),
            "{workload}: {name} not in {unit}: {line}"
        );
    }
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    for (name, unit) in &expected {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from the result object"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert!(!stderr.contains("CHECK FAILED"), "{stderr}");
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in WORKLOADS {
        assert_reports(workload, "0", "end_to_end");
        assert_reports(workload, "1", "per_layer");
    }
}

#[test]
fn a_damaged_warm_store_fails_the_run() {
    let out = bench("protect_warm", "0", &["--corrupt-store"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "damage went unnoticed:\n{stderr}");
    assert!(
        stderr.contains("CHECK FAILED: warm replay performs 0 injections and 0 fits"),
        "{stderr}"
    );
}

#[test]
fn bad_arguments_are_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("bench_e2e runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

//! Campaign throughput of the interpreter, emitting `BENCH_interp.json`.
//!
//! Every row is one single-threaded fault-injection campaign (seed
//! 2016) on one of the five SciL kernels, timed over repetitions:
//!
//! * `<kernel> <input> reference` and `<kernel> <input> compiled`: the
//!   same campaign at the kernel's base input on the tree-walking
//!   reference engine and on the compiled engine, which must produce
//!   the same records;
//! * `<kernel> <input> ladder cold` and `<kernel> <input> ladder
//!   reused`: the compiled engine at ladder input 3 (the inputs of
//!   `bench_e2e`'s `campaign_ladder` workload), with enough runs to
//!   simulate 750,000 golden-run instructions per base-input run
//!   (1.5·10⁸ at the default size, as `campaign_ladder` does).
//!
//! A workload keeps its ladder from its second campaign on, so the
//! reused row runs two untimed campaigns on its workload first and
//! every timed one reuses that ladder. Every other row rebuilds its
//! workload (untimed) before each repetition, so each timed campaign
//! captures its own, as the one campaign on a fresh workload does.
//!
//! Per row it reports the runs, the nominal instructions, a SHA-256
//! digest of the campaign's journal record lines, the median and
//! quartiles of the campaign time, and three counts of the campaign's
//! golden-state checkpoint ladder: its snapshots, its bytes, and the
//! instructions the runs executed as a share of nominal (the records'
//! instructions less the prefix and suffix the ladder skipped, over
//! runs × nominal). Per kernel, `speedup` is the reference median over
//! the compiled median.
//!
//! ```text
//! cargo run --release -p ipas-bench --bin bench_interp [-- out.json]
//! cargo run --release -p ipas-bench --bin bench_interp -- --compare BASELINE_BIN [out.json]
//! ```
//!
//! With `--compare`, the harness measures nothing itself: it runs
//! `BASELINE_BIN` (this harness built from another revision) and its own
//! executable alternately, 3 repetitions per run, and reports both sides
//! per row, the baseline/candidate ratio of the medians, the pairs in
//! which the candidate was faster (`wins` of `pairs`), each build's
//! ladder counts, and whether every run of both builds produced the
//! same records (`identical`). This file and the crate's `src/lib.rs`
//! use only APIs the previous revision has, so copied into an export of
//! it they build there.
//!
//! Environment:
//! * `IPAS_BENCH_RUNS` — runs per base-input campaign (default 200).
//! * `IPAS_BENCH_REPS` — timed repetitions per row (default 5), or
//!   alternating pairs with `--compare` (default 7).
//! * output path defaults to `BENCH_interp.json` in the current
//!   directory; pass a path argument to override.

use std::fmt::Write as _;
use std::time::Instant;

use ipas_bench::{bench_reps, compare_runs, quartiles};
use ipas_faultsim::{
    outcome_line, run_campaign, CampaignConfig, CampaignResult, Engine, PlanOutcome, Workload,
};
use ipas_store::hash::{hex, Sha256};
use ipas_workloads::Kind;

const SEED: u64 = 2016;
/// Golden-run instructions a ladder campaign simulates per base-input
/// run.
const LADDER_INSTS_PER_RUN: u64 = 750_000;
/// Repetitions per run with `--compare`.
const COMPARE_REPS: usize = 3;
/// A row's stdout line, read by `--compare`, has these tab-separated
/// fields: name, runs, nominal instructions, digest, seconds, and the
/// ladder's snapshots, bytes and executed share.
const LINE_FIELDS: usize = 8;
/// Where the time and the per-build ladder counts sit in that line.
const SECONDS: usize = 4;
const PER_BUILD: [usize; 3] = [5, 6, 7];

/// One measured campaign.
struct Row {
    name: String,
    kind: Kind,
    input: i64,
    workload: Workload,
    engine: Engine,
    runs: usize,
    /// Whether the timed campaigns reuse the workload's kept ladder
    /// instead of running on a rebuilt workload.
    reused: bool,
}

/// What one campaign produced, the time aside: the same on every
/// repetition.
#[derive(Clone, PartialEq, Debug)]
struct Shape {
    digest: String,
    snapshots: usize,
    ladder_bytes: usize,
    executed_share: f64,
}

impl Shape {
    fn of(result: &CampaignResult, runs: usize) -> Self {
        let mut digest = Sha256::new();
        for (plan, record) in result.records.iter().enumerate() {
            let line = outcome_line(plan, &PlanOutcome::Record(*record), None);
            digest.update(line.as_bytes());
        }
        digest.update(&(result.harness_failures.len() as u64).to_le_bytes());
        let insts: u64 = result.records.iter().map(|r| r.dynamic_insts).sum();
        let c = &result.checkpoints;
        let executed = insts - c.prefix_skipped_insts - c.suffix_skipped_insts;
        Shape {
            digest: hex(&digest.finish()[..8]),
            snapshots: c.snapshots,
            ladder_bytes: c.snapshot_bytes,
            executed_share: executed as f64 / (runs as f64 * result.nominal_insts as f64),
        }
    }
}

/// The rows: per kernel the base-input pair, then the ladder rows.
fn rows(base_runs: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in Kind::ALL {
        let input = kind.base_input();
        for engine in [Engine::Reference, Engine::Compiled] {
            rows.push(Row {
                name: format!("{} {input} {engine}", kind.name()),
                kind,
                input,
                workload: kind.build(input).expect("workload builds"),
                engine,
                runs: base_runs,
                reused: false,
            });
        }
    }
    for kind in Kind::ALL {
        let input = kind.input_ladder()[2];
        for reused in [false, true] {
            let workload = kind.build(input).expect("workload builds");
            let budget = base_runs as u64 * LADDER_INSTS_PER_RUN;
            let row = Row {
                name: format!(
                    "{} {input} ladder {}",
                    kind.name(),
                    if reused { "reused" } else { "cold" }
                ),
                kind,
                input,
                runs: (budget.div_ceil(workload.nominal_insts.max(1)) as usize).max(8),
                workload,
                engine: Engine::Compiled,
                reused,
            };
            if reused {
                // The second campaign's engine is the one the workload
                // keeps for the timed ones.
                campaign(&row);
                campaign(&row);
            }
            rows.push(row);
        }
    }
    rows
}

fn campaign(row: &Row) -> (CampaignResult, f64) {
    let config = CampaignConfig {
        runs: row.runs,
        seed: SEED,
        threads: 1,
        engine: row.engine,
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let result = run_campaign(&row.workload, &config).expect("campaign completes");
    (result, start.elapsed().as_secs_f64())
}

fn header(json: &mut String, base_runs: usize, reps: &str) {
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"interp-engine-campaign-throughput\","
    );
    let _ = writeln!(json, "  \"runs_per_engine\": {base_runs},");
    let _ = writeln!(
        json,
        "  \"ladder_golden_insts\": {},",
        base_runs as u64 * LADDER_INSTS_PER_RUN
    );
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  {reps},");
}

/// The report body: per kernel the base-input rows (`workloads`, with
/// the speedup), then the cold and reused ladder rows (`ladder`).
/// `rows` holds, per measured row in [`rows`] order, its identity
/// fields and its timed object as JSON; `medians` the times the
/// speedup divides.
fn body(json: &mut String, rows: &[(String, String)], medians: &[f64]) {
    let kernels = Kind::ALL.len();
    json.push_str("  \"workloads\": [\n");
    let mut log_speedup = 0.0;
    for k in 0..kernels {
        let (reference, compiled) = (&rows[2 * k], &rows[2 * k + 1]);
        let speedup = medians[2 * k] / medians[2 * k + 1];
        log_speedup += speedup.ln();
        let _ = writeln!(
            json,
            "    {{{}, \"reference\": {}, \"compiled\": {}, \"speedup\": {speedup:.3}}}{}",
            reference.0,
            reference.1,
            compiled.1,
            if k + 1 < kernels { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let geomean = (log_speedup / kernels as f64).exp();
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean:.3},");
    json.push_str("  \"ladder\": [\n");
    for k in 0..kernels {
        let (cold, reused) = (&rows[2 * kernels + 2 * k], &rows[2 * kernels + 2 * k + 1]);
        let _ = writeln!(
            json,
            "    {{{}, \"cold\": {}, \"reused\": {}}}{}",
            cold.0,
            cold.1,
            reused.1,
            if k + 1 < kernels { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
}

/// A row's identity as JSON fields, from its line's first four: the
/// kernel and input (of its name), runs, nominal instructions and
/// records digest.
fn identity(fields: &[String]) -> String {
    let [name, runs, nominal, digest, ..] = fields else {
        panic!("malformed harness line {fields:?}");
    };
    let mut words = name.split(' ');
    let (kernel, input) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
    format!(
        "\"name\": \"{kernel}\", \"input\": {input}, \"runs\": {runs}, \
         \"nominal_insts\": {nominal}, \"digest\": \"{digest}\""
    )
}

fn counts_json(snapshots: &str, bytes: &str, share: &str) -> String {
    format!("\"snapshots\": {snapshots}, \"ladder_bytes\": {bytes}, \"executed_share\": {share}")
}

fn quartiles_json([m, q1, q3]: [f64; 3]) -> String {
    format!("\"median_s\": {m:.4}, \"q1_s\": {q1:.4}, \"q3_s\": {q3:.4}")
}

/// Measures this build: `reps` repetitions of every row.
fn measure(out_path: &str, base_runs: usize, reps: usize) {
    let mut rows = rows(base_runs);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut shapes: Vec<Option<Shape>> = vec![None; rows.len()];
    for rep in 0..reps {
        eprintln!("[bench_interp] repetition {} of {reps}", rep + 1);
        for (i, row) in rows.iter_mut().enumerate() {
            if !row.reused {
                row.workload = row.kind.build(row.input).expect("workload builds");
            }
            let (result, seconds) = campaign(row);
            times[i].push(seconds);
            let shape = Shape::of(&result, row.runs);
            let first = shapes[i].get_or_insert_with(|| shape.clone());
            assert_eq!(
                *first, shape,
                "{}: campaigns are not deterministic",
                row.name
            );
        }
    }
    let shapes: Vec<Shape> = shapes.into_iter().flatten().collect();
    for k in 0..Kind::ALL.len() {
        assert_eq!(
            shapes[2 * k].digest,
            shapes[2 * k + 1].digest,
            "{}: engines diverged, the benchmark numbers would be meaningless",
            rows[2 * k].name
        );
    }

    let mut report = Vec::new();
    let mut medians = Vec::new();
    for ((row, shape), times) in rows.iter().zip(&shapes).zip(&times) {
        let stats = quartiles(times);
        medians.push(stats[0]);
        let share = format!("{:.4}", shape.executed_share);
        let fields = [
            row.name.clone(),
            row.runs.to_string(),
            row.workload.nominal_insts.to_string(),
            shape.digest.clone(),
            stats[0].to_string(),
            shape.snapshots.to_string(),
            shape.ladder_bytes.to_string(),
            share.clone(),
        ];
        // One tab-separated line per row on stdout, read by `--compare`.
        println!("{}", fields.join("\t"));
        report.push((
            identity(&fields),
            format!(
                "{{{}, {}}}",
                quartiles_json(stats),
                counts_json(&fields[5], &fields[6], &share)
            ),
        ));
    }
    let mut json = String::new();
    header(&mut json, base_runs, &format!("\"reps\": {reps}"));
    body(&mut json, &report, &medians);
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_interp] wrote {out_path}");
}

/// Alternates runs of `baseline` and this executable, `pairs` pairs.
fn compare(baseline: &str, out_path: &str, base_runs: usize, pairs: usize) {
    let rows = compare_runs(
        "bench_interp",
        baseline,
        pairs,
        COMPARE_REPS,
        SECONDS,
        &PER_BUILD,
    );
    let mut report = Vec::new();
    let mut medians = Vec::new();
    println!(
        "{:<24} {:>22} {:>22} {:>7}  ladder counts (baseline -> candidate)",
        "row", "baseline s", "candidate s", "ratio"
    );
    for row in &rows {
        let [base, cand] = &row.fields;
        assert_eq!(base.len(), LINE_FIELDS, "malformed harness line {base:?}");
        assert_eq!(cand.len(), LINE_FIELDS, "malformed harness line {cand:?}");
        let side = |fields: &[String], stats: [f64; 3]| {
            format!(
                "{{{}, {}}}",
                quartiles_json(stats),
                counts_json(&fields[5], &fields[6], &fields[7])
            )
        };
        let ratio = row.stats[0][0] / row.stats[1][0];
        medians.push(row.stats[1][0]);
        report.push((
            identity(cand),
            format!(
                "{{\"baseline\": {}, \"candidate\": {}, \"ratio\": {ratio:.3}, \
                 \"wins\": {}, \"pairs\": {}, \"identical\": {}}}",
                side(base, row.stats[0]),
                side(cand, row.stats[1]),
                row.wins,
                row.pairs,
                row.identical
            ),
        ));
        let q = |[m, q1, q3]: [f64; 3]| format!("{m:.3} [{q1:.3}, {q3:.3}]");
        println!(
            "{:<24} {:>22} {:>22} {ratio:>6.2}x  faster in {} of {}, snapshots {} -> {}, \
             bytes {} -> {}, executed {} -> {}, identical {}",
            cand[0],
            q(row.stats[0]),
            q(row.stats[1]),
            row.wins,
            row.pairs,
            base[5],
            cand[5],
            base[6],
            cand[6],
            base[7],
            cand[7],
            row.identical
        );
    }
    let mut json = String::new();
    header(
        &mut json,
        base_runs,
        &format!("\"pairs\": {pairs}, \"reps_per_run\": {COMPARE_REPS}"),
    );
    body(&mut json, &report, &medians);
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_interp] wrote {out_path}");
    assert!(
        rows.iter().all(|r| r.identical),
        "the two builds produced different records"
    );
}

fn main() {
    let base_runs: usize = std::env::var("IPAS_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, baseline, rest @ ..] if flag == "--compare" && rest.len() <= 1 => {
            let out = rest.first().map_or("BENCH_interp.json", String::as_str);
            compare(baseline, out, base_runs, bench_reps(7));
        }
        [] => measure("BENCH_interp.json", base_runs, bench_reps(5)),
        [out] if !out.starts_with("--") => measure(out, base_runs, bench_reps(5)),
        _ => {
            eprintln!(
                "usage: bench_interp [out.json] | bench_interp --compare BASELINE_BIN [out.json]"
            );
            std::process::exit(2);
        }
    }
}

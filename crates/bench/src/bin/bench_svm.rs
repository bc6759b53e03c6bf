//! Grid-search training time on the protect requests' training sets,
//! emitting `BENCH_svm.json`.
//!
//! IPAS trains on one row per injection run, and a row is the injected
//! instruction's static features, so rows repeat. This harness times
//! `train_top_configs` (the protect requests' grid: 6 `C` × 6 `γ` × 3
//! folds, top 2) on:
//!
//! * the training sets of the five protect request types (CoMD 3,
//!   HPCCG 6, FFT 16, IS 1024, IS 2048), labelled both ways, from one
//!   fixed-seed campaign per training size (default 200 and 800 runs);
//! * one synthetic set of all-distinct rows as large as the smallest
//!   training size, the control without repeated rows.
//!
//! Per set it reports the samples `n`, the distinct rows and the error
//! classes (distinct (row, label) pairs) of the standardized features,
//! the median and quartiles of the time over the repetitions, and an
//! FNV-1a digest over the bits of every exported model field.
//!
//! ```text
//! cargo run --release -p ipas-bench --bin bench_svm [-- out.json]
//! cargo run --release -p ipas-bench --bin bench_svm -- --compare BASELINE_BIN [out.json]
//! ```
//!
//! With `--compare`, the harness measures nothing itself: it runs
//! `BASELINE_BIN` (this harness built from another revision) and its own
//! executable alternately, one repetition per run, and reports both
//! sides per set, the baseline/candidate ratio of the medians, the pairs
//! in which the candidate was faster (`wins` of `pairs`), and whether
//! every run of both sides trained bit-identical models.
//!
//! Environment:
//! * `IPAS_BENCH_RUNS` — training-campaign sizes, comma-separated
//!   (default `200,800`).
//! * `IPAS_BENCH_REPS` — timed repetitions per set, or alternating pairs
//!   with `--compare` (default 5).
//! * output path defaults to `BENCH_svm.json` in the current directory;
//!   pass a path argument to override.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ipas_bench::{bench_reps, compare_runs, quartiles};
use ipas_core::{
    dataset_from_artifact, train_top_configs, training_set_artifact, LabelKind, TrainedClassifier,
};
use ipas_faultsim::{run_campaign, CampaignConfig};
use ipas_svm::{Dataset, GridOptions, Scaler};
use ipas_workloads::Kind;

const SEED: u64 = 2016;
const TOP_N: usize = 2;
const FEATURES: usize = 31;

/// The (kernel, input) pairs of the protect requests.
const REQUEST_TYPES: [(Kind, i64); 5] = [
    (Kind::Comd, 3),
    (Kind::Hpccg, 6),
    (Kind::Fft, 16),
    (Kind::Is, 1024),
    (Kind::Is, 2048),
];

fn grid() -> GridOptions {
    GridOptions {
        num_c: 6,
        num_gamma: 6,
        folds: 3,
        ..GridOptions::default()
    }
}

struct Set {
    name: String,
    runs: usize,
    data: Dataset,
}

/// Per-set facts shared by both report shapes.
struct Shape {
    n: usize,
    distinct_rows: usize,
    error_classes: usize,
}

impl Shape {
    fn of(data: &Dataset) -> Self {
        let scaled = Scaler::fit(data).transform(data);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let rows: HashSet<Vec<u64>> = scaled.features().iter().map(|r| bits(r)).collect();
        let classes: HashSet<(Vec<u64>, bool)> = scaled
            .features()
            .iter()
            .zip(scaled.labels())
            .map(|(r, &y)| (bits(r), y))
            .collect();
        Shape {
            n: data.len(),
            distinct_rows: rows.len(),
            error_classes: classes.len(),
        }
    }

    fn json(&self) -> String {
        format!(
            "\"n\": {}, \"distinct_rows\": {}, \"error_classes\": {}",
            self.n, self.distinct_rows, self.error_classes
        )
    }
}

fn training_sets(sizes: &[usize]) -> Vec<Set> {
    let mut sets = Vec::new();
    for &runs in sizes {
        for (kind, input) in REQUEST_TYPES {
            let workload = kind.build(input).expect("workload builds");
            let config = CampaignConfig {
                runs,
                seed: SEED,
                ..CampaignConfig::default()
            };
            let campaign = run_campaign(&workload, &config).expect("campaign completes");
            let set = training_set_artifact(&workload, &campaign);
            for (label, tag) in [
                (LabelKind::SocGenerating, "soc"),
                (LabelKind::SymptomGenerating, "symptom"),
            ] {
                let data = dataset_from_artifact(&set, label);
                let name = format!("{} {input} {tag} {runs}", kind.name());
                if data.num_positive() == 0 || data.num_positive() == data.len() {
                    eprintln!("[bench_svm] {name}: one class only, skipped");
                    continue;
                }
                sets.push(Set { name, runs, data });
            }
        }
    }
    sets
}

/// `n` rows of uniform random features, all distinct, 10% positive.
fn all_distinct(n: usize) -> Set {
    let mut rng = StdRng::seed_from_u64(SEED);
    let x = (0..n)
        .map(|_| (0..FEATURES).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let y = (0..n).map(|i| i % 10 == 0).collect();
    Set {
        name: format!("distinct {n}"),
        runs: n,
        data: Dataset::new(x, y).expect("rectangular"),
    }
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

/// FNV-1a over the bits of every exported model field, in order.
fn digest(models: &[TrainedClassifier]) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(models.len() as u64);
    for m in models {
        let m = m.export();
        for v in [m.c, m.gamma, m.pos_weight, m.tol] {
            h.u64(v.to_bits());
        }
        h.u64(m.max_passes as u64);
        for v in [m.f_score, m.acc1, m.acc2] {
            h.u64(v.to_bits());
        }
        h.f64s(&m.scaler_mean);
        h.f64s(&m.scaler_std);
        h.u64(m.support.len() as u64);
        for sv in &m.support {
            h.f64s(sv);
        }
        h.f64s(&m.coef);
        h.u64(m.bias.to_bits());
    }
    format!("{:016x}", h.0)
}

fn sizes() -> Vec<usize> {
    let text = std::env::var("IPAS_BENCH_RUNS").unwrap_or_else(|_| "200,800".to_string());
    let sizes: Vec<usize> = text
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("IPAS_BENCH_RUNS is a list of sizes")
        })
        .collect();
    assert!(!sizes.is_empty() && sizes.iter().all(|&s| s > 0));
    sizes
}

fn header(json: &mut String, reps: usize) {
    let g = grid();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"svm-grid-search\",");
    let _ = writeln!(
        json,
        "  \"grid\": {{\"num_c\": {}, \"num_gamma\": {}, \"folds\": {}, \"top_n\": {TOP_N}}},",
        g.num_c, g.num_gamma, g.folds
    );
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"threads\": {threads},");
}

/// Measures this build: `reps` passes over every set.
fn measure(out_path: &str, reps: usize) {
    let sizes = sizes();
    let mut sets = training_sets(&sizes);
    sets.push(all_distinct(sizes[0]));
    let grid = grid();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut digests: Vec<Option<String>> = vec![None; sets.len()];
    for rep in 0..reps {
        eprintln!("[bench_svm] repetition {} of {reps}", rep + 1);
        for (i, set) in sets.iter().enumerate() {
            let start = Instant::now();
            let models = std::hint::black_box(train_top_configs(&set.data, &grid, TOP_N));
            times[i].push(start.elapsed().as_secs_f64());
            let d = digest(&models);
            let first = digests[i].get_or_insert_with(|| d.clone());
            assert_eq!(*first, d, "{}: training is not deterministic", set.name);
        }
    }

    let mut json = String::new();
    header(&mut json, reps);
    json.push_str("  \"sets\": [\n");
    for (i, set) in sets.iter().enumerate() {
        let [median, q1, q3] = quartiles(&times[i]);
        let digest = digests[i].as_deref().expect("at least one repetition");
        let shape = Shape::of(&set.data).json();
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"runs\": {}, {}, \"median_s\": {median:.4}, \
             \"q1_s\": {q1:.4}, \"q3_s\": {q3:.4}, \"digest\": \"{digest}\"}}{}",
            set.name,
            set.runs,
            shape,
            if i + 1 < sets.len() { "," } else { "" },
        );
        // One tab-separated line per set on stdout, read by `--compare`.
        println!("{}\t{}\t{shape}\t{median}\t{digest}", set.name, set.runs);
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_svm] wrote {out_path}");
}

/// Alternates runs of `baseline` and this executable, `reps` pairs.
fn compare(baseline: &str, out_path: &str, reps: usize) {
    let rows = compare_runs("bench_svm", baseline, reps, 1, 3, &[]);
    let mut json = String::new();
    header(&mut json, reps);
    json.push_str("  \"sets\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let [name, runs, shape, _, digest] = row.fields[1].as_slice() else {
            panic!("malformed harness line {:?}", row.fields[1]);
        };
        let (base, cand) = (row.stats[0][0], row.stats[1][0]);
        let side_json = |[m, q1, q3]: [f64; 3]| {
            format!("{{\"median_s\": {m:.4}, \"q1_s\": {q1:.4}, \"q3_s\": {q3:.4}}}")
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"runs\": {runs}, {shape}, \"baseline\": {}, \
             \"candidate\": {}, \"ratio\": {:.3}, \"wins\": {}, \"pairs\": {}, \"identical\": {}, \
             \"digest\": \"{digest}\"}}{}",
            side_json(row.stats[0]),
            side_json(row.stats[1]),
            base / cand,
            row.wins,
            row.pairs,
            row.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
        println!(
            "{name:<24} baseline {base:>8.3} s  candidate {cand:>8.3} s  {:>5.2}x  \
             faster in {} of {}  identical {}",
            base / cand,
            row.wins,
            row.pairs,
            row.identical
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_svm] wrote {out_path}");
    assert!(
        rows.iter().all(|r| r.identical),
        "the two builds trained different models"
    );
}

fn main() {
    let reps = bench_reps(5);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, baseline, rest @ ..] if flag == "--compare" && rest.len() <= 1 => {
            let out = rest.first().map_or("BENCH_svm.json", String::as_str);
            compare(baseline, out, reps);
        }
        [] => measure("BENCH_svm.json", reps),
        [out] if !out.starts_with("--") => measure(out, reps),
        _ => {
            eprintln!("usage: bench_svm [out.json] | bench_svm --compare BASELINE_BIN [out.json]");
            std::process::exit(2);
        }
    }
}

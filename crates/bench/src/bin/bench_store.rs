//! Warm-replay cost of the artifact store, emitting `BENCH_store.json`.
//!
//! A warm `protect` request recomputes nothing: it derives each stage's
//! key, reads the stored artifact (read, checksum, decode) and moves
//! on. This harness fills a temporary store with the five protect
//! request types (CoMD 3, HPCCG 6, FFT 16, IS 1024, IS 2048) at the
//! `bench_e2e` protect scale — 200 training runs, 48 runs per
//! evaluation campaign, top 2, a 6×6 (C, γ) grid, 3 folds — through the
//! `ipas-core` stages, and then times, per round:
//!
//! * `get <kind>`: `Store::get` of every stored artifact of one kind;
//! * `key <stage>`: deriving every request's keys of one stage, in
//!   request order (training, classifier, protect, eval), from a module
//!   that has not been printed yet, as a warm request does;
//! * `sha256 1MiB`: hashing one MiB with `ipas_store::hash::sha256`.
//!
//! Per row it reports the operations and bytes per round, the median
//! and quartiles of the round time over the rounds, and a SHA-256
//! digest of every key derived and every artifact file read.
//!
//! ```text
//! cargo run --release -p ipas-bench --bin bench_store [-- out.json]
//! cargo run --release -p ipas-bench --bin bench_store -- --compare BASELINE_BIN [out.json]
//! ```
//!
//! With `--compare`, the harness measures nothing itself: it runs
//! `BASELINE_BIN` (this harness built from another revision) and its own
//! executable alternately, each filling its own store and timing 9
//! rounds, and reports both sides per row, the baseline/candidate ratio
//! of the medians, and whether every run of both sides derived the same
//! keys and wrote the same artifact bytes (`identical`). This file and
//! the crate's `src/lib.rs` (which holds the shared `compare_runs`) use
//! only APIs the previous revision has, so copied into an export of it
//! they build there. A revision from before the SHA extensions has only the
//! portable compression, so the `sha256` row of a comparison against it
//! times both compressions.
//!
//! Environment:
//! * `IPAS_BENCH_REPS` — timed rounds (default 9), or alternating pairs
//!   with `--compare` (default 7).
//! * output path defaults to `BENCH_store.json` in the current
//!   directory; pass a path argument to override.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ipas_bench::{bench_reps, compare_runs, quartiles};
use ipas_core::{
    campaign_fingerprint, classifier_stage, dataset_from_artifact, eval_fingerprint,
    evaluation_stage, memoized_protect, protect_fingerprint, training_fingerprint, training_stage,
    with_run_identity, LabelKind, ProtectionPolicy,
};
use ipas_faultsim::{CampaignConfig, Workload};
use ipas_ir::Module;
use ipas_store::artifact::Payload;
use ipas_store::hash::{hex, sha256, Sha256};
use ipas_store::{
    ArtifactKind, CampaignSummary, Key, ProtectedModule, Store, TrainedModel, TrainingSet,
};
use ipas_svm::GridOptions;
use ipas_workloads::Kind;

const SEED: u64 = 2016;
const TOP_N: usize = 2;
/// Training-campaign runs per request; fewer can leave a training set
/// with one class only.
const TRAINING_RUNS: usize = 200;
const EVAL_RUNS: usize = 48;
const THREADS: usize = 2;

/// The (kernel, input) pairs of the protect requests.
const REQUEST_TYPES: [(Kind, i64); 5] = [
    (Kind::Comd, 3),
    (Kind::Hpccg, 6),
    (Kind::Fft, 16),
    (Kind::Is, 1024),
    (Kind::Is, 2048),
];

/// The artifact kinds a protect request stores.
const KINDS: [ArtifactKind; 4] = [
    ArtifactKind::TrainingSet,
    ArtifactKind::TrainedModel,
    ArtifactKind::ProtectedModule,
    ArtifactKind::CampaignSummary,
];

/// The stages whose keys a warm request derives, in request order.
const STAGES: [&str; 4] = ["training", "classifier", "protect", "eval"];

fn grid() -> GridOptions {
    GridOptions {
        num_c: 6,
        num_gamma: 6,
        folds: 3,
        ..GridOptions::default()
    }
}

/// One variant of a filled request: what its protect and eval keys
/// hash besides the unprotected module.
struct Variant {
    name: String,
    policy: &'static str,
    pipeline: String,
    model_key: Option<Key>,
    /// The stored protected IR; `None` for `unprotected`, which is
    /// evaluated on the unprotected module itself.
    ir_text: Option<String>,
}

/// One filled protect request.
struct Request {
    workload: Workload,
    /// The unprotected module as compiled, never printed.
    module: Module,
    training: CampaignConfig,
    eval: CampaignConfig,
    variants: Vec<Variant>,
}

/// Runs the five protect requests cold against `store`.
fn fill(store: &Store) -> Vec<Request> {
    let mut requests = Vec::new();
    for (index, (kind, input)) in REQUEST_TYPES.into_iter().enumerate() {
        let module = ipas_lang::compile_named(ipas_workloads::sources::source(kind), kind.name())
            .expect("workload compiles");
        let workload =
            ipas_workloads::rebuild_with_module(kind, module.clone(), input).expect("golden run");
        let training = CampaignConfig {
            runs: TRAINING_RUNS,
            seed: SEED + index as u64,
            threads: THREADS,
            ..CampaignConfig::default()
        };
        let eval = CampaignConfig {
            runs: EVAL_RUNS,
            seed: training.seed ^ 0x00C0_FFEE,
            ..training
        };
        let (set, campaign, _) =
            training_stage(Some(store), &workload, &training, None).expect("training stage");
        let mut policies = vec![("full".to_string(), ProtectionPolicy::FullDuplication, None)];
        for (label, prefix) in [
            (LabelKind::SocGenerating, "IPAS"),
            (LabelKind::SymptomGenerating, "Baseline"),
        ] {
            let data = dataset_from_artifact(&set, label);
            let (models, fp, _) =
                classifier_stage(Some(store), &data, &campaign, label, &grid(), TOP_N)
                    .unwrap_or_else(|e| panic!("{} {input}: {e}", kind.name()));
            for (rank, model) in models.into_iter().enumerate() {
                policies.push((
                    format!("{prefix}#{}", rank + 1),
                    ProtectionPolicy::trained(label, model),
                    Some(Key::ranked(&fp, rank)),
                ));
            }
        }
        let mut variants = vec![Variant {
            name: "unprotected".to_string(),
            policy: "unprotected",
            pipeline: String::new(),
            model_key: None,
            ir_text: None,
        }];
        evaluation_stage(
            Some(store),
            &workload,
            &workload.module,
            "unprotected",
            &eval,
            None,
        )
        .expect("evaluation stage");
        for (name, policy, model_key) in policies {
            let (protected, _, _) =
                memoized_protect(Some(store), &workload.module, &policy, model_key.as_ref())
                    .expect("protect stage");
            evaluation_stage(Some(store), &workload, &protected, &name, &eval, None)
                .expect("evaluation stage");
            let fp = protect_fingerprint(
                &workload.module,
                policy.label(),
                model_key.as_ref(),
                &policy.pipeline_text(),
            );
            let stored = store
                .get::<ProtectedModule>(&Key::of(&fp))
                .expect("protected module reads")
                .expect("protected module stored");
            variants.push(Variant {
                name,
                policy: policy.label(),
                pipeline: policy.pipeline_text(),
                model_key,
                ir_text: Some(stored.ir_text),
            });
        }
        requests.push(Request {
            workload,
            module,
            training,
            eval,
            variants,
        });
    }
    requests
}

/// One timed row of a round: seconds, operations, bytes, and a digest
/// of what the operations produced.
struct Sample {
    seconds: f64,
    ops: usize,
    bytes: usize,
    digest: Sha256,
}

impl Sample {
    fn new() -> Self {
        Sample {
            seconds: 0.0,
            ops: 0,
            bytes: 0,
            digest: Sha256::new(),
        }
    }
}

fn time<T>(sample: &mut Sample, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    sample.seconds += start.elapsed().as_secs_f64();
    sample.ops += 1;
    out
}

/// `Store::get` of every artifact of `kind`, digesting kind, key and
/// file bytes.
fn get_all(store: &Store, kind: ArtifactKind) -> Sample {
    fn get<P: Payload>(store: &Store, key: &Key, sample: &mut Sample) {
        let got = time(sample, || store.get::<P>(key));
        assert!(matches!(got, Ok(Some(_))), "{key}: stored artifact reads");
    }
    let mut sample = Sample::new();
    for entry in store.list().expect("store lists") {
        if entry.kind != kind {
            continue;
        }
        match kind {
            ArtifactKind::TrainingSet => get::<TrainingSet>(store, &entry.key, &mut sample),
            ArtifactKind::TrainedModel => get::<TrainedModel>(store, &entry.key, &mut sample),
            ArtifactKind::ProtectedModule => get::<ProtectedModule>(store, &entry.key, &mut sample),
            ArtifactKind::CampaignSummary => get::<CampaignSummary>(store, &entry.key, &mut sample),
            other => panic!("a protect request stores no {other}"),
        }
        let file = std::fs::read(store.object_path(kind, &entry.key)).expect("artifact file");
        sample.bytes += file.len();
        sample.digest.update(kind.tag().as_bytes());
        sample.digest.update(entry.key.as_str().as_bytes());
        sample.digest.update(&file);
    }
    sample
}

/// Derives every request's keys, one sample per stage, from module
/// copies that were never printed.
fn derive_keys(requests: &[Request]) -> [Sample; 4] {
    let mut samples = [(); 4].map(|_| Sample::new());
    let grid = grid();
    for r in requests {
        let module = r.module.clone();
        let variants: Vec<Option<Module>> = r
            .variants
            .iter()
            .map(|v| {
                v.ir_text
                    .as_deref()
                    .map(|t| ipas_ir::parser::parse_module(t).expect("stored IR parses"))
            })
            .collect();
        let [training, classifier, protect, eval] = &mut samples;
        let campaign = time(training, || {
            with_run_identity(&campaign_fingerprint(&module, &r.training), &r.workload)
        });
        training.digest.update(campaign.bytes());
        for label in [LabelKind::SocGenerating, LabelKind::SymptomGenerating] {
            let fp = time(classifier, || {
                training_fingerprint(&campaign, label, &grid, TOP_N)
            });
            classifier.digest.update(fp.bytes());
        }
        for v in r.variants.iter().filter(|v| v.ir_text.is_some()) {
            let fp = time(protect, || {
                protect_fingerprint(&module, v.policy, v.model_key.as_ref(), &v.pipeline)
            });
            protect.digest.update(fp.bytes());
        }
        for (v, variant) in r.variants.iter().zip(&variants) {
            let variant = variant.as_ref().unwrap_or(&module);
            let fp = time(eval, || {
                with_run_identity(
                    &eval_fingerprint(&module, variant, &v.name, &r.eval),
                    &r.workload,
                )
            });
            eval.digest.update(fp.bytes());
        }
    }
    samples
}

fn sha_mib(data: &[u8]) -> Sample {
    let mut sample = Sample::new();
    let digest = time(&mut sample, || sha256(data));
    sample.bytes = data.len();
    sample.digest.update(&digest);
    sample
}

fn header(json: &mut String, reps: usize) {
    let g = grid();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"store-warm-replay\",");
    let _ = writeln!(
        json,
        "  \"scale\": {{\"training_runs\": {}, \"eval_runs\": {EVAL_RUNS}, \"top_n\": {TOP_N}, \
         \"num_c\": {}, \"num_gamma\": {}, \"folds\": {}}},",
        TRAINING_RUNS, g.num_c, g.num_gamma, g.folds
    );
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"reps\": {reps},");
}

/// Measures this build: fills a store and times `rounds` rounds.
fn measure(out_path: &str, rounds: usize) {
    let dir: PathBuf = std::env::temp_dir().join(format!("bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store opens");
    let start = Instant::now();
    let requests = fill(&store);
    eprintln!(
        "[bench_store] filled {} requests in {:.2} s",
        requests.len(),
        start.elapsed().as_secs_f64()
    );
    let mib: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut names: Vec<String> = KINDS.iter().map(|k| format!("get {}", k.tag())).collect();
    names.extend(STAGES.iter().map(|s| format!("key {s}")));
    names.push("sha256 1MiB".to_string());
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut firsts: Vec<Option<(usize, usize, String)>> = vec![None; names.len()];
    for round in 0..rounds {
        eprintln!("[bench_store] round {} of {rounds}", round + 1);
        let mut samples: Vec<Sample> = KINDS.iter().map(|&k| get_all(&store, k)).collect();
        samples.extend(derive_keys(&requests));
        samples.push(sha_mib(&mib));
        for (i, s) in samples.into_iter().enumerate() {
            times[i].push(s.seconds);
            let shape = (s.ops, s.bytes, hex(&s.digest.finish()[..8]));
            let first = firsts[i].get_or_insert_with(|| shape.clone());
            assert_eq!(*first, shape, "{}: rounds disagree", names[i]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = String::new();
    header(&mut json, rounds);
    json.push_str("  \"sets\": [\n");
    for (i, name) in names.iter().enumerate() {
        let (ops, bytes, digest) = firsts[i].as_ref().expect("at least one round");
        let [median, q1, q3] = quartiles(&times[i]);
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"ops\": {ops}, \"bytes\": {bytes}, \"median_s\": {median:.9}, \
             \"q1_s\": {q1:.9}, \"q3_s\": {q3:.9}, \"digest\": \"{digest}\"}}{}",
            if i + 1 < names.len() { "," } else { "" },
        );
        // One tab-separated line per row on stdout, read by `--compare`.
        println!("{name}\t{ops}\t{bytes}\t{median}\t{digest}");
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_store] wrote {out_path}");
}

/// Alternates runs of `baseline` and this executable, `pairs` pairs.
fn compare(baseline: &str, out_path: &str, pairs: usize) {
    let rows = compare_runs("bench_store", baseline, pairs, 9, 3, &[]);
    let mut json = String::new();
    header(&mut json, pairs);
    json.push_str("  \"sets\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let [name, ops, bytes, _, digest] = row.fields[1].as_slice() else {
            panic!("malformed harness line {:?}", row.fields[1]);
        };
        let (base, cand) = (row.stats[0][0], row.stats[1][0]);
        let side_json = |[m, q1, q3]: [f64; 3]| {
            format!("{{\"median_s\": {m:.9}, \"q1_s\": {q1:.9}, \"q3_s\": {q3:.9}}}")
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"ops\": {ops}, \"bytes\": {bytes}, \"baseline\": {}, \
             \"candidate\": {}, \"ratio\": {:.3}, \"identical\": {}, \"digest\": \"{digest}\"}}{}",
            side_json(row.stats[0]),
            side_json(row.stats[1]),
            base / cand,
            row.identical,
            if i + 1 < rows.len() { "," } else { "" },
        );
        let bytes: usize = bytes.parse().expect("byte count");
        let rate = |s: f64| {
            if bytes > 0 {
                format!("{:>7.0} MB/s", bytes as f64 / s / 1e6)
            } else {
                String::new()
            }
        };
        println!(
            "{name:<22} baseline {:>9.1} µs{}  candidate {:>9.1} µs{}  {:>5.2}x  identical {}",
            base * 1e6,
            rate(base),
            cand * 1e6,
            rate(cand),
            base / cand,
            row.identical
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark output");
    eprintln!("[bench_store] wrote {out_path}");
    assert!(
        rows.iter().all(|r| r.identical),
        "the two builds derived different keys or wrote different artifacts"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, baseline, rest @ ..] if flag == "--compare" && rest.len() <= 1 => {
            let out = rest.first().map_or("BENCH_store.json", String::as_str);
            compare(baseline, out, bench_reps(7));
        }
        [] => measure("BENCH_store.json", bench_reps(9)),
        [out] if !out.starts_with("--") => measure(out, bench_reps(9)),
        _ => {
            eprintln!(
                "usage: bench_store [out.json] | bench_store --compare BASELINE_BIN [out.json]"
            );
            std::process::exit(2);
        }
    }
}

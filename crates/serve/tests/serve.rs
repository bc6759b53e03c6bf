//! End-to-end daemon tests over a real Unix socket: request
//! coalescing with byte-identical responses, graceful shutdown with
//! journal-backed restart-resume, tenant quotas, and workloads shared
//! across jobs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ipas_core::experiment::{classifier_stage, memoized_protect, training_stage};
use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_core::memo::{dataset_from_artifact, protect_fingerprint};
use ipas_core::policy::ProtectionPolicy;
use ipas_core::training::LabelKind;
use ipas_faultsim::Workload;
use ipas_serve::{run_daemon, Client, DaemonConfig, ServeError};
use ipas_store::{Fields, Key, Store};
use ipas_svm::GridOptions;

const SOURCE: &str = "fn main() -> int { let s: int = 0;
    for (let i: int = 0; i < 300; i = i + 1) { s = s + i * i; }
    output_i(s); return 0; }";

/// `SOURCE` with a longer loop: a job long enough that a shutdown
/// request lands mid-job even on an optimized build.
const LONG_SOURCE: &str = "fn main() -> int { let s: int = 0;
    for (let i: int = 0; i < 2000; i = i + 1) { s = s + i * i; }
    output_i(s); return 0; }";

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ipas-serve-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &Path, threads: usize, chunk: usize) -> DaemonConfig {
    DaemonConfig {
        socket: dir.join("serve.sock"),
        state_dir: dir.join("state"),
        threads,
        shards: threads,
        chunk,
        quota_runs: 0,
    }
}

/// Starts the daemon in a thread and waits for the socket to accept.
fn start_daemon(
    config: DaemonConfig,
) -> (std::thread::JoinHandle<ipas_serve::DaemonReport>, Client) {
    let socket = config.socket.clone();
    let handle = std::thread::spawn(move || run_daemon(config).expect("daemon runs"));
    let client = Client::new(&socket);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if socket.exists() && client.stats().is_ok() {
            return (handle, client);
        }
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn field(line: &str, key: &str) -> u64 {
    Fields::parse(line.trim_end())
        .and_then(|f| f.num(key))
        .unwrap_or_else(|| panic!("no field {key:?} in {line:?}"))
}

#[test]
fn concurrent_identical_submissions_run_one_campaign_byte_identically() {
    let dir = test_dir("coalesce");
    let (daemon, client) = start_daemon(config(&dir, 2, 8));

    let mut spec = JobSpec::new(JobKind::Protect, "acme", "sumsq", SOURCE);
    spec.policy = "full".to_string();
    spec.runs = 64;
    spec.seed = 3;

    let results: Vec<(Vec<u8>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let client = client.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut log = Vec::new();
                    let outcome = client
                        .submit(&spec, true, &mut out, &mut log)
                        .expect("submission succeeds");
                    assert_eq!(outcome.id, spec.job_id());
                    (out, outcome.coalesced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let leaders = results.iter().filter(|(_, coalesced)| !coalesced).count();
    assert_eq!(leaders, 1, "exactly one submission created the job");
    let payload = &results[0].0;
    assert!(!payload.is_empty());
    let text = String::from_utf8_lossy(payload);
    assert!(text.contains("policy full"), "payload: {text}");
    assert!(
        text.contains("fn @main"),
        "payload carries the protected IR"
    );
    for (other, _) in &results[1..] {
        assert_eq!(other, payload, "all subscribers get identical bytes");
    }

    // The dedup invariant: four submissions, one campaign's worth of
    // injections executed.
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "executed_runs"), 64);
    assert_eq!(field(&stats, "jobs"), 1);

    client.shutdown().unwrap();
    let report = daemon.join().unwrap();
    assert_eq!(report.executed_runs, 64);
    assert_eq!(report.jobs, 1);
}

#[test]
fn graceful_shutdown_drains_and_restart_resumes_from_journal() {
    let dir = test_dir("resume");
    let cfg = config(&dir, 1, 4);

    // Phase 1: submit a large campaign and shut down immediately — the
    // single worker can only finish its in-flight chunk.
    let (daemon, client) = start_daemon(cfg.clone());
    let mut spec = JobSpec::new(JobKind::Campaign, "acme", "sumsq", LONG_SOURCE);
    spec.runs = 4000;
    spec.seed = 9;
    let outcome = client
        .submit(&spec, false, &mut Vec::new(), &mut Vec::new())
        .unwrap();
    assert!(!outcome.coalesced);
    client.shutdown().unwrap();
    let report_a = daemon.join().unwrap();
    assert!(
        (report_a.executed_runs as usize) < spec.runs,
        "daemon A must stop mid-job for this test to exercise resume \
         (executed {})",
        report_a.executed_runs
    );
    let checkpoint = cfg
        .state_dir
        .join("jobs")
        .join(format!("{}.job", spec.job_id()));
    assert!(checkpoint.exists(), "unfinished job keeps its checkpoint");

    // Phase 2: a fresh daemon on the same state restores the job and
    // finishes exactly the remaining plans.
    let (daemon, client) = start_daemon(cfg.clone());
    let mut out = Vec::new();
    client
        .watch(&spec.job_id(), &mut out, &mut Vec::new())
        .expect("restored job completes");
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("runs 4000"), "payload: {text}");
    let status = client.status(&spec.job_id()).unwrap();
    assert_eq!(
        field(&status, "resumed"),
        report_a.executed_runs,
        "every journaled plan was recovered, none re-executed"
    );
    client.shutdown().unwrap();
    let report_b = daemon.join().unwrap();
    assert_eq!(
        report_a.executed_runs + report_b.executed_runs,
        spec.runs as u64,
        "the two processes together execute each plan exactly once"
    );
    assert!(!checkpoint.exists(), "finished job clears its checkpoint");

    // Phase 3: resubmitting the finished spec performs zero new
    // injections — the journal is the campaign cache across restarts.
    let (daemon, client) = start_daemon(cfg);
    let mut again = Vec::new();
    client
        .submit(&spec, true, &mut again, &mut Vec::new())
        .unwrap();
    assert_eq!(again, out, "replayed artifact is byte-identical");
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "executed_runs"), 0);
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn adaptive_jobs_round_tag_the_journal_and_resume_across_restarts() {
    let dir = test_dir("adaptive");
    let cfg = config(&dir, 2, 8);
    let (daemon, client) = start_daemon(cfg.clone());

    let mut spec = JobSpec::new(JobKind::Campaign, "acme", "sumsq", SOURCE);
    spec.runs = 64;
    spec.seed = 5;
    spec.adaptive = true;

    let mut out = Vec::new();
    client
        .submit(&spec, true, &mut out, &mut Vec::new())
        .expect("adaptive campaign completes");
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("workload sumsq"), "payload: {text}");

    let journal_path = cfg
        .state_dir
        .join("journals")
        .join(format!("{}.jsonl", spec.job_id()));
    let journal = std::fs::read_to_string(&journal_path).expect("journal written");
    let header = journal.lines().next().unwrap();
    assert!(
        header.contains("\"rounds\":"),
        "adaptive header pins the round size"
    );
    assert!(
        header.contains("\"sampling\":\"static\""),
        "adaptive plans are site-restricted, as the CLI's header records: {header}"
    );
    assert!(
        journal.contains("\"sec\":"),
        "adaptive records carry round tags"
    );
    client.shutdown().unwrap();
    let report_a = daemon.join().unwrap();

    // A fresh daemon replaying the same spec resumes every plan from
    // the journal and re-executes nothing.
    let (daemon, client) = start_daemon(cfg);
    let mut again = Vec::new();
    client
        .submit(&spec, true, &mut again, &mut Vec::new())
        .expect("resumed adaptive campaign completes");
    assert_eq!(again, out, "resumed artifact is byte-identical");
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "executed_runs"), 0, "all plans resumed");
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(report_a.executed_runs > 0);
}

#[test]
fn bad_eval_specs_fail_the_job_instead_of_killing_the_worker() {
    let dir = test_dir("badeval");
    let cfg = config(&dir, 2, 8);

    // A crafted checkpoint: an eval spec whose module key was stripped
    // by hand. Decode-time validation rejects it, so a restarting
    // daemon must drop it instead of wedging (and even if one slipped
    // through, prepare now fails the job rather than panicking).
    let mut crafted = JobSpec::new(JobKind::Eval, "acme", "sumsq", SOURCE);
    crafted.module_key = Some("deadbeefdeadbeef".to_string());
    let line = crafted.encode("jobspec");
    let stripped = {
        let start = line.find(",\"module_key\"").expect("field present");
        // The key is the last field, so cut up to the closing brace.
        let end = line[start + 1..]
            .find(",\"")
            .map(|o| o + start + 1)
            .unwrap_or_else(|| line.rfind('}').unwrap());
        format!("{}{}", &line[..start], &line[end..])
    };
    assert!(!stripped.contains("module_key"));
    let jobs_dir = cfg.state_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir).unwrap();
    let checkpoint = jobs_dir.join(format!("{}.job", crafted.job_id()));
    std::fs::write(&checkpoint, &stripped).unwrap();
    // A checkpoint left by a daemon that still ran sectional campaigns:
    // decode refuses its `sections` field.
    let mut plain = JobSpec::new(JobKind::Campaign, "acme", "sumsq", SOURCE);
    plain.runs = 48;
    let sectional = plain
        .encode("jobspec")
        .replacen("}\n", ",\"sections\":1}\n", 1);
    let sectional_checkpoint = jobs_dir.join("sectional.job");
    std::fs::write(&sectional_checkpoint, sectional).unwrap();

    let (daemon, client) = start_daemon(cfg);
    assert!(
        !checkpoint.exists(),
        "invalid checkpoint dropped at restore"
    );
    assert!(
        !sectional_checkpoint.exists(),
        "sectional checkpoint dropped at restore"
    );
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "jobs"), 0, "crafted jobs never admitted");
    assert_eq!(field(&stats, "executed_runs"), 0);

    // An eval spec that validates but references a module the store has
    // never seen reaches prepare; the job must fail with a clear event,
    // not kill the worker (which would hang this watch forever).
    match client.submit(&crafted, true, &mut Vec::new(), &mut Vec::new()) {
        Err(ServeError::JobFailed(reason)) => {
            assert!(reason.contains("module"), "unhelpful reason: {reason}")
        }
        other => panic!("expected a failed event, got {other:?}"),
    }
    // The daemon is still healthy after the failed job.
    client.stats().expect("daemon still serving");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn tenant_quotas_refuse_over_budget_submissions() {
    let dir = test_dir("quota");
    let mut cfg = config(&dir, 2, 8);
    cfg.quota_runs = 100;
    let (daemon, client) = start_daemon(cfg);

    let mut spec = JobSpec::new(JobKind::Campaign, "smalltenant", "sumsq", SOURCE);
    spec.runs = 80;
    client
        .submit(&spec, true, &mut Vec::new(), &mut Vec::new())
        .unwrap();

    // A different job for the same tenant blows the 100-run budget...
    let mut over = spec.clone();
    over.seed = 1;
    let refused = over.clone();
    match client.submit(&refused, false, &mut Vec::new(), &mut Vec::new()) {
        Err(ServeError::Refused(reason)) => assert!(reason.contains("quota"), "{reason}"),
        other => panic!("expected quota refusal, got {other:?}"),
    }

    // ...but another tenant has its own ledger, and resubmitting the
    // *identical* first job coalesces without a fresh charge.
    over.tenant = "bigtenant".to_string();
    client
        .submit(&over, true, &mut Vec::new(), &mut Vec::new())
        .unwrap();
    let outcome = client
        .submit(&spec, false, &mut Vec::new(), &mut Vec::new())
        .unwrap();
    assert!(outcome.coalesced);

    client.shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn connections_are_accepted_on_arrival() {
    // Each round trip's connection arrives just after the accept loop
    // has gone back to waiting. A loop that sleeps a fixed 25 ms per
    // idle turn makes 40 round trips take about a second; one that
    // waits on the listener answers them in a few milliseconds.
    let dir = test_dir("accept");
    let (daemon, client) = start_daemon(config(&dir, 1, 8));
    let start = Instant::now();
    for _ in 0..40 {
        client.stats().unwrap();
    }
    let elapsed = start.elapsed();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(
        elapsed < Duration::from_millis(500),
        "40 stats round trips took {elapsed:?}"
    );
}

/// A float kernel whose outcomes depend on the verifier's tolerance.
const FLOAT_SOURCE: &str = "fn main() -> int {
    let n: int = 24;
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) { a[i] = itof(i) * 0.5 + 1.0; }
    let acc: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) { acc = acc + a[i] * a[i]; }
    output_f(acc);
    free_arr(a);
    return 0;
}";

/// Submits `spec`, waits for it, and returns its payload.
fn payload(client: &Client, spec: &JobSpec) -> String {
    let mut out = Vec::new();
    client
        .submit(spec, true, &mut out, &mut Vec::new())
        .expect("job completes");
    String::from_utf8(out).expect("payload is text")
}

#[test]
fn campaign_summaries_are_keyed_on_the_run_identity() {
    let dir = test_dir("identity");
    let job = |tolerance: f64, adaptive: bool| {
        let mut spec = JobSpec::new(JobKind::Campaign, "acme", "kernel", FLOAT_SOURCE);
        spec.runs = 64;
        spec.seed = 5;
        spec.tolerance = tolerance;
        spec.adaptive = adaptive;
        spec
    };
    let run = |name: &str, jobs: &[JobSpec]| {
        let d = dir.join(name);
        std::fs::create_dir_all(&d).unwrap();
        let (daemon, client) = start_daemon(config(&d, 2, 8));
        let payloads: Vec<String> = jobs.iter().map(|spec| payload(&client, spec)).collect();
        client.shutdown().unwrap();
        daemon.join().unwrap();
        payloads
    };
    // Each case runs a second job against a store that already holds
    // the first one's summary: the same campaign under another
    // verifier, and a plain campaign after an adaptive one with the same
    // budget. The second must equal the same job on a fresh daemon.
    for (case, first, second) in [
        ("verifier", job(1e-9, false), job(1e30, false)),
        ("adaptive", job(1e-9, true), job(1e-9, false)),
    ] {
        let shared = run(&format!("{case}-shared"), &[first, second.clone()]);
        let expected = run(&format!("{case}-fresh"), &[second]);
        assert_ne!(
            shared[0], expected[0],
            "{case}: the two jobs report differently"
        );
        assert_eq!(shared[1], expected[0], "{case}");
    }
}

#[test]
fn protect_and_train_jobs_match_the_core_stages() {
    let dir = test_dir("stages");
    let (daemon, client) = start_daemon(config(&dir, 2, 8));
    let mut protect = JobSpec::new(JobKind::Protect, "acme", "kernel", FLOAT_SOURCE);
    protect.policy = "ipas".to_string();
    protect.runs = 96;
    protect.seed = 3;
    protect.top = 1;
    let mut train = protect.clone();
    train.kind = JobKind::Train;
    train.top = 2;
    let protected = payload(&client, &protect);
    let trained = payload(&client, &train);
    client.shutdown().unwrap();
    daemon.join().unwrap();

    // The same stages, called directly against a store of their own.
    let store = Store::open(dir.join("core-store")).unwrap();
    let module = ipas_lang::compile(FLOAT_SOURCE).unwrap();
    let workload = Workload::serial(&protect.name, module, protect.tolerance).unwrap();
    let (set, campaign_key, _) =
        training_stage(Some(&store), &workload, &protect.campaign_config(), None).unwrap();
    let label = LabelKind::SocGenerating;
    let data = dataset_from_artifact(&set, label);
    let fit = |top: usize| {
        classifier_stage(
            Some(&store),
            &data,
            &campaign_key,
            label,
            &GridOptions::quick(),
            top,
        )
        .unwrap()
    };

    let (models, key, _) = fit(1);
    let policy = ProtectionPolicy::trained(label, models.into_iter().next().unwrap());
    let (module, _, _) = memoized_protect(
        Some(&store),
        &workload.module,
        &policy,
        Some(&Key::ranked(&key, 0)),
    )
    .unwrap();
    let (head, ir) = protected
        .split_once('\n')
        .expect("payload has a header line");
    assert!(head.starts_with("policy IPAS "), "{head}");
    assert_eq!(ir, module.to_text());

    let (models, key, _) = fit(2);
    assert_eq!(trained.lines().count(), models.len());
    for rank in 0..models.len() {
        let named = format!(" key {}\n", Key::ranked(&key, rank));
        assert!(trained.contains(&named), "{trained}");
    }
}

/// A job's journal: its header, then its records sorted (chunks commit
/// in completion order).
fn journal(state: &Path, spec: &JobSpec) -> (String, Vec<String>) {
    let path = state
        .join("journals")
        .join(format!("{}.jsonl", spec.job_id()));
    let text = std::fs::read_to_string(&path).expect("journal written");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let header = lines.remove(0);
    lines.sort();
    (header, lines)
}

/// Stores the fully duplicated `source` in the store under `state` and
/// returns its key, for eval jobs to run.
fn store_protected(state: &Path, source: &str) -> String {
    let store = Store::open(state.join("store")).unwrap();
    let module = ipas_lang::compile(source).unwrap();
    let policy = ProtectionPolicy::FullDuplication;
    memoized_protect(Some(&store), &module, &policy, None).unwrap();
    Key::of(&protect_fingerprint(
        &module,
        policy.label(),
        None,
        &policy.pipeline_text(),
    ))
    .to_string()
}

#[test]
fn jobs_on_one_program_share_its_workload_byte_identically() {
    let dir = test_dir("sharing");
    let plain = |seed: u64| {
        let mut spec = JobSpec::new(JobKind::Campaign, "acme", "sumsq", SOURCE);
        spec.runs = 64;
        spec.seed = seed;
        spec
    };
    let shared_cfg = config(&dir.join("shared"), 2, 8);
    let mut eval = JobSpec::new(JobKind::Eval, "acme", "sumsq", SOURCE);
    eval.eval_runs = 64;
    eval.seed = 4;
    eval.module_key = Some(store_protected(&shared_cfg.state_dir, SOURCE));
    let jobs = [plain(1), plain(2), plain(3), eval];

    let (daemon, client) = start_daemon(shared_cfg.clone());
    let mut shared = Vec::new();
    let mut bytes = Vec::new();
    for spec in &jobs[..3] {
        shared.push(payload(&client, spec));
        bytes.push(field(&client.stats().unwrap(), "workload_bytes"));
    }
    // The first job builds the workload and the second captures the
    // ladder it keeps: the third runs on that ladder.
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "workload_misses"), 1);
    assert_eq!(field(&stats, "workload_hits"), 2);
    assert_eq!(field(&stats, "workloads"), 1);
    assert!(
        bytes[1] > bytes[0],
        "the second job keeps a ladder: {bytes:?}"
    );
    assert_eq!(bytes[2], bytes[1]);
    // The eval job runs another module, which it builds from the
    // program's cached workload.
    shared.push(payload(&client, &jobs[3]));
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "workload_misses"), 2);
    assert_eq!(field(&stats, "workload_hits"), 3);
    assert_eq!(field(&stats, "workloads"), 2);
    client.shutdown().unwrap();
    daemon.join().unwrap();

    for (i, spec) in jobs.iter().enumerate() {
        let fresh_cfg = config(&dir.join(format!("fresh{i}")), 2, 8);
        if spec.kind == JobKind::Eval {
            store_protected(&fresh_cfg.state_dir, SOURCE);
        }
        let (daemon, client) = start_daemon(fresh_cfg.clone());
        let expected = payload(&client, spec);
        client.shutdown().unwrap();
        daemon.join().unwrap();
        assert_eq!(shared[i], expected, "job {i}: payload");
        assert_eq!(
            journal(&shared_cfg.state_dir, spec),
            journal(&fresh_cfg.state_dir, spec),
            "job {i}: journal"
        );
    }
    assert!(shared[3].contains("workload sumsq-eval"), "{}", shared[3]);
}

#[test]
fn jobs_on_one_source_under_two_names_report_their_own_names() {
    let dir = test_dir("names");
    let cfg = config(&dir, 2, 8);
    let (daemon, client) = start_daemon(cfg.clone());
    let specs: Vec<JobSpec> = ["alpha", "beta"]
        .iter()
        .map(|name| {
            let mut spec = JobSpec::new(JobKind::Campaign, "acme", name, SOURCE);
            spec.runs = 48;
            spec.seed = 2;
            spec
        })
        .collect();
    for spec in &specs {
        let text = payload(&client, spec);
        assert!(
            text.starts_with(&format!("workload {} runs 48", spec.name)),
            "{text}"
        );
        let (header, _) = journal(&cfg.state_dir, spec);
        let fields = Fields::parse(&header).unwrap();
        assert_eq!(fields.str("workload"), Some(spec.name.as_str()), "{header}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(field(&stats, "workload_misses"), 2, "one workload per name");
    client.shutdown().unwrap();
    daemon.join().unwrap();
}

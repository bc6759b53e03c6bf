//! One campaign runtime, many schedules: the same plan stream run
//! through the in-process pool at any thread count, or as stealable
//! chunks of any size, tagged or not, gives the same records and — once
//! the per-record `sec` tags are removed — the same journal lines. A
//! journal cut anywhere (a crash mid-write) resumes to the same records,
//! executing exactly the plans it lost.

use std::path::{Path, PathBuf};

use ipas_faultsim::rounds::draw_uniform_site_plans;
use ipas_faultsim::{
    draw_plans, profile_sites, run_campaign_with, CampaignConfig, CampaignError, CampaignOptions,
    CampaignResult, CampaignRuntime, FaultModel, OutputVerifier, RetryPolicy, Workload,
};
use ipas_interp::RunOutput;
use ipas_ir::json::Fields;
use rand::rngs::StdRng;
use rand::SeedableRng;

const RUNS: usize = 32;
const SEED: u64 = 41;

/// Two functions with loops.
const SRC: &str = "fn sq(n: int) -> int {
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + i * i; }
    return s;
}
fn main() -> int {
    output_i(sq(30));
    let b: int = 0;
    for (let j: int = 0; j < 20; j = j + 1) { b = b + j * 3; }
    output_i(b);
    return 0;
}";

/// Panics on some corrupted outputs, so the stream also carries
/// (untagged) harness-failure lines.
struct FussyVerifier {
    golden: Vec<i64>,
}

impl OutputVerifier for FussyVerifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let ints = run.outputs.as_ints();
        if ints == self.golden {
            return true;
        }
        if ints.first().is_some_and(|v| v % 3 == 0) {
            panic!("verifier bug: corrupted output divisible by 3");
        }
        false
    }
}

fn workload() -> Workload {
    let module = ipas_lang::compile(SRC).expect("compiles");
    Workload::with_custom_verifier("two-fn", module, "main", vec![], |golden| {
        Box::new(FussyVerifier {
            golden: golden.outputs.as_ints(),
        })
    })
    .expect("prepares")
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        runs: RUNS,
        seed: SEED,
        threads,
        ..CampaignConfig::default()
    }
}

/// Journaled options with no retry backoff.
fn journaled(path: &Path) -> CampaignOptions {
    CampaignOptions {
        retry: RetryPolicy::no_retries(),
        journal: Some(path.to_path_buf()),
        ..CampaignOptions::default()
    }
}

fn fresh_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ipas-runtime-identity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The journal's lines with `,"sec":N` removed, sorted.
fn untagged_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("journal written");
    let mut lines: Vec<String> = text
        .lines()
        .map(|line| match line.find(",\"sec\":") {
            Some(at) => format!("{}}}", &line[..at]),
            None => line.to_string(),
        })
        .collect();
    lines.sort();
    lines
}

/// Runs the campaign as stealable chunks of `chunk` plans, taken by two
/// workers from opposite ends of the chunk list.
fn run_in_chunks(
    w: &Workload,
    options: &CampaignOptions,
    tags: Vec<Option<u32>>,
    chunk: usize,
) -> CampaignResult {
    let plans = draw_plans(w, &config(2), options.sampling).expect("plans");
    let runtime = CampaignRuntime::open(w, &config(2), options, None).expect("opens");
    runtime.append(plans.into_iter().zip(tags));
    let pending = runtime.pending();
    let chunks: Vec<&[usize]> = pending.chunks(chunk).collect();
    let (front, back) = chunks.split_at(chunks.len() / 2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            front
                .iter()
                .for_each(|c| drop(runtime.run_chunk(c).unwrap()))
        });
        scope.spawn(|| {
            back.iter()
                .rev()
                .for_each(|c| drop(runtime.run_chunk(c).unwrap()))
        });
    });
    runtime.finish().expect("every chunk ran")
}

/// A journal tag on every plan, five distinct values.
fn synthetic_tags() -> Vec<Option<u32>> {
    (0..RUNS as u32).map(|i| Some(i % 5)).collect()
}

/// Whether every record line of the journal at `path` carries a tag.
fn records_all_tagged(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .expect("journal")
        .lines()
        .filter(|l| l.contains("\"kind\":\"record\""))
        .all(|l| l.contains(",\"sec\":"))
}

#[test]
fn every_scheduler_gives_the_same_records_and_journal_lines() {
    let w = workload();
    let reference_path = fresh_path("pool-1");
    let reference = run_campaign_with(&w, &config(1), &journaled(&reference_path)).expect("pool");
    assert_eq!(
        reference.records.len() + reference.harness_failures.len(),
        RUNS
    );
    assert!(
        !reference.harness_failures.is_empty(),
        "the stream must carry harness failures too"
    );
    let reference_lines = untagged_lines(&reference_path);
    assert!(
        !reference_lines.iter().any(|l| l.contains("\"sec\"")),
        "plain campaigns journal untagged"
    );

    let mut runs: Vec<(&str, PathBuf, CampaignResult)> = Vec::new();
    let path = fresh_path("pool-4");
    runs.push((
        "pool, 4 threads",
        path.clone(),
        run_campaign_with(&w, &config(4), &journaled(&path)).expect("pool"),
    ));
    let path = fresh_path("chunks-1");
    runs.push((
        "chunks of 1",
        path.clone(),
        run_in_chunks(&w, &journaled(&path), vec![None; RUNS], 1),
    ));
    let path = fresh_path("chunks-7");
    let tagged = run_in_chunks(&w, &journaled(&path), synthetic_tags(), 7);
    assert!(
        records_all_tagged(&path),
        "every tagged record carries its own tag"
    );
    runs.push(("tagged chunks of 7", path, tagged));

    for (name, path, result) in runs {
        assert_eq!(result.records, reference.records, "{name}: records");
        assert_eq!(
            result.harness_failures, reference.harness_failures,
            "{name}: harness failures"
        );
        assert_eq!(result.resumed, 0, "{name}: a fresh journal resumes nothing");
        assert_eq!(
            untagged_lines(&path),
            reference_lines,
            "{name}: untagged journal lines"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
    std::fs::remove_file(&reference_path).expect("cleanup");
}

/// Cuts `full` at every line boundary and in the middle of every line;
/// after each cut, `resume` must rebuild `expected`, recovering exactly
/// the complete outcome lines kept and executing the rest.
fn sweep_cuts(
    name: &str,
    full: &Path,
    expected: &CampaignResult,
    resume: impl Fn(&CampaignOptions) -> CampaignResult,
) {
    let text = std::fs::read_to_string(full).expect("journal");
    let mut cuts = vec![0];
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        cuts.push(end + line.len() / 2);
        end += line.len();
        cuts.push(end);
    }
    let path = fresh_path(&format!("{name}-cut"));
    for cut in cuts {
        std::fs::write(&path, &text.as_bytes()[..cut]).expect("cut");
        let complete = text[..cut].matches('\n').count();
        let kept = complete.saturating_sub(1); // minus the header
        let result = resume(&journaled(&path));
        assert_eq!(result.records, expected.records, "{name} cut at {cut}");
        assert_eq!(result.harness_failures, expected.harness_failures);
        assert_eq!(result.resumed, kept, "{name} cut at {cut}: resumed");
        let lines = std::fs::read_to_string(&path)
            .expect("journal")
            .lines()
            .count();
        assert_eq!(
            lines - complete.max(1),
            RUNS - result.resumed,
            "{name} cut at {cut}: executed"
        );
        // The healed journal resumes completely, executing nothing.
        let again = resume(&journaled(&path));
        assert_eq!(again.resumed, RUNS, "{name} cut at {cut}: healed journal");
        assert_eq!(again.records, expected.records);
    }
    std::fs::remove_file(&path).expect("cleanup");
}

#[test]
fn journals_cut_anywhere_resume_to_the_same_records() {
    let w = workload();
    let plain_path = fresh_path("sweep-plain");
    let plain = run_campaign_with(&w, &config(1), &journaled(&plain_path)).expect("plain");
    sweep_cuts("plain", &plain_path, &plain, |options| {
        run_campaign_with(&w, &config(2), options).expect("plain resumes")
    });

    let tagged_path = fresh_path("sweep-tagged");
    let tagged = run_in_chunks(&w, &journaled(&tagged_path), synthetic_tags(), 7);
    assert_eq!(tagged.records, plain.records);
    sweep_cuts("tagged", &tagged_path, &tagged, |options| {
        run_in_chunks(&w, options, synthetic_tags(), 7)
    });
    assert!(
        records_all_tagged(&tagged_path),
        "resumed records keep their tags"
    );
    std::fs::remove_file(&plain_path).expect("cleanup");
    std::fs::remove_file(&tagged_path).expect("cleanup");
}

#[test]
fn partial_execution_is_incomplete() {
    let w = workload();
    let options = CampaignOptions {
        retry: RetryPolicy::no_retries(),
        ..CampaignOptions::default()
    };
    let plans = draw_plans(&w, &config(1), options.sampling).expect("plans");
    let tags = synthetic_tags();
    let chosen = tags[0];
    let selected: Vec<usize> = (0..RUNS).filter(|&i| tags[i] == chosen).collect();
    assert!(selected.len() < RUNS, "more than one tag has plans");

    // Only the chosen tag's plans run; finishing reports the rest.
    let runtime = CampaignRuntime::open(&w, &config(1), &options, None).expect("opens");
    runtime.append(plans.iter().copied().zip(tags.iter().copied()));
    let outcomes = runtime.run_chunk(&selected).expect("chunk");
    assert_eq!(outcomes.len(), selected.len());
    assert!(outcomes.iter().all(|(i, _)| tags[*i] == chosen));
    match runtime.finish() {
        Err(CampaignError::Incomplete { missing }) => assert_eq!(missing, RUNS - selected.len()),
        other => panic!("expected Incomplete, got {other:?}"),
    }
}

#[test]
fn rounds_are_thread_invariant_and_resume_at_global_indices_with_tags() {
    let w = workload();
    let profile = profile_sites(&w).expect("profile");
    let mut rng = StdRng::seed_from_u64(5);
    let rounds = [
        draw_uniform_site_plans(&profile, FaultModel::SingleBit, 12, &mut rng),
        draw_uniform_site_plans(&profile, FaultModel::SingleBit, 12, &mut rng),
    ];
    let config = |threads| CampaignConfig {
        runs: 24,
        seed: 5,
        threads,
        ..CampaignConfig::default()
    };
    let run = |threads: usize, path: &Path, upto: usize| {
        let runtime =
            CampaignRuntime::open(&w, &config(threads), &journaled(path), Some(12)).expect("opens");
        let mut resumed = Vec::new();
        for (round, plans) in rounds.iter().enumerate().take(upto) {
            let drawn = runtime.append(plans.iter().map(|&plan| (plan, Some(round as u32))));
            assert_eq!(drawn, round * 12..round * 12 + 12, "global indices");
            resumed.push(drawn.len() - runtime.pending().len());
            runtime.run_pool().expect("round runs");
        }
        (runtime.outcomes(), resumed)
    };

    let mut journals = Vec::new();
    let mut results = Vec::new();
    for threads in [1, 4] {
        let path = fresh_path(&format!("rounds-{threads}"));
        let (outcomes, resumed) = run(threads, &path, 2);
        assert_eq!(resumed, [0, 0]);
        assert!(outcomes.iter().map(|(i, _)| *i).eq(0..24));
        results.push(outcomes);
        journals.push(std::fs::read_to_string(&path).expect("journal"));
        std::fs::remove_file(&path).expect("cleanup");
    }
    assert_eq!(results[0], results[1], "thread count is invisible");
    assert_eq!(journals[0], journals[1], "round commits are plan-ordered");
    let header = journals[0].lines().next().expect("header");
    assert!(header.contains("\"sampling\":\"static\"") && header.contains("\"rounds\":12"));
    for line in journals[0].lines().skip(1) {
        let fields = Fields::parse(line).expect("flat JSON");
        let plan = fields.num("plan").expect("plan index");
        let round = (fields.kind() == "record").then_some(plan / 12);
        assert_eq!(fields.num("sec"), round, "plan {plan}'s round tag: {line}");
    }

    // A journal holding only round 0 resumes it at indices 0..12 and
    // executes round 1, tagged 1, at 12..24.
    let path = fresh_path("rounds-resume");
    run(1, &path, 1);
    let (outcomes, resumed) = run(4, &path, 2);
    assert_eq!(resumed, [12, 0]);
    assert_eq!(outcomes, results[0]);
    assert_eq!(
        std::fs::read_to_string(&path).expect("journal"),
        journals[0]
    );
    // Reopened whole, every round resumes.
    let (outcomes, resumed) = run(2, &path, 2);
    assert_eq!(resumed, [12, 12]);
    assert_eq!(outcomes, results[0]);
    std::fs::remove_file(&path).expect("cleanup");
}

//! `ipas` — command-line driver for the IPAS workflow.
//!
//! Protects a SciL program end to end: compiles it, runs the
//! fault-injection training campaign against a golden-output
//! verification routine, trains the classifier, applies selective
//! duplication, and writes the protected IR.
//!
//! ```text
//! USAGE:
//!   ipas protect <file.scil> [--runs N] [--eval N] [--top N]
//!                [--tolerance T] [--seed S] [--out FILE] [--policy P]
//!                [--model NAME|KEY]
//!   ipas train <file.scil> [--runs N] [--top N] [--seed S]
//!              [--tolerance T] [--policy ipas|baseline]
//!              [--save-model NAME]
//!   ipas models <list|verify|gc>   # requires IPAS_STORE_DIR
//!   ipas run <file.scil>            # compile + execute, print outputs
//!   ipas ir <file.scil> [--passes SPEC] [--stats] [--verify-each]
//!                                   # compile + print optimized IR
//!                                   # (--stats prints per-pass JSON)
//!   ipas passes list                # registered passes + default pipeline
//!   ipas passes verify [--passes SPEC]  # run the 5 workloads with
//!                                   # verification after every pass
//!   ipas inject <file.scil> --target K --bit B   # single fault run
//!   ipas explain <file.scil> [--runs N]    # per-instruction decisions
//!   ipas campaign <file.scil> [--runs N] [--seed S] [--fault-model M|all]
//!                 [--journal FILE]  # raw campaign, SOC/DDC/benign breakdown
//!                 [--adaptive [--round-runs N] [--entropy-tol T] [--patience P]]
//!                                   # margin-driven active-learning rounds
//!                                   # (see docs/active-learning.md)
//!   ipas fuzz [--runs N] [--seed S] [--oracle NAME]   # differential fuzzing
//!   ipas serve [--socket PATH] [--state DIR] [--threads N] [--shards N]
//!              [--chunk N] [--quota-runs N]   # campaign daemon (see
//!                                             # docs/serving.md)
//!   ipas client <submit <file.scil>|status ID|watch ID|cancel ID|stats|shutdown>
//!               [--socket PATH] [--kind K] [--watch] [--tenant T] ...
//! ```
//!
//! `--fault-model` (on `campaign`, `train`, `protect`, `explain`, and
//! `fuzz`) selects what each injection corrupts: `single-bit`
//! (default), `burst<W>` (W adjacent bits), `stuck-value`,
//! `load-value`, `store-value`, or `branch-flip`. `ipas campaign
//! --fault-model all` compares every model side by side. See
//! `docs/fault-models.md`.
//!
//! `--engine` selects the execution engine for every interpreted run:
//! `compiled` (default; the pre-decoded engine) or `reference` (the
//! tree-walking interpreter). Both produce bit-identical results — the
//! knob only trades throughput, and exists so any discrepancy can be
//! cross-checked against the reference semantics.
//!
//! A flag that the subcommand does not read, or a flag value that does
//! not parse, is an error that names the flag; nothing runs with a
//! default in its place.
//!
//! `--policy` selects `ipas` (default), `full`, or `baseline`.
//! The program's verified output stream is whatever it emits through
//! `output_i`/`output_f`; verification compares against the fault-free
//! run with float tolerance `--tolerance` (default 1e-9).
//!
//! When `IPAS_STORE_DIR` is set, every expensive stage (training
//! campaign, grid search, duplication, evaluation campaigns) is
//! memoized in the artifact store: re-running an identical command
//! resolves the stages from the store and performs zero injection runs
//! and zero SMO iterations. `ipas train --save-model NAME` registers
//! the best model under a human-chosen name; `ipas protect --model
//! NAME` reuses it without retraining.
//!
//! When `IPAS_JOURNAL_DIR` is set, every campaign `train` and `protect`
//! run (but `train --adaptive`) journals there, in a subdirectory per
//! program (a short fingerprint of the module text and the run
//! identity), created when missing; an interrupted command resumes when
//! re-run. `ipas campaign` journals only to an explicit `--journal FILE`.

use std::process::ExitCode;

use ipas::core::{
    campaign_summary, check_labels, classifier_stage, compare_fault_models, dataset_from_artifact,
    evaluation_stage, memoized_protect, module_fingerprint, render_model_table,
    run_campaign_adaptive, summary_key, train_top_configs, training_key, training_set_artifact,
    training_stage, with_run_identity, AdaptiveParams, AdaptiveResult, ExperimentError, LabelKind,
    ProtectionPolicy, TrainedClassifier,
};
use ipas::faultsim::{
    margin_of_error, run_campaign, run_campaign_with, CampaignConfig, CampaignOptions,
    CampaignResult, Engine, FaultModel, Outcome, Workload,
};
use ipas::interp::{CompiledMachine, CompiledProgram, Injection, Machine, RunConfig};
use ipas::store::{
    CacheOutcome, CampaignSummary, Fingerprint, Key, Store, TrainedModel, TrainingSet,
};
use ipas::svm::GridOptions;

/// The flags each subcommand reads; [`Args::parse`] refuses any other.
const FLAGS: &[(&str, &[&str])] = &[
    (
        "campaign",
        &[
            "adaptive",
            "engine",
            "entropy-tol",
            "fault-model",
            "journal",
            "patience",
            "round-runs",
            "runs",
            "seed",
            "tolerance",
        ],
    ),
    (
        "client",
        &[
            "adaptive",
            "deadline-ms",
            "engine",
            "eval",
            "fault-model",
            "kind",
            "module-key",
            "name",
            "policy",
            "runs",
            "seed",
            "socket",
            "tenant",
            "tolerance",
            "top",
            "watch",
        ],
    ),
    (
        "explain",
        &["engine", "fault-model", "runs", "seed", "tolerance"],
    ),
    ("fuzz", &["fault-model", "oracle", "runs", "seed"]),
    ("inject", &["bit", "engine", "target"]),
    ("ir", &["passes", "stats", "verify-each"]),
    ("models", &[]),
    ("passes", &["passes"]),
    (
        "protect",
        &[
            "engine",
            "eval",
            "fault-model",
            "model",
            "out",
            "policy",
            "runs",
            "seed",
            "tolerance",
            "top",
        ],
    ),
    ("run", &["engine"]),
    (
        "serve",
        &[
            "chunk",
            "quota-runs",
            "shards",
            "socket",
            "state",
            "threads",
        ],
    ),
    (
        "train",
        &[
            "adaptive",
            "engine",
            "entropy-tol",
            "fault-model",
            "patience",
            "policy",
            "round-runs",
            "runs",
            "save-model",
            "seed",
            "tolerance",
            "top",
        ],
    ),
];

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    /// Splits the command line into positionals and `--flag value`
    /// pairs.
    ///
    /// # Errors
    ///
    /// A message naming the first flag that no subcommand reads, or
    /// that the subcommand given (see [`FLAGS`]) does not read.
    fn parse() -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                // Valueless flags (--stats, --verify-each) must not
                // swallow a following flag as their value.
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap_or_default(),
                    _ => String::new(),
                };
                pairs.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        let own = positional
            .first()
            .and_then(|cmd| FLAGS.iter().find(|(c, _)| c == cmd));
        for (name, _) in &pairs {
            if !FLAGS
                .iter()
                .any(|(_, flags)| flags.contains(&name.as_str()))
            {
                return Err(format!("unknown flag `--{name}`"));
            }
            if let Some((cmd, flags)) = own {
                if !flags.contains(&name.as_str()) {
                    return Err(format!("`ipas {cmd}` does not read `--{name}`"));
                }
            }
        }
        Ok(Args {
            positional,
            flags: pairs.into_iter().collect(),
        })
    }

    /// The value of `--name`, or `default` when the flag is absent.
    /// Exits with an error naming the flag when the value does not
    /// parse.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let Some(value) = self.flags.get(name) else {
            return default;
        };
        value.parse().unwrap_or_else(|_| {
            match value.as_str() {
                "" => eprintln!("ipas: `--{name}` needs a value"),
                _ => eprintln!("ipas: invalid value `{value}` for `--{name}`"),
            }
            std::process::exit(1)
        })
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ipas <protect|train|run|ir|inject|explain|campaign> <file.scil> [--runs N] \
         [--eval N] [--top N] [--tolerance T] [--seed S] [--out FILE] \
         [--policy ipas|full|baseline] [--model NAME|KEY] [--save-model NAME] [--target K] \
         [--bit B]\n\
         \x20      [--engine reference|compiled] [--fault-model M]\n\
         \x20      ipas campaign <file.scil> [--runs N] [--seed S] [--fault-model M|all]\n\
         \x20                    [--journal FILE]   # raw campaign + SOC/DDC/benign breakdown\n\
         \x20                    [--adaptive [--round-runs N] [--entropy-tol T] [--patience P]]\n\
         \x20                    # margin-driven active-learning rounds (also on `train`)\n\
         \x20      ipas ir <file.scil> [--passes SPEC] [--stats] [--verify-each]\n\
         \x20      ipas passes <list|verify> [--passes SPEC]\n\
         \x20      ipas models <list|verify|gc>   (requires IPAS_STORE_DIR)\n\
         \x20      ipas fuzz [--runs N] [--seed S] [--oracle NAME] [--fault-model M]\n\
         \x20      ipas serve [--socket PATH] [--state DIR] [--threads N] [--shards N]\n\
         \x20                 [--chunk N] [--quota-runs N]   # campaign daemon\n\
         \x20      ipas client <submit <file.scil>|status ID|watch ID|cancel ID|stats|shutdown>\n\
         \x20                  [--socket PATH] [--kind campaign|protect|train|eval] [--watch]\n\
         \x20                  [--tenant T] [--name N] [--module-key KEY] [--deadline-ms MS]\n\
         \x20                  [--adaptive]   # campaign jobs: active-learning rounds\n\
         fault models M: single-bit (default), burst<W>, stuck-value, load-value, store-value, \
         branch-flip"
    );
    ExitCode::FAILURE
}

/// Parses `--fault-model` (default single-bit).
fn parse_fault_model(args: &Args) -> Result<FaultModel, ExitCode> {
    match args.flags.get("fault-model") {
        None => Ok(FaultModel::default()),
        Some(v) => v.parse().map_err(|e: String| {
            eprintln!("ipas: {e}");
            ExitCode::FAILURE
        }),
    }
}

/// Opens the store named by `IPAS_STORE_DIR`, exiting loudly on error.
fn store_from_env() -> Result<Option<Store>, ExitCode> {
    match Store::from_env() {
        Ok(s) => Ok(s),
        Err(e) => {
            eprintln!("ipas: cannot open artifact store: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn log_stage(stage: &str, outcome: CacheOutcome, key: &Key) {
    eprintln!(
        "[ipas] store: {stage} stage {} ({})",
        outcome.label(),
        key.short()
    );
}

/// Resolves `--model`: a registry name first, then a raw store key.
fn resolve_model(store: &Store, spec: &str) -> Result<(Key, TrainedClassifier), String> {
    let entry = store
        .registry()
        .lookup(spec)
        .map_err(|e| format!("registry lookup failed: {e}"))?;
    let key = match entry {
        Some(e) => e.key,
        None => Key::parse(spec)
            .map_err(|_| format!("`{spec}` is neither a registered model name nor a store key"))?,
    };
    let artifact = store
        .get::<TrainedModel>(&key)
        .map_err(|e| format!("cannot load model {key}: {e}"))?
        .ok_or_else(|| format!("no trained-model artifact under key {key}"))?;
    let model = TrainedClassifier::from_export(&artifact)
        .map_err(|e| format!("model {key} is inconsistent: {e}"))?;
    Ok((key, model))
}

/// Renders a stage failure; single-class training data asks for more
/// runs.
fn stage_error(e: ExperimentError) -> String {
    match e {
        ExperimentError::DegenerateTraining(_) => {
            "degenerate training labels; raise --runs".to_string()
        }
        other => other.to_string(),
    }
}

/// The directory `train` and `protect` journal their campaigns in:
/// `IPAS_JOURNAL_DIR` plus one subdirectory per program, named by a
/// short fingerprint of the module text and the run identity. Every CLI
/// workload is named `cli`, so programs that cannot share a journal
/// must not share a directory.
fn program_journal_dir(workload: &Workload) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("IPAS_JOURNAL_DIR")?;
    let program = with_run_identity(&module_fingerprint(&workload.module), workload);
    Some(std::path::PathBuf::from(dir).join(program.short()))
}

/// The training stage with its progress and store lines. Returns the
/// training set and the campaign key the classifier stage chains from.
fn collect_training_set(
    store: Option<&Store>,
    workload: &Workload,
    config: &CampaignConfig,
    journal_dir: Option<&std::path::Path>,
) -> Result<(TrainingSet, Fingerprint), String> {
    eprintln!("[ipas] training campaign: {} injections ...", config.runs);
    let (set, key, outcome) =
        training_stage(store, workload, config, journal_dir).map_err(stage_error)?;
    if store.is_some() {
        log_stage("campaign", outcome, &Key::of(&key));
    }
    Ok((set, key))
}

/// The classifier stage with its training-set and store lines. Returns
/// the models best first and the best model's key.
fn fit_classifiers(
    store: Option<&Store>,
    set: &TrainingSet,
    campaign_key: &Fingerprint,
    label: LabelKind,
    top: usize,
) -> Result<(Vec<TrainedClassifier>, Key), String> {
    let data = dataset_from_artifact(set, label);
    eprintln!(
        "[ipas] training set: {} samples, {:.1}% positive",
        data.len(),
        data.positive_fraction() * 100.0
    );
    let (models, key, outcome) = classifier_stage(
        store,
        &data,
        campaign_key,
        label,
        &GridOptions::quick(),
        top,
    )
    .map_err(stage_error)?;
    if store.is_some() {
        log_stage("training", outcome, &Key::of(&key));
    }
    Ok((models, Key::ranked(&key, 0)))
}

fn models_command(args: &Args) -> ExitCode {
    let action = args.positional.get(1).map(String::as_str).unwrap_or("list");
    let store = match store_from_env() {
        Ok(Some(s)) => s,
        Ok(None) => {
            eprintln!("ipas: `ipas models` needs IPAS_STORE_DIR to point at an artifact store");
            return ExitCode::FAILURE;
        }
        Err(code) => return code,
    };
    match action {
        "list" => {
            let entries = match store.list() {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("ipas: cannot list store: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{:<18} {:>9}  key", "kind", "bytes");
            for e in &entries {
                println!("{:<18} {:>9}  {}", e.kind.tag(), e.bytes, e.key);
            }
            match store.registry().entries() {
                Ok(named) if !named.is_empty() => {
                    println!("\nregistered models:");
                    for n in named {
                        println!("  {:<20} {} ({})", n.name, n.key.short(), n.note);
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("ipas: registry unreadable: {e}");
                    return ExitCode::FAILURE;
                }
            }
            eprintln!(
                "[ipas] {} artifacts in {}",
                entries.len(),
                store.root().display()
            );
            ExitCode::SUCCESS
        }
        "verify" => {
            let reports = match store.verify() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ipas: cannot verify store: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut bad = 0usize;
            for r in &reports {
                match &r.status {
                    Ok(schema) => println!(
                        "ok       {:<18} {} (schema {schema})",
                        r.entry.kind.tag(),
                        r.entry.key
                    ),
                    Err(e) => {
                        bad += 1;
                        println!("CORRUPT  {:<18} {}: {e}", r.entry.kind.tag(), r.entry.key);
                    }
                }
            }
            eprintln!(
                "[ipas] verified {} artifacts, {} damaged",
                reports.len(),
                bad
            );
            if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "gc" => {
            let report = match store.gc() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ipas: gc failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (kind, key) in &report.removed {
                println!("removed {:<18} {key}", kind.tag());
            }
            eprintln!(
                "[ipas] gc: kept {} registered, {} in use, swept {} stale tmp, \
                 removed {} unreferenced",
                report.kept,
                report.in_use,
                report.stale_tmp,
                report.removed.len()
            );
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("ipas: unknown models action `{other}` (expected list|verify|gc)");
            ExitCode::FAILURE
        }
    }
}

/// Runs `module` once on the selected engine.
fn execute(
    module: &ipas::ir::Module,
    engine: Engine,
    config: &RunConfig,
) -> Result<ipas::interp::RunOutput, ipas::interp::RunError> {
    match engine {
        Engine::Reference => Machine::new(module).run(config),
        Engine::Compiled => {
            let program = CompiledProgram::compile(module);
            CompiledMachine::new(&program).run(config)
        }
    }
}

/// Prints the SOC/DDC/benign breakdown to stdout. Shared verbatim by
/// the classic and `--adaptive` campaign paths.
fn print_breakdown(fault_model: FaultModel, summary: &CampaignSummary) {
    // §5.5 outcome slots: [symptom, detected, masked, soc].
    let classified: u64 = summary.counts.iter().sum();
    let soc = summary.counts[3];
    let ddc = summary.counts[0] + summary.counts[1];
    let benign = summary.counts[2];
    let moe = margin_of_error(summary.fraction(3), classified as usize);
    println!(
        "model {fault_model}: {classified} classified runs, {} harness failures",
        summary.harness_failures
    );
    println!(
        "  SOC    {soc:>6}  ({:.2}% ± {:.2}%)",
        summary.fraction(3) * 100.0,
        moe * 100.0
    );
    println!(
        "  DDC    {ddc:>6}  (detected {} + symptom {})",
        summary.counts[1], summary.counts[0]
    );
    println!("  benign {benign:>6}");
}

/// `ipas campaign` — a raw fault-injection campaign (no training, no
/// protection) with a SOC/DDC/Benign breakdown. `--fault-model all`
/// runs one campaign per model and prints the comparison table with
/// per-model classifier F-scores against the single-bit baseline.
fn campaign_command(args: &Args, module: ipas::ir::Module, engine: Engine) -> ExitCode {
    let runs = args.get("runs", 400usize);
    let seed = args.get("seed", 2016u64);
    let tolerance = args.get("tolerance", 1e-9f64);
    let workload = match Workload::serial("cli", module, tolerance) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("ipas: golden run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[ipas] golden run: {} dynamic insts — {} value sites, {} loads, {} stores, {} branches",
        workload.nominal_insts,
        workload.eligible_results,
        workload.loads,
        workload.stores,
        workload.cond_branches
    );

    if args.flags.get("fault-model").map(String::as_str) == Some("all") {
        if args.flags.contains_key("journal") {
            eprintln!("ipas: --journal is per-model; use a single --fault-model with it");
            return ExitCode::FAILURE;
        }
        if args.flags.contains_key("adaptive") {
            eprintln!("ipas: --adaptive needs a single --fault-model, not `all`");
            return ExitCode::FAILURE;
        }
        let base = CampaignConfig {
            runs,
            seed,
            threads: 0,
            engine,
            fault_model: FaultModel::default(),
        };
        eprintln!(
            "[ipas] comparing {} fault models, {runs} injections each ...",
            FaultModel::ALL.len()
        );
        match compare_fault_models(&workload, &base, &FaultModel::ALL, &GridOptions::quick()) {
            Ok(rows) => {
                print!("{}", render_model_table(&rows));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ipas: campaign failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let fault_model = match parse_fault_model(args) {
            Ok(m) => m,
            Err(code) => return code,
        };
        let config = CampaignConfig {
            runs,
            seed,
            threads: 0,
            engine,
            fault_model,
        };
        let options = CampaignOptions {
            journal: args
                .flags
                .get("journal")
                .map(std::path::PathBuf::from)
                .filter(|p| !p.as_os_str().is_empty()),
            ..CampaignOptions::default()
        };
        let store = match store_from_env() {
            Ok(s) => s,
            Err(code) => return code,
        };
        let adaptive = args.flags.contains_key("adaptive");
        let run = || -> Result<CampaignSummary, String> {
            let result = if adaptive {
                adaptive_campaign(args, &workload, &config, &options)?
            } else {
                eprintln!("[ipas] campaign: {runs} {fault_model} injections ...");
                run_campaign_with(&workload, &config, &options)
                    .map_err(|e| format!("campaign failed: {e}"))?
            };
            eprintln!("[ipas] checkpoints: {}", result.checkpoints);
            if result.resumed > 0 {
                eprintln!(
                    "[ipas] journal: {} records resumed from disk",
                    result.resumed
                );
            }
            Ok(campaign_summary("cli", &config, &result))
        };
        // Plain runs memoize their summary under a model-aware key when
        // a store is configured; journaled runs always execute (the
        // journal file is the point).
        let summary = match &store {
            Some(store) if !adaptive && options.journal.is_none() => {
                let key = summary_key(&workload, &config);
                store
                    .memoize(&key, run)
                    .map(|(summary, outcome)| {
                        log_stage("campaign", outcome, &key);
                        summary
                    })
                    .map_err(|e| match e {
                        ipas::store::MemoError::Store(e) => format!("artifact store failed: {e}"),
                        ipas::store::MemoError::Compute(e) => e,
                    })
            }
            _ => run(),
        };
        let summary = match summary {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ipas: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_breakdown(fault_model, &summary);
        if let Some(path) = &options.journal {
            eprintln!("[ipas] journal written to {}", path.display());
        }
        ExitCode::SUCCESS
    }
}

/// Reads `--round-runs`, `--entropy-tol`, and `--patience` over the
/// budget defaults, shared by `ipas campaign --adaptive` and
/// `ipas train --adaptive`.
fn adaptive_params(args: &Args, runs: usize) -> AdaptiveParams {
    let mut params = AdaptiveParams::for_budget(runs);
    params.round_runs = args.get("round-runs", params.round_runs).max(1);
    params.entropy_tol = args.get("entropy-tol", params.entropy_tol);
    params.patience = args.get("patience", params.patience);
    params
}

/// Per-round stderr report shared by the adaptive campaign and train
/// paths.
fn print_rounds(out: &AdaptiveResult, budget: usize) {
    for r in &out.rounds {
        eprintln!(
            "[ipas] round {}: {} plans ({}), label entropy {:.3}, \
             {} resumed, {} executed",
            r.round,
            r.drawn,
            r.sampling.label(),
            r.entropy,
            r.resumed,
            r.executed
        );
    }
    let drawn: usize = out.rounds.iter().map(|r| r.drawn).sum();
    eprintln!(
        "[ipas] adaptive: {} rounds, {drawn} of {budget} budgeted runs{}",
        out.rounds.len(),
        if out.stopped_early {
            " (stopped early: label entropy stable)"
        } else {
            ""
        }
    );
}

/// `ipas campaign --adaptive`: a uniform seed round, then rounds drawn
/// from a margin-weighted site distribution under a freshly retrained
/// classifier, stopping when the label entropy stabilizes. Round
/// reports go to stderr; stdout keeps the shared breakdown format.
fn adaptive_campaign(
    args: &Args,
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
) -> Result<CampaignResult, String> {
    let params = adaptive_params(args, config.runs);
    eprintln!(
        "[ipas] campaign: adaptive, budget {} {} injections in rounds of {} ...",
        config.runs, config.fault_model, params.round_runs
    );
    let out = run_campaign_adaptive(workload, config, options, &params)
        .map_err(|e| format!("campaign failed: {e}"))?;
    print_rounds(&out, config.runs);
    Ok(out.result)
}

fn fuzz_command(args: &Args) -> ExitCode {
    let runs = args.get("runs", 500u64);
    let seed = args.get("seed", 2016u64);
    let oracles = match args.flags.get("oracle") {
        None => ipas::fuzz::OracleKind::ALL.to_vec(),
        Some(name) => match ipas::fuzz::OracleKind::from_name(name) {
            Some(o) => vec![o],
            None => {
                let known: Vec<&str> = ipas::fuzz::OracleKind::ALL
                    .iter()
                    .map(|o| o.name())
                    .collect();
                eprintln!(
                    "ipas: unknown oracle `{name}`; expected one of {}",
                    known.join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let fault_model = match args.flags.get("fault-model") {
        None => None,
        Some(v) => match v.parse::<FaultModel>() {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("ipas: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let report = ipas::fuzz::run_fuzz(ipas::fuzz::FuzzConfig {
        runs,
        seed,
        oracles,
        fault_model,
    });
    println!("{}", report.summary());
    for f in &report.findings {
        eprintln!(
            "\n[ipas] finding: {} oracle, case {} ({} input)",
            f.oracle.name(),
            f.case,
            f.input_kind
        );
        eprintln!("  {}", f.divergence);
        if let Some(key) = &f.store_key {
            eprintln!("  repro persisted under store key {key}");
        }
        eprintln!("  minimized repro:");
        for line in f.minimized.lines() {
            eprintln!("    {line}");
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `ipas passes <list|verify>` — introspection over the pass-manager
/// registry. `list` prints every registered pass; `verify` compiles the
/// five paper workloads unoptimized and runs the pipeline (default or
/// `--passes SPEC`) with verification interleaved after every pass
/// application.
fn passes_command(args: &Args) -> ExitCode {
    use ipas::ir::passmgr::{pass_descriptions, PassManager, PipelineSpec, DEFAULT_PIPELINE};
    let action = args.positional.get(1).map(String::as_str).unwrap_or("list");
    match action {
        "list" => {
            println!("registered function passes:");
            for (name, what) in pass_descriptions() {
                println!("  {name:<14} {what}");
            }
            println!("module passes:");
            println!(
                "  {:<14} IPAS selective duplication (appended by protection policies)",
                "duplicate"
            );
            println!("default pipeline: {DEFAULT_PIPELINE}");
            ExitCode::SUCCESS
        }
        "verify" => {
            let spec = match args.flags.get("passes") {
                None => PipelineSpec::default_optimization(),
                Some(text) => match PipelineSpec::parse(text) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("ipas: invalid --passes spec: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let mut failed = false;
            for kind in ipas::workloads::Kind::ALL {
                let src = ipas::workloads::sources::source(kind);
                let mut module = match ipas::lang::compile_unoptimized(src, kind.name()) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("[ipas] {}: does not compile: {e}", kind.name());
                        failed = true;
                        continue;
                    }
                };
                let mut pm = match PassManager::from_spec(&spec) {
                    Ok(pm) => pm,
                    Err(e) => {
                        eprintln!("ipas: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                pm.set_verify_each(true);
                match pm.run_module(&mut module) {
                    Ok(_) => eprintln!(
                        "[ipas] {}: ok — {} pass executions, {} skipped, verified after each",
                        kind.name(),
                        pm.stats().executions,
                        pm.stats().skipped
                    ),
                    Err(e) => {
                        eprintln!("[ipas] {}: FAILED: {e}", kind.name());
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

/// `ipas ir` with pipeline flags: compiles the program *unoptimized*,
/// runs the requested pipeline through the pass manager, then prints
/// the optimized IR — or, with `--stats`, the per-pass statistics JSON.
fn ir_pipeline_command(args: &Args, source: &str, path: &str) -> ExitCode {
    use ipas::ir::passmgr::{PassManager, PipelineSpec};
    let spec = match args.flags.get("passes") {
        None => PipelineSpec::default_optimization(),
        Some(text) => match PipelineSpec::parse(text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ipas: invalid --passes spec: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut module = match ipas::lang::compile_unoptimized(source, "scil") {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ipas: {path}:{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut pm = match PassManager::from_spec(&spec) {
        Ok(pm) => pm,
        Err(e) => {
            eprintln!("ipas: {e}");
            return ExitCode::FAILURE;
        }
    };
    pm.set_verify_each(args.flags.contains_key("verify-each"));
    pm.set_timing(args.flags.contains_key("stats"));
    if let Err(e) = pm.run_module(&mut module) {
        eprintln!("ipas: pipeline failed: {e}");
        return ExitCode::FAILURE;
    }
    if args.flags.contains_key("stats") {
        println!("{}", pm.stats().to_json(&pm.describe()));
    } else {
        print!("{module}");
    }
    ExitCode::SUCCESS
}

/// `ipas serve`: run the campaign daemon until SIGTERM/SIGINT or a
/// client-requested shutdown, then print what it did.
fn serve_command(args: &Args) -> ExitCode {
    let config = ipas::serve::DaemonConfig {
        socket: args.get("socket", "ipas-serve.sock".to_string()).into(),
        state_dir: args.get("state", "ipas-serve-state".to_string()).into(),
        threads: args.get("threads", 0usize),
        shards: args.get("shards", 0usize),
        chunk: args.get("chunk", 32usize),
        quota_runs: args.get("quota-runs", 0u64),
    };
    eprintln!(
        "[ipas] serve: listening on {} (state {})",
        config.socket.display(),
        config.state_dir.display()
    );
    match ipas::serve::run_daemon(config) {
        Ok(report) => {
            eprintln!(
                "[ipas] serve: exiting — {} jobs, {} injection runs executed, \
                 {} tasks abandoned for restart-resume",
                report.jobs, report.executed_runs, report.abandoned_tasks
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ipas: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `ipas client <submit|status|watch|cancel|stats|shutdown>`: talk to a
/// running daemon. Artifact payloads go to stdout, progress to stderr.
fn client_command(args: &Args) -> ExitCode {
    use ipas::core::jobspec::{JobKind, JobSpec};

    let Some(action) = args.positional.get(1).map(String::as_str) else {
        eprintln!("ipas: client needs an action (submit|status|watch|cancel|stats|shutdown)");
        return ExitCode::FAILURE;
    };
    let client = ipas::serve::Client::new(args.get("socket", "ipas-serve.sock".to_string()));
    let fail = |e: ipas::serve::ServeError| {
        eprintln!("ipas: {e}");
        ExitCode::FAILURE
    };
    match action {
        "submit" => {
            let Some(path) = args.positional.get(2) else {
                eprintln!("ipas: client submit needs a <file.scil> argument");
                return ExitCode::FAILURE;
            };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ipas: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let kind_label = args.get("kind", "protect".to_string());
            let Some(kind) = JobKind::from_label(&kind_label) else {
                eprintln!(
                    "ipas: unknown job kind `{kind_label}` (expected \
                     campaign|protect|train|eval)"
                );
                return ExitCode::FAILURE;
            };
            let default_name = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "job".to_string());
            let mut spec = JobSpec::new(
                kind,
                &args.get("tenant", "default".to_string()),
                &args.get("name", default_name),
                &source,
            );
            spec.runs = args.get("runs", 400usize);
            spec.eval_runs = args.get("eval", spec.runs);
            spec.top = args.get("top", 1usize);
            spec.seed = args.get("seed", 2016u64);
            spec.tolerance = args.get("tolerance", 1e-9f64);
            spec.policy = args.get("policy", "ipas".to_string());
            spec.deadline_ms = args.get("deadline-ms", 0u64);
            spec.engine = match args.flags.get("engine") {
                None => Engine::default(),
                Some(v) => match v.parse() {
                    Ok(engine) => engine,
                    Err(e) => {
                        eprintln!("ipas: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            spec.fault_model = match parse_fault_model(args) {
                Ok(fm) => fm,
                Err(code) => return code,
            };
            spec.module_key = args.flags.get("module-key").cloned();
            spec.adaptive = args.flags.contains_key("adaptive");
            if let Err(e) = spec.validate() {
                eprintln!("ipas: invalid job: {e}");
                return ExitCode::FAILURE;
            }
            let watch = args.flags.contains_key("watch");
            let mut stdout = std::io::stdout();
            let mut stderr = std::io::stderr();
            match client.submit(&spec, watch, &mut stdout, &mut stderr) {
                Ok(outcome) => {
                    eprintln!(
                        "[ipas] client: job {} {}",
                        outcome.id,
                        if outcome.coalesced {
                            "coalesced onto an identical in-flight job"
                        } else {
                            "accepted"
                        }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "status" | "cancel" => {
            let Some(id) = args.positional.get(2) else {
                eprintln!("ipas: client {action} needs a <job-id> argument");
                return ExitCode::FAILURE;
            };
            let result = if action == "status" {
                client.status(id)
            } else {
                client.cancel(id)
            };
            match result {
                Ok(line) => {
                    print!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "watch" => {
            let Some(id) = args.positional.get(2) else {
                eprintln!("ipas: client watch needs a <job-id> argument");
                return ExitCode::FAILURE;
            };
            let mut stdout = std::io::stdout();
            let mut stderr = std::io::stderr();
            match client.watch(id, &mut stdout, &mut stderr) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(e),
            }
        }
        "stats" | "shutdown" => {
            let result = if action == "stats" {
                client.stats()
            } else {
                client.shutdown()
            };
            match result {
                Ok(line) => {
                    print!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        other => {
            eprintln!(
                "ipas: unknown client action `{other}` \
                 (expected submit|status|watch|cancel|stats|shutdown)"
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ipas: {e}");
            return usage();
        }
    };
    let Some(cmd) = args.positional.first() else {
        return usage();
    };
    let engine = match args.flags.get("engine") {
        None => Engine::default(),
        Some(v) => match v.parse::<Engine>() {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("ipas: {e}");
                return usage();
            }
        },
    };
    if cmd == "models" {
        return models_command(&args);
    }
    if cmd == "fuzz" {
        return fuzz_command(&args);
    }
    if cmd == "passes" {
        return passes_command(&args);
    }
    if cmd == "serve" {
        return serve_command(&args);
    }
    if cmd == "client" {
        return client_command(&args);
    }
    let Some(path) = args.positional.get(1) else {
        return usage();
    };
    if !matches!(
        cmd.as_str(),
        "protect" | "train" | "run" | "ir" | "inject" | "explain" | "campaign"
    ) {
        return usage();
    }
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ipas: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let module = match ipas::lang::compile(&source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ipas: {path}:{e}");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "campaign" => campaign_command(&args, module, engine),
        "ir" => {
            let pipeline_flags = ["passes", "stats", "verify-each"];
            if pipeline_flags.iter().any(|f| args.flags.contains_key(*f)) {
                ir_pipeline_command(&args, &source, path)
            } else {
                print!("{module}");
                ExitCode::SUCCESS
            }
        }
        "run" => {
            let out = match execute(&module, engine, &RunConfig::default()) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("ipas: run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for v in out.outputs.as_ints() {
                println!("{v}");
            }
            for v in out.outputs.as_floats() {
                println!("{v}");
            }
            eprintln!(
                "[ipas] status {:?}, {} dynamic instructions",
                out.status, out.dynamic_insts
            );
            ExitCode::SUCCESS
        }
        "inject" => {
            let target = args.get("target", 0u64);
            let bit = args.get("bit", 0u32);
            let out = match execute(
                &module,
                engine,
                &RunConfig {
                    injection: Some(Injection::at_global_index(target, bit)),
                    max_insts: 500_000_000,
                    ..RunConfig::default()
                },
            ) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("ipas: injected run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "[ipas] injected bit {bit} at eligible result {target} (site {:?})",
                out.injected_site
            );
            eprintln!("[ipas] status {:?}", out.status);
            for v in out.outputs.as_ints() {
                println!("{v}");
            }
            for v in out.outputs.as_floats() {
                println!("{v}");
            }
            ExitCode::SUCCESS
        }
        "explain" => {
            let runs = args.get("runs", 400usize);
            let seed = args.get("seed", 2016u64);
            let fault_model = match parse_fault_model(&args) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let workload = match Workload::serial("cli", module, args.get("tolerance", 1e-9f64)) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("ipas: golden run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("[ipas] training campaign: {runs} injections ...");
            let campaign = match run_campaign(
                &workload,
                &CampaignConfig {
                    runs,
                    seed,
                    threads: 0,
                    engine,
                    fault_model,
                },
            ) {
                Ok(campaign) => campaign,
                Err(err) => {
                    eprintln!("ipas: training campaign failed: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let data = ipas::core::build_training_set(
                &workload,
                &campaign.records,
                LabelKind::SocGenerating,
            );
            if let Err(e) = check_labels(&data, LabelKind::SocGenerating) {
                eprintln!("ipas: {}", stage_error(e));
                return ExitCode::FAILURE;
            }
            let model = match train_top_configs(&data, &GridOptions::quick(), 1)
                .into_iter()
                .next()
            {
                Some(model) => model,
                None => {
                    eprintln!("ipas: training produced no model (empty grid)");
                    return ExitCode::FAILURE;
                }
            };
            let extractor = ipas::analysis::FeatureExtractor::new(&workload.module);
            // Observed outcomes per site, for context next to predictions.
            let mut observed: std::collections::HashMap<_, [usize; 4]> =
                std::collections::HashMap::new();
            for rec in &campaign.records {
                let slot = match rec.outcome {
                    Outcome::Symptom => 0,
                    Outcome::Detected => 1,
                    Outcome::Masked => 2,
                    Outcome::Soc => 3,
                };
                observed.entry(rec.site).or_insert([0; 4])[slot] += 1;
            }
            println!(
                "{:<10} {:>5} {:<8} {:>8} {:>6} {:>6}",
                "function", "inst", "opcode", "protect?", "SOC", "hits"
            );
            for (fid, func) in workload.module.functions() {
                for bb in func.block_ids() {
                    for &id in func.block(bb).insts() {
                        if !ipas::core::duplicable(func.inst(id)) {
                            continue;
                        }
                        let fv = extractor.extract(fid, id);
                        let protect = model.predict_features(&fv);
                        let counts = observed.get(&(fid, id)).copied().unwrap_or([0; 4]);
                        let hits: usize = counts.iter().sum();
                        println!(
                            "{:<10} {:>5} {:<8} {:>8} {:>6} {:>6}",
                            func.name(),
                            id.index(),
                            func.inst(id).opcode_name(),
                            if protect { "yes" } else { "-" },
                            counts[3],
                            hits
                        );
                    }
                }
            }
            eprintln!(
                "[ipas] classifier C={:.1} gamma={:.4} F-score={:.3} (SOC column = observed SOC outcomes among `hits` sampled injections at that site)",
                model.score().params.c,
                model.score().params.gamma,
                model.score().f_score
            );
            ExitCode::SUCCESS
        }
        "train" => {
            let tolerance = args.get("tolerance", 1e-9f64);
            let runs = args.get("runs", 400usize);
            let top = args.get("top", 3usize);
            let seed = args.get("seed", 2016u64);
            let fault_model = match parse_fault_model(&args) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let policy_name = args
                .flags
                .get("policy")
                .cloned()
                .unwrap_or_else(|| "ipas".into());
            let label = match policy_name.as_str() {
                "ipas" => LabelKind::SocGenerating,
                "baseline" => LabelKind::SymptomGenerating,
                other => {
                    eprintln!("ipas: cannot train policy `{other}` (expected ipas|baseline)");
                    return ExitCode::FAILURE;
                }
            };
            let store = match store_from_env() {
                Ok(s) => s,
                Err(code) => return code,
            };
            let save_as = args.flags.get("save-model");
            if save_as.is_some() && store.is_none() {
                eprintln!("ipas: --save-model needs IPAS_STORE_DIR to point at an artifact store");
                return ExitCode::FAILURE;
            }
            let adaptive = args.flags.contains_key("adaptive");
            if adaptive && save_as.is_some() {
                // Adaptive data collection bypasses the memoized stages
                // (its sampling depends on live labels), so there is no
                // stored artifact for the registry to reference.
                eprintln!("ipas: --save-model is not supported with --adaptive yet");
                return ExitCode::FAILURE;
            }

            let workload = match Workload::serial("cli", module, tolerance) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("ipas: golden run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let config = CampaignConfig {
                runs,
                seed,
                threads: 0,
                engine,
                fault_model,
            };
            let (set, campaign_key) = if adaptive {
                let params = adaptive_params(&args, runs);
                eprintln!(
                    "[ipas] training campaign: adaptive, budget {runs} injections \
                     in rounds of {} ...",
                    params.round_runs
                );
                match run_campaign_adaptive(
                    &workload,
                    &config,
                    &CampaignOptions::default(),
                    &params,
                ) {
                    Ok(out) => {
                        print_rounds(&out, runs);
                        (
                            training_set_artifact(&workload, &out.result),
                            training_key(&workload, &config),
                        )
                    }
                    Err(e) => {
                        eprintln!("ipas: training campaign failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                let journal_dir = program_journal_dir(&workload);
                match collect_training_set(
                    store.as_ref(),
                    &workload,
                    &config,
                    journal_dir.as_deref(),
                ) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("ipas: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            // Adaptive training sets are sampling-dependent, so they
            // must not share the uniform campaign's memoization keys.
            let model_store = if adaptive { None } else { store.as_ref() };
            let (models, best_key) =
                match fit_classifiers(model_store, &set, &campaign_key, label, top) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("ipas: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            let Some(best) = models.first() else {
                eprintln!("ipas: training produced no model (empty grid)");
                return ExitCode::FAILURE;
            };
            eprintln!(
                "[ipas] best config: C={:.1} gamma={:.4} F-score={:.3} ({} support vectors)",
                best.score().params.c,
                best.score().params.gamma,
                best.score().f_score,
                best.svm().num_support_vectors()
            );
            if let (Some(name), Some(store)) = (save_as, &store) {
                let note = format!("{policy_name} model for {path}");
                if let Err(e) = store.registry().register(
                    name,
                    ipas::store::ArtifactKind::TrainedModel,
                    &best_key,
                    &note,
                ) {
                    eprintln!("ipas: cannot register model `{name}`: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[ipas] model saved as `{name}` -> {}", best_key.short());
            }
            ExitCode::SUCCESS
        }
        "protect" => {
            let tolerance = args.get("tolerance", 1e-9f64);
            let runs = args.get("runs", 400usize);
            let eval_runs = args.get("eval", 192usize);
            let top = args.get("top", 3usize);
            let seed = args.get("seed", 2016u64);
            let fault_model = match parse_fault_model(&args) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let policy_name = args
                .flags
                .get("policy")
                .cloned()
                .unwrap_or_else(|| "ipas".into());
            let store = match store_from_env() {
                Ok(s) => s,
                Err(code) => return code,
            };
            if let Some(store) = &store {
                eprintln!("[ipas] artifact store: {}", store.root().display());
            }

            let workload = match Workload::serial("cli", module, tolerance) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("ipas: golden run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "[ipas] golden run: {} dynamic insts, {} eligible fault sites",
                workload.nominal_insts, workload.eligible_results
            );
            let journal_dir = program_journal_dir(&workload);

            // Steps 2-3: campaign + classifier (not needed for `full`).
            let (policy, model_key) = match policy_name.as_str() {
                "full" => (ProtectionPolicy::FullDuplication, None),
                name @ ("ipas" | "baseline") => {
                    let label = if name == "ipas" {
                        LabelKind::SocGenerating
                    } else {
                        LabelKind::SymptomGenerating
                    };
                    let (best, key) = if let Some(spec) = args.flags.get("model") {
                        let Some(store) = &store else {
                            eprintln!(
                                "ipas: --model needs IPAS_STORE_DIR to point at an artifact store"
                            );
                            return ExitCode::FAILURE;
                        };
                        match resolve_model(store, spec) {
                            Ok((key, model)) => {
                                eprintln!("[ipas] store: using model `{spec}` ({})", key.short());
                                (model, key)
                            }
                            Err(e) => {
                                eprintln!("ipas: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    } else {
                        let config = CampaignConfig {
                            runs,
                            seed,
                            threads: 0,
                            engine,
                            fault_model,
                        };
                        let trained = collect_training_set(
                            store.as_ref(),
                            &workload,
                            &config,
                            journal_dir.as_deref(),
                        )
                        .and_then(|(set, campaign_key)| {
                            fit_classifiers(store.as_ref(), &set, &campaign_key, label, top)
                        });
                        match trained {
                            Ok((models, best_key)) => match models.into_iter().next() {
                                Some(best) => (best, best_key),
                                None => {
                                    eprintln!("ipas: training produced no model (empty grid)");
                                    return ExitCode::FAILURE;
                                }
                            },
                            Err(e) => {
                                eprintln!("ipas: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    };
                    eprintln!(
                        "[ipas] best config: C={:.1} gamma={:.4} F-score={:.3}",
                        best.score().params.c,
                        best.score().params.gamma,
                        best.score().f_score
                    );
                    (ProtectionPolicy::trained(label, best), Some(key))
                }
                other => {
                    eprintln!("ipas: unknown policy `{other}`");
                    return ExitCode::FAILURE;
                }
            };

            // Step 4: protect (memoized: a warm run re-emits the stored,
            // byte-identical module without re-running duplication).
            let (protected, stats, dup_outcome) = match memoized_protect(
                store.as_ref(),
                &workload.module,
                &policy,
                model_key.as_ref(),
            ) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ipas: duplication failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if store.is_some() {
                eprintln!("[ipas] store: duplication stage {}", dup_outcome.label());
            }
            eprintln!(
                "[ipas] duplicated {}/{} instructions, {} checks",
                stats.duplicated, stats.considered, stats.checks
            );

            // Evaluation campaigns (memoized as summaries).
            let eval = CampaignConfig {
                runs: eval_runs,
                seed: seed ^ 0xE7A1,
                threads: 0,
                engine,
                fault_model,
            };
            let evaluate = |module: &ipas::ir::Module, name: &str| {
                eprintln!("[ipas] {name} campaign: {} injections ...", eval.runs);
                let (summary, key, outcome) = evaluation_stage(
                    store.as_ref(),
                    &workload,
                    module,
                    name,
                    &eval,
                    journal_dir.as_deref(),
                )
                .map_err(stage_error)?;
                if store.is_some() {
                    log_stage("eval", outcome, &Key::of(&key));
                }
                Ok::<_, String>(summary)
            };
            let summaries = evaluate(&workload.module, "unprotected")
                .and_then(|unprot| Ok((unprot, evaluate(&protected, policy.label())?)));
            let (unprot, variant) = match summaries {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("ipas: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let unprot_soc = unprot.soc_pct();
            let soc = variant.soc_pct();
            let reduction = if unprot_soc > 0.0 {
                (unprot_soc - soc) / unprot_soc * 100.0
            } else {
                0.0
            };
            let slowdown = variant.nominal_insts as f64 / workload.nominal_insts as f64;
            eprintln!(
                "[ipas] SOC {unprot_soc:.2}% -> {soc:.2}% ({reduction:.1}% reduction) at {slowdown:.2}x slowdown"
            );

            let out_path = args
                .flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| format!("{path}.protected.ir"));
            if let Err(e) = std::fs::write(&out_path, protected.to_text()) {
                eprintln!("ipas: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[ipas] protected IR written to {out_path}");
            ExitCode::SUCCESS
        }
        _ => unreachable!("subcommand validated above"),
    }
}

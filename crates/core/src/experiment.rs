//! The §6 evaluation protocol, end to end.
//!
//! [`run_experiment`] reproduces, for one workload, everything Figures
//! 5–7 and Tables 4 and 6 need: it runs the training campaign on the
//! unprotected code, trains the top-N IPAS and baseline (Shoestring-like)
//! classifiers, builds every protected variant, and evaluates each with
//! a fresh fault-injection campaign.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ipas_faultsim::{
    run_campaign_with, CampaignConfig, CampaignError, CampaignOptions, CampaignResult, Engine,
    FaultModel, JournalError, Outcome, Workload, WorkloadError,
};
use ipas_store::artifact::Payload;
use ipas_store::{
    CacheOutcome, CampaignSummary, Fingerprint, Key, ProtectedModule, Store, StoreError,
    TrainingSet,
};
use ipas_svm::{Dataset, GridOptions};

use crate::classifier::{train_top_configs, TrainedClassifier};
use crate::duplication::DuplicationStats;
use crate::memo;
use crate::policy::ProtectionPolicy;
use crate::selection::ideal_point_index;
use crate::training::LabelKind;

/// Options controlling one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Injection runs for the training campaign (paper: 2,500).
    pub training_runs: usize,
    /// Injection runs per evaluated configuration (paper: 1,024).
    pub eval_runs: usize,
    /// Number of top configurations to keep (paper: 5).
    pub top_n: usize,
    /// The (C, γ) grid.
    pub grid: GridOptions,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for campaigns (0 = all cores).
    pub threads: usize,
    /// Directory for campaign checkpoint journals. When set, every
    /// campaign (training and per-variant evaluation) journals its
    /// records there and a re-invocation of the experiment resumes the
    /// interrupted campaign instead of restarting it.
    pub journal_dir: Option<PathBuf>,
    /// Artifact-store directory (`IPAS_STORE_DIR`). When set, the
    /// training campaign, classifier training, and duplication stages
    /// are memoized by input fingerprint: a re-run with identical
    /// inputs resolves them from the store instead of recomputing.
    pub store_dir: Option<PathBuf>,
    /// Interpreter engine for all campaigns (training and evaluation).
    /// Engines are bit-identical, so this never changes results or
    /// store fingerprints — only wall-clock time.
    pub engine: Engine,
    /// Fault model for all campaigns (training and evaluation). Unlike
    /// the engine this *does* change results, so it is part of every
    /// campaign fingerprint and journal identity.
    pub fault_model: FaultModel,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            training_runs: 600,
            eval_runs: 256,
            top_n: 5,
            grid: GridOptions::default(),
            seed: 2016,
            threads: 0,
            journal_dir: None,
            store_dir: None,
            engine: Engine::default(),
            fault_model: FaultModel::default(),
        }
    }
}

impl ExperimentOptions {
    /// A fast preset for tests: small campaigns and a reduced grid.
    pub fn quick() -> Self {
        ExperimentOptions {
            training_runs: 200,
            eval_runs: 96,
            top_n: 2,
            grid: GridOptions::quick(),
            ..ExperimentOptions::default()
        }
    }
}

/// One evaluated protection variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Display name (e.g. `IPAS#1`).
    pub name: String,
    /// Duplication statistics of the protecting pass.
    pub stats: DuplicationStats,
    /// Dynamic-instruction slowdown vs the unprotected clean run.
    pub slowdown: f64,
    /// The evaluation campaign.
    pub campaign: CampaignResult,
    /// SOC percentage of the campaign.
    pub soc_pct: f64,
    /// SOC reduction relative to the unprotected variant, in percent.
    pub soc_reduction_pct: f64,
}

impl VariantResult {
    /// Fraction of runs with the given outcome.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        self.campaign.fraction(outcome)
    }
}

/// The full result of one workload's experiment.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// The unprotected variant.
    pub unprotected: VariantResult,
    /// SWIFT-style full duplication.
    pub full: VariantResult,
    /// Top-N IPAS configurations, best CV score first.
    pub ipas: Vec<VariantResult>,
    /// Top-N baseline (Shoestring-like) configurations.
    pub baseline: Vec<VariantResult>,
    /// Fraction of SOC-labeled samples in the training set (the paper
    /// reports 3–10%).
    pub training_soc_fraction: f64,
    /// Fraction of symptom-labeled samples in the training set.
    pub training_symptom_fraction: f64,
    /// Wall-clock time of classifier training including the grid search
    /// (Table 6 "training time").
    pub training_time: Duration,
    /// Wall-clock time of classification + duplication for the best
    /// IPAS configuration (Table 6 "duplication time").
    pub duplication_time: Duration,
}

impl ExperimentResult {
    /// Index of the ideal-point best IPAS configuration (§6.3).
    pub fn best_ipas(&self) -> Option<usize> {
        ideal_point_index(
            &self
                .ipas
                .iter()
                .map(|v| (v.slowdown, v.soc_reduction_pct))
                .collect::<Vec<_>>(),
        )
    }

    /// Index of the ideal-point best baseline configuration.
    pub fn best_baseline(&self) -> Option<usize> {
        ideal_point_index(
            &self
                .baseline
                .iter()
                .map(|v| (v.slowdown, v.soc_reduction_pct))
                .collect::<Vec<_>>(),
        )
    }
}

/// Errors from [`run_experiment`].
#[derive(Debug)]
pub enum ExperimentError {
    /// The training campaign produced a single-class dataset (no SOC or
    /// no symptoms observed) — enlarge `training_runs`.
    DegenerateTraining(&'static str),
    /// A protected module failed its clean run (protection-pass bug).
    Workload(WorkloadError),
    /// A fault-injection campaign failed (journal or run-setup error).
    Campaign(CampaignError),
    /// The artifact store failed (I/O underneath `store_dir`).
    Store(StoreError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::DegenerateTraining(which) => {
                write!(f, "training campaign produced no {which} samples")
            }
            ExperimentError::Workload(e) => write!(f, "workload preparation failed: {e}"),
            ExperimentError::Campaign(e) => write!(f, "campaign failed: {e}"),
            ExperimentError::Store(e) => write!(f, "artifact store failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Workload(e) => Some(e),
            ExperimentError::Campaign(e) => Some(e),
            ExperimentError::Store(e) => Some(e),
            ExperimentError::DegenerateTraining(_) => None,
        }
    }
}

impl From<StoreError> for ExperimentError {
    fn from(e: StoreError) -> Self {
        ExperimentError::Store(e)
    }
}

impl From<WorkloadError> for ExperimentError {
    fn from(e: WorkloadError) -> Self {
        ExperimentError::Workload(e)
    }
}

impl From<CampaignError> for ExperimentError {
    fn from(e: CampaignError) -> Self {
        ExperimentError::Campaign(e)
    }
}

/// The journal file used for one campaign of an experiment: a slug of
/// the workload and campaign label plus the seed, so concurrent
/// experiments in one directory never collide and a changed seed never
/// resumes a stale journal.
pub fn campaign_journal_path(dir: &Path, workload: &str, label: &str, seed: u64) -> PathBuf {
    fn slug(s: &str) -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    }
    dir.join(format!(
        "{}-{}-seed{seed}.jsonl",
        slug(workload),
        slug(label)
    ))
}

/// Campaign options for one stage's campaign, journaling at
/// [`campaign_journal_path`] under `journal_dir` when it is set. The
/// directory is created when missing.
fn journal_options(
    journal_dir: Option<&Path>,
    workload: &str,
    label: &str,
    seed: u64,
) -> Result<CampaignOptions, ExperimentError> {
    let journal = match journal_dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|error| {
                CampaignError::Journal(JournalError::Io {
                    path: dir.to_path_buf(),
                    error,
                })
            })?;
            Some(campaign_journal_path(dir, workload, label, seed))
        }
    };
    Ok(CampaignOptions {
        journal,
        ..CampaignOptions::default()
    })
}

/// Memoizes one stage under `fp` when a store is configured; otherwise
/// computes it (a storeless stage is always a miss).
fn memoize<P: Payload>(
    store: Option<&Store>,
    fp: &Fingerprint,
    compute: impl FnOnce() -> Result<P, ExperimentError>,
) -> Result<(P, CacheOutcome), ExperimentError> {
    match store {
        Some(store) => store
            .memoize(&Key::of(fp), compute)
            .map_err(|e| memo::flatten_memo(e, ExperimentError::Store)),
        None => Ok((compute()?, CacheOutcome::Miss)),
    }
}

/// The stored summary of a finished campaign: outcome counts, clean-run
/// size, and the plan knobs.
pub fn campaign_summary(
    name: &str,
    config: &CampaignConfig,
    result: &CampaignResult,
) -> CampaignSummary {
    CampaignSummary {
        workload: name.to_string(),
        runs: config.runs as u64,
        seed: config.seed,
        nominal_insts: result.nominal_insts,
        counts: Outcome::ALL.map(|o| result.count(o) as u64),
        harness_failures: result.harness_failures.len() as u64,
    }
}

/// The store key of a standalone campaign's summary (`ipas campaign`,
/// daemon campaign and eval jobs): the workload's module, name and run
/// identity plus the campaign knobs.
pub fn summary_key(workload: &Workload, config: &CampaignConfig) -> Key {
    Key::of(&memo::with_run_identity(
        &memo::summary_fingerprint(&workload.module, &workload.name, config),
        workload,
    ))
}

/// The key of a training campaign's [`TrainingSet`]: the campaign
/// fingerprint extended with the run identity. The classifier keys
/// chain from it.
pub fn training_key(workload: &Workload, config: &CampaignConfig) -> Fingerprint {
    memo::with_run_identity(
        &memo::campaign_fingerprint(&workload.module, config),
        workload,
    )
}

/// The training stage (Figure 1, step 2): a fault-injection campaign on
/// the unprotected code, kept as a [`TrainingSet`]. It is memoized
/// under [`training_key`] and journaled under `journal_dir` (label
/// `training`). Returns the set, that key (the classifier stage chains
/// from it), and whether the store served it.
///
/// # Errors
///
/// A failing campaign or store.
pub fn training_stage(
    store: Option<&Store>,
    workload: &Workload,
    config: &CampaignConfig,
    journal_dir: Option<&Path>,
) -> Result<(TrainingSet, Fingerprint, CacheOutcome), ExperimentError> {
    let key = training_key(workload, config);
    let (set, outcome) = memoize(store, &key, || {
        let options = journal_options(journal_dir, &workload.name, "training", config.seed)?;
        let campaign = run_campaign_with(workload, config, &options)?;
        Ok(memo::training_set_artifact(workload, &campaign))
    })?;
    Ok((set, key, outcome))
}

/// The single-class check: a classifier for `label` needs both classes
/// in its training data.
///
/// # Errors
///
/// [`ExperimentError::DegenerateTraining`] naming the missing class.
pub fn check_labels(data: &Dataset, label: LabelKind) -> Result<(), ExperimentError> {
    let (positive, negative) = match label {
        LabelKind::SocGenerating => ("SOC", "non-SOC"),
        LabelKind::SymptomGenerating => ("symptom", "non-symptom"),
    };
    if data.num_positive() == 0 {
        Err(ExperimentError::DegenerateTraining(positive))
    } else if data.num_positive() == data.len() {
        Err(ExperimentError::DegenerateTraining(negative))
    } else {
        Ok(())
    }
}

/// The classifier stage (Figure 1, step 3): the top-`top_n` C-SVMs for
/// `label`, grid-searched over `grid` on `data` once it passes
/// [`check_labels`]. They are memoized under the training key chained
/// from `campaign` (the training stage's key). Returns the models best
/// first, that key (rank `r` is stored at `Key::ranked(&key, r)`), and
/// whether the store served them.
///
/// # Errors
///
/// Single-class training data, or a failing store.
pub fn classifier_stage(
    store: Option<&Store>,
    data: &Dataset,
    campaign: &Fingerprint,
    label: LabelKind,
    grid: &GridOptions,
    top_n: usize,
) -> Result<(Vec<TrainedClassifier>, Fingerprint, CacheOutcome), ExperimentError> {
    check_labels(data, label)?;
    let key = memo::training_fingerprint(campaign, label, grid, top_n);
    let (models, outcome) =
        memo::memoized_models(store, &key, top_n, || train_top_configs(data, grid, top_n))?;
    Ok((models, key, outcome))
}

/// Applies `policy` to `module`, memoized through the store when one is
/// configured: a fingerprint hit returns the previously protected
/// module (byte-identical IR text) without re-running classification or
/// duplication.
pub fn memoized_protect(
    store: Option<&Store>,
    module: &ipas_ir::Module,
    policy: &ProtectionPolicy,
    model_key: Option<&Key>,
) -> Result<(ipas_ir::Module, DuplicationStats, CacheOutcome), ExperimentError> {
    let Some(store) = store else {
        let (m, stats) = policy.apply(module);
        return Ok((m, stats, CacheOutcome::Miss));
    };
    let fp = memo::protect_fingerprint(module, policy.label(), model_key, &policy.pipeline_text());
    let (artifact, outcome) = memoize(Some(store), &fp, || {
        let (m, stats) = policy.apply(module);
        Ok(ProtectedModule::from_module(
            &m,
            stats.considered as u64,
            stats.duplicated as u64,
            stats.checks as u64,
        ))
    })?;
    let m = artifact.module().map_err(|e| {
        ExperimentError::Store(StoreError::Corrupt {
            source: format!("protected-module {}", Key::of(&fp)),
            reason: format!("stored IR no longer parses: {e}"),
        })
    })?;
    let stats = DuplicationStats {
        considered: artifact.considered as usize,
        duplicated: artifact.duplicated as usize,
        checks: artifact.checks as usize,
    };
    Ok((m, stats, outcome))
}

/// The evaluation stage: one campaign against `variant` (the
/// reference's own module, or a protected version of it checked by the
/// reference verifier), kept as a [`CampaignSummary`]. It is memoized
/// under the eval key and journaled under `journal_dir` (label `name`).
/// Returns the summary, its key, and whether the store served it.
///
/// # Errors
///
/// A failing clean run of `variant`, campaign, or store.
pub fn evaluation_stage(
    store: Option<&Store>,
    reference: &Workload,
    variant: &ipas_ir::Module,
    name: &str,
    config: &CampaignConfig,
    journal_dir: Option<&Path>,
) -> Result<(CampaignSummary, Fingerprint, CacheOutcome), ExperimentError> {
    let key = memo::with_run_identity(
        &memo::eval_fingerprint(&reference.module, variant, name, config),
        reference,
    );
    let (summary, outcome) = memoize(store, &key, || {
        let prepared;
        let wl = if std::ptr::eq(variant, &reference.module) {
            reference
        } else {
            prepared = reference.with_module(name, variant.clone())?;
            &prepared
        };
        let options = journal_options(journal_dir, &reference.name, name, config.seed)?;
        let campaign = run_campaign_with(wl, config, &options)?;
        Ok(campaign_summary(name, config, &campaign))
    })?;
    Ok((summary, key, outcome))
}

/// Evaluates one protected module against the reference workload,
/// keeping the full campaign (the evaluation stage keeps only its
/// summary).
///
/// Used both by [`run_experiment`] and by the input-variation experiment
/// (Figure 9), which re-evaluates an already-protected module on new
/// inputs.
///
/// # Errors
///
/// Fails when the protected module's clean run fails or the evaluation
/// campaign cannot complete (e.g. its checkpoint journal is broken).
pub fn evaluate_variant(
    reference: &Workload,
    module: ipas_ir::Module,
    name: &str,
    stats: DuplicationStats,
    unprotected_soc_pct: Option<f64>,
    eval: &CampaignConfig,
    journal_dir: Option<&Path>,
) -> Result<VariantResult, ExperimentError> {
    let wl = reference.with_module(name, module)?;
    let options = journal_options(journal_dir, &reference.name, name, eval.seed)?;
    let campaign = run_campaign_with(&wl, eval, &options)?;
    let slowdown = wl.nominal_insts as f64 / reference.nominal_insts as f64;
    let soc_pct = campaign.fraction(Outcome::Soc) * 100.0;
    let soc_reduction_pct = match unprotected_soc_pct {
        Some(u) if u > 0.0 => (u - soc_pct) / u * 100.0,
        _ => 0.0,
    };
    Ok(VariantResult {
        name: name.to_string(),
        stats,
        slowdown,
        campaign,
        soc_pct,
        soc_reduction_pct,
    })
}

/// The seed of a request's evaluation campaigns, derived from its
/// training seed. `ipas protect` and [`run_experiment`] both evaluate at
/// it, so they report the same numbers for one request.
pub fn evaluation_seed(seed: u64) -> u64 {
    seed ^ 0x00C0_FFEE
}

/// Runs the complete §6 protocol on one workload.
///
/// # Errors
///
/// See [`ExperimentError`].
pub fn run_experiment(
    workload: &Workload,
    opts: &ExperimentOptions,
) -> Result<ExperimentResult, ExperimentError> {
    let journal_dir = opts.journal_dir.as_deref();
    let store = opts
        .store_dir
        .as_ref()
        .map(Store::open)
        .transpose()
        .map_err(ExperimentError::Store)?;
    let store = store.as_ref();

    // --- Step 2: training campaign on the unprotected code. -------------
    let train_cfg = CampaignConfig {
        runs: opts.training_runs,
        seed: opts.seed,
        threads: opts.threads,
        engine: opts.engine,
        fault_model: opts.fault_model,
    };
    let (training_set, campaign_key, _) = training_stage(store, workload, &train_cfg, journal_dir)?;
    let soc_data = memo::dataset_from_artifact(&training_set, LabelKind::SocGenerating);
    let sym_data = memo::dataset_from_artifact(&training_set, LabelKind::SymptomGenerating);
    // Reject a single-class set for either label before any grid search.
    check_labels(&soc_data, LabelKind::SocGenerating)?;
    check_labels(&sym_data, LabelKind::SymptomGenerating)?;

    // --- Step 3: train top-N classifiers for both label kinds. -----------
    let classifiers =
        |data, label| classifier_stage(store, data, &campaign_key, label, &opts.grid, opts.top_n);
    let train_start = Instant::now();
    let (ipas_models, ipas_fp, _) = classifiers(&soc_data, LabelKind::SocGenerating)?;
    let training_time = train_start.elapsed();
    let (baseline_models, baseline_fp, _) = classifiers(&sym_data, LabelKind::SymptomGenerating)?;

    // --- Step 4 + evaluation campaigns. -----------------------------------
    let eval = CampaignConfig {
        runs: opts.eval_runs,
        seed: evaluation_seed(opts.seed),
        threads: opts.threads,
        engine: opts.engine,
        fault_model: opts.fault_model,
    };
    let evaluate = |module, name: &str, stats, unprotected_soc_pct| {
        evaluate_variant(
            workload,
            module,
            name,
            stats,
            unprotected_soc_pct,
            &eval,
            journal_dir,
        )
    };

    let (unprot_module, unprot_stats) = ProtectionPolicy::Unprotected.apply(&workload.module);
    let unprotected = evaluate(unprot_module, "unprotected", unprot_stats, None)?;
    let unprot_soc = Some(unprotected.soc_pct);
    let (full_module, full_stats) = ProtectionPolicy::FullDuplication.apply(&workload.module);
    let full = evaluate(full_module, "full", full_stats, unprot_soc)?;

    let mut duplication_time = Duration::ZERO;
    let mut protect_and_evaluate =
        |models: Vec<TrainedClassifier>, fp: &Fingerprint, label: LabelKind, prefix: &str| {
            let mut variants = Vec::with_capacity(models.len());
            for (i, model) in models.into_iter().enumerate() {
                let policy = ProtectionPolicy::trained(label, model);
                let dup_start = Instant::now();
                let (module, stats, _) =
                    memoized_protect(store, &workload.module, &policy, Some(&Key::ranked(fp, i)))?;
                if label == LabelKind::SocGenerating && i == 0 {
                    duplication_time = dup_start.elapsed();
                }
                let name = format!("{prefix}#{}", i + 1);
                variants.push(evaluate(module, &name, stats, unprot_soc)?);
            }
            Ok::<_, ExperimentError>(variants)
        };
    let ipas = protect_and_evaluate(ipas_models, &ipas_fp, LabelKind::SocGenerating, "IPAS")?;
    let baseline = protect_and_evaluate(
        baseline_models,
        &baseline_fp,
        LabelKind::SymptomGenerating,
        "Baseline",
    )?;

    Ok(ExperimentResult {
        workload: workload.name.clone(),
        unprotected,
        full,
        ipas,
        baseline,
        training_soc_fraction: soc_data.positive_fraction(),
        training_symptom_fraction: sym_data.positive_fraction(),
        training_time,
        duplication_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_faultsim::GoldenToleranceVerifier;

    fn kernel_workload() -> Workload {
        // A mixed integer/float kernel with memory traffic: produces all
        // four outcome classes under injection.
        let module = ipas_lang::compile(
            r#"
fn main() -> int {
    let n: int = 24;
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) {
        a[i] = itof(i) * 0.25 + 1.0;
    }
    let s: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    output_f(s);
    free_arr(a);
    return 0;
}
"#,
        )
        .unwrap();
        Workload::serial("kernel", module, 1e-6).unwrap()
    }

    #[test]
    fn full_protocol_runs_and_reduces_soc() {
        let w = kernel_workload();
        let opts = ExperimentOptions::quick();
        let result = run_experiment(&w, &opts).expect("experiment succeeds");

        assert_eq!(result.ipas.len(), opts.top_n);
        assert_eq!(result.baseline.len(), opts.top_n);
        assert!(result.training_soc_fraction > 0.0);
        assert!(result.unprotected.soc_pct > 0.0);

        // Full duplication must cut SOC substantially.
        assert!(
            result.full.soc_pct < result.unprotected.soc_pct,
            "full: {} vs unprot: {}",
            result.full.soc_pct,
            result.unprotected.soc_pct
        );
        // Full duplication costs the most dynamic instructions.
        assert!(result.full.slowdown > 1.3);
        for v in result.ipas.iter().chain(&result.baseline) {
            assert!(
                v.slowdown <= result.full.slowdown + 1e-9,
                "{}: {} > full {}",
                v.name,
                v.slowdown,
                result.full.slowdown
            );
        }
        // Selection works.
        assert!(result.best_ipas().is_some());
        assert!(result.best_baseline().is_some());
    }

    #[test]
    fn degenerate_training_is_reported() {
        // A kernel whose faults never produce SOC within a tiny campaign:
        // everything funnels into one output comparison that is checked
        // exactly; but with an enormous tolerance nothing is ever SOC.
        let module = ipas_lang::compile(
            "fn main() -> int { let x: int = mpi_rank(); output_i(x * 0); return 0; }",
        )
        .unwrap();
        let w = Workload::with_custom_verifier("tolerant", module, "main", vec![], |_| {
            struct AcceptAll;
            impl ipas_faultsim::OutputVerifier for AcceptAll {
                fn verify(&self, _: &ipas_interp::RunOutput) -> bool {
                    true
                }
            }
            Box::new(AcceptAll)
        })
        .unwrap();
        let err = run_experiment(&w, &ExperimentOptions::quick()).unwrap_err();
        assert!(
            matches!(err, ExperimentError::DegenerateTraining(_)),
            "{err}"
        );
    }

    #[test]
    fn store_keys_tell_entry_arguments_apart() {
        // One module sized by its argument: at both sizes the module text
        // and the campaign knobs agree; only the entry arguments differ.
        let module = ipas_lang::compile(
            r#"
fn main(n: int) -> int {
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) {
        a[i] = itof(i) * 0.25 + 1.0;
    }
    let s: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    output_f(s);
    free_arr(a);
    return 0;
}
"#,
        )
        .unwrap();
        let sized = |n: i64| {
            Workload::with_custom_verifier(
                "sized",
                module.clone(),
                "main",
                vec![ipas_interp::RtVal::I64(n)],
                |golden| Box::new(GoldenToleranceVerifier::new(&golden.outputs, 1e-6)),
            )
            .unwrap()
        };
        let dir = std::env::temp_dir().join(format!("ipas-identity-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stored = ExperimentOptions {
            training_runs: 150,
            eval_runs: 48,
            top_n: 1,
            threads: 2,
            store_dir: Some(dir.clone()),
            ..ExperimentOptions::quick()
        };
        run_experiment(&sized(12), &stored).expect("small size runs");
        let warm = run_experiment(&sized(40), &stored).expect("large size runs");
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run_experiment(
            &sized(40),
            &ExperimentOptions {
                store_dir: None,
                ..stored.clone()
            },
        )
        .expect("storeless run");
        assert_eq!(
            warm.training_soc_fraction.to_bits(),
            fresh.training_soc_fraction.to_bits()
        );
        assert_eq!(
            warm.training_symptom_fraction.to_bits(),
            fresh.training_symptom_fraction.to_bits()
        );
        let variants = |r: &ExperimentResult| {
            [&r.unprotected, &r.full]
                .into_iter()
                .chain(&r.ipas)
                .chain(&r.baseline)
                .map(|v| {
                    (
                        v.name.clone(),
                        v.stats,
                        Outcome::ALL.map(|o| v.campaign.count(o)),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(variants(&warm), variants(&fresh));
    }

    #[test]
    fn evaluate_variant_computes_reduction() {
        let w = kernel_workload();
        let (module, stats) = ProtectionPolicy::FullDuplication.apply(&w.module);
        let v = evaluate_variant(
            &w,
            module,
            "full",
            stats,
            Some(10.0),
            &CampaignConfig {
                runs: 32,
                seed: 1,
                threads: 2,
                ..CampaignConfig::default()
            },
            None,
        )
        .unwrap();
        assert!(v.slowdown > 1.0);
        assert!(v.soc_reduction_pct <= 100.0);
    }

    // Keep a reference to the verifier tolerance marker so the import is
    // exercised in this module too.
    #[test]
    fn exact_marker_is_tight() {
        let exact = GoldenToleranceVerifier::EXACT;
        assert!(
            exact < 1e-6,
            "EXACT should be stricter than workload tolerances"
        );
    }
}

//! One `protect` request, composed stage by stage from the layers'
//! public APIs so that every stage can be timed from outside.
//!
//! The stage order is `ipas_core::run_experiment`'s (§6): compile, golden
//! run, memoized training campaign with feature extraction, memoized
//! SOC and symptom grid searches, memoized duplication of every variant,
//! one memoized evaluation campaign per variant, ideal-point selection.
//! Unlike `run_experiment` every stage goes through the artifact store,
//! as the CLI's memoized `protect` does, so the same request measures
//! the cold path against an empty store and the warm path against a
//! filled one. `tests/e2e_protocol.rs` checks that the results equal
//! `run_experiment`'s.

use ipas_core::{
    campaign_fingerprint, dataset_from_artifact, eval_fingerprint, ideal_point_index,
    memoized_models, protect_fingerprint, train_top_configs, training_fingerprint,
    training_set_artifact, DuplicationStats, LabelKind, ProtectionPolicy,
};
use ipas_faultsim::{
    run_campaign_with, CampaignConfig, CampaignOptions, CampaignResult, Engine, FaultModel,
    Outcome, Workload,
};
use ipas_store::{CacheOutcome, CampaignSummary, Key, MemoError, ProtectedModule, Store};
use ipas_svm::{Dataset, GridOptions};
use ipas_workloads::Kind;

use crate::trace::Ctx;

/// Size of one protect request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectScale {
    /// Injection runs of the training campaign.
    pub training_runs: usize,
    /// Injection runs of each evaluation campaign.
    pub eval_runs: usize,
    /// Configurations kept per label kind.
    pub top_n: usize,
    /// The (C, γ) grid.
    pub grid: GridOptions,
    /// Campaign worker threads.
    pub threads: usize,
}

/// Work the layers actually performed (cache hits perform none), summed
/// over any number of requests or campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Fault-free golden runs.
    pub golden_runs: u64,
    /// Injection runs executed (journal resumes excluded).
    pub runs_executed: u64,
    /// Plans that exhausted their retry budget.
    pub harness_failures: u64,
    /// Classified runs per outcome, in `Outcome::ALL` order.
    pub outcomes: [u64; 4],
    /// Dynamic instructions simulated by classified runs.
    pub sim_insts: u64,
    /// Sum over classified runs of the fault-free prefix share
    /// `(dynamic_insts - latency) / dynamic_insts`.
    pub prefix_share_sum: f64,
    /// Grid searches run.
    pub searches: u64,
    /// SMO fits run (grid points × usable folds + final top-N fits).
    pub fits: u64,
    /// Training samples summed over searches.
    pub svm_samples: u64,
    /// Memoized stages served from the store.
    pub store_hits: u64,
    /// Memoized stages computed (including recovered damaged entries).
    pub store_misses: u64,
}

impl Work {
    /// Accounts one finished campaign. The outcome mix and instruction
    /// counts cover every record, resumed ones included.
    pub fn add_campaign(&mut self, result: &CampaignResult) {
        let planned = result.records.len() + result.harness_failures.len();
        self.runs_executed += planned.saturating_sub(result.resumed) as u64;
        self.harness_failures += result.harness_failures.len() as u64;
        for r in &result.records {
            let slot = Outcome::ALL.iter().position(|o| *o == r.outcome);
            self.outcomes[slot.expect("outcome is one of ALL")] += 1;
            self.sim_insts += r.dynamic_insts;
            if r.dynamic_insts > 0 {
                self.prefix_share_sum +=
                    r.dynamic_insts.saturating_sub(r.latency) as f64 / r.dynamic_insts as f64;
            }
        }
    }

    fn cache(&mut self, outcome: CacheOutcome) {
        if outcome.is_hit() {
            self.store_hits += 1;
        } else {
            self.store_misses += 1;
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Work) {
        self.golden_runs += other.golden_runs;
        self.runs_executed += other.runs_executed;
        self.harness_failures += other.harness_failures;
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes) {
            *a += b;
        }
        self.sim_insts += other.sim_insts;
        self.prefix_share_sum += other.prefix_share_sum;
        self.searches += other.searches;
        self.fits += other.fits;
        self.svm_samples += other.svm_samples;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
    }
}

/// One evaluated protection variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// `unprotected`, `full`, `IPAS#k` or `Baseline#k`.
    pub name: String,
    /// Duplication statistics of the protecting pass.
    pub stats: DuplicationStats,
    /// Canonical text of the protected module.
    pub module_text: String,
    /// The evaluation campaign's summary.
    pub summary: CampaignSummary,
    /// Dynamic-instruction slowdown against the unprotected golden run.
    pub slowdown: f64,
    /// SOC percentage of the evaluation campaign.
    pub soc_pct: f64,
    /// SOC reduction against the unprotected variant, in percent.
    pub soc_reduction_pct: f64,
}

/// Everything one protect request produced.
#[derive(Debug)]
pub struct ProtectOutcome {
    /// The golden-run workload the request protected.
    pub workload: Workload,
    /// Unprotected, full, IPAS#1..N, Baseline#1..N, in that order.
    pub variants: Vec<Variant>,
    /// Index into the IPAS variants of the ideal-point choice.
    pub best_ipas: Option<usize>,
    /// Index into the baseline variants of the ideal-point choice.
    pub best_baseline: Option<usize>,
    /// Exported best IPAS and best baseline models, as stored.
    pub best_configs: [String; 2],
    /// The training campaign, when it ran (a store hit skips it).
    pub training: Option<CampaignResult>,
    /// The training campaign's configuration.
    pub training_config: CampaignConfig,
    /// Work the layers performed for this request.
    pub work: Work,
}

impl ProtectOutcome {
    /// The IPAS variants.
    pub fn ipas(&self) -> &[Variant] {
        let n = (self.variants.len() - 2) / 2;
        &self.variants[2..2 + n]
    }
}

fn memo_err<E: std::fmt::Display>(stage: &str, e: MemoError<E>) -> String {
    match e {
        MemoError::Store(e) => format!("{stage}: artifact store failed: {e}"),
        MemoError::Compute(e) => format!("{stage}: {e}"),
    }
}

/// Grid fits one search performs: every (C, γ) point on every fold whose
/// training split holds both classes, plus the final top-N fits.
fn grid_fits(data: &Dataset, grid: &GridOptions, top_n: usize) -> u64 {
    let usable = data
        .stratified_kfold(grid.folds, grid.seed)
        .iter()
        .filter(|(train, _)| {
            let positives = train.iter().filter(|&&i| data.labels()[i]).count();
            positives > 0 && positives < train.len()
        })
        .count();
    let points = grid.num_c * grid.num_gamma;
    (points * usable + top_n.min(points)) as u64
}

/// Runs one protect request for `kind` at `input` with campaign seed
/// `seed`, memoizing every stage in `store`.
///
/// # Errors
///
/// A description of the first failing stage.
pub fn protect(
    store: &Store,
    kind: Kind,
    input: i64,
    seed: u64,
    scale: &ProtectScale,
    ctx: Ctx<'_>,
) -> Result<ProtectOutcome, String> {
    let mut work = Work::default();

    // 1. Compile.
    let source = ipas_workloads::sources::source(kind);
    let module = ctx
        .span("lang.compile", |_| {
            ipas_lang::compile_named(source, kind.name())
        })
        .map_err(|e| format!("compile: {e}"))?;

    // 2. Golden run.
    let workload = ctx
        .span("golden.run", |_| {
            ipas_workloads::rebuild_with_module(kind, module, input)
        })
        .map_err(|e| format!("golden run: {e}"))?;
    work.golden_runs += 1;

    // 3 + 4. Training campaign and feature extraction, memoized together
    // as the training-set artifact.
    let training_config = CampaignConfig {
        runs: scale.training_runs,
        seed,
        threads: scale.threads,
        engine: Engine::default(),
        fault_model: FaultModel::default(),
    };
    let campaign_fp = campaign_fingerprint(&workload.module, &training_config);
    let mut training = None;
    let (set, outcome) = ctx
        .span("store.training", |ctx| {
            store.memoize(&Key::of(&campaign_fp), || {
                let result = ctx.span("faultsim.train_campaign", |_| {
                    run_campaign_with(&workload, &training_config, &CampaignOptions::default())
                })?;
                let set = ctx.span("analysis.features", |_| {
                    training_set_artifact(&workload, &result)
                });
                training = Some(result);
                Ok::<_, ipas_faultsim::CampaignError>(set)
            })
        })
        .map_err(|e| memo_err("training campaign", e))?;
    work.cache(outcome);
    if let Some(result) = &training {
        work.add_campaign(result);
    }

    // 5. Grid searches for the top-N SOC and symptom classifiers.
    let mut models = Vec::with_capacity(2);
    for label in [LabelKind::SocGenerating, LabelKind::SymptomGenerating] {
        let data = dataset_from_artifact(&set, label);
        if data.num_positive() == 0 || data.num_positive() == data.len() {
            return Err(format!("degenerate {label:?} training labels"));
        }
        let fp = training_fingerprint(&campaign_fp, label, &scale.grid, scale.top_n);
        let mut searched = false;
        let (trained, outcome) = ctx
            .span("store.models", |ctx| {
                memoized_models(Some(store), &fp, scale.top_n, || {
                    searched = true;
                    ctx.span("svm.train", |_| {
                        train_top_configs(&data, &scale.grid, scale.top_n)
                    })
                })
            })
            .map_err(|e| format!("classifier training: artifact store failed: {e}"))?;
        work.cache(outcome);
        if searched {
            work.searches += 1;
            work.fits += grid_fits(&data, &scale.grid, scale.top_n);
            work.svm_samples += data.len() as u64;
        }
        models.push((fp, trained));
    }
    let best_configs = [0, 1].map(|i| {
        models[i]
            .1
            .first()
            .map(|m| ipas_store::artifact::encode(&m.export()))
            .unwrap_or_default()
    });

    // 6. Duplication of every variant.
    let mut policies: Vec<(String, ProtectionPolicy, Option<Key>)> = vec![
        ("unprotected".into(), ProtectionPolicy::Unprotected, None),
        ("full".into(), ProtectionPolicy::FullDuplication, None),
    ];
    let (baseline_fp, baseline_models) = models.pop().expect("two label kinds");
    let (ipas_fp, ipas_models) = models.pop().expect("two label kinds");
    for (i, m) in ipas_models.into_iter().enumerate() {
        let key = Key::ranked(&ipas_fp, i);
        policies.push((
            format!("IPAS#{}", i + 1),
            ProtectionPolicy::Ipas(m),
            Some(key),
        ));
    }
    for (i, m) in baseline_models.into_iter().enumerate() {
        let key = Key::ranked(&baseline_fp, i);
        policies.push((
            format!("Baseline#{}", i + 1),
            ProtectionPolicy::Baseline(m),
            Some(key),
        ));
    }
    let mut protected = Vec::with_capacity(policies.len());
    for (name, policy, model_key) in &policies {
        let (artifact, outcome) = ctx
            .span("store.protect", |ctx| {
                let fp = protect_fingerprint(
                    &workload.module,
                    policy.label(),
                    model_key.as_ref(),
                    &policy.pipeline_text(),
                );
                store.memoize(&Key::of(&fp), || {
                    let (m, stats) = ctx.span("core.duplicate", |_| policy.apply(&workload.module));
                    Ok::<_, String>(ProtectedModule::from_module(
                        &m,
                        stats.considered as u64,
                        stats.duplicated as u64,
                        stats.checks as u64,
                    ))
                })
            })
            .map_err(|e| memo_err(name, e))?;
        work.cache(outcome);
        let module = ctx
            .span("store.parse", |_| artifact.module())
            .map_err(|e| format!("{name}: stored IR no longer parses: {e}"))?;
        let stats = DuplicationStats {
            considered: artifact.considered as usize,
            duplicated: artifact.duplicated as usize,
            checks: artifact.checks as usize,
        };
        protected.push((name.clone(), module, stats, artifact.ir_text));
    }

    // 7. One evaluation campaign per variant, memoized as a summary.
    let eval_config = CampaignConfig {
        runs: scale.eval_runs,
        seed: seed ^ 0x00C0_FFEE,
        ..training_config
    };
    let mut variants: Vec<Variant> = Vec::with_capacity(protected.len());
    for (name, module, stats, module_text) in protected {
        let mut ran: Option<CampaignResult> = None;
        let (summary, outcome) = ctx
            .span("store.eval", |ctx| {
                let fp = eval_fingerprint(&workload.module, &module, &name, &eval_config);
                store.memoize(&Key::of(&fp), || {
                    let wl = ctx
                        .span("golden.run", |_| workload.with_module(&name, module))
                        .map_err(|e| format!("clean run failed: {e}"))?;
                    let result = ctx
                        .span("faultsim.eval_campaign", |_| {
                            run_campaign_with(&wl, &eval_config, &CampaignOptions::default())
                        })
                        .map_err(|e| e.to_string())?;
                    let summary = summarize(&name, &eval_config, &result);
                    ran = Some(result);
                    Ok::<_, String>(summary)
                })
            })
            .map_err(|e| memo_err(&name, e))?;
        work.cache(outcome);
        if let Some(result) = &ran {
            work.golden_runs += 1;
            work.add_campaign(result);
        }
        let soc_pct = summary.soc_pct();
        let soc_reduction_pct = match variants.first() {
            Some(unprotected) if unprotected.soc_pct > 0.0 => {
                (unprotected.soc_pct - soc_pct) / unprotected.soc_pct * 100.0
            }
            _ => 0.0,
        };
        variants.push(Variant {
            slowdown: summary.nominal_insts as f64 / workload.nominal_insts as f64,
            name,
            stats,
            module_text,
            summary,
            soc_pct,
            soc_reduction_pct,
        });
    }

    // 8. Ideal-point selection.
    let n = (variants.len() - 2) / 2;
    let points = |vs: &[Variant]| -> Vec<(f64, f64)> {
        vs.iter()
            .map(|v| (v.slowdown, v.soc_reduction_pct))
            .collect()
    };
    let (best_ipas, best_baseline) = ctx.span("core.select", |_| {
        (
            ideal_point_index(&points(&variants[2..2 + n])),
            ideal_point_index(&points(&variants[2 + n..])),
        )
    });

    Ok(ProtectOutcome {
        workload,
        variants,
        best_ipas,
        best_baseline,
        best_configs,
        training,
        training_config,
        work,
    })
}

/// The summary artifact of one campaign.
pub fn summarize(name: &str, config: &CampaignConfig, r: &CampaignResult) -> CampaignSummary {
    CampaignSummary {
        workload: name.to_string(),
        runs: config.runs as u64,
        seed: config.seed,
        nominal_insts: r.nominal_insts,
        counts: Outcome::ALL.map(|o| r.count(o) as u64),
        harness_failures: r.harness_failures.len() as u64,
    }
}

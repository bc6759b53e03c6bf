//! Stage fingerprints and store-backed memoization for the pipeline.
//!
//! Every expensive stage of the IPAS workflow — training campaign, grid
//! search + classifier training, duplication — is a deterministic
//! function of canonical inputs. This module derives a
//! [`Fingerprint`] per stage from exactly those inputs (the printed IR
//! module, campaign knobs, grid options, the feature-schema version)
//! and uses it as the stage's key in an [`ipas_store::Store`], so
//! re-running a pipeline with identical inputs resolves stages from the
//! store while changing any knob forces a recompute.
//!
//! Thread counts and the interpreter engine are deliberately *excluded*
//! from campaign fingerprints: campaigns are seed-deterministic across
//! worker counts and bit-identical across engines, so the same plan on
//! more cores — or re-run under `--engine reference` — must still hit.
//!
//! The campaign-derived fingerprints below hash the module text and the
//! campaign knobs only. A campaign's outcomes also depend on the entry
//! arguments and the verifier — the workload's
//! [`Workload::run_identity`] — so every key the stages mint from them
//! is extended with [`with_run_identity`]. Classifier keys chain from
//! the extended training key and protect keys from the model key, so
//! both carry it too.

use ipas_analysis::sections::SectionPartition;
use ipas_analysis::{Feature, FEATURE_SCHEMA_VERSION};
use ipas_faultsim::{
    CampaignConfig, CampaignResult, FaultModel, Injection, Outcome, SamplingMode, Workload,
};
use ipas_ir::Module;
use ipas_store::{
    CacheOutcome, Fingerprint, FingerprintBuilder, Key, MemoError, Store, StoreError, TrainedModel,
    TrainingRow, TrainingSet,
};
use ipas_svm::{Dataset, GridOptions};

use crate::classifier::TrainedClassifier;
use crate::training::LabelKind;

/// Fingerprint of a module: its canonical printed text.
///
/// This and every fingerprint below hash [`Module::text`], which is
/// printed once per module and memoized, so deriving a request's keys
/// prints the unprotected module once, not once per stage.
pub fn module_fingerprint(module: &Module) -> Fingerprint {
    FingerprintBuilder::new("module")
        .text("ir", module.text())
        .finish()
}

/// Fingerprint of a fault-injection campaign over `module`: the module
/// text plus the plan-determining knobs (`runs`, `seed`) and the
/// feature-schema version (the stored artifact embeds feature rows).
/// `threads` is excluded — campaigns are seed-deterministic — and so is
/// `engine`: both engines produce byte-identical records, so a cached
/// campaign is valid whichever engine computed it. It carries no run
/// identity: the training stage keys its set with
/// [`with_run_identity`] of this.
pub fn campaign_fingerprint(module: &Module, config: &CampaignConfig) -> Fingerprint {
    fault_model_field(
        FingerprintBuilder::new("training-campaign")
            .text("ir", module.text())
            .u64("runs", config.runs as u64)
            .u64("seed", config.seed)
            .u64("feature-schema", u64::from(FEATURE_SCHEMA_VERSION)),
        config.fault_model,
    )
    .finish()
}

/// Extends a campaign-derived stage fingerprint with the workload's run
/// identity ([`Workload::run_identity`]: entry arguments and verifier),
/// so a result computed for other inputs or another verification
/// routine never hits.
pub fn with_run_identity(fp: &Fingerprint, workload: &Workload) -> Fingerprint {
    FingerprintBuilder::new("run-identity")
        .fingerprint("stage", fp)
        .text("identity", &workload.run_identity())
        .finish()
}

/// Adds the campaign's fault model to a fingerprint. The field is
/// omitted for [`FaultModel::SingleBit`] so every key minted before the
/// model knob existed stays addressable; any other model adds the field
/// and therefore can never alias a single-bit artifact.
fn fault_model_field(b: FingerprintBuilder, model: FaultModel) -> FingerprintBuilder {
    if model == FaultModel::SingleBit {
        b
    } else {
        b.text("fault-model", &model.to_string())
    }
}

fn grid_fields(b: FingerprintBuilder, grid: &GridOptions) -> FingerprintBuilder {
    b.u64("num-c", grid.num_c as u64)
        .u64("num-gamma", grid.num_gamma as u64)
        .f64("c-lo", grid.c_range.0)
        .f64("c-hi", grid.c_range.1)
        .f64("gamma-lo", grid.gamma_range.0)
        .f64("gamma-hi", grid.gamma_range.1)
        .u64("folds", grid.folds as u64)
        .u64("fold-seed", grid.seed)
        .bool("balanced", grid.balanced)
}

/// Fingerprint of classifier training: the training campaign it
/// consumed, the label kind, the full grid, and how many configurations
/// are kept.
pub fn training_fingerprint(
    campaign: &Fingerprint,
    label: LabelKind,
    grid: &GridOptions,
    top_n: usize,
) -> Fingerprint {
    let tag = match label {
        LabelKind::SocGenerating => "soc",
        LabelKind::SymptomGenerating => "symptom",
    };
    grid_fields(
        FingerprintBuilder::new("classifier-training")
            .fingerprint("campaign", campaign)
            .text("label", tag),
        grid,
    )
    .u64("top-n", top_n as u64)
    .finish()
}

/// Fingerprint of a duplication pass: the source module, the policy
/// tag, the canonical text of the protection pipeline that will run
/// (e.g. `"+duplicate"`, from
/// [`crate::policy::ProtectionPolicy::pipeline_text`]), and (for
/// classifier-driven policies) the key of the model that decides what
/// to duplicate. Including the pipeline text means reshaping the
/// protection pipeline invalidates memoized protected modules.
pub fn protect_fingerprint(
    module: &Module,
    policy: &str,
    model_key: Option<&Key>,
    pipeline: &str,
) -> Fingerprint {
    FingerprintBuilder::new("duplication")
        .text("ir", module.text())
        .text("policy", policy)
        .text("model", model_key.map(Key::as_str).unwrap_or("-"))
        .text("pipeline", pipeline)
        .finish()
}

/// Fingerprint of an evaluation campaign: the reference module, the
/// variant module under test and its name, and the campaign knobs. It
/// carries no run identity: the evaluation stage keys its summary with
/// [`with_run_identity`] of this.
pub fn eval_fingerprint(
    reference: &Module,
    variant: &Module,
    name: &str,
    config: &CampaignConfig,
) -> Fingerprint {
    fault_model_field(
        FingerprintBuilder::new("eval-campaign")
            .text("reference-ir", reference.text())
            .text("variant-ir", variant.text())
            .text("variant", name)
            .u64("runs", config.runs as u64)
            .u64("seed", config.seed),
        config.fault_model,
    )
    .finish()
}

/// Fingerprint of a standalone `ipas campaign` summary: the module, the
/// workload name, and the plan-determining knobs. Lives in its own
/// domain (`cli-campaign`) so it can never collide with the
/// training-campaign keys, which store [`TrainingSet`] artifacts rather
/// than summaries. It carries no run identity:
/// [`crate::experiment::summary_key`] extends it.
pub fn summary_fingerprint(module: &Module, name: &str, config: &CampaignConfig) -> Fingerprint {
    fault_model_field(
        FingerprintBuilder::new("cli-campaign")
            .text("ir", module.text())
            .text("workload", name)
            .u64("runs", config.runs as u64)
            .u64("seed", config.seed),
        config.fault_model,
    )
    .finish()
}

/// Fingerprint of one section's content: the canonical printed text of
/// its label and blocks ([`SectionPartition::section_text`]). Editing
/// any instruction of the section (or renaming its function) changes
/// the key; edits elsewhere in the module do not — which is exactly the
/// granularity the incremental driver reuses at.
pub fn section_fingerprint(
    module: &Module,
    partition: &SectionPartition,
    section: usize,
) -> Fingerprint {
    FingerprintBuilder::new("section")
        .text("text", &partition.section_text(module, section))
        .finish()
}

/// Digest of the plan slice a campaign assigns to one section: every
/// plan index plus the plan's full parameters, in plan order. Two
/// campaigns whose slices share this digest execute identical plans at
/// identical indices — the precondition for splicing a cached section
/// profile into a fresh campaign.
pub fn plan_slice_digest(plans: &[Injection], assignment: &[u32], section: u32) -> Fingerprint {
    let mut b = FingerprintBuilder::new("section-plans");
    for (i, plan) in plans.iter().enumerate() {
        if assignment[i] != section {
            continue;
        }
        b = b
            .u64("plan", i as u64)
            .text("model", &plan.model.to_string())
            .u64("target", plan.target)
            .u64("bit", u64::from(plan.bit));
        if let Some((f, inst)) = plan.site {
            b = b
                .u64("site-func", f.index() as u64)
                .u64("site-inst", inst.index() as u64);
        }
    }
    b.finish()
}

/// Fingerprint of one section's cached outcome profile: the campaign's
/// knobs plus the section's content fingerprint and plan-slice digest.
/// The incremental driver stores the profile under
/// [`with_run_identity`] of this, and reuses it exactly when that whole
/// key matches, so the key *is* the reuse condition.
pub fn section_profile_fingerprint(
    name: &str,
    config: &CampaignConfig,
    sampling: SamplingMode,
    section: &Fingerprint,
    plan_digest: &Fingerprint,
) -> Fingerprint {
    FingerprintBuilder::new("section-profile")
        .text("workload", name)
        .u64("runs", config.runs as u64)
        .u64("seed", config.seed)
        .text("fault-model", &config.fault_model.to_string())
        .text("sampling", sampling.wire())
        .fingerprint("section", section)
        .fingerprint("plans", plan_digest)
        .finish()
}

/// Fingerprint of a sectional campaign's baseline
/// [`ipas_store::SectionIndex`]: the full module text plus the campaign
/// knobs. Every `--incremental` run stores its index under
/// [`with_run_identity`] of this and prints that key, so the next run
/// can name it as `--baseline`.
pub fn section_index_fingerprint(
    module: &Module,
    name: &str,
    config: &CampaignConfig,
    sampling: SamplingMode,
) -> Fingerprint {
    FingerprintBuilder::new("section-index")
        .text("ir", module.text())
        .text("workload", name)
        .u64("runs", config.runs as u64)
        .u64("seed", config.seed)
        .text("fault-model", &config.fault_model.to_string())
        .text("sampling", sampling.wire())
        .finish()
}

/// Builds the [`TrainingSet`] artifact from a finished training
/// campaign: one row per injection record carrying the raw 31 static
/// features of the injected site plus both label columns.
///
/// # Panics
///
/// Panics if the campaign has no records.
pub fn training_set_artifact(workload: &Workload, campaign: &CampaignResult) -> TrainingSet {
    assert!(!campaign.records.is_empty(), "no training records");
    let extractor = ipas_analysis::FeatureExtractor::new(&workload.module);
    let rows = campaign
        .records
        .iter()
        .map(|rec| {
            let (fid, iid) = rec.site;
            TrainingRow {
                features: extractor.extract(fid, iid).as_slice().to_vec(),
                bit: rec.bit,
                outcome: rec.outcome.label().to_string(),
                soc: rec.outcome == Outcome::Soc,
                symptom: rec.outcome == Outcome::Symptom,
            }
        })
        .collect();
    TrainingSet {
        workload: workload.name.clone(),
        columns: Feature::ALL.iter().map(|f| f.name().to_string()).collect(),
        rows,
    }
}

/// Reconstructs the labeled dataset for one classifier from a stored
/// [`TrainingSet`] — the warm-path equivalent of
/// [`crate::training::build_training_set`].
///
/// # Panics
///
/// Panics if the artifact has no rows (the codec rejects such
/// artifacts before they get here).
pub fn dataset_from_artifact(set: &TrainingSet, label: LabelKind) -> Dataset {
    let x = set.rows.iter().map(|r| r.features.clone()).collect();
    let y = set
        .rows
        .iter()
        .map(|r| match label {
            LabelKind::SocGenerating => r.soc,
            LabelKind::SymptomGenerating => r.symptom,
        })
        .collect();
    Dataset::new(x, y).expect("stored training set is rectangular")
}

/// Loads the top-N trained classifiers stored under the ranked keys of
/// `fp`, or `None` when any rank is missing or damaged (the stage then
/// recomputes). All `top_n` ranks must be present: a partial set (e.g.
/// an interrupted previous run) is treated as a miss, never as a
/// shorter model list.
pub fn load_models(
    store: &Store,
    fp: &Fingerprint,
    top_n: usize,
) -> Result<Option<Vec<TrainedClassifier>>, StoreError> {
    let mut models = Vec::with_capacity(top_n);
    for rank in 0..top_n {
        let key = Key::ranked(fp, rank);
        match store.get::<TrainedModel>(&key) {
            Ok(Some(artifact)) => match TrainedClassifier::from_export(&artifact) {
                Ok(model) => models.push(model),
                Err(_) => return Ok(None),
            },
            Ok(None) => return Ok(None),
            Err(StoreError::Io { path, error }) => return Err(StoreError::Io { path, error }),
            // Damaged or skewed rank: recompute the whole stage.
            Err(_) => return Ok(None),
        }
    }
    Ok(Some(models))
}

/// Stores trained classifiers under the ranked keys of `fp`.
pub fn save_models(
    store: &Store,
    fp: &Fingerprint,
    models: &[TrainedClassifier],
) -> Result<(), StoreError> {
    for (rank, model) in models.iter().enumerate() {
        store.put(&Key::ranked(fp, rank), &model.export())?;
    }
    Ok(())
}

/// Memoizes the classifier-training stage: a full ranked hit loads all
/// `top_n` models from the store; otherwise `train` runs and its
/// results are persisted. Returns the models plus whether training was
/// skipped.
pub fn memoized_models(
    store: Option<&Store>,
    fp: &Fingerprint,
    top_n: usize,
    train: impl FnOnce() -> Vec<TrainedClassifier>,
) -> Result<(Vec<TrainedClassifier>, CacheOutcome), StoreError> {
    if let Some(store) = store {
        if let Some(models) = load_models(store, fp, top_n)? {
            return Ok((models, CacheOutcome::Hit));
        }
        let models = train();
        save_models(store, fp, &models)?;
        Ok((models, CacheOutcome::Miss))
    } else {
        Ok((train(), CacheOutcome::Miss))
    }
}

/// Flattens a [`MemoError`] whose compute side already fails with the
/// caller's error type, mapping store failures through `wrap`.
pub fn flatten_memo<E>(err: MemoError<E>, wrap: impl FnOnce(StoreError) -> E) -> E {
    match err {
        MemoError::Store(e) => wrap(e),
        MemoError::Compute(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_module() -> Module {
        ipas_lang::compile(
            "fn main() -> int { let s: int = 0;
               for (let i: int = 0; i < 8; i = i + 1) { s = s + i; }
               output_i(s); return 0; }",
        )
        .unwrap()
    }

    #[test]
    fn campaign_fingerprint_tracks_inputs_not_threads() {
        let m = sample_module();
        let base = CampaignConfig {
            runs: 100,
            seed: 7,
            threads: 1,
            ..CampaignConfig::default()
        };
        let fp = campaign_fingerprint(&m, &base);
        assert_eq!(
            fp,
            campaign_fingerprint(&m, &CampaignConfig { threads: 8, ..base }),
            "thread count must not change the key"
        );
        for engine in ipas_faultsim::Engine::ALL {
            assert_eq!(
                fp,
                campaign_fingerprint(&m, &CampaignConfig { engine, ..base }),
                "engine must not change the key (records are engine-independent)"
            );
        }
        assert_ne!(
            fp,
            campaign_fingerprint(&m, &CampaignConfig { runs: 101, ..base })
        );
        assert_ne!(
            fp,
            campaign_fingerprint(&m, &CampaignConfig { seed: 8, ..base })
        );
        let other = ipas_lang::compile("fn main() -> int { output_i(1); return 0; }").unwrap();
        assert_ne!(fp, campaign_fingerprint(&other, &base));
    }

    #[test]
    fn fault_model_distinguishes_keys_but_single_bit_is_legacy_stable() {
        let m = sample_module();
        let base = CampaignConfig {
            runs: 100,
            seed: 7,
            threads: 1,
            ..CampaignConfig::default()
        };
        let single = campaign_fingerprint(&m, &base);
        // Every non-default model mints a distinct key — mixed-model
        // artifacts can never alias.
        let mut seen = vec![single];
        for model in FaultModel::ALL.into_iter().skip(1) {
            let fp = campaign_fingerprint(
                &m,
                &CampaignConfig {
                    fault_model: model,
                    ..base
                },
            );
            assert!(!seen.contains(&fp), "{model} aliases another model's key");
            seen.push(fp);
        }
        // Two burst widths are two different models.
        let b2 = campaign_fingerprint(
            &m,
            &CampaignConfig {
                fault_model: FaultModel::MultiBitBurst { width: 2 },
                ..base
            },
        );
        let b3 = campaign_fingerprint(
            &m,
            &CampaignConfig {
                fault_model: FaultModel::MultiBitBurst { width: 3 },
                ..base
            },
        );
        assert_ne!(b2, b3);
        // Summary keys live in their own domain.
        assert_ne!(summary_fingerprint(&m, "cli", &base), single);
        assert_ne!(
            summary_fingerprint(&m, "cli", &base),
            summary_fingerprint(
                &m,
                "cli",
                &CampaignConfig {
                    fault_model: FaultModel::BranchFlip,
                    ..base
                }
            )
        );
    }

    #[test]
    fn training_fingerprint_tracks_grid_and_label() {
        let m = sample_module();
        let cfp = campaign_fingerprint(
            &m,
            &CampaignConfig {
                runs: 64,
                seed: 1,
                threads: 0,
                ..CampaignConfig::default()
            },
        );
        let grid = GridOptions::quick();
        let fp = training_fingerprint(&cfp, LabelKind::SocGenerating, &grid, 5);
        assert_ne!(
            fp,
            training_fingerprint(&cfp, LabelKind::SymptomGenerating, &grid, 5)
        );
        assert_ne!(
            fp,
            training_fingerprint(&cfp, LabelKind::SocGenerating, &grid, 4)
        );
        let mut grid2 = grid;
        grid2.folds += 1;
        assert_ne!(
            fp,
            training_fingerprint(&cfp, LabelKind::SocGenerating, &grid2, 5)
        );
        // Stability: same inputs, same key.
        assert_eq!(
            fp,
            training_fingerprint(&cfp, LabelKind::SocGenerating, &grid, 5)
        );
    }

    #[test]
    fn section_fingerprints_isolate_the_edited_section() {
        let base = ipas_lang::compile(
            "fn f(n: int) -> int { let s: int = 0;
               for (let i: int = 0; i < n; i = i + 1) { s = s + i * 3; }
               return s; }
             fn main() -> int { output_i(f(6)); return 0; }",
        )
        .unwrap();
        let edited = ipas_lang::compile(
            "fn f(n: int) -> int { let s: int = 0;
               for (let i: int = 0; i < n; i = i + 1) { s = s + i * 7; }
               return s; }
             fn main() -> int { output_i(f(6)); return 0; }",
        )
        .unwrap();
        let pb = SectionPartition::compute(&base);
        let pe = SectionPartition::compute(&edited);
        assert_eq!(pb.len(), pe.len());
        let changed: Vec<usize> = (0..pb.len())
            .filter(|&s| section_fingerprint(&base, &pb, s) != section_fingerprint(&edited, &pe, s))
            .collect();
        // Only the loop section of `f` saw the constant change.
        assert_eq!(changed.len(), 1);
        assert!(pb.sections()[changed[0]].label.contains("loop"));
        // Stability: recomputing yields the same key.
        assert_eq!(
            section_fingerprint(&base, &pb, 0),
            section_fingerprint(&base, &pb, 0)
        );
    }

    #[test]
    fn plan_slice_digest_tracks_membership_and_parameters() {
        use ipas_faultsim::Injection;
        let plans = vec![
            Injection::at_global_index(10, 3),
            Injection::at_global_index(20, 4),
            Injection::at_global_index(30, 5),
        ];
        let assignment = vec![0, 1, 0];
        let d0 = plan_slice_digest(&plans, &assignment, 0);
        assert_ne!(d0, plan_slice_digest(&plans, &assignment, 1));
        // Moving a plan between sections changes both digests.
        assert_ne!(d0, plan_slice_digest(&plans, &[0, 0, 0], 0));
        // Changing a parameter of a member plan changes the digest.
        let mut bumped = plans.clone();
        bumped[2].bit = 6;
        assert_ne!(d0, plan_slice_digest(&bumped, &assignment, 0));
        // Unrelated sections are unaffected.
        assert_eq!(
            plan_slice_digest(&plans, &assignment, 1),
            plan_slice_digest(&bumped, &assignment, 1)
        );
    }

    #[test]
    fn protect_fingerprint_tracks_model_and_pipeline() {
        let m = sample_module();
        let k1 = Key::parse("aa").unwrap();
        let k2 = Key::parse("bb").unwrap();
        let fp = protect_fingerprint(&m, "IPAS", Some(&k1), "+duplicate");
        assert_ne!(fp, protect_fingerprint(&m, "IPAS", Some(&k2), "+duplicate"));
        assert_ne!(
            fp,
            protect_fingerprint(&m, "baseline", Some(&k1), "+duplicate")
        );
        assert_ne!(fp, protect_fingerprint(&m, "IPAS", None, "+duplicate"));
        assert_ne!(
            fp,
            protect_fingerprint(&m, "IPAS", Some(&k1), "dce+duplicate"),
            "pipeline shape must change the key"
        );
        // Stability: same inputs, same key.
        assert_eq!(fp, protect_fingerprint(&m, "IPAS", Some(&k1), "+duplicate"));
    }
}

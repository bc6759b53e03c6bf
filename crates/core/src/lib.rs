//! IPAS: intelligent protection against silent output corruption.
//!
//! This crate is the paper's primary contribution — the four-step
//! workflow of Figure 1 — built on the substrates in the sibling crates:
//!
//! 1. **Verification routine** — supplied per workload as an
//!    [`ipas_faultsim::OutputVerifier`];
//! 2. **Data collection** ([`training`]) — a statistical fault-injection
//!    campaign labels each injected instruction's 31-feature vector as
//!    SOC-generating or not (or symptom-generating, for the
//!    Shoestring-style baseline);
//! 3. **Training** ([`classifier`]) — a class-weighted C-SVM is tuned
//!    over the paper's 500-configuration (C, γ) grid by cross-validated
//!    F-score; the top-N configurations are kept;
//! 4. **Application protection** ([`duplication`], [`policy`]) — every
//!    instruction the classifier predicts as SOC-generating is duplicated
//!    and duplication paths are terminated with `__ipas_check_*` calls.
//!
//! [`experiment`] orchestrates the full evaluation protocol of §6
//! (coverage, SOC-reduction-vs-slowdown, duplicated-instruction counts,
//! ideal-point configuration selection) and is what the `ipas-bench`
//! binaries call to regenerate the paper's figures and tables.
//!
//! # Example
//!
//! Protect a small kernel with full duplication and observe that faults
//! become *detected* instead of silent:
//!
//! ```
//! use ipas_core::duplication::{protect_module, duplicable};
//! use ipas_core::policy::ProtectionPolicy;
//! use ipas_faultsim::{run_campaign, CampaignConfig, GoldenToleranceVerifier, Outcome, Workload};
//!
//! let module = ipas_lang::compile(
//!     "fn main() -> int { let s: int = 0;
//!        for (let i: int = 0; i < 60; i = i + 1) { s = s + i * i; }
//!        output_i(s); return 0; }",
//! ).unwrap();
//! let workload = Workload::serial("sum", module, GoldenToleranceVerifier::EXACT).unwrap();
//! let (protected, stats) = ProtectionPolicy::FullDuplication.apply(&workload.module);
//! assert!(stats.duplicated > 0);
//! let protected_wl = workload.with_module("sum-full", protected).unwrap();
//! let config = CampaignConfig { runs: 48, seed: 1, threads: 2, ..CampaignConfig::default() };
//! let result = run_campaign(&protected_wl, &config).expect("campaign completes");
//! assert!(result.count(Outcome::Detected) > 0);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod classifier;
pub mod duplication;
pub mod experiment;
pub mod faultmodels;
pub mod jobspec;
pub mod memo;
pub mod policy;
pub mod selection;
pub mod training;

pub use adaptive::{
    binary_entropy, run_campaign_adaptive, AdaptiveDriver, AdaptiveParams, AdaptiveResult,
    RoundSampling, RoundSummary,
};
pub use classifier::{train_top_configs, TrainedClassifier};
pub use duplication::{
    duplicable, protect_module, protect_module_placed, CheckPlacement, DuplicationStats,
};
pub use experiment::{
    campaign_journal_path, campaign_summary, check_labels, classifier_stage, evaluate_variant,
    evaluation_seed, evaluation_stage, memoized_protect, run_experiment, summary_key, training_key,
    training_stage, ExperimentError, ExperimentOptions, ExperimentResult, VariantResult,
};
pub use faultmodels::{compare_fault_models, model_breakdown, render_model_table, ModelBreakdown};
pub use memo::{
    campaign_fingerprint, dataset_from_artifact, eval_fingerprint, memoized_models,
    module_fingerprint, protect_fingerprint, summary_fingerprint, training_fingerprint,
    training_set_artifact, with_run_identity,
};
pub use policy::ProtectionPolicy;
pub use selection::ideal_point_index;
pub use training::{build_training_set, LabelKind};

//! Per-fault-model campaign comparison (ROADMAP "Scenario diversity").
//!
//! The paper scopes its protocol to single-bit flips in computation
//! results; this module runs the same campaign-plus-classifier pipeline
//! once per [`FaultModel`] and reports, for each model, the
//! SOC/DDC/Benign outcome breakdown and the best SOC-classifier
//! F-score, side by side with the paper's single-bit baseline. That
//! quantifies how far the published classifier quality generalizes to
//! the faults the paper assumes away (multi-bit upsets, ECC gaps on the
//! memory path, control-flow flips).

use std::fmt::Write as _;

use ipas_faultsim::{
    margin_of_error, run_campaign, CampaignConfig, CampaignError, CampaignResult, FaultModel,
    Outcome, Workload,
};
use ipas_svm::GridOptions;

use crate::classifier::train_top_configs;
use crate::experiment::check_labels;
use crate::training::{build_training_set, LabelKind};

/// One fault model's row of the comparison table.
#[derive(Debug, Clone)]
pub struct ModelBreakdown {
    /// The fault model this row describes.
    pub model: FaultModel,
    /// Classified runs (harness failures excluded).
    pub runs: usize,
    /// Silent output corruptions (§5.5 SOC).
    pub soc: usize,
    /// Detected or symptomatic corruptions — faults a
    /// duplication-or-recovery scheme handles (Detected + Symptom).
    pub ddc: usize,
    /// Benign faults: the run completed and verification accepted the
    /// output (Masked).
    pub benign: usize,
    /// 95% margin of error of the SOC fraction.
    pub soc_moe: f64,
    /// Cross-validated F-score of the best SOC classifier trained on
    /// this model's campaign; `None` when the labels are degenerate
    /// (no SOC, or nothing but SOC) and no classifier can be trained.
    pub f_score: Option<f64>,
    /// Set when the campaign could not run at all (e.g. the workload
    /// has no dynamic sites in this model's class); `runs` is then 0.
    pub skipped: Option<String>,
}

impl ModelBreakdown {
    /// SOC fraction of the classified runs (0 when none ran).
    pub fn soc_fraction(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.soc as f64 / self.runs as f64
        }
    }
}

/// Summarizes one finished campaign into a row (without an F-score).
pub fn model_breakdown(model: FaultModel, result: &CampaignResult) -> ModelBreakdown {
    let runs = result.records.len();
    ModelBreakdown {
        model,
        runs,
        soc: result.count(Outcome::Soc),
        ddc: result.count(Outcome::Detected) + result.count(Outcome::Symptom),
        benign: result.count(Outcome::Masked),
        soc_moe: margin_of_error(result.fraction(Outcome::Soc), runs),
        f_score: None,
        skipped: None,
    }
}

/// Runs one campaign and trains one SOC classifier per fault model in
/// `models`, using `base` for every knob except the model itself.
///
/// Models whose sample space the workload never exercises (e.g.
/// branch flips on straight-line code) produce a skipped row instead of
/// aborting the whole comparison; every other campaign failure is
/// propagated.
///
/// # Errors
///
/// Any [`CampaignError`] other than
/// [`CampaignError::NoDynamicSites`].
pub fn compare_fault_models(
    workload: &Workload,
    base: &CampaignConfig,
    models: &[FaultModel],
    grid: &GridOptions,
) -> Result<Vec<ModelBreakdown>, CampaignError> {
    let mut rows = Vec::with_capacity(models.len());
    for &model in models {
        let config = CampaignConfig {
            fault_model: model,
            ..*base
        };
        let result = match run_campaign(workload, &config) {
            Ok(r) => r,
            Err(e @ CampaignError::NoDynamicSites { .. }) => {
                rows.push(ModelBreakdown {
                    model,
                    runs: 0,
                    soc: 0,
                    ddc: 0,
                    benign: 0,
                    soc_moe: 0.0,
                    f_score: None,
                    skipped: Some(e.to_string()),
                });
                continue;
            }
            Err(e) => return Err(e),
        };
        let mut row = model_breakdown(model, &result);
        if !result.records.is_empty() {
            let data = build_training_set(workload, &result.records, LabelKind::SocGenerating);
            if check_labels(&data, LabelKind::SocGenerating).is_ok() {
                row.f_score = train_top_configs(&data, grid, 1)
                    .into_iter()
                    .next()
                    .map(|m| m.score().f_score);
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Renders the comparison as a fixed-width table. The ΔF column
/// compares each model's F-score against the first single-bit row (the
/// paper's baseline); rows without an F-score print `-`.
pub fn render_model_table(rows: &[ModelBreakdown]) -> String {
    let baseline = rows
        .iter()
        .find(|r| r.model == FaultModel::SingleBit)
        .and_then(|r| r.f_score);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8} {:>9}",
        "model", "runs", "SOC", "DDC", "benign", "SOC%", "±95%", "F-score", "ΔF(base)"
    );
    for r in rows {
        if let Some(reason) = &r.skipped {
            let _ = writeln!(out, "{:<12} skipped: {reason}", r.model.to_string());
            continue;
        }
        let f = match r.f_score {
            Some(f) => format!("{f:.3}"),
            None => "-".to_string(),
        };
        let delta = match (r.f_score, baseline) {
            (Some(f), Some(b)) => format!("{:+.3}", f - b),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>6} {:>6} {:>7} {:>6.1}% {:>6.1}% {:>8} {:>9}",
            r.model.to_string(),
            r.runs,
            r.soc,
            r.ddc,
            r.benign,
            r.soc_fraction() * 100.0,
            r.soc_moe * 100.0,
            f,
            delta
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_faultsim::GoldenToleranceVerifier;

    fn kernel() -> Workload {
        let module = ipas_lang::compile(
            r#"
fn main() -> int {
    let n: int = 24;
    let a: [int] = new_int(n);
    for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 5 - 2; }
    let s: int = 0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
    output_i(s);
    free_arr(a);
    return 0;
}
"#,
        )
        .unwrap();
        Workload::serial("kernel", module, GoldenToleranceVerifier::EXACT).unwrap()
    }

    #[test]
    fn compares_all_models_on_a_memory_kernel() {
        let w = kernel();
        let base = CampaignConfig {
            runs: 80,
            seed: 11,
            threads: 2,
            ..CampaignConfig::default()
        };
        let rows = compare_fault_models(&w, &base, &FaultModel::ALL, &GridOptions::quick())
            .expect("comparison completes");
        assert_eq!(rows.len(), FaultModel::ALL.len());
        // The kernel touches memory and branches, so nothing skips.
        for r in &rows {
            assert!(r.skipped.is_none(), "{}: {:?}", r.model, r.skipped);
            assert_eq!(r.soc + r.ddc + r.benign, r.runs, "{}", r.model);
            assert!(r.runs > 0, "{}", r.model);
        }
        let single = &rows[0];
        assert_eq!(single.model, FaultModel::SingleBit);
        assert!(
            single.f_score.is_some(),
            "single-bit campaign must train a classifier"
        );
        let table = render_model_table(&rows);
        assert!(table.contains("single-bit"));
        assert!(table.contains("branch-flip"));
        assert!(!table.contains("NaN"));
    }

    #[test]
    fn memory_free_code_skips_load_and_store_models() {
        // A register-only loop executes no loads or stores, so those
        // models have an empty sample space and must produce skipped
        // rows, not a hard error.
        let module = ipas_lang::compile(
            "fn main() -> int { let s: int = 0;
               for (let i: int = 0; i < 8; i = i + 1) { s = s + i * i; }
               output_i(s); return 0; }",
        )
        .unwrap();
        let w = Workload::serial("regs", module, GoldenToleranceVerifier::EXACT).unwrap();
        let rows = compare_fault_models(
            &w,
            &CampaignConfig {
                runs: 8,
                seed: 1,
                threads: 1,
                ..CampaignConfig::default()
            },
            &[FaultModel::LoadValue, FaultModel::StoreValue],
            &GridOptions::quick(),
        )
        .expect("skip, not error");
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.skipped.is_some(), "{} should skip", row.model);
            assert_eq!(row.runs, 0);
        }
        assert!(render_model_table(&rows).contains("skipped"));
    }
}

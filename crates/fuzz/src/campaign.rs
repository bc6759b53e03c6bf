//! The seeded fuzzing campaign behind `ipas fuzz`.
//!
//! Each case derives its own RNG from the campaign seed (splitmix64
//! over the case index, so cases are independent and any single case
//! can be replayed from `(seed, case)` alone), generates either a SciL
//! program or a raw IR module, and runs the configured oracles. A
//! divergence is immediately minimized with the delta debugger and —
//! when an [`ipas_store::Store`] is reachable via `IPAS_STORE_DIR` —
//! persisted as a [`FuzzRepro`] artifact so the repro outlives the
//! process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ipas_interp::FaultModel;
use ipas_store::{FingerprintBuilder, FuzzRepro, Store};

use crate::minimize::{minimize_module_with, minimize_text};
use crate::mutate::mutate;
use crate::oracle::{
    check_module_with, check_no_panic_ir, check_no_panic_scil, Divergence, OracleKind,
};
use crate::{ir_gen, scil_gen};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of generated cases.
    pub runs: u64,
    /// Campaign seed; `(seed, case)` replays any single case.
    pub seed: u64,
    /// Oracles to run (defaults to all five).
    pub oracles: Vec<OracleKind>,
    /// Pins the engine-diff fault model; `None` draws a fresh model
    /// from the case RNG for every case, so a long campaign sweeps all
    /// of them.
    pub fault_model: Option<FaultModel>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            runs: 200,
            seed: 2016,
            oracles: OracleKind::ALL.to_vec(),
            fault_model: None,
        }
    }
}

/// Draws a fault model from the case RNG (burst widths 2..=8).
fn draw_model(rng: &mut StdRng) -> FaultModel {
    match rng.gen_range(0..6u32) {
        0 => FaultModel::SingleBit,
        1 => FaultModel::MultiBitBurst {
            width: rng.gen_range(2..9),
        },
        2 => FaultModel::StuckValue,
        3 => FaultModel::LoadValue,
        4 => FaultModel::StoreValue,
        _ => FaultModel::BranchFlip,
    }
}

/// One divergence, with its minimized repro.
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    /// The violated oracle.
    pub oracle: OracleKind,
    /// Case index within the campaign.
    pub case: u64,
    /// `"scil"` or `"ir"`.
    pub input_kind: &'static str,
    /// The oracle's report.
    pub divergence: String,
    /// The generated input, verbatim.
    pub input: String,
    /// The minimized input (still divergent on the same oracle).
    pub minimized: String,
    /// Store key of the persisted [`FuzzRepro`], when a store was
    /// reachable.
    pub store_key: Option<String>,
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// `(oracle, checks run)` for every configured oracle.
    pub checks: Vec<(OracleKind, u64)>,
    /// All divergences, minimized.
    pub findings: Vec<FuzzFinding>,
}

impl FuzzReport {
    /// Renders the per-oracle tally for the CLI.
    pub fn summary(&self) -> String {
        let mut s = format!("fuzz: {} cases", self.cases);
        for (o, n) in &self.checks {
            s.push_str(&format!("\n  {:<12} {} checks", o.name(), n));
        }
        s.push_str(&format!("\n  findings: {}", self.findings.len()));
        s
    }
}

/// splitmix64: decorrelates per-case seeds from the campaign seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Campaign {
    config: FuzzConfig,
    store: Option<Store>,
    report: FuzzReport,
}

impl Campaign {
    fn bump(&mut self, oracle: OracleKind) {
        for (o, n) in &mut self.report.checks {
            if *o == oracle {
                *n += 1;
                return;
            }
        }
    }

    fn record(
        &mut self,
        case: u64,
        input_kind: &'static str,
        input: String,
        minimized: String,
        d: Divergence,
    ) {
        let store_key = self.persist(&d, case, input_kind, &input, &minimized);
        self.report.findings.push(FuzzFinding {
            oracle: d.oracle,
            case,
            input_kind,
            divergence: d.message,
            input,
            minimized,
            store_key,
        });
    }

    fn persist(
        &self,
        d: &Divergence,
        case: u64,
        input_kind: &str,
        input: &str,
        minimized: &str,
    ) -> Option<String> {
        let store = self.store.as_ref()?;
        // The artifact codec newline-normalizes text blocks; terminate
        // them here so the payload round-trips byte-exactly.
        let nl = |s: &str| {
            if s.is_empty() || s.ends_with('\n') {
                s.to_string()
            } else {
                format!("{s}\n")
            }
        };
        let repro = FuzzRepro {
            oracle: d.oracle.name().to_string(),
            input_kind: input_kind.to_string(),
            seed: self.config.seed,
            case,
            divergence: nl(&d.message),
            input: nl(input),
            minimized: nl(minimized),
        };
        let fp = FingerprintBuilder::new("fuzz-repro")
            .text("oracle", d.oracle.name())
            .text("input-kind", input_kind)
            .u64("seed", self.config.seed)
            .u64("case", case)
            .text("input", input)
            .finish();
        let key = ipas_store::Key::of(&fp);
        store.put(&key, &repro).ok()?;
        Some(key.as_str().to_string())
    }

    /// Runs every configured module-level oracle on `module`,
    /// minimizing and recording each divergence. The engine-diff
    /// oracle injects under `model`; the others ignore it.
    fn check_module_case(
        &mut self,
        case: u64,
        input_kind: &'static str,
        module: &ipas_ir::Module,
        model: FaultModel,
    ) {
        let oracles: Vec<OracleKind> = self
            .config
            .oracles
            .iter()
            .copied()
            .filter(|&o| o != OracleKind::NoPanic)
            .collect();
        for oracle in oracles {
            self.bump(oracle);
            if let Some(d) = check_module_with(oracle, module, model) {
                let (min_module, _stats) = minimize_module_with(module, oracle, model);
                self.record(case, input_kind, module.to_text(), min_module.to_text(), d);
            }
        }
    }

    /// Mutation-based no-panic case over both frontends.
    fn check_no_panic_case(&mut self, case: u64, rng: &mut StdRng) {
        self.bump(OracleKind::NoPanic);
        let scil = scil_gen::gen_program(rng);
        let mutated = mutate(rng, &scil);
        if let Some(d) = check_no_panic_scil(&mutated) {
            let (min, _stats) = minimize_text(&mutated, &|s| check_no_panic_scil(s).is_some());
            self.record(case, "scil", mutated, min, d);
        }

        let ir_text = ir_gen::gen_module(rng).to_text();
        let mutated = mutate(rng, &ir_text);
        if let Some(d) = check_no_panic_ir(&mutated) {
            let (min, _stats) = minimize_text(&mutated, &|s| check_no_panic_ir(s).is_some());
            self.record(case, "ir", mutated, min, d);
        }
    }
}

/// Runs a fuzzing campaign and returns its report. Deterministic for a
/// given config; persists minimized repros when `IPAS_STORE_DIR` names
/// a store.
pub fn run_fuzz(config: FuzzConfig) -> FuzzReport {
    let store = Store::from_env().ok().flatten();
    let checks = config.oracles.iter().map(|&o| (o, 0)).collect();
    let mut campaign = Campaign {
        config,
        store,
        report: FuzzReport {
            cases: 0,
            checks,
            findings: Vec::new(),
        },
    };

    let want_no_panic = campaign.config.oracles.contains(&OracleKind::NoPanic);
    let want_modules = campaign
        .config
        .oracles
        .iter()
        .any(|&o| o != OracleKind::NoPanic);

    for case in 0..campaign.config.runs {
        campaign.report.cases += 1;
        let mut rng = StdRng::seed_from_u64(mix(campaign.config.seed ^ mix(case)));
        let model = campaign
            .config
            .fault_model
            .unwrap_or_else(|| draw_model(&mut rng));
        match case % 3 {
            0 if want_modules => {
                let module = ir_gen::gen_module(&mut rng);
                campaign.check_module_case(case, "ir", &module, model);
            }
            1 if want_modules => {
                let src = scil_gen::gen_program(&mut rng);
                match ipas_lang::compile(&src) {
                    Ok(module) => campaign.check_module_case(case, "scil", &module, model),
                    Err(e) => {
                        // The generator promises type-correct output; a
                        // rejection is itself a finding against it.
                        campaign.record(
                            case,
                            "scil",
                            src.clone(),
                            src,
                            Divergence {
                                oracle: OracleKind::NoPanic,
                                message: format!("generator emitted rejected SciL: {e:?}"),
                            },
                        );
                    }
                }
            }
            2 if want_no_panic => {
                campaign.check_no_panic_case(case, &mut rng);
            }
            _ => {}
        }
    }
    campaign.report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let config = FuzzConfig {
            runs: 30,
            seed: 2016,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(config.clone());
        let b = run_fuzz(config);
        assert_eq!(a.cases, 30);
        assert!(
            a.findings.is_empty(),
            "campaign found unfixed divergences: {:#?}",
            a.findings
                .iter()
                .map(|f| (&f.divergence, &f.minimized))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn oracle_filter_limits_checks() {
        let report = run_fuzz(FuzzConfig {
            runs: 9,
            seed: 1,
            oracles: vec![OracleKind::Roundtrip],
            fault_model: None,
        });
        assert_eq!(report.checks.len(), 1);
        let (o, n) = report.checks[0];
        assert_eq!(o, OracleKind::Roundtrip);
        assert!(n > 0);
    }
}

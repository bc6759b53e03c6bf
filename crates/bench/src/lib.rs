//! Experiment harness shared by the `ipas-bench` binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index). Because the full §6 protocol (training
//! campaign, 500-configuration grid search, and 12 evaluation campaigns
//! per workload) is expensive, the harness caches the per-workload
//! [`ExperimentSummary`] rows in a TSV file under `target/`; delete the
//! file (or set `IPAS_FRESH=1`) to force a rerun.
//!
//! The campaign scale is controlled by `IPAS_PROFILE`:
//!
//! * `quick` — small campaigns and a reduced grid (~1 min total);
//! * `default` — the documented reproduction scale;
//! * `paper` — the paper's 2,500-training / 1,024-eval scale (slow).
//!
//! Long runs can be made interruption-safe with `IPAS_JOURNAL_DIR`:
//! when set, every campaign checkpoints its records to JSONL journals
//! in that directory, and re-running a killed binary resumes the
//! interrupted campaign instead of restarting it (see
//! docs/campaign-resilience.md).
//!
//! With `IPAS_STORE_DIR` set, the training campaign, grid search, and
//! duplication stages of every experiment are additionally memoized in
//! the artifact store by input fingerprint (see docs/artifact-store.md),
//! so re-running a finished experiment — or sharing one store across
//! binaries — skips those stages entirely.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

use ipas_core::{run_experiment, ExperimentOptions, ExperimentResult};
use ipas_faultsim::{margin_of_error, Engine, FaultModel, Outcome};
use ipas_svm::GridOptions;
use ipas_workloads::Kind;

/// Campaign scale selected via the `IPAS_PROFILE` env var.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Minimal scale for smoke runs.
    Quick,
    /// The reproduction's documented scale.
    Default,
    /// The paper's campaign sizes (2,500 training / 1,024 eval runs).
    Paper,
}

impl Profile {
    /// Reads the profile from the environment.
    pub fn from_env() -> Self {
        match std::env::var("IPAS_PROFILE").as_deref() {
            Ok("quick") => Profile::Quick,
            Ok("paper") => Profile::Paper,
            _ => Profile::Default,
        }
    }

    /// A short identifier used in the cache filename.
    pub fn tag(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Default => "default",
            Profile::Paper => "paper",
        }
    }

    /// The experiment options of this profile.
    pub fn options(self) -> ExperimentOptions {
        match self {
            Profile::Quick => ExperimentOptions {
                training_runs: 250,
                eval_runs: 96,
                top_n: 3,
                grid: GridOptions {
                    num_c: 10,
                    num_gamma: 8,
                    folds: 3,
                    ..GridOptions::default()
                },
                seed: 2016,
                threads: 0,
                engine: Engine::default(),
                journal_dir: journal_dir_from_env(),
                store_dir: store_dir_from_env(),
                fault_model: FaultModel::default(),
            },
            Profile::Default => ExperimentOptions {
                training_runs: 600,
                eval_runs: 256,
                top_n: 5,
                grid: GridOptions {
                    num_c: 25,
                    num_gamma: 20,
                    folds: 5,
                    ..GridOptions::default()
                },
                seed: 2016,
                threads: 0,
                engine: Engine::default(),
                journal_dir: journal_dir_from_env(),
                store_dir: store_dir_from_env(),
                fault_model: FaultModel::default(),
            },
            Profile::Paper => ExperimentOptions {
                training_runs: 2500,
                eval_runs: 1024,
                top_n: 5,
                grid: GridOptions::default(),
                seed: 2016,
                threads: 0,
                engine: Engine::default(),
                journal_dir: journal_dir_from_env(),
                store_dir: store_dir_from_env(),
                fault_model: FaultModel::default(),
            },
        }
    }
}

/// The campaign checkpoint directory selected via `IPAS_JOURNAL_DIR`.
fn journal_dir_from_env() -> Option<PathBuf> {
    std::env::var_os("IPAS_JOURNAL_DIR").map(PathBuf::from)
}

/// The artifact-store directory selected via `IPAS_STORE_DIR`.
fn store_dir_from_env() -> Option<PathBuf> {
    std::env::var_os(ipas_store::STORE_DIR_ENV).map(PathBuf::from)
}

/// One evaluated variant, flattened for caching and table printing.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSummary {
    /// Variant name (`unprotected`, `full`, `IPAS#k`, `Baseline#k`).
    pub name: String,
    /// Fraction of runs per outcome, in [`Outcome::ALL`] order.
    pub outcome_fractions: [f64; 4],
    /// Dynamic-instruction slowdown vs the unprotected run.
    pub slowdown: f64,
    /// Fraction of duplicable instructions duplicated.
    pub dup_fraction: f64,
    /// SOC percentage.
    pub soc_pct: f64,
    /// SOC reduction vs unprotected, percent.
    pub soc_reduction_pct: f64,
}

/// Cached per-workload experiment results.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Workload name.
    pub workload: String,
    /// Evaluation campaign size (for margins of error).
    pub eval_runs: usize,
    /// Training-set SOC fraction.
    pub training_soc_fraction: f64,
    /// Training-set symptom fraction.
    pub training_symptom_fraction: f64,
    /// Classifier training wall time, seconds.
    pub training_secs: f64,
    /// Classification + duplication wall time, seconds.
    pub duplication_secs: f64,
    /// All variants: unprotected, full, IPAS#1.., Baseline#1..
    pub variants: Vec<VariantSummary>,
}

impl ExperimentSummary {
    /// The unprotected variant.
    pub fn unprotected(&self) -> &VariantSummary {
        &self.variants[0]
    }

    /// The full-duplication variant.
    pub fn full(&self) -> &VariantSummary {
        &self.variants[1]
    }

    /// The IPAS variants.
    pub fn ipas(&self) -> Vec<&VariantSummary> {
        self.variants
            .iter()
            .filter(|v| v.name.starts_with("IPAS"))
            .collect()
    }

    /// The baseline variants.
    pub fn baseline(&self) -> Vec<&VariantSummary> {
        self.variants
            .iter()
            .filter(|v| v.name.starts_with("Baseline"))
            .collect()
    }

    /// The ideal-point best variant among `which` (§6.3).
    pub fn best_of<'a>(&self, which: &[&'a VariantSummary]) -> Option<&'a VariantSummary> {
        let points: Vec<(f64, f64)> = which
            .iter()
            .map(|v| (v.slowdown, v.soc_reduction_pct))
            .collect();
        ipas_core::ideal_point_index(&points).map(|i| which[i])
    }

    /// 95% margin of error for the unprotected SOC fraction (§6.2).
    pub fn soc_margin(&self) -> f64 {
        margin_of_error(self.unprotected().soc_pct / 100.0, self.eval_runs)
    }

    fn from_result(r: &ExperimentResult, eval_runs: usize) -> Self {
        let mut variants = Vec::new();
        let mut push = |v: &ipas_core::VariantResult| {
            variants.push(VariantSummary {
                name: v.name.clone(),
                outcome_fractions: [
                    v.fraction(Outcome::Symptom),
                    v.fraction(Outcome::Detected),
                    v.fraction(Outcome::Masked),
                    v.fraction(Outcome::Soc),
                ],
                slowdown: v.slowdown,
                dup_fraction: v.stats.duplicated_fraction(),
                soc_pct: v.soc_pct,
                soc_reduction_pct: v.soc_reduction_pct,
            });
        };
        push(&r.unprotected);
        push(&r.full);
        for v in &r.ipas {
            push(v);
        }
        for v in &r.baseline {
            push(v);
        }
        ExperimentSummary {
            workload: r.workload.clone(),
            eval_runs,
            training_soc_fraction: r.training_soc_fraction,
            training_symptom_fraction: r.training_symptom_fraction,
            training_secs: r.training_time.as_secs_f64(),
            duplication_secs: r.duplication_time.as_secs_f64(),
            variants,
        }
    }
}

fn cache_path(profile: Profile) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join(format!("ipas_results_{}.tsv", profile.tag()))
}

/// Serializes summaries to the cache format (TSV, one variant per line).
pub fn to_tsv(summaries: &[ExperimentSummary]) -> String {
    let mut out = String::new();
    for s in summaries {
        let _ = writeln!(
            out,
            "#workload\t{}\t{}\t{}\t{}\t{}\t{}",
            s.workload,
            s.eval_runs,
            s.training_soc_fraction,
            s.training_symptom_fraction,
            s.training_secs,
            s.duplication_secs
        );
        for v in &s.variants {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                v.name,
                v.outcome_fractions[0],
                v.outcome_fractions[1],
                v.outcome_fractions[2],
                v.outcome_fractions[3],
                v.slowdown,
                v.dup_fraction,
                v.soc_pct,
                v.soc_reduction_pct
            );
        }
    }
    out
}

/// Parses the cache format back.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn from_tsv(text: &str) -> Result<Vec<ExperimentSummary>, String> {
    let mut out: Vec<ExperimentSummary> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = |what: &str| format!("line {}: bad {what}", ln + 1);
        if line.starts_with("#workload") {
            if fields.len() != 7 {
                return Err(bad("workload header"));
            }
            out.push(ExperimentSummary {
                workload: fields[1].to_string(),
                eval_runs: fields[2].parse().map_err(|_| bad("eval_runs"))?,
                training_soc_fraction: fields[3].parse().map_err(|_| bad("soc fraction"))?,
                training_symptom_fraction: fields[4].parse().map_err(|_| bad("sym fraction"))?,
                training_secs: fields[5].parse().map_err(|_| bad("training secs"))?,
                duplication_secs: fields[6].parse().map_err(|_| bad("dup secs"))?,
                variants: Vec::new(),
            });
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        if fields.len() != 9 {
            return Err(bad("variant row"));
        }
        let cur = out.last_mut().ok_or_else(|| bad("variant before header"))?;
        let f = |i: usize| -> Result<f64, String> { fields[i].parse().map_err(|_| bad("number")) };
        cur.variants.push(VariantSummary {
            name: fields[0].to_string(),
            outcome_fractions: [f(1)?, f(2)?, f(3)?, f(4)?],
            slowdown: f(5)?,
            dup_fraction: f(6)?,
            soc_pct: f(7)?,
            soc_reduction_pct: f(8)?,
        });
    }
    Ok(out)
}

/// Runs (or loads from cache) the full §6 experiment for every workload.
pub fn load_or_run_experiments(profile: Profile) -> Vec<ExperimentSummary> {
    let path = cache_path(profile);
    let fresh = std::env::var("IPAS_FRESH").is_ok();
    if !fresh {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(summaries) = from_tsv(&text) {
                if summaries.len() == Kind::ALL.len() {
                    eprintln!("[ipas-bench] using cached results from {}", path.display());
                    return summaries;
                }
            }
        }
    }
    let opts = profile.options();
    let mut summaries = Vec::new();
    for kind in Kind::ALL {
        eprintln!("[ipas-bench] running experiment for {} ...", kind.name());
        let started = std::time::Instant::now();
        let workload = kind
            .build(kind.base_input())
            .expect("workload construction is infallible at base inputs");
        let result = run_experiment(&workload, &opts)
            .unwrap_or_else(|e| panic!("{} experiment failed: {e}", kind.name()));
        eprintln!(
            "[ipas-bench]   {} done in {:.1}s",
            kind.name(),
            started.elapsed().as_secs_f64()
        );
        summaries.push(ExperimentSummary::from_result(&result, opts.eval_runs));
    }
    let _ = std::fs::write(&path, to_tsv(&summaries));
    summaries
}

/// Deterministically retrains the classifiers for `kind` (same seed and
/// scale as the cached experiment) and returns the module protected with
/// the configuration named `config_name` (e.g. `"IPAS#3"` from
/// [`ExperimentSummary::best_of`]).
///
/// Figures 8 and 9 use this to recover the Table 4 best configuration's
/// protected binary without caching trained models.
pub fn protect_with_named_config(
    kind: Kind,
    profile: Profile,
    config_name: &str,
) -> (ipas_ir::Module, ipas_core::DuplicationStats) {
    let opts = profile.options();
    let workload = kind.build(kind.base_input()).expect("base workload builds");
    let store = opts
        .store_dir
        .as_ref()
        .map(ipas_store::Store::open)
        .transpose()
        .expect("artifact store opens");
    let train_cfg = ipas_faultsim::CampaignConfig {
        runs: opts.training_runs,
        seed: opts.seed,
        threads: opts.threads,
        engine: opts.engine,
        fault_model: opts.fault_model,
    };
    // The stages share keys and journals with the cached experiment, so
    // after `load_or_run_experiments` with a store this retraining
    // resolves entirely from artifacts; without a store it still reuses
    // the experiment's checkpoint journal.
    let (set, campaign_key, _) = ipas_core::training_stage(
        store.as_ref(),
        &workload,
        &train_cfg,
        opts.journal_dir.as_deref(),
    )
    .unwrap_or_else(|e| panic!("{} training stage failed: {e}", kind.name()));
    let index: usize = config_name
        .rsplit('#')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .expect("config names look like IPAS#k")
        - 1;
    let label = ipas_core::LabelKind::SocGenerating;
    let (models, training_key, _) = ipas_core::classifier_stage(
        store.as_ref(),
        &ipas_core::dataset_from_artifact(&set, label),
        &campaign_key,
        label,
        &opts.grid,
        opts.top_n,
    )
    .unwrap_or_else(|e| panic!("{} classifier stage failed: {e}", kind.name()));
    let model = models
        .into_iter()
        .nth(index)
        .expect("best index within top-N");
    let model_key = ipas_store::Key::ranked(&training_key, index);
    let (module, stats, _) = ipas_core::memoized_protect(
        store.as_ref(),
        &workload.module,
        &ipas_core::ProtectionPolicy::Ipas(model),
        Some(&model_key),
    )
    .expect("duplication pass succeeds");
    (module, stats)
}

/// Prints a simple aligned table: `header` then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// `IPAS_BENCH_REPS`: the timed repetitions of a `bench_*` harness, or
/// its alternating pairs with `--compare`; `default` when unset.
pub fn bench_reps(default: usize) -> usize {
    std::env::var("IPAS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Median and quartiles of `samples` (linear interpolation between
/// order statistics), as `[median, q1, q3]`.
///
/// # Panics
///
/// When `samples` is empty.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    [at(0.5), at(0.25), at(0.75)]
}

/// One measured row of a `--compare` run, over every run of both builds.
pub struct ComparedRow {
    /// The row's fields as each build's first run printed them,
    /// baseline then candidate.
    pub fields: [Vec<String>; 2],
    /// `[median, q1, q3]` of the row's time, baseline then candidate.
    pub stats: [[f64; 3]; 2],
    /// Whether every run of both builds printed the same fields, the
    /// time aside, and the per-build fields alike within each build.
    pub identical: bool,
}

/// The `--compare` mode of the `bench_*` harnesses. Runs `baseline`
/// (the same harness built from another revision) and this executable
/// alternately, `pairs` pairs, swapping which goes first every pair.
/// Each run gets a scratch report path as its one argument and
/// `IPAS_BENCH_REPS=reps`, and prints one tab-separated line per
/// measured row on stdout: the row's name first, its time in seconds
/// at field `seconds`. The fields at `per_build` describe the build
/// (say, how much state it keeps): each build's runs must agree on
/// them, the two builds need not. `tag` prefixes the progress lines.
///
/// # Panics
///
/// When a run fails, or the runs disagree on the rows they measure.
pub fn compare_runs(
    tag: &str,
    baseline: &str,
    pairs: usize,
    reps: usize,
    seconds: usize,
    per_build: &[usize],
) -> Vec<ComparedRow> {
    let candidate = std::env::current_exe().expect("own executable path");
    let candidate = candidate.to_str().expect("UTF-8 executable path");
    // sides[0] = baseline, sides[1] = candidate; each a list of runs.
    let mut sides: [Vec<Vec<Vec<String>>>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        // Swap which side goes first each pair.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let bin = if side == 0 { baseline } else { candidate };
            eprintln!("[{tag}] pair {} of {pairs}: {bin}", pair + 1);
            sides[side].push(run_harness(tag, bin, reps));
        }
    }
    let first = &sides[1][0];
    let names = |run: &[Vec<String>]| run.iter().map(|f| f[0].clone()).collect::<Vec<_>>();
    for run in sides.iter().flatten() {
        assert_eq!(
            names(run),
            names(first),
            "the builds measure different rows"
        );
    }
    // Fields compared within one build, and across the two.
    let same = |a: &[String], b: &[String], across: bool| {
        a.len() == b.len()
            && (0..a.len())
                .all(|j| j == seconds || (across && per_build.contains(&j)) || a[j] == b[j])
    };
    (0..first.len())
        .map(|i| {
            let fields = [sides[0][0][i].clone(), sides[1][0][i].clone()];
            let mut stats = [[0.0; 3]; 2];
            let mut identical = same(&fields[0], &fields[1], true);
            for (side, runs) in sides.iter().enumerate() {
                let times: Vec<f64> = runs
                    .iter()
                    .map(|run| {
                        identical &= same(&run[i], &fields[side], false);
                        run[i][seconds].parse().expect("time in seconds")
                    })
                    .collect();
                stats[side] = quartiles(&times);
            }
            ComparedRow {
                fields,
                stats,
                identical,
            }
        })
        .collect()
}

/// Runs one harness binary; returns its stdout lines split at tabs.
fn run_harness(tag: &str, bin: &str, reps: usize) -> Vec<Vec<String>> {
    let report = std::env::temp_dir().join(format!("{tag}_side_{}.json", std::process::id()));
    let out = Command::new(bin)
        .arg(&report)
        .env("IPAS_BENCH_REPS", reps.to_string())
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    let _ = std::fs::remove_file(&report);
    assert!(out.status.success(), "{bin} failed: {}", out.status);
    String::from_utf8(out.stdout)
        .expect("harness output is UTF-8")
        .lines()
        .map(|line| line.split('\t').map(str::to_string).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [2.5, 1.75, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    fn sample_summary() -> ExperimentSummary {
        ExperimentSummary {
            workload: "TOY".into(),
            eval_runs: 128,
            training_soc_fraction: 0.07,
            training_symptom_fraction: 0.3,
            training_secs: 1.25,
            duplication_secs: 0.5,
            variants: vec![
                VariantSummary {
                    name: "unprotected".into(),
                    outcome_fractions: [0.3, 0.0, 0.6, 0.1],
                    slowdown: 1.0,
                    dup_fraction: 0.0,
                    soc_pct: 10.0,
                    soc_reduction_pct: 0.0,
                },
                VariantSummary {
                    name: "full".into(),
                    outcome_fractions: [0.3, 0.15, 0.54, 0.01],
                    slowdown: 1.9,
                    dup_fraction: 1.0,
                    soc_pct: 1.0,
                    soc_reduction_pct: 90.0,
                },
                VariantSummary {
                    name: "IPAS#1".into(),
                    outcome_fractions: [0.3, 0.08, 0.6, 0.02],
                    slowdown: 1.15,
                    dup_fraction: 0.2,
                    soc_pct: 2.0,
                    soc_reduction_pct: 80.0,
                },
            ],
        }
    }

    #[test]
    fn tsv_round_trips() {
        let s = vec![sample_summary()];
        let text = to_tsv(&s);
        let back = from_tsv(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn tsv_rejects_garbage() {
        assert!(from_tsv("not\ta\tvalid\trow").is_err());
        assert!(from_tsv("#workload\tonly\tthree").is_err());
    }

    #[test]
    fn accessors_select_variants() {
        let s = sample_summary();
        assert_eq!(s.unprotected().name, "unprotected");
        assert_eq!(s.full().name, "full");
        assert_eq!(s.ipas().len(), 1);
        assert!(s.baseline().is_empty());
        assert!(s.soc_margin() > 0.0);
        let best = s.best_of(&s.ipas()).unwrap();
        assert_eq!(best.name, "IPAS#1");
    }

    #[test]
    fn profiles_have_increasing_scale() {
        let q = Profile::Quick.options();
        let d = Profile::Default.options();
        let p = Profile::Paper.options();
        assert!(q.training_runs < d.training_runs);
        assert!(d.training_runs < p.training_runs);
        assert_eq!(p.training_runs, 2500);
        assert_eq!(p.eval_runs, 1024);
        assert_eq!(p.grid.num_c * p.grid.num_gamma, 500);
    }
}

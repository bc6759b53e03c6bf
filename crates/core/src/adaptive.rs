//! Active-learning campaigns: margin-driven adaptive injection
//! sampling.
//!
//! Injection runs are the dominant cost of every protect request, yet a
//! classic campaign spends them uniformly. An *adaptive* campaign spends
//! them where the classifier is uncertain instead:
//!
//! 1. **Seed round** — one round of plans drawn uniformly over the
//!    profiled static sites (the [`ipas_faultsim::SamplingMode::StaticUniform`]
//!    draw shape);
//! 2. **Retrain** — a quick-grid C-SVM is trained on every label
//!    collected so far;
//! 3. **Margin weighting** — every eligible static instruction `i` gets
//!    weight `1 / (ε + |d(i)|)` where `d` is the SVM's signed decision
//!    value ([`crate::TrainedClassifier::decision_raw`]) — sites near
//!    the decision boundary draw the most new injections;
//! 4. **Stop** — when the binary entropy of per-round labels is stable
//!    (within [`AdaptiveParams::entropy_tol`]) for
//!    [`AdaptiveParams::patience`] consecutive rounds, or the hard runs
//!    budget is exhausted.
//!
//! # Determinism and resume
//!
//! All randomness flows from one `StdRng` seeded with the campaign
//! seed. Round `k+1`'s draw depends only on the labels of rounds
//! `0..=k` — which a resumed campaign replays bit-identically from the
//! journal — so a given `(seed, config, params)` is byte-deterministic
//! across thread counts and engines, and a resume never re-draws a
//! partial round differently. Rounds that cannot train (single-class
//! labels, degenerate weights) deterministically degrade to uniform
//! sampling ([`ipas_faultsim::rounds::UniformFallback`]) *without*
//! consuming extra randomness on the failed path. See
//! `docs/active-learning.md` for the full contract.

use std::collections::HashMap;

use ipas_analysis::features::FeatureExtractor;
use ipas_faultsim::rounds::{draw_uniform_site_plans, draw_weighted_site_plans, UniformFallback};
use ipas_faultsim::{
    profile_sites, CampaignConfig, CampaignError, CampaignOptions, CampaignResult, CampaignRuntime,
    FaultModel, Injection, InjectionRecord, SiteCount, Workload,
};
use ipas_svm::{Dataset, GridOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classifier::train_top_configs;
use crate::training::LabelKind;

/// The margin-weight floor: weight is `1 / (EPSILON + |margin|)`, so a
/// site exactly on the decision boundary gets finite (but maximal)
/// weight.
const MARGIN_EPSILON: f64 = 0.05;

/// Tuning knobs of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct AdaptiveParams {
    /// Plans drawn per round. Journaled in the header
    /// ([`ipas_faultsim::JournalHeader::round_runs`]): a resume must
    /// agree on it, because round boundaries decide which labels feed
    /// which retraining.
    pub round_runs: usize,
    /// Stopping tolerance: consecutive rounds whose label-entropy delta
    /// stays within this are "stable".
    pub entropy_tol: f64,
    /// Consecutive stable rounds required to stop before the budget.
    pub patience: usize,
    /// Which outcome the classifier learns (and the entropy tracks).
    pub label: LabelKind,
    /// Grid-search options for the per-round quick retrain.
    pub grid: GridOptions,
}

impl AdaptiveParams {
    /// Default parameters for a campaign with a `runs` budget: eight
    /// rounds of at least 16 plans, entropy tolerance 0.05, patience 2,
    /// SOC labels, and the quick grid.
    pub fn for_budget(runs: usize) -> Self {
        AdaptiveParams {
            round_runs: (runs / 8).max(16).min(runs.max(1)),
            entropy_tol: 0.05,
            patience: 2,
            label: LabelKind::SocGenerating,
            grid: GridOptions::quick(),
        }
    }
}

/// How one round's plans were drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundSampling {
    /// The uniform seed round (round 0).
    SeedUniform,
    /// Margin-weighted by the round's freshly trained classifier.
    Weighted,
    /// Degraded to uniform for the given reason.
    Fallback(UniformFallback),
}

impl RoundSampling {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RoundSampling::SeedUniform => "seed-uniform",
            RoundSampling::Weighted => "weighted",
            RoundSampling::Fallback(UniformFallback::SingleClassLabels) => {
                "uniform (single-class labels)"
            }
            RoundSampling::Fallback(UniformFallback::NoModel) => "uniform (no model)",
            RoundSampling::Fallback(UniformFallback::DegenerateWeights) => {
                "uniform (degenerate weights)"
            }
        }
    }
}

/// What one executed round looked like.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// Round index (0 = seed round).
    pub round: u32,
    /// Plans drawn for this round.
    pub drawn: usize,
    /// How the plans were drawn.
    pub sampling: RoundSampling,
    /// Binary entropy of this round's labels (0.0 when the round
    /// produced no classified records).
    pub entropy: f64,
    /// Plans recovered from the journal.
    pub resumed: usize,
    /// Plans executed by this invocation.
    pub executed: usize,
}

/// A completed adaptive campaign.
#[derive(Debug)]
pub struct AdaptiveResult {
    /// The campaign result over every executed round, records in plan
    /// order.
    pub result: CampaignResult,
    /// Per-round summaries, in round order.
    pub rounds: Vec<RoundSummary>,
    /// True when the entropy stopping rule fired before the runs budget
    /// was exhausted.
    pub stopped_early: bool,
}

/// Shannon entropy (in bits) of a Bernoulli distribution with success
/// probability `p`. Degenerate inputs (outside `[0, 1]`, or exactly 0
/// or 1) report 0.0.
pub fn binary_entropy(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// The round-by-round planning state of an adaptive campaign: owns the
/// seeded RNG, the site profile with per-site feature vectors, and the
/// entropy-based stopping rule. Callers (the in-process
/// [`run_campaign_adaptive`] loop and the serve daemon) alternate
/// [`AdaptiveDriver::next_round`] with running the round on a
/// [`CampaignRuntime`].
#[derive(Debug)]
pub struct AdaptiveDriver {
    rng: StdRng,
    params: AdaptiveParams,
    profile: Vec<SiteCount>,
    /// Raw feature vector per profiled site, parallel to `profile`.
    features: Vec<Vec<f64>>,
    /// `(func index, inst index)` → row in `profile`/`features`.
    site_row: HashMap<(usize, usize), usize>,
    model: FaultModel,
    budget: usize,
    drawn: usize,
    round: u32,
    entropy: Vec<f64>,
    stable: usize,
    stopped: bool,
}

impl AdaptiveDriver {
    /// Profiles the workload's sites and prepares the driver.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnsupportedSampling`] for non-value fault models
    /// (site-restricted draws enumerate value-producing instructions);
    /// [`CampaignError::Run`] / [`CampaignError::MissingProfile`] when
    /// site profiling fails.
    pub fn new(
        workload: &Workload,
        config: &CampaignConfig,
        params: AdaptiveParams,
    ) -> Result<Self, CampaignError> {
        let model = config.fault_model;
        if !model.injects_values() {
            return Err(CampaignError::UnsupportedSampling { model });
        }
        let profile = profile_sites(workload)?;
        let extractor = FeatureExtractor::new(&workload.module);
        let features: Vec<Vec<f64>> = profile
            .iter()
            .map(|((f, i), _)| extractor.extract(*f, *i).as_slice().to_vec())
            .collect();
        let site_row = profile
            .iter()
            .enumerate()
            .map(|(row, ((f, i), _))| ((f.index(), i.index()), row))
            .collect();
        Ok(AdaptiveDriver {
            rng: StdRng::seed_from_u64(config.seed),
            params,
            profile,
            features,
            site_row,
            model,
            budget: config.runs,
            drawn: 0,
            round: 0,
            entropy: Vec::new(),
            stable: 0,
            stopped: false,
        })
    }

    /// The params the driver was built with.
    pub fn params(&self) -> &AdaptiveParams {
        &self.params
    }

    /// Plans drawn across all rounds so far.
    pub fn drawn(&self) -> usize {
        self.drawn
    }

    /// True when the entropy stopping rule has fired.
    pub fn stopped_early(&self) -> bool {
        self.stopped
    }

    /// Label-entropy history, one entry per completed round (computed
    /// when the *next* round is requested).
    pub fn entropy_history(&self) -> &[f64] {
        &self.entropy
    }

    /// Plans the next round, given every classified record so far as
    /// `(global plan index, record)` pairs. Returns the round id, how
    /// its plans were drawn, and the plans — or `None` when the
    /// campaign is finished (stopping rule fired or budget exhausted).
    ///
    /// Calling this with replayed (journal-resumed) labels reproduces
    /// the original draw bit for bit: the stopping rule and the
    /// weighted-vs-fallback branch depend only on the labels, and the
    /// failed weighted path consumes no randomness.
    pub fn next_round(
        &mut self,
        labeled: &[(usize, InjectionRecord)],
    ) -> Option<(u32, RoundSampling, Vec<Injection>)> {
        if self.stopped || self.drawn >= self.budget {
            return None;
        }
        if self.round > 0 {
            // Stopping rule: entropy of the previous round's labels,
            // compared against the round before it.
            let lo = (self.round - 1) as usize * self.params.round_runs;
            let labels: Vec<bool> = labeled
                .iter()
                .filter(|(i, _)| *i >= lo && *i < self.drawn)
                .map(|(_, r)| self.params.label.label(r.outcome))
                .collect();
            let h = if labels.is_empty() {
                0.0
            } else {
                let p = labels.iter().filter(|&&b| b).count() as f64 / labels.len() as f64;
                binary_entropy(p)
            };
            if let Some(&prev) = self.entropy.last() {
                if (h - prev).abs() <= self.params.entropy_tol {
                    self.stable += 1;
                } else {
                    self.stable = 0;
                }
            }
            self.entropy.push(h);
            if self.stable >= self.params.patience.max(1) {
                self.stopped = true;
                return None;
            }
        }
        let count = self.params.round_runs.min(self.budget - self.drawn);
        let (sampling, plans) = if self.round == 0 {
            (
                RoundSampling::SeedUniform,
                draw_uniform_site_plans(&self.profile, self.model, count, &mut self.rng),
            )
        } else {
            match self.margin_weights(labeled) {
                Ok(weights) => {
                    match draw_weighted_site_plans(
                        &self.profile,
                        &weights,
                        self.model,
                        count,
                        &mut self.rng,
                    ) {
                        Ok(plans) => (RoundSampling::Weighted, plans),
                        // The failed draw consumed no randomness, so
                        // this uniform draw is deterministic.
                        Err(fb) => (
                            RoundSampling::Fallback(fb),
                            draw_uniform_site_plans(
                                &self.profile,
                                self.model,
                                count,
                                &mut self.rng,
                            ),
                        ),
                    }
                }
                Err(fb) => (
                    RoundSampling::Fallback(fb),
                    draw_uniform_site_plans(&self.profile, self.model, count, &mut self.rng),
                ),
            }
        };
        let round = self.round;
        self.round += 1;
        self.drawn += plans.len();
        Some((round, sampling, plans))
    }

    /// Trains the quick-grid classifier on every label so far and
    /// scores each profiled site by inverse margin.
    ///
    /// # Errors
    ///
    /// The [`UniformFallback`] reason when no classifier can be
    /// trained; the caller degrades the round to uniform sampling.
    fn margin_weights(
        &self,
        labeled: &[(usize, InjectionRecord)],
    ) -> Result<Vec<f64>, UniformFallback> {
        let mut x = Vec::with_capacity(labeled.len());
        let mut y = Vec::with_capacity(labeled.len());
        for (_, rec) in labeled {
            let key = (rec.site.0.index(), rec.site.1.index());
            if let Some(&row) = self.site_row.get(&key) {
                x.push(self.features[row].clone());
                y.push(self.params.label.label(rec.outcome));
            }
        }
        let positives = y.iter().filter(|&&b| b).count();
        // The PR 1 class-starved tolerance, applied campaign-wide: an
        // all-benign (or all-SOC) label set trains nothing, and must
        // degrade to a uniform round instead of erroring the campaign.
        if y.is_empty() || positives == 0 || positives == y.len() {
            return Err(UniformFallback::SingleClassLabels);
        }
        let data = Dataset::new(x, y).map_err(|_| UniformFallback::NoModel)?;
        let mut models = train_top_configs(&data, &self.params.grid, 1);
        let model = models.pop().ok_or(UniformFallback::NoModel)?;
        Ok(self
            .features
            .iter()
            .map(|f| 1.0 / (MARGIN_EPSILON + model.decision_raw(f).abs()))
            .collect())
    }
}

/// Runs a full adaptive campaign: seed round, retrain, margin-weighted
/// rounds, entropy stop — each round appended to one
/// [`CampaignRuntime`] tagged with its round id, run on its pool, and
/// committed at the round barrier.
///
/// With [`CampaignOptions::journal`] set, the journal header carries
/// the round size ([`ipas_faultsim::JournalHeader::round_runs`]) and
/// every record its round id; a re-invocation resumes by deterministic
/// replay — each round is re-drawn from the identical RNG stream,
/// resumed plans are filled from the journal, and only missing plans
/// execute, so a kill mid-round never re-draws a partial round
/// differently.
///
/// # Errors
///
/// The union of [`AdaptiveDriver::new`] and [`CampaignRuntime`] errors.
pub fn run_campaign_adaptive(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
    params: &AdaptiveParams,
) -> Result<AdaptiveResult, CampaignError> {
    let mut driver = AdaptiveDriver::new(workload, config, params.clone())?;
    let runtime = CampaignRuntime::open(workload, config, options, Some(params.round_runs))?;
    let mut rounds = Vec::new();
    let mut labeled = Vec::new();
    while let Some((round, sampling, plans)) = driver.next_round(&labeled) {
        let drawn = runtime.append(plans.into_iter().map(|plan| (plan, Some(round))));
        let executed = runtime.pending().len();
        runtime.run_pool()?;
        labeled = runtime.records();
        let labels: Vec<bool> = labeled
            .iter()
            .filter(|(i, _)| drawn.contains(i))
            .map(|(_, record)| params.label.label(record.outcome))
            .collect();
        let entropy = if labels.is_empty() {
            0.0
        } else {
            binary_entropy(labels.iter().filter(|&&b| b).count() as f64 / labels.len() as f64)
        };
        rounds.push(RoundSummary {
            round,
            drawn: drawn.len(),
            sampling,
            entropy,
            resumed: drawn.len() - executed,
            executed,
        });
    }
    Ok(AdaptiveResult {
        result: runtime.finish()?,
        rounds,
        stopped_early: driver.stopped_early(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_faultsim::{GoldenToleranceVerifier, Outcome};

    const SRC: &str = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 20; i = i + 1) { s = s + i * i; }
        output_i(s);
        return 0;
    }";

    fn workload() -> Workload {
        let module = ipas_lang::compile(SRC).expect("compiles");
        Workload::serial("adaptive", module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    fn fake_record(site: (ipas_ir::FuncId, ipas_ir::InstId), outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            model: FaultModel::SingleBit,
            site,
            target: 0,
            bit: 0,
            outcome,
            dynamic_insts: 100,
            latency: 10,
            attempts: 1,
        }
    }

    #[test]
    fn all_benign_round_degrades_to_uniform() {
        // Satellite: a round whose labels are single-class (all benign)
        // must fall back to uniform sampling, not error the campaign.
        let w = workload();
        let config = CampaignConfig {
            runs: 64,
            seed: 3,
            ..CampaignConfig::default()
        };
        let mut params = AdaptiveParams::for_budget(config.runs);
        params.round_runs = 16;
        let mut driver = AdaptiveDriver::new(&w, &config, params).expect("driver");
        let (round, sampling, plans) = driver.next_round(&[]).expect("seed round");
        assert_eq!(round, 0);
        assert_eq!(sampling, RoundSampling::SeedUniform);
        assert_eq!(plans.len(), 16);

        let profile = profile_sites(&w).expect("profile");
        let labeled: Vec<(usize, InjectionRecord)> = (0..16)
            .map(|i| {
                (
                    i,
                    fake_record(profile[i % profile.len()].0, Outcome::Masked),
                )
            })
            .collect();
        let (round, sampling, plans) = driver.next_round(&labeled).expect("fallback round");
        assert_eq!(round, 1);
        assert_eq!(
            sampling,
            RoundSampling::Fallback(UniformFallback::SingleClassLabels)
        );
        assert_eq!(plans.len(), 16);
    }

    #[test]
    fn entropy_stability_stops_before_budget() {
        let w = workload();
        let config = CampaignConfig {
            runs: 1024,
            seed: 5,
            ..CampaignConfig::default()
        };
        let mut params = AdaptiveParams::for_budget(config.runs);
        params.round_runs = 8;
        params.entropy_tol = 1.0; // every consecutive pair is "stable"
        params.patience = 2;
        let mut driver = AdaptiveDriver::new(&w, &config, params).expect("driver");
        let profile = profile_sites(&w).expect("profile");
        let mut labeled = Vec::new();
        let mut rounds = 0;
        while let Some((_, _, plans)) = driver.next_round(&labeled) {
            for (j, _) in plans.iter().enumerate() {
                let outcome = if j % 2 == 0 {
                    Outcome::Soc
                } else {
                    Outcome::Masked
                };
                labeled.push((
                    labeled.len(),
                    fake_record(profile[j % profile.len()].0, outcome),
                ));
            }
            rounds += 1;
            assert!(rounds < 10, "stopping rule never fired");
        }
        // Rounds 1 and 2's entropies both match round 0's (identical
        // label mix), so stability is reached after three rounds.
        assert_eq!(rounds, 3);
        assert!(driver.stopped_early());
        assert!(driver.drawn() < 1024, "stopped before the budget");
    }

    #[test]
    fn budget_caps_the_final_round() {
        let w = workload();
        let config = CampaignConfig {
            runs: 20,
            seed: 1,
            ..CampaignConfig::default()
        };
        let mut params = AdaptiveParams::for_budget(config.runs);
        params.round_runs = 16;
        params.patience = 100; // never stop on entropy
        let mut driver = AdaptiveDriver::new(&w, &config, params).expect("driver");
        let (_, _, first) = driver.next_round(&[]).expect("seed round");
        assert_eq!(first.len(), 16);
        let profile = profile_sites(&w).expect("profile");
        let labeled: Vec<(usize, InjectionRecord)> = (0..16)
            .map(|i| {
                let outcome = if i % 3 == 0 {
                    Outcome::Soc
                } else {
                    Outcome::Masked
                };
                (i, fake_record(profile[i % profile.len()].0, outcome))
            })
            .collect();
        let (_, _, second) = driver.next_round(&labeled).expect("truncated round");
        assert_eq!(second.len(), 4, "budget truncates the round");
        assert!(driver.next_round(&labeled).is_none(), "budget exhausted");
        assert!(!driver.stopped_early());
    }

    #[test]
    fn adaptive_campaign_runs_and_reports_rounds() {
        let w = workload();
        let config = CampaignConfig {
            runs: 48,
            seed: 7,
            threads: 2,
            ..CampaignConfig::default()
        };
        let mut params = AdaptiveParams::for_budget(config.runs);
        params.round_runs = 16;
        let out = run_campaign_adaptive(&w, &config, &CampaignOptions::default(), &params)
            .expect("adaptive campaign");
        let total: usize = out.rounds.iter().map(|r| r.drawn).sum();
        assert_eq!(
            out.result.records.len() + out.result.harness_failures.len(),
            total
        );
        assert!(total <= 48, "budget respected");
        assert_eq!(out.rounds[0].sampling, RoundSampling::SeedUniform);
        assert!(!out.rounds.is_empty());
    }

    #[test]
    fn non_value_models_are_rejected() {
        let w = workload();
        let config = CampaignConfig {
            runs: 32,
            seed: 1,
            fault_model: FaultModel::BranchFlip,
            ..CampaignConfig::default()
        };
        match AdaptiveDriver::new(&w, &config, AdaptiveParams::for_budget(32)) {
            Err(CampaignError::UnsupportedSampling { model }) => {
                assert_eq!(model, FaultModel::BranchFlip);
            }
            other => panic!("expected UnsupportedSampling, got {other:?}"),
        }
    }

    #[test]
    fn binary_entropy_is_sane() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(binary_entropy(f64::NAN), 0.0);
        assert_eq!(binary_entropy(-0.5), 0.0);
    }
}

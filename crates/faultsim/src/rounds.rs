//! Round-granular campaign execution for adaptive (active-learning)
//! campaigns.
//!
//! An adaptive campaign does not pre-draw its whole plan list: it draws
//! one *round* at a time, because the distribution of round `k+1`
//! depends on the labels of rounds `0..=k` (the margin-weighted site
//! distribution of `ipas-core`'s adaptive driver). This module supplies
//! the two pieces that stay below the training loop:
//!
//! * [`draw_uniform_site_plans`] / [`draw_weighted_site_plans`] — one
//!   round's plans from an *externally owned* RNG, so every draw of the
//!   campaign still flows from the single seeded plan RNG and the whole
//!   campaign stays a pure function of `(workload, config, params)`;
//! * [`execute_round`] — run one round's plans with the full resilient
//!   runtime, resume-filling from the journal at *global* plan indices
//!   and checkpointing all fresh outcomes of the round in one ordered
//!   write tagged with the round id.
//!
//! Determinism contract: the weighted draw rejects degenerate weights
//! *before* consuming any randomness ([`UniformFallback`]), so the
//! caller's uniform fallback draws from the identical RNG state — a
//! resumed campaign that recomputes the same weights takes the same
//! branch and draws the same plans. The journal write is one ordered
//! buffer per round, so the journal bytes are independent of thread
//! count and a crash can only tear the final line.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::Rng;

use crate::{
    lock_ignoring_poison, CampaignConfig, CampaignError, CampaignJournal, CampaignOptions,
    CheckpointStats, CompiledCampaign, FaultModel, Injection, PlanExecutor, PlanOutcome,
    ResumeState, SiteCount, Workload,
};

/// Why an adaptive round degraded to uniform site sampling instead of
/// the margin-weighted distribution. Falling back is not an error — a
/// uniform round is always sound — but the reason is surfaced so round
/// summaries can report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformFallback {
    /// The labels collected so far are all one class, so no classifier
    /// can be trained (the all-benign early-round case).
    SingleClassLabels,
    /// The quick grid search produced no usable model.
    NoModel,
    /// The margin weights were degenerate: non-finite, negative, or
    /// summing to zero.
    DegenerateWeights,
}

impl UniformFallback {
    /// Short label for round summaries.
    pub fn label(self) -> &'static str {
        match self {
            UniformFallback::SingleClassLabels => "single-class labels",
            UniformFallback::NoModel => "no model",
            UniformFallback::DegenerateWeights => "degenerate weights",
        }
    }
}

impl fmt::Display for UniformFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Draws one round of plans uniformly over the profiled static sites —
/// the same per-plan draw shape as [`crate::draw_plans`] under
/// [`crate::SamplingMode::StaticUniform`] (site, dynamic instance, bit),
/// but from a caller-owned RNG so rounds chain off one seeded stream.
pub fn draw_uniform_site_plans(
    profile: &[SiteCount],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Injection> {
    let domain = model.bit_domain();
    (0..count)
        .map(|_| {
            let (site, executions) = profile[rng.gen_range(0..profile.len())];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect()
}

/// Draws one round of plans with per-site probability proportional to
/// `weights` (parallel to `profile`), then uniform over the chosen
/// site's dynamic instances and the model's bit domain.
///
/// # Errors
///
/// [`UniformFallback::DegenerateWeights`] when the weights cannot form
/// a distribution (wrong length, non-finite or negative entries, zero
/// sum). The check runs *before any RNG draw*, so on `Err` the RNG
/// state is untouched and the caller's uniform fallback is
/// deterministic.
pub fn draw_weighted_site_plans(
    profile: &[SiteCount],
    weights: &[f64],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<Injection>, UniformFallback> {
    if weights.len() != profile.len() || weights.is_empty() {
        return Err(UniformFallback::DegenerateWeights);
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(UniformFallback::DegenerateWeights);
    }
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(UniformFallback::DegenerateWeights);
    }
    let domain = model.bit_domain();
    Ok((0..count)
        .map(|_| {
            // Inverse-CDF by cumulative scan: one f64 draw per plan,
            // deterministic for a given RNG state.
            let mut point = rng.gen_range(0.0..total);
            let mut chosen = profile.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if point < *w {
                    chosen = i;
                    break;
                }
                point -= *w;
            }
            let (site, executions) = profile[chosen];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect())
}

/// The outcomes of one executed adaptive round.
#[derive(Debug)]
pub struct RoundExecution {
    /// `(global plan index, outcome)` for every plan of the round, in
    /// plan order.
    pub outcomes: Vec<(usize, PlanOutcome)>,
    /// Plans of this round recovered from the journal instead of being
    /// re-executed.
    pub resumed: usize,
    /// Plans actually executed by this invocation.
    pub executed: usize,
    /// What the golden-state ladder saved the executed plans (the
    /// snapshot fields stay zero: the ladder belongs to the campaign).
    pub checkpoints: CheckpointStats,
}

/// Executes one round's plans (global indices `base..base + plans.len()`)
/// with the resilient runtime of [`crate::run_campaign_with`]: panic
/// isolation, deterministic retries, the wall-clock watchdog, and
/// work-shared threads.
///
/// Plans already present in `resume` (journaled by a previous
/// invocation) are filled without re-execution. All *fresh* outcomes
/// are checkpointed in one ordered write tagged with `round`, so the
/// journal bytes are identical for any thread count and a kill
/// mid-round can only tear the final line — the torn-tail shape resume
/// already tolerates.
///
/// # Errors
///
/// [`CampaignError::Journal`] when the checkpoint write fails;
/// [`CampaignError::Incomplete`] when a plan ends up without an outcome
/// (an internal invariant violation).
#[allow(clippy::too_many_arguments)]
pub fn execute_round(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
    compiled: Option<&CompiledCampaign>,
    journal: Option<&CampaignJournal>,
    resume: &ResumeState,
    base: usize,
    round: u32,
    plans: &[Injection],
) -> Result<RoundExecution, CampaignError> {
    let slots: Vec<Mutex<Option<PlanOutcome>>> =
        (0..plans.len()).map(|_| Mutex::new(None)).collect();
    let mut resumed = 0usize;
    for (j, slot) in slots.iter().enumerate() {
        let i = base + j;
        if let Some(record) = resume.records.get(&i) {
            *lock_ignoring_poison(slot) = Some(PlanOutcome::Record(*record));
            resumed += 1;
        } else if let Some(failure) = resume.failures.get(&i) {
            *lock_ignoring_poison(slot) = Some(PlanOutcome::Failure(failure.clone()));
            resumed += 1;
        }
    }
    let pending: Vec<usize> = (0..plans.len())
        .filter(|j| lock_ignoring_poison(&slots[*j]).is_none())
        .collect();
    let executed = pending.len();

    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.threads
    };
    let next = AtomicUsize::new(0);
    let checkpoints = Mutex::new(CheckpointStats::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut executor = PlanExecutor::new(workload, config.seed, options, compiled);
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= pending.len() {
                        break;
                    }
                    let j = pending[n];
                    let slot = executor.execute(base + j, plans[j]);
                    *lock_ignoring_poison(&slots[j]) = Some(slot);
                }
                *lock_ignoring_poison(&checkpoints) += executor.checkpoints();
            });
        }
    });

    let mut outcomes = Vec::with_capacity(plans.len());
    let mut fresh = Vec::with_capacity(executed);
    let mut missing = 0usize;
    for (j, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(outcome) => {
                if !resume.contains(base + j) {
                    fresh.push((base + j, outcome.clone()));
                }
                outcomes.push((base + j, outcome));
            }
            None => missing += 1,
        }
    }
    if missing > 0 {
        return Err(CampaignError::Incomplete { missing });
    }
    if let Some(journal) = journal {
        journal.append_outcomes_in_section(&fresh, Some(round))?;
    }
    Ok(RoundExecution {
        outcomes,
        resumed,
        executed,
        checkpoints: checkpoints.into_inner().unwrap_or_else(|e| e.into_inner()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profile_sites, GoldenToleranceVerifier, JournalHeader, SamplingMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 24; i = i + 1) { s = s + i * i; }
        output_i(s);
        return 0;
    }";

    fn workload() -> Workload {
        let module = ipas_lang::compile(SRC).expect("compiles");
        Workload::serial("rounds", module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    #[test]
    fn degenerate_weights_fail_before_consuming_randomness() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        let model = FaultModel::SingleBit;
        for bad in [
            vec![0.0; profile.len()],
            vec![f64::NAN; profile.len()],
            vec![-1.0; profile.len()],
            vec![],
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let err = draw_weighted_site_plans(&profile, &bad, model, 8, &mut rng)
                .expect_err("degenerate");
            assert_eq!(err, UniformFallback::DegenerateWeights);
            // The RNG was untouched: a uniform draw from it matches a
            // uniform draw from a fresh RNG with the same seed.
            let fallback = draw_uniform_site_plans(&profile, model, 8, &mut rng);
            let mut fresh = StdRng::seed_from_u64(9);
            let direct = draw_uniform_site_plans(&profile, model, 8, &mut fresh);
            assert_eq!(fallback, direct);
        }
    }

    #[test]
    fn weighted_draw_concentrates_on_heavy_sites() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        assert!(profile.len() >= 2, "need several sites");
        let mut weights = vec![0.0; profile.len()];
        weights[1] = 3.5;
        let mut rng = StdRng::seed_from_u64(3);
        let plans =
            draw_weighted_site_plans(&profile, &weights, FaultModel::SingleBit, 32, &mut rng)
                .expect("valid weights");
        assert_eq!(plans.len(), 32);
        for plan in &plans {
            assert_eq!(plan.site, Some(profile[1].0), "all mass on site 1");
            assert!(plan.target < profile[1].1);
        }
    }

    #[test]
    fn round_execution_is_thread_invariant_and_resumable() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        let mut rng = StdRng::seed_from_u64(5);
        let plans = draw_uniform_site_plans(&profile, FaultModel::SingleBit, 12, &mut rng);
        let options = CampaignOptions::default();
        let base = 12; // pretend this is round 1 of a 12-plan round size
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let config = CampaignConfig {
                runs: 24,
                seed: 5,
                threads,
                ..CampaignConfig::default()
            };
            let exec = execute_round(
                &w,
                &config,
                &options,
                None,
                None,
                &ResumeState::default(),
                base,
                1,
                &plans,
            )
            .expect("round");
            assert_eq!(exec.executed, 12);
            assert_eq!(exec.resumed, 0);
            assert_eq!(exec.outcomes.len(), 12);
            assert!(exec.outcomes.iter().map(|(i, _)| *i).eq(base..base + 12));
            results.push(exec.outcomes);
        }
        assert_eq!(results[0], results[1], "thread count is invisible");

        // Journaled outcomes resume at global indices with round tags.
        let dir = std::env::temp_dir().join("ipas-rounds-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!(
            "resume-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let header = JournalHeader {
            workload: w.name.clone(),
            entry: w.entry.clone(),
            seed: 5,
            runs: 24,
            sampling: SamplingMode::StaticUniform,
            fault_model: FaultModel::SingleBit,
            eligible_results: w.eligible_results,
            nominal_insts: w.nominal_insts,
            round_runs: Some(12),
        };
        let config = CampaignConfig {
            runs: 24,
            seed: 5,
            threads: 1,
            ..CampaignConfig::default()
        };
        {
            let (journal, resume) = CampaignJournal::open(&path, &header).expect("fresh");
            let exec = execute_round(
                &w,
                &config,
                &options,
                None,
                Some(&journal),
                &resume,
                base,
                1,
                &plans,
            )
            .expect("journaled round");
            assert_eq!(exec.executed, 12);
        }
        let (journal, resume) = CampaignJournal::open(&path, &header).expect("reopen");
        assert_eq!(resume.len(), 12);
        assert!(resume.sections.values().all(|&s| s == 1), "round tags");
        let exec = execute_round(
            &w,
            &config,
            &options,
            None,
            Some(&journal),
            &resume,
            base,
            1,
            &plans,
        )
        .expect("resumed round");
        assert_eq!(exec.executed, 0, "everything resumes");
        assert_eq!(exec.resumed, 12);
        assert_eq!(exec.outcomes, results[0]);
        std::fs::remove_file(&path).expect("cleanup");
    }
}

//! Section-granular (compositional) campaign execution.
//!
//! A classic campaign treats the workload as one opaque unit: `runs`
//! plans drawn from one seeded RNG, executed in any order, spliced back
//! by plan index. This module partitions the same campaign by *section*
//! — the loop-nest-granular units of
//! [`ipas_analysis::sections::SectionPartition`] — without changing a
//! single record:
//!
//! 1. the plan list is drawn exactly as [`crate::draw_plans`] draws it,
//!    so a sectional campaign and a classic campaign with the same seed
//!    share plans byte for byte;
//! 2. each plan is mapped to the section containing its injection site.
//!    Site-restricted plans carry the site directly; dynamic-instance
//!    plans are resolved through the clean run's run-length-encoded
//!    eligible trace ([`eligible_trace`]), whose prefix sums map any
//!    global eligible index back to its static site;
//! 3. the selected sections' plans execute on [`crate::PlanExecutor`]s
//!    — whose outcomes are invariant to chunking — and splice back into
//!    a [`CampaignResult`] by plan index.
//!
//! Because every plan is executed identically and merely *grouped*
//! differently, the composed result is byte-identical to the monolithic
//! one by construction (the `composition` integration test pins this
//! for every paper workload on both engines). The grouping is what
//! makes incremental re-analysis possible: a cached section whose
//! fingerprint and plan slice are unchanged can be spliced in without
//! re-executing it (see `ipas-core`'s incremental driver).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use ipas_analysis::sections::SectionPartition;
use ipas_interp::{Machine, RunConfig, RunStatus};
use ipas_ir::{FuncId, InstId};

use crate::{
    draw_plans, lock_ignoring_poison, profile_sites, CampaignConfig, CampaignError,
    CampaignJournal, CampaignOptions, CampaignResult, CheckpointStats, CompiledCampaign, Injection,
    JournalHeader, PlanExecutor, PlanOutcome, ResumeState, SiteCount, Workload,
};

/// Runs the workload once cleanly and returns the run-length-encoded
/// eligible-result trace: `(func, inst, count)` runs whose counts sum
/// to [`Workload::eligible_results`]. Prefix-summing the counts maps
/// any global dynamic target back to its static site — the bridge from
/// a plan's dynamic index to a section.
///
/// # Errors
///
/// [`CampaignError::Run`] when the clean run fails (it completed during
/// workload preparation, so this indicates a changed module);
/// [`CampaignError::Composition`] when the trace disagrees with the
/// clean run's eligible-result count.
pub fn eligible_trace(workload: &Workload) -> Result<Vec<(FuncId, InstId, u64)>, CampaignError> {
    let mut machine = Machine::new(&workload.module);
    let out = machine
        .run(&RunConfig {
            entry: workload.entry.clone(),
            args: workload.args.clone(),
            trace_eligible: true,
            ..RunConfig::default()
        })
        .map_err(|e| CampaignError::Run {
            stage: "eligible tracing",
            message: e.to_string(),
        })?;
    if !matches!(out.status, RunStatus::Completed(_)) {
        return Err(CampaignError::Run {
            stage: "eligible tracing",
            message: format!("clean run did not complete: {:?}", out.status),
        });
    }
    let trace = out
        .eligible_trace
        .ok_or_else(|| CampaignError::Composition {
            message: "interpreter returned no eligible trace despite tracing being enabled".into(),
        })?;
    let total: u64 = trace.iter().map(|(_, _, n)| n).sum();
    if total != workload.eligible_results {
        return Err(CampaignError::Composition {
            message: format!(
                "eligible trace covers {total} results but the clean run reported {}",
                workload.eligible_results
            ),
        });
    }
    Ok(trace)
}

/// Maps every pre-drawn plan to the section containing its injection
/// site, returning one section id per plan (parallel to `plans`).
///
/// # Errors
///
/// [`CampaignError::UnsupportedSectional`] for non-value fault models
/// (their dynamic targets index load/store/branch streams, which the
/// eligible trace does not cover); [`CampaignError::Composition`] when
/// a target falls outside the trace or a site outside the partition.
pub fn assign_sections(
    workload: &Workload,
    partition: &SectionPartition,
    plans: &[Injection],
) -> Result<Vec<u32>, CampaignError> {
    if let Some(plan) = plans.iter().find(|p| !p.model.injects_values()) {
        return Err(CampaignError::UnsupportedSectional { model: plan.model });
    }
    // The trace is only needed (and only paid for) when some plan
    // targets a dynamic instance rather than a fixed site.
    let trace = if plans.iter().any(|p| p.site.is_none()) {
        eligible_trace(workload)?
    } else {
        Vec::new()
    };
    let mut prefix = Vec::with_capacity(trace.len());
    let mut cum = 0u64;
    for (_, _, n) in &trace {
        cum += n;
        prefix.push(cum);
    }
    plans
        .iter()
        .map(|plan| {
            let (fid, inst) = match plan.site {
                Some(site) => site,
                None => {
                    let idx = prefix.partition_point(|&c| c <= plan.target);
                    let (f, i, _) = *trace.get(idx).ok_or_else(|| CampaignError::Composition {
                        message: format!(
                            "dynamic target {} lies beyond the eligible trace",
                            plan.target
                        ),
                    })?;
                    (f, i)
                }
            };
            let sec =
                partition
                    .section_of(fid, inst)
                    .ok_or_else(|| CampaignError::Composition {
                        message: format!(
                            "injection site ({}, {}) is not in the section partition",
                            fid.index(),
                            inst.index()
                        ),
                    })?;
            Ok(sec as u32)
        })
        .collect()
}

/// Enumerates the static injection sites executed by the clean run,
/// grouped per section (the per-section view of
/// [`crate::profile_sites`]). Sections the clean run never enters are
/// empty.
///
/// # Errors
///
/// Same conditions as [`crate::profile_sites`], plus
/// [`CampaignError::Composition`] when an executed site is missing from
/// the partition.
pub fn section_sites(
    workload: &Workload,
    partition: &SectionPartition,
) -> Result<Vec<Vec<SiteCount>>, CampaignError> {
    let profile = profile_sites(workload)?;
    let mut per: Vec<Vec<SiteCount>> = vec![Vec::new(); partition.len()];
    for ((f, i), n) in profile {
        let sec = partition
            .section_of(f, i)
            .ok_or_else(|| CampaignError::Composition {
                message: format!(
                    "executed site ({}, {}) is not in the section partition",
                    f.index(),
                    i.index()
                ),
            })?;
        per[sec].push(((f, i), n));
    }
    Ok(per)
}

/// The outcomes of a (possibly partial) section-granular execution.
#[derive(Debug)]
pub struct SectionExecution {
    /// `(plan index, outcome)` for every plan of a selected section, in
    /// plan order.
    pub outcomes: Vec<(usize, PlanOutcome)>,
    /// Selected plans recovered from the checkpoint journal instead of
    /// being re-executed.
    pub resumed: usize,
    /// Selected plans actually (re-)executed by this invocation.
    pub executed: usize,
    /// What the golden-state ladder saved the executed plans.
    pub checkpoints: CheckpointStats,
}

/// Executes the plans of every section whose `run_mask` entry is true,
/// with the full resilient runtime of [`crate::run_campaign_with`]
/// (panic isolation, retries, watchdog, journaling — records are
/// journaled with their section tag). Plans of unselected sections are
/// not touched; the caller splices their cached outcomes instead.
///
/// # Errors
///
/// [`CampaignError::Journal`] on checkpoint failures;
/// [`CampaignError::Incomplete`] when a selected plan ends up without
/// an outcome (an internal invariant violation).
pub fn execute_sections(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
    plans: &[Injection],
    assignment: &[u32],
    run_mask: &[bool],
) -> Result<SectionExecution, CampaignError> {
    assert_eq!(plans.len(), assignment.len(), "assignment is per plan");
    let selected: Vec<usize> = (0..plans.len())
        .filter(|&i| {
            run_mask
                .get(assignment[i] as usize)
                .copied()
                .unwrap_or(false)
        })
        .collect();

    let (journal, resume) = match &options.journal {
        Some(path) => {
            let header = JournalHeader {
                workload: workload.name.clone(),
                entry: workload.entry.clone(),
                seed: config.seed,
                runs: config.runs,
                sampling: options.sampling,
                fault_model: config.fault_model,
                eligible_results: workload.eligible_results,
                nominal_insts: workload.nominal_insts,
                round_runs: None,
            };
            let (journal, resume) = CampaignJournal::open(path, &header)?;
            (Some(journal), resume)
        }
        None => (None, ResumeState::default()),
    };

    let slots: Vec<Mutex<Option<PlanOutcome>>> =
        (0..plans.len()).map(|_| Mutex::new(None)).collect();
    let mut resumed = 0usize;
    for &i in &selected {
        if let Some(record) = resume.records.get(&i) {
            *lock_ignoring_poison(&slots[i]) = Some(PlanOutcome::Record(*record));
            resumed += 1;
        } else if let Some(failure) = resume.failures.get(&i) {
            *lock_ignoring_poison(&slots[i]) = Some(PlanOutcome::Failure(failure.clone()));
            resumed += 1;
        }
    }
    let pending: Vec<usize> = selected
        .iter()
        .copied()
        .filter(|i| lock_ignoring_poison(&slots[*i]).is_none())
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
    let abort = AtomicBool::new(false);
    let journal_error: Mutex<Option<crate::JournalError>> = Mutex::new(None);
    let compiled = CompiledCampaign::prepare(
        workload,
        config.engine,
        options,
        pending.iter().map(|&i| plans[i]),
    );
    let checkpoints = Mutex::new(CompiledCampaign::stats_of(compiled.as_ref()));

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut executor =
                    PlanExecutor::new(workload, config.seed, options, compiled.as_ref());
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= pending.len() {
                        break;
                    }
                    let i = pending[n];
                    let slot = executor.execute(i, plans[i]);
                    if let Some(journal) = &journal {
                        let written = match &slot {
                            PlanOutcome::Record(record) => {
                                journal.append_record_in_section(i, record, assignment[i])
                            }
                            PlanOutcome::Failure(failure) => journal.append_failure(failure),
                        };
                        if let Err(e) = written {
                            lock_ignoring_poison(&journal_error).get_or_insert(e);
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    *lock_ignoring_poison(&slots[i]) = Some(slot);
                }
                *lock_ignoring_poison(&checkpoints) += executor.checkpoints();
            });
        }
    });

    if let Some(e) = lock_ignoring_poison(&journal_error).take() {
        return Err(CampaignError::Journal(e));
    }

    let mut outcomes = Vec::with_capacity(selected.len());
    let mut missing = 0usize;
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(outcome) => outcomes.push((i, outcome)),
            None => {
                if selected.binary_search(&i).is_ok() {
                    missing += 1;
                }
            }
        }
    }
    if missing > 0 {
        return Err(CampaignError::Incomplete { missing });
    }
    Ok(SectionExecution {
        outcomes,
        resumed,
        executed,
        checkpoints: checkpoints.into_inner().unwrap_or_else(|e| e.into_inner()),
    })
}

/// Splices per-section outcome slices back into a whole-campaign
/// [`CampaignResult`]: every plan index in `0..runs` must appear
/// exactly once across `outcomes` (from any mix of fresh execution and
/// cached section profiles).
///
/// # Errors
///
/// [`CampaignError::Composition`] on an out-of-range or duplicate plan
/// index; [`CampaignError::Incomplete`] when plans are missing.
pub fn splice_outcomes(
    runs: usize,
    outcomes: impl IntoIterator<Item = (usize, PlanOutcome)>,
    resumed: usize,
    nominal_insts: u64,
) -> Result<CampaignResult, CampaignError> {
    let mut slots: Vec<Option<PlanOutcome>> = (0..runs).map(|_| None).collect();
    for (i, outcome) in outcomes {
        let slot = slots.get_mut(i).ok_or_else(|| CampaignError::Composition {
            message: format!("plan index {i} out of range for {runs} runs"),
        })?;
        if slot.is_some() {
            return Err(CampaignError::Composition {
                message: format!("plan index {i} was spliced twice"),
            });
        }
        *slot = Some(outcome);
    }
    let mut records = Vec::with_capacity(runs);
    let mut harness_failures = Vec::new();
    let mut missing = 0usize;
    for slot in slots {
        match slot {
            Some(PlanOutcome::Record(record)) => records.push(record),
            Some(PlanOutcome::Failure(failure)) => harness_failures.push(failure),
            None => missing += 1,
        }
    }
    if missing > 0 {
        return Err(CampaignError::Incomplete { missing });
    }
    harness_failures.sort_by_key(|f| f.plan_index);
    Ok(CampaignResult {
        records,
        harness_failures,
        resumed,
        nominal_insts,
        checkpoints: CheckpointStats::default(),
    })
}

/// A completed section-granular campaign: the partition it ran under,
/// the per-plan section assignment, and the spliced whole-campaign
/// result (byte-identical to the monolithic [`crate::run_campaign_with`]
/// for the same inputs).
#[derive(Debug)]
pub struct SectionalCampaign {
    /// The module's section partition.
    pub partition: SectionPartition,
    /// Section id of each plan, parallel to the campaign's plan list.
    pub assignment: Vec<u32>,
    /// The spliced campaign result.
    pub result: CampaignResult,
}

impl SectionalCampaign {
    /// Number of plans assigned to section `sec`.
    pub fn plans_in_section(&self, sec: u32) -> usize {
        self.assignment.iter().filter(|&&s| s == sec).count()
    }
}

/// Runs a campaign section by section: partition, draw the classic
/// plan list, assign plans to sections, execute every section, splice.
///
/// # Errors
///
/// The union of [`crate::draw_plans`], [`assign_sections`],
/// [`execute_sections`], and [`splice_outcomes`] errors.
pub fn run_campaign_sectional(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
) -> Result<SectionalCampaign, CampaignError> {
    let partition = SectionPartition::compute(&workload.module);
    let plans = draw_plans(workload, config, options.sampling)?;
    let assignment = assign_sections(workload, &partition, &plans)?;
    let mask = vec![true; partition.len()];
    let exec = execute_sections(workload, config, options, &plans, &assignment, &mask)?;
    let mut result = splice_outcomes(
        plans.len(),
        exec.outcomes,
        exec.resumed,
        workload.nominal_insts,
    )?;
    result.checkpoints = exec.checkpoints;
    Ok(SectionalCampaign {
        partition,
        assignment,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_campaign_with, FaultModel, GoldenToleranceVerifier, SamplingMode};

    const TWO_FN_SRC: &str = "fn sum_sq(n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) { s = s + i * i; }
        return s;
    }
    fn main() -> int {
        let a: int = sum_sq(9);
        output_i(a);
        let b: int = 0;
        for (let j: int = 0; j < 7; j = j + 1) { b = b + j * 3; }
        output_i(b);
        return 0;
    }";

    fn workload() -> Workload {
        let module = ipas_lang::compile(TWO_FN_SRC).expect("compiles");
        Workload::serial("two-fn", module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    #[test]
    fn trace_counts_cover_the_eligible_space() {
        let w = workload();
        let trace = eligible_trace(&w).expect("trace");
        let total: u64 = trace.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, w.eligible_results);
        // Maximal RLE: no two adjacent runs share a site.
        for pair in trace.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) != (pair[1].0, pair[1].1),
                "adjacent runs share a site"
            );
        }
    }

    #[test]
    fn sectional_matches_monolithic_campaign() {
        let w = workload();
        let config = CampaignConfig {
            runs: 48,
            seed: 11,
            threads: 2,
            ..CampaignConfig::default()
        };
        let options = CampaignOptions::default();
        let classic = run_campaign_with(&w, &config, &options).expect("classic");
        let sectional = run_campaign_sectional(&w, &config, &options).expect("sectional");
        assert!(sectional.partition.len() >= 3, "two functions with loops");
        assert_eq!(sectional.result.records, classic.records);
        assert_eq!(sectional.result.harness_failures, classic.harness_failures);
        let covered: usize = (0..sectional.partition.len() as u32)
            .map(|s| sectional.plans_in_section(s))
            .sum();
        assert_eq!(covered, config.runs, "every plan has a section");
    }

    #[test]
    fn static_site_plans_map_without_a_trace() {
        let w = workload();
        let config = CampaignConfig {
            runs: 24,
            seed: 5,
            threads: 1,
            ..CampaignConfig::default()
        };
        let options = CampaignOptions {
            sampling: SamplingMode::StaticUniform,
            ..CampaignOptions::default()
        };
        let classic = run_campaign_with(&w, &config, &options).expect("classic");
        let sectional = run_campaign_sectional(&w, &config, &options).expect("sectional");
        assert_eq!(sectional.result.records, classic.records);
    }

    #[test]
    fn masked_execution_runs_only_selected_sections() {
        let w = workload();
        let config = CampaignConfig {
            runs: 32,
            seed: 3,
            threads: 1,
            ..CampaignConfig::default()
        };
        let options = CampaignOptions::default();
        let partition = SectionPartition::compute(&w.module);
        let plans = draw_plans(&w, &config, options.sampling).expect("plans");
        let assignment = assign_sections(&w, &partition, &plans).expect("assign");
        let chosen = assignment[0];
        let mut mask = vec![false; partition.len()];
        mask[chosen as usize] = true;
        let exec =
            execute_sections(&w, &config, &options, &plans, &assignment, &mask).expect("exec");
        let expected = assignment.iter().filter(|&&s| s == chosen).count();
        assert_eq!(exec.executed, expected);
        assert_eq!(exec.outcomes.len(), expected);
        assert!(exec.outcomes.iter().all(|(i, _)| assignment[*i] == chosen));
        // Splicing a partial execution is an explicit incompleteness.
        match splice_outcomes(plans.len(), exec.outcomes, 0, w.nominal_insts) {
            Err(CampaignError::Incomplete { missing }) => {
                assert_eq!(missing, plans.len() - expected);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn non_value_models_are_rejected() {
        let w = workload();
        let partition = SectionPartition::compute(&w.module);
        let plans = vec![Injection::for_model(FaultModel::BranchFlip, 0, 0)];
        match assign_sections(&w, &partition, &plans) {
            Err(CampaignError::UnsupportedSectional { model }) => {
                assert_eq!(model, FaultModel::BranchFlip);
            }
            other => panic!("expected UnsupportedSectional, got {other:?}"),
        }
    }
}

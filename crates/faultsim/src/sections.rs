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
//! 3. the plans, each tagged with its section id, execute on the
//!    [`CampaignRuntime`] — whose outcomes are invariant to scheduling
//!    — and splice back into a [`CampaignResult`] by plan index.
//!
//! Because every plan is executed identically and merely *grouped*
//! differently, the composed result is byte-identical to the monolithic
//! one by construction (the `composition` integration test pins this
//! for every paper workload on both engines). The grouping is what
//! makes incremental re-analysis possible: a cached section whose
//! fingerprint and plan slice are unchanged can be prefilled instead of
//! re-executed (see `ipas-core`'s incremental driver).

use ipas_analysis::sections::SectionPartition;
use ipas_interp::{Machine, RunConfig, RunStatus};
use ipas_ir::{FuncId, InstId};

use crate::{
    draw_plans, profile_sites, CampaignConfig, CampaignError, CampaignOptions, CampaignResult,
    CampaignRuntime, Injection, SiteCount, Workload,
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
/// plan list, tag each plan with its section, execute, splice.
///
/// # Errors
///
/// The union of [`crate::draw_plans`], [`assign_sections`] and
/// [`CampaignRuntime`] errors.
pub fn run_campaign_sectional(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
) -> Result<SectionalCampaign, CampaignError> {
    let partition = SectionPartition::compute(&workload.module);
    let plans = draw_plans(workload, config, options.sampling)?;
    let assignment = assign_sections(workload, &partition, &plans)?;
    let runtime = CampaignRuntime::open(workload, config, options, None)?;
    runtime.append(plans.into_iter().zip(assignment.iter().map(|&s| Some(s))));
    runtime.run_pool()?;
    Ok(SectionalCampaign {
        partition,
        assignment,
        result: runtime.finish()?,
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

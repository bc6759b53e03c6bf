//! Incremental (delta) injection campaigns over section profiles.
//!
//! A sectional campaign (see [`ipas_faultsim::sections`]) partitions
//! its plan list by loop-nest section and executes each section's
//! slice independently; the spliced result is byte-identical to the
//! monolithic campaign by construction. This module adds the payoff:
//! a **delta planner** that, given a stored baseline, re-executes only
//! the sections whose content or plan slice changed and prefills the
//! campaign runtime with the cached outcomes of everything else.
//!
//! The baseline is a pair of store artifacts:
//!
//! - one [`SectionProfile`] per section, keyed by
//!   [`crate::memo::section_profile_fingerprint`] — the campaign's run
//!   identity plus the section's content fingerprint and plan-slice
//!   digest, so the key *is* the reuse condition;
//! - one [`SectionIndex`] for the whole campaign, keyed by
//!   [`crate::memo::section_index_fingerprint`], recording the run
//!   identity and every section's fingerprint, digest, and profile key.
//!
//! Reuse is sound because it is doubly conservative: a cached section
//! is spliced only when its content fingerprint *and* its plan-slice
//! digest *and* the global run identity (runs, seed, fault model,
//! sampling, eligible results, nominal instructions) all match the
//! fresh campaign. Any mismatch, missing artifact, or decode failure
//! silently falls back to executing that section — never to a wrong
//! splice. The `incremental_fuzz` oracle and the CLI's
//! `--incremental` path both pin the byte-identity of the spliced
//! result against a from-scratch campaign.

use std::collections::HashMap;
use std::str::FromStr;

use ipas_analysis::sections::SectionPartition;
use ipas_faultsim::sections::assign_sections;
use ipas_faultsim::{
    draw_plans, CampaignConfig, CampaignError, CampaignOptions, CampaignResult, CampaignRuntime,
    FaultModel, HarnessFailure, Injection, InjectionRecord, Outcome, PlanOutcome, Workload,
};
use ipas_ir::{FuncId, InstId};
use ipas_store::{
    Fingerprint, Key, SectionFailureRow, SectionIndex, SectionIndexEntry, SectionProfile,
    SectionRecordRow, Store, StoreError,
};

use crate::memo::{
    plan_slice_digest, section_fingerprint, section_index_fingerprint, section_profile_fingerprint,
};

/// Error running an incremental campaign.
#[derive(Debug)]
pub enum IncrementalError {
    /// The underlying sectional campaign failed.
    Campaign(CampaignError),
    /// The artifact store failed.
    Store(StoreError),
    /// The named baseline index does not exist in the store.
    MissingBaseline(Key),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::Campaign(e) => write!(f, "incremental campaign failed: {e}"),
            IncrementalError::Store(e) => write!(f, "incremental campaign store failed: {e}"),
            IncrementalError::MissingBaseline(key) => {
                write!(f, "baseline section index {} not found", key.as_str())
            }
        }
    }
}

impl std::error::Error for IncrementalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IncrementalError::Campaign(e) => Some(e),
            IncrementalError::Store(e) => Some(e),
            IncrementalError::MissingBaseline(_) => None,
        }
    }
}

impl From<CampaignError> for IncrementalError {
    fn from(e: CampaignError) -> Self {
        IncrementalError::Campaign(e)
    }
}

impl From<StoreError> for IncrementalError {
    fn from(e: StoreError) -> Self {
        IncrementalError::Store(e)
    }
}

/// A finished incremental campaign: the spliced whole-campaign result
/// plus the reuse accounting the CLI reports.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The spliced campaign result — byte-identical to a from-scratch
    /// campaign on the same module and config.
    pub result: CampaignResult,
    /// Sections of the module's partition.
    pub sections_total: usize,
    /// Sections spliced from cached baseline profiles.
    pub sections_reused: usize,
    /// Total plans of the campaign.
    pub injections_total: usize,
    /// Plans actually executed by this invocation (the changed
    /// sections' slices, minus any journal-resumed plans).
    pub injections_executed: usize,
    /// Store key of the [`SectionIndex`] this run saved — the baseline
    /// for the next incremental run.
    pub index_key: Key,
}

/// Runs a section-granular campaign that stores per-section profiles
/// and a baseline index, reusing every section of `baseline` whose
/// content fingerprint and plan slice are unchanged under an identical
/// run identity. With no baseline every section executes (a "full"
/// sectional run that seeds the cache).
///
/// # Errors
///
/// [`IncrementalError::MissingBaseline`] when the named baseline index
/// is absent; [`IncrementalError::Store`] on store I/O failures;
/// [`IncrementalError::Campaign`] when planning or execution fails
/// (non-value fault models are rejected as
/// [`CampaignError::UnsupportedSectional`]).
pub fn run_campaign_incremental(
    store: &Store,
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
    baseline: Option<&Key>,
) -> Result<IncrementalOutcome, IncrementalError> {
    let partition = SectionPartition::compute(&workload.module);
    let plans = draw_plans(workload, config, options.sampling)?;
    let assignment = assign_sections(workload, &partition, &plans)?;
    let total = partition.len();

    let fingerprints: Vec<Fingerprint> = (0..total)
        .map(|s| section_fingerprint(&workload.module, &partition, s))
        .collect();
    let digests: Vec<Fingerprint> = (0..total)
        .map(|s| plan_slice_digest(&plans, &assignment, s as u32))
        .collect();
    let profile_keys: Vec<Key> = (0..total)
        .map(|s| {
            Key::of(&section_profile_fingerprint(
                &workload.name,
                config,
                options.sampling,
                &fingerprints[s],
                &digests[s],
            ))
        })
        .collect();

    // Decide reuse per section *before* executing anything: a section
    // is reused only once its cached profile has fully loaded, decoded,
    // and converted — any failure along the way degrades that section
    // to fresh execution rather than erroring or mis-splicing.
    let mut cached: Vec<Option<Vec<(usize, PlanOutcome)>>> = (0..total).map(|_| None).collect();
    if let Some(key) = baseline {
        let index = store
            .get::<SectionIndex>(key)?
            .ok_or_else(|| IncrementalError::MissingBaseline(key.clone()))?;
        if identity_matches(&index, workload, config, options) {
            let by_content: HashMap<(&str, &str), &SectionIndexEntry> = index
                .sections
                .iter()
                .map(|e| ((e.fingerprint.as_str(), e.plan_digest.as_str()), e))
                .collect();
            for s in 0..total {
                let fp = fingerprints[s].hex();
                let digest = digests[s].hex();
                let Some(entry) = by_content.get(&(fp.as_str(), digest.as_str())) else {
                    continue;
                };
                cached[s] = load_profile(store, entry, &plans, &assignment, s as u32);
            }
        }
    }

    let runtime = CampaignRuntime::open(workload, config, options, None)?;
    runtime.append(
        plans
            .iter()
            .copied()
            .zip(assignment.iter().map(|&s| Some(s))),
    );
    runtime.prefill(cached.iter().flatten().flatten().cloned())?;
    let executed = runtime.pending().len();
    runtime.run_pool()?;

    // Persist fresh sections' profiles (cached ones are already stored
    // under the identical key — fingerprint, digest, and identity all
    // matched, so the bytes are the same artifact).
    let mut fresh: Vec<Vec<(usize, PlanOutcome)>> = (0..total).map(|_| Vec::new()).collect();
    for (i, outcome) in runtime.outcomes() {
        fresh[assignment[i] as usize].push((i, outcome));
    }
    for s in 0..total {
        if cached[s].is_some() {
            continue;
        }
        let profile = build_profile(
            workload,
            &partition,
            s,
            &fingerprints[s],
            &digests[s],
            &fresh[s],
        );
        store.put(&profile_keys[s], &profile)?;
    }

    let index = SectionIndex {
        workload: workload.name.clone(),
        runs: config.runs as u64,
        seed: config.seed,
        fault_model: config.fault_model.to_string(),
        sampling: options.sampling.wire().to_string(),
        eligible_results: workload.eligible_results,
        nominal_insts: workload.nominal_insts,
        sections: (0..total)
            .map(|s| SectionIndexEntry {
                fingerprint: fingerprints[s].hex(),
                plan_digest: digests[s].hex(),
                profile_key: profile_keys[s].as_str().to_string(),
                plans: assignment.iter().filter(|&&a| a == s as u32).count() as u64,
                label: partition.sections()[s].label.clone(),
            })
            .collect(),
    };
    let index_key = Key::of(&section_index_fingerprint(
        &workload.module,
        &workload.name,
        config,
        options.sampling,
    ));
    store.put(&index_key, &index)?;

    Ok(IncrementalOutcome {
        result: runtime.finish()?,
        sections_total: total,
        sections_reused: cached.iter().filter(|c| c.is_some()).count(),
        injections_total: plans.len(),
        injections_executed: executed,
        index_key,
    })
}

/// Checks the baseline's global run identity against the fresh
/// campaign. Everything that determines the plan list or the outcome
/// space must match; otherwise nothing is reusable.
fn identity_matches(
    index: &SectionIndex,
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
) -> bool {
    index.workload == workload.name
        && index.runs == config.runs as u64
        && index.seed == config.seed
        && index.fault_model == config.fault_model.to_string()
        && index.sampling == options.sampling.wire()
        && index.eligible_results == workload.eligible_results
        && index.nominal_insts == workload.nominal_insts
}

/// Loads and converts one cached section profile, or `None` when the
/// artifact is absent, damaged, skewed, or inconsistent with the fresh
/// campaign's plan slice (the section then re-executes).
fn load_profile(
    store: &Store,
    entry: &SectionIndexEntry,
    plans: &[Injection],
    assignment: &[u32],
    section: u32,
) -> Option<Vec<(usize, PlanOutcome)>> {
    let key = Key::parse(&entry.profile_key).ok()?;
    let profile = store.get::<SectionProfile>(&key).ok()??;
    if profile.section_fingerprint != entry.fingerprint || profile.plan_digest != entry.plan_digest
    {
        return None;
    }
    let expected = assignment.iter().filter(|&&a| a == section).count();
    if profile.records.len() + profile.failures.len() != expected {
        return None;
    }
    let mut outcomes = Vec::with_capacity(expected);
    for row in &profile.records {
        outcomes.push((
            row.plan as usize,
            PlanOutcome::Record(record_from_row(row)?),
        ));
    }
    for row in &profile.failures {
        outcomes.push((
            row.plan as usize,
            PlanOutcome::Failure(failure_from_row(row)),
        ));
    }
    // Belt and braces on top of the digest match: every cached plan
    // index must belong to this section in the *fresh* assignment.
    if !outcomes
        .iter()
        .all(|(i, _)| *i < plans.len() && assignment[*i] == section)
    {
        return None;
    }
    Some(outcomes)
}

fn build_profile(
    workload: &Workload,
    partition: &SectionPartition,
    section: usize,
    fingerprint: &Fingerprint,
    digest: &Fingerprint,
    outcomes: &[(usize, PlanOutcome)],
) -> SectionProfile {
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for (i, outcome) in outcomes {
        match outcome {
            PlanOutcome::Record(r) => records.push(row_from_record(*i, r)),
            PlanOutcome::Failure(f) => failures.push(row_from_failure(f)),
        }
    }
    SectionProfile {
        workload: workload.name.clone(),
        section_label: partition.sections()[section].label.clone(),
        section_fingerprint: fingerprint.hex(),
        plan_digest: digest.hex(),
        records,
        failures,
    }
}

fn row_from_record(plan: usize, r: &InjectionRecord) -> SectionRecordRow {
    SectionRecordRow {
        plan: plan as u64,
        model: r.model.to_string(),
        func: r.site.0.index() as u64,
        inst: r.site.1.index() as u64,
        target: r.target,
        bit: r.bit,
        outcome: r.outcome.wire().to_string(),
        dynamic_insts: r.dynamic_insts,
        latency: r.latency,
        attempts: r.attempts,
    }
}

fn record_from_row(row: &SectionRecordRow) -> Option<InjectionRecord> {
    Some(InjectionRecord {
        model: FaultModel::from_str(&row.model).ok()?,
        site: (
            FuncId::new(row.func as usize),
            InstId::new(row.inst as usize),
        ),
        target: row.target,
        bit: row.bit,
        outcome: Outcome::from_wire(&row.outcome)?,
        dynamic_insts: row.dynamic_insts,
        latency: row.latency,
        attempts: row.attempts,
    })
}

fn row_from_failure(f: &HarnessFailure) -> SectionFailureRow {
    SectionFailureRow {
        plan: f.plan_index as u64,
        target: f.target,
        bit: f.bit,
        attempts: f.attempts,
        error: f.error.clone(),
    }
}

fn failure_from_row(row: &SectionFailureRow) -> HarnessFailure {
    HarnessFailure {
        plan_index: row.plan as usize,
        target: row.target,
        bit: row.bit,
        attempts: row.attempts,
        error: row.error.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_faultsim::{run_campaign_with, GoldenToleranceVerifier};

    const BASE_SRC: &str = "fn scale(n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) { s = s + i * 2; }
        return s;
    }
    fn main() -> int {
        let a: int = scale(11);
        output_i(a);
        let b: int = 0;
        for (let j: int = 0; j < 9; j = j + 1) { b = b + j + 4; }
        output_i(b);
        return 0;
    }";

    // Identical to BASE_SRC except for one constant inside `scale`'s
    // loop — exactly one section's content changes, and the loop trip
    // counts (hence the eligible space and every plan) are unchanged.
    const MUTATED_SRC: &str = "fn scale(n: int) -> int {
        let s: int = 0;
        for (let i: int = 0; i < n; i = i + 1) { s = s + i * 5; }
        return s;
    }
    fn main() -> int {
        let a: int = scale(11);
        output_i(a);
        let b: int = 0;
        for (let j: int = 0; j < 9; j = j + 1) { b = b + j + 4; }
        output_i(b);
        return 0;
    }";

    fn workload(name: &str, src: &str) -> Workload {
        let module = ipas_lang::compile(src).expect("compiles");
        Workload::serial(name, module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    fn tmp_store(name: &str) -> Store {
        let dir = std::env::temp_dir()
            .join("ipas-incremental-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            runs: 40,
            seed: 9,
            threads: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn seeding_run_executes_everything_and_stores_a_baseline() {
        let store = tmp_store("seed");
        let w = workload("inc", BASE_SRC);
        let out =
            run_campaign_incremental(&store, &w, &config(), &CampaignOptions::default(), None)
                .expect("seeding run");
        assert_eq!(out.sections_reused, 0);
        assert_eq!(out.injections_executed, out.injections_total);
        assert!(out.sections_total >= 3, "two functions with loops");
        let classic = run_campaign_with(&w, &config(), &CampaignOptions::default()).unwrap();
        assert_eq!(out.result.records, classic.records);
        let index = store
            .get::<SectionIndex>(&out.index_key)
            .unwrap()
            .expect("index stored");
        assert_eq!(index.sections.len(), out.sections_total);
    }

    #[test]
    fn unchanged_module_reuses_every_section() {
        let store = tmp_store("full-reuse");
        let w = workload("inc", BASE_SRC);
        let opts = CampaignOptions::default();
        let seed_run = run_campaign_incremental(&store, &w, &config(), &opts, None).unwrap();
        let again =
            run_campaign_incremental(&store, &w, &config(), &opts, Some(&seed_run.index_key))
                .expect("incremental run");
        assert_eq!(again.sections_reused, again.sections_total);
        assert_eq!(again.injections_executed, 0);
        assert_eq!(again.result.records, seed_run.result.records);
        assert_eq!(
            again.result.harness_failures,
            seed_run.result.harness_failures
        );
    }

    #[test]
    fn one_function_change_reruns_only_the_changed_sections() {
        let store = tmp_store("delta");
        let base = workload("inc", BASE_SRC);
        let mutated = workload("inc", MUTATED_SRC);
        let opts = CampaignOptions::default();
        let cfg = config();
        let seed_run = run_campaign_incremental(&store, &base, &cfg, &opts, None).unwrap();
        let delta =
            run_campaign_incremental(&store, &mutated, &cfg, &opts, Some(&seed_run.index_key))
                .expect("delta run");
        assert!(delta.sections_reused > 0, "untouched sections reuse");
        assert!(
            delta.sections_reused < delta.sections_total,
            "the mutated section re-executes"
        );
        assert!(delta.injections_executed < delta.injections_total);
        // The spliced result is byte-identical to a from-scratch
        // campaign on the mutated module — the acceptance bar.
        let scratch = run_campaign_with(&mutated, &cfg, &opts).unwrap();
        assert_eq!(delta.result.records, scratch.records);
        assert_eq!(delta.result.harness_failures, scratch.harness_failures);
        // And the delta run's own index now serves as a full baseline.
        let again = run_campaign_incremental(&store, &mutated, &cfg, &opts, Some(&delta.index_key))
            .unwrap();
        assert_eq!(again.injections_executed, 0);
    }

    #[test]
    fn identity_drift_disables_reuse_without_corrupting_results() {
        let store = tmp_store("drift");
        let w = workload("inc", BASE_SRC);
        let opts = CampaignOptions::default();
        let seed_run = run_campaign_incremental(&store, &w, &config(), &opts, None).unwrap();
        let other = CampaignConfig {
            seed: 10,
            ..config()
        };
        let out = run_campaign_incremental(&store, &w, &other, &opts, Some(&seed_run.index_key))
            .expect("runs despite drift");
        assert_eq!(out.sections_reused, 0, "different seed reuses nothing");
        let classic = run_campaign_with(&w, &other, &opts).unwrap();
        assert_eq!(out.result.records, classic.records);
    }

    #[test]
    fn missing_baseline_is_a_typed_error() {
        let store = tmp_store("missing");
        let w = workload("inc", BASE_SRC);
        let key = Key::parse("deadbeef").unwrap();
        match run_campaign_incremental(
            &store,
            &w,
            &config(),
            &CampaignOptions::default(),
            Some(&key),
        ) {
            Err(IncrementalError::MissingBaseline(k)) => assert_eq!(k.as_str(), "deadbeef"),
            other => panic!("expected MissingBaseline, got {other:?}"),
        }
    }
}

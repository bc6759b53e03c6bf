//! The `ipas serve` daemon: accepts jobs over a Unix-domain socket and
//! executes them on the sharded work-stealing scheduler.
//!
//! # Job lifecycle
//!
//! A `submit` request deduplicates on [`JobSpec::job_id`] (a
//! fingerprint of every artifact-determining field). New jobs are
//! checkpointed as a `.job` file *before* they are acknowledged, so a
//! crash or graceful shutdown never loses an accepted job. Execution is
//! three task shapes on the scheduler:
//!
//! 1. **prepare** — compile the source, build the workload, pre-draw
//!    the full injection plan list, open the campaign journal (resuming
//!    completed plan indices from a previous daemon process), and split
//!    the pending indices into chunks distributed across shards;
//! 2. **chunk** — execute a slice of plans on a private
//!    [`PlanExecutor`], append the outcomes to the journal in one
//!    atomic-at-EOF write, and stream them to subscribers;
//! 3. **finalize** — assemble the [`ipas_faultsim::CampaignResult`]
//!    in plan order (chunk scheduling is invisible: plans were
//!    pre-drawn from one seeded RNG), build the job's artifact, store
//!    it, and emit the terminal `result` event.
//!
//! # Restart-resume
//!
//! On startup the daemon re-enqueues every leftover `.job` checkpoint.
//! The campaign journal doubles as the work cache: plan indices already
//! journaled are never re-executed, and a job whose journal is complete
//! skips straight to finalize with zero injections. Terminal states
//! (done, failed, canceled) delete the checkpoint.
//!
//! # Shutdown
//!
//! `SIGTERM`/`SIGINT` (or a `shutdown` request) stop the accept loop,
//! drain in-flight chunks (queued tasks are abandoned — their `.job`
//! files and journals survive), and close all event logs so watchers
//! disconnect cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ipas_analysis::sections::SectionPartition;
use ipas_core::adaptive::{AdaptiveDriver, AdaptiveParams};
use ipas_core::classifier::{train_top_configs, TrainedClassifier};
use ipas_core::experiment::memoized_protect;
use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_core::memo::{
    campaign_fingerprint, dataset_from_artifact, memoized_models, summary_fingerprint,
    training_fingerprint, training_set_artifact,
};
use ipas_core::policy::ProtectionPolicy;
use ipas_core::training::LabelKind;
use ipas_faultsim::sections::assign_sections;
use ipas_faultsim::{
    draw_plans, outcome_line_in_section, CampaignConfig, CampaignJournal, CampaignOptions,
    CampaignResult, CheckpointStats, CompiledCampaign, Injection, InjectionRecord, JournalHeader,
    Outcome, PlanExecutor, PlanOutcome, ResumeState, Workload,
};
use ipas_store::{
    ArtifactKind, CampaignSummary, Fingerprint, Key, ProtectedModule, SingleFlight, Store,
    TrainingSet,
};
use ipas_svm::GridOptions;

use crate::job::{Job, JobState};
use crate::proto::{self, Request};
use crate::scheduler::Scheduler;
use crate::ServeError;

/// Configuration of one daemon process.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path (created on start, removed on exit).
    pub socket: PathBuf,
    /// State directory: `jobs/` checkpoints, `journals/`, `store/`.
    pub state_dir: PathBuf,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Scheduler shards (0 = one per worker).
    pub shards: usize,
    /// Plans per stealable chunk.
    pub chunk: usize,
    /// Max injection runs a tenant may submit per daemon lifetime
    /// (0 = unlimited).
    pub quota_runs: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("ipas-serve.sock"),
            state_dir: PathBuf::from("ipas-serve-state"),
            threads: 0,
            shards: 0,
            chunk: 32,
            quota_runs: 0,
        }
    }
}

/// What a daemon did before exiting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonReport {
    /// Jobs accepted (including restored checkpoints).
    pub jobs: u64,
    /// Injection runs actually executed by this process (journal
    /// resumes excluded).
    pub executed_runs: u64,
    /// Scheduler tasks abandoned at drain (recoverable on restart).
    pub abandoned_tasks: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-wide signal latch. The handler only stores a flag; the
/// accept loop polls it.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        // From the C runtime; avoids a libc crate dependency. The
        // handler address is passed as a plain machine word.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Everything chunk tasks of one running job share.
struct RunCtx {
    job: Arc<Job>,
    workload: Workload,
    compiled: Option<CompiledCampaign>,
    /// Ladder size plus every executed chunk's skipped instructions.
    checkpoints: Mutex<CheckpointStats>,
    /// Every plan drawn so far. Classic jobs draw the full list during
    /// prepare; adaptive jobs ([`JobSpec::adaptive`]) grow it round by
    /// round, so reads go through the lock.
    plans: Mutex<Vec<Injection>>,
    /// Section id per plan for sectional jobs ([`JobSpec::sections`]):
    /// chunks then align to section boundaries and journal records
    /// carry section tags.
    assignment: Option<Vec<u32>>,
    /// The round planner for adaptive jobs: between rounds it retrains
    /// on the labels so far and draws the next margin-weighted round.
    adaptive: Option<Mutex<AdaptiveDriver>>,
    /// Round size for adaptive jobs; plan `i` belongs to round
    /// `i / round_runs` (only the final round can be short).
    round_runs: Option<usize>,
    /// One slot per *possible* plan (`config.runs`); adaptive jobs that
    /// stop early leave the tail untouched and finalize over
    /// `plans.len()` only.
    slots: Vec<Mutex<Option<PlanOutcome>>>,
    journal: CampaignJournal,
    remaining_chunks: AtomicUsize,
    config: CampaignConfig,
    options: CampaignOptions,
}

struct Daemon {
    config: DaemonConfig,
    store: Store,
    flight: SingleFlight,
    scheduler: Scheduler,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    /// Injection runs charged per tenant this process lifetime.
    quota_used: Mutex<HashMap<String, u64>>,
    accepted: AtomicU64,
    executed_runs: AtomicU64,
    shutdown: AtomicBool,
}

impl Daemon {
    fn new(config: DaemonConfig) -> Result<Arc<Daemon>, ServeError> {
        for sub in ["jobs", "journals", "store"] {
            std::fs::create_dir_all(config.state_dir.join(sub))
                .map_err(|e| ServeError::io(config.state_dir.join(sub), e))?;
        }
        let store = Store::open(config.state_dir.join("store"))
            .map_err(|e| ServeError::Store(e.to_string()))?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            config.threads
        };
        let shards = if config.shards == 0 {
            threads
        } else {
            config.shards
        };
        Ok(Arc::new(Daemon {
            scheduler: Scheduler::new(threads, shards),
            store,
            flight: SingleFlight::new(),
            jobs: Mutex::new(HashMap::new()),
            quota_used: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            executed_runs: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            config,
        }))
    }

    fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join("jobs").join(format!("{id}.job"))
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.config
            .state_dir
            .join("journals")
            .join(format!("{id}.jsonl"))
    }

    /// Writes the `.job` checkpoint atomically (tmp + rename).
    fn write_checkpoint(&self, spec: &JobSpec) -> Result<(), ServeError> {
        let path = self.checkpoint_path(&spec.job_id());
        let tmp = path.with_extension("job.tmp");
        std::fs::write(&tmp, spec.encode("jobspec"))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| ServeError::io(path, e))
    }

    fn remove_checkpoint(&self, id: &str) {
        let _ = std::fs::remove_file(self.checkpoint_path(id));
    }

    /// Charges a tenant's quota; `Err` carries the refusal reason.
    fn charge_quota(&self, tenant: &str, runs: u64) -> Result<(), String> {
        if self.config.quota_runs == 0 {
            return Ok(());
        }
        let mut used = lock(&self.quota_used);
        let entry = used.entry(tenant.to_string()).or_insert(0);
        if *entry + runs > self.config.quota_runs {
            return Err(format!(
                "quota exhausted for tenant {tenant:?}: {} of {} runs used, {runs} requested",
                *entry, self.config.quota_runs
            ));
        }
        *entry += runs;
        Ok(())
    }

    /// Registers `spec` as a new job, or returns the existing one it
    /// deduplicates onto. Err means the submission was refused.
    fn admit(self: &Arc<Daemon>, spec: JobSpec, charge: bool) -> Result<(Arc<Job>, bool), String> {
        let id = spec.job_id();
        let mut jobs = lock(&self.jobs);
        if let Some(existing) = jobs.get(&id) {
            return Ok((Arc::clone(existing), true));
        }
        if charge {
            self.charge_quota(&spec.tenant, spec.campaign_config().runs as u64)?;
        }
        self.write_checkpoint(&spec).map_err(|e| e.to_string())?;
        let job = Arc::new(Job::new(spec));
        jobs.insert(id, Arc::clone(&job));
        drop(jobs);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let daemon = Arc::clone(self);
        let queued = Arc::clone(&job);
        self.scheduler.submit(move || daemon.prepare(queued));
        Ok((job, false))
    }

    /// Re-enqueues every leftover `.job` checkpoint from a previous
    /// daemon process.
    fn restore_checkpoints(self: &Arc<Daemon>) -> Result<usize, ServeError> {
        let dir = self.config.state_dir.join("jobs");
        let mut restored = 0;
        let entries = std::fs::read_dir(&dir).map_err(|e| ServeError::io(dir.clone(), e))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|x| x == "job").unwrap_or(false))
            .collect();
        paths.sort();
        for path in paths {
            let text =
                std::fs::read_to_string(&path).map_err(|e| ServeError::io(path.clone(), e))?;
            match JobSpec::decode(text.trim_end_matches('\n'), "jobspec") {
                Ok(spec) => {
                    // Quota is re-charged: the ledger is per-process.
                    if self.admit(spec, true).is_ok() {
                        restored += 1;
                    }
                }
                // A corrupt checkpoint is dropped rather than wedging
                // startup forever.
                Err(_) => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(restored)
    }

    fn fail(&self, job: &Job, reason: String) {
        job.update(|p| {
            p.state = JobState::Failed;
            p.error = Some(reason.clone());
        });
        job.events.push(proto::failed_event(&job.id, &reason));
        job.events.close();
        self.remove_checkpoint(&job.id);
    }

    fn finish_canceled(&self, job: &Job) {
        job.update(|p| p.state = JobState::Canceled);
        job.events
            .push(proto::failed_event(&job.id, "canceled by client"));
        job.events.close();
        self.remove_checkpoint(&job.id);
    }

    /// Task 1: build the run context and dispatch chunks.
    fn prepare(self: Arc<Daemon>, job: Arc<Job>) {
        if job.canceled() {
            self.finish_canceled(&job);
            return;
        }
        match self.prepare_ctx(&job) {
            Ok(ctx) if ctx.adaptive.is_some() => self.advance_round(ctx),
            Ok(ctx) => self.dispatch_chunks(ctx),
            Err(reason) => self.fail(&job, reason),
        }
    }

    fn prepare_ctx(&self, job: &Arc<Job>) -> Result<Arc<RunCtx>, String> {
        let spec = &job.spec;
        let module =
            ipas_lang::compile(&spec.source).map_err(|e| format!("compile failed: {e}"))?;
        let workload = Workload::serial(&spec.name, module, spec.tolerance)
            .map_err(|e| format!("workload preparation failed: {e}"))?;
        // Eval jobs run the campaign against the stored protected
        // variant, keeping the reference verifier.
        let workload = if spec.kind == JobKind::Eval {
            // Checkpoints are decoded without re-validation, so a
            // hand-edited `.job` file can reach this point without a
            // module key; fail the job instead of killing the worker.
            let key_text = spec
                .module_key
                .as_deref()
                .ok_or_else(|| "eval job is missing its module key".to_string())?;
            let key = Key::parse(key_text).map_err(|e| format!("bad module key: {e}"))?;
            let artifact = self
                .store
                .get::<ProtectedModule>(&key)
                .map_err(|e| format!("cannot load module {key}: {e}"))?
                .ok_or_else(|| format!("no protected module under key {key}"))?;
            let variant = artifact
                .module()
                .map_err(|e| format!("stored module {key} no longer parses: {e}"))?;
            workload
                .with_module(&format!("{}-eval", spec.name), variant)
                .map_err(|e| format!("protected module clean run failed: {e}"))?
        } else {
            workload
        };
        let config = spec.campaign_config();
        let mut options = spec.campaign_options();
        let journal_path = self.journal_path(&job.id);
        options.journal = Some(journal_path.clone());
        // Adaptive jobs draw nothing up front: the driver draws round
        // by round as labels accumulate (see `advance_round`).
        let adaptive = if spec.adaptive {
            let params = AdaptiveParams::for_budget(config.runs);
            Some(
                AdaptiveDriver::new(&workload, &config, params)
                    .map_err(|e| format!("adaptive setup failed: {e}"))?,
            )
        } else {
            None
        };
        let round_runs = adaptive.as_ref().map(|d| d.params().round_runs);
        let plans = if spec.adaptive {
            Vec::new()
        } else {
            draw_plans(&workload, &config, options.sampling)
                .map_err(|e| format!("plan drawing failed: {e}"))?
        };
        let assignment = if spec.sections {
            let partition = SectionPartition::compute(&workload.module);
            Some(
                assign_sections(&workload, &partition, &plans)
                    .map_err(|e| format!("section assignment failed: {e}"))?,
            )
        } else {
            None
        };
        let header = JournalHeader {
            workload: workload.name.clone(),
            entry: workload.entry.clone(),
            seed: config.seed,
            runs: config.runs,
            sampling: options.sampling,
            fault_model: config.fault_model,
            eligible_results: workload.eligible_results,
            nominal_insts: workload.nominal_insts,
            round_runs,
        };
        let (journal, resume) = CampaignJournal::open(&journal_path, &header)
            .map_err(|e| format!("journal failed: {e}"))?;
        // Adaptive slots cover the whole budget; rounds fill a prefix.
        let slot_count = if spec.adaptive {
            config.runs
        } else {
            plans.len()
        };
        let slots: Vec<Mutex<Option<PlanOutcome>>> =
            (0..slot_count).map(|_| Mutex::new(None)).collect();
        let ResumeState {
            records,
            failures,
            sections: _,
        } = resume;
        let resumed = records.len() + failures.len();
        for (i, record) in records {
            *lock(&slots[i]) = Some(PlanOutcome::Record(record));
        }
        for (i, failure) in failures {
            *lock(&slots[i]) = Some(PlanOutcome::Failure(failure));
        }
        let compiled = CompiledCampaign::prepare(
            &workload,
            config.engine,
            &options,
            plans
                .iter()
                .zip(&slots)
                .filter(|(_, slot)| lock(slot).is_none())
                .map(|(plan, _)| *plan),
        );
        let checkpoints = Mutex::new(CompiledCampaign::stats_of(compiled.as_ref()));
        job.update(|p| {
            p.state = JobState::Running;
            p.total = plans.len();
            p.resumed = resumed;
        });
        job.events
            .push(proto::progress_event(0, plans.len(), resumed));
        Ok(Arc::new(RunCtx {
            job: Arc::clone(job),
            workload,
            compiled,
            checkpoints,
            plans: Mutex::new(plans),
            assignment,
            adaptive: adaptive.map(Mutex::new),
            round_runs,
            slots,
            journal,
            remaining_chunks: AtomicUsize::new(0),
            config,
            options,
        }))
    }

    /// Adaptive task: retrains on every label collected so far, draws
    /// the next margin-weighted round, and dispatches its chunks — or
    /// hands off to finalize when the driver stops (entropy stability
    /// or budget). Fully journal-resumed rounds are replayed inline
    /// without touching the scheduler.
    fn advance_round(self: Arc<Daemon>, ctx: Arc<RunCtx>) {
        let Some(driver) = &ctx.adaptive else {
            let daemon = Arc::clone(&self);
            self.scheduler.submit(move || daemon.finalize(ctx));
            return;
        };
        loop {
            if ctx.job.canceled() {
                let daemon = Arc::clone(&self);
                self.scheduler.submit(move || daemon.finalize(ctx));
                return;
            }
            let base = lock(&ctx.plans).len();
            let labeled: Vec<(usize, InjectionRecord)> = (0..base)
                .filter_map(|i| match *lock(&ctx.slots[i]) {
                    Some(PlanOutcome::Record(record)) => Some((i, record)),
                    _ => None,
                })
                .collect();
            let next = lock(driver).next_round(&labeled);
            let Some((_round, _sampling, round_plans)) = next else {
                let daemon = Arc::clone(&self);
                self.scheduler.submit(move || daemon.finalize(ctx));
                return;
            };
            let drawn = base + round_plans.len();
            lock(&ctx.plans).extend(round_plans);
            ctx.job.update(|p| p.total = drawn);
            let pending: Vec<usize> = (base..drawn)
                .filter(|i| lock(&ctx.slots[*i]).is_none())
                .collect();
            if pending.is_empty() {
                // The whole round was resumed from the journal; replay
                // the next draw against the now-complete labels.
                continue;
            }
            // Chunks stay inside the round, so every journal write of a
            // chunk shares one round tag.
            let chunk_size = self.config.chunk.max(1);
            let chunks: Vec<Vec<usize>> = pending.chunks(chunk_size).map(|c| c.to_vec()).collect();
            ctx.remaining_chunks.store(chunks.len(), Ordering::SeqCst);
            for (i, chunk) in chunks.into_iter().enumerate() {
                let daemon = Arc::clone(&self);
                let ctx = Arc::clone(&ctx);
                self.scheduler
                    .submit_to(i, move || daemon.run_chunk(ctx, chunk));
            }
            return;
        }
    }

    fn dispatch_chunks(self: Arc<Daemon>, ctx: Arc<RunCtx>) {
        let drawn = lock(&ctx.plans).len();
        let pending: Vec<usize> = (0..drawn)
            .filter(|i| lock(&ctx.slots[*i]).is_none())
            .collect();
        if pending.is_empty() {
            let daemon = Arc::clone(&self);
            self.scheduler.submit(move || daemon.finalize(ctx));
            return;
        }
        let chunk_size = self.config.chunk.max(1);
        let chunks: Vec<Vec<usize>> = match &ctx.assignment {
            // Sectional jobs: a stealable chunk never crosses a section
            // boundary, so every journal write of a chunk shares one
            // section tag and per-section progress is a chunk count.
            // Oversized sections still split at the configured size.
            Some(assignment) => {
                let sections = assignment
                    .iter()
                    .map(|&s| s as usize + 1)
                    .max()
                    .unwrap_or(0);
                let mut by_section: Vec<Vec<usize>> = vec![Vec::new(); sections];
                for &i in &pending {
                    by_section[assignment[i] as usize].push(i);
                }
                by_section
                    .iter()
                    .flat_map(|sec| sec.chunks(chunk_size))
                    .map(|c| c.to_vec())
                    .collect()
            }
            None => pending.chunks(chunk_size).map(|c| c.to_vec()).collect(),
        };
        ctx.remaining_chunks.store(chunks.len(), Ordering::SeqCst);
        // Block-distribute across shards so every worker has stealable
        // pieces of this job from the start.
        for (i, chunk) in chunks.into_iter().enumerate() {
            let daemon = Arc::clone(&self);
            let ctx = Arc::clone(&ctx);
            self.scheduler
                .submit_to(i, move || daemon.run_chunk(ctx, chunk));
        }
    }

    /// Task 2: execute one stealable chunk of plan indices.
    fn run_chunk(self: Arc<Daemon>, ctx: Arc<RunCtx>, chunk: Vec<usize>) {
        if !ctx.job.canceled() {
            let mut executor = PlanExecutor::new(
                &ctx.workload,
                ctx.config.seed,
                &ctx.options,
                ctx.compiled.as_ref(),
            );
            let chunk_plans: Vec<Injection> = {
                let plans = lock(&ctx.plans);
                chunk.iter().map(|&i| plans[i]).collect()
            };
            let outcomes: Vec<(usize, PlanOutcome)> = chunk
                .iter()
                .zip(&chunk_plans)
                .map(|(&i, &plan)| (i, executor.execute(i, plan)))
                .collect();
            *lock(&ctx.checkpoints) += executor.checkpoints();
            // Chunks of sectional jobs are section-aligned and chunks
            // of adaptive jobs round-aligned, so one tag covers the
            // whole write.
            let section = match (&ctx.assignment, ctx.round_runs) {
                (Some(assignment), _) => Some(assignment[chunk[0]]),
                (None, Some(round_runs)) => Some((chunk[0] / round_runs) as u32),
                (None, None) => None,
            };
            // One write per chunk: a torn write can only tear the final
            // line, which journal resume tolerates.
            if let Err(e) = ctx.journal.append_outcomes_in_section(&outcomes, section) {
                ctx.job.update(|p| {
                    p.error
                        .get_or_insert_with(|| format!("journal write failed: {e}"));
                });
                ctx.job.request_cancel();
            } else {
                for (i, outcome) in outcomes {
                    ctx.job
                        .events
                        .push(outcome_line_in_section(i, &outcome, section));
                    *lock(&ctx.slots[i]) = Some(outcome);
                }
                self.executed_runs
                    .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                let progress = ctx.job.update(|p| {
                    p.executed += chunk.len();
                    (p.executed, p.total, p.resumed)
                });
                ctx.job
                    .events
                    .push(proto::progress_event(progress.0, progress.1, progress.2));
            }
        }
        if ctx.remaining_chunks.fetch_sub(1, Ordering::AcqRel) == 1 {
            let daemon = Arc::clone(&self);
            if ctx.adaptive.is_some() {
                self.scheduler.submit(move || daemon.advance_round(ctx));
            } else {
                self.scheduler.submit(move || daemon.finalize(ctx));
            }
        }
    }

    /// Task 3: assemble the campaign result and build the artifact.
    fn finalize(self: Arc<Daemon>, ctx: Arc<RunCtx>) {
        let job = Arc::clone(&ctx.job);
        if job.canceled() {
            // A journal failure cancels too; report it over a plain
            // client cancel when present.
            match job.progress().error {
                Some(e) => self.fail(&job, e),
                None => self.finish_canceled(&job),
            }
            return;
        }
        // Adaptive jobs that stop early drew fewer plans than the
        // budget-sized slot vector; only drawn plans count.
        let drawn = lock(&ctx.plans).len();
        let mut records = Vec::with_capacity(drawn);
        let mut harness_failures = Vec::new();
        let mut missing = 0usize;
        for slot in &ctx.slots[..drawn] {
            match lock(slot).clone() {
                Some(PlanOutcome::Record(record)) => records.push(record),
                Some(PlanOutcome::Failure(failure)) => harness_failures.push(failure),
                None => missing += 1,
            }
        }
        if missing > 0 {
            self.fail(&job, format!("{missing} plans left unexecuted"));
            return;
        }
        harness_failures.sort_by_key(|f| f.plan_index);
        let resumed = job.progress().resumed;
        let result = CampaignResult {
            records,
            harness_failures,
            resumed,
            nominal_insts: ctx.workload.nominal_insts,
            checkpoints: *lock(&ctx.checkpoints),
        };
        match self.build_artifact(&ctx, &result) {
            Ok(payload) => {
                job.update(|p| p.state = JobState::Done);
                job.events.push(proto::result_event(&job.id, &payload));
                job.events.close();
                self.remove_checkpoint(&job.id);
            }
            Err(reason) => self.fail(&job, reason),
        }
    }

    /// Builds and stores the job-kind-specific artifact; the returned
    /// payload is what every subscriber receives byte-identically.
    fn build_artifact(&self, ctx: &RunCtx, result: &CampaignResult) -> Result<String, String> {
        let spec = &ctx.job.spec;
        let store = self
            .store
            .for_tenant(&spec.tenant)
            .map_err(|e| format!("tenant store failed: {e}"))?;
        let store_err = |e: ipas_store::MemoError<String>| match e {
            ipas_store::MemoError::Store(e) => format!("artifact store failed: {e}"),
            ipas_store::MemoError::Compute(e) => e,
        };
        match spec.kind {
            JobKind::Campaign | JobKind::Eval => {
                let summary = summarize(&ctx.workload.name, &ctx.config, result);
                let fp = summary_fingerprint(&ctx.workload.module, &ctx.workload.name, &ctx.config);
                let key = Key::of(&fp);
                let (summary, _) = store
                    .memoize_shared(&self.flight, &key, || Ok::<_, String>(summary))
                    .map_err(store_err)?;
                Ok(render_summary(&summary))
            }
            JobKind::Protect | JobKind::Train => {
                let campaign_fp = campaign_fingerprint(&ctx.workload.module, &ctx.config);
                let set_key = Key::of(&campaign_fp);
                let (set, _) = store
                    .memoize_shared(&self.flight, &set_key, || {
                        Ok::<_, String>(training_set_artifact(&ctx.workload, result))
                    })
                    .map_err(store_err)?;
                if spec.kind == JobKind::Train {
                    let grid = GridOptions::quick();
                    let (models, fp) = train_models(
                        &store,
                        &set,
                        &campaign_fp,
                        LabelKind::SocGenerating,
                        &grid,
                        spec.top.max(1),
                    )?;
                    let mut payload = String::new();
                    for (rank, model) in models.iter().enumerate() {
                        let name = format!("{}-r{rank}", spec.name);
                        let key = Key::ranked(&fp, rank);
                        store
                            .registry()
                            .register(
                                &name,
                                ArtifactKind::TrainedModel,
                                &key,
                                &format!("trained by serve job {}", ctx.job.id),
                            )
                            .map_err(|e| format!("registry failed: {e}"))?;
                        payload.push_str(&format!(
                            "model {name} f1 {:.4} key {key}\n",
                            model.score().f_score
                        ));
                    }
                    Ok(payload)
                } else {
                    let (policy, model_key) =
                        self.resolve_policy(&store, spec, &set, &campaign_fp)?;
                    let (module, stats, _) = memoized_protect(
                        Some(&store),
                        &ctx.workload.module,
                        &policy,
                        model_key.as_ref(),
                    )
                    .map_err(|e| format!("protection failed: {e}"))?;
                    Ok(format!(
                        "policy {} considered {} duplicated {} checks {}\n{}",
                        policy.label(),
                        stats.considered,
                        stats.duplicated,
                        stats.checks,
                        module.to_text()
                    ))
                }
            }
        }
    }

    /// Builds the protection policy a protect job asked for, training a
    /// classifier when the policy needs one.
    fn resolve_policy(
        &self,
        store: &Store,
        spec: &JobSpec,
        set: &ipas_store::TrainingSet,
        campaign_fp: &ipas_store::Fingerprint,
    ) -> Result<(ProtectionPolicy, Option<Key>), String> {
        let label = match spec.policy.as_str() {
            "unprotected" => return Ok((ProtectionPolicy::Unprotected, None)),
            "full" => return Ok((ProtectionPolicy::FullDuplication, None)),
            "ipas" => LabelKind::SocGenerating,
            "baseline" => LabelKind::SymptomGenerating,
            other => return Err(format!("unknown policy {other:?}")),
        };
        let grid = GridOptions::quick();
        let (mut models, fp) = train_models(store, set, campaign_fp, label, &grid, 1)?;
        let model = models.pop().ok_or("grid search produced no models")?;
        let policy = match label {
            LabelKind::SocGenerating => ProtectionPolicy::Ipas(model),
            LabelKind::SymptomGenerating => ProtectionPolicy::Baseline(model),
        };
        Ok((policy, Some(Key::ranked(&fp, 0))))
    }

    fn close_all_events(&self) {
        for job in lock(&self.jobs).values() {
            job.events.close();
        }
    }

    /// Handles one client connection (one request per connection).
    fn handle(self: Arc<Daemon>, stream: UnixStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        let mut line = String::new();
        if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
            return;
        }
        let reply = |writer: &mut UnixStream, text: &str| {
            let _ = writer.write_all(text.as_bytes());
            let _ = writer.flush();
        };
        match proto::parse_request(line.trim_end()) {
            Err(reason) => reply(&mut writer, &proto::error_line(&reason)),
            Ok(Request::Submit { spec, watch }) => match self.admit(spec, true) {
                Err(reason) => reply(&mut writer, &proto::error_line(&reason)),
                Ok((job, coalesced)) => {
                    reply(
                        &mut writer,
                        &proto::accepted_line(&job.id, job.progress().state.label(), coalesced),
                    );
                    if watch {
                        stream_events(&job, &mut writer);
                    }
                }
            },
            Ok(Request::Status(id)) => match lock(&self.jobs).get(&id).cloned() {
                Some(job) => reply(&mut writer, &proto::status_line(&id, &job.progress())),
                None => reply(
                    &mut writer,
                    &proto::error_line(&format!("unknown job {id}")),
                ),
            },
            Ok(Request::Watch(id)) => match lock(&self.jobs).get(&id).cloned() {
                Some(job) => stream_events(&job, &mut writer),
                None => reply(
                    &mut writer,
                    &proto::error_line(&format!("unknown job {id}")),
                ),
            },
            Ok(Request::Cancel(id)) => match lock(&self.jobs).get(&id).cloned() {
                Some(job) => {
                    job.request_cancel();
                    // A still-queued job never reaches a worker task
                    // that would observe the flag; settle it here.
                    if job.progress().state == JobState::Queued {
                        self.finish_canceled(&job);
                    }
                    reply(&mut writer, &proto::status_line(&id, &job.progress()));
                }
                None => reply(
                    &mut writer,
                    &proto::error_line(&format!("unknown job {id}")),
                ),
            },
            Ok(Request::Stats) => {
                let line = proto::stats_line(
                    self.accepted.load(Ordering::Relaxed),
                    self.executed_runs.load(Ordering::Relaxed),
                    self.scheduler.queued() as u64,
                );
                reply(&mut writer, &line);
            }
            Ok(Request::Shutdown) => {
                self.shutdown.store(true, Ordering::SeqCst);
                reply(
                    &mut writer,
                    &proto::stats_line(
                        self.accepted.load(Ordering::Relaxed),
                        self.executed_runs.load(Ordering::Relaxed),
                        self.scheduler.queued() as u64,
                    ),
                );
            }
        }
    }
}

/// Streams a job's event log to a client until the log closes; a write
/// failure (client hung up) ends the stream early.
fn stream_events(job: &Job, writer: &mut UnixStream) {
    let mut cursor = 0;
    while let Some(event) = job.events.next(cursor) {
        cursor += 1;
        if writer.write_all(event.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
    }
}

/// Builds the outcome summary of a finished campaign.
fn summarize(name: &str, config: &CampaignConfig, r: &CampaignResult) -> CampaignSummary {
    CampaignSummary {
        workload: name.to_string(),
        runs: config.runs as u64,
        seed: config.seed,
        nominal_insts: r.nominal_insts,
        counts: Outcome::ALL.map(|o| r.count(o) as u64),
        harness_failures: r.harness_failures.len() as u64,
    }
}

/// Deterministic human-readable rendering of a campaign summary — the
/// byte-identical payload campaign/eval subscribers receive.
fn render_summary(s: &CampaignSummary) -> String {
    let mut out = format!(
        "workload {} runs {} seed {} nominal_insts {}\n",
        s.workload, s.runs, s.seed, s.nominal_insts
    );
    for (i, label) in ["symptom", "detected", "masked", "soc"].iter().enumerate() {
        out.push_str(&format!(
            "{label} {} ({:.2}%)\n",
            s.counts[i],
            s.fraction(i) * 100.0
        ));
    }
    out.push_str(&format!("harness_failures {}\n", s.harness_failures));
    out
}

/// Trains (or loads, memoized through the store) the top-`top` models
/// for `label` from a stored training set.
fn train_models(
    store: &Store,
    set: &TrainingSet,
    campaign_fp: &Fingerprint,
    label: LabelKind,
    grid: &GridOptions,
    top: usize,
) -> Result<(Vec<TrainedClassifier>, Fingerprint), String> {
    let data = dataset_from_artifact(set, label);
    if data.num_positive() == 0 || data.num_positive() == data.len() {
        return Err("degenerate training labels; raise runs".to_string());
    }
    let fp = training_fingerprint(campaign_fp, label, grid, top);
    let (models, _) = memoized_models(Some(store), &fp, top, || {
        train_top_configs(&data, grid, top)
    })
    .map_err(|e| format!("artifact store failed: {e}"))?;
    Ok((models, fp))
}

/// Runs the daemon until a shutdown request or signal, then drains.
///
/// # Errors
///
/// [`ServeError`] when the state directory or socket cannot be set up;
/// job-level failures are reported to clients, not here.
pub fn run_daemon(config: DaemonConfig) -> Result<DaemonReport, ServeError> {
    let daemon = Daemon::new(config)?;
    SIGNALED.store(false, Ordering::SeqCst);
    install_signal_handlers();
    daemon.restore_checkpoints()?;
    let socket = daemon.config.socket.clone();
    // A stale socket file from a crashed daemon would fail the bind.
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).map_err(|e| ServeError::io(socket.clone(), e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::io(socket.clone(), e))?;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !daemon.shutdown.load(Ordering::SeqCst) && !SIGNALED.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let daemon = Arc::clone(&daemon);
                connections.push(std::thread::spawn(move || daemon.handle(stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                let _ = std::fs::remove_file(&socket);
                return Err(ServeError::io(socket, e));
            }
        }
        connections.retain(|h| !h.is_finished());
    }
    // Graceful drain: in-flight chunks finish and checkpoint their
    // outcomes; queued tasks are recovered from `.job` files next run.
    let abandoned_tasks = daemon.scheduler.drain();
    daemon.close_all_events();
    for handle in connections {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&socket);
    Ok(DaemonReport {
        jobs: daemon.accepted.load(Ordering::Relaxed),
        executed_runs: daemon.executed_runs.load(Ordering::Relaxed),
        abandoned_tasks,
    })
}

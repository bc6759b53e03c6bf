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
//!    the full injection plan list, open the job's [`CampaignRuntime`] (resuming
//!    completed plan indices from a previous daemon process's journal),
//!    and split the pending indices into chunks distributed across
//!    shards;
//! 2. **chunk** — execute a slice of plans with
//!    [`CampaignRuntime::run_chunk`], which journals the outcomes in
//!    one atomic-at-EOF write, each record with its own plan's tag, and
//!    stream them to subscribers;
//! 3. **finalize** — splice the [`ipas_faultsim::CampaignResult`] in
//!    plan order (chunk scheduling is invisible: plans were pre-drawn
//!    from one seeded RNG), build the job's artifact, store it, and
//!    emit the terminal `result` event.
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
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ipas_core::adaptive::{AdaptiveDriver, AdaptiveParams};
use ipas_core::classifier::TrainedClassifier;
use ipas_core::experiment::{
    campaign_summary, classifier_stage, memoized_protect, summary_key, training_key,
    ExperimentError,
};
use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_core::memo::{dataset_from_artifact, training_set_artifact};
use ipas_core::policy::ProtectionPolicy;
use ipas_core::training::LabelKind;
use ipas_faultsim::{draw_plans, outcome_line, CampaignResult, CampaignRuntime, Workload};
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
/// accept loop checks it each time its wait on the listener ends, at
/// the latest every [`FLAG_CHECK_MS`].
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

/// The longest the accept loop waits on the listener before it
/// re-checks [`SIGNALED`] and the `shutdown` flag. A pending connection
/// ends the wait at once, and so does a signal delivered to the main
/// thread (`EINTR`).
const FLAG_CHECK_MS: c_int = 25;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Blocks until `listener` has a connection pending or
/// [`FLAG_CHECK_MS`] passes. A failed wait (`EINTR`) ends early like a
/// timeout; the caller re-checks its flags and retries `accept` either
/// way.
fn wait_for_connection(listener: &UnixListener) {
    const POLLIN: c_short = 0x1;
    extern "C" {
        // From the C runtime, like `signal` above; `nfds_t` is an
        // unsigned long.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let mut pollfd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pollfd` is one initialized `struct pollfd` that lives
    // across the call and `nfds` is 1, so `poll` reads and writes only
    // it; the fd stays open because `listener` is borrowed.
    unsafe {
        poll(&mut pollfd, 1, FLAG_CHECK_MS);
    }
}

/// Pins glibc's mmap threshold at its 128 KiB default, which also turns
/// off glibc's dynamic threshold. Unpinned, the first freed block above
/// 128 KiB raises the threshold to that block's size, and later blocks
/// that large are carved from the allocating worker's arena and stay
/// there after they are freed. In this daemon nearly all of them are
/// one `Vec`: the output stream of a faulty run stuck in an output
/// loop, doubled from 256 KiB up to 2.7 MB. The more jobs overlap, the
/// more arenas keep one. In the `serve_mixed` benchmark (median of 16
/// one-second runs on a 2-vCPU host), answering each connection on
/// arrival raised the daemon's peak RSS from 9.03 to 9.55 MB, and the
/// pin brings it to 8.12 MB. Pinned, such a block is mapped on its own
/// and goes back to the kernel when it is freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` takes two plain integers and changes only
    // glibc's allocator parameters, under the main arena's lock; it is
    // called before the daemon starts any thread of its own.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Other C runtimes keep their own allocation policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Everything chunk tasks of one running job share.
struct RunCtx {
    job: Arc<Job>,
    /// The job's plan stream: plans, tags, journal, outcomes. Classic
    /// jobs append the full plan list during prepare; adaptive jobs
    /// ([`JobSpec::adaptive`]) append one round at a time.
    runtime: CampaignRuntime<Workload>,
    /// The round planner for adaptive jobs: between rounds it retrains
    /// on the labels so far and draws the next margin-weighted round.
    adaptive: Option<Mutex<AdaptiveDriver>>,
    remaining_chunks: AtomicUsize,
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
            Ok(ctx) => self.advance(ctx),
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
        options.journal = Some(self.journal_path(&job.id));
        // Adaptive jobs draw nothing up front: the driver draws round
        // by round as labels accumulate (see `advance`).
        let (adaptive, plans) = if spec.adaptive {
            let params = AdaptiveParams::for_budget(config.runs);
            let driver = AdaptiveDriver::new(&workload, &config, params)
                .map_err(|e| format!("adaptive setup failed: {e}"))?;
            (Some(driver), Vec::new())
        } else {
            let plans = draw_plans(&workload, &config, options.sampling)
                .map_err(|e| format!("plan drawing failed: {e}"))?;
            (None, plans)
        };
        let round_runs = adaptive.as_ref().map(|d| d.params().round_runs);
        let runtime = CampaignRuntime::open(workload, &config, &options, round_runs)
            .map_err(|e| e.to_string())?;
        let total = runtime
            .append(plans.into_iter().map(|plan| (plan, None)))
            .len();
        // Lower the module (and capture the ladder) in this task, so the
        // job's chunks never wait on one another for it.
        runtime.prepare();
        let resumed = runtime.resumed();
        job.update(|p| {
            p.state = JobState::Running;
            p.total = total;
            p.resumed = resumed;
        });
        job.events.push(proto::progress_event(0, total, resumed));
        Ok(Arc::new(RunCtx {
            job: Arc::clone(job),
            runtime,
            adaptive: adaptive.map(Mutex::new),
            remaining_chunks: AtomicUsize::new(0),
        }))
    }

    /// Dispatches the job's pending plans as stealable chunks. When
    /// nothing is pending, an adaptive job retrains on every label so
    /// far and draws its next round (fully journal-resumed rounds are
    /// replayed inline without touching the scheduler); otherwise — or
    /// when the driver stops, or the job was canceled — it hands off to
    /// finalize.
    fn advance(self: Arc<Daemon>, ctx: Arc<RunCtx>) {
        while !ctx.job.canceled() {
            let pending = ctx.runtime.pending();
            if !pending.is_empty() {
                let chunks: Vec<Vec<usize>> = pending
                    .chunks(self.config.chunk.max(1))
                    .map(<[usize]>::to_vec)
                    .collect();
                ctx.remaining_chunks.store(chunks.len(), Ordering::SeqCst);
                // Block-distribute across shards so every worker has
                // stealable pieces of this job from the start.
                for (i, chunk) in chunks.into_iter().enumerate() {
                    let daemon = Arc::clone(&self);
                    let ctx = Arc::clone(&ctx);
                    self.scheduler
                        .submit_to(i, move || daemon.run_chunk(ctx, chunk));
                }
                return;
            }
            let Some(driver) = &ctx.adaptive else { break };
            let next = lock(driver).next_round(&ctx.runtime.records());
            let Some((round, _sampling, plans)) = next else {
                break;
            };
            let drawn = ctx
                .runtime
                .append(plans.into_iter().map(|plan| (plan, Some(round))));
            let resumed = ctx.runtime.resumed();
            ctx.job.update(|p| {
                p.total = drawn.end;
                p.resumed = resumed;
            });
        }
        let daemon = Arc::clone(&self);
        self.scheduler.submit(move || daemon.finalize(ctx));
    }

    /// Task 2: execute one stealable chunk of plan indices.
    fn run_chunk(self: Arc<Daemon>, ctx: Arc<RunCtx>, chunk: Vec<usize>) {
        if !ctx.job.canceled() {
            match ctx.runtime.run_chunk(&chunk) {
                Err(e) => {
                    ctx.job.update(|p| {
                        p.error
                            .get_or_insert_with(|| format!("journal write failed: {e}"));
                    });
                    ctx.job.request_cancel();
                }
                Ok(outcomes) => {
                    for (i, outcome) in &outcomes {
                        ctx.job
                            .events
                            .push(outcome_line(*i, outcome, ctx.runtime.tag(*i)));
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
        }
        if ctx.remaining_chunks.fetch_sub(1, Ordering::AcqRel) == 1 {
            let daemon = Arc::clone(&self);
            self.scheduler.submit(move || daemon.advance(ctx));
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
        let built = ctx
            .runtime
            .finish()
            .map_err(|e| e.to_string())
            .and_then(|result| self.build_artifact(&ctx, &result));
        match built {
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
        let (workload, config) = (ctx.runtime.workload(), ctx.runtime.config());
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
                let summary = campaign_summary(&workload.name, config, result);
                // The summary key does not tell an adaptive campaign from
                // a plain one with the same budget, so, as on the CLI,
                // adaptive summaries are not memoized.
                if spec.adaptive {
                    return Ok(render_summary(&summary));
                }
                let key = summary_key(workload, config);
                let (summary, _) = store
                    .memoize_shared(&self.flight, &key, || Ok::<_, String>(summary))
                    .map_err(store_err)?;
                Ok(render_summary(&summary))
            }
            JobKind::Protect | JobKind::Train => {
                let campaign_fp = training_key(workload, config);
                let set_key = Key::of(&campaign_fp);
                let (set, _) = store
                    .memoize_shared(&self.flight, &set_key, || {
                        Ok::<_, String>(training_set_artifact(workload, result))
                    })
                    .map_err(store_err)?;
                if spec.kind == JobKind::Train {
                    let (models, fp) = fit(
                        &store,
                        &set,
                        &campaign_fp,
                        LabelKind::SocGenerating,
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
                        &workload.module,
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
        set: &TrainingSet,
        campaign_fp: &Fingerprint,
    ) -> Result<(ProtectionPolicy, Option<Key>), String> {
        let label = match spec.policy.as_str() {
            "unprotected" => return Ok((ProtectionPolicy::Unprotected, None)),
            "full" => return Ok((ProtectionPolicy::FullDuplication, None)),
            "ipas" => LabelKind::SocGenerating,
            "baseline" => LabelKind::SymptomGenerating,
            other => return Err(format!("unknown policy {other:?}")),
        };
        let (mut models, fp) = fit(store, set, campaign_fp, label, 1)?;
        let model = models.pop().ok_or("grid search produced no models")?;
        Ok((
            ProtectionPolicy::trained(label, model),
            Some(Key::ranked(&fp, 0)),
        ))
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

/// The classifier stage on a stored training set, with the daemon's
/// quick grid.
fn fit(
    store: &Store,
    set: &TrainingSet,
    campaign_fp: &Fingerprint,
    label: LabelKind,
    top: usize,
) -> Result<(Vec<TrainedClassifier>, Fingerprint), String> {
    let data = dataset_from_artifact(set, label);
    let (models, fp, _) = classifier_stage(
        Some(store),
        &data,
        campaign_fp,
        label,
        &GridOptions::quick(),
        top,
    )
    .map_err(|e| match e {
        ExperimentError::DegenerateTraining(_) => {
            "degenerate training labels; raise runs".to_string()
        }
        other => other.to_string(),
    })?;
    Ok((models, fp))
}

/// Runs the daemon until a shutdown request or signal, then drains.
///
/// # Errors
///
/// [`ServeError`] when the state directory or socket cannot be set up;
/// job-level failures are reported to clients, not here.
pub fn run_daemon(config: DaemonConfig) -> Result<DaemonReport, ServeError> {
    pin_mmap_threshold();
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
                wait_for_connection(&listener);
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

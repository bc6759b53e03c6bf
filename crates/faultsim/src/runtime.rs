//! The campaign runtime: one plan stream, two schedulers.
//!
//! Every campaign kind — plain, adaptive, and the serve daemon's jobs —
//! is the same thing underneath: pre-drawn injection plans, each with a
//! journal *tag* (none, or an adaptive round id), executed under the
//! resilient runtime of [`PlanExecutor`], journaled, and spliced back
//! in plan order.
//! [`CampaignRuntime`] owns that once:
//!
//! * the journal: one [`JournalHeader`] built from the workload, the
//!   config, the sampling mode and the round size, opened once;
//!   journal-resumed outcomes fill their plans' slots as the plans are
//!   appended;
//! * the compiled engine: one [`CompiledCampaign::prepare`] over the
//!   plans pending when execution starts, which reuses the engine and
//!   ladder the workload keeps from its earlier campaigns;
//! * **commit**: one journal write for a batch of outcomes, each record
//!   tagged with its own plan's tag, then the slot fill;
//! * **finish**: the splice into a [`CampaignResult`] in plan order.
//!
//! Campaign kinds differ only in the plans they
//! [`append`](CampaignRuntime::append). Two schedulers drive the
//! stream, each with its own commit point:
//!
//! * [`CampaignRuntime::run_pool`], the in-process pool. Workers claim
//!   one plan at a time from a shared counter, which keeps the load
//!   balanced when hang runs take the whole instruction budget. Each
//!   outcome commits as it completes, so a kill loses at most the
//!   in-flight plans. Adaptive rounds instead commit their fresh
//!   outcomes in one plan-ordered write at the round barrier, which
//!   keeps adaptive journal bytes identical across thread counts.
//! * [`CampaignRuntime::run_chunk`], one stealable chunk of the serve
//!   daemon's scheduler: executed in order, committed in one write.
//!
//! Plans are drawn from the campaign seed before any of this runs, so
//! the scheduler, the chunking and the resume state never show in the
//! records.

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{
    lock, module_digest, CampaignConfig, CampaignError, CampaignJournal, CampaignOptions,
    CampaignResult, CheckpointStats, CompiledCampaign, Injection, InjectionRecord, JournalError,
    JournalHeader, PlanExecutor, PlanOutcome, ResumeState, SamplingMode, Workload,
};

/// One plan-stream campaign (see the module docs). `W` is the workload,
/// borrowed (`&Workload`) by in-process campaigns or shared
/// (`Arc<Workload>`) by the daemon jobs on one program.
#[derive(Debug)]
pub struct CampaignRuntime<W> {
    workload: W,
    config: CampaignConfig,
    options: CampaignOptions,
    /// Adaptive campaigns commit at round barriers.
    rounds: bool,
    journal: Option<CampaignJournal>,
    stream: Mutex<Stream>,
    compiled: OnceLock<Option<Arc<CompiledCampaign>>>,
    /// Instructions the executed plans skipped through the ladder.
    skipped: Mutex<CheckpointStats>,
}

#[derive(Debug, Default)]
struct Stream {
    slots: Vec<Slot>,
    /// Journal outcomes of plans not appended yet: the rounds an
    /// adaptive campaign has still to draw.
    resume: ResumeState,
    resumed: usize,
}

#[derive(Debug)]
struct Slot {
    plan: Injection,
    tag: Option<u32>,
    outcome: Option<PlanOutcome>,
}

impl<W: Borrow<Workload> + Sync> CampaignRuntime<W> {
    /// Opens an empty plan stream for `workload` under `config` and
    /// `options`, with its journal when [`CampaignOptions::journal`] is
    /// set. `round_runs` is the round size of an adaptive campaign:
    /// its journal header pins the size and records static sampling
    /// (every adaptive plan is site-restricted), and
    /// [`CampaignRuntime::run_pool`] commits at round barriers.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when the journal cannot be opened or
    /// belongs to a different campaign.
    pub fn open(
        workload: W,
        config: &CampaignConfig,
        options: &CampaignOptions,
        round_runs: Option<usize>,
    ) -> Result<Self, CampaignError> {
        let (journal, resume) = match &options.journal {
            Some(path) => {
                let w = workload.borrow();
                let header = JournalHeader {
                    workload: w.name.clone(),
                    entry: w.entry.clone(),
                    seed: config.seed,
                    runs: config.runs,
                    sampling: match round_runs {
                        Some(_) => SamplingMode::StaticUniform,
                        None => options.sampling,
                    },
                    fault_model: config.fault_model,
                    eligible_results: w.eligible_results,
                    nominal_insts: w.nominal_insts,
                    identity: w.run_identity(),
                    module: module_digest(&w.module),
                    round_runs,
                };
                let (journal, resume) = CampaignJournal::open(path, &header)?;
                (Some(journal), resume)
            }
            None => (None, ResumeState::new()),
        };
        Ok(CampaignRuntime {
            workload,
            config: *config,
            options: options.clone(),
            rounds: round_runs.is_some(),
            journal,
            stream: Mutex::new(Stream {
                resume,
                ..Stream::default()
            }),
            compiled: OnceLock::new(),
            skipped: Mutex::new(CheckpointStats::default()),
        })
    }

    /// The workload the plans run against.
    pub fn workload(&self) -> &Workload {
        self.workload.borrow()
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Appends plans, each with its journal tag, at the next global
    /// indices, filling those the journal already holds. Returns the
    /// appended index range.
    pub fn append(
        &self,
        plans: impl IntoIterator<Item = (Injection, Option<u32>)>,
    ) -> Range<usize> {
        let stream = &mut *lock(&self.stream);
        let start = stream.slots.len();
        for (plan, tag) in plans {
            let outcome = stream.resume.remove(&stream.slots.len());
            stream.resumed += usize::from(outcome.is_some());
            stream.slots.push(Slot { plan, tag, outcome });
        }
        start..stream.slots.len()
    }

    /// Indices of the appended plans still without an outcome, in plan
    /// order.
    pub fn pending(&self) -> Vec<usize> {
        self.pending_plans().into_iter().map(|(i, _)| i).collect()
    }

    fn pending_plans(&self) -> Vec<(usize, Injection)> {
        let stream = lock(&self.stream);
        (0..stream.slots.len())
            .filter(|&i| stream.slots[i].outcome.is_none())
            .map(|i| (i, stream.slots[i].plan))
            .collect()
    }

    /// Appended plans whose outcomes came from the journal.
    pub fn resumed(&self) -> usize {
        lock(&self.stream).resumed
    }

    /// The journal tag of plan `plan`.
    pub fn tag(&self, plan: usize) -> Option<u32> {
        lock(&self.stream).slots[plan].tag
    }

    /// Every outcome so far with its plan index, in plan order.
    pub fn outcomes(&self) -> Vec<(usize, PlanOutcome)> {
        let stream = lock(&self.stream);
        stream
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((i, slot.outcome.clone()?)))
            .collect()
    }

    /// Every classified record so far with its plan index, in plan
    /// order: the labels an adaptive campaign retrains on.
    pub fn records(&self) -> Vec<(usize, InjectionRecord)> {
        let stream = lock(&self.stream);
        stream
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot.outcome {
                Some(PlanOutcome::Record(record)) => Some((i, record)),
                _ => None,
            })
            .collect()
    }

    /// The campaign's compiled engine, prepared on the first call from
    /// the plans pending then (see [`CompiledCampaign::prepare`]: the
    /// workload's kept engine when it has one); `None` on the reference
    /// engine.
    pub fn prepare(&self) -> Option<&CompiledCampaign> {
        self.compiled
            .get_or_init(|| {
                let pending = self.pending_plans().into_iter().map(|(_, plan)| plan);
                CompiledCampaign::prepare(
                    self.workload(),
                    self.config.engine,
                    &self.options,
                    pending,
                )
            })
            .as_deref()
    }

    /// Executes every pending plan on the in-process worker pool
    /// ([`CampaignConfig::threads`], 0 = all cores) and commits the
    /// outcomes (see the module docs for the commit points).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when a commit fails; the pool stops
    /// rather than continue without its checkpoint.
    pub fn run_pool(&self) -> Result<(), CampaignError> {
        let pending = self.pending_plans();
        if pending.is_empty() {
            return Ok(());
        }
        let compiled = self.prepare();
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let next = AtomicUsize::new(0);
        let failed: OnceLock<JournalError> = OnceLock::new();
        let at_barrier: Mutex<Vec<(usize, PlanOutcome)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut executor = PlanExecutor::new(
                        self.workload(),
                        self.config.seed,
                        &self.options,
                        compiled,
                    );
                    while failed.get().is_none() {
                        let Some(&(i, plan)) = pending.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let outcome = (i, executor.execute(i, plan));
                        if self.rounds {
                            lock(&at_barrier).push(outcome);
                        } else if let Err(e) = self.commit(&[outcome]) {
                            let _ = failed.set(e);
                        }
                    }
                    *lock(&self.skipped) += executor.checkpoints();
                });
            }
        });
        if let Some(e) = failed.into_inner() {
            return Err(e.into());
        }
        let mut fresh = at_barrier.into_inner().unwrap_or_else(|e| e.into_inner());
        fresh.sort_by_key(|(i, _)| *i);
        Ok(self.commit(&fresh)?)
    }

    /// Executes one chunk of plan indices in order on a fresh executor
    /// and commits its outcomes in one write, returning them.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the commit fails; the chunk's outcomes are
    /// then discarded.
    pub fn run_chunk(&self, chunk: &[usize]) -> Result<Vec<(usize, PlanOutcome)>, JournalError> {
        let plans: Vec<Injection> = {
            let stream = lock(&self.stream);
            chunk.iter().map(|&i| stream.slots[i].plan).collect()
        };
        let mut executor = PlanExecutor::new(
            self.workload(),
            self.config.seed,
            &self.options,
            self.prepare(),
        );
        let outcomes: Vec<(usize, PlanOutcome)> = chunk
            .iter()
            .zip(plans)
            .map(|(&i, plan)| (i, executor.execute(i, plan)))
            .collect();
        *lock(&self.skipped) += executor.checkpoints();
        self.commit(&outcomes)?;
        Ok(outcomes)
    }

    /// Journals `outcomes` in one write, each record with its plan's
    /// tag, then fills their slots.
    fn commit(&self, outcomes: &[(usize, PlanOutcome)]) -> Result<(), JournalError> {
        let mut stream = lock(&self.stream);
        if let Some(journal) = &self.journal {
            journal.append(
                outcomes
                    .iter()
                    .map(|(i, outcome)| (*i, outcome, stream.slots[*i].tag)),
            )?;
        }
        for (i, outcome) in outcomes {
            stream.slots[*i].outcome = Some(outcome.clone());
        }
        Ok(())
    }

    /// Splices every appended plan's outcome into a [`CampaignResult`]
    /// in plan order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] when some plan has no outcome.
    pub fn finish(&self) -> Result<CampaignResult, CampaignError> {
        let stream = lock(&self.stream);
        let mut records = Vec::with_capacity(stream.slots.len());
        let mut harness_failures = Vec::new();
        let mut missing = 0;
        for slot in &stream.slots {
            match &slot.outcome {
                Some(PlanOutcome::Record(record)) => records.push(*record),
                Some(PlanOutcome::Failure(failure)) => harness_failures.push(failure.clone()),
                None => missing += 1,
            }
        }
        if missing > 0 {
            return Err(CampaignError::Incomplete { missing });
        }
        let mut checkpoints =
            CompiledCampaign::stats_of(self.compiled.get().and_then(Option::as_deref));
        checkpoints += *lock(&self.skipped);
        Ok(CampaignResult {
            records,
            harness_failures,
            resumed: stream.resumed,
            nominal_insts: self.workload().nominal_insts,
            checkpoints,
        })
    }
}

//! Statistical fault injection (the reproduction's FlipIt).
//!
//! The paper uses FlipIt (Calhoun et al.) to inject single-bit flips into
//! random LLVM instruction instances and classifies each run into the
//! four outcome categories of §5.5: observable symptom, detected by
//! duplication, masked, and silent output corruption (SOC). This crate
//! drives those campaigns against the `ipas-interp` virtual machine:
//!
//! * [`Workload`] — a module plus entry point, arguments, and an
//!   [`OutputVerifier`] that decides whether a completed run's output is
//!   acceptable (the user-provided verification routine of step 1);
//! * [`run_campaign`] — N injection runs at uniformly random dynamic
//!   instruction instances and bits, in parallel across threads, each
//!   classified into an [`Outcome`];
//! * [`CampaignResult`] — per-outcome counts, fractions, the margin of
//!   error of §6.2, and the per-injection records used to build SVM
//!   training sets;
//! * [`CampaignRuntime`] — the one plan-stream runtime every campaign
//!   kind (plain, adaptive, daemon job) runs on:
//!   tagged plans in, journaled outcomes spliced in plan order out.
//!
//! # Campaign resilience
//!
//! Campaigns are long (thousands of interpreter runs), so the runtime is
//! built to survive its own failures:
//!
//! * every run executes under [`std::panic::catch_unwind`], so a panic in
//!   the interpreter or in a user [`OutputVerifier`] poisons one record,
//!   not the campaign;
//! * failed runs are retried up to [`RetryPolicy::max_attempts`] times
//!   with deterministic, jittered exponential backoff, then degrade to a
//!   [`HarnessFailure`] — reported separately and excluded from the §5.5
//!   outcome fractions;
//! * with [`CampaignOptions::journal`] set, each record is atomically
//!   appended to a JSONL [`CampaignJournal`]; re-running a killed
//!   campaign resumes from the journal, skipping completed plan indices
//!   while preserving seed-determinism across thread counts;
//! * [`CampaignOptions::run_deadline`] arms a wall-clock watchdog in the
//!   interpreter, classifying runaway runs as hangs even when the
//!   instruction budget cannot catch them.
//!
//! # Example
//!
//! ```
//! use ipas_faultsim::{run_campaign, CampaignConfig, GoldenToleranceVerifier, Workload};
//!
//! let module = ipas_lang::compile(
//!     "fn main() -> int { let s: int = 0;
//!        for (let i: int = 0; i < 50; i = i + 1) { s = s + i * i; }
//!        output_i(s); return 0; }",
//! ).unwrap();
//! let workload = Workload::serial("sum", module, GoldenToleranceVerifier::EXACT).unwrap();
//! let config = CampaignConfig { runs: 40, seed: 7, threads: 2, ..CampaignConfig::default() };
//! let result = run_campaign(&workload, &config).expect("campaign completes");
//! assert_eq!(result.records.len(), 40);
//! assert!(result.fraction(ipas_faultsim::Outcome::Soc) <= 1.0);
//! ```
//!
//! # Execution engines
//!
//! [`CampaignConfig::engine`] selects the interpreter:
//! [`Engine::Compiled`] (default) lowers the module once per campaign
//! (once per workload from its second ladder campaign on) and runs it
//! on pre-decoded machines reused per worker thread;
//! [`Engine::Reference`] tree-walks the IR directly. The two are
//! bit-identical — same seed, same records, byte for byte — so the knob
//! only trades throughput, never results (see `docs/interpreter.md`).
//! On the compiled engine, [`CompiledCampaign`] also captures a
//! golden-state checkpoint [`Ladder`]: each run starts at the latest
//! golden checkpoint before its target and stops once its state
//! reconverges with golden, with records unchanged
//! ([`CampaignResult::checkpoints`] reports what it saved). From its
//! second ladder campaign on, a [`Workload`] keeps its compiled engine,
//! so later campaigns skip the capture run.

#![warn(missing_docs)]

mod journal;
pub mod rounds;
pub mod runtime;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use ipas_interp::{
    Machine, OutputStream, RtVal, RunConfig, RunError, RunOutput, RunStatus, Skipped,
    MAX_CHECKPOINTS,
};
use ipas_ir::{sha256, FuncId, InstId, Module, Type};
use rand::{Rng, SeedableRng};

pub use ipas_interp::{
    CompiledMachine, CompiledProgram, Engine, FaultModel, Injection, Ladder, SiteClass,
};
pub use journal::{
    module_digest, outcome_line, CampaignJournal, JournalError, JournalHeader, ResumeState,
};
pub use runtime::CampaignRuntime;

/// The four §5.5 outcome categories of one fault-injection run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// Crash, hang, or abort — recoverable by checkpoint/restart.
    Symptom,
    /// Caught by an inserted `__ipas_check_*` comparison.
    Detected,
    /// Run completed and the verification routine accepted the output.
    Masked,
    /// Run completed but the output is corrupted: silent output
    /// corruption.
    Soc,
}

impl Outcome {
    /// All outcomes, in reporting order.
    pub const ALL: [Outcome; 4] = [
        Outcome::Symptom,
        Outcome::Detected,
        Outcome::Masked,
        Outcome::Soc,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Symptom => "symptom",
            Outcome::Detected => "detected",
            Outcome::Masked => "masked",
            Outcome::Soc => "SOC",
        }
    }

    /// Stable wire token of the campaign journal (all-lowercase, unlike
    /// [`Outcome::label`]'s display form).
    pub fn wire(self) -> &'static str {
        match self {
            Outcome::Symptom => "symptom",
            Outcome::Detected => "detected",
            Outcome::Masked => "masked",
            Outcome::Soc => "soc",
        }
    }

    /// Parses a [`Outcome::wire`] token.
    pub fn from_wire(token: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.wire() == token)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Decides whether a completed faulty run's output is acceptable.
///
/// Implementations embed whatever golden data they need (reference
/// outputs, tolerances, conservation laws). They must be cheap: they run
/// once per injection. A panicking verifier does not abort the campaign:
/// the affected run degrades to a [`HarnessFailure`] after the retry
/// budget is exhausted.
pub trait OutputVerifier: Sync + Send {
    /// Returns `true` when the output is acceptable (fault masked).
    fn verify(&self, run: &RunOutput) -> bool;

    /// Human-readable description for reports. It is also part of the
    /// workload's [`Workload::run_identity`], which keys stored results
    /// and journals, so it must name everything [`OutputVerifier::verify`]
    /// depends on beyond the golden run (tolerances exactly, not rounded).
    fn describe(&self) -> String {
        "unspecified verification routine".to_string()
    }
}

/// A verifier comparing the faulty output stream against a golden run:
/// integer items must match exactly; float items must match within an
/// absolute-or-relative tolerance; a different item count is SOC.
#[derive(Debug, Clone)]
pub struct GoldenToleranceVerifier {
    golden_ints: Vec<i64>,
    golden_floats: Vec<f64>,
    tolerance: f64,
}

impl GoldenToleranceVerifier {
    /// Tolerance used by [`Workload::serial`]'s `EXACT` marker: floats
    /// must match to 1e-9 relative.
    pub const EXACT: f64 = 1e-9;

    /// Builds a verifier from a golden output stream.
    pub fn new(golden: &OutputStream, tolerance: f64) -> Self {
        GoldenToleranceVerifier {
            golden_ints: golden.as_ints(),
            golden_floats: golden.as_floats(),
            tolerance,
        }
    }
}

impl OutputVerifier for GoldenToleranceVerifier {
    fn verify(&self, run: &RunOutput) -> bool {
        let ints = run.outputs.as_ints();
        if ints != self.golden_ints {
            return false;
        }
        let floats = run.outputs.as_floats();
        if floats.len() != self.golden_floats.len() {
            return false;
        }
        floats.iter().zip(&self.golden_floats).all(|(a, g)| {
            let scale = g.abs().max(1.0);
            (a - g).abs() <= self.tolerance * scale && a.is_finite()
        })
    }

    fn describe(&self) -> String {
        // `{:e}` is exact: two tolerances never render alike, so the
        // description can key stored results (see `Workload::run_identity`).
        format!(
            "golden comparison, {} ints exact, {} floats within {:e}",
            self.golden_ints.len(),
            self.golden_floats.len(),
            self.tolerance
        )
    }
}

/// Error preparing a workload.
#[derive(Debug)]
pub enum WorkloadError {
    /// The golden (clean) run did not complete.
    GoldenRunFailed(String),
    /// The module has no eligible fault-injection sites.
    NoEligibleSites,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::GoldenRunFailed(s) => write!(f, "golden run failed: {s}"),
            WorkloadError::NoEligibleSites => write!(f, "no eligible fault-injection sites"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A module prepared for fault-injection campaigns: its golden run
/// statistics, entry configuration, and verification routine.
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The (possibly protected) module under test.
    pub module: Module,
    /// Entry function name.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<RtVal>,
    /// The verification routine (shared with protected variants).
    pub verifier: std::sync::Arc<dyn OutputVerifier>,
    /// Dynamic instruction count of the clean run.
    pub nominal_insts: u64,
    /// Eligible (injectable) dynamic results in the clean run.
    pub eligible_results: u64,
    /// `load` executions in the clean run (the
    /// [`FaultModel::LoadValue`] sample space).
    pub loads: u64,
    /// `store` executions in the clean run (the
    /// [`FaultModel::StoreValue`] sample space).
    pub stores: u64,
    /// Conditional-branch decisions in the clean run (the
    /// [`FaultModel::BranchFlip`] sample space).
    pub cond_branches: u64,
    /// Golden outputs of the clean run.
    pub golden: OutputStream,
    /// The compiled engine kept for later campaigns (see
    /// [`CompiledCampaign::prepare`]).
    kept: Mutex<KeptEngine>,
}

/// A workload's ladder requests so far and, from the second on, the
/// compiled engine the latest one built, with the inputs it was built
/// from.
#[derive(Default)]
struct KeptEngine {
    requests: u64,
    engine: Option<(EngineInputs, Arc<CompiledCampaign>)>,
}

/// What a compiled engine and its ladder depend on, besides the
/// engine's code: the module, the entry call, and the nominal length
/// (which sets the snapshot spacing and the run budget). The public
/// fields of a [`Workload`] can be reassigned between campaigns, so a
/// kept engine serves a campaign only when these still match.
#[derive(PartialEq)]
struct EngineInputs {
    /// SHA-256 of the module's printed text.
    module: [u8; 32],
    entry: String,
    /// Each argument's type and bits.
    args: Vec<(Type, u64)>,
    nominal_insts: u64,
}

impl EngineInputs {
    fn of(workload: &Workload) -> Self {
        EngineInputs {
            module: sha256::sha256(workload.module.text().as_bytes()),
            entry: workload.entry.clone(),
            args: workload.args.iter().map(|a| (a.ty(), a.bits())).collect(),
            nominal_insts: workload.nominal_insts,
        }
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("entry", &self.entry)
            .field("nominal_insts", &self.nominal_insts)
            .field("eligible_results", &self.eligible_results)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Prepares a workload whose verifier is a golden-output comparison
    /// with float tolerance `tolerance` (use
    /// [`GoldenToleranceVerifier::EXACT`] for exact results). The golden
    /// run uses `main()` with no arguments.
    ///
    /// # Errors
    ///
    /// Fails when the clean run traps/hangs or there is nothing to
    /// inject into.
    pub fn serial(name: &str, module: Module, tolerance: f64) -> Result<Self, WorkloadError> {
        let golden = golden_run(&module, "main", &[])?;
        let verifier =
            std::sync::Arc::new(GoldenToleranceVerifier::new(&golden.outputs, tolerance));
        Self::with_verifier(name, module, "main", Vec::new(), verifier, golden)
    }

    /// Prepares a workload with a custom verifier built by `make` from
    /// the golden run (for conservation-law style checks).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Workload::serial`].
    pub fn with_custom_verifier(
        name: &str,
        module: Module,
        entry: &str,
        args: Vec<RtVal>,
        make: impl FnOnce(&RunOutput) -> Box<dyn OutputVerifier>,
    ) -> Result<Self, WorkloadError> {
        let golden = golden_run(&module, entry, &args)?;
        let verifier = std::sync::Arc::from(make(&golden));
        Self::with_verifier(name, module, entry, args, verifier, golden)
    }

    fn with_verifier(
        name: &str,
        module: Module,
        entry: &str,
        args: Vec<RtVal>,
        verifier: std::sync::Arc<dyn OutputVerifier>,
        golden: RunOutput,
    ) -> Result<Self, WorkloadError> {
        if golden.eligible_results == 0 {
            return Err(WorkloadError::NoEligibleSites);
        }
        Ok(Workload {
            name: name.to_string(),
            module,
            entry: entry.to_string(),
            args,
            verifier,
            nominal_insts: golden.dynamic_insts,
            eligible_results: golden.eligible_results,
            loads: golden.loads,
            stores: golden.stores,
            cond_branches: golden.cond_branches,
            golden: golden.outputs,
            kept: Mutex::default(),
        })
    }

    /// The run identity: what decides a campaign's outcomes besides the
    /// module and the campaign knobs — the entry function, its exact
    /// arguments, and the verifier's [`OutputVerifier::describe`]. Store
    /// keys and journal headers record it, so results computed for other
    /// inputs or under another verification routine are never served.
    pub fn run_identity(&self) -> String {
        let args: Vec<String> = self.args.iter().map(|a| format!("{a:?}")).collect();
        format!(
            "{}({}) verified by {}",
            self.entry,
            args.join(", "),
            self.verifier.describe()
        )
    }

    /// Size of the clean run's dynamic sample space for one site class.
    pub fn dynamic_sites(&self, class: SiteClass) -> u64 {
        match class {
            SiteClass::Value => self.eligible_results,
            SiteClass::Load => self.loads,
            SiteClass::Store => self.stores,
            SiteClass::Branch => self.cond_branches,
        }
    }

    /// Re-prepares this workload around a transformed (protected) module,
    /// re-running the golden run but keeping the same verifier.
    ///
    /// # Errors
    ///
    /// Fails when the transformed module's clean run fails — which would
    /// indicate a broken protection pass.
    pub fn with_module(&self, name: &str, module: Module) -> Result<Workload, WorkloadError> {
        let golden = golden_run(&module, &self.entry, &self.args)?;
        if golden.eligible_results == 0 {
            return Err(WorkloadError::NoEligibleSites);
        }
        Ok(Workload {
            name: name.to_string(),
            module,
            entry: self.entry.clone(),
            args: self.args.clone(),
            verifier: std::sync::Arc::clone(&self.verifier),
            nominal_insts: golden.dynamic_insts,
            eligible_results: golden.eligible_results,
            loads: golden.loads,
            stores: golden.stores,
            cond_branches: golden.cond_branches,
            golden: golden.outputs,
            kept: Mutex::default(),
        })
    }
}

/// The clean run on the compiled engine (bit-identical to the
/// reference, and several times faster).
fn golden_run(module: &Module, entry: &str, args: &[RtVal]) -> Result<RunOutput, WorkloadError> {
    let program = CompiledProgram::compile(module);
    let out = CompiledMachine::new(&program)
        .run(&RunConfig {
            entry: entry.to_string(),
            args: args.to_vec(),
            ..RunConfig::default()
        })
        .map_err(|e| WorkloadError::GoldenRunFailed(e.to_string()))?;
    match out.status {
        RunStatus::Completed(_) => Ok(out),
        other => Err(WorkloadError::GoldenRunFailed(format!("{other:?}"))),
    }
}

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of injection runs (the paper uses 1,024 per configuration
    /// for evaluation and 2,500 for training).
    pub runs: usize,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Which interpreter engine executes the runs. Both engines are
    /// bit-identical (same records for the same seed), so this is a
    /// pure throughput knob; the pre-decoded engine is the default.
    pub engine: Engine,
    /// The fault being modeled by every plan of the campaign. The
    /// default, [`FaultModel::SingleBit`], reproduces the paper's
    /// protocol bit-for-bit: a single-bit campaign draws the identical
    /// plan sequence (and therefore records) it drew before the model
    /// knob existed.
    pub fault_model: FaultModel,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            runs: 256,
            seed: 0,
            threads: 0,
            engine: Engine::default(),
            fault_model: FaultModel::default(),
        }
    }
}

/// Retry schedule for runs that fail for harness reasons (an interpreter
/// or verifier panic, or an invalid run). The backoff before attempt
/// `k+1` is `base_backoff · 2^(k-1)` capped at `max_backoff`, scaled by
/// a deterministic jitter in `[0.5, 1.0]` derived from the campaign
/// seed, plan index, and attempt — so retry timing never perturbs
/// campaign determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per plan before degrading to a
    /// [`HarnessFailure`] (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (each plan gets exactly one attempt).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// One plan that exhausted its retry budget without producing a
/// classifiable run. Harness failures are campaign-infrastructure
/// problems, not fault outcomes: they are excluded from the §5.5
/// fractions and reported separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessFailure {
    /// Index of the plan in the campaign's pre-drawn plan list.
    pub plan_index: usize,
    /// The dynamic eligible-result index that was targeted.
    pub target: u64,
    /// The bit that was to be flipped.
    pub bit: u32,
    /// Attempts consumed (equals the policy's `max_attempts`).
    pub attempts: u32,
    /// The last attempt's error (panic message or run error).
    pub error: String,
}

impl fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan {} (target {}, bit {}) failed after {} attempts: {}",
            self.plan_index, self.target, self.bit, self.attempts, self.error
        )
    }
}

/// Knobs of the resilient campaign runtime, beyond the basic
/// [`CampaignConfig`].
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// How injection sites are drawn.
    pub sampling: SamplingMode,
    /// Retry schedule for harness failures.
    pub retry: RetryPolicy,
    /// Checkpoint journal path. When set, every classified record is
    /// appended (and flushed) to this JSONL file, and a re-invocation
    /// resumes from it, re-executing only missing plan indices.
    pub journal: Option<PathBuf>,
    /// Wall-clock watchdog per run, classified as a hang
    /// ([`Outcome::Symptom`]) like the instruction budget.
    pub run_deadline: Option<Duration>,
}

/// Error running a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// The interpreter rejected the run configuration (bad entry name or
    /// argument types) during `stage`.
    Run {
        /// What the campaign was doing.
        stage: &'static str,
        /// The interpreter's message.
        message: String,
    },
    /// Site profiling was requested but the interpreter returned no
    /// profile.
    MissingProfile,
    /// The checkpoint journal failed (I/O, identity mismatch, or
    /// corruption).
    Journal(JournalError),
    /// Internal invariant violation: some plan indices were left
    /// unprocessed.
    Incomplete {
        /// Number of plan indices without a record or failure.
        missing: usize,
    },
    /// The clean run never exercised the selected fault model's site
    /// class, so there is nothing to sample.
    NoDynamicSites {
        /// The model whose sample space is empty.
        model: FaultModel,
    },
    /// Static-site-uniform sampling enumerates value-producing
    /// instructions, which only value-class models can target.
    UnsupportedSampling {
        /// The non-value model that was combined with
        /// [`SamplingMode::StaticUniform`].
        model: FaultModel,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Run { stage, message } => {
                write!(f, "campaign {stage} failed: {message}")
            }
            CampaignError::MissingProfile => {
                f.write_str("interpreter returned no site profile despite profiling being enabled")
            }
            CampaignError::Journal(e) => write!(f, "campaign journal failed: {e}"),
            CampaignError::Incomplete { missing } => {
                write!(f, "campaign left {missing} plan indices unprocessed")
            }
            CampaignError::NoDynamicSites { model } => write!(
                f,
                "fault model {model} has no sites to sample: the clean run executed no {}",
                model.site_class().label()
            ),
            CampaignError::UnsupportedSampling { model } => write!(
                f,
                "static-site sampling only supports value-class fault models, not {model}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// One injection run's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionRecord {
    /// The fault model the plan applied.
    pub model: FaultModel,
    /// The static instruction whose dynamic instance was corrupted.
    pub site: (FuncId, InstId),
    /// The dynamic index targeted within the model's site class.
    pub target: u64,
    /// The model's corruption parameter (bit line, burst origin, stuck
    /// line+polarity; unused by branch flips).
    pub bit: u32,
    /// The classified outcome.
    pub outcome: Outcome,
    /// Dynamic instructions executed by the faulty run.
    pub dynamic_insts: u64,
    /// Dynamic instructions between the injection and the end of the
    /// run. For [`Outcome::Detected`] this is the detection latency of
    /// the inserted checks; for [`Outcome::Soc`] it is the latency a
    /// verification-only scheme would pay (the whole remaining run),
    /// which is the paper's §2.2 comparison.
    pub latency: u64,
    /// Attempts the run took to classify (1 unless earlier attempts hit
    /// harness failures and were retried).
    pub attempts: u32,
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-run records (site, bit, outcome), in plan order.
    pub records: Vec<InjectionRecord>,
    /// Plans that exhausted their retry budget, in plan order. Excluded
    /// from [`CampaignResult::fraction`]; a non-empty list means the
    /// outcome fractions rest on fewer samples than configured.
    pub harness_failures: Vec<HarnessFailure>,
    /// Entries recovered from the checkpoint journal instead of being
    /// re-executed (0 without a journal or on a fresh campaign).
    pub resumed: usize,
    /// Nominal (clean) dynamic instruction count of the workload.
    pub nominal_insts: u64,
    /// What the golden-state checkpoint ladder saved (all zero on the
    /// reference engine or when no ladder was built).
    pub checkpoints: CheckpointStats,
}

/// Golden-state checkpoint counters of a campaign: the ladder's size
/// and the instructions its runs did not execute. Observability only —
/// records are the same with or without a ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints in the campaign's ladder.
    pub snapshots: usize,
    /// Bytes of snapshot state the ladder holds.
    pub snapshot_bytes: usize,
    /// Fault-free prefix instructions restored from checkpoints
    /// instead of executed.
    pub prefix_skipped_insts: u64,
    /// Golden suffix instructions not executed after reconvergence.
    pub suffix_skipped_insts: u64,
    /// Runs whose state matched a golden checkpoint after the fault.
    pub reconverged_runs: usize,
}

impl CheckpointStats {
    fn record(&mut self, skipped: Skipped) {
        self.prefix_skipped_insts += skipped.prefix;
        self.suffix_skipped_insts += skipped.suffix;
        self.reconverged_runs += usize::from(skipped.reconverged);
    }
}

impl std::ops::AddAssign for CheckpointStats {
    fn add_assign(&mut self, other: CheckpointStats) {
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.prefix_skipped_insts += other.prefix_skipped_insts;
        self.suffix_skipped_insts += other.suffix_skipped_insts;
        self.reconverged_runs += other.reconverged_runs;
    }
}

impl fmt::Display for CheckpointStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} snapshots ({} bytes), {} prefix and {} suffix instructions skipped, \
             {} runs reconverged",
            self.snapshots,
            self.snapshot_bytes,
            self.prefix_skipped_insts,
            self.suffix_skipped_insts,
            self.reconverged_runs
        )
    }
}

impl CampaignResult {
    /// Number of runs with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Fraction of classified runs with the given outcome (harness
    /// failures are excluded from the denominator).
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.count(outcome) as f64 / self.records.len() as f64
        }
    }

    /// The 95% margin of error of the SOC fraction (§6.2): the binomial
    /// normal-approximation half-width `1.96·√(p(1−p)/n)`.
    pub fn soc_margin_of_error(&self) -> f64 {
        margin_of_error(self.fraction(Outcome::Soc), self.records.len())
    }
}

/// Binomial 95% margin of error for proportion `p` over `n` samples.
///
/// Degenerate inputs — no samples, or a proportion outside `[0, 1]`
/// (where the binomial variance is undefined) — report 0.0 rather than
/// a NaN that would poison downstream table math.
pub fn margin_of_error(p: f64, n: usize) -> f64 {
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return 0.0;
    }
    1.96 * (p * (1.0 - p) / n as f64).sqrt()
}

/// How injection sites are drawn.
///
/// The paper (via FlipIt) samples *dynamic instances* uniformly, which
/// weights static instructions by execution frequency. Sampling static
/// sites uniformly instead gives rare instructions equal representation
/// in the training set — the `ablation_sampling` binary studies the
/// difference.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SamplingMode {
    /// Uniform over dynamic eligible results (the paper's protocol).
    #[default]
    DynamicUniform,
    /// Uniform over executed static instructions, then uniform over
    /// that instruction's dynamic instances.
    StaticUniform,
}

impl SamplingMode {
    /// Stable wire token of the campaign journal.
    pub fn wire(self) -> &'static str {
        match self {
            SamplingMode::DynamicUniform => "dynamic",
            SamplingMode::StaticUniform => "static",
        }
    }
}

/// Runs a statistical fault-injection campaign against `workload`.
///
/// Each run targets a uniformly random dynamic instance among the
/// workload's eligible results and a uniformly random bit, matching the
/// paper's FlipIt configuration ("random instances of an instruction,
/// bits within a byte"). Runs execute in parallel across threads; the
/// result is deterministic for a given seed regardless of thread count.
///
/// # Errors
///
/// See [`run_campaign_with`].
pub fn run_campaign(
    workload: &Workload,
    config: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with(workload, config, &CampaignOptions::default())
}

/// Like [`run_campaign`] with an explicit [`SamplingMode`].
///
/// # Errors
///
/// See [`run_campaign_with`].
pub fn run_campaign_sampled(
    workload: &Workload,
    config: &CampaignConfig,
    sampling: SamplingMode,
) -> Result<CampaignResult, CampaignError> {
    run_campaign_with(
        workload,
        config,
        &CampaignOptions {
            sampling,
            ..CampaignOptions::default()
        },
    )
}

/// A completed plan index: either classified or degraded.
///
/// This is the unit the campaign runtime journals and the serving layer
/// streams: one pre-drawn plan either produced an [`InjectionRecord`]
/// or exhausted its retry budget as a [`HarnessFailure`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome {
    /// The plan was executed and classified.
    Record(InjectionRecord),
    /// The plan exhausted its retry budget without classifying.
    Failure(HarnessFailure),
}

/// Pre-draws the full injection plan list for a campaign.
///
/// All plans come from one RNG seeded with [`CampaignConfig::seed`], so
/// the plan list is a pure function of (workload, config, sampling) —
/// independent of thread count, scheduling, chunking, and resume state.
/// A resumed or chunked campaign re-draws the identical list and skips
/// the indices it already has.
///
/// The draw sequence is byte-compatible with the pre-model runtime for
/// [`FaultModel::SingleBit`]: same RNG, same integer widths (u64 space,
/// u32 bit), same per-plan draw order — so existing single-bit journals
/// and golden records stay valid.
///
/// # Errors
///
/// [`CampaignError::NoDynamicSites`] when the model's sample space is
/// empty; [`CampaignError::UnsupportedSampling`] for static-site
/// sampling of non-value models; [`CampaignError::Run`] /
/// [`CampaignError::MissingProfile`] when static-site profiling fails.
pub fn draw_plans(
    workload: &Workload,
    config: &CampaignConfig,
    sampling: SamplingMode,
) -> Result<Vec<Injection>, CampaignError> {
    let model = config.fault_model;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    match sampling {
        SamplingMode::DynamicUniform => {
            let space = workload.dynamic_sites(model.site_class());
            if space == 0 {
                return Err(CampaignError::NoDynamicSites { model });
            }
            let domain = model.bit_domain();
            Ok((0..config.runs)
                .map(|_| {
                    Injection::for_model(model, rng.gen_range(0..space), rng.gen_range(0..domain))
                })
                .collect())
        }
        SamplingMode::StaticUniform => {
            if !model.injects_values() {
                return Err(CampaignError::UnsupportedSampling { model });
            }
            let domain = model.bit_domain();
            let profile = profile_sites(workload)?;
            Ok((0..config.runs)
                .map(|_| {
                    let (site, count) = profile[rng.gen_range(0..profile.len())];
                    Injection {
                        target: rng.gen_range(0..count),
                        bit: rng.gen_range(0..domain),
                        site: Some(site),
                        model,
                    }
                })
                .collect())
        }
    }
}

/// Executes individual pre-drawn plans against one workload, with the
/// full resilient-runtime behavior (panic isolation, deterministic
/// jittered retries, wall-clock watchdog) of [`run_campaign_with`].
///
/// One executor is one worker's execution context: it owns a private
/// machine (resettable when compiled), so a pool splits a plan list
/// into chunks and gives each worker its own executor. Executing the
/// same `(plan_index, plan)` on any executor built from the same
/// campaign inputs yields the identical [`PlanOutcome`] — chunking is
/// invisible in the results.
pub struct PlanExecutor<'w> {
    workload: &'w Workload,
    runner: Runner<'w>,
    seed: u64,
    retry: RetryPolicy,
    run_deadline: Option<Duration>,
    budget: u64,
    checkpoints: CheckpointStats,
}

impl<'w> PlanExecutor<'w> {
    /// Builds an executor for one worker. Pass the campaign's shared
    /// [`CompiledCampaign`] to run on the compiled engine (from its
    /// golden-state ladder when it has one), or `None` for the
    /// reference tree-walker.
    pub fn new(
        workload: &'w Workload,
        seed: u64,
        options: &CampaignOptions,
        compiled: Option<&'w CompiledCampaign>,
    ) -> Self {
        PlanExecutor {
            workload,
            runner: match compiled {
                Some(c) => Runner::Compiled(CompiledMachine::new(&c.program), c.ladder.as_ref()),
                None => Runner::Reference(&workload.module),
            },
            seed,
            retry: options.retry,
            run_deadline: options.run_deadline,
            budget: RunConfig::budget_from_nominal(workload.nominal_insts),
            checkpoints: CheckpointStats::default(),
        }
    }

    /// Instructions this executor's runs skipped through the ladder so
    /// far (the snapshot fields stay zero; see
    /// [`CompiledCampaign::stats_of`]).
    pub fn checkpoints(&self) -> CheckpointStats {
        self.checkpoints
    }

    /// Executes one plan under panic isolation and the retry policy.
    /// Never fails: an unclassifiable plan degrades to
    /// [`PlanOutcome::Failure`].
    pub fn execute(&mut self, plan_index: usize, plan: Injection) -> PlanOutcome {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 1..=max_attempts {
            // Every attempt starts from pristine machine state: the
            // reference machine is rebuilt (it is stateless) and the
            // compiled machine resets itself on entry, so a panicking
            // attempt cannot leak state into the retry. The verifier
            // runs inside the same isolation boundary — a panic in user
            // verification code is a harness failure, not an abort.
            let attempt_result = catch_unwind(AssertUnwindSafe(|| {
                classify_plan(
                    self.workload,
                    &mut self.runner,
                    &mut self.checkpoints,
                    self.run_deadline,
                    self.budget,
                    plan,
                    attempt,
                )
            }));
            match attempt_result {
                Ok(Ok(record)) => return PlanOutcome::Record(record),
                Ok(Err(message)) => last_error = message,
                Err(payload) => last_error = format!("panicked: {}", panic_message(&payload)),
            }
            if attempt < max_attempts {
                std::thread::sleep(backoff_delay(&self.retry, self.seed, plan_index, attempt));
            }
        }
        PlanOutcome::Failure(HarnessFailure {
            plan_index,
            target: plan.target,
            bit: plan.bit,
            attempts: max_attempts,
            error: last_error,
        })
    }
}

/// One worker's execution engine. The compiled variant holds a
/// resettable machine over the campaign's shared [`CompiledProgram`]
/// (and its ladder, if any), so per-run allocations amortize across the
/// worker's whole plan stream; the reference variant rebuilds its
/// (stateless) machine per attempt.
enum Runner<'w> {
    Reference(&'w Module),
    Compiled(CompiledMachine<'w>, Option<&'w Ladder>),
}

impl Runner<'_> {
    fn run(
        &mut self,
        config: &RunConfig,
        checkpoints: &mut CheckpointStats,
    ) -> Result<RunOutput, RunError> {
        match self {
            Runner::Reference(module) => Machine::new(module).run(config),
            // Compiled runs reset all machine state first, so a previous
            // panicking attempt cannot contaminate this one.
            Runner::Compiled(machine, None) => machine.run(config),
            Runner::Compiled(machine, Some(ladder)) => {
                let (out, skipped) = machine.run_checkpointed(config, ladder)?;
                checkpoints.record(skipped);
                Ok(out)
            }
        }
    }
}

/// A workload's compiled engine: the one [`CompiledProgram`] lowering
/// of the workload plus, when plans can use it, the golden-state
/// [`Ladder`] captured from one clean run. Built once per workload and
/// shared read-only by every worker and chunk of its campaigns.
///
/// The ladder is skipped when no pending plan could use it: on
/// wall-clock-guarded campaigns (the watchdog measures from run start)
/// and when every pending plan is site-restricted (static-site and
/// adaptive sampling).
#[derive(Debug)]
pub struct CompiledCampaign {
    program: CompiledProgram,
    ladder: Option<Ladder>,
}

impl CompiledCampaign {
    /// Lowers `workload` for `engine` (`None` on the reference engine)
    /// and captures its ladder when one of the `pending` plans can
    /// start from it.
    ///
    /// A campaign that wants a ladder is one of the workload's ladder
    /// requests. The first keeps nothing, so a workload that runs one
    /// campaign (a protected variant, a daemon job) holds no ladder
    /// after it. From the second on, the workload keeps the engine it
    /// builds and later requests share it, until the workload's module
    /// text, entry, arguments or nominal length no longer match what it
    /// was built from: the next request then builds a new one in its
    /// place.
    pub fn prepare(
        workload: &Workload,
        engine: Engine,
        options: &CampaignOptions,
        pending: impl IntoIterator<Item = Injection>,
    ) -> Option<Arc<CompiledCampaign>> {
        if engine == Engine::Reference {
            return None;
        }
        if options.run_deadline.is_some() || pending.into_iter().all(|plan| plan.site.is_some()) {
            return Some(Arc::new(CompiledCampaign {
                program: CompiledProgram::compile(&workload.module),
                ladder: None,
            }));
        }
        let inputs = {
            let mut kept = lock(&workload.kept);
            kept.requests += 1;
            let inputs = (kept.requests > 1).then(|| EngineInputs::of(workload));
            if let (Some(inputs), Some((built_from, engine))) = (&inputs, &kept.engine) {
                if inputs == built_from {
                    return Some(Arc::clone(engine));
                }
            }
            kept.engine = None;
            inputs
        };
        let compiled = Arc::new(CompiledCampaign::capture(workload));
        if let Some(inputs) = inputs {
            lock(&workload.kept).engine = Some((inputs, Arc::clone(&compiled)));
        }
        Some(compiled)
    }

    /// Lowers `workload` and captures its ladder.
    fn capture(workload: &Workload) -> CompiledCampaign {
        let program = CompiledProgram::compile(&workload.module);
        let spacing = workload.nominal_insts.div_ceil(MAX_CHECKPOINTS as u64);
        let budget = RunConfig::budget_from_nominal(workload.nominal_insts);
        let config = plan_config(workload, budget, None, None);
        // Capturing on a thread of its own keeps the snapshots out of
        // the caller's malloc arena: measured on glibc, a ladder built
        // on the calling thread raised peak RSS by up to twice as much
        // and erratically from one process to the next.
        let ladder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    CompiledMachine::new(&program)
                        .capture_ladder(&config, spacing)
                        .ok()
                        .flatten()
                })
                .join()
                .ok()
                .flatten()
        });
        CompiledCampaign { program, ladder }
    }

    /// The golden-state ladder, when one was captured.
    pub fn ladder(&self) -> Option<&Ladder> {
        self.ladder.as_ref()
    }

    /// The ladder's size as campaign counters (skip counts zero); all
    /// zero without a compiled campaign or ladder.
    pub fn stats_of(compiled: Option<&CompiledCampaign>) -> CheckpointStats {
        let ladder = compiled.and_then(CompiledCampaign::ladder);
        CheckpointStats {
            snapshots: ladder.map_or(0, Ladder::len),
            snapshot_bytes: ladder.map_or(0, Ladder::bytes),
            ..CheckpointStats::default()
        }
    }
}

/// The run configuration of one injection run of `workload`.
fn plan_config(
    workload: &Workload,
    budget: u64,
    plan: Option<Injection>,
    run_deadline: Option<Duration>,
) -> RunConfig {
    RunConfig {
        entry: workload.entry.clone(),
        args: workload.args.clone(),
        max_insts: budget,
        injection: plan,
        profile_sites: false,
        wall_limit: run_deadline,
    }
}

/// Runs a campaign under the full resilient runtime (see the crate docs'
/// *Campaign resilience* section and [`CampaignOptions`]).
///
/// # Errors
///
/// [`CampaignError::Run`] when static-site profiling cannot execute the
/// workload; [`CampaignError::Journal`] when the checkpoint journal
/// cannot be opened, resumed, or written. Failures of individual
/// injection runs are *not* errors: they surface as
/// [`CampaignResult::harness_failures`].
pub fn run_campaign_with(
    workload: &Workload,
    config: &CampaignConfig,
    options: &CampaignOptions,
) -> Result<CampaignResult, CampaignError> {
    // Pre-draw all injection plans from one seeded RNG so the outcome
    // set is independent of scheduling — and of resume state: a resumed
    // campaign draws the identical plan list and simply skips the
    // journaled indices.
    let plans = draw_plans(workload, config, options.sampling)?;
    let runtime = CampaignRuntime::open(workload, config, options, None)?;
    runtime.append(plans.into_iter().map(|plan| (plan, None)));
    runtime.run_pool()?;
    runtime.finish()
}

/// One isolated attempt: run the interpreter and classify the output.
fn classify_plan(
    workload: &Workload,
    runner: &mut Runner<'_>,
    checkpoints: &mut CheckpointStats,
    run_deadline: Option<Duration>,
    budget: u64,
    plan: Injection,
    attempt: u32,
) -> Result<InjectionRecord, String> {
    let out = runner
        .run(
            &plan_config(workload, budget, Some(plan), run_deadline),
            checkpoints,
        )
        .map_err(|e| format!("interpreter rejected the run: {e}"))?;
    let site = out
        .injected_site
        .ok_or_else(|| format!("injection target {} was never reached", plan.target))?;
    let injected_at = out
        .injected_at_inst
        .ok_or_else(|| "reached injection recorded no position".to_string())?;
    let outcome = classify(&out, &*workload.verifier);
    Ok(InjectionRecord {
        model: plan.model,
        site,
        target: plan.target,
        bit: plan.bit,
        outcome,
        dynamic_insts: out.dynamic_insts,
        latency: out.dynamic_insts.saturating_sub(injected_at),
        attempts: attempt,
    })
}

/// Locks a mutex, recovering the data from a poisoned lock. Every holder
/// in this crate leaves the data valid at each step (whole slots are
/// filled, whole counters added, whole engines kept), so a panic
/// mid-section cannot tear it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic jittered exponential backoff before retry `attempt+1`
/// of `plan_index` (see [`RetryPolicy`]).
fn backoff_delay(retry: &RetryPolicy, seed: u64, plan_index: usize, attempt: u32) -> Duration {
    let exponential = retry
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(retry.max_backoff);
    let mut state =
        seed ^ (plan_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 32);
    let unit = (splitmix64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    exponential.mul_f64(0.5 + 0.5 * unit)
}

/// A static site paired with its eligible-execution count from a clean
/// profiling run.
pub type SiteCount = ((FuncId, InstId), u64);

/// Profiles the workload's per-site eligible-execution counts with one
/// clean run, returning executed sites in a deterministic order.
///
/// # Errors
///
/// [`CampaignError::Run`] when the workload's entry configuration is
/// invalid; [`CampaignError::MissingProfile`] when the interpreter
/// returns no profile despite it being requested.
pub fn profile_sites(workload: &Workload) -> Result<Vec<SiteCount>, CampaignError> {
    let mut machine = Machine::new(&workload.module);
    let out = machine
        .run(&RunConfig {
            entry: workload.entry.clone(),
            args: workload.args.clone(),
            profile_sites: true,
            ..RunConfig::default()
        })
        .map_err(|e| CampaignError::Run {
            stage: "site profiling",
            message: e.to_string(),
        })?;
    let mut sites: Vec<_> = out
        .site_profile
        .ok_or(CampaignError::MissingProfile)?
        .into_iter()
        .collect();
    sites.sort_by_key(|((f, i), _)| (f.index(), i.index()));
    Ok(sites)
}

/// Classifies one faulty run per §5.5.
pub fn classify(run: &RunOutput, verifier: &dyn OutputVerifier) -> Outcome {
    match run.status {
        RunStatus::Trapped(_) | RunStatus::Hang => Outcome::Symptom,
        RunStatus::Detected => Outcome::Detected,
        RunStatus::Completed(_) => {
            if verifier.verify(run) {
                Outcome::Masked
            } else {
                Outcome::Soc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kept(w: &Workload) -> Option<Arc<CompiledCampaign>> {
        lock(&w.kept).engine.as_ref().map(|(_, e)| Arc::clone(e))
    }

    #[test]
    fn a_workload_keeps_its_engine_from_the_second_ladder_request() {
        let module = ipas_lang::compile(
            "fn main() -> int { let s: int = mpi_rank();
               for (let i: int = 0; i < 400; i = i + 1) { s = s + i * i; }
               output_i(s); return 0; }",
        )
        .unwrap();
        let mut w = Workload::serial("sum", module, GoldenToleranceVerifier::EXACT).unwrap();
        let plain = CampaignOptions::default();
        let request = |w: &Workload, options: &CampaignOptions, plan: Injection| {
            CompiledCampaign::prepare(w, Engine::Compiled, options, [plan])
                .expect("compiled engine")
        };
        let plan = Injection::at_global_index(0, 0);

        // Neither the reference engine nor a campaign without a ladder
        // counts as a request.
        assert!(CompiledCampaign::prepare(&w, Engine::Reference, &plain, [plan]).is_none());
        let guarded = CampaignOptions {
            run_deadline: Some(Duration::from_secs(60)),
            ..CampaignOptions::default()
        };
        assert!(request(&w, &guarded, plan).ladder().is_none());
        let site = Injection::at_site((FuncId::new(0), InstId::new(0)), 0, 0);
        assert!(request(&w, &plain, site).ladder().is_none());
        assert_eq!(lock(&w.kept).requests, 0);

        let first = request(&w, &plain, plan);
        assert!(first.ladder().is_some());
        assert!(kept(&w).is_none(), "one request keeps nothing");
        let second = request(&w, &plain, plan);
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&kept(&w).expect("kept"), &second));
        let third = request(&w, &plain, plan);
        assert!(
            Arc::ptr_eq(&second, &third),
            "the third shares the kept engine"
        );
        assert!(request(&w, &guarded, plan).ladder().is_none());
        assert!(Arc::ptr_eq(&kept(&w).expect("kept"), &third));

        // Any input the engine was built from, reassigned, replaces it.
        w.nominal_insts += 1;
        let fourth = request(&w, &plain, plan);
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert!(Arc::ptr_eq(&kept(&w).expect("kept"), &fourth));
        assert!(Arc::ptr_eq(&request(&w, &plain, plan), &fourth));
        w.module =
            ipas_lang::compile("fn main() -> int { output_i(mpi_rank()); return 0; }").unwrap();
        assert!(!Arc::ptr_eq(&request(&w, &plain, plan), &fourth));
    }
}

//! The interpreter core.

use std::fmt;
use std::time::{Duration, Instant};

use ipas_ir::inst::Callee;
use ipas_ir::{BinOp, CastOp, FuncId, Function, Inst, InstId, Intrinsic, Module, Type, Value};

use crate::env::{Env, SerialEnv};
use crate::memory::{gep_addr, Memory};
use crate::rtval::RtVal;
use crate::trap::Trap;

/// Maximum call depth before a [`Trap::StackOverflow`].
pub(crate) const MAX_CALL_DEPTH: usize = 256;
/// How often (in dynamic instructions) the poison flag is polled.
pub(crate) const POISON_POLL_INTERVAL: u64 = 4096;

/// Returns `true` if `inst` is an eligible fault-injection site under the
/// paper's fault model (Section 3): instructions whose *register result*
/// can be corrupted — ALU ops, comparisons, casts, selects, pointer
/// arithmetic, and values returned from calls. Loads/stores are
/// ECC-protected, control flow is covered by control-flow checking, and
/// phi/alloca do not map to value-producing hardware instructions.
pub fn is_fault_site(inst: &Inst) -> bool {
    match inst {
        Inst::Binary { .. }
        | Inst::Icmp { .. }
        | Inst::Fcmp { .. }
        | Inst::Cast { .. }
        | Inst::Select { .. }
        | Inst::Gep { .. } => true,
        Inst::Call { ret_ty, .. } => *ret_ty != Type::Void,
        Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Alloca { .. }
        | Inst::Phi { .. }
        | Inst::Br { .. }
        | Inst::CondBr { .. }
        | Inst::Ret { .. } => false,
    }
}

/// The dynamic site class a fault model samples from.
///
/// The paper's model (and [`FaultModel::SingleBit`]) corrupts *register
/// results* of value-producing instructions. The extended models add
/// three further classes with their own dynamic counters, so every
/// model enumerates a deterministic, engine-independent sample space.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// Results of eligible value-producing instructions
    /// (see [`is_fault_site`]).
    Value,
    /// Executions of `load` instructions.
    Load,
    /// Executions of `store` instructions.
    Store,
    /// Executions of conditional branches (including branches fused
    /// into compare-and-branch instructions by the pre-decoded engine).
    Branch,
}

impl SiteClass {
    /// Human-readable class name for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SiteClass::Value => "eligible value results",
            SiteClass::Load => "load executions",
            SiteClass::Store => "store executions",
            SiteClass::Branch => "conditional-branch executions",
        }
    }
}

/// What kind of hardware fault an injection plan models.
///
/// `SingleBit` is the paper's model and the default; the other variants
/// extend campaigns to the faults the paper scopes out (multi-bit
/// upsets, ECC gaps on the memory path, control-flow errors). Each
/// model samples its own [`SiteClass`] and applies its own corruption,
/// but all of them are deterministic and bit-identical across the
/// reference and pre-decoded engines.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Flip one bit of a computed register result (paper §3).
    #[default]
    SingleBit,
    /// Flip `width` adjacent bits (modulo the result width) of a
    /// computed register result — a multi-bit upset.
    MultiBitBurst {
        /// Number of adjacent bit lines upset together (≥ 1).
        width: u32,
    },
    /// Force one bit of a computed register result to a fixed polarity
    /// (a stuck-at line). The plan's `bit` encodes line and polarity;
    /// when the bit already holds the stuck value the fault is a no-op
    /// and trivially masked, as on real hardware.
    StuckValue,
    /// Flip one bit of the raw 64-bit image returned by a `load`,
    /// before type masking — an ECC gap on the read path.
    LoadValue,
    /// Flip one bit of the raw 64-bit image written by a `store` — an
    /// ECC gap on the write path.
    StoreValue,
    /// Invert one dynamic conditional-branch decision, steering
    /// execution down the wrong edge (including its phi moves).
    BranchFlip,
}

impl FaultModel {
    /// Canonical representative of every model, for sweeps and fuzzing.
    pub const ALL: [FaultModel; 6] = [
        FaultModel::SingleBit,
        FaultModel::MultiBitBurst { width: 2 },
        FaultModel::StuckValue,
        FaultModel::LoadValue,
        FaultModel::StoreValue,
        FaultModel::BranchFlip,
    ];

    /// The dynamic site class this model's `target` indexes.
    pub fn site_class(self) -> SiteClass {
        match self {
            FaultModel::SingleBit | FaultModel::MultiBitBurst { .. } | FaultModel::StuckValue => {
                SiteClass::Value
            }
            FaultModel::LoadValue => SiteClass::Load,
            FaultModel::StoreValue => SiteClass::Store,
            FaultModel::BranchFlip => SiteClass::Branch,
        }
    }

    /// `true` when the model corrupts register results (the class the
    /// paper's sampling and static-site campaigns enumerate).
    pub fn injects_values(self) -> bool {
        self.site_class() == SiteClass::Value
    }

    /// Exclusive upper bound for drawing the plan's `bit` field.
    /// `StuckValue` draws from 128: the low 6 bits select the line, bit
    /// 6 the polarity. `BranchFlip` carries no bit at all.
    pub fn bit_domain(self) -> u32 {
        match self {
            FaultModel::StuckValue => 128,
            FaultModel::BranchFlip => 1,
            _ => 64,
        }
    }

    /// Applies this model's corruption to a `width`-bit register image.
    /// This is the single implementation both engines route through, so
    /// the corrupted image is engine-independent by construction. For
    /// `SingleBit` it is exactly the legacy `bits ^ (1 << (bit % width))`.
    pub fn corrupt_bits(self, bit: u32, width: u32, bits: u64) -> u64 {
        match self {
            FaultModel::SingleBit | FaultModel::LoadValue | FaultModel::StoreValue => {
                bits ^ (1u64 << (bit % width))
            }
            FaultModel::MultiBitBurst { width: burst } => {
                // OR-accumulating the mask flips each line at most once,
                // so a burst wider than the value (e.g. any burst on a
                // bool) degrades to flipping every line once.
                let mut mask = 0u64;
                for k in 0..burst.max(1) {
                    mask |= 1u64 << ((bit + k) % width);
                }
                bits ^ mask
            }
            FaultModel::StuckValue => {
                let line = (bit & 63) % width;
                if bit & 64 != 0 {
                    bits | (1u64 << line)
                } else {
                    bits & !(1u64 << line)
                }
            }
            FaultModel::BranchFlip => bits ^ 1,
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::SingleBit => write!(f, "single-bit"),
            FaultModel::MultiBitBurst { width } => write!(f, "burst{width}"),
            FaultModel::StuckValue => write!(f, "stuck-value"),
            FaultModel::LoadValue => write!(f, "load-value"),
            FaultModel::StoreValue => write!(f, "store-value"),
            FaultModel::BranchFlip => write!(f, "branch-flip"),
        }
    }
}

impl std::str::FromStr for FaultModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "single-bit" => return Ok(FaultModel::SingleBit),
            "stuck-value" => return Ok(FaultModel::StuckValue),
            "load-value" => return Ok(FaultModel::LoadValue),
            "store-value" => return Ok(FaultModel::StoreValue),
            "branch-flip" => return Ok(FaultModel::BranchFlip),
            _ => {}
        }
        if let Some(w) = s.strip_prefix("burst") {
            let width: u32 = w
                .parse()
                .map_err(|_| format!("invalid burst width `{w}` in fault model `{s}`"))?;
            if !(1..=64).contains(&width) {
                return Err(format!("burst width {width} out of range 1..=64"));
            }
            return Ok(FaultModel::MultiBitBurst { width });
        }
        Err(format!(
            "unknown fault model `{s}` (expected single-bit, burst<W>, stuck-value, \
             load-value, store-value, or branch-flip)"
        ))
    }
}

/// A single planned fault: corrupt the `target`-th dynamic event of the
/// plan's [`FaultModel`] site class (0-based), using `bit` as the
/// model's corruption parameter.
///
/// For value-class models with `site` unset, `target` indexes the run's
/// *global* sequence of eligible results (dynamic-instance-uniform
/// sampling). With `site` set, `target` counts only executions of that
/// static instruction (used by static-site-uniform sampling campaigns;
/// value-class models only). Load/store/branch models index their own
/// dynamic counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    /// 0-based index into the targeted sequence of dynamic events.
    pub target: u64,
    /// The model's corruption parameter (bit line, burst origin,
    /// stuck line+polarity); unused by [`FaultModel::BranchFlip`].
    pub bit: u32,
    /// Restrict counting to one static instruction.
    pub site: Option<(FuncId, InstId)>,
    /// The fault being modeled.
    pub model: FaultModel,
}

impl Injection {
    /// A global-index single-bit injection (the default FlipIt-style
    /// plan).
    pub fn at_global_index(target: u64, bit: u32) -> Self {
        Injection {
            target,
            bit,
            site: None,
            model: FaultModel::SingleBit,
        }
    }

    /// A single-bit injection into the `instance`-th execution of one
    /// static instruction.
    pub fn at_site(site: (FuncId, InstId), instance: u64, bit: u32) -> Self {
        Injection {
            target: instance,
            bit,
            site: Some(site),
            model: FaultModel::SingleBit,
        }
    }

    /// A global-index injection under an arbitrary fault model.
    pub fn for_model(model: FaultModel, target: u64, bit: u32) -> Self {
        Injection {
            target,
            bit,
            site: None,
            model,
        }
    }
}

/// Configuration of one interpreter run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Entry function name.
    pub entry: String,
    /// Arguments passed to the entry function.
    pub args: Vec<RtVal>,
    /// Dynamic instruction budget; exceeding it reports
    /// [`RunStatus::Hang`]. Use [`RunConfig::budget_from_nominal`] to
    /// derive it from a clean run.
    pub max_insts: u64,
    /// Optional wall-clock deadline for the run. Exceeding it reports
    /// [`RunStatus::Hang`], like the instruction budget: it is the
    /// campaign runtime's watchdog against runs that burn real time
    /// without retiring instructions fast enough for `max_insts` to
    /// catch them. Checked at the poison-poll cadence (every 4096
    /// dynamic instructions), so very short limits are quantized to
    /// that granularity.
    pub wall_limit: Option<Duration>,
    /// Optional fault injection plan.
    pub injection: Option<Injection>,
    /// Record per-site eligible-execution counts (needed by
    /// static-site-uniform sampling; off by default — it costs a hash
    /// update per eligible result).
    pub profile_sites: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            entry: "main".to_string(),
            args: Vec::new(),
            max_insts: u64::MAX,
            injection: None,
            profile_sites: false,
            wall_limit: None,
        }
    }
}

impl RunConfig {
    /// Derives a hang budget from a clean run's dynamic instruction
    /// count: `10 × nominal + 100_000`, the reproduction's equivalent of
    /// the paper's "substantially longer execution time" criterion.
    pub fn budget_from_nominal(nominal: u64) -> u64 {
        nominal.saturating_mul(10).saturating_add(100_000)
    }
}

/// How a run ended.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RunStatus {
    /// The entry function returned normally.
    Completed(Option<RtVal>),
    /// A trap fired (observable symptom).
    Trapped(Trap),
    /// An `__ipas_check_*` comparison failed (fault detected by
    /// duplication).
    Detected,
    /// The instruction budget was exhausted (hang symptom).
    Hang,
}

impl RunStatus {
    /// Returns `true` when the run finished without symptom or detection.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed(_))
    }

    /// Returns `true` for trap or hang (an observable symptom).
    pub fn is_symptom(&self) -> bool {
        matches!(self, RunStatus::Trapped(_) | RunStatus::Hang)
    }
}

/// The verified output stream produced by `output_i64`/`output_f64`.
///
/// Each item is stored as its 64 bits plus one bit of a float mask,
/// 8⅛ bytes an item where a tagged enum takes 16: a run stuck in an
/// output loop emits hundreds of thousands of items.
#[derive(Clone, Default)]
pub struct OutputStream {
    /// Item bits: the `i64`, or the `f64`'s [`f64::to_bits`].
    bits: Vec<u64>,
    /// Bit `k % 64` of word `k / 64` is set when item `k` is a float.
    /// Bits at or past `len` are zero, so equal streams have equal
    /// masks.
    floats: Vec<u64>,
}

/// One item, typed: what `==` and `Debug` compare and print.
#[derive(Copy, Clone, Debug, PartialEq)]
enum OutItem {
    I(i64),
    F(f64),
}

impl OutputStream {
    /// Number of emitted items.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    fn is_float(&self, k: usize) -> bool {
        self.floats[k / 64] >> (k % 64) & 1 == 1
    }

    fn items(&self) -> impl Iterator<Item = OutItem> + '_ {
        self.bits.iter().enumerate().map(|(k, &b)| {
            if self.is_float(k) {
                OutItem::F(f64::from_bits(b))
            } else {
                OutItem::I(b as i64)
            }
        })
    }

    /// All integer items, in emission order (floats are skipped).
    pub fn as_ints(&self) -> Vec<i64> {
        self.bits_of(false).into_iter().map(|b| b as i64).collect()
    }

    /// All float items, in emission order (integers are skipped).
    pub fn as_floats(&self) -> Vec<f64> {
        self.bits_of(true).into_iter().map(f64::from_bits).collect()
    }

    /// The bits of every float (or every int) item, in emission order,
    /// a mask word at a time: verifiers call this on every run.
    fn bits_of(&self, float: bool) -> Vec<u64> {
        let mut out = Vec::new();
        for (chunk, &mask) in self.bits.chunks(64).zip(&self.floats) {
            let live = match chunk.len() {
                64 => u64::MAX,
                n => low_bits(n),
            };
            let wanted = if float { mask } else { !mask & live };
            if wanted == live {
                out.extend_from_slice(chunk);
            } else if wanted != 0 {
                let picked = chunk
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| wanted >> i & 1 == 1);
                out.extend(picked.map(|(_, &b)| b));
            }
        }
        out
    }

    /// Bit-exact equality with the first `len` items of `golden`:
    /// unlike `==`, tells `-0.0` from `0.0` and matches identical NaN
    /// payloads only.
    pub(crate) fn same_bits(&self, golden: &OutputStream, len: usize) -> bool {
        let (whole, part) = (len / 64, len % 64);
        self.bits.len() == len
            && self.bits[..] == golden.bits[..len]
            && self.floats[..whole] == golden.floats[..whole]
            && (part == 0 || self.floats[whole] == golden.floats[whole] & low_bits(part))
    }

    /// Replaces the contents with the first `len` items of `golden`.
    pub(crate) fn restore_prefix(&mut self, golden: &OutputStream, len: usize) {
        let (whole, part) = (len / 64, len % 64);
        self.bits.clear();
        self.bits.extend_from_slice(&golden.bits[..len]);
        self.floats.clear();
        self.floats.extend_from_slice(&golden.floats[..whole]);
        if part != 0 {
            self.floats.push(golden.floats[whole] & low_bits(part));
        }
    }

    fn push(&mut self, bits: u64, float: bool) {
        let k = self.bits.len();
        if k.is_multiple_of(64) {
            self.floats.push(0);
        }
        self.floats[k / 64] |= u64::from(float) << (k % 64);
        self.bits.push(bits);
    }

    fn push_i(&mut self, v: i64) {
        self.push(v as u64, false);
    }

    fn push_f(&mut self, v: f64) {
        self.push(v.to_bits(), true);
    }
}

/// The `n` (1..64) lowest bits set.
fn low_bits(n: usize) -> u64 {
    (1 << n) - 1
}

/// Item by item as `i64` or `f64`: `0.0 == -0.0`, a NaN equals
/// nothing, and an int never equals a float.
impl PartialEq for OutputStream {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.items().eq(other.items())
    }
}

impl fmt::Debug for OutputStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Items<'a>(&'a OutputStream);
        impl fmt::Debug for Items<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.items()).finish()
            }
        }
        f.debug_struct("OutputStream")
            .field("items", &Items(self))
            .finish()
    }
}

/// Everything observed during one run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Final status.
    pub status: RunStatus,
    /// Total dynamic instructions executed.
    pub dynamic_insts: u64,
    /// Eligible (injectable) results produced — the sample space for
    /// statistical fault injection under value-class fault models.
    pub eligible_results: u64,
    /// Dynamic `load` executions — the [`FaultModel::LoadValue`] space.
    pub loads: u64,
    /// Dynamic `store` executions — the [`FaultModel::StoreValue`]
    /// space.
    pub stores: u64,
    /// Dynamic conditional-branch decisions — the
    /// [`FaultModel::BranchFlip`] space.
    pub cond_branches: u64,
    /// The verified output stream.
    pub outputs: OutputStream,
    /// Lines printed via `print_*` intrinsics.
    pub console: Vec<String>,
    /// The static instruction whose result was corrupted, when an
    /// injection fired.
    pub injected_site: Option<(FuncId, InstId)>,
    /// Per-site eligible-execution counts (present when
    /// [`RunConfig::profile_sites`] was set). Map iteration order is
    /// unspecified: anything that serializes, fingerprints, or records
    /// this profile must sort by site first (as
    /// `ipas_faultsim::profile_sites` does).
    pub site_profile: Option<std::collections::HashMap<(FuncId, InstId), u64>>,
    /// Dynamic instruction count at the moment of injection. Combined
    /// with [`RunOutput::dynamic_insts`] this gives the *detection
    /// latency* (how far the error propagated before being caught) —
    /// the quantity behind the paper's §2.2 argument that duplication
    /// detects errors close to their occurrence.
    pub injected_at_inst: Option<u64>,
}

/// Error for misconfigured runs (not runtime faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError(pub(crate) String);

impl RunError {
    /// The error description.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run error: {}", self.0)
    }
}

impl std::error::Error for RunError {}

/// Why execution stopped before the entry function returned. Shared by
/// the reference and compiled engines.
pub(crate) enum Stop {
    Trap(Trap),
    Detected,
    Budget,
    /// The compiled engine found the faulty run's whole state equal to
    /// a golden checkpoint: the rest of the run is the golden run's.
    Reconverged,
}

/// Mutable per-run state shared by both engines: memory, streams, the
/// dynamic/eligible counters, and the injection plan. Keeping one
/// definition here guarantees the two engines count and inject through
/// the exact same code paths.
pub(crate) struct RunState<'e> {
    pub(crate) memory: Memory,
    pub(crate) outputs: OutputStream,
    pub(crate) console: Vec<String>,
    pub(crate) dynamic_insts: u64,
    pub(crate) eligible_results: u64,
    /// Dynamic `load` executions (the [`SiteClass::Load`] sample space).
    pub(crate) loads: u64,
    /// Dynamic `store` executions (the [`SiteClass::Store`] space).
    pub(crate) stores: u64,
    /// Dynamic conditional-branch decisions (the [`SiteClass::Branch`]
    /// space). Fused compare-and-branch instructions count once, same
    /// as the reference `condbr` they decode from.
    pub(crate) cond_branches: u64,
    pub(crate) max_insts: u64,
    pub(crate) deadline: Option<Instant>,
    pub(crate) injection: Option<Injection>,
    pub(crate) injected_site: Option<(FuncId, InstId)>,
    pub(crate) injected_at_inst: Option<u64>,
    pub(crate) site_instance: u64,
    pub(crate) profile_sites: bool,
    pub(crate) site_profile: std::collections::HashMap<(FuncId, InstId), u64>,
    pub(crate) env: &'e mut dyn Env,
    /// Next `dynamic_insts` value at which [`HotCounters::tick`] must
    /// run its slow path (budget exhaustion, poison/deadline poll, or a
    /// golden checkpoint) — always `min(max_insts + 1, next poll
    /// multiple, checkpoint_stop)`. Maintained only by the compiled
    /// engine; the reference re-derives the conditions every tick.
    pub(crate) next_stop: u64,
    /// Tick count at which the compiled engine's next golden checkpoint
    /// is due (capture or compare): one past the checkpoint's
    /// `dynamic_insts`, `u64::MAX` when none is armed.
    pub(crate) checkpoint_stop: u64,
    /// Global eligible-result index the compiled engine's injection
    /// fast path compares against (`u64::MAX` when no global-index
    /// value-class injection is armed).
    pub(crate) fast_target: u64,
    /// Load-execution index at which a [`FaultModel::LoadValue`] plan
    /// fires (`u64::MAX` when none is armed).
    pub(crate) load_target: u64,
    /// Store-execution index for [`FaultModel::StoreValue`] plans.
    pub(crate) store_target: u64,
    /// Branch-decision index for [`FaultModel::BranchFlip`] plans.
    pub(crate) branch_target: u64,
    /// True when injection bookkeeping needs the full path: site
    /// profiling or a site-restricted plan.
    pub(crate) slow_inject: bool,
}

/// The armed target for one site class, or `u64::MAX` when the plan
/// does not sample that class. Site-restricted plans are value-class
/// only, so class targets ignore them.
fn class_target(injection: Option<Injection>, class: SiteClass) -> u64 {
    match injection {
        Some(Injection {
            site: None,
            target,
            model,
            ..
        }) if model.site_class() == class => target,
        _ => u64::MAX,
    }
}

impl<'e> RunState<'e> {
    /// Builds the starting state for one run, taking ownership of a
    /// (possibly recycled) memory so engines can pool allocations.
    pub(crate) fn start(memory: Memory, config: &RunConfig, env: &'e mut dyn Env) -> Self {
        RunState {
            memory,
            outputs: OutputStream::default(),
            console: Vec::new(),
            dynamic_insts: 0,
            eligible_results: 0,
            loads: 0,
            stores: 0,
            cond_branches: 0,
            max_insts: config.max_insts,
            deadline: config.wall_limit.map(|limit| Instant::now() + limit),
            injection: config.injection,
            injected_site: None,
            injected_at_inst: None,
            site_instance: 0,
            profile_sites: config.profile_sites,
            site_profile: std::collections::HashMap::new(),
            env,
            next_stop: POISON_POLL_INTERVAL.min(config.max_insts.saturating_add(1)),
            checkpoint_stop: u64::MAX,
            fast_target: class_target(config.injection, SiteClass::Value),
            load_target: class_target(config.injection, SiteClass::Load),
            store_target: class_target(config.injection, SiteClass::Store),
            branch_target: class_target(config.injection, SiteClass::Branch),
            slow_inject: config.profile_sites
                || matches!(config.injection, Some(Injection { site: Some(_), .. })),
        }
    }

    /// Folds a finished frame execution into the run's status, poisoning
    /// the environment on abnormal exits so other ranks observe it.
    pub(crate) fn finish(&mut self, result: Result<Option<RtVal>, Stop>) -> RunStatus {
        match result {
            Ok(v) => RunStatus::Completed(v),
            Err(Stop::Trap(t)) => {
                self.env.poison();
                RunStatus::Trapped(t)
            }
            Err(Stop::Detected) => {
                self.env.poison();
                RunStatus::Detected
            }
            Err(Stop::Budget) => {
                self.env.poison();
                RunStatus::Hang
            }
            Err(Stop::Reconverged) => {
                unreachable!(
                    "the compiled engine completes reconverged runs from the golden output"
                )
            }
        }
    }

    /// Recomputes [`RunState::next_stop`] from the current count: the
    /// next poll multiple, the budget stop, or the next checkpoint,
    /// whichever comes first.
    pub(crate) fn rearm(&mut self) {
        let next_poll = (self.dynamic_insts / POISON_POLL_INTERVAL + 1) * POISON_POLL_INTERVAL;
        self.next_stop = next_poll
            .min(self.max_insts.saturating_add(1))
            .min(self.checkpoint_stop);
    }

    /// Assembles the [`RunOutput`], leaving the state empty.
    pub(crate) fn into_output(self, status: RunStatus) -> (RunOutput, Memory) {
        let output = RunOutput {
            status,
            dynamic_insts: self.dynamic_insts,
            eligible_results: self.eligible_results,
            loads: self.loads,
            stores: self.stores,
            cond_branches: self.cond_branches,
            outputs: self.outputs,
            console: self.console,
            injected_site: self.injected_site,
            injected_at_inst: self.injected_at_inst,
            site_profile: if self.profile_sites {
                Some(self.site_profile)
            } else {
                None
            },
        };
        (output, self.memory)
    }
}

/// Charges one dynamic (non-phi) instruction against the budget and, at
/// the poll cadence, checks the poison flag and wall-clock deadline.
/// Both engines call this before executing each instruction, so budget
/// exhaustion and watchdog firings land on identical counter values.
#[inline]
pub(crate) fn tick(state: &mut RunState<'_>) -> Result<(), Stop> {
    state.dynamic_insts += 1;
    if state.dynamic_insts > state.max_insts {
        return Err(Stop::Budget);
    }
    if state.dynamic_insts.is_multiple_of(POISON_POLL_INTERVAL) {
        if state.env.poisoned() {
            return Err(Stop::Trap(Trap::MpiAbort));
        }
        if let Some(deadline) = state.deadline {
            if Instant::now() >= deadline {
                return Err(Stop::Budget);
            }
        }
    }
    Ok(())
}

/// Counts one eligible result and applies the injection plan to it.
/// This is the single implementation behind both engines: the eligible
/// sequence (and therefore every campaign plan) is engine-independent.
#[inline]
pub(crate) fn maybe_inject(
    state: &mut RunState<'_>,
    fid: FuncId,
    id: InstId,
    value: RtVal,
) -> RtVal {
    let n = state.eligible_results;
    state.eligible_results += 1;
    if state.profile_sites {
        *state.site_profile.entry((fid, id)).or_insert(0) += 1;
    }
    let counter = match state.injection {
        Some(Injection { site: Some(s), .. }) => {
            if s != (fid, id) {
                return value;
            }
            let c = state.site_instance;
            state.site_instance += 1;
            c
        }
        _ => n,
    };
    match state.injection {
        Some(inj) if inj.model.injects_values() && inj.target == counter => {
            state.injected_site = Some((fid, id));
            state.injected_at_inst = Some(state.dynamic_insts);
            let width = value.ty().bit_width().max(1);
            RtVal::from_bits(
                value.ty(),
                inj.model.corrupt_bits(inj.bit, width, value.bits()),
            )
        }
        _ => value,
    }
}

/// Counts one `load` execution and corrupts its raw image when a
/// [`FaultModel::LoadValue`] plan targets it. Runs *before* type
/// masking, so both engines see the same post-corruption image.
#[inline]
pub(crate) fn maybe_corrupt_load(
    state: &mut RunState<'_>,
    fid: FuncId,
    id: InstId,
    bits: u64,
) -> u64 {
    let n = state.loads;
    state.loads = n + 1;
    if n != state.load_target {
        return bits;
    }
    let inj = state.injection.expect("load target armed without a plan");
    state.injected_site = Some((fid, id));
    state.injected_at_inst = Some(state.dynamic_insts);
    inj.model.corrupt_bits(inj.bit, 64, bits)
}

/// Counts one `store` execution and corrupts the image being written
/// when a [`FaultModel::StoreValue`] plan targets it.
#[inline]
pub(crate) fn maybe_corrupt_store(
    state: &mut RunState<'_>,
    fid: FuncId,
    id: InstId,
    bits: u64,
) -> u64 {
    let n = state.stores;
    state.stores = n + 1;
    if n != state.store_target {
        return bits;
    }
    let inj = state.injection.expect("store target armed without a plan");
    state.injected_site = Some((fid, id));
    state.injected_at_inst = Some(state.dynamic_insts);
    inj.model.corrupt_bits(inj.bit, 64, bits)
}

/// Counts one conditional-branch decision and inverts it when a
/// [`FaultModel::BranchFlip`] plan targets it.
#[inline]
pub(crate) fn maybe_flip_branch(
    state: &mut RunState<'_>,
    fid: FuncId,
    id: InstId,
    taken: bool,
) -> bool {
    let n = state.cond_branches;
    state.cond_branches = n + 1;
    if n != state.branch_target {
        return taken;
    }
    state.injected_site = Some((fid, id));
    state.injected_at_inst = Some(state.dynamic_insts);
    !taken
}

/// Register-resident image of the per-instruction counters, for the
/// compiled engine's hot loop.
///
/// The reference engine updates [`RunState::dynamic_insts`] and
/// [`RunState::eligible_results`] through the state pointer on every
/// instruction; at pre-decoded speeds those round-trips are a
/// measurable fraction of the whole instruction. The compiled engine
/// instead loads the counters into this plain struct at frame entry
/// ([`HotCounters::load`]), updates them as locals the optimizer keeps
/// in registers, and writes them back ([`HotCounters::flush`]) at frame
/// exit, around calls into another frame, and before any slow path that
/// reads the true counts from `RunState` (watermark processing,
/// full injection bookkeeping). `flush` is idempotent, so every exit
/// edge — returns, traps, budget stops — can flush unconditionally.
#[derive(Copy, Clone, Debug)]
pub(crate) struct HotCounters {
    pub(crate) dynamic_insts: u64,
    next_stop: u64,
    eligible_results: u64,
    loads: u64,
    stores: u64,
    cond_branches: u64,
    fast_target: u64,
    load_target: u64,
    store_target: u64,
    branch_target: u64,
    slow_inject: bool,
}

impl HotCounters {
    pub(crate) fn load(state: &RunState<'_>) -> Self {
        HotCounters {
            dynamic_insts: state.dynamic_insts,
            next_stop: state.next_stop,
            eligible_results: state.eligible_results,
            loads: state.loads,
            stores: state.stores,
            cond_branches: state.cond_branches,
            fast_target: state.fast_target,
            load_target: state.load_target,
            store_target: state.store_target,
            branch_target: state.branch_target,
            slow_inject: state.slow_inject,
        }
    }

    pub(crate) fn flush(&self, state: &mut RunState<'_>) {
        state.dynamic_insts = self.dynamic_insts;
        state.eligible_results = self.eligible_results;
        state.loads = self.loads;
        state.stores = self.stores;
        state.cond_branches = self.cond_branches;
    }

    /// Exact-cadence budget/poll charge for the compiled engine.
    ///
    /// Semantically identical to [`tick`] — same budget stop instant,
    /// same poison/deadline poll at every [`POISON_POLL_INTERVAL`]
    /// multiple — but folded into a single comparison against the
    /// precomputed [`RunState::next_stop`] watermark, which is always
    /// the earlier of "budget exceeded" (`max_insts + 1`) and the next
    /// poll multiple. Phi-move charges can jump the counter past the
    /// watermark without checking (as in the reference); the next tick
    /// then lands in the slow path, which re-derives both conditions
    /// exactly.
    #[inline]
    pub(crate) fn tick(&mut self, state: &mut RunState<'_>) -> Result<(), Stop> {
        if self.tick_due() {
            self.tick_slow(state)?;
        }
        Ok(())
    }

    /// Charges one instruction and reports whether the watermark slow
    /// path is due. The compiled engine's instruction-boundary tick uses
    /// this directly so its slow path can also take golden checkpoints;
    /// mid-instruction ticks go through [`HotCounters::tick`], which
    /// leaves a due checkpoint armed for the next boundary.
    #[inline]
    pub(crate) fn tick_due(&mut self) -> bool {
        self.dynamic_insts += 1;
        self.dynamic_insts >= self.next_stop
    }

    /// The budget/poll half of the slow path: flushes, checks, and
    /// reloads the (re-armed) watermark.
    #[cold]
    pub(crate) fn tick_slow(&mut self, state: &mut RunState<'_>) -> Result<(), Stop> {
        self.flush(state);
        tick_watermark(state)?;
        self.next_stop = state.next_stop;
        Ok(())
    }

    /// Reloads the watermark after the slow path re-armed it.
    pub(crate) fn reload_stop(&mut self, state: &RunState<'_>) {
        self.next_stop = state.next_stop;
    }

    /// Bit-image twin of [`maybe_inject`] for the pre-decoded engine,
    /// which stores raw 64-bit register images instead of [`RtVal`]s.
    /// `width` is the static bit width of the result type
    /// (`bit_width().max(1)`, precomputed at lowering), so the flip
    /// `bits ^ (1 << (inj.bit % width))` lands on exactly the bit
    /// [`RtVal::flip_bit`] would flip. Booleans stay canonical (`0`/`1`)
    /// because their width is 1.
    ///
    /// The fast path covers the campaign-dominant configurations (no
    /// injection, or a global-index plan) with one counter bump and one
    /// compare against [`RunState::fast_target`]; site-restricted plans
    /// and site profiling divert to [`inject_slow_bits`], which
    /// replicates [`maybe_inject`]'s full bookkeeping. Both paths must
    /// stay in lock-step with `maybe_inject`;
    /// `injection_bits_twin_agrees` in the compiled-engine tests pins
    /// the equivalence.
    #[inline]
    pub(crate) fn inject(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        id: InstId,
        width: u32,
        bits: u64,
    ) -> u64 {
        let n = self.eligible_results;
        self.eligible_results = n + 1;
        if self.slow_inject {
            self.flush(state);
            return inject_slow_bits(state, n, fid, id, width, bits);
        }
        if n != self.fast_target {
            return bits;
        }
        match state.injection {
            Some(inj) => {
                state.injected_site = Some((fid, id));
                state.injected_at_inst = Some(self.dynamic_insts);
                inj.model.corrupt_bits(inj.bit, width, bits)
            }
            None => bits,
        }
    }

    /// Bit-image twin of [`maybe_corrupt_load`].
    #[inline]
    pub(crate) fn load_bits(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        id: InstId,
        bits: u64,
    ) -> u64 {
        let n = self.loads;
        self.loads = n + 1;
        if n != self.load_target {
            return bits;
        }
        let inj = state.injection.expect("load target armed without a plan");
        state.injected_site = Some((fid, id));
        state.injected_at_inst = Some(self.dynamic_insts);
        inj.model.corrupt_bits(inj.bit, 64, bits)
    }

    /// Bit-image twin of [`maybe_corrupt_store`].
    #[inline]
    pub(crate) fn store_bits(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        id: InstId,
        bits: u64,
    ) -> u64 {
        let n = self.stores;
        self.stores = n + 1;
        if n != self.store_target {
            return bits;
        }
        let inj = state.injection.expect("store target armed without a plan");
        state.injected_site = Some((fid, id));
        state.injected_at_inst = Some(self.dynamic_insts);
        inj.model.corrupt_bits(inj.bit, 64, bits)
    }

    /// Twin of [`maybe_flip_branch`] for the pre-decoded engine.
    #[inline]
    pub(crate) fn branch_edge(
        &mut self,
        state: &mut RunState<'_>,
        fid: FuncId,
        id: InstId,
        taken: bool,
    ) -> bool {
        let n = self.cond_branches;
        self.cond_branches = n + 1;
        if n != self.branch_target {
            return taken;
        }
        state.injected_site = Some((fid, id));
        state.injected_at_inst = Some(self.dynamic_insts);
        !taken
    }
}

#[cold]
fn tick_watermark(state: &mut RunState<'_>) -> Result<(), Stop> {
    if state.dynamic_insts > state.max_insts {
        return Err(Stop::Budget);
    }
    if state.dynamic_insts.is_multiple_of(POISON_POLL_INTERVAL) {
        if state.env.poisoned() {
            return Err(Stop::Trap(Trap::MpiAbort));
        }
        if let Some(deadline) = state.deadline {
            if Instant::now() >= deadline {
                return Err(Stop::Budget);
            }
        }
    }
    state.rearm();
    Ok(())
}

/// Full injection bookkeeping (site profiling, site-restricted plans)
/// for the bit-image engine. `n` is the eligible index already claimed
/// by the caller.
fn inject_slow_bits(
    state: &mut RunState<'_>,
    n: u64,
    fid: FuncId,
    id: InstId,
    width: u32,
    bits: u64,
) -> u64 {
    if state.profile_sites {
        *state.site_profile.entry((fid, id)).or_insert(0) += 1;
    }
    let counter = match state.injection {
        Some(Injection { site: Some(s), .. }) => {
            if s != (fid, id) {
                return bits;
            }
            let c = state.site_instance;
            state.site_instance += 1;
            c
        }
        _ => n,
    };
    match state.injection {
        Some(inj) if inj.model.injects_values() && inj.target == counter => {
            state.injected_site = Some((fid, id));
            state.injected_at_inst = Some(state.dynamic_insts);
            inj.model.corrupt_bits(inj.bit, width, bits)
        }
        _ => bits,
    }
}

/// Validates an entry-point signature against a run configuration,
/// producing the same [`RunError`] messages from both engines.
pub(crate) fn validate_entry(
    entry: &str,
    params: &[Type],
    config: &RunConfig,
) -> Result<(), RunError> {
    if params.len() != config.args.len() {
        return Err(RunError(format!(
            "`{}` takes {} arguments, {} supplied",
            entry,
            params.len(),
            config.args.len()
        )));
    }
    for (i, (want, got)) in params.iter().zip(&config.args).enumerate() {
        if *want != got.ty() {
            return Err(RunError(format!(
                "argument {i}: expected {want}, got {:?}",
                got.ty()
            )));
        }
    }
    Ok(())
}

/// The same `no function named ...` error both engines report.
pub(crate) fn no_such_function(entry: &str) -> RunError {
    RunError(format!("no function named `{entry}`"))
}

/// An interpreter bound to a module.
///
/// The machine is stateless between runs: each call to [`Machine::run`]
/// executes with fresh memory, counters, and output streams.
#[derive(Debug)]
pub struct Machine<'m> {
    module: &'m Module,
}

impl<'m> Machine<'m> {
    /// Creates a machine for `module`. The module is assumed verified
    /// (see [`ipas_ir::verify::verify_module`]); the interpreter panics
    /// on malformed IR rather than trapping.
    pub fn new(module: &'m Module) -> Self {
        Machine { module }
    }

    /// The interpreted module.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Runs under the serial (single-rank) environment.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the entry function does not exist or the
    /// argument count/types mismatch. Runtime faults are reported in
    /// [`RunOutput::status`], not as errors.
    pub fn run(&mut self, config: &RunConfig) -> Result<RunOutput, RunError> {
        let mut env = SerialEnv;
        self.run_with_env(config, &mut env)
    }

    /// Runs under a caller-provided environment (used by `ipas-mpisim`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_with_env(
        &mut self,
        config: &RunConfig,
        env: &mut dyn Env,
    ) -> Result<RunOutput, RunError> {
        let entry = self
            .module
            .function_id(&config.entry)
            .ok_or_else(|| no_such_function(&config.entry))?;
        let func = self.module.function(entry);
        validate_entry(&config.entry, func.params(), config)?;

        let mut state = RunState::start(Memory::new(), config, env);
        let result = self.exec_function(&mut state, entry, &config.args, 0);
        let status = state.finish(result);
        let (output, _memory) = state.into_output(status);
        Ok(output)
    }

    fn exec_function(
        &self,
        state: &mut RunState<'_>,
        fid: FuncId,
        args: &[RtVal],
        depth: usize,
    ) -> Result<Option<RtVal>, Stop> {
        if depth >= MAX_CALL_DEPTH {
            return Err(Stop::Trap(Trap::StackOverflow));
        }
        let func = self.module.function(fid);
        let mut regs: Vec<RtVal> = vec![RtVal::Unit; func.num_inst_slots()];
        let mut frame_allocs: Vec<u64> = Vec::new();

        let mut block = func.entry();
        let mut prev_block: Option<ipas_ir::BlockId> = None;

        let result = 'outer: loop {
            let insts = func.block(block).insts();
            let mut idx = 0;

            // Phi nodes: parallel copy from the incoming edge.
            if let Some(pred) = prev_block {
                let mut updates: Vec<(InstId, RtVal)> = Vec::new();
                while idx < insts.len() {
                    let id = insts[idx];
                    if let Inst::Phi { incomings, .. } = func.inst(id) {
                        let (_, v) = incomings
                            .iter()
                            .find(|(p, _)| *p == pred)
                            .expect("verified phi has an incoming per predecessor");
                        updates.push((id, self.eval(func, &regs, args, *v)));
                        idx += 1;
                    } else {
                        break;
                    }
                }
                state.dynamic_insts += updates.len() as u64;
                for (id, v) in updates {
                    regs[id.index()] = v;
                }
            }

            while idx < insts.len() {
                let id = insts[idx];
                idx += 1;
                if let Err(stop) = tick(state) {
                    break 'outer Err(stop);
                }

                let inst = func.inst(id);
                match inst {
                    Inst::Phi { .. } => {
                        // Entry-block phis cannot exist (no predecessors);
                        // later phis were consumed above.
                        unreachable!("phi encountered mid-block in verified IR");
                    }
                    Inst::Br { target } => {
                        prev_block = Some(block);
                        block = *target;
                        continue 'outer;
                    }
                    Inst::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.eval(func, &regs, args, *cond).as_bool();
                        let c = maybe_flip_branch(state, fid, id, c);
                        prev_block = Some(block);
                        block = if c { *then_bb } else { *else_bb };
                        continue 'outer;
                    }
                    Inst::Ret { value } => {
                        let v = value.map(|v| self.eval(func, &regs, args, v));
                        break 'outer Ok(v);
                    }
                    Inst::Store { value, addr, .. } => {
                        let v = self.eval(func, &regs, args, *value);
                        let a = self.eval(func, &regs, args, *addr).as_ptr();
                        let bits = maybe_corrupt_store(state, fid, id, v.bits());
                        if let Err(t) = state.memory.store(a, bits) {
                            break 'outer Err(Stop::Trap(t));
                        }
                    }
                    _ => {
                        let result = match self
                            .exec_value_inst(state, func, fid, id, &regs, args, inst, depth)
                        {
                            Ok(v) => v,
                            Err(stop) => break 'outer Err(stop),
                        };
                        let result = if is_fault_site(inst) {
                            maybe_inject(state, fid, id, result)
                        } else {
                            result
                        };
                        if let Inst::Alloca { .. } = inst {
                            frame_allocs.push(result.as_ptr());
                        }
                        regs[id.index()] = result;
                    }
                }
            }
            unreachable!("verified blocks end in terminators");
        };

        // Release stack regions on every exit path.
        for base in frame_allocs {
            // Frame regions are always valid bases; ignore double-free
            // that can only arise from user `free` of an alloca pointer.
            let _ = state.memory.free(base);
        }
        result
    }

    fn eval(&self, _func: &Function, regs: &[RtVal], args: &[RtVal], v: Value) -> RtVal {
        match v {
            Value::Inst(id) => regs[id.index()],
            Value::Param(n) => args[n as usize],
            Value::Const(c) => match c {
                ipas_ir::Constant::I64(x) => RtVal::I64(x),
                ipas_ir::Constant::F64Bits(b) => RtVal::F64(f64::from_bits(b)),
                ipas_ir::Constant::Bool(b) => RtVal::Bool(b),
                ipas_ir::Constant::Null => RtVal::Ptr(0),
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_value_inst(
        &self,
        state: &mut RunState<'_>,
        func: &Function,
        fid: FuncId,
        id: InstId,
        regs: &[RtVal],
        args: &[RtVal],
        inst: &Inst,
        depth: usize,
    ) -> Result<RtVal, Stop> {
        match inst {
            Inst::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(func, regs, args, *lhs);
                let r = self.eval(func, regs, args, *rhs);
                exec_binary(*op, l, r).map_err(Stop::Trap)
            }
            Inst::Icmp { pred, lhs, rhs } => {
                let l = self.eval(func, regs, args, *lhs);
                let r = self.eval(func, regs, args, *rhs);
                let (a, b) = match (l, r) {
                    (RtVal::Ptr(a), RtVal::Ptr(b)) => (a as i64, b as i64),
                    (RtVal::Bool(a), RtVal::Bool(b)) => (a as i64, b as i64),
                    _ => (l.as_i64(), r.as_i64()),
                };
                Ok(RtVal::Bool(pred.eval(a, b)))
            }
            Inst::Fcmp { pred, lhs, rhs } => {
                let l = self.eval(func, regs, args, *lhs).as_f64();
                let r = self.eval(func, regs, args, *rhs).as_f64();
                Ok(RtVal::Bool(pred.eval(l, r)))
            }
            Inst::Cast { op, arg, .. } => {
                let v = self.eval(func, regs, args, *arg);
                Ok(exec_cast(*op, v))
            }
            Inst::Select {
                cond,
                then_value,
                else_value,
                ..
            } => {
                let c = self.eval(func, regs, args, *cond).as_bool();
                Ok(self.eval(func, regs, args, if c { *then_value } else { *else_value }))
            }
            Inst::Alloca { count, .. } => {
                let bytes = (*count as i64) * 8;
                state
                    .memory
                    .alloc(bytes)
                    .map(RtVal::Ptr)
                    .map_err(Stop::Trap)
            }
            Inst::Load { ty, addr } => {
                let a = self.eval(func, regs, args, *addr).as_ptr();
                let bits = state.memory.load(a).map_err(Stop::Trap)?;
                let bits = maybe_corrupt_load(state, fid, id, bits);
                Ok(RtVal::from_bits(*ty, bits))
            }
            Inst::Gep { base, index, .. } => {
                let b = self.eval(func, regs, args, *base).as_ptr();
                let i = self.eval(func, regs, args, *index).as_i64();
                Ok(RtVal::Ptr(gep_addr(b, i)))
            }
            Inst::Call {
                callee,
                args: call_args,
                ..
            } => {
                let mut vals = Vec::with_capacity(call_args.len());
                for a in call_args {
                    vals.push(self.eval(func, regs, args, *a));
                }
                match callee {
                    Callee::Func(fid) => self
                        .exec_function(state, *fid, &vals, depth + 1)
                        .map(|r| r.unwrap_or(RtVal::Unit)),
                    Callee::Intrinsic(intr) => exec_intrinsic(state, *intr, &vals),
                }
            }
            Inst::Phi { .. }
            | Inst::Store { .. }
            | Inst::Br { .. }
            | Inst::CondBr { .. }
            | Inst::Ret { .. } => {
                unreachable!("handled by the block loop")
            }
        }
    }
}

pub(crate) fn exec_binary(op: BinOp, l: RtVal, r: RtVal) -> Result<RtVal, Trap> {
    use BinOp::*;
    if op.is_float() {
        let a = l.as_f64();
        let b = r.as_f64();
        let v = match op {
            Fadd => a + b,
            Fsub => a - b,
            Fmul => a * b,
            Fdiv => a / b,
            Frem => a % b,
            _ => unreachable!("is_float covers float opcodes"),
        };
        return Ok(RtVal::F64(v));
    }
    // Bitwise on booleans.
    if let (RtVal::Bool(a), RtVal::Bool(b)) = (l, r) {
        let v = match op {
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            _ => unreachable!("verifier restricts bool binaries to bitwise"),
        };
        return Ok(RtVal::Bool(v));
    }
    let a = l.as_i64();
    let b = r.as_i64();
    let v = match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Sdiv => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            if a == i64::MIN && b == -1 {
                return Err(Trap::DivOverflow);
            }
            a / b
        }
        Srem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            if a == i64::MIN && b == -1 {
                return Err(Trap::DivOverflow);
            }
            a % b
        }
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl((b & 63) as u32),
        Lshr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        Ashr => a.wrapping_shr((b & 63) as u32),
        Fadd | Fsub | Fmul | Fdiv | Frem => unreachable!("handled above"),
    };
    Ok(RtVal::I64(v))
}

pub(crate) fn exec_cast(op: CastOp, v: RtVal) -> RtVal {
    match op {
        CastOp::Sitofp => RtVal::F64(v.as_i64() as f64),
        CastOp::Fptosi => RtVal::I64(ipas_ir::passes::constfold::saturating_f64_to_i64(
            v.as_f64(),
        )),
        CastOp::Zext => RtVal::I64(v.as_bool() as i64),
        CastOp::Trunc => RtVal::Bool(v.as_i64() & 1 == 1),
        CastOp::Bitcast => match v {
            RtVal::I64(x) => RtVal::F64(f64::from_bits(x as u64)),
            RtVal::F64(x) => RtVal::I64(x.to_bits() as i64),
            other => panic!("bitcast of {other:?}"),
        },
        CastOp::Ptrtoint => RtVal::I64(v.as_ptr() as i64),
        CastOp::Inttoptr => RtVal::Ptr(v.as_i64() as u64),
    }
}

pub(crate) fn exec_intrinsic(
    state: &mut RunState<'_>,
    intr: Intrinsic,
    vals: &[RtVal],
) -> Result<RtVal, Stop> {
    let f1 = |i: usize| vals[i].as_f64();
    let out = match intr {
        Intrinsic::Sqrt => RtVal::F64(f1(0).sqrt()),
        Intrinsic::Sin => RtVal::F64(f1(0).sin()),
        Intrinsic::Cos => RtVal::F64(f1(0).cos()),
        Intrinsic::Exp => RtVal::F64(f1(0).exp()),
        Intrinsic::Log => RtVal::F64(f1(0).ln()),
        Intrinsic::Pow => RtVal::F64(f1(0).powf(f1(1))),
        Intrinsic::Fabs => RtVal::F64(f1(0).abs()),
        Intrinsic::Floor => RtVal::F64(f1(0).floor()),
        Intrinsic::Malloc => {
            let p = state.memory.alloc(vals[0].as_i64()).map_err(Stop::Trap)?;
            RtVal::Ptr(p)
        }
        Intrinsic::Free => {
            state.memory.free(vals[0].as_ptr()).map_err(Stop::Trap)?;
            RtVal::Unit
        }
        Intrinsic::PrintI64 => {
            state.console.push(vals[0].as_i64().to_string());
            RtVal::Unit
        }
        Intrinsic::PrintF64 => {
            state.console.push(format!("{}", vals[0].as_f64()));
            RtVal::Unit
        }
        Intrinsic::OutputI64 => {
            state.outputs.push_i(vals[0].as_i64());
            RtVal::Unit
        }
        Intrinsic::OutputF64 => {
            state.outputs.push_f(vals[0].as_f64());
            RtVal::Unit
        }
        Intrinsic::MpiRank => RtVal::I64(state.env.rank()),
        Intrinsic::MpiSize => RtVal::I64(state.env.size()),
        Intrinsic::MpiAllreduceSum => {
            RtVal::F64(state.env.allreduce_sum_f(f1(0)).map_err(Stop::Trap)?)
        }
        Intrinsic::MpiAllreduceSumI => RtVal::I64(
            state
                .env
                .allreduce_sum_i(vals[0].as_i64())
                .map_err(Stop::Trap)?,
        ),
        Intrinsic::MpiAllreduceMax => {
            RtVal::F64(state.env.allreduce_max_f(f1(0)).map_err(Stop::Trap)?)
        }
        Intrinsic::MpiBarrier => {
            state.env.barrier().map_err(Stop::Trap)?;
            RtVal::Unit
        }
        Intrinsic::MpiAllgatherF => {
            let base = vals[0].as_ptr();
            let n = collective_len(vals[1].as_i64())?;
            let (lo, hi) = block_partition(state.env.rank(), state.env.size(), n);
            let mut chunk = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let bits = state
                    .memory
                    .load(gep_addr(base, i as i64))
                    .map_err(Stop::Trap)?;
                chunk.push(f64::from_bits(bits));
            }
            let full = state.env.allgather_f(chunk, lo, n).map_err(Stop::Trap)?;
            debug_assert_eq!(full.len(), n);
            for (i, v) in full.into_iter().enumerate() {
                state
                    .memory
                    .store(gep_addr(base, i as i64), v.to_bits())
                    .map_err(Stop::Trap)?;
            }
            RtVal::Unit
        }
        Intrinsic::MpiAllreduceArrF | Intrinsic::MpiAllreduceArrI => {
            let base = vals[0].as_ptr();
            let n = collective_len(vals[1].as_i64())?;
            let mut data = Vec::with_capacity(n);
            for i in 0..n {
                data.push(
                    state
                        .memory
                        .load(gep_addr(base, i as i64))
                        .map_err(Stop::Trap)?,
                );
            }
            let reduced: Vec<u64> = if intr == Intrinsic::MpiAllreduceArrF {
                state
                    .env
                    .allreduce_vec_f(data.into_iter().map(f64::from_bits).collect())
                    .map_err(Stop::Trap)?
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            } else {
                state
                    .env
                    .allreduce_vec_i(data.into_iter().map(|b| b as i64).collect())
                    .map_err(Stop::Trap)?
                    .into_iter()
                    .map(|v| v as u64)
                    .collect()
            };
            for (i, v) in reduced.into_iter().enumerate() {
                state
                    .memory
                    .store(gep_addr(base, i as i64), v)
                    .map_err(Stop::Trap)?;
            }
            RtVal::Unit
        }
        Intrinsic::IpasCheckI
        | Intrinsic::IpasCheckF
        | Intrinsic::IpasCheckP
        | Intrinsic::IpasCheckB => {
            if vals[0].bits() != vals[1].bits() {
                return Err(Stop::Detected);
            }
            RtVal::Unit
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_ir::parser::parse_module;

    fn run_src(src: &str) -> RunOutput {
        let module = parse_module(src).unwrap();
        ipas_ir::verify::verify_module(&module).unwrap();
        Machine::new(&module).run(&RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let out = run_src(
            r#"
fn @main() -> i64 {
bb0:
  %v0 = mul i64 6, 7
  %v1 = call output_i64(%v0) -> void
  ret %v0
}
"#,
        );
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::I64(42))));
        assert_eq!(out.outputs.as_ints(), vec![42]);
    }

    #[test]
    fn loop_executes_and_counts() {
        let out = run_src(
            r#"
fn @main() -> i64 {
bb0:
  br bb1
bb1:
  %v0 = phi i64 [bb0: 0, bb2: %v3]
  %v1 = phi i64 [bb0: 0, bb2: %v4]
  %v2 = icmp slt %v0, 10
  condbr %v2, bb2, bb3
bb2:
  %v4 = add i64 %v1, %v0
  %v3 = add i64 %v0, 1
  br bb1
bb3:
  ret %v1
}
"#,
        );
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::I64(45))));
        assert!(out.dynamic_insts > 40);
        // adds + icmps are eligible sites.
        assert!(out.eligible_results > 20);
    }

    #[test]
    fn memory_and_calls() {
        let out = run_src(
            r#"
fn @main() -> f64 {
bb0:
  %v0 = call malloc(16) -> ptr
  %v1 = gep f64 %v0, 1
  store f64 2.25, %v1
  %v2 = load f64, %v1
  %v3 = call @twice(%v2) -> f64
  %v4 = call free(%v0) -> void
  ret %v3
}
fn @twice(f64) -> f64 {
bb0:
  %v0 = fadd f64 %arg0, %arg0
  ret %v0
}
"#,
        );
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::F64(4.5))));
    }

    #[test]
    fn div_by_zero_traps() {
        let out = run_src(
            r#"
fn @main() -> i64 {
bb0:
  %v0 = add i64 0, 0
  %v1 = sdiv i64 5, %v0
  ret %v1
}
"#,
        );
        assert_eq!(out.status, RunStatus::Trapped(Trap::DivByZero));
    }

    #[test]
    fn null_deref_traps() {
        let out = run_src(
            r#"
fn @main() {
bb0:
  store i64 1, null
  ret
}
"#,
        );
        assert_eq!(out.status, RunStatus::Trapped(Trap::NullDeref));
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let module = parse_module(
            r#"
fn @main() {
bb0:
  br bb0
}
"#,
        )
        .unwrap();
        let mut m = Machine::new(&module);
        let out = m
            .run(&RunConfig {
                max_insts: 1000,
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Hang);
    }

    #[test]
    fn infinite_loop_hits_wall_clock_watchdog() {
        let module = parse_module(
            r#"
fn @main() {
bb0:
  br bb0
}
"#,
        )
        .unwrap();
        let mut m = Machine::new(&module);
        // No instruction budget: only the wall-clock deadline can stop
        // this run.
        let out = m
            .run(&RunConfig {
                wall_limit: Some(Duration::from_millis(20)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Hang);
    }

    #[test]
    fn generous_wall_limit_does_not_fire() {
        let out_limited = {
            let module = parse_module(
                r#"
fn @main() -> i64 {
bb0:
  %v0 = add i64 20, 22
  ret %v0
}
"#,
            )
            .unwrap();
            Machine::new(&module)
                .run(&RunConfig {
                    wall_limit: Some(Duration::from_secs(3600)),
                    ..RunConfig::default()
                })
                .unwrap()
        };
        assert_eq!(
            out_limited.status,
            RunStatus::Completed(Some(RtVal::I64(42)))
        );
    }

    #[test]
    fn deep_recursion_traps() {
        let out = run_src(
            r#"
fn @main() -> i64 {
bb0:
  %v0 = call @rec(0) -> i64
  ret %v0
}
fn @rec(i64) -> i64 {
bb0:
  %v0 = add i64 %arg0, 1
  %v1 = call @rec(%v0) -> i64
  ret %v1
}
"#,
        );
        assert_eq!(out.status, RunStatus::Trapped(Trap::StackOverflow));
    }

    #[test]
    fn injection_flips_chosen_result() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = add i64 1, 1
  %v1 = add i64 %v0, 1
  %v2 = call output_i64(%v1) -> void
  ret %v1
}
"#;
        let module = parse_module(src).unwrap();
        let mut m = Machine::new(&module);
        // Clean run: outputs 3; two eligible sites (two adds).
        let clean = m.run(&RunConfig::default()).unwrap();
        assert_eq!(clean.outputs.as_ints(), vec![3]);
        assert_eq!(clean.eligible_results, 2);
        // Flip bit 3 (value 8) of the first add's result: 2^8=10 -> 11.
        let out = m
            .run(&RunConfig {
                injection: Some(Injection::at_global_index(0, 3)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.outputs.as_ints(), vec![11]);
        assert!(out.injected_site.is_some());
    }

    #[test]
    fn injection_bit_is_reduced_modulo_width() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = icmp eq 1, 1
  %v1 = zext i64 %v0
  ret %v1
}
"#;
        let module = parse_module(src).unwrap();
        let mut m = Machine::new(&module);
        // icmp result is a bool (1 bit); bit 17 % 1 == 0 flips it.
        let out = m
            .run(&RunConfig {
                injection: Some(Injection::at_global_index(0, 17)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::I64(0))));
    }

    #[test]
    fn ipas_check_detects_mismatch() {
        let out = run_src(
            r#"
fn @main() {
bb0:
  %v0 = add i64 1, 2
  %v1 = call __ipas_check_i(%v0, 4) -> void
  ret
}
"#,
        );
        assert_eq!(out.status, RunStatus::Detected);
    }

    #[test]
    fn ipas_check_passes_on_match() {
        let out = run_src(
            r#"
fn @main() {
bb0:
  %v0 = add i64 1, 2
  %v1 = call __ipas_check_i(%v0, 3) -> void
  ret
}
"#,
        );
        assert!(out.status.is_completed());
    }

    #[test]
    fn corrupted_pointer_usually_traps() {
        // Flip a high bit in a gep result: address lands far outside.
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call malloc(64) -> ptr
  %v1 = gep i64 %v0, 2
  store i64 5, %v1
  %v2 = load i64, %v1
  ret %v2
}
"#;
        let module = parse_module(src).unwrap();
        let mut m = Machine::new(&module);
        let out = m
            .run(&RunConfig {
                injection: Some(Injection::at_global_index(0, 55)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Trapped(Trap::OutOfBounds));
    }

    #[test]
    fn alloca_frees_on_return() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call @local() -> i64
  %v1 = call @local() -> i64
  %v2 = add i64 %v0, %v1
  ret %v2
}
fn @local() -> i64 {
bb0:
  %v0 = alloca i64, 4
  store i64 21, %v0
  %v1 = load i64, %v0
  ret %v1
}
"#;
        let module = parse_module(src).unwrap();
        let mut m = Machine::new(&module);
        let out = m.run(&RunConfig::default()).unwrap();
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::I64(42))));
    }

    #[test]
    fn console_capture() {
        let out = run_src(
            r#"
fn @main() {
bb0:
  %v0 = call print_i64(7) -> void
  %v1 = call print_f64(1.5) -> void
  ret
}
"#,
        );
        assert_eq!(out.console, vec!["7".to_string(), "1.5".to_string()]);
    }

    #[test]
    fn missing_entry_is_run_error() {
        let module = parse_module("fn @foo() {\nbb0:\n  ret\n}\n").unwrap();
        let mut m = Machine::new(&module);
        assert!(m.run(&RunConfig::default()).is_err());
    }

    #[test]
    fn entry_args_are_passed() {
        let module =
            parse_module("fn @main(i64) -> i64 {\nbb0:\n  %v0 = mul i64 %arg0, 2\n  ret %v0\n}\n")
                .unwrap();
        let mut m = Machine::new(&module);
        let out = m
            .run(&RunConfig {
                args: vec![RtVal::I64(21)],
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::I64(42))));
    }
}

/// Validates an array-collective element count. A fault-corrupted
/// length must become a trap (the §5.5 symptom path), never a host OOM
/// from a pre-sized buffer: counts are capped at the memory model's
/// largest possible allocation.
pub(crate) fn collective_len(n: i64) -> Result<usize, Stop> {
    const MAX_ELEMS: i64 = (1 << 30) / 8; // Memory::MAX_ALLOC_BYTES / cell
    if !(0..=MAX_ELEMS).contains(&n) {
        return Err(Stop::Trap(Trap::BadAlloc));
    }
    Ok(n as usize)
}

/// The block `[r·n/P, (r+1)·n/P)` owned by rank `r` of `p` over `n`
/// elements (the standard contiguous partition used by the MPI
/// collectives).
pub fn block_partition(rank: i64, size: i64, n: usize) -> (usize, usize) {
    let r = rank.max(0) as usize;
    let p = size.max(1) as usize;
    (r * n / p, (r + 1) * n / p)
}

#[cfg(test)]
mod collective_len_tests {
    use super::*;
    use ipas_ir::parser::parse_module;

    #[test]
    fn corrupted_collective_length_traps_instead_of_oom() {
        // A huge length reaching an array collective must trap like any
        // other bad allocation — this is reachable via fault injection
        // into the length computation.
        let module = parse_module(
            r#"
fn @main() {
bb0:
  %v0 = call malloc(64) -> ptr
  %v1 = mul i64 1099511627776, 4
  %v2 = call mpi_allgather_f(%v0, %v1) -> void
  ret
}
"#,
        )
        .unwrap();
        let mut m = Machine::new(&module);
        let out = m.run(&RunConfig::default()).unwrap();
        assert_eq!(out.status, RunStatus::Trapped(Trap::BadAlloc));

        let module = parse_module(
            r#"
fn @main() {
bb0:
  %v0 = call malloc(64) -> ptr
  %v1 = mul i64 1099511627776, 4
  %v2 = call mpi_allreduce_arr_i(%v0, %v1) -> void
  ret
}
"#,
        )
        .unwrap();
        let mut m = Machine::new(&module);
        let out = m.run(&RunConfig::default()).unwrap();
        assert_eq!(out.status, RunStatus::Trapped(Trap::BadAlloc));
    }

    #[test]
    fn reasonable_collective_lengths_still_work() {
        let module = parse_module(
            r#"
fn @main() -> f64 {
bb0:
  %v0 = call malloc(32) -> ptr
  store f64 2.5, %v0
  %v1 = call mpi_allgather_f(%v0, 4) -> void
  %v2 = load f64, %v0
  ret %v2
}
"#,
        )
        .unwrap();
        let mut m = Machine::new(&module);
        let out = m.run(&RunConfig::default()).unwrap();
        assert_eq!(out.status, RunStatus::Completed(Some(RtVal::F64(2.5))));
    }

    fn stream(items: &[OutItem]) -> OutputStream {
        let mut s = OutputStream::default();
        for item in items {
            match *item {
                OutItem::I(v) => s.push_i(v),
                OutItem::F(v) => s.push_f(v),
            }
        }
        s
    }

    #[test]
    fn output_equality_compares_values_and_same_bits_compares_bits() {
        let zero = stream(&[OutItem::F(0.0)]);
        let negative_zero = stream(&[OutItem::F(-0.0)]);
        assert_eq!(zero, negative_zero);
        assert!(!zero.same_bits(&negative_zero, 1));
        assert!(zero.same_bits(&zero, 1));

        let nan = stream(&[OutItem::F(f64::NAN)]);
        assert_ne!(nan, nan.clone());
        assert!(nan.same_bits(&nan, 1));

        // The same 64 bits once as an int and once as a float.
        let bits = 1.5f64.to_bits();
        let int = stream(&[OutItem::I(bits as i64)]);
        let float = stream(&[OutItem::F(1.5)]);
        assert_ne!(int, float);
        assert!(!int.same_bits(&float, 1));
        assert_eq!(int.as_ints(), vec![bits as i64]);
        assert_eq!(float.as_floats(), vec![1.5]);
        assert_eq!(
            format!("{:?}", stream(&[OutItem::I(3), OutItem::F(0.5)])),
            "OutputStream { items: [I(3), F(0.5)] }"
        );
    }

    #[test]
    fn restored_output_prefixes_match_at_every_length() {
        // Floats at every third index, so each mask word mixes kinds.
        let items: Vec<OutItem> = (0..150)
            .map(|k| match k % 3 {
                0 => OutItem::F(k as f64 * 0.25),
                _ => OutItem::I(k - 75),
            })
            .collect();
        let golden = stream(&items);
        let mut restored = stream(&[OutItem::F(9.0); 130]);
        assert_eq!(restored.as_floats(), vec![9.0; 130]);
        assert!(restored.as_ints().is_empty());
        for len in [0, 1, 63, 64, 65, 100, 128, 129, 150] {
            restored.restore_prefix(&golden, len);
            let expected = stream(&items[..len]);
            assert_eq!(restored, expected, "length {len}");
            let ints: Vec<i64> = (0..len as i64)
                .filter(|k| k % 3 != 0)
                .map(|k| k - 75)
                .collect();
            let floats: Vec<f64> = (0..len).step_by(3).map(|k| k as f64 * 0.25).collect();
            assert_eq!(restored.as_ints(), ints, "length {len}");
            assert_eq!(restored.as_floats(), floats, "length {len}");
            assert!(restored.same_bits(&golden, len), "length {len}");
            assert_eq!(restored.floats, expected.floats, "length {len}");
            // A restored stream keeps appending where the prefix ends.
            restored.push_i(7);
            let mut longer = items[..len].to_vec();
            longer.push(OutItem::I(7));
            assert_eq!(restored, stream(&longer), "length {len}");
        }
    }
}

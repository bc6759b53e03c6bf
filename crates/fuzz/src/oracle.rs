//! The five differential oracles.
//!
//! Each oracle takes a well-formed input and returns `Some(Divergence)`
//! when the property it guards is violated, `None` when the input is
//! clean. Float-carrying state is always compared **bitwise** — NaN
//! payloads and signed zeros count, exactly as in the checked-in
//! differential tests — because a fuzzer that compares with `==` would
//! dismiss the one class of mismatch it exists to find.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ipas_core::policy::ProtectionPolicy;
use ipas_interp::{
    CompiledMachine, CompiledProgram, FaultModel, Injection, Machine, RtVal, RunConfig, RunOutput,
    RunStatus, SiteClass,
};
use ipas_ir::passmgr::{bisect_pipeline, PassManager, PipelineSpec};
use ipas_ir::verify::verify_module;
use ipas_ir::{parser::parse_module, Module};

/// Which differential property an oracle checks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OracleKind {
    /// Reference interpreter vs pre-decoded compiled engine: every
    /// observable field of [`RunOutput`] must match bit-for-bit, on
    /// clean runs and under injected faults — and each injected run
    /// resumed from golden checkpoints must match the full run.
    EngineDiff,
    /// Printed IR must re-parse to a module that prints identically.
    Roundtrip,
    /// The default optimization pipeline and randomized pipeline
    /// orders (run through the pass manager) must preserve semantics
    /// (outputs, console, status); a divergence is bisected to the
    /// first diverging pass application.
    Passes,
    /// Full duplication with zero faults must be invisible: same
    /// outputs, same status, and never a spurious `Detected`.
    Duplication,
    /// Malformed input must produce a typed error or trap — the
    /// frontends and engines must not panic the host.
    NoPanic,
}

impl OracleKind {
    /// All oracles, in campaign order.
    pub const ALL: [OracleKind; 5] = [
        OracleKind::EngineDiff,
        OracleKind::Roundtrip,
        OracleKind::Passes,
        OracleKind::Duplication,
        OracleKind::NoPanic,
    ];

    /// Stable CLI/artifact name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::EngineDiff => "engine-diff",
            OracleKind::Roundtrip => "roundtrip",
            OracleKind::Passes => "passes",
            OracleKind::Duplication => "duplication",
            OracleKind::NoPanic => "no-panic",
        }
    }

    /// Parses a CLI/artifact name.
    pub fn from_name(name: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|o| o.name() == name)
    }
}

/// A violated oracle: which property broke and a human-readable
/// description of the mismatch.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The violated property.
    pub oracle: OracleKind,
    /// What differed (already formatted for humans; floats as bits).
    pub message: String,
}

impl Divergence {
    fn new(oracle: OracleKind, message: impl Into<String>) -> Self {
        Divergence {
            oracle,
            message: message.into(),
        }
    }
}

/// Golden-checkpoint spacing of the engine-diff oracle's checkpointed
/// runs, in dynamic instructions: tight enough that generated programs
/// of a few dozen instructions still get several checkpoints (longer
/// ones thin to the ladder's checkpoint cap).
pub const CHECKPOINT_SPACING: u64 = 8;

/// Bounded config used for all oracle runs: generated programs retire
/// well under this budget unless they genuinely hang.
fn oracle_config() -> RunConfig {
    RunConfig {
        max_insts: 2_000_000,
        ..RunConfig::default()
    }
}

/// Renders a status with float payloads as bit patterns.
fn fmt_status(s: &RunStatus) -> String {
    match s {
        RunStatus::Completed(Some(RtVal::F64(v))) => {
            format!("Completed(F64 bits {:#018x})", v.to_bits())
        }
        other => format!("{other:?}"),
    }
}

/// A canonical, bit-exact rendering of every observable field of a
/// [`RunOutput`]. Two runs are identical iff their fingerprints match.
fn fingerprint(out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "status {}", fmt_status(&out.status));
    let _ = writeln!(s, "dynamic-insts {}", out.dynamic_insts);
    let _ = writeln!(s, "eligible-results {}", out.eligible_results);
    let _ = writeln!(
        s,
        "loads {} stores {} cond-branches {}",
        out.loads, out.stores, out.cond_branches
    );
    let _ = writeln!(s, "output-ints {:?}", out.outputs.as_ints());
    let bits: Vec<String> = out
        .outputs
        .as_floats()
        .iter()
        .map(|f| format!("{:#018x}", f.to_bits()))
        .collect();
    let _ = writeln!(s, "output-floats {bits:?}");
    let _ = writeln!(s, "console {:?}", out.console);
    let _ = writeln!(s, "injected-site {:?}", out.injected_site);
    let _ = writeln!(s, "injected-at {:?}", out.injected_at_inst);
    s
}

/// The *semantic* slice of a fingerprint: what a correct transform must
/// preserve (outputs, console, status) — not instruction counts, which
/// transforms legitimately change.
fn semantic_fingerprint(out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "status {}", fmt_status(&out.status));
    let _ = writeln!(s, "output-ints {:?}", out.outputs.as_ints());
    let bits: Vec<String> = out
        .outputs
        .as_floats()
        .iter()
        .map(|f| format!("{:#018x}", f.to_bits()))
        .collect();
    let _ = writeln!(s, "output-floats {bits:?}");
    let _ = writeln!(s, "console {:?}", out.console);
    s
}

fn diff_message(label: &str, a: &str, b: &str) -> String {
    format!("{label}:\n--- reference ---\n{a}--- candidate ---\n{b}")
}

/// Oracle 1: reference vs compiled engine, clean and under injection,
/// using the default single-bit fault model.
pub fn check_engine_diff(module: &Module) -> Option<Divergence> {
    check_engine_diff_model(module, FaultModel::SingleBit)
}

/// [`check_engine_diff`] under a specific fault model: the injected
/// runs corrupt whatever site class the model targets (value results,
/// loads, stores, or branch decisions), and both engines must still
/// agree bit-for-bit. Models whose site class the module never
/// exercises fall back to single-bit value flips so every case still
/// checks *something* under injection.
pub fn check_engine_diff_model(module: &Module, model: FaultModel) -> Option<Divergence> {
    let cfg = oracle_config();
    let reference = match Machine::new(module).run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::EngineDiff,
                format!("reference engine refused the module: {e:?}"),
            ))
        }
    };
    let program = CompiledProgram::compile(module);
    let mut compiled = CompiledMachine::new(&program);
    let fast = match compiled.run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::EngineDiff,
                format!("compiled engine refused the module: {e:?}"),
            ))
        }
    };
    let (fa, fb) = (fingerprint(&reference), fingerprint(&fast));
    if fa != fb {
        return Some(Divergence::new(
            OracleKind::EngineDiff,
            diff_message("clean run diverged", &fa, &fb),
        ));
    }

    // A few deterministic injected runs across the model's sample
    // space: both engines must corrupt the same dynamic event the same
    // way and then agree on everything downstream.
    if reference.eligible_results == 0 || reference.status == RunStatus::Hang {
        return None;
    }
    let space = match model.site_class() {
        SiteClass::Value => reference.eligible_results,
        SiteClass::Load => reference.loads,
        SiteClass::Store => reference.stores,
        SiteClass::Branch => reference.cond_branches,
    };
    let model = if space == 0 {
        FaultModel::SingleBit
    } else {
        model
    };
    let space = if space == 0 {
        reference.eligible_results
    } else {
        space
    };
    let domain = model.bit_domain();
    let budget = RunConfig::budget_from_nominal(reference.dynamic_insts);
    let budgeted = RunConfig {
        max_insts: budget,
        ..RunConfig::default()
    };
    // Checkpointed-vs-full mode: a golden ladder at a tight spacing, so
    // even short generated programs resume mid-run and get compared
    // for reconvergence.
    let ladder = compiled
        .capture_ladder(&budgeted, CHECKPOINT_SPACING)
        .ok()
        .flatten();
    for k in 0..3u64 {
        let target = (space * (2 * k + 1)) / 6;
        let bit = [0u32, domain / 2, domain - 1][k as usize % 3];
        let inj_cfg = RunConfig {
            injection: Some(Injection::for_model(model, target, bit)),
            ..budgeted.clone()
        };
        let r = Machine::new(module).run(&inj_cfg);
        let f = compiled.run(&inj_cfg);
        match (r, f) {
            (Ok(r), Ok(f)) => {
                let (fa, fb) = (fingerprint(&r), fingerprint(&f));
                if fa != fb {
                    return Some(Divergence::new(
                        OracleKind::EngineDiff,
                        diff_message(
                            &format!(
                                "injected run (model {model}, target {target}, bit {bit}) diverged"
                            ),
                            &fa,
                            &fb,
                        ),
                    ));
                }
                if let Some(ladder) = &ladder {
                    let fc = match compiled.run_checkpointed(&inj_cfg, ladder) {
                        Ok((c, _)) => fingerprint(&c),
                        Err(e) => format!("refused: {e}\n"),
                    };
                    if fc != fb {
                        return Some(Divergence::new(
                            OracleKind::EngineDiff,
                            diff_message(
                                &format!(
                                    "checkpointed run (model {model}, target {target}, bit {bit}) \
                                     diverged from the full compiled run"
                                ),
                                &fb,
                                &fc,
                            ),
                        ));
                    }
                }
            }
            (r, f) => {
                return Some(Divergence::new(
                    OracleKind::EngineDiff,
                    format!(
                        "injected run (model {model}, target {target}, bit {bit}): \
                         reference {:?} vs compiled {:?}",
                        r.err(),
                        f.err()
                    ),
                ));
            }
        }
    }
    None
}

/// Oracle 2: printed IR re-parses to a semantically identical module,
/// and one round-trip canonicalizes the text (the parser renumbers
/// values densely, so a *second* round-trip must be a fixpoint).
pub fn check_roundtrip(module: &Module) -> Option<Divergence> {
    let printed = module.to_text();
    let reparsed = match parse_module(&printed) {
        Ok(m) => m,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Roundtrip,
                format!(
                    "printer emitted unparseable IR: line {}: {}\n{printed}",
                    e.line(),
                    e.message()
                ),
            ))
        }
    };
    let canonical = reparsed.to_text();
    let again = match parse_module(&canonical) {
        Ok(m) => m,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Roundtrip,
                format!(
                    "canonicalized IR failed to re-parse: line {}: {}\n{canonical}",
                    e.line(),
                    e.message()
                ),
            ))
        }
    };
    if again.to_text() != canonical {
        return Some(Divergence::new(
            OracleKind::Roundtrip,
            diff_message(
                "canonical print→parse→print not a fixpoint",
                &canonical,
                &again.to_text(),
            ),
        ));
    }
    // Renumbering must be the ONLY thing a round-trip changes: the
    // reparsed module has to behave identically.
    if let (Ok(before), Ok(after)) = (baseline(module), baseline(&reparsed)) {
        if before.status != RunStatus::Hang {
            let (fa, fb) = (semantic_fingerprint(&before), semantic_fingerprint(&after));
            if fa != fb {
                return Some(Divergence::new(
                    OracleKind::Roundtrip,
                    diff_message("round-trip changed semantics", &fa, &fb),
                ));
            }
        }
    }
    None
}

/// Runs both engines and returns the reference output (they already
/// passed or will separately fail [`check_engine_diff`]; here we only
/// need one trustworthy baseline).
fn baseline(module: &Module) -> Result<RunOutput, String> {
    Machine::new(module)
        .run(&oracle_config())
        .map_err(|e| format!("{e:?}"))
}

/// FNV-1a over the module text: a deterministic per-input seed for the
/// randomized pipeline orders (same module → same orders → replayable
/// findings).
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The pipelines the `passes` oracle exercises for one module: the
/// default spec plus two seeded Fisher–Yates shuffles of every
/// registered pass.
fn passes_oracle_specs(module: &Module) -> Vec<PipelineSpec> {
    let mut specs = vec![PipelineSpec::default_optimization()];
    let mut state = fnv1a(&module.to_text()) | 1;
    let mut names: Vec<&str> = ipas_ir::passmgr::pass_names().to_vec();
    for _ in 0..2 {
        for i in (1..names.len()).rev() {
            let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
            names.swap(i, j);
        }
        specs.push(PipelineSpec::parse(&names.join(",")).expect("registry names parse"));
    }
    specs
}

/// Runs one pipeline spec through the pass manager (with interleaved
/// verification) and checks the result against the baseline semantic
/// fingerprint (`want`; `None` when the baseline trapped — trapping
/// executions are undefined behaviour, which the pipeline may
/// legitimately delete, so only verifier cleanliness is required). A
/// semantic divergence is bisected to the first diverging pass
/// application.
fn check_one_pipeline(
    module: &Module,
    spec: &PipelineSpec,
    want: Option<&str>,
) -> Option<Divergence> {
    let mut pm = match PassManager::from_spec(spec) {
        Ok(pm) => pm,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Passes,
                format!("pipeline \"{spec}\" failed to build: {e}"),
            ))
        }
    };
    pm.set_verify_each(true);
    let mut optimized = module.clone();
    if let Err(e) = pm.run_module(&mut optimized) {
        return Some(Divergence::new(
            OracleKind::Passes,
            format!("pipeline \"{spec}\" broke the verifier: {e}"),
        ));
    }
    let want = want?;
    let after = match baseline(&optimized) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Passes,
                format!("pipeline \"{spec}\": optimized module failed to run: {e}"),
            ))
        }
    };
    let fb = semantic_fingerprint(&after);
    if fb == want {
        return None;
    }
    // Localize: which pass application first changed observable
    // behaviour? The bisection oracle accepts a module iff it still
    // verifies and reproduces the baseline fingerprint.
    let mut accept = |m: &Module| {
        verify_module(m).is_ok()
            && match Machine::new(m).run(&oracle_config()) {
                Ok(out) => semantic_fingerprint(&out) == want,
                Err(_) => false,
            }
    };
    let located = match bisect_pipeline(module, spec, &mut accept) {
        Ok(Some(report)) if report.execution_index > 0 => format!(
            "first diverging application #{}: pass {} on function {}",
            report.execution_index, report.pass, report.function
        ),
        Ok(Some(_)) => "input already fails the bisection oracle".to_string(),
        Ok(None) => "bisection could not reproduce the divergence".to_string(),
        Err(e) => format!("bisection failed: {e}"),
    };
    Some(Divergence::new(
        OracleKind::Passes,
        format!(
            "{}\n{}",
            diff_message(&format!("pipeline \"{spec}\" changed semantics"), want, &fb),
            located
        ),
    ))
}

/// Oracle 3: optimization pipelines preserve semantics — the default
/// spec plus seeded random pass orders, all executed through the
/// [`PassManager`] with interleaved verification. Any divergence is
/// bisected ([`bisect_pipeline`]) to name the first pass application
/// after which the observable behaviour changed.
///
/// Baselines that hang or trap carry no defined semantics to preserve
/// (a dead `sdiv 0, 0` is undefined behaviour that DCE may delete), so
/// for those inputs only verifier cleanliness is enforced.
pub fn check_passes(module: &Module) -> Option<Divergence> {
    let before = match baseline(module) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Passes,
                format!("baseline run failed: {e}"),
            ))
        }
    };
    let want = match before.status {
        RunStatus::Hang | RunStatus::Trapped(_) => None,
        _ => Some(semantic_fingerprint(&before)),
    };
    passes_oracle_specs(module)
        .iter()
        .find_map(|spec| check_one_pipeline(module, spec, want.as_deref()))
}

/// Oracle 4: full duplication under zero faults is invisible.
pub fn check_duplication(module: &Module) -> Option<Divergence> {
    let before = match baseline(module) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Duplication,
                format!("baseline run failed: {e}"),
            ))
        }
    };
    if before.status == RunStatus::Hang {
        return None;
    }
    let (protected, _stats) = ProtectionPolicy::FullDuplication.apply(module);
    if let Err(e) = verify_module(&protected) {
        return Some(Divergence::new(
            OracleKind::Duplication,
            format!(
                "duplication broke the verifier: {e:?}\n{}",
                protected.to_text()
            ),
        ));
    }
    // The protected module executes more instructions; give it room.
    let cfg = RunConfig {
        max_insts: RunConfig::budget_from_nominal(before.dynamic_insts),
        ..RunConfig::default()
    };
    let after = match Machine::new(&protected).run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            return Some(Divergence::new(
                OracleKind::Duplication,
                format!("protected module failed to run: {e:?}"),
            ))
        }
    };
    if after.status == RunStatus::Detected {
        return Some(Divergence::new(
            OracleKind::Duplication,
            "spurious detection: duplication fired with zero injected faults".to_string(),
        ));
    }
    let (fa, fb) = (semantic_fingerprint(&before), semantic_fingerprint(&after));
    if fa != fb {
        return Some(Divergence::new(
            OracleKind::Duplication,
            diff_message("duplication changed fault-free semantics", &fa, &fb),
        ));
    }
    None
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Oracle 5 for SciL text: the full frontend + both engines must never
/// panic, whatever the input looks like.
pub fn check_no_panic_scil(src: &str) -> Option<Divergence> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(module) = ipas_lang::compile(src) {
            let cfg = oracle_config();
            let _ = Machine::new(&module).run(&cfg);
            let program = CompiledProgram::compile(&module);
            let _ = CompiledMachine::new(&program).run(&cfg);
        }
    }));
    result.err().map(|p| {
        Divergence::new(
            OracleKind::NoPanic,
            format!("SciL pipeline panicked: {}", panic_message(&*p)),
        )
    })
}

/// Oracle 5 for IR text: the parser (and, when it accepts, the
/// verifier and engines) must never panic.
pub fn check_no_panic_ir(text: &str) -> Option<Divergence> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(module) = parse_module(text) {
            if verify_module(&module).is_ok() {
                let cfg = oracle_config();
                let _ = Machine::new(&module).run(&cfg);
                let program = CompiledProgram::compile(&module);
                let _ = CompiledMachine::new(&program).run(&cfg);
            }
        }
    }));
    result.err().map(|p| {
        Divergence::new(
            OracleKind::NoPanic,
            format!("IR pipeline panicked: {}", panic_message(&*p)),
        )
    })
}

/// Runs one module-level oracle (everything except no-panic, which
/// operates on text) under the default single-bit fault model.
pub fn check_module(oracle: OracleKind, module: &Module) -> Option<Divergence> {
    check_module_with(oracle, module, FaultModel::SingleBit)
}

/// [`check_module`] with an explicit fault model; only the engine-diff
/// oracle injects faults, so the other oracles ignore it.
pub fn check_module_with(
    oracle: OracleKind,
    module: &Module,
    model: FaultModel,
) -> Option<Divergence> {
    match oracle {
        OracleKind::EngineDiff => check_engine_diff_model(module, model),
        OracleKind::Roundtrip => check_roundtrip(module),
        OracleKind::Passes => check_passes(module),
        OracleKind::Duplication => check_duplication(module),
        OracleKind::NoPanic => check_no_panic_ir(&module.to_text()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_round_trip() {
        for o in OracleKind::ALL {
            assert_eq!(OracleKind::from_name(o.name()), Some(o));
        }
        assert_eq!(OracleKind::from_name("nope"), None);
    }

    #[test]
    fn clean_module_passes_every_oracle() {
        let module =
            ipas_lang::compile("fn main() -> int { output_i(41 + 1); return 0; }").unwrap();
        for o in OracleKind::ALL {
            assert!(
                check_module(o, &module).is_none(),
                "oracle {} flagged a trivially clean module",
                o.name()
            );
        }
    }

    #[test]
    fn passes_oracle_orders_are_seeded_and_complete() {
        let module = ipas_lang::compile(
            "fn main() -> int { let s: int = 0;
               for (let i: int = 0; i < 6; i = i + 1) { s = s + i * i; }
               output_i(s); return 0; }",
        )
        .unwrap();
        let a = passes_oracle_specs(&module);
        let b = passes_oracle_specs(&module);
        assert_eq!(a.len(), 3);
        // Deterministic: same module, same orders.
        let render = |specs: &[PipelineSpec]| -> Vec<String> {
            specs.iter().map(|s| s.to_string()).collect()
        };
        assert_eq!(render(&a), render(&b));
        assert_eq!(a[0].to_string(), ipas_ir::passmgr::DEFAULT_PIPELINE);
        // Each shuffle covers every registered pass exactly once.
        for spec in &a[1..] {
            let text = spec.to_string();
            let mut names: Vec<&str> = text.split(',').collect();
            names.sort_unstable();
            let mut all: Vec<&str> = ipas_ir::passmgr::pass_names().to_vec();
            all.sort_unstable();
            assert_eq!(names, all);
        }
        // And the whole oracle accepts a clean looping module.
        assert!(check_passes(&module).is_none());
    }

    #[test]
    fn engine_diff_accepts_every_fault_model() {
        // Regression guard for the model-aware engine-diff oracle: a
        // kernel that exercises every site class (values, loads,
        // stores, branches) must stay bit-identical across engines
        // under injection from every fault model.
        let module = ipas_lang::compile(
            "fn main() -> int { let n: int = 16;
               let a: [int] = new_int(n);
               for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 7 - 3; }
               let s: int = 0;
               for (let i: int = 0; i < n; i = i + 1) { s = s + a[i]; }
               output_i(s); free_arr(a); return 0; }",
        )
        .unwrap();
        for model in FaultModel::ALL {
            assert!(
                check_engine_diff_model(&module, model).is_none(),
                "engines diverged under fault model {model}"
            );
        }
    }

    #[test]
    fn engine_diff_falls_back_when_site_class_is_empty() {
        // Straight-line code executes no branches/loads/stores; the
        // oracle must fall back to single-bit rather than divide by a
        // zero-sized sample space or skip injection entirely.
        let module = ipas_lang::compile("fn main() -> int { output_i(6 * 7); return 0; }").unwrap();
        for model in [
            FaultModel::BranchFlip,
            FaultModel::LoadValue,
            FaultModel::StoreValue,
        ] {
            assert!(check_engine_diff_model(&module, model).is_none());
        }
    }

    #[test]
    fn no_panic_accepts_garbage_quietly() {
        for junk in ["", "fn", "fn main( -> int {", "λλλ", "fn @f)(", "42"] {
            assert!(check_no_panic_scil(junk).is_none(), "scil: {junk:?}");
            assert!(check_no_panic_ir(junk).is_none(), "ir: {junk:?}");
        }
    }
}

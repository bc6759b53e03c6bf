//! Differential oracle for the two execution engines.
//!
//! The pre-decoded engine ([`ipas::interp::CompiledMachine`]) must be
//! *bit-identical* to the tree-walking reference ([`ipas::interp::Machine`])
//! on every observable: outputs, console lines, final status (including
//! traps), dynamic instruction counts, eligible-result counts, and
//! injection bookkeeping. This suite drives both engines over all five
//! SciL workloads — fault-free and under injection sweeps — and over
//! proptest-generated programs, and asserts full equality each time.
//!
//! The compiled machine is deliberately *reused* across runs (as the
//! campaign scheduler reuses it), so any state leaking between runs
//! shows up here as a divergence from the freshly-built reference.

use proptest::prelude::*;

use ipas::interp::{
    CompiledMachine, CompiledProgram, Engine, FaultModel, Injection, Machine, RtVal, RunConfig,
    RunOutput, SiteClass,
};
use ipas::ir::Module;
use ipas::workloads::Kind;

/// Asserts every observable field of two runs is identical.
fn assert_identical(label: &str, reference: &RunOutput, compiled: &RunOutput) {
    assert_eq!(reference.status, compiled.status, "{label}: status");
    assert_eq!(
        reference.dynamic_insts, compiled.dynamic_insts,
        "{label}: dynamic instruction count"
    );
    assert_eq!(
        reference.eligible_results, compiled.eligible_results,
        "{label}: eligible result count"
    );
    assert_eq!(reference.loads, compiled.loads, "{label}: load count");
    assert_eq!(reference.stores, compiled.stores, "{label}: store count");
    assert_eq!(
        reference.cond_branches, compiled.cond_branches,
        "{label}: conditional-branch count"
    );
    assert_eq!(
        reference.outputs.as_ints(),
        compiled.outputs.as_ints(),
        "{label}: integer outputs"
    );
    assert_eq!(
        reference.outputs.as_floats().to_bits_vec(),
        compiled.outputs.as_floats().to_bits_vec(),
        "{label}: float outputs (bitwise)"
    );
    assert_eq!(reference.console, compiled.console, "{label}: console");
    assert_eq!(
        reference.injected_site, compiled.injected_site,
        "{label}: injected site"
    );
    assert_eq!(
        reference.injected_at_inst, compiled.injected_at_inst,
        "{label}: injection instant"
    );
    assert_eq!(
        reference.site_profile, compiled.site_profile,
        "{label}: site profile"
    );
}

/// Bitwise view of a float vec so NaN payloads and signed zeros count.
trait BitsVec {
    fn to_bits_vec(&self) -> Vec<u64>;
}

impl BitsVec for Vec<f64> {
    fn to_bits_vec(&self) -> Vec<u64> {
        self.iter().map(|f| f.to_bits()).collect()
    }
}

/// Runs `config` on a fresh reference machine and on `compiled`
/// (reused), asserting identity; returns the reference output.
fn run_both(
    label: &str,
    module: &Module,
    compiled: &mut CompiledMachine<'_>,
    config: &RunConfig,
) -> RunOutput {
    let reference = Machine::new(module).run(config).expect("reference runs");
    let fast = compiled.run(config).expect("compiled runs");
    assert_identical(label, &reference, &fast);
    reference
}

/// Fault-free equivalence plus an injection sweep over one module: a
/// spread of target indices across the eligible-result space, each at a
/// handful of bit positions covering low mantissa, high mantissa,
/// exponent, and sign ranges.
fn differential_sweep(label: &str, module: &Module, args: Vec<RtVal>) {
    let program = CompiledProgram::compile(module);
    let mut machine = CompiledMachine::new(&program);
    let base = RunConfig {
        args,
        ..RunConfig::default()
    };
    let clean = run_both(&format!("{label}/clean"), module, &mut machine, &base);
    assert!(
        matches!(clean.status, ipas::interp::RunStatus::Completed(_)),
        "{label}: fault-free run completes"
    );
    // An injection can corrupt a loop bound; bound the hang exactly as
    // campaigns do, so both engines hit the same budget stop.
    let budget = RunConfig::budget_from_nominal(clean.dynamic_insts);
    let eligible = clean.eligible_results.max(1);
    for step in 0..6u64 {
        let target = step * eligible / 6;
        for bit in [0u32, 17, 42, 62] {
            run_both(
                &format!("{label}/inject t={target} b={bit}"),
                module,
                &mut machine,
                &RunConfig {
                    injection: Some(Injection::at_global_index(target, bit)),
                    max_insts: budget,
                    ..base.clone()
                },
            );
        }
    }
}

#[test]
fn engines_agree_on_all_workloads() {
    for kind in Kind::ALL {
        let workload = kind.build(kind.base_input()).expect("workload builds");
        differential_sweep(kind.name(), &workload.module, workload.args.clone());
    }
}

#[test]
fn engines_agree_on_workload_input_ladder() {
    // Second-smallest ladder input exercises different trip counts than
    // the base input without inflating the suite's runtime.
    for kind in Kind::ALL {
        let input = kind.input_ladder()[1];
        let workload = kind.build(input).expect("workload builds");
        let program = CompiledProgram::compile(&workload.module);
        let mut machine = CompiledMachine::new(&program);
        run_both(
            &format!("{}@{input}", kind.name()),
            &workload.module,
            &mut machine,
            &RunConfig {
                args: workload.args.clone(),
                ..RunConfig::default()
            },
        );
    }
}

#[test]
fn engines_agree_on_site_profiles() {
    for kind in Kind::ALL {
        let workload = kind.build(kind.base_input()).expect("workload builds");
        let program = CompiledProgram::compile(&workload.module);
        let mut machine = CompiledMachine::new(&program);
        run_both(
            &format!("{}/profile", kind.name()),
            &workload.module,
            &mut machine,
            &RunConfig {
                args: workload.args.clone(),
                profile_sites: true,
                ..RunConfig::default()
            },
        );
    }
}

/// A loop program whose clean run executes every fused instruction shape
/// of the compiled engine and every op with a variant of its own
/// (`SHAPES` names them). Its last loop touches no memory, so a flipped
/// sign bit of its counter hangs instead of trapping.
const SHAPES_SRC: &str = r#"
fn @main(i64) -> i64 {
bb0:
  %v0 = call malloc(64) -> ptr
  br bb1
bb1:
  %v1 = phi i64 [bb0: 0, bb2: %v6]
  %v2 = icmp slt %v1, %arg0
  condbr %v2, bb2, bb3
bb2:
  %v3 = sitofp f64 %v1
  %v4 = fmul f64 %v3, 1.5
  %v5 = gep f64 %v0, %v1
  store f64 %v4, %v5
  %v6 = add i64 %v1, 1
  br bb1
bb3:
  br bb4
bb4:
  %v7 = phi i64 [bb3: 0, bb5: %v14]
  %v8 = phi f64 [bb3: 0.0, bb5: %v12]
  %v9 = icmp sle %v7, 6
  condbr %v9, bb5, bb6
bb5:
  %v10 = gep f64 %v0, %v7
  %v11 = load f64, %v10
  %v12 = fadd f64 %v8, %v11
  %v13 = fsub f64 %v11, 0.25
  store f64 %v13, %v10
  %v15 = add i64 %v7, 2
  %v14 = sub i64 %v15, 1
  br bb4
bb6:
  %v16 = fsub f64 %v8, 1.0
  br bb7
bb7:
  %v20 = phi i64 [bb6: 0, bb7: %v21]
  %v21 = add i64 %v20, 1
  %v22 = icmp slt %v21, %arg0
  condbr %v22, bb7, bb8
bb8:
  %v17 = call output_f64(%v16) -> void
  %v18 = fptosi i64 %v16
  %v23 = add i64 %v18, %v21
  %v19 = call free(%v0) -> void
  ret %v23
}
"#;

/// The instruction shapes `SHAPES_SRC` lowers to, as the lowered
/// program's `Debug` output names them.
const SHAPES: [&str; 10] = [
    // icmp slt + condbr (bb1)
    "IcmpSltBr",
    // sitofp, then fmul (bb2)
    "FMul",
    // gep + store through it (bb2)
    "GepStore",
    // add + br: the loop increment (bb2)
    "IAddBr",
    // icmp sle + condbr (bb4)
    "IcmpBr",
    // gep + load from it (bb5)
    "GepLoad",
    // fadd (bb5) and fsub (bb6)
    "FBin",
    // fsub + store of its result (bb5)
    "FBinStore",
    // add, not followed by br (bb5, bb7)
    "IBin",
    // sub + br (bb5)
    "IBinBr",
];

/// The restructured hot loop against the reference on a program that
/// runs every fused shape and op variant: (a) every instruction budget
/// from 1 through one past the clean run, fault-free; (b) every target
/// of every site class at the campaign budget; (c) each of those faults
/// again with the budget ending at the instruction where it fires, and
/// one past it, so budget stops land inside fused pairs.
#[test]
fn engines_agree_on_every_fused_shape_at_every_budget_and_target() {
    let module = ipas::ir::parser::parse_module(SHAPES_SRC).expect("parses");
    ipas::ir::verify::verify_module(&module).expect("verifies");
    let program = CompiledProgram::compile(&module);
    let lowered = format!("{program:?}");
    for shape in SHAPES {
        assert!(
            lowered.contains(&format!("{shape} {{")),
            "no {shape} in {lowered}"
        );
    }
    let mut machine = CompiledMachine::new(&program);
    let base = RunConfig {
        args: vec![RtVal::I64(8)],
        ..RunConfig::default()
    };
    let clean = run_both("shapes/clean", &module, &mut machine, &base);
    assert!(clean.status.is_completed(), "the clean run completes");

    // (a) Every budget, fault-free.
    for max_insts in 1..=clean.dynamic_insts + 1 {
        run_both(
            &format!("shapes/budget {max_insts}"),
            &module,
            &mut machine,
            &RunConfig {
                max_insts,
                ..base.clone()
            },
        );
    }

    // (b) Every target of every class at the campaign budget, and (c)
    // the budget cut where the fault fires and one past it.
    let budget = RunConfig::budget_from_nominal(clean.dynamic_insts);
    let models: [(FaultModel, &[u32]); 4] = [
        (FaultModel::SingleBit, &[1, 63]),
        (FaultModel::LoadValue, &[1]),
        (FaultModel::StoreValue, &[1]),
        (FaultModel::BranchFlip, &[0]),
    ];
    for (model, bits) in models {
        let space = match model.site_class() {
            SiteClass::Value => clean.eligible_results,
            SiteClass::Load => clean.loads,
            SiteClass::Store => clean.stores,
            SiteClass::Branch => clean.cond_branches,
        };
        assert!(space > 0, "{model}: no sites");
        for target in 0..space {
            for &bit in bits {
                let label = format!("shapes/{model} t={target} b={bit}");
                let injection = Some(Injection::for_model(model, target, bit));
                let faulty = run_both(
                    &label,
                    &module,
                    &mut machine,
                    &RunConfig {
                        injection,
                        max_insts: budget,
                        ..base.clone()
                    },
                );
                let at = faulty.injected_at_inst.expect("every target fires");
                for max_insts in [at, at + 1] {
                    run_both(
                        &format!("{label} max={max_insts}"),
                        &module,
                        &mut machine,
                        &RunConfig {
                            injection,
                            max_insts,
                            ..base.clone()
                        },
                    );
                }
            }
        }
    }
}

/// A loop whose body calls two levels deep: every call result is
/// injected when its callee's `ret` returns to the caller. Every value
/// stays non-negative and below 2^62.
const CALLS_SRC: &str = r#"
fn @main(i64) -> i64 {
bb0:
  br bb1
bb1:
  %v1 = phi i64 [bb0: 0, bb2: %v5]
  %v2 = phi i64 [bb0: 0, bb2: %v4]
  %v3 = icmp slt %v1, %arg0
  condbr %v3, bb2, bb3
bb2:
  %v4 = call @step(%v2, %v1) -> i64
  %v5 = add i64 %v1, 1
  br bb1
bb3:
  %v6 = call output_i64(%v2) -> void
  ret %v2
}
fn @step(i64, i64) -> i64 {
bb0:
  %v0 = call @square(%arg1) -> i64
  %v1 = add i64 %arg0, %v0
  ret %v1
}
fn @square(i64) -> i64 {
bb0:
  %v0 = mul i64 %arg0, %arg0
  ret %v0
}
"#;

/// The compiled engine's armed loop hands a run over to its disarmed
/// loop at the first instruction boundary after the fault fires. Three
/// hand-overs no other case reaches: (a) a fault in a call's result,
/// which fires at the callee's `ret`; (b) a fault on the last
/// instruction before a golden checkpoint, where the run must still
/// reconverge at that checkpoint; (c) site-profiling runs that carry a
/// plan, which stay armed throughout and must profile as the reference
/// does.
#[test]
fn engines_agree_where_the_fault_hands_over() {
    let module = ipas::ir::parser::parse_module(CALLS_SRC).expect("parses");
    ipas::ir::verify::verify_module(&module).expect("verifies");
    let program = CompiledProgram::compile(&module);
    let mut machine = CompiledMachine::new(&program);
    let base = RunConfig {
        args: vec![RtVal::I64(30)],
        ..RunConfig::default()
    };
    let clean = run_both("calls/clean", &module, &mut machine, &base);
    assert!(clean.status.is_completed(), "the clean run completes");
    let budget = RunConfig::budget_from_nominal(clean.dynamic_insts);
    let ladder = CompiledMachine::new(&program)
        .capture_ladder(&base, 3)
        .expect("captures")
        .expect("the golden run completes");
    assert!(ladder.len() > 8, "{} checkpoints", ladder.len());

    // (a) and (b): every value target. Stuck-at-0 on bit 62 changes no
    // integer here, so every fault outside an `icmp` result leaves the
    // golden state and reconverges at the first checkpoint at or after
    // the instruction it fires on.
    let (mut call_results, mut before_checkpoint) = (0, 0);
    for target in 0..clean.eligible_results {
        for (model, bit) in [(FaultModel::SingleBit, 61), (FaultModel::StuckValue, 62)] {
            let label = format!("calls/{model} t={target} b={bit}");
            let config = RunConfig {
                injection: Some(Injection::for_model(model, target, bit)),
                max_insts: budget,
                ..base.clone()
            };
            let full = run_both(&label, &module, &mut machine, &config);
            let (resumed, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
            assert_identical(&format!("{label} from the ladder"), &full, &resumed);
            let (fid, id) = full.injected_site.expect("every target fires");
            let inst = module.function(fid).inst(id);
            if matches!(
                inst,
                ipas::ir::Inst::Call {
                    callee: ipas::ir::inst::Callee::Func(_),
                    ..
                }
            ) {
                call_results += 1;
            }
            if model != FaultModel::StuckValue || inst.result_type() == ipas::ir::Type::Bool {
                continue;
            }
            let at = full.injected_at_inst.expect("every target fires");
            let k = (0..ladder.len())
                .find(|&k| ladder.position(k) >= at)
                .expect("a checkpoint follows every fault");
            before_checkpoint += usize::from(ladder.position(k) == at);
            assert!(skipped.reconverged, "{label}: a fault that changes nothing");
            assert_eq!(
                skipped.suffix,
                ladder.golden().dynamic_insts - ladder.position(k),
                "{label}: reconverges at checkpoint {k}, the first after {at}"
            );
        }
    }
    assert!(call_results > 0, "no fault in a call result");
    assert!(before_checkpoint > 0, "no fault right before a checkpoint");

    // (c) Profiling runs with a value plan and with a branch plan: the
    // branch hit takes the fast path, and the run must not hand over.
    let plans = (0..clean.eligible_results)
        .map(|t| Injection::at_global_index(t, 1))
        .chain(
            (0..clean.cond_branches).map(|t| Injection::for_model(FaultModel::BranchFlip, t, 0)),
        );
    for injection in plans {
        let profiled = run_both(
            &format!("calls/profile {injection:?}"),
            &module,
            &mut machine,
            &RunConfig {
                injection: Some(injection),
                max_insts: budget,
                profile_sites: true,
                ..base.clone()
            },
        );
        assert!(profiled.injected_site.is_some(), "{injection:?} fires");
    }
}

#[test]
fn engine_knob_round_trips_through_strings() {
    for engine in Engine::ALL {
        let parsed: Engine = engine.label().parse().expect("label parses back");
        assert_eq!(parsed, engine);
    }
}

/// The proptest template: loops, arrays, GEPs, casts, calls, float and
/// integer arithmetic, conditionals — the same surface the pass-
/// correctness suite uses, compiled optimized so the IR exercises the
/// full instruction set the engines must agree on.
fn program(a: i64, b: i64, c: i64, scale: i64, n: u8) -> String {
    let n = (n % 24) + 2;
    format!(
        r#"
fn mix(v: float, k: int) -> float {{
    if (k % 3 == 0) {{ return v * 1.5 + 0.25; }}
    else if (k % 3 == 1) {{ return sqrt(fabs(v) + 1.0); }}
    return v - itof(k) * 0.125;
}}
fn main(x: int) -> int {{
    let n: int = {n};
    let arr: [float] = new_float(n);
    let acc: int = x;
    for (let i: int = 0; i < n; i = i + 1) {{
        arr[i] = itof(i * {a} + {b}) * 0.5;
    }}
    let facc: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) {{
        facc = facc + mix(arr[i], i + {c});
        if (i % 2 == 0) {{
            acc = acc + ftoi(facc) % 97;
        }} else {{
            acc = acc - i * {scale};
        }}
    }}
    output_i(acc);
    output_f(facc);
    free_arr(arr);
    return acc;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated programs agree fault-free and under a generated
    /// injection, on both the optimized and unoptimized module (the
    /// latter keeps phi-heavy, alloca-heavy IR in the mix that the
    /// optimizer would otherwise clean away).
    #[test]
    fn engines_agree_on_generated_programs(
        a in -20i64..20, b in -20i64..20, c in 0i64..10, scale in -5i64..5, n in any::<u8>(),
        x in -50i64..50, target in any::<u64>(), bit in 0u32..64
    ) {
        let src = program(a, b, c, scale, n);
        let optimized = ipas::lang::compile(&src).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let unoptimized = ipas::lang::compile_unoptimized(&src, "t")
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (tag, module) in [("opt", &optimized), ("unopt", &unoptimized)] {
            let compiled = CompiledProgram::compile(module);
            let mut machine = CompiledMachine::new(&compiled);
            let base = RunConfig {
                args: vec![RtVal::I64(x)],
                ..RunConfig::default()
            };
            let clean = run_both(&format!("gen/{tag}/clean"), module, &mut machine, &base);
            let eligible = clean.eligible_results.max(1);
            run_both(
                &format!("gen/{tag}/inject"),
                module,
                &mut machine,
                &RunConfig {
                    injection: Some(Injection::at_global_index(target % eligible, bit)),
                    max_insts: RunConfig::budget_from_nominal(clean.dynamic_insts),
                    ..base
                },
            );
        }
    }
}

//! Minimized repros from fuzzing campaigns, checked in as regressions.
//!
//! Every test here started life as a fuzzer finding: the campaign
//! flagged a divergence, the delta debugger shrank it, the underlying
//! bug was fixed, and the minimized input was frozen into this file so
//! the bug class stays dead. Each test names the oracle that caught it.

use ipas_fuzz::oracle::{
    check_duplication, check_engine_diff, check_engine_diff_model, check_no_panic_ir,
    check_no_panic_scil, check_passes, check_roundtrip, CHECKPOINT_SPACING,
};
use ipas_fuzz::{run_fuzz, FuzzConfig};
use ipas_interp::{
    CompiledMachine, CompiledProgram, FaultModel, Injection, Machine, RunConfig, RunOutput,
    RunStatus, Trap,
};
use ipas_ir::{FunctionBuilder, Intrinsic, Module, Type, Value};

fn run(module: &Module) -> RunStatus {
    Machine::new(module)
        .run(&RunConfig {
            max_insts: 2_000_000,
            ..RunConfig::default()
        })
        .expect("module runs")
        .status
}

/// engine-diff: a `gep` whose byte offset overflows used to wrap in the
/// compiled engine (u64 arithmetic) while the reference engine indexed
/// out of bounds — two different traps, and under injection two
/// different downstream states. Both engines now poison the address and
/// trap `OutOfBounds` identically.
#[test]
fn overflowing_gep_traps_identically_in_both_engines() {
    let mut b = FunctionBuilder::new("main", &[], Type::I64);
    let a = b.alloca(Type::I64, 4);
    let p = b.gep(Type::I64, a, Value::i64(i64::MAX));
    let l = b.load(Type::I64, p);
    b.call_intrinsic(Intrinsic::OutputI64, vec![l]);
    b.ret(Some(Value::i64(0)));
    let mut module = Module::new("gep-overflow-repro");
    module.add_function(b.finish());

    assert_eq!(run(&module), RunStatus::Trapped(Trap::OutOfBounds));
    assert!(check_engine_diff(&module).is_none());
    assert!(check_no_panic_ir(&module.to_text()).is_none());
}

/// no-panic: the MPI array intrinsics computed element addresses with
/// raw `base + 8*i` u64 arithmetic; a poisoned base (here: from an
/// overflowing `gep`) wrapped around and panicked the host on the
/// resulting bogus slice index. They now share `gep_addr` with every
/// other memory path and trap.
#[test]
fn mpi_array_reduction_with_poison_pointer_traps() {
    let mut b = FunctionBuilder::new("main", &[], Type::I64);
    let a = b.alloca(Type::F64, 2);
    let p = b.gep(Type::F64, a, Value::i64(i64::MAX));
    b.call_intrinsic(Intrinsic::MpiAllreduceArrF, vec![p, Value::i64(4)]);
    b.ret(Some(Value::i64(0)));
    let mut module = Module::new("mpi-poison-repro");
    module.add_function(b.finish());

    assert_eq!(run(&module), RunStatus::Trapped(Trap::OutOfBounds));
    assert!(check_engine_diff(&module).is_none());
    assert!(check_no_panic_ir(&module.to_text()).is_none());
}

/// no-panic: minimized mutation-fuzzer repros against the IR parser
/// (stray tokens in function headers, duplicate definitions, truncated
/// bodies) and the SciL lexer (non-ASCII bytes used to slice mid
/// code point when rendering the caret diagnostic).
#[test]
fn frontend_repros_report_errors_instead_of_panicking() {
    for ir in [
        "fn @f)(",
        "fn @f() -> i64 {\nfn @f() -> i64 {",
        "fn @main() -> i64 {\nentry:\n  ret 0\n}\nfn @main() -> i64 {\nentry:\n  ret 1\n}",
        "fn @main() -> i64 {\nentry:\n  %v0 = add i64 %v9999, 1\n  ret %v0\n}",
        "fn @main() -> i64 {\nentry:\n  br missing\n}",
    ] {
        assert!(check_no_panic_ir(ir).is_none(), "ir input: {ir:?}");
    }
    for scil in [
        "fn main() -> int { let é: int = 1; return 0; }",
        "fn main() -> int { λ 😀",
        "fn main() -> int { output_i(１); return 0; }",
    ] {
        assert!(check_no_panic_scil(scil).is_none(), "scil input: {scil:?}");
    }
}

/// no-panic (via `ipas_lang::compile`): `x % 1` and `x - 0` simplify in
/// the same instsimplify round; the replacement map was applied
/// non-transitively, leaving a use of the unlinked intermediate and
/// panicking the frontend's post-optimization verifier. The pass-level
/// repro lives in `ipas_ir`; this is the full-pipeline form the fuzzer
/// actually found.
#[test]
fn same_round_simplification_chain_survives_full_compile() {
    let src = "fn main() -> int {\n\
               \x20   let x: int = mpi_rank();\n\
               \x20   let a: int = x % 1;\n\
               \x20   let b: int = a - 0;\n\
               \x20   output_i(b);\n\
               \x20   return 0;\n\
               }\n";
    assert!(check_no_panic_scil(src).is_none());
    let module = ipas_lang::compile(src).expect("repro compiles cleanly");
    assert!(check_engine_diff(&module).is_none());
}

/// roundtrip: SciL constant folding of `0.0 / 0.0` produces x86's
/// *negative* quiet NaN (`0xfff8…`); the printer spelled every NaN as
/// `NaN`, which re-parsed to the positive canonical one — the round
/// trip silently flipped the sign bit of the output stream. Campaign
/// seed 2016, case 211, minimized.
#[test]
fn negative_nan_constants_survive_the_round_trip() {
    let src = "fn main() -> int {\n\
               \x20   let z: float = 0.0;\n\
               \x20   output_f(z / z);\n\
               \x20   return 0;\n\
               }\n";
    let module = ipas_lang::compile(src).expect("repro compiles");
    assert!(check_roundtrip(&module).is_none());

    let mut b = FunctionBuilder::new("main", &[], Type::I64);
    b.call_intrinsic(
        Intrinsic::OutputF64,
        vec![Value::Const(ipas_ir::Constant::F64Bits(
            0xfff8_0000_0000_0000,
        ))],
    );
    b.ret(Some(Value::i64(0)));
    let mut direct = Module::new("neg-nan-repro");
    direct.add_function(b.finish());
    assert!(check_roundtrip(&direct).is_none());
    assert!(check_engine_diff(&direct).is_none());
}

/// duplication + passes: a loopy, array-heavy program exercising the
/// phi-handling paths of both transforms. Guards the oracle pair used
/// by the campaign against regressions in either transform.
#[test]
fn transforms_are_invisible_on_a_loopy_program() {
    let src = "fn main() -> int {\n\
               \x20   let a: [float] = new_float(8);\n\
               \x20   let acc: float = 0.0;\n\
               \x20   for (let i: int = 0; i < 8; i = i + 1) {\n\
               \x20       a[i] = itof(i) * 1.5;\n\
               \x20       acc = acc + a[i];\n\
               \x20   }\n\
               \x20   output_f(acc);\n\
               \x20   output_i(ftoi(acc));\n\
               \x20   free_arr(a);\n\
               \x20   return 0;\n\
               }\n";
    let module = ipas_lang::compile(src).expect("sample compiles");
    assert!(check_duplication(&module).is_none());
    assert!(check_passes(&module).is_none());
    assert!(check_roundtrip(&module).is_none());
}

/// engine-diff, checkpointed mode: golden checkpoints land mid-call and
/// after an early output. A fault that only turns a printed `0.0` into
/// `-0.0` leaves every later state `==`-equal to golden, so a
/// checkpoint compare built on float `==` would short-circuit the run
/// and report golden's `0.0`. State compares are bitwise, so the
/// checkpointed run reports the full run's `-0.0`.
#[test]
fn negative_zero_output_never_reconverges() {
    let src = "fn half(v: float) -> float { return v * 0.5; }\n\
               fn main() -> int {\n\
               \x20   let x: float = itof(mpi_rank()) * 0.0;\n\
               \x20   output_f(x);\n\
               \x20   let acc: float = 1.0;\n\
               \x20   for (let i: int = 0; i < 60; i = i + 1) { acc = acc + half(itof(i)); }\n\
               \x20   output_f(acc);\n\
               \x20   return 0;\n\
               }\n";
    let module = ipas_lang::compile(src).expect("repro compiles");
    for model in FaultModel::ALL {
        assert!(check_engine_diff_model(&module, model).is_none(), "{model}");
    }

    let program = CompiledProgram::compile(&module);
    let mut machine = CompiledMachine::new(&program);
    let golden = machine.run(&RunConfig::default()).unwrap();
    let budgeted = RunConfig {
        max_insts: RunConfig::budget_from_nominal(golden.dynamic_insts),
        ..RunConfig::default()
    };
    let ladder = machine
        .capture_ladder(&budgeted, CHECKPOINT_SPACING)
        .unwrap()
        .expect("golden run completes");
    let bits =
        |o: &RunOutput| -> Vec<u64> { o.outputs.as_floats().iter().map(|f| f.to_bits()).collect() };
    let mut sign_flips = 0;
    for target in 0..golden.eligible_results {
        let config = RunConfig {
            injection: Some(Injection::at_global_index(target, 63)),
            ..budgeted.clone()
        };
        let full = machine.run(&config).unwrap();
        let (resumed, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
        assert_eq!(bits(&resumed), bits(&full), "target {target}");
        if bits(&full) == [(-0.0f64).to_bits(), bits(&golden)[1]] {
            sign_flips += 1;
            assert!(!skipped.reconverged, "target {target} short-circuited");
        }
    }
    assert!(sign_flips > 0, "no fault flips only the zero's sign");
}

/// engine-diff, checkpointed mode (campaign seed 2016, case 161,
/// minimized): a branch flip on the loop exit sends the run into one
/// more iteration, which reaches the next golden checkpoint's
/// instruction count at the top of the loop body while golden is at
/// `ret`. The state compare read the running frame's *stored* `pc` —
/// only refreshed on calls, so here the previous checkpoint's loop-body
/// `pc` — and declared the runs reconverged, cutting off the extra
/// iteration. It now compares the live `pc`.
#[test]
fn loop_exit_branch_flip_is_not_reconverged_by_a_stale_pc() {
    let src = "fn @main() -> i64 {\n\
               bb0:\n\
               \x20 call output_f64(0.0) -> void\n\
               \x20 br bb1\n\
               bb1:\n\
               \x20 %v54 = phi i64 [bb0: 0, bb2: %v22]\n\
               \x20 %v7 = icmp slt %v54, 5\n\
               \x20 condbr %v7, bb2, bb3\n\
               bb2:\n\
               \x20 %v18 = call pow(10000000000.0, 0.0) -> f64\n\
               \x20 call output_f64(%v18) -> void\n\
               \x20 %v22 = add i64 %v54, 1\n\
               \x20 br bb1\n\
               bb3:\n\
               \x20 ret 0\n\
               }\n";
    let module = ipas_ir::parser::parse_module(src).expect("repro parses");
    assert!(check_engine_diff_model(&module, FaultModel::BranchFlip).is_none());

    let program = CompiledProgram::compile(&module);
    let mut machine = CompiledMachine::new(&program);
    let golden = machine.run(&RunConfig::default()).unwrap();
    let budgeted = RunConfig {
        max_insts: RunConfig::budget_from_nominal(golden.dynamic_insts),
        ..RunConfig::default()
    };
    let ladder = machine
        .capture_ladder(&budgeted, CHECKPOINT_SPACING)
        .unwrap()
        .expect("golden run completes");
    let exit_flip = RunConfig {
        injection: Some(Injection::for_model(FaultModel::BranchFlip, 5, 0)),
        ..budgeted
    };
    let full = machine.run(&exit_flip).unwrap();
    let (resumed, skipped) = machine.run_checkpointed(&exit_flip, &ladder).unwrap();
    assert!(
        full.dynamic_insts > golden.dynamic_insts,
        "the flip adds an iteration"
    );
    assert!(!skipped.reconverged);
    assert_eq!(resumed.dynamic_insts, full.dynamic_insts);
    assert_eq!(resumed.outputs.len(), full.outputs.len());
}

/// Bounded smoke campaign: a prefix of the acceptance campaign
/// (`ipas fuzz --runs 500 --seed 2016`) must stay clean. Any finding
/// here is a new bug — minimize it, fix it, and freeze the repro above.
#[test]
fn smoke_campaign_prefix_is_clean() {
    let report = run_fuzz(FuzzConfig {
        runs: 45,
        seed: 2016,
        ..FuzzConfig::default()
    });
    assert_eq!(report.cases, 45);
    assert!(
        report.findings.is_empty(),
        "smoke campaign diverged: {:#?}",
        report
            .findings
            .iter()
            .map(|f| (f.oracle.name(), f.case, &f.divergence, &f.minimized))
            .collect::<Vec<_>>()
    );
}

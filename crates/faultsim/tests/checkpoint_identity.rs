//! Golden-state checkpoint identity.
//!
//! On the compiled engine a campaign starts each injection run at the
//! latest golden checkpoint before its target and stops it once its
//! whole state equals a later golden checkpoint. Both shortcuts must be
//! invisible: records equal the reference engine's (which never uses a
//! ladder), journals are byte-identical, and every resumed run returns
//! the same [`RunOutput`] as a run from the entry point — including
//! hangs, traps, and runs whose output differs from golden, which must
//! never be short-circuited.

use std::fmt::Write as _;
use std::path::PathBuf;

use ipas_faultsim::{
    run_campaign_with, CampaignConfig, CampaignOptions, CampaignResult, CheckpointStats,
    CompiledCampaign, Engine, FaultModel, GoldenToleranceVerifier, Outcome, OutputVerifier,
    SamplingMode, Workload,
};
use ipas_interp::{
    CompiledMachine, CompiledProgram, Injection, Ladder, Machine, RunConfig, RunOutput, RunStatus,
    SiteClass, MAX_CHECKPOINTS, MAX_LADDER_BYTES,
};
use ipas_workloads::Kind;

/// Every observable field of a run, floats as bit patterns.
fn fingerprint(out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "status {:?}", out.status);
    if let RunStatus::Completed(Some(v)) = out.status {
        let _ = writeln!(s, "return bits {:#x}", v.bits());
    }
    let _ = writeln!(
        s,
        "insts {} eligible {} loads {} stores {} branches {}",
        out.dynamic_insts, out.eligible_results, out.loads, out.stores, out.cond_branches
    );
    let _ = writeln!(s, "ints {:?}", out.outputs.as_ints());
    let floats: Vec<u64> = out
        .outputs
        .as_floats()
        .iter()
        .map(|f| f.to_bits())
        .collect();
    let _ = writeln!(s, "floats {floats:x?}");
    let _ = writeln!(s, "console {:?}", out.console);
    let _ = writeln!(
        s,
        "injected {:?} at {:?}",
        out.injected_site, out.injected_at_inst
    );
    let _ = writeln!(s, "profile {}", out.site_profile.is_some());
    s
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ipas-checkpoint-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// One journaled campaign; returns the result and the journal bytes.
fn campaign(
    w: &Workload,
    engine: Engine,
    threads: usize,
    model: FaultModel,
    sampling: SamplingMode,
) -> (CampaignResult, Vec<u8>) {
    seeded_campaign(w, engine, threads, model, sampling, 11)
}

/// [`campaign`] with the seed given, journaled under a path of its own.
fn seeded_campaign(
    w: &Workload,
    engine: Engine,
    threads: usize,
    model: FaultModel,
    sampling: SamplingMode,
    seed: u64,
) -> (CampaignResult, Vec<u8>) {
    let path = scratch_path(&format!(
        "{}-{engine}-{threads}-{model}-{}-{seed}",
        w.name,
        sampling.wire()
    ));
    let _ = std::fs::remove_file(&path);
    let config = CampaignConfig {
        runs: 8,
        seed,
        threads,
        engine,
        fault_model: model,
    };
    let options = CampaignOptions {
        sampling,
        journal: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let result = run_campaign_with(w, &config, &options).expect("campaign completes");
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::remove_file(&path).expect("cleanup");
    (result, bytes)
}

fn sorted_lines(bytes: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    lines.sort_unstable();
    lines
}

/// The five paper workloads (at small inputs) × every fault model ×
/// threads {1, 4} × dynamic and static sampling: checkpointed compiled
/// campaigns reproduce the reference engine's records and journal
/// bytes. Static sampling only exists for value-class models.
#[test]
fn paper_workloads_match_reference_for_every_model_thread_count_and_sampling() {
    let inputs = [
        (Kind::Comd, 2),
        (Kind::Hpccg, 3),
        (Kind::Amg, 4),
        (Kind::Fft, 4),
        (Kind::Is, 64),
    ];
    let mut total = CheckpointStats::default();
    for (kind, input) in inputs {
        let w = kind.build(input).expect("workload builds");
        for model in FaultModel::ALL {
            for sampling in [SamplingMode::DynamicUniform, SamplingMode::StaticUniform] {
                if sampling == SamplingMode::StaticUniform && !model.injects_values() {
                    continue;
                }
                let label = format!("{} {model} {}", w.name, sampling.wire());
                let (reference, reference_journal) =
                    campaign(&w, Engine::Reference, 1, model, sampling);
                assert_eq!(reference.checkpoints, CheckpointStats::default(), "{label}");
                for threads in [1usize, 4] {
                    let (compiled, journal) =
                        campaign(&w, Engine::Compiled, threads, model, sampling);
                    assert_eq!(
                        compiled.records, reference.records,
                        "{label} threads {threads}"
                    );
                    assert_eq!(
                        compiled.harness_failures, reference.harness_failures,
                        "{label} threads {threads}"
                    );
                    if threads == 1 {
                        assert!(
                            journal == reference_journal,
                            "{label}: journal bytes differ"
                        );
                    } else {
                        assert_eq!(
                            sorted_lines(&journal),
                            sorted_lines(&reference_journal),
                            "{label}: journal lines differ"
                        );
                    }
                    if sampling == SamplingMode::StaticUniform {
                        assert_eq!(compiled.checkpoints.snapshots, 0, "{label}: site plans");
                    }
                    total += compiled.checkpoints;
                }
            }
        }
    }
    assert!(total.snapshots > 0, "no ladder was ever captured");
    assert!(
        total.prefix_skipped_insts > 0,
        "no run started from a checkpoint"
    );
    assert!(total.reconverged_runs > 0, "no run ever reconverged");
}

/// A workload keeps its compiled engine from its second ladder campaign
/// on. Three campaigns with different seeds on one workload (the first
/// two capture a ladder, the third reuses the second's) equal the same
/// campaigns on fresh workloads: records, journal bytes and checkpoint
/// counts, at threads {1, 4}.
#[test]
fn repeated_campaigns_on_one_workload_match_fresh_workloads() {
    for (kind, input) in [(Kind::Hpccg, 3), (Kind::Is, 64)] {
        for threads in [1usize, 4] {
            let kept = kind.build(input).expect("workload builds");
            for seed in [21, 22, 23] {
                let label = format!("{} threads {threads} seed {seed}", kept.name);
                let run = |w: &Workload| {
                    seeded_campaign(
                        w,
                        Engine::Compiled,
                        threads,
                        FaultModel::SingleBit,
                        SamplingMode::DynamicUniform,
                        seed,
                    )
                };
                let (reused, journal) = run(&kept);
                let (fresh, fresh_journal) = run(&kind.build(input).expect("workload builds"));
                assert_eq!(reused.records, fresh.records, "{label}");
                assert_eq!(reused.checkpoints, fresh.checkpoints, "{label}");
                assert!(reused.checkpoints.snapshots > 0, "{label}: no ladder");
                if threads == 1 {
                    assert!(journal == fresh_journal, "{label}: journal bytes differ");
                } else {
                    assert_eq!(
                        sorted_lines(&journal),
                        sorted_lines(&fresh_journal),
                        "{label}: journal lines differ"
                    );
                }
            }
        }
    }
}

/// A loop sum scaled by `k`, output at a coarse grain so that small
/// corruptions are masked: programs that differ in `k` alone run the
/// same instructions on the same entry call.
fn scaled_sum(k: i64) -> Workload {
    let src = format!(
        "fn main() -> int {{ let s: int = mpi_rank();
           for (let i: int = 0; i < 300; i = i + 1) {{ s = s + (i + s % 7) * {k}; }}
           output_i(s / 4096); return 0; }}"
    );
    let module = ipas_lang::compile(&src).expect("compiles");
    Workload::serial("scaled", module, GoldenToleranceVerifier::EXACT).expect("golden run")
}

/// A kept engine serves only the module, entry, arguments and nominal
/// length it was built from. A workload that keeps one, then has its
/// public fields reassigned to another program's, runs that program's
/// own campaign, record for record. The two programs differ in one
/// constant, so only the module's digest tells them apart.
#[test]
fn a_workload_reassigned_to_another_program_runs_that_program() {
    let mut w = scaled_sum(3);
    let config = |seed| CampaignConfig {
        runs: 64,
        seed,
        threads: 2,
        ..CampaignConfig::default()
    };
    let run = |w: &Workload, seed| {
        run_campaign_with(w, &config(seed), &CampaignOptions::default()).expect("completes")
    };
    for seed in [31, 32] {
        run(&w, seed);
    }
    let expected = run(&scaled_sum(4), 33);
    // Runs of the wrong program would turn these into SOC.
    assert!(expected.count(Outcome::Masked) > 0);
    let other = scaled_sum(4);
    assert_eq!(
        (&other.entry, &other.args, other.nominal_insts),
        (&w.entry, &w.args, w.nominal_insts)
    );
    assert_ne!(other.golden, w.golden);
    w.module = other.module;
    w.verifier = other.verifier;
    w.eligible_results = other.eligible_results;
    w.loads = other.loads;
    w.stores = other.stores;
    w.cond_branches = other.cond_branches;
    w.golden = other.golden;
    let got = run(&w, 33);
    assert_eq!(got.records, expected.records);
    assert_eq!(got.checkpoints, expected.checkpoints);
}

/// A countdown whose corrupted counter spins into the budget (hangs),
/// with a helper call so checkpoints land mid-call.
const HANG_SRC: &str = r#"
fn step(i: int) -> int { return i - 1; }
fn main() -> int {
    let i: int = 600 + mpi_rank();
    let s: int = 0;
    while (i > 0) { s = s + i % 7; i = step(i); }
    output_i(s);
    output_i(i);
    return 0;
}
"#;

/// Pointer arithmetic over a heap array: corrupted addresses trap.
const PTR_SRC: &str = r#"
fn fill(a: [int], n: int) {
    for (let i: int = 0; i < n; i = i + 1) { a[i] = i * 3; }
}
fn main() -> int {
    let a: [int] = new_int(48);
    fill(a, 48);
    let s: int = 0;
    for (let i: int = 0; i < 48; i = i + 1) { s = s + a[i]; }
    output_i(s);
    free_arr(a);
    return 0;
}
"#;

struct Prepared {
    program: CompiledProgram,
    module: ipas_ir::Module,
    golden: RunOutput,
}

fn prepare(src: &str) -> Prepared {
    let module = ipas_lang::compile(src).unwrap();
    let program = CompiledProgram::compile(&module);
    let golden = CompiledMachine::new(&program)
        .run(&RunConfig::default())
        .unwrap();
    Prepared {
        program,
        module,
        golden,
    }
}

fn plan_config(golden: &RunOutput, plan: Injection) -> RunConfig {
    RunConfig {
        max_insts: RunConfig::budget_from_nominal(golden.dynamic_insts),
        injection: Some(plan),
        ..RunConfig::default()
    }
}

fn class_space(golden: &RunOutput, class: SiteClass) -> u64 {
    match class {
        SiteClass::Value => golden.eligible_results,
        SiteClass::Load => golden.loads,
        SiteClass::Store => golden.stores,
        SiteClass::Branch => golden.cond_branches,
    }
}

/// For targets exactly at, one before, and one after every
/// checkpoint's class count, a run resumed from *every* checkpoint the
/// target has not passed returns the from-scratch run's output field
/// for field — and so does the reference engine. The sweep covers
/// every fault model and must see completions, traps, and hangs.
#[test]
fn resuming_from_every_checkpoint_matches_a_full_run() {
    let mut statuses = [0usize; 3];
    for src in [HANG_SRC, PTR_SRC] {
        let p = prepare(src);
        let mut capture = CompiledMachine::new(&p.program);
        let spacing = p.golden.dynamic_insts / 40;
        let ladder: Ladder = capture
            .capture_ladder(&RunConfig::default(), spacing)
            .unwrap()
            .expect("golden run completes");
        assert!(
            ladder.len() > 8,
            "too few checkpoints: {} over {} instructions",
            ladder.len(),
            p.golden.dynamic_insts
        );
        assert_eq!(fingerprint(ladder.golden()), fingerprint(&p.golden));
        let mut machine = CompiledMachine::new(&p.program);
        for model in FaultModel::ALL {
            let class = model.site_class();
            let space = class_space(&p.golden, class);
            if space == 0 {
                continue;
            }
            for k in 0..ladder.len() {
                let count = ladder.class_count(k, class);
                for target in [count.saturating_sub(1), count, count + 1] {
                    if target >= space {
                        continue;
                    }
                    for bit in [1u32, 62] {
                        let bit = bit % model.bit_domain();
                        let config =
                            plan_config(&p.golden, Injection::for_model(model, target, bit));
                        let full = machine.run(&config).unwrap();
                        let want = fingerprint(&full);
                        let reference = Machine::new(&p.module).run(&config).unwrap();
                        assert_eq!(fingerprint(&reference), want, "{model} t{target} b{bit}");
                        let valid = ladder.start_for(&config).map_or(0, |latest| latest + 1);
                        for start in std::iter::once(None).chain((0..valid).map(Some)) {
                            let (out, skipped) = machine.run_from(&config, &ladder, start).unwrap();
                            assert_eq!(
                                fingerprint(&out),
                                want,
                                "{model} target {target} bit {bit} from {start:?}"
                            );
                            assert_eq!(
                                skipped.prefix,
                                start.map_or(0, |s| ladder.position(s)),
                                "prefix accounting"
                            );
                        }
                        statuses[match full.status {
                            RunStatus::Completed(_) => 0,
                            RunStatus::Trapped(_) | RunStatus::Detected => 1,
                            RunStatus::Hang => 2,
                        }] += 1;
                    }
                }
            }
            // A start past the target is refused, never silently run.
            let last = ladder.len() - 1;
            let past = ladder.class_count(last, class);
            if past > 0 {
                let config = plan_config(&p.golden, Injection::for_model(model, past - 1, 0));
                if ladder.start_for(&config) != Some(last) {
                    assert!(machine.run_from(&config, &ladder, Some(last)).is_err());
                }
            }
        }
    }
    assert!(
        statuses.iter().all(|&n| n > 0),
        "completed/trapped/hung: {statuses:?}"
    );
}

/// An early output followed by a long golden tail: a fault in the
/// printed value leaves every later state equal to golden *except* the
/// output stream. Such a run must never be short-circuited, and across
/// a whole sweep a reconverged run is always one whose output equals
/// golden while every differing output ran to the end.
#[test]
fn runs_whose_output_differs_never_reconverge() {
    // The loop's threshold test masks low-bit faults in `i * 7`: the
    // compare keeps its outcome and the next iteration overwrites the
    // corrupted temporary, so those runs reconverge.
    const SRC: &str = r#"
fn main() -> int {
    let x: float = itof(mpi_rank()) * 0.0 + 3.5;
    output_f(x * 0.0);
    output_f(x);
    let lim: int = 100000 + mpi_rank();
    let s: int = 0;
    let big: int = 0;
    for (let i: int = 0; i < 400; i = i + 1) {
        if (i * 7 > lim) { big = big + 1; }
        s = s + i * i;
    }
    output_i(s);
    output_i(big);
    return 0;
}
"#;
    let p = prepare(SRC);
    let ladder = CompiledMachine::new(&p.program)
        .capture_ladder(&RunConfig::default(), 13)
        .unwrap()
        .expect("golden run completes");
    let verifier = GoldenToleranceVerifier::new(&p.golden.outputs, GoldenToleranceVerifier::EXACT);
    let mut machine = CompiledMachine::new(&p.program);
    let (mut reconverged, mut differing) = (0, 0);
    for target in 0..p.golden.eligible_results {
        for bit in [0u32, 31, 52, 63] {
            let config = plan_config(&p.golden, Injection::at_global_index(target, bit));
            let full = machine.run(&config).unwrap();
            let (out, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
            assert_eq!(fingerprint(&out), fingerprint(&full), "t{target} b{bit}");
            let golden_bits = fingerprint(&RunOutput {
                injected_site: full.injected_site,
                injected_at_inst: full.injected_at_inst,
                ..p.golden.clone()
            });
            if fingerprint(&full) != golden_bits {
                differing += 1;
                assert!(
                    !skipped.reconverged,
                    "differing run t{target} b{bit} reconverged"
                );
                assert_eq!(skipped.suffix, 0);
            }
            if skipped.reconverged {
                reconverged += 1;
                assert!(verifier.verify(&out));
            }
        }
    }
    assert!(
        differing > 0 && reconverged > 0,
        "{differing} differing, {reconverged} reconverged"
    );

    // The sign of a zero output is the corruption: `-0.0 == 0.0`, so only
    // a bitwise compare keeps this run from reconverging.
    let sign_flip = (0..p.golden.eligible_results)
        .map(|t| plan_config(&p.golden, Injection::at_global_index(t, 63)))
        .find(|c| {
            let floats = machine.run(c).unwrap().outputs.as_floats();
            floats[0].to_bits() == (-0.0f64).to_bits() && floats[1] == 3.5
        })
        .expect("some fault flips only the zero's sign");
    let (out, skipped) = machine.run_checkpointed(&sign_flip, &ladder).unwrap();
    assert!(!skipped.reconverged);
    assert_eq!(out.outputs.as_floats()[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(
        ipas_faultsim::classify(&out, &verifier),
        Outcome::Masked,
        "the tolerance verifier accepts -0.0; the record is still the full run's"
    );
}

/// A one-instruction spacing thins by halving down to the checkpoint
/// cap; a state larger than the byte cap keeps no checkpoint at all,
/// and its runs still match full runs.
#[test]
fn ladder_stays_within_its_limits() {
    let p = prepare(HANG_SRC);
    let ladder = CompiledMachine::new(&p.program)
        .capture_ladder(&RunConfig::default(), 1)
        .unwrap()
        .expect("golden run completes");
    assert!((MAX_CHECKPOINTS / 2..=MAX_CHECKPOINTS).contains(&ladder.len()));
    assert!(ladder.bytes() <= MAX_LADDER_BYTES);
    assert!((1..ladder.len()).all(|k| ladder.position(k - 1) < ladder.position(k)));

    // An array one cell larger than the cap: its image alone is over
    // the cap.
    let big_src = format!(
        r#"
fn main() -> int {{
    let n: int = {} + mpi_rank();
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) {{ a[i] = itof(i) * 0.5; }}
    output_f(a[7] + a[n - 1]);
    free_arr(a);
    return 0;
}}
"#,
        MAX_LADDER_BYTES / 8 + 1
    );
    let p = prepare(&big_src);
    let ladder = CompiledMachine::new(&p.program)
        .capture_ladder(&RunConfig::default(), p.golden.dynamic_insts / 16)
        .unwrap()
        .expect("golden run completes");
    assert!(ladder.is_empty());
    let mut machine = CompiledMachine::new(&p.program);
    let config = plan_config(&p.golden, Injection::at_global_index(1000, 40));
    let (out, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
    assert_eq!(skipped, Default::default());
    assert_eq!(
        fingerprint(&out),
        fingerprint(&machine.run(&config).unwrap())
    );
}

/// At ladder input 3 (the `campaign_ladder` benchmark's inputs) every
/// kernel keeps a checkpoint at each of the 63 multiples of its
/// campaign spacing below the nominal length, within the byte cap:
/// consecutive snapshots share their unchanged memory chunks.
#[test]
fn every_kernel_keeps_its_whole_ladder_at_ladder_input_3() {
    for kind in Kind::ALL {
        let w = kind.build(kind.input_ladder()[2]).expect("workload builds");
        let compiled = CompiledCampaign::prepare(
            &w,
            Engine::Compiled,
            &CampaignOptions::default(),
            [Injection::at_global_index(0, 0)],
        )
        .expect("compiled engine");
        let ladder = compiled.ladder().expect("golden run completes");
        eprintln!(
            "{} {}: {} snapshots, {} bytes",
            w.name,
            kind.input_ladder()[2],
            ladder.len(),
            ladder.bytes()
        );
        assert_eq!(ladder.len(), MAX_CHECKPOINTS - 1, "{}", w.name);
        assert!(ladder.bytes() <= MAX_LADDER_BYTES, "{}", w.name);
    }
}

/// A ladder over memory that never changes after its allocation holds
/// the image once: every later snapshot shares all its chunks, so it
/// adds its chunk pointers and machine state, far less than a copy.
#[test]
fn unchanged_memory_is_counted_once() {
    const CELLS: usize = 1 << 15;
    let src = format!(
        r#"
fn main() -> int {{
    let n: int = {CELLS} + mpi_rank();
    let a: [float] = new_float(n);
    let s: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) {{ s = s + a[i]; }}
    output_f(s);
    free_arr(a);
    return 0;
}}
"#
    );
    let p = prepare(&src);
    let spacing = p.golden.dynamic_insts.div_ceil(MAX_CHECKPOINTS as u64);
    let ladder = CompiledMachine::new(&p.program)
        .capture_ladder(&RunConfig::default(), spacing)
        .unwrap()
        .expect("golden run completes");
    let image = CELLS * 8;
    assert_eq!(ladder.len(), MAX_CHECKPOINTS - 1);
    assert!(
        ladder.len() * image > MAX_LADDER_BYTES,
        "unshared copies would not fit the cap"
    );
    assert!(ladder.bytes() > image, "{} bytes", ladder.bytes());
    assert!(
        ladder.bytes() < image + ladder.len() * image / 8,
        "{} bytes for {} snapshots of a {image}-byte image",
        ladder.bytes(),
        ladder.len()
    );
    // Resuming from the shared snapshots still reproduces full runs.
    let mut machine = CompiledMachine::new(&p.program);
    for target in [p.golden.eligible_results / 2, p.golden.eligible_results - 2] {
        let config = plan_config(&p.golden, Injection::at_global_index(target, 52));
        let (out, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
        assert!(skipped.prefix > 0);
        assert_eq!(
            fingerprint(&out),
            fingerprint(&machine.run(&config).unwrap())
        );
    }
}

/// Wall-clock-guarded and site-restricted runs bypass the ladder: they
/// run from the entry point and never reconverge.
#[test]
fn deadline_and_site_runs_bypass_the_ladder() {
    let p = prepare(HANG_SRC);
    let ladder = CompiledMachine::new(&p.program)
        .capture_ladder(&RunConfig::default(), 50)
        .unwrap()
        .expect("golden run completes");
    let mut machine = CompiledMachine::new(&p.program);
    let target = p.golden.eligible_results / 2;
    let plain = plan_config(&p.golden, Injection::at_global_index(target, 3));
    assert!(ladder.serves(&plain));
    let (_, skipped) = machine.run_checkpointed(&plain, &ladder).unwrap();
    assert!(skipped.prefix > 0);
    let guarded = RunConfig {
        wall_limit: Some(std::time::Duration::from_secs(3600)),
        ..plain.clone()
    };
    let site = {
        let out = machine.run(&plain).unwrap();
        plan_config(
            &p.golden,
            Injection::at_site(out.injected_site.unwrap(), 5, 3),
        )
    };
    for config in [guarded, site] {
        assert!(!ladder.serves(&config));
        assert_eq!(ladder.start_for(&config), None);
        let (out, skipped) = machine.run_checkpointed(&config, &ladder).unwrap();
        assert_eq!(skipped, Default::default());
        assert_eq!(
            fingerprint(&out),
            fingerprint(&machine.run(&config).unwrap())
        );
    }
}

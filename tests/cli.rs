//! End-to-end tests of the `ipas` CLI binary, driven as a user would.

use std::io::Write as _;
use std::process::Command;

fn ipas() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ipas"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ipas-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const KERNEL: &str = r#"
fn main() -> int {
    let n: int = 12;
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) { a[i] = itof(i) * 0.5; }
    let s: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) { s = s + a[i] * a[i]; }
    output_f(s);
    free_arr(a);
    return 0;
}
"#;

#[test]
fn run_prints_outputs() {
    let path = write_temp("run.scil", KERNEL);
    let out = ipas().arg("run").arg(&path).output().expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // sum of (i/2)^2 for i < 12 = 126.5
    assert_eq!(stdout.trim(), "126.5");
}

#[test]
fn ir_emits_parseable_module() {
    let path = write_temp("ir.scil", KERNEL);
    let out = ipas().arg("ir").arg(&path).output().expect("spawns");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let module = ipas::ir::parser::parse_module(&text).expect("CLI IR parses back");
    ipas::ir::verify::verify_module(&module).expect("CLI IR verifies");
}

#[test]
fn inject_reports_site_and_status() {
    let path = write_temp("inject.scil", KERNEL);
    let out = ipas()
        .args(["inject"])
        .arg(&path)
        .args(["--target", "3", "--bit", "55"])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected bit 55"), "{stderr}");
    assert!(stderr.contains("status"), "{stderr}");
}

#[test]
fn protect_writes_checked_ir_and_reports_reduction() {
    let path = write_temp("protect.scil", KERNEL);
    let out_path = std::env::temp_dir().join("ipas-cli-tests/protect.out.ir");
    let out = ipas()
        .arg("protect")
        .arg(&path)
        .args(["--runs", "120", "--eval", "48", "--policy", "full"])
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("duplicated"), "{stderr}");
    assert!(stderr.contains("slowdown"), "{stderr}");
    let ir = std::fs::read_to_string(&out_path).expect("protected IR written");
    assert!(ir.contains("__ipas_check"), "protection inserted checks");
    let module = ipas::ir::parser::parse_module(&ir).expect("parses");
    ipas::ir::verify::verify_module(&module).expect("verifies");
}

#[test]
fn missing_file_fails_with_message() {
    let out = ipas()
        .args(["run", "/nonexistent.scil"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn syntax_error_reports_position() {
    let path = write_temp("bad.scil", "fn main() -> int {\n  return @;\n}\n");
    let out = ipas().arg("run").arg(&path).output().expect("spawns");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2:10"), "{stderr}");
}

#[test]
fn unknown_subcommand_prints_usage() {
    let out = ipas()
        .args(["frobnicate", "x.scil"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_policy_fails() {
    let path = write_temp("policy.scil", KERNEL);
    let out = ipas()
        .arg("protect")
        .arg(&path)
        .args(["--policy", "wat"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn unknown_flags_and_unparseable_values_fail_by_name() {
    let path = write_temp("flags.scil", KERNEL);
    let store = fresh_dir("flags-store");
    for (args, flag) in [
        (&["--incremental"][..], "`--incremental`"),
        (&["--run", "50"][..], "`--run`"),
        (&["--runs", "abc"][..], "`--runs`"),
        // A flag of another subcommand (`protect --top`).
        (&["--runs", "40", "--top", "9"][..], "`--top`"),
    ] {
        let out = ipas()
            .arg("campaign")
            .arg(&path)
            .args(args)
            .env("IPAS_STORE_DIR", &store)
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran: {stderr}");
        assert!(stderr.contains(flag), "{args:?} names no {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a breakdown");
    }
}

#[test]
fn explain_lists_duplicable_instructions_with_decisions() {
    let path = write_temp("explain.scil", KERNEL);
    let out = ipas()
        .arg("explain")
        .arg(&path)
        .args(["--runs", "120"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("protect?"), "{stdout}");
    // At least one instruction is selected and at least one is skipped.
    assert!(stdout.contains("yes"), "{stdout}");
    let lines: Vec<&str> = stdout.lines().skip(1).collect();
    assert!(!lines.is_empty());
}

/// The CI warm-cache kernel: every outcome class under injection.
const CACHE_KERNEL: &str = r#"
fn main() -> int {
    let n: int = 24;
    let a: [float] = new_float(n);
    for (let i: int = 0; i < n; i = i + 1) { a[i] = itof(i) * 0.5 + 1.0; }
    let acc: float = 0.0;
    for (let i: int = 0; i < n; i = i + 1) { acc = acc + a[i] * a[i]; }
    output_f(acc);
    free_arr(a);
    return 0;
}
"#;

/// A fresh, empty directory for one test.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("ipas-cli-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `cmd`, asserts success, and returns its stderr.
fn succeed(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    stderr
}

/// The `SOC a% -> b%` report line of a `protect` run.
fn soc_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("[ipas] SOC "))
        .unwrap_or_else(|| panic!("no SOC line in {stderr}"))
}

/// `ipas protect` on `path` at 96 training and 48 evaluation runs, with
/// no store or journal directory unless the caller sets one.
fn protect(path: &std::path::Path, out: &std::path::Path) -> Command {
    let mut cmd = ipas();
    cmd.arg("protect")
        .arg(path)
        .args(["--runs", "96", "--eval", "48"])
        .arg("--out")
        .arg(out)
        .env_remove("IPAS_STORE_DIR")
        .env_remove("IPAS_JOURNAL_DIR");
    cmd
}

/// Every file under `dir` with its line count, sorted by path.
fn journal_lines(dir: &std::path::Path) -> Vec<(std::path::PathBuf, usize)> {
    fn walk(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, usize)>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                let text = std::fs::read_to_string(&path).expect("journal reads");
                out.push((path, text.lines().count()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

#[test]
fn warm_protect_hits_every_stage_and_writes_the_same_ir() {
    let dir = fresh_dir("warm");
    let path = write_temp("warm.scil", CACHE_KERNEL);
    let store = dir.join("store");
    let cold = succeed(protect(&path, &dir.join("cold.ir")).env("IPAS_STORE_DIR", &store));
    let warm = succeed(protect(&path, &dir.join("warm.ir")).env("IPAS_STORE_DIR", &store));
    for stage in ["campaign", "training", "duplication"] {
        assert!(cold.contains(&format!("{stage} stage miss")), "{cold}");
        assert!(warm.contains(&format!("{stage} stage hit")), "{warm}");
    }
    // The unprotected and the IPAS evaluation campaigns.
    assert_eq!(warm.matches("eval stage hit").count(), 2, "{warm}");
    assert!(!warm.contains("miss"), "{warm}");
    assert_eq!(soc_line(&cold), soc_line(&warm));
    assert_eq!(
        std::fs::read(dir.join("cold.ir")).unwrap(),
        std::fs::read(dir.join("warm.ir")).unwrap()
    );
}

#[test]
fn store_and_storeless_protect_report_the_same_soc() {
    let dir = fresh_dir("storeless");
    let path = write_temp("storeless.scil", CACHE_KERNEL);
    let stored = succeed(protect(&path, &dir.join("a.ir")).env("IPAS_STORE_DIR", dir.join("s")));
    let storeless = succeed(&mut protect(&path, &dir.join("b.ir")));
    assert_eq!(soc_line(&stored), soc_line(&storeless));
}

#[test]
fn saved_model_protects_without_training() {
    let dir = fresh_dir("saved-model");
    let path = write_temp("saved-model.scil", CACHE_KERNEL);
    let store = dir.join("store");
    let trained = succeed(
        ipas()
            .arg("train")
            .arg(&path)
            .args(["--runs", "96", "--save-model", "m"])
            .env("IPAS_STORE_DIR", &store)
            .env_remove("IPAS_JOURNAL_DIR"),
    );
    assert!(trained.contains("model saved as `m`"), "{trained}");
    let protected = succeed(
        protect(&path, &dir.join("m.ir"))
            .args(["--model", "m"])
            .env("IPAS_STORE_DIR", &store),
    );
    assert!(protected.contains("using model `m`"), "{protected}");
    for line in ["training campaign", "campaign stage", "training stage"] {
        assert!(!protected.contains(line), "{protected}");
    }
}

#[test]
fn store_keys_carry_the_run_identity() {
    let dir = fresh_dir("identity-store");
    let path = write_temp("identity-store.scil", CACHE_KERNEL);
    let store = dir.join("store");
    succeed(protect(&path, &dir.join("a.ir")).env("IPAS_STORE_DIR", &store));
    // Another tolerance is another verifier: nothing from the filled
    // store may answer for it.
    let loose = succeed(
        protect(&path, &dir.join("b.ir"))
            .args(["--tolerance", "1e30"])
            .env("IPAS_STORE_DIR", &store),
    );
    assert!(loose.contains("campaign stage miss"), "{loose}");
    assert!(!loose.contains("hit"), "{loose}");
    let fresh = succeed(protect(&path, &dir.join("c.ir")).args(["--tolerance", "1e30"]));
    assert_eq!(soc_line(&loose), soc_line(&fresh));
}

#[test]
fn journal_resume_checks_the_run_identity() {
    let dir = fresh_dir("identity-journal");
    let path = write_temp("identity-journal.scil", CACHE_KERNEL);
    let journal = dir.join("j.jsonl");
    let campaign = |extra: &[&str]| {
        let mut cmd = ipas();
        cmd.arg("campaign")
            .arg(&path)
            .args(["--runs", "64", "--seed", "5"])
            .args(extra)
            .arg("--journal")
            .arg(&journal)
            .env_remove("IPAS_STORE_DIR");
        cmd.output().expect("spawns")
    };
    assert!(campaign(&[]).status.success());
    let out = campaign(&["--tolerance", "1e30"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("different campaign: run identity"),
        "{stderr}"
    );
}

#[test]
fn journal_resume_checks_the_module() {
    // Two programs that differ only in a constant: same dynamic
    // instruction count, same value sites, same run identity.
    let dir = fresh_dir("module-journal");
    let source = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 200; i = i + 1) { s = s + i * i; }
        output_i(s % 1000003);
        return 0;
    }";
    let journal = dir.join("j.jsonl");
    let campaign = |name: &str, text: &str, journal: Option<&std::path::Path>| {
        let mut cmd = ipas();
        cmd.arg("campaign")
            .arg(write_temp(name, text))
            .args(["--runs", "64", "--seed", "5"])
            .env_remove("IPAS_STORE_DIR");
        if let Some(journal) = journal {
            cmd.arg("--journal").arg(journal);
        }
        cmd.output().expect("spawns")
    };
    let soc = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with("SOC "))
            .unwrap_or_else(|| panic!("no SOC line in {stdout}"))
            .to_string()
    };
    let first = campaign("module-a.scil", source, Some(&journal));
    assert!(first.status.success());
    let edited = source.replace("1000003", "2");
    let out = campaign("module-b.scil", &edited, Some(&journal));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "resumed another program's records");
    assert!(stderr.contains("different campaign: module"), "{stderr}");
    // The edited program's own campaign differs from the first one's,
    // so resuming would have reported a wrong SOC rate.
    let fresh = campaign("module-b.scil", &edited, None);
    assert!(fresh.status.success());
    assert_ne!(soc(&fresh), soc(&first));
}

#[test]
fn journal_dir_is_created_and_holds_every_protect_campaign() {
    let dir = fresh_dir("journal-created");
    let path = write_temp("journal-created.scil", CACHE_KERNEL);
    let journals = dir.join("missing").join("nested");
    succeed(protect(&path, &dir.join("a.ir")).env("IPAS_JOURNAL_DIR", &journals));
    let names: Vec<String> = journal_lines(&journals)
        .iter()
        .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [
            "cli-ipas-seed57409.jsonl",
            "cli-training-seed2016.jsonl",
            "cli-unprotected-seed57409.jsonl"
        ]
    );
}

#[test]
fn programs_sharing_a_journal_dir_do_not_collide() {
    let dir = fresh_dir("journal-programs");
    let source = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 40; i = i + 1) { s = s + i * i; }
        output_i(s % 1000003);
        return 0;
    }";
    let journals = dir.join("journals");
    for (name, text) in [
        ("wide.scil", source.to_string()),
        ("narrow.scil", source.replace("1000003", "1")),
    ] {
        let path = write_temp(name, &text);
        succeed(
            protect(&path, &dir.join(format!("{name}.ir")))
                .args(["--policy", "full"])
                .env("IPAS_JOURNAL_DIR", &journals),
        );
    }
    // One subdirectory per program.
    assert_eq!(std::fs::read_dir(&journals).unwrap().count(), 2);
}

#[test]
fn storeless_rerun_resumes_from_its_journals() {
    let dir = fresh_dir("journal-resume");
    let path = write_temp("journal-resume.scil", CACHE_KERNEL);
    let journals = dir.join("journals");
    let first = succeed(protect(&path, &dir.join("a.ir")).env("IPAS_JOURNAL_DIR", &journals));
    let before = journal_lines(&journals);
    assert_eq!(before.len(), 3);
    let second = succeed(protect(&path, &dir.join("b.ir")).env("IPAS_JOURNAL_DIR", &journals));
    assert_eq!(soc_line(&first), soc_line(&second));
    assert_eq!(journal_lines(&journals), before, "no journal gained lines");
}

#[test]
fn store_protect_resumes_the_storeless_journals() {
    let dir = fresh_dir("journal-store-mix");
    let path = write_temp("journal-store-mix.scil", CACHE_KERNEL);
    let journals = dir.join("journals");
    let storeless = succeed(protect(&path, &dir.join("a.ir")).env("IPAS_JOURNAL_DIR", &journals));
    let before = journal_lines(&journals);
    // With a store, the protected module is the one parsed back from its
    // stored IR, values numbered afresh; it is still the same program.
    let stored = succeed(
        protect(&path, &dir.join("b.ir"))
            .env("IPAS_JOURNAL_DIR", &journals)
            .env("IPAS_STORE_DIR", dir.join("store")),
    );
    assert_eq!(soc_line(&storeless), soc_line(&stored));
    assert_eq!(journal_lines(&journals), before, "no journal gained lines");
}

//! Campaign journaling: crash-safe checkpoint/resume for injection
//! campaigns.
//!
//! A [`CampaignJournal`] is a JSONL file. The first line is a header
//! that pins the campaign's identity (workload, seed, run count,
//! sampling mode, and the workload fingerprint); every subsequent line
//! is one completed plan index — either an [`InjectionRecord`] or a
//! [`HarnessFailure`]. Each append is one write + flush of whole lines,
//! so a killed campaign loses at most the batch being written; a torn
//! final line is detected, ignored, and cut off on resume.
//!
//! The format is deliberately flat (string and integer fields only, the
//! workspace's [`ipas_ir::json`] codec) so it can be written and parsed
//! without a serialization dependency, and inspected with standard line
//! tools.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ipas_ir::json::{Fields, LineBuilder};
use ipas_ir::{FuncId, InstId, Module};

use crate::{FaultModel, HarnessFailure, InjectionRecord, Outcome, PlanOutcome, SamplingMode};

/// Journal format version, bumped on incompatible line-format changes.
/// Version 2 added the fault model to the header and a per-record
/// schema version (`v`) plus fault model; version-1 journals are
/// rejected with a typed mismatch rather than silently merged.
/// Version 3 lets records carry an optional tag (`sec`: the round id of
/// an adaptive campaign) for inspection; resume ignores it. Version-2 journals (headers and
/// records) are still accepted on resume because every v2 line parses
/// identically under v3 — the tag is simply absent.
const FORMAT_VERSION: u64 = 3;

/// The newest *previous* format this version can still resume from.
const COMPAT_VERSION: u64 = 2;

/// Why a journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure on the journal file.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The journal on disk belongs to a different campaign: resuming it
    /// would silently mix records from incompatible runs.
    Mismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// Value recorded in the journal.
        journal: String,
        /// Value of the campaign being started.
        campaign: String,
    },
    /// A non-final line could not be parsed (final-line corruption is
    /// expected after a crash and tolerated).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal I/O error at {}: {error}", path.display())
            }
            JournalError::Mismatch {
                field,
                journal,
                campaign,
            } => write!(
                f,
                "journal belongs to a different campaign: {field} is {journal} \
                 in the journal but {campaign} in this campaign"
            ),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal line {line} is corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The campaign identity pinned by a journal's header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Workload display name.
    pub workload: String,
    /// Entry function name.
    pub entry: String,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Total planned runs.
    pub runs: usize,
    /// Site sampling mode.
    pub sampling: SamplingMode,
    /// The fault model every plan of the campaign applies. Journals
    /// never mix models: a resume under a different model is a typed
    /// mismatch.
    pub fault_model: FaultModel,
    /// Eligible dynamic results of the clean run (workload fingerprint:
    /// a changed module draws different plans for the same seed).
    pub eligible_results: u64,
    /// Dynamic instruction count of the clean run (fingerprint).
    pub nominal_insts: u64,
    /// The workload's [`crate::Workload::run_identity`]: entry
    /// arguments and verifier. A resume under a different identity is a
    /// typed mismatch; a header written before the field existed
    /// resumes without the check.
    pub identity: String,
    /// The campaign module's [`module_digest`]. Two programs can agree
    /// on every field above, clean-run sizes included, and still
    /// classify faults differently; a resume under a different module is
    /// a typed mismatch. A header written before the field existed
    /// resumes without the check.
    pub module: String,
    /// Plans per adaptive round, when the campaign draws its plans in
    /// margin-weighted rounds. `None` for classic campaigns — the field
    /// is omitted from the header line, so pre-adaptive journals are
    /// byte-identical and still resume. Record `sec` tags then carry
    /// the round index.
    pub round_runs: Option<usize>,
}

/// A journal header's `module` field: the SHA-256, as 64 lowercase hex
/// digits, of `module`'s text after one parse round trip
/// ([`Module::canonical_digest`], memoized with the module's text). A
/// pass's output and the same module read back from its printed IR
/// (what a store hit returns) print differently but share this digest.
pub fn module_digest(module: &Module) -> String {
    module.canonical_digest().to_string()
}

/// Outcomes recovered from an existing journal, keyed by plan index.
/// Record tags are not read back: a plan's index alone identifies it.
pub type ResumeState = HashMap<usize, PlanOutcome>;

/// An append-only campaign checkpoint file (see module docs).
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl CampaignJournal {
    /// Opens (or creates) the journal at `path` for the campaign
    /// described by `header`, returning the journal and any entries
    /// recovered from a previous, interrupted invocation. A torn final
    /// line is cut off the file, so the next append starts on a line of
    /// its own.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] when an existing journal was written
    /// by a different campaign; [`JournalError::Corrupt`] when a
    /// non-final line cannot be parsed; [`JournalError::Io`] on file
    /// errors.
    pub fn open(
        path: &Path,
        header: &JournalHeader,
    ) -> Result<(CampaignJournal, ResumeState), JournalError> {
        let io_err = |error| JournalError::Io {
            path: path.to_path_buf(),
            error,
        };
        let mut text = String::new();
        if path.exists() {
            File::open(path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(io_err)?;
        }
        let (resume, kept) = parse_journal(&text, header)?;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        if kept < text.len() {
            file.set_len(kept as u64).map_err(io_err)?;
        }
        if kept == 0 {
            file.write_all(encode_header(header).as_bytes())
                .and_then(|()| file.flush())
                .map_err(io_err)?;
        }
        Ok((
            CampaignJournal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            resume,
        ))
    }

    /// Appends a batch of completed plans, each line tagged with its
    /// plan's tag (see [`outcome_line`]), in one write + flush. The
    /// buffer is written sequentially, so a crash mid-append can only
    /// tear the *final* line on disk — the torn-tail shape resume
    /// tolerates; every complete line before the tear is recovered. An
    /// empty batch writes nothing.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the append fails; the campaign should
    /// stop rather than continue without its checkpoint.
    pub fn append<'a>(
        &self,
        outcomes: impl IntoIterator<Item = (usize, &'a PlanOutcome, Option<u32>)>,
    ) -> Result<(), JournalError> {
        let buf: String = outcomes
            .into_iter()
            .map(|(plan, outcome, tag)| outcome_line(plan, outcome, tag))
            .collect();
        if buf.is_empty() {
            return Ok(());
        }
        // Recover the file from a poisoned lock: the holder only ever
        // writes complete lines or fails, and a torn tail is tolerated
        // on resume anyway.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(buf.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|error| JournalError::Io {
                path: self.path.clone(),
                error,
            })
    }
}

fn encode_header(h: &JournalHeader) -> String {
    let mut b = LineBuilder::new("header")
        .num("version", FORMAT_VERSION)
        .str("workload", &h.workload)
        .str("entry", &h.entry)
        .num("seed", h.seed)
        .num("runs", h.runs as u64)
        .str("sampling", h.sampling.wire())
        .str("model", &h.fault_model.to_string())
        .num("eligible", h.eligible_results)
        .num("nominal", h.nominal_insts)
        .str("identity", &h.identity)
        .str("module", &h.module);
    // Added like the record `sec` tag: only present on adaptive
    // campaigns, so classic journals stay byte-identical.
    if let Some(rounds) = h.round_runs {
        b = b.num("rounds", rounds as u64);
    }
    b.finish()
}

/// Encodes one completed plan as its journal line (newline-terminated),
/// tagging a record with `tag` — its round id — when set.
/// Harness failures are never tagged: their plan index already
/// identifies them.
///
/// This is the journal wire format: the serving layer streams these
/// exact lines to watching clients, so a journal on disk and a watched
/// event stream are byte-interchangeable.
pub fn outcome_line(plan: usize, outcome: &PlanOutcome, tag: Option<u32>) -> String {
    match outcome {
        PlanOutcome::Record(r) => {
            let mut b = LineBuilder::new("record")
                .num("v", FORMAT_VERSION)
                .num("plan", plan as u64)
                .str("model", &r.model.to_string())
                .num("func", r.site.0.index() as u64)
                .num("inst", r.site.1.index() as u64)
                .num("target", r.target)
                .num("bit", r.bit as u64)
                .str("outcome", r.outcome.wire())
                .num("insts", r.dynamic_insts)
                .num("latency", r.latency)
                .num("attempts", r.attempts as u64);
            if let Some(sec) = tag {
                b = b.num("sec", sec as u64);
            }
            b.finish()
        }
        PlanOutcome::Failure(f) => LineBuilder::new("harness_error")
            .num("plan", f.plan_index as u64)
            .num("target", f.target)
            .num("bit", f.bit as u64)
            .num("attempts", f.attempts as u64)
            .str("error", &f.error)
            .finish(),
    }
}

/// Parses a journal's text, returning the recovered outcomes and the
/// byte length of the lines accepted. The rest — a final line torn by a
/// crash mid-append, which lacks its newline or does not parse — is
/// what [`CampaignJournal::open`] cuts off.
fn parse_journal(text: &str, expect: &JournalHeader) -> Result<(ResumeState, usize), JournalError> {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut resume = ResumeState::new();
    let mut kept = 0;
    // A torn write can only affect the final line (appends are
    // sequential); anything unparsable before that is real corruption.
    let last = lines.len();
    for (i, line) in lines.iter().enumerate() {
        let line_no = i + 1;
        let is_last = line_no == last;
        let corrupt = |reason: String| JournalError::Corrupt {
            line: line_no,
            reason,
        };
        let Some(fields) = line.strip_suffix('\n').and_then(Fields::parse) else {
            if is_last {
                break; // torn tail from a crash mid-append
            }
            return Err(corrupt("not a flat JSON object".into()));
        };
        let kind = fields.kind();
        if i == 0 {
            if kind != "header" {
                return Err(corrupt(format!(
                    "expected header line, found kind `{kind}`"
                )));
            }
            check_header(&fields, expect)?;
            kept += line.len();
            continue;
        }
        let in_range = |plan: usize| {
            if plan < expect.runs {
                Ok(plan)
            } else {
                Err(corrupt(format!(
                    "plan index {plan} out of range for {} runs",
                    expect.runs
                )))
            }
        };
        match kind {
            "record" => {
                let missing = || corrupt("record line missing a field".into());
                // Records carry their own schema version and fault
                // model: a record written under a different schema or
                // model must never merge into this campaign's resume
                // set, even if the header happens to agree.
                let v = fields.num("v").unwrap_or(0);
                if v != FORMAT_VERSION && v != COMPAT_VERSION {
                    return Err(JournalError::Mismatch {
                        field: "record schema version",
                        journal: v.to_string(),
                        campaign: FORMAT_VERSION.to_string(),
                    });
                }
                let model: FaultModel = fields
                    .str("model")
                    .unwrap_or("")
                    .parse()
                    .map_err(|e: String| corrupt(e))?;
                if model != expect.fault_model {
                    return Err(JournalError::Mismatch {
                        field: "record fault model",
                        journal: model.to_string(),
                        campaign: expect.fault_model.to_string(),
                    });
                }
                let plan = in_range(fields.num("plan").ok_or_else(missing)? as usize)?;
                let outcome = fields
                    .str("outcome")
                    .and_then(Outcome::from_wire)
                    .ok_or_else(|| corrupt("unknown outcome".into()))?;
                let record = InjectionRecord {
                    model,
                    site: (
                        FuncId::new(fields.num("func").ok_or_else(missing)? as usize),
                        InstId::new(fields.num("inst").ok_or_else(missing)? as usize),
                    ),
                    target: fields.num("target").ok_or_else(missing)?,
                    bit: fields.num("bit").ok_or_else(missing)? as u32,
                    outcome,
                    dynamic_insts: fields.num("insts").ok_or_else(missing)?,
                    latency: fields.num("latency").ok_or_else(missing)?,
                    attempts: fields.num("attempts").ok_or_else(missing)? as u32,
                };
                resume.insert(plan, PlanOutcome::Record(record));
            }
            "harness_error" => {
                let missing = || corrupt("harness_error line missing a field".into());
                let plan = in_range(fields.num("plan").ok_or_else(missing)? as usize)?;
                let failure = HarnessFailure {
                    plan_index: plan,
                    target: fields.num("target").ok_or_else(missing)?,
                    bit: fields.num("bit").ok_or_else(missing)? as u32,
                    attempts: fields.num("attempts").ok_or_else(missing)? as u32,
                    error: fields.str("error").ok_or_else(missing)?.to_string(),
                };
                // A classified record of the same plan wins.
                if !matches!(resume.get(&plan), Some(PlanOutcome::Record(_))) {
                    resume.insert(plan, PlanOutcome::Failure(failure));
                }
            }
            other => {
                if is_last {
                    break;
                }
                return Err(corrupt(format!("unknown line kind `{other}`")));
            }
        }
        kept += line.len();
    }
    Ok((resume, kept))
}

fn check_header(fields: &Fields, expect: &JournalHeader) -> Result<(), JournalError> {
    let mismatch = |field: &'static str, journal: String, campaign: String| {
        Err(JournalError::Mismatch {
            field,
            journal,
            campaign,
        })
    };
    let version = fields.num("version").unwrap_or(0);
    if version != FORMAT_VERSION && version != COMPAT_VERSION {
        return mismatch(
            "format version",
            version.to_string(),
            FORMAT_VERSION.to_string(),
        );
    }
    let checks: [(&'static str, String, String); 8] = [
        (
            "workload",
            fields.str("workload").unwrap_or("").to_string(),
            expect.workload.clone(),
        ),
        (
            "entry",
            fields.str("entry").unwrap_or("").to_string(),
            expect.entry.clone(),
        ),
        (
            "seed",
            fields.num("seed").unwrap_or(0).to_string(),
            expect.seed.to_string(),
        ),
        (
            "runs",
            fields.num("runs").unwrap_or(0).to_string(),
            expect.runs.to_string(),
        ),
        (
            "sampling mode",
            fields.str("sampling").unwrap_or("").to_string(),
            expect.sampling.wire().to_string(),
        ),
        (
            "fault model",
            fields.str("model").unwrap_or("").to_string(),
            expect.fault_model.to_string(),
        ),
        (
            "eligible results",
            fields.num("eligible").unwrap_or(0).to_string(),
            expect.eligible_results.to_string(),
        ),
        (
            "nominal instruction count",
            fields.num("nominal").unwrap_or(0).to_string(),
            expect.nominal_insts.to_string(),
        ),
    ];
    for (field, journal, campaign) in checks {
        if journal != campaign {
            return mismatch(field, journal, campaign);
        }
    }
    // Headers written before the run identity was recorded lack it and
    // resume on the fields above alone.
    if let Some(identity) = fields.str("identity") {
        if identity != expect.identity {
            return mismatch(
                "run identity",
                identity.to_string(),
                expect.identity.clone(),
            );
        }
    }
    // Likewise the module digest: absent from older headers.
    if let Some(module) = fields.str("module") {
        if module != expect.module {
            return mismatch("module", module.to_string(), expect.module.clone());
        }
    }
    // The round size is optional (absent on classic campaigns); an
    // adaptive resume must agree on it, because round boundaries decide
    // which journaled labels feed which round's retraining.
    let display = |r: Option<u64>| match r {
        Some(n) => n.to_string(),
        None => "absent".to_string(),
    };
    if fields.num("rounds") != expect.round_runs.map(|r| r as u64) {
        return mismatch(
            "round size",
            display(fields.num("rounds")),
            display(expect.round_runs.map(|r| r as u64)),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipas_ir::parser::parse_module;
    use ipas_ir::sha256;

    fn header() -> JournalHeader {
        JournalHeader {
            workload: "sum".into(),
            entry: "main".into(),
            seed: 7,
            runs: 16,
            sampling: SamplingMode::DynamicUniform,
            fault_model: FaultModel::SingleBit,
            eligible_results: 100,
            nominal_insts: 500,
            identity: "main() verified by golden comparison, 1 ints exact, 0 floats within 1e-9"
                .into(),
            module: "9c56cc51b374c3ba189210d5b6d4bf57790d351c96c47c02190ecf1e430635ab".into(),
            round_runs: None,
        }
    }

    fn record(plan: usize) -> InjectionRecord {
        InjectionRecord {
            model: FaultModel::SingleBit,
            site: (FuncId::new(1), InstId::new(2 + plan)),
            target: 40 + plan as u64,
            bit: 13,
            outcome: Outcome::Masked,
            dynamic_insts: 501,
            latency: 17,
            attempts: 1,
        }
    }

    fn failure(plan: usize, error: &str) -> PlanOutcome {
        PlanOutcome::Failure(HarnessFailure {
            plan_index: plan,
            target: 7,
            bit: 3,
            attempts: 3,
            error: error.into(),
        })
    }

    /// The journal line of `record(plan)`, tagged with `tag`.
    fn record_line(plan: usize, tag: Option<u32>) -> String {
        outcome_line(plan, &PlanOutcome::Record(record(plan)), tag)
    }

    fn append_record(journal: &CampaignJournal, plan: usize, tag: Option<u32>) {
        journal
            .append([(plan, &PlanOutcome::Record(record(plan)), tag)])
            .expect("append");
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ipas-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let unique = format!(
            "{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        );
        dir.join(unique)
    }

    #[test]
    fn round_trips_records_and_failures() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, resume) = CampaignJournal::open(&path, &header()).expect("fresh");
            assert!(resume.is_empty());
            append_record(&journal, 3, None);
            let quoted = failure(5, "panicked: \"quoted\"\nline two");
            journal.append([(5, &quoted, None)]).expect("append");
        }
        let (_journal, resume) = CampaignJournal::open(&path, &header()).expect("reopen");
        assert_eq!(resume.len(), 2);
        assert_eq!(resume[&3], PlanOutcome::Record(record(3)));
        assert_eq!(resume[&5], failure(5, "panicked: \"quoted\"\nline two"));
        assert!(!resume.contains_key(&0));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_mismatched_campaign() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(CampaignJournal::open(&path, &header()).expect("fresh"));
        let other = JournalHeader {
            seed: 8,
            ..header()
        };
        match CampaignJournal::open(&path, &other) {
            Err(JournalError::Mismatch { field: "seed", .. }) => {}
            other => panic!("expected seed mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_a_different_run_identity() {
        let path = temp_path("identity");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 3, None);
        }
        // Same module shape, seed and runs, but another tolerance: the
        // records were classified by another verifier.
        let looser = JournalHeader {
            identity: "main() verified by golden comparison, 1 ints exact, 0 floats within 1e30"
                .into(),
            ..header()
        };
        match CampaignJournal::open(&path, &looser) {
            Err(JournalError::Mismatch {
                field: "run identity",
                journal,
                campaign,
            }) => {
                assert_eq!(journal, header().identity);
                assert_eq!(campaign, looser.identity);
            }
            other => panic!("expected run-identity mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn legacy_header_without_identity_resumes() {
        let path = temp_path("legacy-identity");
        let encoded = encode_header(&header());
        let field = format!(",\"identity\":\"{}\"", header().identity);
        assert!(encoded.contains(&field), "{encoded}");
        let mut text = encoded.replace(&field, "");
        text.push_str(&record_line(3, None));
        std::fs::write(&path, &text).expect("write");
        let (journal, resume) = CampaignJournal::open(&path, &header()).expect("legacy resumes");
        assert_eq!(resume.len(), 1);
        assert_eq!(resume[&3], PlanOutcome::Record(record(3)));
        append_record(&journal, 4, None);
        drop(journal);
        // The legacy header line is kept as it was.
        let written = std::fs::read_to_string(&path).expect("read");
        assert!(written.starts_with(&encoded.replace(&field, "")));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_a_different_module() {
        let path = temp_path("module");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 3, None);
        }
        // Same clean-run sizes, seed, runs and identity: only the
        // program text differs.
        let edited = JournalHeader {
            module: "b5bb9d8014a0f9b1d61e21e796d78dccdf1352f23cd32812f4850b878ae4944c".into(),
            ..header()
        };
        match CampaignJournal::open(&path, &edited) {
            Err(JournalError::Mismatch {
                field: "module",
                journal,
                campaign,
            }) => {
                assert_eq!(journal, header().module);
                assert_eq!(campaign, edited.module);
            }
            other => panic!("expected module mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn module_digest_ignores_value_numbering() {
        let source = |k: &str| {
            format!(
                "fn main() -> int {{ let s: int = mpi_rank() + 1; output_i(s * {k}); return 0; }}"
            )
        };
        let compiled = ipas_lang::compile(&source("3")).expect("compiles");
        let parsed = parse_module(compiled.text()).expect("printed IR parses");
        assert_ne!(compiled.text(), parsed.text(), "parsing renumbers values");
        let digest = module_digest(&compiled);
        assert_eq!(digest.len(), 64);
        assert!(digest
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        assert_eq!(module_digest(&parsed), digest);
        assert_eq!(
            digest,
            sha256::hex(&sha256::sha256(parsed.text().as_bytes())),
            "the digest hashes the parsed module's text"
        );
        let edited = ipas_lang::compile(&source("4")).expect("compiles");
        assert_ne!(module_digest(&edited), digest);
    }

    #[test]
    fn legacy_header_without_module_resumes() {
        let path = temp_path("legacy-module");
        let encoded = encode_header(&header());
        let field = format!(",\"module\":\"{}\"", header().module);
        assert!(encoded.contains(&field), "{encoded}");
        // The module digest follows the run identity.
        let identity = format!("\"identity\":\"{}\"", header().identity);
        assert!(encoded.contains(&format!("{identity}{field}")), "{encoded}");
        let legacy = encoded.replace(&field, "");
        let mut text = legacy.clone();
        text.push_str(&record_line(3, None));
        std::fs::write(&path, &text).expect("write");
        let (journal, resume) = CampaignJournal::open(&path, &header()).expect("legacy resumes");
        assert_eq!(resume.len(), 1);
        assert_eq!(resume[&3], PlanOutcome::Record(record(3)));
        append_record(&journal, 4, None);
        drop(journal);
        // The legacy header line is kept as it was.
        let written = std::fs::read_to_string(&path).expect("read");
        assert!(written.starts_with(&legacy));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_mismatched_fault_model_header() {
        let path = temp_path("model-mismatch");
        let _ = std::fs::remove_file(&path);
        drop(CampaignJournal::open(&path, &header()).expect("fresh"));
        let other = JournalHeader {
            fault_model: FaultModel::BranchFlip,
            ..header()
        };
        match CampaignJournal::open(&path, &other) {
            Err(JournalError::Mismatch {
                field: "fault model",
                journal,
                campaign,
            }) => {
                assert_eq!(journal, "single-bit");
                assert_eq!(campaign, "branch-flip");
            }
            other => panic!("expected fault-model mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_record_from_different_model_or_schema() {
        // A record whose model disagrees with the (matching) header is
        // a typed mismatch — never silently merged.
        let path = temp_path("record-model");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 0, None);
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(&outcome_line(
            1,
            &PlanOutcome::Record(InjectionRecord {
                model: FaultModel::StuckValue,
                ..record(1)
            }),
            None,
        ));
        // Pad with a valid line so the mixed record is not a torn tail.
        text.push_str(&record_line(2, None));
        std::fs::write(&path, &text).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "record fault model",
                ..
            }) => {}
            other => panic!("expected record fault-model mismatch, got {other:?}"),
        }

        // A record written under an older per-record schema (no `v`
        // field) is a schema-version mismatch.
        let mut old_schema = encode_header(&header());
        old_schema.push_str(
            "{\"kind\":\"record\",\"plan\":0,\"func\":1,\"inst\":2,\"target\":40,\
             \"bit\":13,\"outcome\":\"masked\",\"insts\":501,\"latency\":17,\
             \"attempts\":1}\n",
        );
        old_schema.push_str(&record_line(1, None));
        std::fs::write(&path, &old_schema).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "record schema version",
                ..
            }) => {}
            other => panic!("expected record schema mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_version_one_journal() {
        let path = temp_path("v1");
        let _ = std::fs::remove_file(&path);
        let v1_header = "{\"kind\":\"header\",\"version\":1,\"workload\":\"sum\",\
             \"entry\":\"main\",\"seed\":7,\"runs\":16,\"sampling\":\"dynamic\",\
             \"eligible\":100,\"nominal\":500}\n";
        std::fs::write(&path, v1_header).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "format version",
                ..
            }) => {}
            other => panic!("expected format-version mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn resumes_version_two_journal() {
        // A journal written by the previous (v2) format resumes under
        // v3: same header fields, records without tags.
        let path = temp_path("v2-compat");
        let _ = std::fs::remove_file(&path);
        let mut text = String::from(
            "{\"kind\":\"header\",\"version\":2,\"workload\":\"sum\",\
             \"entry\":\"main\",\"seed\":7,\"runs\":16,\"sampling\":\"dynamic\",\
             \"model\":\"single-bit\",\"eligible\":100,\"nominal\":500}\n",
        );
        text.push_str(
            "{\"kind\":\"record\",\"v\":2,\"plan\":3,\"model\":\"single-bit\",\
             \"func\":1,\"inst\":5,\"target\":43,\"bit\":13,\"outcome\":\"masked\",\
             \"insts\":501,\"latency\":17,\"attempts\":1}\n",
        );
        // A stray `sec` on a v2 record changes nothing: tags are never
        // read back.
        text.push_str(
            "{\"kind\":\"record\",\"v\":2,\"plan\":4,\"model\":\"single-bit\",\
             \"func\":1,\"inst\":6,\"target\":44,\"bit\":13,\"outcome\":\"masked\",\
             \"insts\":501,\"latency\":17,\"attempts\":1,\"sec\":9}\n",
        );
        std::fs::write(&path, &text).expect("write");
        let (journal, resume) = CampaignJournal::open(&path, &header()).expect("v2 resumes");
        assert_eq!(resume.len(), 2);
        assert_eq!(resume[&3], PlanOutcome::Record(record(3)));
        assert_eq!(resume[&4], PlanOutcome::Record(record(4)));
        // Continuing the campaign appends tagged v3 records into the
        // same file, and the mixed-version journal still resumes.
        append_record(&journal, 5, Some(1));
        drop(journal);
        let written = std::fs::read_to_string(&path).expect("read");
        assert!(written.starts_with(&text), "v2 lines are kept as written");
        assert_eq!(&written[text.len()..], record_line(5, Some(1)));
        assert!(written.ends_with(",\"sec\":1}\n"));
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("mixed resumes");
        assert_eq!(resume.len(), 3);
        assert_eq!(resume[&5], PlanOutcome::Record(record(5)));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn tags_are_written_per_record_and_tolerate_torn_tail() {
        let path = temp_path("tags");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 0, Some(2));
            let (r1, f2, r3) = (
                PlanOutcome::Record(record(1)),
                failure(2, "boom"),
                PlanOutcome::Record(record(3)),
            );
            journal
                .append([(1, &r1, Some(5)), (2, &f2, Some(5)), (3, &r3, Some(6))])
                .expect("batch append");
        }
        let full = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = full.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 outcome lines");
        assert!(lines[1].ends_with(",\"sec\":2}"));
        assert!(lines[2].ends_with(",\"sec\":5}"));
        assert!(
            !lines[3].contains("\"sec\""),
            "harness failures are never tagged"
        );
        assert!(lines[4].ends_with(",\"sec\":6}"), "each record its own tag");
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("reopen");
        assert_eq!(resume.len(), 4);
        assert_eq!(resume[&3], PlanOutcome::Record(record(3)));

        // Tearing the final (tagged) record drops only that plan.
        std::fs::write(&path, &full.as_bytes()[..full.len() - 20]).expect("tear");
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("torn tolerated");
        assert_eq!(resume.len(), 3);
        assert!(!resume.contains_key(&3), "torn tagged record re-runs");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_tagged_record_drift() {
        // Model and schema drift are caught on tagged records exactly
        // as on plain ones.
        let path = temp_path("sec-drift");
        let _ = std::fs::remove_file(&path);
        let mut text = encode_header(&header());
        text.push_str(&outcome_line(
            0,
            &PlanOutcome::Record(InjectionRecord {
                model: FaultModel::StuckValue,
                ..record(0)
            }),
            Some(1),
        ));
        text.push_str(&record_line(1, Some(1)));
        std::fs::write(&path, &text).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "record fault model",
                ..
            }) => {}
            other => panic!("expected fault-model mismatch, got {other:?}"),
        }

        let mut text = encode_header(&header());
        text.push_str(
            "{\"kind\":\"record\",\"v\":1,\"plan\":0,\"model\":\"single-bit\",\
             \"func\":1,\"inst\":2,\"target\":40,\"bit\":13,\"outcome\":\"masked\",\
             \"insts\":501,\"latency\":17,\"attempts\":1,\"sec\":0}\n",
        );
        text.push_str(&record_line(1, Some(1)));
        std::fs::write(&path, &text).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "record schema version",
                ..
            }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn round_size_header_pins_adaptive_identity() {
        // Classic headers never emit the field, so pre-adaptive
        // journals stay byte-identical.
        assert!(!encode_header(&header()).contains("rounds"));

        let path = temp_path("rounds");
        let _ = std::fs::remove_file(&path);
        let adaptive = JournalHeader {
            round_runs: Some(8),
            ..header()
        };
        drop(CampaignJournal::open(&path, &adaptive).expect("fresh"));
        // Same round size resumes; a classic campaign or a different
        // round size is a typed mismatch.
        drop(CampaignJournal::open(&path, &adaptive).expect("same rounds resume"));
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Mismatch {
                field: "round size",
                journal,
                campaign,
            }) => {
                assert_eq!(journal, "8");
                assert_eq!(campaign, "absent");
            }
            other => panic!("expected round-size mismatch, got {other:?}"),
        }
        let smaller = JournalHeader {
            round_runs: Some(4),
            ..header()
        };
        match CampaignJournal::open(&path, &smaller) {
            Err(JournalError::Mismatch {
                field: "round size",
                ..
            }) => {}
            other => panic!("expected round-size mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn tolerates_torn_final_line_only() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 0, None);
        }
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"record\",\"plan\":1,\"fu"); // torn append
        std::fs::write(&path, &text).expect("write");
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("torn tail tolerated");
        assert_eq!(resume.len(), 1);

        // The same garbage before a valid line is corruption.
        let record_prefix = "{\"kind\":\"record\",\"v\":";
        assert!(text.contains(record_prefix), "record prefix drifted");
        let torn_middle = text.replacen(
            record_prefix,
            &format!("{{\"kind\":\"rec,\n{record_prefix}"),
            1,
        );
        std::fs::write(&path, &torn_middle).expect("write");
        match CampaignJournal::open(&path, &header()) {
            Err(JournalError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected corruption at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn resume_cuts_the_torn_tail_before_appending() {
        // Appending after a torn tail must not glue the new line onto
        // the fragment: the journal stays resumable through any number
        // of crash/resume cycles.
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            append_record(&journal, 0, None);
        }
        let clean = std::fs::read_to_string(&path).expect("read");
        // A complete record missing only its newline is torn too.
        let torn = format!("{clean}{}", record_line(1, None).trim_end());
        std::fs::write(&path, &torn).expect("tear");
        {
            let (journal, resume) = CampaignJournal::open(&path, &header()).expect("torn resumes");
            assert_eq!(resume.len(), 1, "only complete lines resume");
            append_record(&journal, 1, None);
        }
        let healed = std::fs::read_to_string(&path).expect("read");
        assert_eq!(healed, format!("{clean}{}", record_line(1, None)));
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("healed resumes");
        assert_eq!(resume.len(), 2);

        // A torn header (or an empty file) starts the journal afresh.
        for stub in ["", "{\"kind\":\"head"] {
            std::fs::write(&path, stub).expect("stub");
            drop(CampaignJournal::open(&path, &header()).expect("stub resumes"));
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                encode_header(&header())
            );
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn batch_append_resumes_after_torn_batch() {
        // A batch is several lines in one write. A crash mid-write
        // tears the buffer at an arbitrary byte offset — but the tear
        // is always at the *end* of the file, so resume must recover
        // every complete line of the batch and drop only the torn tail.
        let path = temp_path("torn-chunk");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            let batch: Vec<(usize, PlanOutcome)> = vec![
                (0, PlanOutcome::Record(record(0))),
                (1, PlanOutcome::Record(record(1))),
                (2, failure(2, "boom")),
                (3, PlanOutcome::Record(record(3))),
            ];
            journal
                .append(batch.iter().map(|(i, o)| (*i, o, None)))
                .expect("batch append");
            journal.append([]).expect("empty batch is a no-op");
        }
        let full = std::fs::read_to_string(&path).expect("read");
        assert_eq!(full.lines().count(), 5, "header + 4 outcome lines");

        // Tear the final record mid-line (crash during the batch write).
        let keep = full.len() - 25;
        std::fs::write(&path, &full.as_bytes()[..keep]).expect("tear");
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("torn batch tolerated");
        assert_eq!(resume.len(), 3, "complete lines of the batch survive");
        assert_eq!(resume[&0], PlanOutcome::Record(record(0)));
        assert_eq!(resume[&1], PlanOutcome::Record(record(1)));
        assert_eq!(resume[&2], failure(2, "boom"));
        assert!(!resume.contains_key(&3), "torn final record is re-executed");

        // Tear exactly on a line boundary: the last line is simply
        // missing, nothing is unparsable, and resume still works.
        let boundary = full
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .map(|(i, _)| i + 1)
            .nth(3)
            .expect("fourth newline");
        std::fs::write(&path, &full.as_bytes()[..boundary]).expect("boundary tear");
        let (_j, resume) = CampaignJournal::open(&path, &header()).expect("boundary tolerated");
        assert_eq!(resume.len(), 3);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn appended_lines_are_outcome_lines() {
        // The public wire encoder and the journal's appends must stay
        // byte-identical: the serving layer streams outcome_line output
        // while the journal file is written through append.
        let path = temp_path("wire");
        let _ = std::fs::remove_file(&path);
        let rec = PlanOutcome::Record(record(4));
        let fail = failure(9, "e");
        {
            let (journal, _) = CampaignJournal::open(&path, &header()).expect("fresh");
            journal
                .append([(4, &rec, Some(2)), (9, &fail, Some(2))])
                .expect("append");
        }
        let written = std::fs::read_to_string(&path).expect("read");
        let expected = format!(
            "{}{}{}",
            encode_header(&header()),
            outcome_line(4, &rec, Some(2)),
            outcome_line(9, &fail, None)
        );
        assert_eq!(written, expected);
        std::fs::remove_file(&path).expect("cleanup");
    }
}

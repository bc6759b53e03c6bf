//! Serializable job specifications — the wire and checkpoint format of
//! the campaign service (`ipas serve`).
//!
//! A [`JobSpec`] is a self-contained, deterministic description of one
//! unit of IPAS work: a raw injection campaign, a protect pipeline
//! (train + duplicate), a train-only job, or an evaluation of a stored
//! protected module. Everything the daemon needs is in the spec — the
//! program source text travels inline, so a spec replays identically on
//! any host with the same binary.
//!
//! Two properties make specs the service's backbone:
//!
//! - **Deduplication.** [`JobSpec::fingerprint`] hashes every field
//!   that influences the computed artifact (and *excludes* the tenant,
//!   which only namespaces ownership). [`JobSpec::job_id`] is the short
//!   form; identical concurrent submissions collide on it and coalesce
//!   to one execution.
//! - **Restart-resume.** [`JobSpec::encode`] is a single flat-JSON line
//!   (the same codec as the campaign journal), written as a `.job`
//!   checkpoint at submission and as the `submit` request on the wire.
//!   A restarted daemon [`JobSpec::decode`]s leftover checkpoints and
//!   re-enqueues them, resuming finished plans from the journal.

use std::str::FromStr;
use std::time::Duration;

use ipas_faultsim::{
    CampaignConfig, CampaignOptions, Engine, FaultModel, RetryPolicy, SamplingMode,
};
use ipas_store::{Fields, Fingerprint, FingerprintBuilder, LineBuilder};

/// What kind of work a [`JobSpec`] requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Raw fault-injection campaign on the unprotected program; the
    /// artifact is the outcome summary.
    Campaign,
    /// Full protect pipeline: training campaign, C-SVM grid search,
    /// selective duplication; the artifact is the protected module.
    Protect,
    /// Training only: campaign plus grid search; the artifacts are the
    /// top-N models, registered in the tenant's registry.
    Train,
    /// Injection campaign on a previously stored protected module
    /// (referenced by [`JobSpec::module_key`]).
    Eval,
}

impl JobKind {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Campaign => "campaign",
            JobKind::Protect => "protect",
            JobKind::Train => "train",
            JobKind::Eval => "eval",
        }
    }

    /// Parses a wire label.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "campaign" => JobKind::Campaign,
            "protect" => JobKind::Protect,
            "train" => JobKind::Train,
            "eval" => JobKind::Eval,
            _ => return None,
        })
    }
}

/// A complete, serializable description of one service job.
///
/// See the module docs for the role specs play; field semantics match
/// the equivalent `ipas` CLI flags.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The kind of work requested.
    pub kind: JobKind,
    /// Owning tenant (quota ledger + registry namespace). Excluded
    /// from the fingerprint: two tenants submitting identical work
    /// share one execution and one artifact.
    pub tenant: String,
    /// Workload name (journal identity, report labels).
    pub name: String,
    /// Program source text, compiled by the daemon.
    pub source: String,
    /// Injection runs for the (training) campaign.
    pub runs: usize,
    /// Injection runs for evaluation campaigns ([`JobKind::Eval`]).
    pub eval_runs: usize,
    /// How many top grid configurations to keep ([`JobKind::Train`]).
    pub top: usize,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Verifier tolerance (0.0 = exact golden comparison).
    pub tolerance: f64,
    /// Fault model for every plan of the campaign.
    pub fault_model: FaultModel,
    /// Interpreter engine (a throughput knob; engines are bit-identical).
    pub engine: Engine,
    /// Protection policy label for protect jobs (`"ipas"`, `"full"`,
    /// `"baseline"`, `"unprotected"`).
    pub policy: String,
    /// Per-run wall-clock watchdog in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Store key of the protected module to evaluate
    /// ([`JobKind::Eval`] only).
    pub module_key: Option<String>,
    /// Run the campaign adaptively ([`JobKind::Campaign`] only): a
    /// uniform seed round, then margin-weighted rounds drawn by a
    /// classifier retrained on the labels so far, chunks aligned to
    /// round boundaries, and journal records tagged with their round.
    pub adaptive: bool,
}

impl JobSpec {
    /// A spec with service defaults for `kind`; callers override the
    /// fields they care about.
    pub fn new(kind: JobKind, tenant: &str, name: &str, source: &str) -> Self {
        JobSpec {
            kind,
            tenant: tenant.to_string(),
            name: name.to_string(),
            source: source.to_string(),
            runs: 256,
            eval_runs: 256,
            top: 1,
            seed: 0,
            tolerance: 0.0,
            fault_model: FaultModel::default(),
            engine: Engine::default(),
            policy: "ipas".to_string(),
            deadline_ms: 0,
            module_key: None,
            adaptive: false,
        }
    }

    /// Checks the spec for structural problems before it is accepted
    /// into the queue, returning a human-readable reason on failure.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() || !valid_token(&self.tenant) {
            return Err(format!("bad tenant {:?}", self.tenant));
        }
        if self.name.is_empty() || !valid_token(&self.name) {
            return Err(format!("bad name {:?}", self.name));
        }
        if self.source.is_empty() {
            return Err("empty source".to_string());
        }
        if self.runs == 0 {
            return Err("runs must be positive".to_string());
        }
        if self.kind == JobKind::Eval && self.module_key.is_none() {
            return Err("eval jobs need a module key".to_string());
        }
        if self.adaptive && self.kind != JobKind::Campaign {
            return Err("adaptive sampling only applies to campaign jobs".to_string());
        }
        if !matches!(
            self.policy.as_str(),
            "ipas" | "full" | "baseline" | "unprotected"
        ) {
            return Err(format!("unknown policy {:?}", self.policy));
        }
        Ok(())
    }

    /// Fingerprint over every artifact-determining field. The tenant is
    /// deliberately excluded (see [`JobSpec::tenant`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut b = FingerprintBuilder::new("serve-job")
            .text("kind", self.kind.label())
            .text("name", &self.name)
            .text("source", &self.source)
            .u64("runs", self.runs as u64)
            .u64("eval-runs", self.eval_runs as u64)
            .u64("top", self.top as u64)
            .u64("seed", self.seed)
            .f64("tolerance", self.tolerance)
            .text("fault-model", &self.fault_model.to_string())
            .text("engine", self.engine.label())
            .text("policy", &self.policy)
            .u64("deadline-ms", self.deadline_ms);
        if let Some(key) = &self.module_key {
            b = b.text("module-key", key);
        }
        // Added like `module-key`: only present when set, so every job
        // id minted before the flag existed stays stable.
        if self.adaptive {
            b = b.bool("adaptive", true);
        }
        b.finish()
    }

    /// Deterministic short job id: identical specs (up to tenant)
    /// collide here, which is what drives request coalescing.
    pub fn job_id(&self) -> String {
        self.fingerprint().short()
    }

    /// Encodes the spec as one flat-JSON line of the given kind
    /// (`"submit"` on the wire, `"jobspec"` in `.job` checkpoints).
    pub fn encode(&self, line_kind: &str) -> String {
        let mut b = LineBuilder::new(line_kind)
            .str("job", self.kind.label())
            .str("tenant", &self.tenant)
            .str("name", &self.name)
            .str("source", &self.source)
            .num("runs", self.runs as u64)
            .num("eval_runs", self.eval_runs as u64)
            .num("top", self.top as u64)
            .num("seed", self.seed)
            .f64("tolerance", self.tolerance)
            .str("fault_model", &self.fault_model.to_string())
            .str("engine", self.engine.label())
            .str("policy", &self.policy)
            .num("deadline_ms", self.deadline_ms);
        if let Some(key) = &self.module_key {
            b = b.str("module_key", key);
        }
        if self.adaptive {
            b = b.num("adaptive", 1);
        }
        b.finish()
    }

    /// Decodes a line produced by [`JobSpec::encode`], checking the
    /// line kind.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the line is malformed, of the wrong
    /// kind, has out-of-range fields, or asks for sectional execution.
    pub fn decode(line: &str, expect_kind: &str) -> Result<Self, String> {
        let fields = Fields::parse(line).ok_or("malformed job line")?;
        if fields.kind() != expect_kind {
            return Err(format!(
                "expected a {expect_kind:?} line, got {:?}",
                fields.kind()
            ));
        }
        // Sectional campaigns are gone. Running such a line as a plain
        // campaign would give it a new job id, so a restarted daemon
        // would re-admit an old `.job` checkpoint under that id and
        // never remove the file; refusing it drops the file instead.
        if fields.num("sections").is_some() || fields.str("sections").is_some() {
            return Err("unsupported field \"sections\": sectional campaigns were removed".into());
        }
        let str_field = |k: &str| {
            fields
                .str(k)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let num_field = |k: &str| fields.num(k).ok_or_else(|| format!("missing field {k:?}"));
        let kind = JobKind::from_label(&str_field("job")?)
            .ok_or_else(|| format!("unknown job kind {:?}", fields.str("job").unwrap_or("?")))?;
        let fault_model = FaultModel::from_str(&str_field("fault_model")?)
            .map_err(|e| format!("bad fault model: {e}"))?;
        let engine =
            Engine::from_str(&str_field("engine")?).map_err(|e| format!("bad engine: {e}"))?;
        let spec = JobSpec {
            kind,
            tenant: str_field("tenant")?,
            name: str_field("name")?,
            source: str_field("source")?,
            runs: num_field("runs")? as usize,
            eval_runs: num_field("eval_runs")? as usize,
            top: num_field("top")? as usize,
            seed: num_field("seed")?,
            tolerance: fields
                .f64("tolerance")
                .ok_or("missing field \"tolerance\"")?,
            fault_model,
            engine,
            policy: str_field("policy")?,
            deadline_ms: num_field("deadline_ms")?,
            module_key: fields.str("module_key").map(str::to_string),
            adaptive: fields.num("adaptive").unwrap_or(0) != 0,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The campaign configuration this spec describes. `runs` picks the
    /// training or evaluation count by [`JobSpec::kind`]; `threads` is
    /// 1 because the service parallelizes across plan *chunks*, not
    /// inside a chunk.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            runs: if self.kind == JobKind::Eval {
                self.eval_runs
            } else {
                self.runs
            },
            seed: self.seed,
            threads: 1,
            engine: self.engine,
            fault_model: self.fault_model,
        }
    }

    /// The campaign options this spec describes (journal attached by
    /// the daemon per job id).
    pub fn campaign_options(&self) -> CampaignOptions {
        CampaignOptions {
            sampling: SamplingMode::default(),
            retry: RetryPolicy::default(),
            journal: None,
            run_deadline: if self.deadline_ms == 0 {
                None
            } else {
                Some(Duration::from_millis(self.deadline_ms))
            },
        }
    }
}

fn valid_token(s: &str) -> bool {
    s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        let mut s = JobSpec::new(
            JobKind::Protect,
            "acme",
            "mm",
            "fn main() -> int { output_i(7); return 0; }",
        );
        s.runs = 96;
        s.seed = 11;
        s.tolerance = 1e-6;
        s.deadline_ms = 2_000;
        s
    }

    #[test]
    fn encode_decode_round_trips() {
        for kind in ["submit", "jobspec"] {
            let s = spec();
            let line = s.encode(kind);
            assert!(line.ends_with('\n'));
            let back = JobSpec::decode(&line, kind).unwrap();
            assert_eq!(back, s);
        }
        let mut with_key = spec();
        with_key.kind = JobKind::Eval;
        with_key.module_key = Some("abcd1234".to_string());
        let back = JobSpec::decode(&with_key.encode("submit"), "submit").unwrap();
        assert_eq!(back, with_key);
    }

    #[test]
    fn wrong_line_kind_rejected() {
        let line = spec().encode("submit");
        assert!(JobSpec::decode(&line, "jobspec").is_err());
        assert!(JobSpec::decode("not json", "submit").is_err());
    }

    #[test]
    fn fingerprint_ignores_tenant_but_not_work() {
        let a = spec();
        let mut b = spec();
        b.tenant = "other".to_string();
        assert_eq!(a.job_id(), b.job_id(), "tenant must not split the cache");
        let mut c = spec();
        c.seed = 12;
        assert_ne!(a.job_id(), c.job_id());
        let mut d = spec();
        d.policy = "full".to_string();
        assert_ne!(a.job_id(), d.job_id());
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(spec().validate().is_ok());
        let mut bad = spec();
        bad.runs = 0;
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.tenant = "has space".to_string();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.kind = JobKind::Eval;
        assert!(bad.validate().is_err(), "eval without module key");
        let mut bad = spec();
        bad.policy = "mystery".to_string();
        assert!(bad.validate().is_err());
        let mut bad = spec();
        bad.adaptive = true;
        assert!(bad.validate().is_err(), "adaptive protect job");
    }

    #[test]
    fn sections_field_is_rejected_by_name() {
        let mut s = spec();
        s.kind = JobKind::Campaign;
        // Plain and adaptive job ids keep the values they had while
        // sectional jobs existed.
        assert_eq!(s.job_id(), "57f5034273a48943");
        s.adaptive = true;
        assert_eq!(s.job_id(), "dd9beaada07ee8a7");
        s.adaptive = false;
        // What a daemon with sectional execution wrote for such a job:
        // the plain line with `"sections":1` before the closing brace.
        for kind in ["submit", "jobspec"] {
            let line = s.encode(kind);
            let sectional = line.replacen("}\n", ",\"sections\":1}\n", 1);
            let err = JobSpec::decode(&sectional, kind).unwrap_err();
            assert!(err.contains("\"sections\""), "{err}");
            let named = line.replacen("}\n", ",\"sections\":\"yes\"}\n", 1);
            assert!(JobSpec::decode(&named, kind).is_err());
            assert_eq!(JobSpec::decode(&line, kind).unwrap(), s);
        }
    }

    #[test]
    fn adaptive_flag_round_trips_and_splits_the_job_id() {
        let mut s = spec();
        s.kind = JobKind::Campaign;
        let plain_id = s.job_id();
        let plain_line = s.encode("submit");
        s.adaptive = true;
        assert!(s.validate().is_ok());
        assert_ne!(s.job_id(), plain_id, "adaptive work is different work");
        let back = JobSpec::decode(&s.encode("submit"), "submit").unwrap();
        assert_eq!(back, s);
        // Lines minted before the flag existed decode as non-adaptive.
        let legacy = JobSpec::decode(&plain_line, "submit").unwrap();
        assert!(!legacy.adaptive);
    }

    #[test]
    fn campaign_config_follows_kind() {
        let mut s = spec();
        s.eval_runs = 32;
        assert_eq!(s.campaign_config().runs, 96);
        s.kind = JobKind::Eval;
        s.module_key = Some("ab12".to_string());
        assert_eq!(s.campaign_config().runs, 32);
        assert_eq!(
            s.campaign_options().run_deadline,
            Some(Duration::from_millis(2_000))
        );
    }
}

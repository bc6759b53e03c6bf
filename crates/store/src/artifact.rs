//! Typed, versioned, checksummed text artifacts.
//!
//! Every artifact is a line-oriented text file with three parts:
//!
//! ```text
//! ipas-artifact 1          ← envelope format version
//! kind trained-model       ← artifact kind tag
//! schema 1                 ← per-kind schema version
//! --
//! ...kind-specific body...
//! checksum <64-hex sha256> ← over every byte above this line
//! ```
//!
//! The checksum trailer makes corruption (a flipped byte, a truncated
//! file) a typed [`StoreError::Corrupt`] on load, and the schema header
//! makes version skew a typed [`StoreError::SchemaSkew`] — an artifact
//! is never silently misread. Floats in bodies are encoded as 16-digit
//! hex IEEE-754 bit patterns so decoding is bit-exact: a model exported
//! and re-imported produces byte-identical decision values.

use std::fmt;
use std::path::PathBuf;

use std::fmt::Write as _;

use crate::hash::{hex, sha256};
use ipas_ir::sha256::push_hex;

/// Envelope format version.
pub const ENVELOPE_VERSION: u32 = 1;

/// The seven artifact kinds the pipeline persists.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Labeled feature rows extracted from a training campaign.
    TrainingSet,
    /// A trained SVM plus its feature scaling and selection score.
    TrainedModel,
    /// Outcome counts of a fault-injection campaign.
    CampaignSummary,
    /// A protected module in canonical IR text.
    ProtectedModule,
    /// A fuzzing finding: the divergent input plus its minimized repro.
    FuzzRepro,
    /// Injection outcomes of one section of a sectional campaign.
    SectionProfile,
    /// Baseline index of a sectional campaign: per-section fingerprints
    /// and profile keys, for incremental re-analysis.
    SectionIndex,
}

impl ArtifactKind {
    /// All kinds, in listing order.
    pub const ALL: [ArtifactKind; 7] = [
        ArtifactKind::TrainingSet,
        ArtifactKind::TrainedModel,
        ArtifactKind::CampaignSummary,
        ArtifactKind::ProtectedModule,
        ArtifactKind::FuzzRepro,
        ArtifactKind::SectionProfile,
        ArtifactKind::SectionIndex,
    ];

    /// The on-disk directory / header tag for this kind.
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::TrainingSet => "training-set",
            ArtifactKind::TrainedModel => "trained-model",
            ArtifactKind::CampaignSummary => "campaign-summary",
            ArtifactKind::ProtectedModule => "protected-module",
            ArtifactKind::FuzzRepro => "fuzz-repro",
            ArtifactKind::SectionProfile => "section-profile",
            ArtifactKind::SectionIndex => "section-index",
        }
    }

    /// Parses a header tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The schema version currently written for this kind.
    pub fn current_schema(self) -> u32 {
        match self {
            ArtifactKind::TrainingSet => TrainingSet::SCHEMA,
            ArtifactKind::TrainedModel => TrainedModel::SCHEMA,
            ArtifactKind::CampaignSummary => CampaignSummary::SCHEMA,
            ArtifactKind::ProtectedModule => ProtectedModule::SCHEMA,
            ArtifactKind::FuzzRepro => FuzzRepro::SCHEMA,
            ArtifactKind::SectionProfile => SectionProfile::SCHEMA,
            ArtifactKind::SectionIndex => SectionIndex::SCHEMA,
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Errors from the store and the artifact codecs.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure underneath the store.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The artifact text is damaged: bad envelope, bad body line, or a
    /// checksum mismatch.
    Corrupt {
        /// Where the artifact came from (path or "<memory>").
        source: String,
        /// What was wrong.
        reason: String,
    },
    /// The artifact was written by a different schema version of its
    /// kind; re-deriving it is required, not reinterpretation.
    SchemaSkew {
        /// The artifact kind.
        kind: ArtifactKind,
        /// Version found in the header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The artifact is of a different kind than requested.
    KindMismatch {
        /// Kind tag found in the header.
        found: String,
        /// Kind the caller asked to decode.
        expected: ArtifactKind,
    },
    /// A store key contains characters outside `[0-9a-f-]`.
    BadKey(String),
    /// A registry name is empty or contains tabs/newlines/path
    /// separators.
    BadName(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, error } => {
                write!(f, "store I/O error at {}: {error}", path.display())
            }
            StoreError::Corrupt { source, reason } => {
                write!(f, "corrupt artifact in {source}: {reason}")
            }
            StoreError::SchemaSkew {
                kind,
                found,
                expected,
            } => write!(
                f,
                "{kind} artifact has schema v{found} but this build expects v{expected}; \
                 re-derive it (the store never reinterprets old schemas)"
            ),
            StoreError::KindMismatch { found, expected } => {
                write!(f, "artifact is a `{found}`, expected `{expected}`")
            }
            StoreError::BadKey(k) => write!(f, "invalid store key `{k}`"),
            StoreError::BadName(n) => write!(f, "invalid registry name `{n}`"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A value that can be stored as an artifact.
pub trait Payload: Sized {
    /// The artifact kind this payload encodes to.
    const KIND: ArtifactKind;
    /// Schema version written by [`Payload::encode_body`]. Bump on any
    /// incompatible body change.
    const SCHEMA: u32;

    /// Appends the body lines (no envelope) to `out`.
    fn encode_body(&self, out: &mut String);

    /// Decodes the body lines.
    ///
    /// # Errors
    ///
    /// Returns a reason string on malformed bodies; the envelope layer
    /// wraps it into [`StoreError::Corrupt`].
    fn decode_body(body: &str) -> Result<Self, String>;
}

/// Encodes a payload into the full artifact text (envelope + checksum).
pub fn encode<P: Payload>(payload: &P) -> String {
    let mut text = String::new();
    text.push_str(&format!("ipas-artifact {ENVELOPE_VERSION}\n"));
    text.push_str(&format!("kind {}\n", P::KIND.tag()));
    text.push_str(&format!("schema {}\n", P::SCHEMA));
    text.push_str("--\n");
    payload.encode_body(&mut text);
    let sum = hex(&sha256(text.as_bytes()));
    text.push_str(&format!("checksum {sum}\n"));
    text
}

/// Splits artifact text into (covered-bytes, header fields, body, checksum).
struct Envelope<'a> {
    kind_tag: &'a str,
    schema: u32,
    body: &'a str,
}

fn corrupt(source: &str, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        source: source.to_string(),
        reason: reason.into(),
    }
}

/// Parses and checksum-verifies the envelope; shared by typed decode
/// and `verify`.
fn open_envelope<'a>(text: &'a str, source: &str) -> Result<Envelope<'a>, StoreError> {
    // The checksum line is the last non-empty line.
    let trimmed = text.trim_end_matches('\n');
    let (covered, checksum_line) = match trimmed.rfind('\n') {
        Some(pos) => (&text[..pos + 1], &trimmed[pos + 1..]),
        None => return Err(corrupt(source, "artifact has no checksum trailer")),
    };
    let sum = checksum_line
        .strip_prefix("checksum ")
        .ok_or_else(|| corrupt(source, "missing `checksum` trailer line"))?
        .trim();
    let actual = hex(&sha256(covered.as_bytes()));
    if sum != actual {
        return Err(corrupt(
            source,
            format!("checksum mismatch: trailer {sum}, content {actual}"),
        ));
    }

    let mut lines = covered.lines();
    let magic = lines.next().unwrap_or("");
    let version = magic
        .strip_prefix("ipas-artifact ")
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| corrupt(source, format!("bad magic line `{magic}`")))?;
    if version != ENVELOPE_VERSION {
        return Err(corrupt(
            source,
            format!("unsupported envelope version {version}"),
        ));
    }
    let kind_line = lines.next().unwrap_or("");
    let kind_tag = kind_line
        .strip_prefix("kind ")
        .ok_or_else(|| corrupt(source, format!("bad kind line `{kind_line}`")))?;
    let schema_line = lines.next().unwrap_or("");
    let schema = schema_line
        .strip_prefix("schema ")
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| corrupt(source, format!("bad schema line `{schema_line}`")))?;
    let sep = lines.next().unwrap_or("");
    if sep != "--" {
        return Err(corrupt(source, "missing `--` header separator"));
    }
    // Body starts after the 4 header lines.
    let mut offset = 0usize;
    for _ in 0..4 {
        offset += covered[offset..]
            .find('\n')
            .map(|p| p + 1)
            .unwrap_or(covered.len() - offset);
    }
    Ok(Envelope {
        kind_tag,
        schema,
        body: &covered[offset..],
    })
}

/// Decodes artifact text into a typed payload, verifying the checksum,
/// the kind, and the schema version.
///
/// # Errors
///
/// [`StoreError::Corrupt`], [`StoreError::KindMismatch`], or
/// [`StoreError::SchemaSkew`].
pub fn decode<P: Payload>(text: &str) -> Result<P, StoreError> {
    decode_from::<P>(text, "<memory>")
}

/// Like [`decode`], attributing errors to `source` (a path).
///
/// # Errors
///
/// See [`decode`].
pub fn decode_from<P: Payload>(text: &str, source: &str) -> Result<P, StoreError> {
    let env = open_envelope(text, source)?;
    if env.kind_tag != P::KIND.tag() {
        return Err(StoreError::KindMismatch {
            found: env.kind_tag.to_string(),
            expected: P::KIND,
        });
    }
    if env.schema != P::SCHEMA {
        return Err(StoreError::SchemaSkew {
            kind: P::KIND,
            found: env.schema,
            expected: P::SCHEMA,
        });
    }
    P::decode_body(env.body).map_err(|reason| corrupt(source, reason))
}

/// Checksum- and header-verifies artifact text without decoding the
/// body. Returns the kind and schema found.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on damage; unknown kind tags are corrupt too.
pub fn inspect(text: &str, source: &str) -> Result<(ArtifactKind, u32), StoreError> {
    let env = open_envelope(text, source)?;
    let kind = ArtifactKind::from_tag(env.kind_tag)
        .ok_or_else(|| corrupt(source, format!("unknown artifact kind `{}`", env.kind_tag)))?;
    Ok((kind, env.schema))
}

// ---------------------------------------------------------------------
// Bit-exact float encoding.

/// Encodes a float as its 16-digit hex IEEE-754 bit pattern.
pub fn fhex(v: f64) -> String {
    let mut s = String::with_capacity(16);
    push_fhex(&mut s, v);
    s
}

/// Appends the [`fhex`] encoding of `v` to `out`.
fn push_fhex(out: &mut String, v: f64) {
    push_hex(out, &v.to_bits().to_be_bytes());
}

/// Appends the [`fhex`] encodings of `vs` to `out`, space-separated.
fn push_fhex_list(out: &mut String, vs: &[f64]) {
    out.reserve(vs.len() * 17);
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_fhex(out, v);
    }
}

/// Appends the line `key <fhex(v)>`.
fn push_fhex_field(out: &mut String, key: &str, v: f64) {
    out.push_str(key);
    out.push(' ');
    push_fhex(out, v);
    out.push('\n');
}

/// Value of each lowercase hex digit byte; `0xff` for every other byte.
const HEX_DIGIT: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Decodes a [`fhex`]-encoded float.
///
/// Accepts exactly what `u64::from_str_radix(tok, 16)` accepts on a
/// 16-byte token: 16 lowercase hex digits are decoded directly, and any
/// other token (uppercase digits, a leading `+`) falls back to it.
///
/// # Errors
///
/// Returns a reason string on malformed input.
pub fn parse_fhex(tok: &str) -> Result<f64, String> {
    let Ok(digits) = <&[u8; 16]>::try_from(tok.as_bytes()) else {
        return Err(format!("bad float bits `{tok}` (want 16 hex digits)"));
    };
    let mut bits = 0u64;
    let mut invalid = 0u8;
    for &b in digits {
        let d = HEX_DIGIT[usize::from(b)];
        invalid |= d;
        bits = bits << 4 | u64::from(d & 0x0f);
    }
    if invalid > 0x0f {
        return u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad float bits `{tok}`"));
    }
    Ok(f64::from_bits(bits))
}

/// The tokens [`str::split_whitespace`] yields, found byte by byte when
/// the text is ASCII (the hex-float rows always are) and by
/// `split_whitespace` itself otherwise.
enum Tokens<'a> {
    Ascii { text: &'a str, pos: usize },
    Unicode(std::str::SplitWhitespace<'a>),
}

fn tokens(text: &str) -> Tokens<'_> {
    if text.is_ascii() {
        Tokens::Ascii { text, pos: 0 }
    } else {
        Tokens::Unicode(text.split_whitespace())
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        // The ASCII bytes `char::is_whitespace` accepts.
        let space = |b: u8| matches!(b, b' ' | b'\t'..=b'\r');
        match self {
            Tokens::Unicode(split) => split.next(),
            Tokens::Ascii { text, pos } => {
                let bytes = text.as_bytes();
                while *pos < bytes.len() && space(bytes[*pos]) {
                    *pos += 1;
                }
                let start = *pos;
                while *pos < bytes.len() && !space(bytes[*pos]) {
                    *pos += 1;
                }
                (start < *pos).then(|| &text[start..*pos])
            }
        }
    }
}

/// Decodes the [`fhex`] tokens `toks` into `out`.
fn parse_fhex_into<'a>(
    toks: impl Iterator<Item = &'a str>,
    out: &mut Vec<f64>,
) -> Result<(), String> {
    for tok in toks {
        out.push(parse_fhex(tok)?);
    }
    Ok(())
}

fn parse_fhex_list(rest: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    parse_fhex_into(tokens(rest), &mut out)?;
    Ok(out)
}

/// Pulls `key value` off a body line, enforcing the key.
fn expect_field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    let line = line.ok_or_else(|| format!("missing `{key}` line"))?;
    line.strip_prefix(key)
        .map(str::trim)
        .ok_or_else(|| format!("expected `{key} ...`, got `{line}`"))
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} `{tok}`"))
}

// ---------------------------------------------------------------------
// TrainingSet

/// One labeled training sample: the injected instruction's feature
/// vector plus the observed outcome and the two label kinds derived
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRow {
    /// Raw (unstandardized) static features of the injected site.
    pub features: Vec<f64>,
    /// The bit flipped.
    pub bit: u32,
    /// Outcome label string (`symptom|detected|masked|SOC`).
    pub outcome: String,
    /// Positive for the SOC-generating classifier (IPAS).
    pub soc: bool,
    /// Positive for the symptom-generating classifier (baseline).
    pub symptom: bool,
}

/// Feature rows + labels extracted from one training campaign — the
/// single schema shared by the pipeline and offline analysis tooling.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    /// Workload display name (provenance only; not part of the key).
    pub workload: String,
    /// Feature column names, in row order.
    pub columns: Vec<String>,
    /// The samples.
    pub rows: Vec<TrainingRow>,
}

impl TrainingSet {
    /// Number of SOC-positive rows.
    pub fn num_soc(&self) -> usize {
        self.rows.iter().filter(|r| r.soc).count()
    }

    /// Number of symptom-positive rows.
    pub fn num_symptom(&self) -> usize {
        self.rows.iter().filter(|r| r.symptom).count()
    }

    /// Renders the rows as CSV (feature columns + bit, outcome, labels),
    /// the offline-analysis view of this artifact.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut header: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        header.extend_from_slice(&["bit", "outcome", "soc_label", "symptom_label"]);
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let mut cells: Vec<String> = row.features.iter().map(|v| v.to_string()).collect();
            cells.push(row.bit.to_string());
            cells.push(row.outcome.clone());
            cells.push((row.soc as u8).to_string());
            cells.push((row.symptom as u8).to_string());
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

impl Payload for TrainingSet {
    const KIND: ArtifactKind = ArtifactKind::TrainingSet;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("columns {}\n", self.columns.join(",")));
        out.push_str(&format!("rows {}\n", self.rows.len()));
        for row in &self.rows {
            let _ = write!(
                out,
                "{} {} {} {} ",
                row.bit,
                row.outcome,
                u8::from(row.soc),
                u8::from(row.symptom)
            );
            push_fhex_list(out, &row.features);
            out.push('\n');
        }
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let workload = expect_field(lines.next(), "workload")?.to_string();
        let columns: Vec<String> = expect_field(lines.next(), "columns")?
            .split(',')
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        let n: usize = parse_num(expect_field(lines.next(), "rows")?, "row count")?;
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("training set truncated: {i} of {n} rows present"))?;
            let mut toks = tokens(line);
            let bit = parse_num(toks.next().ok_or("empty row")?, "bit")?;
            let outcome = toks.next().ok_or("row missing outcome")?.to_string();
            let soc = toks.next().ok_or("row missing soc label")? == "1";
            let symptom = toks.next().ok_or("row missing symptom label")? == "1";
            let mut features = Vec::with_capacity(columns.len());
            parse_fhex_into(toks, &mut features)?;
            if features.len() != columns.len() {
                return Err(format!(
                    "row {i} has {} features, header names {}",
                    features.len(),
                    columns.len()
                ));
            }
            rows.push(TrainingRow {
                features,
                bit,
                outcome,
                soc,
                symptom,
            });
        }
        if lines.next().is_some() {
            return Err("trailing data after final row".to_string());
        }
        Ok(TrainingSet {
            workload,
            columns,
            rows,
        })
    }
}

// ---------------------------------------------------------------------
// TrainedModel

/// A trained, self-contained IPAS classifier: the SVM's support
/// expansion, the feature standardization fit on its training set, and
/// the hyperparameters plus cross-validation score that selected it.
///
/// All floats round-trip bit-exactly, so an imported model's decision
/// function is bit-identical to the exported one's.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// Soft-margin penalty `C`.
    pub c: f64,
    /// Grid-selected RBF `γ` (also stored with the SVM below).
    pub gamma: f64,
    /// Positive-class penalty multiplier used in training.
    pub pos_weight: f64,
    /// KKT tolerance used in training.
    pub tol: f64,
    /// SMO sweep budget used in training.
    pub max_passes: usize,
    /// Cross-validated Eq. 1 F-score of this configuration.
    pub f_score: f64,
    /// CV accuracy on the positive class.
    pub acc1: f64,
    /// CV accuracy on the negative class.
    pub acc2: f64,
    /// Per-feature standardization means.
    pub scaler_mean: Vec<f64>,
    /// Per-feature standardization deviations.
    pub scaler_std: Vec<f64>,
    /// Support vectors (standardized feature space).
    pub support: Vec<Vec<f64>>,
    /// `alpha_i * y_i` per support vector.
    pub coef: Vec<f64>,
    /// Decision-function bias.
    pub bias: f64,
}

impl Payload for TrainedModel {
    const KIND: ArtifactKind = ArtifactKind::TrainedModel;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        push_fhex_field(out, "c", self.c);
        push_fhex_field(out, "gamma", self.gamma);
        push_fhex_field(out, "pos-weight", self.pos_weight);
        push_fhex_field(out, "tol", self.tol);
        let _ = writeln!(out, "max-passes {}", self.max_passes);
        push_fhex_field(out, "f-score", self.f_score);
        push_fhex_field(out, "acc1", self.acc1);
        push_fhex_field(out, "acc2", self.acc2);
        out.push_str("mean ");
        push_fhex_list(out, &self.scaler_mean);
        out.push_str("\nstd ");
        push_fhex_list(out, &self.scaler_std);
        out.push('\n');
        push_fhex_field(out, "bias", self.bias);
        let _ = writeln!(out, "sv {}", self.support.len());
        for (sv, c) in self.support.iter().zip(&self.coef) {
            push_fhex(out, *c);
            out.push(' ');
            push_fhex_list(out, sv);
            out.push('\n');
        }
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let c = parse_fhex(expect_field(lines.next(), "c")?)?;
        let gamma = parse_fhex(expect_field(lines.next(), "gamma")?)?;
        let pos_weight = parse_fhex(expect_field(lines.next(), "pos-weight")?)?;
        let tol = parse_fhex(expect_field(lines.next(), "tol")?)?;
        let max_passes = parse_num(expect_field(lines.next(), "max-passes")?, "max-passes")?;
        let f_score = parse_fhex(expect_field(lines.next(), "f-score")?)?;
        let acc1 = parse_fhex(expect_field(lines.next(), "acc1")?)?;
        let acc2 = parse_fhex(expect_field(lines.next(), "acc2")?)?;
        let scaler_mean = parse_fhex_list(expect_field(lines.next(), "mean")?)?;
        let scaler_std = parse_fhex_list(expect_field(lines.next(), "std")?)?;
        let bias = parse_fhex(expect_field(lines.next(), "bias")?)?;
        let n: usize = parse_num(expect_field(lines.next(), "sv")?, "support count")?;
        if scaler_mean.len() != scaler_std.len() {
            return Err("scaler mean/std dimensionality mismatch".to_string());
        }
        let mut support = Vec::with_capacity(n);
        let mut coef = Vec::with_capacity(n);
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("model truncated: {i} of {n} support vectors present"))?;
            let mut toks = tokens(line);
            let c0 = match toks.next() {
                Some(tok) => parse_fhex(tok)?,
                None => return Err(format!("empty support-vector line {i}")),
            };
            let mut xs = Vec::with_capacity(scaler_mean.len());
            parse_fhex_into(toks, &mut xs)?;
            if xs.len() != scaler_mean.len() {
                return Err(format!(
                    "support vector {i} has dimension {}, scaler has {}",
                    xs.len(),
                    scaler_mean.len()
                ));
            }
            coef.push(c0);
            support.push(xs);
        }
        if lines.next().is_some() {
            return Err("trailing data after final support vector".to_string());
        }
        Ok(TrainedModel {
            c,
            gamma,
            pos_weight,
            tol,
            max_passes,
            f_score,
            acc1,
            acc2,
            scaler_mean,
            scaler_std,
            support,
            coef,
            bias,
        })
    }
}

// ---------------------------------------------------------------------
// CampaignSummary

/// Outcome counts of one fault-injection campaign, in §5.5 order
/// (symptom, detected, masked, SOC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Workload display name.
    pub workload: String,
    /// Planned runs.
    pub runs: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Clean-run dynamic instruction count.
    pub nominal_insts: u64,
    /// Classified-run counts: `[symptom, detected, masked, soc]`.
    pub counts: [u64; 4],
    /// Plans that exhausted their retry budget.
    pub harness_failures: u64,
}

impl CampaignSummary {
    /// Fraction of classified runs in outcome slot `i` (§5.5 order).
    pub fn fraction(&self, i: usize) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / total as f64
        }
    }

    /// SOC percentage of the campaign.
    pub fn soc_pct(&self) -> f64 {
        self.fraction(3) * 100.0
    }
}

impl Payload for CampaignSummary {
    const KIND: ArtifactKind = ArtifactKind::CampaignSummary;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("runs {}\n", self.runs));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("nominal-insts {}\n", self.nominal_insts));
        out.push_str(&format!(
            "counts {} {} {} {}\n",
            self.counts[0], self.counts[1], self.counts[2], self.counts[3]
        ));
        out.push_str(&format!("harness-failures {}\n", self.harness_failures));
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let workload = expect_field(lines.next(), "workload")?.to_string();
        let runs = parse_num(expect_field(lines.next(), "runs")?, "runs")?;
        let seed = parse_num(expect_field(lines.next(), "seed")?, "seed")?;
        let nominal_insts = parse_num(
            expect_field(lines.next(), "nominal-insts")?,
            "nominal-insts",
        )?;
        let counts_line = expect_field(lines.next(), "counts")?;
        let counts_vec: Vec<u64> = counts_line
            .split_whitespace()
            .map(|t| parse_num(t, "count"))
            .collect::<Result<_, _>>()?;
        let counts: [u64; 4] = counts_vec
            .try_into()
            .map_err(|_| "counts line must have 4 entries".to_string())?;
        let harness_failures = parse_num(
            expect_field(lines.next(), "harness-failures")?,
            "harness-failures",
        )?;
        Ok(CampaignSummary {
            workload,
            runs,
            seed,
            nominal_insts,
            counts,
            harness_failures,
        })
    }
}

// ---------------------------------------------------------------------
// ProtectedModule

/// A protected module in canonical IR text plus the duplication-pass
/// statistics that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedModule {
    /// Duplicable instructions considered by the pass.
    pub considered: u64,
    /// Instructions duplicated.
    pub duplicated: u64,
    /// `__ipas_check_*` comparisons inserted.
    pub checks: u64,
    /// Canonical printed IR. Stored verbatim so a warm run emits a
    /// byte-identical module.
    pub ir_text: String,
}

impl ProtectedModule {
    /// Builds from a module and its stats.
    pub fn from_module(
        module: &ipas_ir::Module,
        considered: u64,
        duplicated: u64,
        checks: u64,
    ) -> Self {
        ProtectedModule {
            considered,
            duplicated,
            checks,
            ir_text: module.to_text(),
        }
    }

    /// Parses the stored IR back into a module.
    ///
    /// # Errors
    ///
    /// Returns the IR parse error (would indicate a printer/parser bug:
    /// the checksum already proved the text is what was written).
    pub fn module(&self) -> Result<ipas_ir::Module, ipas_ir::parser::ParseError> {
        ipas_ir::parser::parse_module(&self.ir_text)
    }
}

impl Payload for ProtectedModule {
    const KIND: ArtifactKind = ArtifactKind::ProtectedModule;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("considered {}\n", self.considered));
        out.push_str(&format!("duplicated {}\n", self.duplicated));
        out.push_str(&format!("checks {}\n", self.checks));
        let ir_lines = self.ir_text.lines().count();
        out.push_str(&format!("ir {ir_lines}\n"));
        out.push_str(&self.ir_text);
        if !self.ir_text.ends_with('\n') {
            out.push('\n');
        }
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let considered = parse_num(expect_field(lines.next(), "considered")?, "considered")?;
        let duplicated = parse_num(expect_field(lines.next(), "duplicated")?, "duplicated")?;
        let checks = parse_num(expect_field(lines.next(), "checks")?, "checks")?;
        let n: usize = parse_num(expect_field(lines.next(), "ir")?, "ir line count")?;
        let mut ir_text = String::new();
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("IR truncated: {i} of {n} lines present"))?;
            ir_text.push_str(line);
            ir_text.push('\n');
        }
        if lines.next().is_some() {
            return Err("trailing data after IR text".to_string());
        }
        Ok(ProtectedModule {
            considered,
            duplicated,
            checks,
            ir_text,
        })
    }
}

// ---------------------------------------------------------------------
// FuzzRepro

/// A fuzzing finding: which oracle diverged, the seed and case index
/// that produced it, the full original input, and the delta-debugged
/// minimal reproducer. Inputs are stored verbatim so a repro replays
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRepro {
    /// Oracle that flagged the divergence (`engine-diff`, `roundtrip`,
    /// `passes`, `duplication`, `no-panic`).
    pub oracle: String,
    /// Input language: `scil` source or `ir` module text.
    pub input_kind: String,
    /// Campaign seed.
    pub seed: u64,
    /// Case index within the campaign (seed + case replays the input).
    pub case: u64,
    /// The oracle's divergence report.
    pub divergence: String,
    /// The generated input that diverged, verbatim.
    pub input: String,
    /// The minimized input (equal to `input` if minimization failed to
    /// shrink it), verbatim.
    pub minimized: String,
}

/// Appends a counted multi-line text block (`key <lines>` then the
/// verbatim lines) — the same shape `ProtectedModule` uses for IR text.
/// Blocks are newline-normalized: decode always yields text whose every
/// line (including the last) ends in `\n`.
fn encode_block(out: &mut String, key: &str, text: &str) {
    out.push_str(&format!("{key} {}\n", text.lines().count()));
    out.push_str(text);
    if !text.is_empty() && !text.ends_with('\n') {
        out.push('\n');
    }
}

fn decode_block<'a>(lines: &mut std::str::Lines<'a>, key: &str) -> Result<String, String> {
    let n: usize = parse_num(expect_field(lines.next(), key)?, key)?;
    let mut text = String::new();
    for i in 0..n {
        let line = lines
            .next()
            .ok_or_else(|| format!("`{key}` truncated: {i} of {n} lines present"))?;
        text.push_str(line);
        text.push('\n');
    }
    Ok(text)
}

impl Payload for FuzzRepro {
    const KIND: ArtifactKind = ArtifactKind::FuzzRepro;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("oracle {}\n", self.oracle));
        out.push_str(&format!("input-kind {}\n", self.input_kind));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("case {}\n", self.case));
        encode_block(out, "divergence", &self.divergence);
        encode_block(out, "input", &self.input);
        encode_block(out, "minimized", &self.minimized);
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let oracle = expect_field(lines.next(), "oracle")?.to_string();
        let input_kind = expect_field(lines.next(), "input-kind")?.to_string();
        let seed = parse_num(expect_field(lines.next(), "seed")?, "seed")?;
        let case = parse_num(expect_field(lines.next(), "case")?, "case")?;
        let divergence = decode_block(&mut lines, "divergence")?;
        let input = decode_block(&mut lines, "input")?;
        let minimized = decode_block(&mut lines, "minimized")?;
        if lines.next().is_some() {
            return Err("trailing data after minimized input".to_string());
        }
        Ok(FuzzRepro {
            oracle,
            input_kind,
            seed,
            case,
            divergence,
            input,
            minimized,
        })
    }
}

// ---------------------------------------------------------------------
// SectionProfile

/// One cached injection record of a section profile — the store-side
/// mirror of a faultsim `InjectionRecord` plus its plan index, in plain
/// string/integer fields (this crate never depends on the simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRecordRow {
    /// Plan index in the campaign's pre-drawn plan list.
    pub plan: u64,
    /// Fault-model wire token (e.g. `single-bit`).
    pub model: String,
    /// Injected function id.
    pub func: u64,
    /// Injected instruction id.
    pub inst: u64,
    /// Targeted dynamic index.
    pub target: u64,
    /// Corruption parameter.
    pub bit: u32,
    /// Outcome wire token (`symptom|detected|masked|soc`).
    pub outcome: String,
    /// Dynamic instructions executed by the faulty run.
    pub dynamic_insts: u64,
    /// Injection-to-end latency in dynamic instructions.
    pub latency: u64,
    /// Attempts the run took to classify.
    pub attempts: u32,
}

/// One cached harness failure of a section profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionFailureRow {
    /// Plan index.
    pub plan: u64,
    /// Targeted dynamic index.
    pub target: u64,
    /// Corruption parameter.
    pub bit: u32,
    /// Attempts consumed.
    pub attempts: u32,
    /// The last attempt's error (may span lines).
    pub error: String,
}

/// The cached injection outcomes of one section of a sectional
/// campaign, keyed in the store by the section's content fingerprint
/// plus the campaign's run identity. An incremental re-run splices
/// these rows in verbatim for sections whose fingerprint and plan
/// slice are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionProfile {
    /// Workload display name (provenance only).
    pub workload: String,
    /// Section display label (`@f`, `@f/loop0`; provenance only).
    pub section_label: String,
    /// Hex fingerprint of the section's content (label + block text).
    pub section_fingerprint: String,
    /// Hex digest of the section's plan slice (indices + parameters).
    pub plan_digest: String,
    /// Classified records, in plan order.
    pub records: Vec<SectionRecordRow>,
    /// Harness failures, in plan order.
    pub failures: Vec<SectionFailureRow>,
}

impl Payload for SectionProfile {
    const KIND: ArtifactKind = ArtifactKind::SectionProfile;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("section {}\n", self.section_label));
        out.push_str(&format!("fingerprint {}\n", self.section_fingerprint));
        out.push_str(&format!("plan-digest {}\n", self.plan_digest));
        out.push_str(&format!("records {}\n", self.records.len()));
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {} {} {}\n",
                r.plan,
                r.model,
                r.func,
                r.inst,
                r.target,
                r.bit,
                r.outcome,
                r.dynamic_insts,
                r.latency,
                r.attempts
            ));
        }
        out.push_str(&format!("failures {}\n", self.failures.len()));
        for f in &self.failures {
            out.push_str(&format!(
                "failure {} {} {} {}\n",
                f.plan, f.target, f.bit, f.attempts
            ));
            encode_block(out, "error", &f.error);
        }
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let workload = expect_field(lines.next(), "workload")?.to_string();
        let section_label = expect_field(lines.next(), "section")?.to_string();
        let section_fingerprint = expect_field(lines.next(), "fingerprint")?.to_string();
        let plan_digest = expect_field(lines.next(), "plan-digest")?.to_string();
        let n: usize = parse_num(expect_field(lines.next(), "records")?, "record count")?;
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("profile truncated: {i} of {n} records present"))?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 10 {
                return Err(format!("record {i} has {} fields, want 10", toks.len()));
            }
            records.push(SectionRecordRow {
                plan: parse_num(toks[0], "plan")?,
                model: toks[1].to_string(),
                func: parse_num(toks[2], "func")?,
                inst: parse_num(toks[3], "inst")?,
                target: parse_num(toks[4], "target")?,
                bit: parse_num(toks[5], "bit")?,
                outcome: toks[6].to_string(),
                dynamic_insts: parse_num(toks[7], "insts")?,
                latency: parse_num(toks[8], "latency")?,
                attempts: parse_num(toks[9], "attempts")?,
            });
        }
        let m: usize = parse_num(expect_field(lines.next(), "failures")?, "failure count")?;
        let mut failures = Vec::with_capacity(m);
        for i in 0..m {
            let head = expect_field(lines.next(), "failure")?;
            let toks: Vec<&str> = head.split_whitespace().collect();
            if toks.len() != 4 {
                return Err(format!("failure {i} has {} fields, want 4", toks.len()));
            }
            let error = decode_block(&mut lines, "error")?;
            failures.push(SectionFailureRow {
                plan: parse_num(toks[0], "plan")?,
                target: parse_num(toks[1], "target")?,
                bit: parse_num(toks[2], "bit")?,
                attempts: parse_num(toks[3], "attempts")?,
                error,
            });
        }
        if lines.next().is_some() {
            return Err("trailing data after final failure".to_string());
        }
        Ok(SectionProfile {
            workload,
            section_label,
            section_fingerprint,
            plan_digest,
            records,
            failures,
        })
    }
}

// ---------------------------------------------------------------------
// SectionIndex

/// One section's row in a [`SectionIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionIndexEntry {
    /// Hex fingerprint of the section's content.
    pub fingerprint: String,
    /// Hex digest of the section's plan slice.
    pub plan_digest: String,
    /// Store key of the section's [`SectionProfile`].
    pub profile_key: String,
    /// Plans assigned to the section.
    pub plans: u64,
    /// Section display label.
    pub label: String,
}

/// The baseline artifact of a sectional campaign: the campaign's run
/// identity plus one entry per section, in section-id order. An
/// incremental re-run loads this, re-partitions the new module, and
/// reuses every section whose fingerprint and plan digest still match
/// under an unchanged run identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionIndex {
    /// Workload display name.
    pub workload: String,
    /// Planned runs.
    pub runs: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Fault-model wire token.
    pub fault_model: String,
    /// Sampling-mode wire token (`dynamic|static`).
    pub sampling: String,
    /// Eligible dynamic results of the clean run.
    pub eligible_results: u64,
    /// Clean-run dynamic instruction count.
    pub nominal_insts: u64,
    /// Per-section entries, in section-id order.
    pub sections: Vec<SectionIndexEntry>,
}

impl Payload for SectionIndex {
    const KIND: ArtifactKind = ArtifactKind::SectionIndex;
    const SCHEMA: u32 = 1;

    fn encode_body(&self, out: &mut String) {
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("runs {}\n", self.runs));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("model {}\n", self.fault_model));
        out.push_str(&format!("sampling {}\n", self.sampling));
        out.push_str(&format!("eligible {}\n", self.eligible_results));
        out.push_str(&format!("nominal {}\n", self.nominal_insts));
        out.push_str(&format!("sections {}\n", self.sections.len()));
        for s in &self.sections {
            // The label goes last: it is the only field that could ever
            // grow internal structure.
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                s.fingerprint, s.plan_digest, s.profile_key, s.plans, s.label
            ));
        }
    }

    fn decode_body(body: &str) -> Result<Self, String> {
        let mut lines = body.lines();
        let workload = expect_field(lines.next(), "workload")?.to_string();
        let runs = parse_num(expect_field(lines.next(), "runs")?, "runs")?;
        let seed = parse_num(expect_field(lines.next(), "seed")?, "seed")?;
        let fault_model = expect_field(lines.next(), "model")?.to_string();
        let sampling = expect_field(lines.next(), "sampling")?.to_string();
        let eligible_results = parse_num(expect_field(lines.next(), "eligible")?, "eligible")?;
        let nominal_insts = parse_num(expect_field(lines.next(), "nominal")?, "nominal")?;
        let n: usize = parse_num(expect_field(lines.next(), "sections")?, "section count")?;
        let mut sections = Vec::with_capacity(n);
        for i in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("index truncated: {i} of {n} sections present"))?;
            let mut toks = line.splitn(5, ' ');
            let fingerprint = toks.next().ok_or("empty section line")?.to_string();
            let plan_digest = toks
                .next()
                .ok_or_else(|| format!("section {i} missing plan digest"))?
                .to_string();
            let profile_key = toks
                .next()
                .ok_or_else(|| format!("section {i} missing profile key"))?
                .to_string();
            let plans = parse_num(
                toks.next()
                    .ok_or_else(|| format!("section {i} missing plan count"))?,
                "plan count",
            )?;
            let label = toks
                .next()
                .ok_or_else(|| format!("section {i} missing label"))?
                .to_string();
            sections.push(SectionIndexEntry {
                fingerprint,
                plan_digest,
                profile_key,
                plans,
                label,
            });
        }
        if lines.next().is_some() {
            return Err("trailing data after final section".to_string());
        }
        Ok(SectionIndex {
            workload,
            runs,
            seed,
            fault_model,
            sampling,
            eligible_results,
            nominal_insts,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> TrainedModel {
        TrainedModel {
            c: 10.0,
            gamma: 0.25,
            pos_weight: 3.5,
            tol: 1e-3,
            max_passes: 8,
            f_score: 0.91,
            acc1: 0.9,
            acc2: 0.92,
            scaler_mean: vec![0.5, -1.25],
            scaler_std: vec![1.0, 2.0],
            support: vec![vec![0.1, 0.2], vec![-0.3, 0.4]],
            coef: vec![1.5, -1.5],
            bias: -0.125,
        }
    }

    /// What `parse_fhex` accepted before it decoded digits itself.
    fn radix_reference(tok: &str) -> Option<u64> {
        if tok.len() != 16 {
            return None;
        }
        u64::from_str_radix(tok, 16).ok()
    }

    fn assert_matches_radix(tok: &str) {
        let got = parse_fhex(tok).ok().map(f64::to_bits);
        assert_eq!(got, radix_reference(tok), "token {tok:?}");
    }

    #[test]
    fn parse_fhex_accepts_exactly_what_from_str_radix_did() {
        for tok in [
            "3ff8000000000000",
            "3FF8000000000000",
            "3fF8000000000000",
            "+3ff800000000000",
            "++3ff80000000000",
            "-3ff800000000000",
            "3ff800000000000",
            "3ff80000000000000",
            "3ff800000000000g",
            "3ff80000 0000000",
            "0x3ff80000000000",
            "3ff80000000000é",
            "é3ff80000000000",
            "ffffffffffffffff",
            "0000000000000000",
            "FFFFFFFFFFFFFFFF",
            "",
            "+",
        ] {
            assert_matches_radix(tok);
        }
        assert_eq!(
            parse_fhex("+3ff800000000000").unwrap().to_bits(),
            0x3ff800000000000
        );
        assert_eq!(parse_fhex("3FF8000000000000").unwrap(), 1.5);
        // Random tokens over an alphabet of digits, both cases, signs,
        // non-hex letters, a space and a two-byte character.
        let alphabet: Vec<char> = "0123456789abcdefABCDEF+-gxG é".chars().collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 14 + (x % 4) as usize;
            let tok: String = (0..len)
                .map(|i| {
                    let r = (x >> (i * 3 % 60)) as usize ^ i;
                    if (x >> 61) & 1 == 0 {
                        alphabet[r % 16]
                    } else {
                        alphabet[r % alphabet.len()]
                    }
                })
                .collect();
            assert_matches_radix(&tok);
        }
    }

    #[test]
    fn tokens_split_exactly_like_split_whitespace() {
        let alphabet: Vec<char> = "ab0 \t\n\x0b\x0c\r\x1c\u{85}\u{a0}\u{2003}é"
            .chars()
            .collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = (x % 12) as usize;
            // Half the texts draw from the ASCII part of the alphabet only.
            let pool = if (x >> 62) & 1 == 0 {
                9
            } else {
                alphabet.len()
            };
            let text: String = (0..len)
                .map(|i| alphabet[(x >> (i * 5 % 55)) as usize % pool])
                .collect();
            let want: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(tokens(&text).collect::<Vec<_>>(), want, "{text:?}");
        }
    }

    #[test]
    fn fhex_matches_formatted_bits() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-300, 6.02e23] {
            assert_eq!(fhex(v), format!("{:016x}", v.to_bits()));
            assert_eq!(parse_fhex(&fhex(v)).unwrap().to_bits(), v.to_bits());
        }
        let mut line = String::new();
        push_fhex_list(&mut line, &[1.0, -2.0]);
        assert_eq!(line, format!("{} {}", fhex(1.0), fhex(-2.0)));
        line.clear();
        push_fhex_list(&mut line, &[]);
        assert_eq!(line, "");
    }

    #[test]
    fn model_round_trips_exactly() {
        let m = sample_model();
        let text = encode(&m);
        let back: TrainedModel = decode(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn flipped_byte_is_checksum_error() {
        let text = encode(&sample_model());
        // Flip one hex digit inside the body.
        let pos = text.find("pos-weight ").unwrap() + "pos-weight ".len();
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let text = String::from_utf8(bytes).unwrap();
        match decode::<TrainedModel>(&text) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            other => panic!("expected checksum corruption, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_corrupt() {
        let text = encode(&sample_model());
        let cut = &text[..text.len() / 2];
        assert!(matches!(
            decode::<TrainedModel>(cut),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn bumped_schema_is_typed_skew() {
        let text = encode(&sample_model());
        let bumped = text.replace("schema 1\n", "schema 2\n");
        // Re-checksum so only the schema version differs.
        let body_end = bumped.rfind("checksum ").unwrap();
        let covered = &bumped[..body_end];
        let resummed = format!("{covered}checksum {}\n", hex(&sha256(covered.as_bytes())));
        match decode::<TrainedModel>(&resummed) {
            Err(StoreError::SchemaSkew {
                kind,
                found,
                expected,
            }) => {
                assert_eq!(kind, ArtifactKind::TrainedModel);
                assert_eq!((found, expected), (2, 1));
            }
            other => panic!("expected schema skew, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_typed_mismatch() {
        let summary = CampaignSummary {
            workload: "w".into(),
            runs: 10,
            seed: 1,
            nominal_insts: 1000,
            counts: [1, 2, 3, 4],
            harness_failures: 0,
        };
        let text = encode(&summary);
        match decode::<TrainedModel>(&text) {
            Err(StoreError::KindMismatch { found, expected }) => {
                assert_eq!(found, "campaign-summary");
                assert_eq!(expected, ArtifactKind::TrainedModel);
            }
            other => panic!("expected kind mismatch, got {other:?}"),
        }
    }

    #[test]
    fn training_set_round_trips() {
        let ts = TrainingSet {
            workload: "kernel".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                TrainingRow {
                    features: vec![1.0, -2.5],
                    bit: 13,
                    outcome: "SOC".into(),
                    soc: true,
                    symptom: false,
                },
                TrainingRow {
                    // An awkward irrational value, to exercise bit-exactness.
                    features: vec![0.0, std::f64::consts::PI / 3.0],
                    bit: 60,
                    outcome: "symptom".into(),
                    soc: false,
                    symptom: true,
                },
            ],
        };
        let back: TrainingSet = decode(&encode(&ts)).unwrap();
        assert_eq!(back, ts);
        assert_eq!(back.num_soc(), 1);
        assert_eq!(back.num_symptom(), 1);
        assert!(back.to_csv().starts_with("a,b,bit,outcome"));
    }

    #[test]
    fn campaign_summary_round_trips_and_fractions() {
        let s = CampaignSummary {
            workload: "HPCCG".into(),
            runs: 100,
            seed: 2016,
            nominal_insts: 123456,
            counts: [40, 10, 30, 20],
            harness_failures: 2,
        };
        let back: CampaignSummary = decode(&encode(&s)).unwrap();
        assert_eq!(back, s);
        assert!((back.fraction(3) - 0.2).abs() < 1e-12);
        assert!((back.soc_pct() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn protected_module_round_trips_verbatim() {
        let ir = "module \"m\"\n\nfn @main() -> i64 {\nbb0:\n  ret 0\n}\n";
        let module = ipas_ir::parser::parse_module(ir).unwrap();
        let pm = ProtectedModule::from_module(&module, 5, 3, 2);
        let back: ProtectedModule = decode(&encode(&pm)).unwrap();
        assert_eq!(back.ir_text, pm.ir_text);
        assert_eq!(back.module().unwrap().to_text(), pm.ir_text);
    }

    #[test]
    fn inspect_reports_kind_and_schema() {
        let text = encode(&sample_model());
        let (kind, schema) = inspect(&text, "<memory>").unwrap();
        assert_eq!(kind, ArtifactKind::TrainedModel);
        assert_eq!(schema, TrainedModel::SCHEMA);
    }

    #[test]
    fn fuzz_repro_round_trips_verbatim() {
        let r = FuzzRepro {
            oracle: "engine-diff".into(),
            input_kind: "ir".into(),
            seed: 2016,
            case: 17,
            divergence: "status: reference Completed, compiled Trapped(OutOfBounds)\n".into(),
            input: "fn @main() -> i64 {\nbb0:\n  ret 0\n}\n".into(),
            minimized: "fn @main() -> i64 {\nbb0:\n  ret 0\n}\n".into(),
        };
        let back: FuzzRepro = decode(&encode(&r)).unwrap();
        assert_eq!(back, r);
        let (kind, schema) = inspect(&encode(&r), "<memory>").unwrap();
        assert_eq!(kind, ArtifactKind::FuzzRepro);
        assert_eq!(schema, FuzzRepro::SCHEMA);
    }

    #[test]
    fn section_profile_round_trips() {
        let p = SectionProfile {
            workload: "comd".into(),
            section_label: "@force/loop0".into(),
            section_fingerprint: "ab12".into(),
            plan_digest: "cd34".into(),
            records: vec![SectionRecordRow {
                plan: 7,
                model: "single-bit".into(),
                func: 1,
                inst: 22,
                target: 9000,
                bit: 41,
                outcome: "soc".into(),
                dynamic_insts: 123456,
                latency: 789,
                attempts: 1,
            }],
            failures: vec![SectionFailureRow {
                plan: 11,
                target: 42,
                bit: 5,
                attempts: 3,
                error: "panicked: \"index out\nof bounds\"".into(),
            }],
        };
        let back: SectionProfile = decode(&encode(&p)).unwrap();
        // Multi-line errors are newline-normalized by the block codec.
        assert_eq!(
            back.failures[0].error,
            "panicked: \"index out\nof bounds\"\n"
        );
        let mut normalized = p.clone();
        normalized.failures[0].error.push('\n');
        assert_eq!(back, normalized);
        let (kind, schema) = inspect(&encode(&p), "<memory>").unwrap();
        assert_eq!(kind, ArtifactKind::SectionProfile);
        assert_eq!(schema, SectionProfile::SCHEMA);
    }

    #[test]
    fn section_index_round_trips() {
        let idx = SectionIndex {
            workload: "hpccg".into(),
            runs: 400,
            seed: 2016,
            fault_model: "single-bit".into(),
            sampling: "dynamic".into(),
            eligible_results: 987654,
            nominal_insts: 1234567,
            sections: vec![
                SectionIndexEntry {
                    fingerprint: "aa".into(),
                    plan_digest: "bb".into(),
                    profile_key: "cc-dd".into(),
                    plans: 123,
                    label: "@main".into(),
                },
                SectionIndexEntry {
                    fingerprint: "ee".into(),
                    plan_digest: "ff".into(),
                    profile_key: "11-22".into(),
                    plans: 277,
                    label: "@ddot/loop0".into(),
                },
            ],
        };
        let back: SectionIndex = decode(&encode(&idx)).unwrap();
        assert_eq!(back, idx);
        let (kind, schema) = inspect(&encode(&idx), "<memory>").unwrap();
        assert_eq!(kind, ArtifactKind::SectionIndex);
        assert_eq!(schema, SectionIndex::SCHEMA);
    }

    #[test]
    fn nan_and_infinity_round_trip() {
        let mut m = sample_model();
        m.bias = f64::NAN;
        m.c = f64::INFINITY;
        m.gamma = -0.0;
        let back: TrainedModel = decode(&encode(&m)).unwrap();
        assert!(back.bias.is_nan());
        assert_eq!(back.c, f64::INFINITY);
        assert_eq!(back.gamma.to_bits(), (-0.0f64).to_bits());
    }
}

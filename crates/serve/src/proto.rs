//! The wire protocol: newline-delimited flat JSON over a Unix socket.
//!
//! One request per connection. The client sends a single line; the
//! daemon answers with one line (`status`, `ok`, `error`, `stats`) or,
//! for streaming requests (`submit` with `watch`, `watch`), a sequence
//! of event lines terminated by a `result` or `failed` line. Every
//! line uses the same flat-JSON codec as the campaign journal
//! ([`ipas_store::LineBuilder`] / [`ipas_store::Fields`]), so journal
//! records can be forwarded to subscribers verbatim.
//!
//! Request kinds:
//!
//! | kind       | fields                               |
//! |------------|--------------------------------------|
//! | `submit`   | a full [`JobSpec`] (+ `watch`: 0/1)  |
//! | `status`   | `id`                                 |
//! | `watch`    | `id`                                 |
//! | `cancel`   | `id`                                 |
//! | `stats`    | —                                    |
//! | `shutdown` | —                                    |

use ipas_core::jobspec::JobSpec;
use ipas_store::{Fields, LineBuilder};

use crate::job::Progress;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Submit a job; with `watch` the connection stays open and streams
    /// the job's events through its terminal line.
    Submit {
        /// The work description.
        spec: JobSpec,
        /// Stream events instead of returning after the ack.
        watch: bool,
    },
    /// One-line progress snapshot for a job id.
    Status(String),
    /// Stream an existing job's events from the beginning.
    Watch(String),
    /// Request cooperative cancellation of a job id.
    Cancel(String),
    /// Daemon-wide counters.
    Stats,
    /// Graceful shutdown: drain in-flight chunks, checkpoint the rest.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable reason suitable for an [`error_line`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = Fields::parse(line).ok_or("malformed request line")?;
    let id = |fields: &Fields| {
        fields
            .str("id")
            .map(str::to_string)
            .ok_or_else(|| "missing field \"id\"".to_string())
    };
    match fields.kind() {
        "submit" => Ok(Request::Submit {
            spec: JobSpec::decode(line, "submit")?,
            watch: fields.num("watch") == Some(1),
        }),
        "status" => Ok(Request::Status(id(&fields)?)),
        "watch" => Ok(Request::Watch(id(&fields)?)),
        "cancel" => Ok(Request::Cancel(id(&fields)?)),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request kind {other:?}")),
    }
}

/// Builds a request line for simple id-addressed requests.
pub fn id_request_line(kind: &str, id: &str) -> String {
    LineBuilder::new(kind).str("id", id).finish()
}

/// Builds a bare request line (`stats`, `shutdown`).
pub fn bare_request_line(kind: &str) -> String {
    LineBuilder::new(kind).finish()
}

/// The daemon's error response.
pub fn error_line(reason: &str) -> String {
    LineBuilder::new("error").str("reason", reason).finish()
}

/// The daemon's submit acknowledgement. `coalesced` reports whether the
/// spec deduplicated onto an already-known job.
pub fn accepted_line(id: &str, state: &str, coalesced: bool) -> String {
    LineBuilder::new("accepted")
        .str("id", id)
        .str("state", state)
        .num("coalesced", u64::from(coalesced))
        .finish()
}

/// The daemon's status response (also used as the `ok` body for
/// cancel).
pub fn status_line(id: &str, progress: &Progress) -> String {
    let mut b = LineBuilder::new("status")
        .str("id", id)
        .str("state", progress.state.label())
        .num("executed", progress.executed as u64)
        .num("total", progress.total as u64)
        .num("resumed", progress.resumed as u64);
    if let Some(error) = &progress.error {
        b = b.str("error", error);
    }
    b.finish()
}

/// The counters of the daemon's workload cache (see
/// [`crate::server`]'s module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Workloads held.
    pub entries: u64,
    /// Bytes they count for against the cap.
    pub bytes: u64,
    /// Lookups the cache answered.
    pub hits: u64,
    /// Lookups that built a workload. An eval job that misses looks up
    /// its program's workload as well: a second hit or miss.
    pub misses: u64,
}

/// The daemon-wide counters response.
pub fn stats_line(jobs: u64, executed_runs: u64, queued: u64, workloads: CacheStats) -> String {
    LineBuilder::new("stats")
        .num("jobs", jobs)
        .num("executed_runs", executed_runs)
        .num("queued", queued)
        .num("workloads", workloads.entries)
        .num("workload_bytes", workloads.bytes)
        .num("workload_hits", workloads.hits)
        .num("workload_misses", workloads.misses)
        .finish()
}

/// A live progress event pushed into a job's event log.
pub fn progress_event(executed: usize, total: usize, resumed: usize) -> String {
    LineBuilder::new("progress")
        .num("executed", executed as u64)
        .num("total", total as u64)
        .num("resumed", resumed as u64)
        .finish()
}

/// The terminal success event. The artifact payload (summary text,
/// protected IR, model listing) rides in `payload`; the codec escapes
/// newlines, so multi-line payloads stay one event line.
pub fn result_event(id: &str, payload: &str) -> String {
    LineBuilder::new("result")
        .str("id", id)
        .str("payload", payload)
        .finish()
}

/// The terminal failure event.
pub fn failed_event(id: &str, reason: &str) -> String {
    LineBuilder::new("failed")
        .str("id", id)
        .str("reason", reason)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use ipas_core::jobspec::JobKind;

    #[test]
    fn parses_each_request_kind() {
        let spec = JobSpec::new(
            JobKind::Campaign,
            "t",
            "wl",
            "fn main() -> int { output_i(1); return 0; }",
        );
        let mut line = spec.encode("submit");
        assert!(matches!(
            parse_request(&line).unwrap(),
            Request::Submit { watch: false, .. }
        ));
        line = line.trim_end().to_string();
        line.truncate(line.len() - 1);
        line.push_str(",\"watch\":1}");
        assert!(matches!(
            parse_request(&line).unwrap(),
            Request::Submit { watch: true, .. }
        ));
        assert!(matches!(
            parse_request(&id_request_line("status", "ab12")).unwrap(),
            Request::Status(id) if id == "ab12"
        ));
        assert!(matches!(
            parse_request(&id_request_line("watch", "ab12")).unwrap(),
            Request::Watch(_)
        ));
        assert!(matches!(
            parse_request(&id_request_line("cancel", "ab12")).unwrap(),
            Request::Cancel(_)
        ));
        assert!(matches!(
            parse_request(&bare_request_line("stats")).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(&bare_request_line("shutdown")).unwrap(),
            Request::Shutdown
        ));
        assert!(parse_request("garbage").is_err());
        assert!(parse_request(&bare_request_line("reboot")).is_err());
    }

    #[test]
    fn response_lines_round_trip_through_fields() {
        let progress = Progress {
            state: JobState::Running,
            executed: 5,
            total: 12,
            resumed: 3,
            error: None,
        };
        let line = status_line("abcd", &progress);
        let fields = Fields::parse(&line).unwrap();
        assert_eq!(fields.kind(), "status");
        assert_eq!(fields.str("state"), Some("running"));
        assert_eq!(fields.num("executed"), Some(5));
        assert_eq!(fields.num("resumed"), Some(3));

        let multi = "line one\nline two\n";
        let fields = Fields::parse(&result_event("abcd", multi)).unwrap();
        assert_eq!(fields.str("payload"), Some(multi), "payload newline-safe");

        let fields = Fields::parse(&accepted_line("abcd", "queued", true)).unwrap();
        assert_eq!(fields.num("coalesced"), Some(1));

        let workloads = CacheStats {
            entries: 2,
            bytes: 4096,
            hits: 5,
            misses: 2,
        };
        let fields = Fields::parse(&stats_line(7, 448, 1, workloads)).unwrap();
        assert_eq!(fields.kind(), "stats");
        assert_eq!(fields.num("executed_runs"), Some(448));
        assert_eq!(fields.num("workloads"), Some(2));
        assert_eq!(fields.num("workload_bytes"), Some(4096));
        assert_eq!(fields.num("workload_hits"), Some(5));
        assert_eq!(fields.num("workload_misses"), Some(2));
    }
}

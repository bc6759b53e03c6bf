//! `ipas-serve`: the campaign service — an async-free daemon that
//! accepts protect/train/campaign/eval jobs over a Unix-domain socket
//! and executes them on a sharded work-stealing worker pool.
//!
//! The protection pipeline's stages are deterministic functions of
//! their inputs, which makes a *service* the natural deployment shape:
//! many clients (CI runs, sweeps, notebooks) submit work described by
//! serializable [`ipas_core::jobspec::JobSpec`]s, identical requests
//! coalesce onto one execution, and every artifact lands once in a
//! shared content-addressed store with per-tenant registries and
//! quotas.
//!
//! Layers:
//!
//! - [`scheduler`] — threads + sharded deques + stealing; no async
//!   runtime, no dependencies;
//! - [`job`] — deduplicated job state and the replayable [`job::EventLog`]
//!   every subscriber reads (which is what makes concurrent identical
//!   submissions byte-identical);
//! - [`proto`] — newline-delimited flat JSON over the socket, sharing
//!   the campaign journal's codec so journal records stream to clients
//!   verbatim;
//! - [`server`] — the daemon: prepare/chunk/finalize tasks, a
//!   byte-capped cache of prepared workloads shared across jobs, `.job`
//!   checkpoints, journal-backed restart-resume, graceful drain on
//!   `SIGTERM`;
//! - [`client`] — the `ipas client` side: submit/status/watch/cancel/
//!   stats/shutdown.

#![warn(missing_docs)]

mod cache;
pub mod client;
pub mod job;
pub mod proto;
pub mod scheduler;
pub mod server;

pub use client::{Client, JobOutcome};
pub use job::{EventLog, Job, JobState, Progress};
pub use proto::Request;
pub use scheduler::Scheduler;
pub use server::{run_daemon, DaemonConfig, DaemonReport};

use std::path::PathBuf;

/// Errors surfaced by the daemon setup and the client.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket I/O failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The artifact store could not be opened.
    Store(String),
    /// The daemon refused the request (bad spec, quota, unknown job).
    Refused(String),
    /// The job executed and failed; the reason came over the wire.
    JobFailed(String),
    /// The peer sent something outside the protocol.
    Protocol(String),
}

impl ServeError {
    pub(crate) fn io(path: PathBuf, error: std::io::Error) -> Self {
        ServeError::Io { path, error }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            ServeError::Store(e) => write!(f, "artifact store: {e}"),
            ServeError::Refused(reason) => write!(f, "refused: {reason}"),
            ServeError::JobFailed(reason) => write!(f, "job failed: {reason}"),
            ServeError::Protocol(reason) => write!(f, "protocol error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

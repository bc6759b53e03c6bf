//! Differential fuzzing for the SciL → IR → interpreter stack.
//!
//! IPAS's whole value proposition is catching *silent* corruption, so
//! the reproduction itself must not silently diverge: the compiled
//! engine, the pass pipeline, and the duplication transform each claim
//! semantic equivalence that hand-written differential tests only spot
//! check. This crate makes the checking systematic:
//!
//! * **generators** ([`scil_gen`], [`ir_gen`]) — seeded, deterministic,
//!   *structured* program generation. SciL programs are built from a
//!   typed statement/expression grammar and always terminate; IR
//!   modules are built through [`ipas_ir::FunctionBuilder`] and always
//!   pass the verifier, while still reaching trapping paths (division,
//!   wild indices, overflowing `gep`s) on purpose;
//! * **mutators** ([`mutate`]) — byte- and line-level corruption
//!   (including non-ASCII injection) of well-formed inputs, feeding the
//!   no-panic oracle;
//! * **oracles** ([`oracle`]) — five differential checks, each
//!   returning a typed [`oracle::Divergence`] instead of asserting:
//!   reference vs compiled engine (full `RunOutput` equality),
//!   printer→parser round-trip, pass-pipeline semantic preservation
//!   (the default pipeline plus seeded random pass orders through the
//!   pass manager, divergences bisected to the first offending pass
//!   application), duplication-transform identity under zero faults,
//!   and no-panic (malformed input must surface as a typed error or
//!   trap, never a host panic);
//! * **minimizer** ([`minimize`]) — delta debugging over blocks and
//!   instructions (and lines/bytes for textual inputs), re-verifying
//!   every candidate so the minimized repro is still a valid program
//!   that reproduces the same oracle's divergence;
//! * **campaign driver** ([`campaign`]) — the seeded loop behind
//!   `ipas fuzz`, persisting findings as [`ipas_store::FuzzRepro`]
//!   artifacts in the content-addressed store.

#![warn(missing_docs)]

pub mod campaign;
pub mod ir_gen;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod scil_gen;

pub use campaign::{run_fuzz, FuzzConfig, FuzzFinding, FuzzReport};
pub use ipas_interp::FaultModel;
pub use minimize::{minimize_module, minimize_module_with, minimize_text, MinimizeStats};
pub use oracle::{Divergence, OracleKind};

//! An interpreter (virtual machine) for the `ipas-ir` SSA IR.
//!
//! This crate stands in for native execution in the IPAS reproduction. It
//! provides everything the fault-injection campaigns need:
//!
//! * **deterministic execution** of whole modules, with dynamic
//!   instruction counting (the slowdown metric of the paper is reported
//!   as the ratio of dynamic instruction counts);
//! * **trap detection** — invalid memory accesses, division by zero, call
//!   stack exhaustion — which model the paper's *architecture-level
//!   symptoms*;
//! * **hang detection** via an instruction budget (the paper counts
//!   "substantially longer execution time" as an observable symptom);
//! * a **fault-injection hook** that flips one bit of the result of a
//!   chosen dynamic instruction instance ([`Injection`]);
//! * the **IPAS detector runtime**: `__ipas_check_*` intrinsic calls
//!   terminate the run with [`RunStatus::Detected`] on mismatch;
//! * an [`env::Env`] abstraction over the MPI surface so the same
//!   interpreter core runs serially or under `ipas-mpisim`.
//!
//! Two engines execute the same semantics (see `docs/interpreter.md` at
//! the repository root):
//!
//! * [`Machine`] — the tree-walking **reference** interpreter;
//! * [`CompiledMachine`] — the pre-decoded engine: one
//!   [`CompiledProgram`] lowering per module, then resettable machines
//!   that reuse their allocations across runs. Bit-identical to the
//!   reference (enforced by a differential oracle) and several times
//!   faster, which makes it the [`Engine::default`].
//!
//! # Example
//!
//! ```
//! use ipas_ir::parser::parse_module;
//! use ipas_interp::{Machine, RunConfig};
//!
//! let module = parse_module(r#"
//! fn @main() -> i64 {
//! bb0:
//!   %v0 = add i64 40, 2
//!   %v1 = call output_i64(%v0) -> void
//!   ret %v0
//! }
//! "#).unwrap();
//! let mut machine = Machine::new(&module);
//! let run = machine.run(&RunConfig::default()).unwrap();
//! assert_eq!(run.outputs.as_ints(), vec![42]);
//! ```

#![warn(missing_docs)]

pub mod compiled;
pub mod env;
pub mod machine;
pub mod memory;
pub mod rtval;
pub mod trap;

pub use compiled::{
    CompiledMachine, CompiledProgram, Engine, Ladder, Skipped, MAX_CHECKPOINTS, MAX_LADDER_BYTES,
};
pub use env::{Env, SerialEnv};
pub use machine::{
    is_fault_site, FaultModel, Injection, Machine, OutputStream, RunConfig, RunError, RunOutput,
    RunStatus, SiteClass,
};
pub use memory::{gep_addr, Memory, POISON_ADDR};
pub use rtval::RtVal;
pub use trap::Trap;

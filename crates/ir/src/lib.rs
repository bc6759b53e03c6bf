//! A compact, typed SSA intermediate representation modeled after LLVM IR.
//!
//! This crate is the compiler substrate for the IPAS reproduction. The
//! original paper implements IPAS as LLVM 3.6 passes; everything IPAS needs
//! from LLVM — instruction opcodes and categories, basic blocks, functions,
//! def-use chains, and a pass pipeline — is provided here from scratch.
//!
//! # Architecture
//!
//! * [`Module`] — a collection of [`Function`]s addressed by [`FuncId`].
//! * [`Function`] — an arena of [`Inst`]s ([`InstId`]) grouped into
//!   [`Block`]s ([`BlockId`]); the block vector order is the layout order.
//! * [`Value`] — an SSA operand: an instruction result, a function
//!   parameter, or a constant.
//! * [`FunctionBuilder`] — an append-oriented builder used by the SciL
//!   frontend and by tests.
//! * [`printer`]/[`parser`] — a round-trippable textual format.
//! * [`verify`] — structural and type checking.
//! * [`dom`] — dominator tree and dominance frontiers.
//! * [`passes`] — mem2reg (SSA construction), constant folding, and dead
//!   code elimination.
//! * [`json`] — the flat JSON-lines codec shared by the journal, job
//!   files, the serving protocol and pass statistics.
//! * [`sha256`] — the one SHA-256 behind store keys, artifact checksums
//!   and journal headers, on the x86-64 SHA extensions when present.
//!
//! # Example
//!
//! Build, verify and print a function computing `a * a + b`:
//!
//! ```
//! use ipas_ir::{FunctionBuilder, Module, Type, Value, BinOp};
//!
//! let mut module = Module::new("example");
//! let mut b = FunctionBuilder::new("maddsq", &[Type::I64, Type::I64], Type::I64);
//! let entry = b.entry_block();
//! b.switch_to_block(entry);
//! let a = Value::param(0);
//! let sq = b.binary(BinOp::Mul, Type::I64, a, a);
//! let sum = b.binary(BinOp::Add, Type::I64, sq, Value::param(1));
//! b.ret(Some(sum));
//! let func = b.finish();
//! ipas_ir::verify::verify_function(&func).unwrap();
//! module.add_function(func);
//! assert!(module.to_text().contains("mul i64"));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod dom;
pub mod function;
pub mod inst;
pub mod json;
pub mod module;
pub mod parser;
pub mod passes;
pub mod passmgr;
pub mod printer;
pub mod sha256;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{Block, BlockId, Function, InstId};
pub use inst::{BinOp, CastOp, FcmpPred, IcmpPred, Inst, Intrinsic};
pub use module::{FuncId, Module};
pub use types::Type;
pub use value::{Constant, Value};

//! The pre-decoded execution engine.
//!
//! The reference interpreter in [`crate::machine`] walks the IR arena on
//! every dynamic instruction: it chases `InstId` indirections, pattern
//! matches [`ipas_ir::Value`] operands, converts constants, scans phi
//! incoming lists per block entry, and allocates a fresh register file
//! per call. Fault-injection campaigns execute the same module thousands
//! of times, so all of that per-instruction decode work is paid
//! redundantly — the cost FastFlip-style campaign optimization targets.
//!
//! [`CompiledProgram::compile`] performs the decode **once** per module:
//!
//! * every function is flattened into a dense array of [`CInst`]s in
//!   block-layout order, phis removed;
//! * SSA value IDs, parameters, *and constants* are resolved to frame
//!   slots — dense `u32` indices into a contiguous per-call window of
//!   one reusable value stack. Constants are interned into a
//!   per-function pool whose register images are copied into the frame
//!   tail on entry, so every operand read is one indexed load with no
//!   operand-kind branch;
//! * the static result type of every instruction is baked into its
//!   opcode variant, so the stack holds raw 64-bit register images
//!   (`u64`) instead of tagged [`RtVal`]s — no enum dispatch, no
//!   bits/value conversion in the hot loop. Booleans are kept canonical
//!   (`0`/`1`), which `Trunc`'s mask, comparison results, and the
//!   width-1 injection flip all preserve;
//! * branch targets become instruction indices, and each CFG edge
//!   carries its precomputed phi move-list (a parallel copy executed
//!   when the edge is taken);
//! * `gep` with a constant index folds to a precomputed byte offset,
//!   and casts that are the identity on register images (`zext` of a
//!   canonical bool, `bitcast`, `ptrtoint`, `inttoptr`) collapse to a
//!   single [`CInst::CastId`] opcode.
//!
//! [`CompiledMachine`] then executes the flat code with a resettable
//! value stack, alloca list, and [`Memory`] that keep their allocations
//! across runs.
//!
//! # Lowering invariants
//!
//! The compiled engine must be *bit-identical* to the reference, not
//! merely equivalent: campaign records embed `dynamic_insts`,
//! `eligible_results` ordering, injection sites `(FuncId, InstId)`, and
//! hang/watchdog cut-offs, and `--engine` must never change a campaign
//! result. Concretely:
//!
//! * every non-phi instruction charges `HotCounters::tick` (the
//!   register-resident watermark form of the reference's `tick`: same
//!   budget stop instant, same poison/deadline poll at the same
//!   4096-instruction cadence) *before* executing, in original
//!   block-layout order — at instruction boundaries through the
//!   `tick_due` half, whose slow path also serves golden checkpoints;
//! * taking a CFG edge charges `dynamic_insts` by the number of phi
//!   moves with **no** budget or poll check, matching the reference's
//!   block-entry parallel copy;
//! * eligible results are counted by `HotCounters::inject` — the
//!   bit-image twin of the reference's `maybe_inject`, fed the
//!   precomputed static bit width — in the same dynamic order, and
//!   injected sites are reported under the original [`InstId`];
//! * arithmetic is performed on the same `i64`/`f64` reconstructions
//!   the reference's typed ops use (verified IR guarantees the static
//!   type equals the runtime type), traps check the identical
//!   conditions, and intrinsics rebuild typed [`RtVal`] arguments and
//!   call the shared [`crate::machine::exec_intrinsic`].
//!
//! `tests/differential.rs` (workspace root) and the campaign
//! bit-identity suite in `ipas-faultsim` enforce all of this against
//! the reference on the five SciL workloads plus property-generated
//! programs.

use std::collections::HashMap;

use ipas_ir::inst::Callee;
use ipas_ir::passes::constfold::saturating_f64_to_i64;
use ipas_ir::{
    BinOp, BlockId, CastOp, Constant, FcmpPred, FuncId, Function, IcmpPred, Inst, InstId,
    Intrinsic, Module, Type, Value,
};

use crate::env::{Env, SerialEnv};
use crate::machine::{
    exec_intrinsic, is_fault_site, no_such_function, validate_entry, HotCounters, Injection,
    RunConfig, RunError, RunOutput, RunState, SiteClass, Stop, MAX_CALL_DEPTH,
};
use crate::memory::{gep_addr, Image, Memory, POISON_ADDR};
use crate::rtval::RtVal;
use crate::trap::Trap;

/// Which interpreter executes a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The tree-walking interpreter in [`crate::machine`] — the
    /// reference semantics.
    Reference,
    /// The pre-decoded engine in this module (default; bit-identical to
    /// the reference, several times faster).
    #[default]
    Compiled,
}

impl Engine {
    /// Both engines, in documentation order.
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Compiled];

    /// The CLI spelling of this engine.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" | "ref" => Ok(Engine::Reference),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected `reference` or `compiled`)"
            )),
        }
    }
}

/// Sentinel slot for instructions that produce no storable value
/// (void calls).
const NO_SLOT: u32 = u32::MAX;

/// Injection width of a 64-bit result (`i64`, `f64`, `ptr`).
const W64: u32 = 64;
/// Injection width of a boolean result.
const W1: u32 = 1;

/// A pre-decoded call target.
#[derive(Copy, Clone, Debug)]
enum CCallee {
    Func(FuncId),
    Intrinsic(Intrinsic),
}

/// One CFG edge: the target instruction index and the phi parallel-copy
/// (`(dst, src)` slot pairs) executed when the edge is taken.
#[derive(Clone, Debug)]
struct Edge {
    target: u32,
    moves: Box<[(u32, u32)]>,
}

/// A pre-decoded instruction. Operands are frame-slot indices (the
/// constant pool lives in the frame tail), and the static result type
/// is baked into the variant (plus a `width` field where it varies), so
/// execution never consults [`Type`]. `site` fields carry the original
/// [`InstId`] so injection records are engine-independent.
#[derive(Clone, Debug)]
enum CInst {
    /// Non-trapping integer binary op (`add` … `ashr`, excluding
    /// `sdiv`/`srem`).
    IBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// `sdiv` (`rem: false`) or `srem` (`rem: true`) — the trapping
    /// integer ops.
    IDiv {
        rem: bool,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// Float binary op (`fadd` … `frem`).
    FBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// Bitwise op on booleans (`and`/`or`/`xor` at type `bool`);
    /// canonical operands stay canonical.
    BBin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// All operand types (`i64`, `ptr`, canonical `bool`) compare as
    /// sign-reinterpreted images, exactly like the reference's per-type
    /// arms.
    Icmp {
        pred: IcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    Fcmp {
        pred: FcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
    },
    /// An `icmp` immediately consumed by the next instruction, a
    /// `condbr` on its result: one dispatch, but still *two*
    /// instructions for tick/injection accounting (the compare ticks,
    /// injects, and stores its result — phis may read it — then the
    /// branch ticks and takes the edge on the possibly-flipped bit).
    IcmpBr {
        pred: IcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `condbr`'s own [`InstId`] (branch-class site).
        br_site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    /// `fcmp` + `condbr`, fused like [`CInst::IcmpBr`].
    FcmpBr {
        pred: FcmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `condbr`'s own [`InstId`] (branch-class site).
        br_site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    /// A non-trapping integer binary op immediately followed by an
    /// unconditional `br` — the shape of every loop back-edge
    /// (increment, then jump). One dispatch, two instructions for tick
    /// accounting: the op ticks, injects, and stores, then the branch
    /// ticks and takes the edge.
    IBinBr {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        edge: u32,
    },
    /// A float binary op immediately consumed by the next instruction,
    /// a `store` of its result: one dispatch, two instructions for tick
    /// accounting. The (possibly flipped) result still stores to `dst`
    /// — it may have other users — and that same image is what the
    /// store writes to memory.
    FBinStore {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        addr: u32,
    },
    /// `sitofp`.
    CastSitofp {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// `fptosi` (saturating, like the reference).
    CastFptosi {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// `trunc` to bool: masks to the canonical single bit.
    CastTrunc {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    /// Casts that are the identity on register images: `zext` (of a
    /// canonical bool), `bitcast`, `ptrtoint`, `inttoptr`. Still an
    /// eligible injection site of width 64.
    CastId {
        arg: u32,
        dst: u32,
        site: InstId,
    },
    Select {
        cond: u32,
        then_v: u32,
        else_v: u32,
        dst: u32,
        site: InstId,
        /// Static bit width of the selected type.
        width: u32,
    },
    Alloca {
        bytes: i64,
        dst: u32,
    },
    Load {
        addr: u32,
        dst: u32,
        site: InstId,
        /// `1` for bool loads (canonicalizes, like the reference's
        /// `from_bits`), all-ones otherwise.
        mask: u64,
    },
    Store {
        value: u32,
        addr: u32,
        site: InstId,
    },
    Gep {
        base: u32,
        index: u32,
        dst: u32,
        site: InstId,
    },
    /// `gep` whose index is a compile-time constant: the byte offset is
    /// folded. Lowering only folds when `index * 8` does not overflow
    /// (otherwise the generic [`CInst::Gep`] runs and poisons the
    /// address), so `offset` is always exact.
    GepConst {
        base: u32,
        offset: i64,
        dst: u32,
        site: InstId,
    },
    /// A `gep` immediately consumed by the next instruction, a `load`
    /// from its result: one dispatch, two instructions for tick
    /// accounting. The address still stores to `gep_dst` (it is an
    /// eligible injection site and may have other users), and the load
    /// reads the possibly-flipped address.
    GepLoad {
        base: u32,
        index: u32,
        gep_dst: u32,
        site: InstId,
        /// The folded `load`'s own [`InstId`] (load-class site).
        load_site: InstId,
        load_dst: u32,
        mask: u64,
    },
    /// Constant-index [`CInst::GepLoad`].
    GepConstLoad {
        base: u32,
        offset: i64,
        gep_dst: u32,
        site: InstId,
        /// The folded `load`'s own [`InstId`] (load-class site).
        load_site: InstId,
        load_dst: u32,
        mask: u64,
    },
    /// A `gep` immediately consumed by the next instruction, a `store`
    /// through its result — fused like [`CInst::GepLoad`]. The address
    /// is written to `gep_dst` *before* the value operand is read, in
    /// case the stored value is the address itself.
    GepStore {
        base: u32,
        index: u32,
        gep_dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        value: u32,
    },
    /// Constant-index [`CInst::GepStore`].
    GepConstStore {
        base: u32,
        offset: i64,
        gep_dst: u32,
        site: InstId,
        /// The folded `store`'s own [`InstId`] (store-class site).
        store_site: InstId,
        value: u32,
    },
    Call {
        callee: CCallee,
        args: Box<[u32]>,
        /// `NO_SLOT` for void calls (which are also ineligible
        /// injection sites, mirroring [`is_fault_site`]).
        dst: u32,
        site: InstId,
        /// Static bit width of the return type (unused for void calls).
        width: u32,
    },
    Br {
        edge: u32,
    },
    CondBr {
        cond: u32,
        site: InstId,
        then_edge: u32,
        else_edge: u32,
    },
    Ret {
        value: Option<u32>,
    },
}

/// One flattened function.
#[derive(Clone, Debug)]
struct CompiledFunction {
    /// Original function id (for injection-site reporting).
    fid: FuncId,
    /// Parameter types (entry-point validation).
    params: Vec<Type>,
    /// Return type (rebuilds the entry's typed return value).
    ret_ty: Type,
    /// Frame size in slots: parameters, then one slot per
    /// value-producing instruction in layout order, then the constant
    /// pool.
    frame_slots: u32,
    /// Interned constant register images, copied into the frame tail
    /// (`frame_slots - consts.len() ..`) on every frame push.
    consts: Vec<u64>,
    /// Dense instruction array, phis removed, block-layout order.
    code: Vec<CInst>,
    /// CFG edges referenced by `Br`/`CondBr`.
    edges: Vec<Edge>,
}

/// A module lowered for the pre-decoded engine. Compile once per
/// workload (the lowering walks every instruction), then run any number
/// of [`CompiledMachine`]s against it — the program is immutable and
/// `Sync`, so campaign worker threads share one copy.
#[derive(Debug)]
pub struct CompiledProgram {
    funcs: Vec<CompiledFunction>,
    /// Entry lookup only (never iterated — determinism-safe).
    by_name: HashMap<String, FuncId>,
}

impl CompiledProgram {
    /// Lowers `module` (assumed verified, like [`crate::Machine::new`])
    /// into dense per-function instruction arrays.
    pub fn compile(module: &Module) -> Self {
        let mut funcs = Vec::with_capacity(module.num_functions());
        let mut by_name = HashMap::with_capacity(module.num_functions());
        for (fid, func) in module.functions() {
            by_name.insert(func.name().to_string(), fid);
            funcs.push(compile_function(fid, func));
        }
        CompiledProgram { funcs, by_name }
    }

    /// Number of lowered functions.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }
}

/// Converts an IR constant to its runtime register image (the bits of
/// the reference's `eval` on `Value::Const`).
fn const_bits(c: Constant) -> u64 {
    match c {
        Constant::I64(x) => x as u64,
        Constant::F64Bits(b) => b,
        Constant::Bool(b) => b as u64,
        Constant::Null => 0,
    }
}

/// Slot resolution during lowering: SSA results and parameters map
/// through `slot_of`, constants intern into the frame-tail pool.
struct SlotMap<'f> {
    slot_of: &'f [u32],
    /// First slot of the constant pool (params + results).
    pool_base: u32,
    pool: Vec<u64>,
    interned: HashMap<u64, u32>,
}

impl SlotMap<'_> {
    fn opnd(&mut self, v: Value) -> u32 {
        match v {
            Value::Inst(id) => {
                let slot = self.slot_of[id.index()];
                debug_assert_ne!(slot, NO_SLOT, "use of a void instruction's value");
                slot
            }
            Value::Param(n) => n,
            Value::Const(c) => {
                let bits = const_bits(c);
                match self.interned.get(&bits) {
                    Some(&slot) => slot,
                    None => {
                        let slot = self.pool_base + self.pool.len() as u32;
                        self.pool.push(bits);
                        self.interned.insert(bits, slot);
                        slot
                    }
                }
            }
        }
    }
}

/// Builds the phi move-list for the edge `pred -> succ`.
fn lower_edge(
    func: &Function,
    slots: &mut SlotMap<'_>,
    block_pc: &[u32],
    edges: &mut Vec<Edge>,
    pred: BlockId,
    succ: BlockId,
) -> u32 {
    let mut moves = Vec::new();
    for &id in func.block(succ).insts() {
        match func.inst(id) {
            Inst::Phi { incomings, .. } => {
                let (_, v) = incomings
                    .iter()
                    .find(|(p, _)| *p == pred)
                    .expect("verified phi has an incoming per predecessor");
                moves.push((slots.slot_of[id.index()], slots.opnd(*v)));
            }
            _ => break,
        }
    }
    edges.push(Edge {
        target: block_pc[succ.index()],
        moves: moves.into_boxed_slice(),
    });
    (edges.len() - 1) as u32
}

/// True when `insts[k]` is directly consumed-by-successor fusable with
/// `insts[k - 1]`: a `condbr` branching on the preceding `icmp`/`fcmp`
/// ([`CInst::IcmpBr`]/[`CInst::FcmpBr`]) or a `load`/`store` addressing
/// through the preceding `gep` ([`CInst::GepLoad`] and friends). Both
/// lowering passes use this single predicate, so instruction indices
/// stay consistent.
/// Address computation for the pre-folded `GepConst*` variants. The
/// byte offset is exact (lowering refuses to fold an overflowing
/// `index * 8`), so this matches [`gep_addr`] bit for bit on the same
/// operands — only base-plus-offset overflow remains to poison.
#[inline]
fn gep_const_addr(base: u64, offset: i64) -> u64 {
    base.checked_add_signed(offset).unwrap_or(POISON_ADDR)
}

fn fuses_with_prev(func: &Function, insts: &[InstId], k: usize) -> bool {
    if k == 0 {
        return false;
    }
    let prev = insts[k - 1];
    match func.inst(insts[k]) {
        Inst::CondBr {
            cond: Value::Inst(c),
            ..
        } => *c == prev && matches!(func.inst(prev), Inst::Icmp { .. } | Inst::Fcmp { .. }),
        Inst::Load {
            addr: Value::Inst(a),
            ..
        } => *a == prev && matches!(func.inst(prev), Inst::Gep { .. }),
        Inst::Store { addr, value, .. } => {
            if let Value::Inst(a) = addr {
                if *a == prev && matches!(func.inst(prev), Inst::Gep { .. }) {
                    return true;
                }
            }
            if let Value::Inst(v) = value {
                return *v == prev && matches!(func.inst(prev), Inst::Binary { ty: Type::F64, .. });
            }
            false
        }
        // Loop back-edges: `add` (any non-trapping integer op) feeding
        // straight into an unconditional `br`.
        Inst::Br { .. } => matches!(
            func.inst(prev),
            Inst::Binary { ty, op, .. }
                if *ty != Type::F64
                    && *ty != Type::Bool
                    && !matches!(op, BinOp::Sdiv | BinOp::Srem)
        ),
        _ => false,
    }
}

fn compile_function(fid: FuncId, func: &Function) -> CompiledFunction {
    let nparams = func.params().len() as u32;

    // Frame layout: parameters in slots 0..nparams, then one slot per
    // linked value-producing instruction in block-layout order, then
    // the interned constant pool.
    let mut slot_of: Vec<u32> = vec![NO_SLOT; func.num_inst_slots()];
    let mut next_slot = nparams;
    // Instruction index of each block's first non-phi instruction.
    let mut block_pc = vec![0u32; func.num_blocks()];
    let mut pc = 0u32;
    for bb in func.block_ids() {
        block_pc[bb.index()] = pc;
        let insts = func.block(bb).insts();
        for (k, &id) in insts.iter().enumerate() {
            let inst = func.inst(id);
            if inst.has_result() {
                slot_of[id.index()] = next_slot;
                next_slot += 1;
            }
            // Fused condbrs ride in the preceding compare's slot.
            if !inst.is_phi() && !fuses_with_prev(func, insts, k) {
                pc += 1;
            }
        }
    }

    let mut slots = SlotMap {
        slot_of: &slot_of,
        pool_base: next_slot,
        pool: Vec::new(),
        interned: HashMap::new(),
    };
    let mut code = Vec::with_capacity(pc as usize);
    let mut edges = Vec::new();
    for bb in func.block_ids() {
        let insts = func.block(bb).insts();
        for (k, &id) in insts.iter().enumerate() {
            let inst = func.inst(id);
            let dst = slot_of[id.index()];
            if fuses_with_prev(func, insts, k) {
                continue; // folded into the fused instruction just emitted
            }
            let cinst = match inst {
                Inst::Phi { .. } => continue, // consumed by edge move-lists
                Inst::Binary {
                    op, ty, lhs, rhs, ..
                } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    let fused_next = (k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1))
                        .then(|| func.inst(insts[k + 1]));
                    match (ty, fused_next) {
                        (Type::F64, Some(Inst::Store { addr, .. })) => CInst::FBinStore {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            store_site: insts[k + 1],
                            addr: slots.opnd(*addr),
                        },
                        (Type::F64, _) => CInst::FBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        (Type::Bool, _) => CInst::BBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        _ if matches!(op, BinOp::Sdiv | BinOp::Srem) => CInst::IDiv {
                            rem: *op == BinOp::Srem,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                        (_, Some(Inst::Br { target })) => CInst::IBinBr {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *target),
                        },
                        (_, Some(_)) => {
                            unreachable!("integer binary only fuses with br")
                        }
                        _ => CInst::IBin {
                            op: *op,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        },
                    }
                }
                Inst::Icmp { pred, lhs, rhs } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    if k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1) {
                        let Inst::CondBr {
                            then_bb, else_bb, ..
                        } = func.inst(insts[k + 1])
                        else {
                            unreachable!("fuses_with_prev only matches condbr")
                        };
                        CInst::IcmpBr {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            br_site: insts[k + 1],
                            then_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *then_bb,
                            ),
                            else_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *else_bb,
                            ),
                        }
                    } else {
                        CInst::Icmp {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        }
                    }
                }
                Inst::Fcmp { pred, lhs, rhs } => {
                    let (lhs, rhs) = (slots.opnd(*lhs), slots.opnd(*rhs));
                    if k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1) {
                        let Inst::CondBr {
                            then_bb, else_bb, ..
                        } = func.inst(insts[k + 1])
                        else {
                            unreachable!("fuses_with_prev only matches condbr")
                        };
                        CInst::FcmpBr {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                            br_site: insts[k + 1],
                            then_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *then_bb,
                            ),
                            else_edge: lower_edge(
                                func, &mut slots, &block_pc, &mut edges, bb, *else_bb,
                            ),
                        }
                    } else {
                        CInst::Fcmp {
                            pred: *pred,
                            lhs,
                            rhs,
                            dst,
                            site: id,
                        }
                    }
                }
                Inst::Cast { op, arg, .. } => {
                    let arg = slots.opnd(*arg);
                    match op {
                        CastOp::Sitofp => CInst::CastSitofp { arg, dst, site: id },
                        CastOp::Fptosi => CInst::CastFptosi { arg, dst, site: id },
                        CastOp::Trunc => CInst::CastTrunc { arg, dst, site: id },
                        CastOp::Zext | CastOp::Bitcast | CastOp::Ptrtoint | CastOp::Inttoptr => {
                            CInst::CastId { arg, dst, site: id }
                        }
                    }
                }
                Inst::Select {
                    cond,
                    then_value,
                    else_value,
                    ..
                } => CInst::Select {
                    cond: slots.opnd(*cond),
                    then_v: slots.opnd(*then_value),
                    else_v: slots.opnd(*else_value),
                    dst,
                    site: id,
                    width: inst.result_type().bit_width().max(1),
                },
                Inst::Alloca { count, .. } => CInst::Alloca {
                    bytes: (*count as i64) * 8,
                    dst,
                },
                Inst::Load { ty, addr } => CInst::Load {
                    addr: slots.opnd(*addr),
                    dst,
                    site: id,
                    mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                },
                Inst::Store { value, addr, .. } => CInst::Store {
                    value: slots.opnd(*value),
                    addr: slots.opnd(*addr),
                    site: id,
                },
                Inst::Gep { base, index, .. } => {
                    let base = slots.opnd(*base);
                    let fused_next = (k + 1 < insts.len() && fuses_with_prev(func, insts, k + 1))
                        .then(|| func.inst(insts[k + 1]));
                    // Only fold constant indices whose byte offset is
                    // exact; an overflowing `index * 8` takes the
                    // generic path and poisons the address at run time.
                    let const_off = match index {
                        Value::Const(Constant::I64(i)) => i.checked_mul(8),
                        _ => None,
                    };
                    match (const_off, fused_next) {
                        (Some(offset), None) => CInst::GepConst {
                            base,
                            offset,
                            dst,
                            site: id,
                        },
                        (None, None) => CInst::Gep {
                            base,
                            index: slots.opnd(*index),
                            dst,
                            site: id,
                        },
                        (Some(offset), Some(Inst::Load { ty, .. })) => CInst::GepConstLoad {
                            base,
                            offset,
                            gep_dst: dst,
                            site: id,
                            load_site: insts[k + 1],
                            load_dst: slot_of[insts[k + 1].index()],
                            mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                        },
                        (None, Some(Inst::Load { ty, .. })) => CInst::GepLoad {
                            base,
                            index: slots.opnd(*index),
                            gep_dst: dst,
                            site: id,
                            load_site: insts[k + 1],
                            load_dst: slot_of[insts[k + 1].index()],
                            mask: if *ty == Type::Bool { 1 } else { u64::MAX },
                        },
                        (Some(offset), Some(Inst::Store { value, .. })) => CInst::GepConstStore {
                            base,
                            offset,
                            gep_dst: dst,
                            site: id,
                            store_site: insts[k + 1],
                            value: slots.opnd(*value),
                        },
                        (None, Some(Inst::Store { value, .. })) => CInst::GepStore {
                            base,
                            index: slots.opnd(*index),
                            gep_dst: dst,
                            site: id,
                            store_site: insts[k + 1],
                            value: slots.opnd(*value),
                        },
                        (_, Some(_)) => unreachable!("gep only fuses with load/store"),
                    }
                }
                Inst::Call { callee, args, .. } => {
                    debug_assert_eq!(dst != NO_SLOT, is_fault_site(inst));
                    CInst::Call {
                        callee: match callee {
                            Callee::Func(f) => CCallee::Func(*f),
                            Callee::Intrinsic(i) => {
                                debug_assert!(
                                    args.len() <= INTRINSIC_MAX_ARGS,
                                    "intrinsic arity grew past the argument buffer"
                                );
                                CCallee::Intrinsic(*i)
                            }
                        },
                        args: args.iter().map(|a| slots.opnd(*a)).collect(),
                        dst,
                        site: id,
                        width: inst.result_type().bit_width().max(1),
                    }
                }
                Inst::Br { target } => CInst::Br {
                    edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *target),
                },
                Inst::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => CInst::CondBr {
                    cond: slots.opnd(*cond),
                    site: id,
                    then_edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *then_bb),
                    else_edge: lower_edge(func, &mut slots, &block_pc, &mut edges, bb, *else_bb),
                },
                Inst::Ret { value } => CInst::Ret {
                    value: value.map(|v| slots.opnd(v)),
                },
            };
            code.push(cinst);
        }
    }

    CompiledFunction {
        fid,
        params: func.params().to_vec(),
        ret_ty: func.return_type(),
        frame_slots: next_slot + slots.pool.len() as u32,
        consts: slots.pool,
        code,
        edges,
    }
}

/// Largest intrinsic arity (checked at compile time); lets the hot loop
/// gather intrinsic arguments into a stack buffer instead of a `Vec`.
const INTRINSIC_MAX_ARGS: usize = 4;

/// One activation record of the explicit call stack.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Frame {
    fid: FuncId,
    /// Where the frame continues: for a suspended caller, the
    /// instruction after its pending call; for the running frame, only
    /// meaningful in a checkpoint (the instruction about to execute).
    pc: usize,
    /// First stack slot of the frame's window.
    base: usize,
    /// `allocas` length at entry; the frame frees the suffix on return.
    alloca_mark: usize,
}

/// A resettable executor for one [`CompiledProgram`].
///
/// The machine keeps its value stack, call stack, alloca list, phi
/// scratch buffer, and [`Memory`] between runs: [`CompiledMachine::run`]
/// resets them without releasing their allocations, so campaign loops
/// stop paying per-run setup. One machine per worker thread is the
/// intended campaign topology (the program itself is shared).
///
/// Calls push an explicit [`Frame`] instead of recursing on the Rust
/// stack, so the whole execution state is plain data: a golden run can
/// snapshot it into a [`Ladder`] and an injection run can resume from
/// any snapshot mid-call ([`CompiledMachine::run_checkpointed`]).
#[derive(Debug)]
pub struct CompiledMachine<'p> {
    prog: &'p CompiledProgram,
    /// One contiguous stack of 64-bit register images; each call owns
    /// the window `[frame_base, frame_base + frame_slots)`.
    stack: Vec<u64>,
    /// The call stack, entry frame first.
    frames: Vec<Frame>,
    /// Alloca base addresses of all live frames; each frame records a
    /// watermark and frees its suffix on exit.
    allocas: Vec<u64>,
    /// Parallel-copy staging for phi edges.
    scratch: Vec<u64>,
    /// Recycled across runs via [`Memory::reset`].
    memory: Memory,
}

impl<'p> CompiledMachine<'p> {
    /// Creates a machine executing `program`.
    pub fn new(program: &'p CompiledProgram) -> Self {
        CompiledMachine {
            prog: program,
            stack: Vec::new(),
            frames: Vec::new(),
            allocas: Vec::new(),
            scratch: Vec::new(),
            memory: Memory::new(),
        }
    }

    /// Runs under the serial environment. Same contract as
    /// [`crate::Machine::run`]; the machine is reset first, so a
    /// previous panicking or aborted run cannot leak state.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the entry function does not exist or
    /// the argument count/types mismatch, with the same messages as the
    /// reference engine.
    pub fn run(&mut self, config: &RunConfig) -> Result<RunOutput, RunError> {
        let mut env = SerialEnv;
        self.run_with_env(config, &mut env)
    }

    /// Runs under a caller-provided environment.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`].
    pub fn run_with_env(
        &mut self,
        config: &RunConfig,
        env: &mut dyn Env,
    ) -> Result<RunOutput, RunError> {
        let ret_ty = self.enter(config)?;
        let mut memory = std::mem::take(&mut self.memory);
        memory.reset();
        let mut state = RunState::start(memory, config, env);
        let result = self.execute(&mut state, &mut Checkpoints::Off);
        let status = state.finish(typed(ret_ty, result));
        let (output, memory) = state.into_output(status);
        self.memory = memory;
        Ok(output)
    }

    /// Runs `config` once cleanly (its injection, profiling, and
    /// watchdog are ignored) and records a golden-state checkpoint at
    /// the first instruction boundary at or past every multiple of
    /// `spacing` dynamic instructions. The ladder is thinned by halving
    /// (every other checkpoint dropped, spacing doubled) whenever it
    /// exceeds [`MAX_CHECKPOINTS`] or [`MAX_LADDER_BYTES`].
    ///
    /// Returns `Ok(None)` when the clean run does not complete: a
    /// ladder needs a golden completion to stand in for reconverged
    /// runs. The ladder belongs to this machine's program; resume it
    /// only on machines over the same [`CompiledProgram`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`].
    pub fn capture_ladder(
        &mut self,
        config: &RunConfig,
        spacing: u64,
    ) -> Result<Option<Ladder>, RunError> {
        let clean = RunConfig {
            injection: None,
            profile_sites: false,
            trace_eligible: false,
            wall_limit: None,
            ..config.clone()
        };
        let ret_ty = self.enter(&clean)?;
        let mut env = SerialEnv;
        let mut memory = std::mem::take(&mut self.memory);
        memory.reset();
        let mut state = RunState::start(memory, &clean, &mut env);
        let mut capture = Capture::new(spacing.max(1));
        state.checkpoint_stop = capture.stop();
        state.rearm();
        let mut cp = Checkpoints::Capture(&mut capture);
        let result = self.execute(&mut state, &mut cp);
        let status = state.finish(typed(ret_ty, result));
        let (golden, memory) = state.into_output(status);
        self.memory = memory;
        if !golden.status.is_completed() {
            return Ok(None);
        }
        Ok(Some(Ladder {
            entry: clean.entry,
            args: clean.args,
            snapshots: capture.snapshots,
            bytes: capture.bytes,
            golden,
        }))
    }

    /// Runs an injection plan from `ladder`: starts at the latest
    /// checkpoint the plan's target has not yet passed
    /// ([`Ladder::start_for`]) and, once the fault has fired, stops at
    /// the first later checkpoint whose whole state equals the golden
    /// one, completing the run from the golden output. The returned
    /// [`RunOutput`] equals a from-scratch [`CompiledMachine::run`]
    /// field for field; [`Skipped`] reports the instructions not
    /// executed.
    ///
    /// Configurations the ladder cannot serve (see
    /// [`Ladder::serves`]) run from scratch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`].
    pub fn run_checkpointed(
        &mut self,
        config: &RunConfig,
        ladder: &Ladder,
    ) -> Result<(RunOutput, Skipped), RunError> {
        self.run_from(config, ladder, ladder.start_for(config))
    }

    /// [`CompiledMachine::run_checkpointed`] starting at checkpoint
    /// `start` (`None`: from the entry point) instead of the latest
    /// one; any checkpoint the plan's target has not passed yields the
    /// same output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledMachine::run`], plus a
    /// [`RunError`] when checkpoint `start` does not exist or lies past
    /// the plan's target.
    pub fn run_from(
        &mut self,
        config: &RunConfig,
        ladder: &Ladder,
        start: Option<usize>,
    ) -> Result<(RunOutput, Skipped), RunError> {
        if !ladder.serves(config) {
            return Ok((self.run(config)?, Skipped::default()));
        }
        if let Some(k) = start {
            if k >= ladder.len() || Some(k) > ladder.start_for(config) {
                return Err(RunError(format!(
                    "checkpoint {k} is not a valid start for this plan"
                )));
            }
        }
        let ret_ty = self.enter(config)?;
        let mut env = SerialEnv;
        let mut memory = std::mem::take(&mut self.memory);
        let snapshot = start.map(|k| &ladder.snapshots[k]);
        match snapshot {
            Some(s) => memory.load_image(&s.memory),
            None => memory.reset(),
        }
        let mut state = RunState::start(memory, config, &mut env);
        if let Some(s) = snapshot {
            self.restore(&mut state, s, &ladder.golden);
        }
        let next = start.map_or(0, |k| k + 1);
        state.checkpoint_stop = ladder.stop_at(next);
        state.rearm();
        let mut cp = Checkpoints::Compare { ladder, next };
        let result = self.execute(&mut state, &mut cp);
        let mut skipped = Skipped {
            prefix: snapshot.map_or(0, |s| s.dynamic_insts),
            ..Skipped::default()
        };
        let (output, memory) = if let Err(Stop::Reconverged) = result {
            let Checkpoints::Compare { next, .. } = cp else {
                unreachable!("compare mode throughout")
            };
            let golden = &ladder.golden;
            skipped.suffix = golden.dynamic_insts - ladder.snapshots[next].dynamic_insts;
            skipped.reconverged = true;
            let (partial, memory) = state.into_output(golden.status);
            let output = RunOutput {
                injected_site: partial.injected_site,
                injected_at_inst: partial.injected_at_inst,
                ..golden.clone()
            };
            (output, memory)
        } else {
            let status = state.finish(typed(ret_ty, result));
            state.into_output(status)
        };
        self.memory = memory;
        Ok((output, skipped))
    }

    /// Validates the entry configuration and resets the machine to the
    /// entry frame (arguments and constant pool in place), keeping
    /// allocations. Returns the entry's return type.
    fn enter(&mut self, config: &RunConfig) -> Result<Type, RunError> {
        let entry = *self
            .prog
            .by_name
            .get(&config.entry)
            .ok_or_else(|| no_such_function(&config.entry))?;
        let f = &self.prog.funcs[entry.index()];
        validate_entry(&config.entry, &f.params, config)?;
        let frame_slots = f.frame_slots as usize;

        self.stack.clear();
        self.frames.clear();
        self.allocas.clear();
        self.scratch.clear();
        self.stack.resize(frame_slots, 0);
        for (k, a) in config.args.iter().enumerate() {
            self.stack[k] = a.bits();
        }
        self.stack[frame_slots - f.consts.len()..].copy_from_slice(&f.consts);
        self.frames.push(Frame {
            fid: entry,
            pc: 0,
            base: 0,
            alloca_mark: 0,
        });
        Ok(f.ret_ty)
    }

    /// Loads a checkpoint's machine state and counters (its memory is
    /// already in `state`), and its outputs and console as prefixes of
    /// the ladder's `golden` run. The watermark is re-armed by the
    /// caller: it depends on the resumed run's own budget.
    fn restore(&mut self, state: &mut RunState<'_>, s: &Snapshot, golden: &RunOutput) {
        self.frames.clone_from(&s.frames);
        self.stack.clone_from(&s.stack);
        self.allocas.clone_from(&s.allocas);
        state.outputs.restore_prefix(&golden.outputs, s.outputs);
        state.console.clear();
        state
            .console
            .extend_from_slice(&golden.console[..s.console]);
        state.dynamic_insts = s.dynamic_insts;
        [
            state.eligible_results,
            state.loads,
            state.stores,
            state.cond_branches,
        ] = s.counters;
    }

    /// Copies the machine and run state at an instruction boundary
    /// (`dynamic_insts` = `at`, about to execute `pc` of the top frame),
    /// sharing the memory chunks that `prev`, the ladder's latest
    /// snapshot, already holds.
    fn snapshot(
        &self,
        state: &RunState<'_>,
        at: u64,
        pc: usize,
        prev: Option<&Snapshot>,
    ) -> Snapshot {
        let mut frames = self.frames.clone();
        frames.last_mut().expect("a running frame").pc = pc;
        Snapshot {
            dynamic_insts: at,
            counters: counters(state),
            frames,
            stack: self.stack.clone(),
            allocas: self.allocas.clone(),
            memory: state.memory.save_image(prev.map(|p| &p.memory)),
            outputs: state.outputs.len(),
            console: state.console.len(),
        }
    }

    /// The full-state compare: `true` when the run at this boundary is
    /// exactly checkpoint `s` of a ladder whose clean run is `golden`.
    /// Cheap fields first; nothing is hashed.
    fn matches(&self, state: &RunState<'_>, pc: usize, s: &Snapshot, golden: &RunOutput) -> bool {
        let top = s.frames.len() - 1;
        counters(state) == s.counters
            && self.frames.len() == s.frames.len()
            && self.frames[..top] == s.frames[..top]
            // The running frame's record holds a stale `pc` (it is only
            // written on calls); the live one is the boundary's.
            && Frame { pc, ..self.frames[top] } == s.frames[top]
            && self.allocas == s.allocas
            && self.stack == s.stack
            && state.outputs.same_bits(&golden.outputs, s.outputs)
            && state.console == golden.console[..s.console]
            && state.memory.matches_image(&s.memory)
    }

    /// Runs the machine from its current top frame to completion.
    fn execute(
        &mut self,
        state: &mut RunState<'_>,
        cp: &mut Checkpoints<'_>,
    ) -> Result<Option<u64>, Stop> {
        // The counters live in registers for the whole run; every exit
        // edge of the loop lands here and flushes them back.
        let mut hot = HotCounters::load(state);
        let result = self.exec_loop(state, &mut hot, cp);
        hot.flush(state);
        result
    }

    /// The instruction-boundary slow path: budget/poll checks, then the
    /// golden checkpoint when one is due (`dynamic_insts` already
    /// charged for the instruction at `pc`, which has not run yet).
    #[cold]
    #[inline(never)]
    fn boundary(
        &mut self,
        state: &mut RunState<'_>,
        hot: &mut HotCounters,
        pc: usize,
        cp: &mut Checkpoints<'_>,
    ) -> Result<(), Stop> {
        hot.tick_slow(state)?;
        if state.dynamic_insts >= state.checkpoint_stop {
            let at = state.dynamic_insts - 1;
            state.checkpoint_stop = match cp {
                Checkpoints::Off => u64::MAX,
                Checkpoints::Capture(capture) => {
                    let snapshot = self.snapshot(state, at, pc, capture.snapshots.last());
                    capture.push(snapshot, at);
                    capture.stop()
                }
                Checkpoints::Compare { ladder, next } => {
                    while ladder
                        .snapshots
                        .get(*next)
                        .is_some_and(|s| s.dynamic_insts < at)
                    {
                        *next += 1;
                    }
                    if let Some(s) = ladder.snapshots.get(*next) {
                        // Before the fault fires the run *is* golden;
                        // only a post-injection match proves anything.
                        if s.dynamic_insts == at
                            && state.injected_site.is_some()
                            && self.matches(state, pc, s, &ladder.golden)
                        {
                            return Err(Stop::Reconverged);
                        }
                        if s.dynamic_insts == at {
                            *next += 1;
                        }
                    }
                    ladder.stop_at(*next)
                }
            };
            state.rearm();
            hot.reload_stop(state);
        }
        Ok(())
    }

    #[inline]
    fn read(&self, base: usize, slot: u32) -> u64 {
        self.stack[base + slot as usize]
    }

    #[inline]
    fn write(&mut self, base: usize, dst: u32, bits: u64) {
        self.stack[base + dst as usize] = bits;
    }

    /// Takes a CFG edge: charges its phi moves against `dynamic_insts`
    /// (no budget/poll check — block-entry phi copies are exempt in the
    /// reference too) and performs the parallel copy.
    #[inline]
    fn take_edge(
        &mut self,
        hot: &mut HotCounters,
        edges: &[Edge],
        base: usize,
        edge: u32,
    ) -> usize {
        let e = &edges[edge as usize];
        hot.dynamic_insts += e.moves.len() as u64;
        match *e.moves {
            [] => {}
            [(dst, src)] => {
                let v = self.read(base, src);
                self.write(base, dst, v);
            }
            [(d0, s0), (d1, s1)] => {
                // Parallel copy: read every source before any write.
                let v0 = self.read(base, s0);
                let v1 = self.read(base, s1);
                self.write(base, d0, v0);
                self.write(base, d1, v1);
            }
            _ => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                scratch.extend(e.moves.iter().map(|&(_, src)| self.read(base, src)));
                for (k, &(dst, _)) in e.moves.iter().enumerate() {
                    self.write(base, dst, scratch[k]);
                }
                self.scratch = scratch;
            }
        }
        e.target as usize
    }

    fn exec_loop(
        &mut self,
        state: &mut RunState<'_>,
        hot: &mut HotCounters,
        cp: &mut Checkpoints<'_>,
    ) -> Result<Option<u64>, Stop> {
        // `prog` outlives `self`'s borrow, so the code array can be held
        // across stack mutations. `f`, `base`, and `pc` cache the top
        // frame; the frame record itself is only written on calls.
        let prog = self.prog;
        let top = *self.frames.last().expect("an entry frame");
        let mut f = &prog.funcs[top.fid.index()];
        let mut base = top.base;
        let mut pc = top.pc;
        loop {
            let inst = &f.code[pc];
            if hot.tick_due() {
                self.boundary(state, hot, pc, cp)?;
            }
            pc += 1;
            match inst {
                CInst::IBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    use BinOp::*;
                    let v = match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl((b & 63) as u32),
                        Lshr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        Ashr => a.wrapping_shr((b & 63) as u32),
                        _ => unreachable!("lowering routes div/rem/float/bool elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                }
                CInst::IBinBr {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                    edge,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    use BinOp::*;
                    let v = match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        Shl => a.wrapping_shl((b & 63) as u32),
                        Lshr => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                        Ashr => a.wrapping_shr((b & 63) as u32),
                        _ => unreachable!("lowering routes div/rem/float/bool elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                    // The folded br is still its own instruction.
                    hot.tick(state)?;
                    pc = self.take_edge(hot, &f.edges, base, *edge);
                }
                CInst::IDiv {
                    rem,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    if b == 0 {
                        return Err(Stop::Trap(Trap::DivByZero));
                    }
                    if a == i64::MIN && b == -1 {
                        return Err(Stop::Trap(Trap::DivOverflow));
                    }
                    let v = if *rem { a % b } else { a / b };
                    let bits = hot.inject(state, f.fid, *site, W64, v as u64);
                    self.write(base, *dst, bits);
                }
                CInst::FBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    use BinOp::*;
                    let v = match op {
                        Fadd => a + b,
                        Fsub => a - b,
                        Fmul => a * b,
                        Fdiv => a / b,
                        Frem => a % b,
                        _ => unreachable!("lowering routes integer ops elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v.to_bits());
                    self.write(base, *dst, bits);
                }
                CInst::FBinStore {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                    store_site,
                    addr,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    use BinOp::*;
                    let v = match op {
                        Fadd => a + b,
                        Fsub => a - b,
                        Fmul => a * b,
                        Fdiv => a / b,
                        Frem => a % b,
                        _ => unreachable!("lowering routes integer ops elsewhere"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W64, v.to_bits());
                    self.write(base, *dst, bits);
                    // The folded store is still its own instruction; it
                    // writes the possibly-flipped image just produced.
                    hot.tick(state)?;
                    let a = self.read(base, *addr);
                    let stored = hot.store_bits(state, f.fid, *store_site, bits);
                    state.memory.store(a, stored).map_err(Stop::Trap)?;
                }
                CInst::BBin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs);
                    let b = self.read(base, *rhs);
                    let v = match op {
                        BinOp::And => a & b,
                        BinOp::Or => a | b,
                        BinOp::Xor => a ^ b,
                        _ => unreachable!("verifier restricts bool binaries to bitwise"),
                    };
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::Icmp {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::Fcmp {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::IcmpBr {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                    br_site,
                    then_edge,
                    else_edge,
                } => {
                    let a = self.read(base, *lhs) as i64;
                    let b = self.read(base, *rhs) as i64;
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                    // The folded condbr is still its own instruction.
                    hot.tick(state)?;
                    let taken = hot.branch_edge(state, f.fid, *br_site, bits != 0);
                    let edge = if taken { *then_edge } else { *else_edge };
                    pc = self.take_edge(hot, &f.edges, base, edge);
                }
                CInst::FcmpBr {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    site,
                    br_site,
                    then_edge,
                    else_edge,
                } => {
                    let a = f64::from_bits(self.read(base, *lhs));
                    let b = f64::from_bits(self.read(base, *rhs));
                    let v = pred.eval(a, b) as u64;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                    hot.tick(state)?;
                    let taken = hot.branch_edge(state, f.fid, *br_site, bits != 0);
                    let edge = if taken { *then_edge } else { *else_edge };
                    pc = self.take_edge(hot, &f.edges, base, edge);
                }
                CInst::CastSitofp { arg, dst, site } => {
                    let v = ((self.read(base, *arg) as i64) as f64).to_bits();
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastFptosi { arg, dst, site } => {
                    let v = saturating_f64_to_i64(f64::from_bits(self.read(base, *arg))) as u64;
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastTrunc { arg, dst, site } => {
                    let v = self.read(base, *arg) & 1;
                    let bits = hot.inject(state, f.fid, *site, W1, v);
                    self.write(base, *dst, bits);
                }
                CInst::CastId { arg, dst, site } => {
                    let v = self.read(base, *arg);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::Select {
                    cond,
                    then_v,
                    else_v,
                    dst,
                    site,
                    width,
                } => {
                    let c = self.read(base, *cond) != 0;
                    let v = self.read(base, if c { *then_v } else { *else_v });
                    let bits = hot.inject(state, f.fid, *site, *width, v);
                    self.write(base, *dst, bits);
                }
                CInst::Alloca { bytes, dst } => {
                    let p = state.memory.alloc(*bytes).map_err(Stop::Trap)?;
                    self.allocas.push(p);
                    self.write(base, *dst, p);
                }
                CInst::Load {
                    addr,
                    dst,
                    site,
                    mask,
                } => {
                    let a = self.read(base, *addr);
                    let bits = state.memory.load(a).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *site, bits);
                    self.write(base, *dst, bits & mask);
                }
                CInst::Store { value, addr, site } => {
                    let v = self.read(base, *value);
                    let v = hot.store_bits(state, f.fid, *site, v);
                    let a = self.read(base, *addr);
                    state.memory.store(a, v).map_err(Stop::Trap)?;
                }
                CInst::Gep {
                    base: b,
                    index,
                    dst,
                    site,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::GepConst {
                    base: b,
                    offset,
                    dst,
                    site,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let bits = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *dst, bits);
                }
                CInst::GepLoad {
                    base: b,
                    index,
                    gep_dst,
                    site,
                    load_site,
                    load_dst,
                    mask,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    // The folded load is still its own instruction.
                    hot.tick(state)?;
                    let bits = state.memory.load(addr).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *load_site, bits);
                    self.write(base, *load_dst, bits & mask);
                }
                CInst::GepConstLoad {
                    base: b,
                    offset,
                    gep_dst,
                    site,
                    load_site,
                    load_dst,
                    mask,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let bits = state.memory.load(addr).map_err(Stop::Trap)?;
                    let bits = hot.load_bits(state, f.fid, *load_site, bits);
                    self.write(base, *load_dst, bits & mask);
                }
                CInst::GepStore {
                    base: b,
                    index,
                    gep_dst,
                    site,
                    store_site,
                    value,
                } => {
                    let p = self.read(base, *b);
                    let i = self.read(base, *index);
                    let v = gep_addr(p, i as i64);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    // Address lands in its slot before the value is
                    // read: the stored value may be the address itself.
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let val = self.read(base, *value);
                    let val = hot.store_bits(state, f.fid, *store_site, val);
                    state.memory.store(addr, val).map_err(Stop::Trap)?;
                }
                CInst::GepConstStore {
                    base: b,
                    offset,
                    gep_dst,
                    site,
                    store_site,
                    value,
                } => {
                    let v = gep_const_addr(self.read(base, *b), *offset);
                    let addr = hot.inject(state, f.fid, *site, W64, v);
                    self.write(base, *gep_dst, addr);
                    hot.tick(state)?;
                    let val = self.read(base, *value);
                    let val = hot.store_bits(state, f.fid, *store_site, val);
                    state.memory.store(addr, val).map_err(Stop::Trap)?;
                }
                CInst::Call {
                    callee,
                    args,
                    dst,
                    site,
                    width,
                } => {
                    let v = match callee {
                        CCallee::Func(callee_fid) => {
                            if self.frames.len() >= MAX_CALL_DEPTH {
                                return Err(Stop::Trap(Trap::StackOverflow));
                            }
                            // Push the callee frame, writing evaluated
                            // arguments and the callee's constant pool
                            // straight into its slots. The call finishes
                            // (result injection and write) when the
                            // callee's `ret` pops back to `pc`.
                            let callee_f = &prog.funcs[callee_fid.index()];
                            let callee_slots = callee_f.frame_slots as usize;
                            let callee_base = self.stack.len();
                            self.stack.resize(callee_base + callee_slots, 0);
                            for (k, a) in args.iter().enumerate() {
                                let v = self.read(base, *a);
                                self.stack[callee_base + k] = v;
                            }
                            self.stack[callee_base + callee_slots - callee_f.consts.len()..]
                                .copy_from_slice(&callee_f.consts);
                            self.frames.last_mut().expect("a running frame").pc = pc;
                            self.frames.push(Frame {
                                fid: *callee_fid,
                                pc: 0,
                                base: callee_base,
                                alloca_mark: self.allocas.len(),
                            });
                            f = callee_f;
                            base = callee_base;
                            pc = 0;
                            continue;
                        }
                        CCallee::Intrinsic(intr) => {
                            // Intrinsics are the shared typed implementation:
                            // rebuild RtVal arguments from their static
                            // parameter types (canonical images make this
                            // exact).
                            let ptys = intr.param_types();
                            let mut vals = [RtVal::Unit; INTRINSIC_MAX_ARGS];
                            for (k, a) in args.iter().enumerate() {
                                vals[k] = RtVal::from_bits(ptys[k], self.read(base, *a));
                            }
                            exec_intrinsic(state, *intr, &vals[..args.len()])?.bits()
                        }
                    };
                    if *dst != NO_SLOT {
                        let bits = hot.inject(state, f.fid, *site, *width, v);
                        self.write(base, *dst, bits);
                    }
                }
                CInst::Br { edge } => {
                    pc = self.take_edge(hot, &f.edges, base, *edge);
                }
                CInst::CondBr {
                    cond,
                    site,
                    then_edge,
                    else_edge,
                } => {
                    let c = self.read(base, *cond) != 0;
                    let c = hot.branch_edge(state, f.fid, *site, c);
                    let edge = if c { *then_edge } else { *else_edge };
                    pc = self.take_edge(hot, &f.edges, base, edge);
                }
                CInst::Ret { value } => {
                    let ret = value.map(|v| self.read(base, v));
                    let frame = self.frames.pop().expect("a running frame");
                    for i in frame.alloca_mark..self.allocas.len() {
                        // Frame regions are always valid bases; ignore
                        // double-free that can only arise from user
                        // `free` of an alloca pointer.
                        let _ = state.memory.free(self.allocas[i]);
                    }
                    self.allocas.truncate(frame.alloca_mark);
                    let Some(caller) = self.frames.last() else {
                        return Ok(ret);
                    };
                    self.stack.truncate(frame.base);
                    f = &prog.funcs[caller.fid.index()];
                    base = caller.base;
                    pc = caller.pc;
                    // Finish the caller's pending call instruction.
                    let CInst::Call {
                        dst, site, width, ..
                    } = &f.code[pc - 1]
                    else {
                        unreachable!("frames only suspend at calls")
                    };
                    if *dst != NO_SLOT {
                        let bits = hot.inject(state, f.fid, *site, *width, ret.unwrap_or(0));
                        self.write(base, *dst, bits);
                    }
                }
            }
        }
    }
}

/// Rebuilds the entry's typed return value from its register image.
fn typed(ret_ty: Type, result: Result<Option<u64>, Stop>) -> Result<Option<RtVal>, Stop> {
    result.map(|ret| ret.map(|bits| RtVal::from_bits(ret_ty, bits)))
}

/// Position of `class` in [`counters`].
fn counter_index(class: SiteClass) -> usize {
    match class {
        SiteClass::Value => 0,
        SiteClass::Load => 1,
        SiteClass::Store => 2,
        SiteClass::Branch => 3,
    }
}

/// The per-class dynamic counters, in [`SiteClass`] order: value
/// results, loads, stores, conditional branches.
fn counters(state: &RunState<'_>) -> [u64; 4] {
    [
        state.eligible_results,
        state.loads,
        state.stores,
        state.cond_branches,
    ]
}

/// Most checkpoints one ladder keeps.
pub const MAX_CHECKPOINTS: usize = 64;
/// Most snapshot bytes one ladder keeps (see [`Ladder::bytes`]).
pub const MAX_LADDER_BYTES: usize = 1 << 21;

/// The whole state of a run at one instruction boundary.
#[derive(Debug)]
struct Snapshot {
    /// Instructions retired before the boundary.
    dynamic_insts: u64,
    /// [`counters`] at the boundary.
    counters: [u64; 4],
    /// The call stack; the top frame's `pc` is the next instruction.
    frames: Vec<Frame>,
    stack: Vec<u64>,
    allocas: Vec<u64>,
    /// The [`Memory`] image, sharing unchanged chunks with the previous
    /// snapshot's.
    memory: Image,
    /// Output items emitted so far: a prefix of the golden run's, as
    /// both streams are append-only.
    outputs: usize,
    /// Console lines printed so far, likewise a golden prefix.
    console: usize,
}

impl Snapshot {
    /// Bytes this snapshot adds to a ladder whose previous snapshot is
    /// `prev`, the unit of [`MAX_LADDER_BYTES`]: its own machine state
    /// and memory-chunk pointers, plus the chunks it does not share
    /// with `prev`.
    fn bytes(&self, prev: Option<&Snapshot>) -> usize {
        std::mem::size_of::<Snapshot>()
            + self.frames.len() * std::mem::size_of::<Frame>()
            + (self.stack.len() + self.allocas.len()) * 8
            + self.memory.bytes_over(prev.map(|p| &p.memory))
    }
}

/// Bytes a ladder of `snapshots` holds: each shared chunk counts once.
fn ladder_bytes(snapshots: &[Snapshot]) -> usize {
    std::iter::once(None)
        .chain(snapshots.iter().map(Some))
        .zip(snapshots)
        .map(|(prev, s)| s.bytes(prev))
        .sum()
}

/// Golden-state checkpoints of one clean run, captured by
/// [`CompiledMachine::capture_ladder`]: snapshots of the whole machine
/// and run state at instruction boundaries, in execution order, plus
/// the run's golden completion. Consecutive snapshots share their
/// unchanged memory chunks, and their outputs and console are prefixes
/// of the golden run's. Immutable once captured, so campaign workers
/// share one ladder read-only.
#[derive(Debug)]
pub struct Ladder {
    entry: String,
    args: Vec<RtVal>,
    snapshots: Vec<Snapshot>,
    bytes: usize,
    golden: RunOutput,
}

impl Ladder {
    /// Number of checkpoints.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` when the clean run was too short (or its state too large)
    /// to keep any checkpoint.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Snapshot bytes held, each shared memory chunk counted once; at
    /// most [`MAX_LADDER_BYTES`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The clean run's output, which every reconverged run completes
    /// with.
    pub fn golden(&self) -> &RunOutput {
        &self.golden
    }

    /// Dynamic instructions retired before checkpoint `k`.
    pub fn position(&self, k: usize) -> u64 {
        self.snapshots[k].dynamic_insts
    }

    /// Events of `class` counted before checkpoint `k`: a plan whose
    /// target is at least this has not fired by then.
    pub fn class_count(&self, k: usize, class: SiteClass) -> u64 {
        self.snapshots[k].counters[counter_index(class)]
    }

    /// Whether a run of `config` may start from or stop at a
    /// checkpoint: a global-index injection plan on the captured entry
    /// and arguments, with a budget the golden run fits, and no
    /// wall-clock watchdog (it measures from run start), site profile,
    /// or eligible trace (both need every instruction executed).
    pub fn serves(&self, config: &RunConfig) -> bool {
        let same_args = config.args.len() == self.args.len()
            && config
                .args
                .iter()
                .zip(&self.args)
                .all(|(a, b)| a.ty() == b.ty() && a.bits() == b.bits());
        matches!(config.injection, Some(Injection { site: None, .. }))
            && config.entry == self.entry
            && same_args
            && config.wall_limit.is_none()
            && !config.profile_sites
            && !config.trace_eligible
            && config.max_insts >= self.golden.dynamic_insts
    }

    /// The latest checkpoint at which `config`'s plan has not fired
    /// yet — its site-class count is at most the target — or `None`
    /// when the run must start from the entry point.
    pub fn start_for(&self, config: &RunConfig) -> Option<usize> {
        let plan = config.injection.filter(|_| self.serves(config))?;
        let c = counter_index(plan.model.site_class());
        let k = self
            .snapshots
            .partition_point(|s| s.counters[c] <= plan.target);
        k.checked_sub(1)
    }

    /// The tick count at which checkpoint `k` is due, `u64::MAX` past
    /// the last.
    fn stop_at(&self, k: usize) -> u64 {
        self.snapshots
            .get(k)
            .map_or(u64::MAX, |s| s.dynamic_insts + 1)
    }
}

/// Instructions a checkpointed run did not execute.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Skipped {
    /// The fault-free prefix restored from the start checkpoint.
    pub prefix: u64,
    /// The golden suffix after reconvergence.
    pub suffix: u64,
    /// The run matched a golden checkpoint after its fault fired.
    pub reconverged: bool,
}

/// A ladder under construction.
struct Capture {
    spacing: u64,
    snapshots: Vec<Snapshot>,
    bytes: usize,
    /// Next capture instant; `u64::MAX` once capturing stopped.
    next_at: u64,
}

impl Capture {
    fn new(spacing: u64) -> Self {
        Capture {
            spacing,
            snapshots: Vec::new(),
            bytes: 0,
            next_at: spacing,
        }
    }

    fn stop(&self) -> u64 {
        self.next_at.saturating_add(1)
    }

    /// Records the snapshot taken at `at` and thins the ladder back
    /// under its limits.
    fn push(&mut self, snapshot: Snapshot, at: u64) {
        self.bytes += snapshot.bytes(self.snapshots.last());
        self.snapshots.push(snapshot);
        while self.snapshots.len() > MAX_CHECKPOINTS || self.bytes > MAX_LADDER_BYTES {
            if self.snapshots.len() == 1 {
                // One snapshot alone is over the cap: keep none.
                self.snapshots.clear();
                self.bytes = 0;
                self.next_at = u64::MAX;
                return;
            }
            let mut k = 0;
            self.snapshots.retain(|_| {
                k += 1;
                k % 2 == 0
            });
            self.bytes = ladder_bytes(&self.snapshots);
            self.spacing = self.spacing.saturating_mul(2);
        }
        self.next_at = (at / self.spacing + 1).saturating_mul(self.spacing);
    }
}

/// What the instruction-boundary slow path does at a due checkpoint.
enum Checkpoints<'a> {
    /// Nothing is armed (plain runs).
    Off,
    /// A golden run recording its ladder.
    Capture(&'a mut Capture),
    /// An injection run comparing against the ladder from checkpoint
    /// `next` on.
    Compare { ladder: &'a Ladder, next: usize },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{maybe_inject, FaultModel, Injection, Machine, RunStatus, SiteClass};
    use ipas_ir::parser::parse_module;
    use std::time::Duration;

    fn both(src: &str, config: &RunConfig) -> (RunOutput, RunOutput) {
        let module = parse_module(src).unwrap();
        ipas_ir::verify::verify_module(&module).unwrap();
        let reference = Machine::new(&module).run(config).unwrap();
        let prog = CompiledProgram::compile(&module);
        let compiled = CompiledMachine::new(&prog).run(config).unwrap();
        (reference, compiled)
    }

    fn assert_identical(a: &RunOutput, b: &RunOutput) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.dynamic_insts, b.dynamic_insts);
        assert_eq!(a.eligible_results, b.eligible_results);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.stores, b.stores);
        assert_eq!(a.cond_branches, b.cond_branches);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.console, b.console);
        assert_eq!(a.injected_site, b.injected_site);
        assert_eq!(a.injected_at_inst, b.injected_at_inst);
    }

    const LOOP_SRC: &str = r#"
fn @main() -> i64 {
bb0:
  br bb1
bb1:
  %v0 = phi i64 [bb0: 0, bb2: %v3]
  %v1 = phi i64 [bb0: 0, bb2: %v4]
  %v2 = icmp slt %v0, 10
  condbr %v2, bb2, bb3
bb2:
  %v4 = add i64 %v1, %v0
  %v3 = add i64 %v0, 1
  br bb1
bb3:
  %v5 = call output_i64(%v1) -> void
  ret %v1
}
"#;

    #[test]
    fn loop_with_phis_matches_reference() {
        let (a, b) = both(LOOP_SRC, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Completed(Some(RtVal::I64(45))));
        assert_identical(&a, &b);
    }

    #[test]
    fn injection_sweep_matches_reference() {
        let clean = {
            let module = parse_module(LOOP_SRC).unwrap();
            Machine::new(&module).run(&RunConfig::default()).unwrap()
        };
        for target in 0..clean.eligible_results {
            for bit in [0u32, 3, 17, 62] {
                let config = RunConfig {
                    injection: Some(Injection::at_global_index(target, bit)),
                    ..RunConfig::default()
                };
                let (a, b) = both(LOOP_SRC, &config);
                assert_identical(&a, &b);
            }
        }
    }

    /// Pins [`HotCounters::inject`] to [`maybe_inject`]: for every value
    /// type and a spread of requested bits, the two produce the same
    /// flipped image and the same eligible/site bookkeeping.
    #[test]
    fn injection_bits_twin_agrees() {
        let module = parse_module(LOOP_SRC).unwrap();
        let (fid, func) = module.functions().next().unwrap();
        let id = func.block(func.entry()).insts()[0];
        for value in [
            RtVal::I64(-7),
            RtVal::F64(3.25),
            RtVal::Bool(true),
            RtVal::Ptr(0xdead_beef),
        ] {
            for bit in [0u32, 1, 17, 63] {
                let config = RunConfig {
                    injection: Some(Injection::at_global_index(0, bit)),
                    ..RunConfig::default()
                };
                let width = value.ty().bit_width().max(1);
                let mut env = SerialEnv;
                let mut s1 = RunState::start(Memory::new(), &config, &mut env);
                let flipped = maybe_inject(&mut s1, fid, id, value);
                let mut env2 = SerialEnv;
                let mut s2 = RunState::start(Memory::new(), &config, &mut env2);
                let mut hot = HotCounters::load(&s2);
                let flipped_bits = hot.inject(&mut s2, fid, id, width, value.bits());
                hot.flush(&mut s2);
                assert_eq!(flipped.bits(), flipped_bits, "{value:?} bit {bit}");
                assert_eq!(flipped, RtVal::from_bits(value.ty(), flipped_bits));
                assert_eq!(s1.eligible_results, s2.eligible_results);
                assert_eq!(s1.injected_site, s2.injected_site);
            }
        }
    }

    /// Every fault model must preserve the bit-identity contract: for
    /// each model, sweep a spread of targets and bits over a workload
    /// that exercises loads, stores, and conditional branches, and
    /// assert the reference and pre-decoded engines produce the same
    /// corrupted execution (including the per-class dynamic counters).
    #[test]
    fn fault_model_sweep_matches_reference() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call malloc(64) -> ptr
  br bb1
bb1:
  %v1 = phi i64 [bb0: 0, bb2: %v6]
  %v2 = icmp slt %v1, 8
  condbr %v2, bb2, bb3
bb2:
  %v3 = gep i64 %v0, %v1
  %v4 = mul i64 %v1, 3
  store i64 %v4, %v3
  %v5 = load i64, %v3
  %v6 = add i64 %v1, 1
  br bb1
bb3:
  br bb4
bb4:
  %v7 = phi i64 [bb3: 0, bb5: %v11]
  %v8 = phi i64 [bb3: 0, bb5: %v12]
  %v9 = icmp slt %v7, 8
  condbr %v9, bb5, bb6
bb5:
  %v10 = gep i64 %v0, %v7
  %v13 = load i64, %v10
  %v12 = add i64 %v8, %v13
  %v11 = add i64 %v7, 1
  br bb4
bb6:
  %v14 = call free(%v0) -> void
  %v15 = call output_i64(%v8) -> void
  ret %v8
}
"#;
        let clean = {
            let module = parse_module(src).unwrap();
            Machine::new(&module).run(&RunConfig::default()).unwrap()
        };
        assert!(clean.loads > 0, "workload must execute loads");
        assert!(clean.stores > 0, "workload must execute stores");
        assert!(clean.cond_branches > 0, "workload must branch");
        for model in FaultModel::ALL {
            let space = match model.site_class() {
                SiteClass::Value => clean.eligible_results,
                SiteClass::Load => clean.loads,
                SiteClass::Store => clean.stores,
                SiteClass::Branch => clean.cond_branches,
            };
            assert!(space > 0, "{model}: no eligible sites");
            for target in [0, space / 3, space / 2, space - 1] {
                for bit in [0u32, 5, 33, 63, 97] {
                    let bit = bit % model.bit_domain();
                    let config = RunConfig {
                        injection: Some(Injection::for_model(model, target, bit)),
                        ..RunConfig::default()
                    };
                    let (a, b) = both(src, &config);
                    assert_identical(&a, &b);
                    assert!(
                        a.injected_site.is_some(),
                        "{model}: target {target} never fired"
                    );
                }
            }
        }
    }

    #[test]
    fn calls_memory_and_traps_match_reference() {
        let src = r#"
fn @main() -> f64 {
bb0:
  %v0 = call malloc(32) -> ptr
  %v1 = gep f64 %v0, 2
  store f64 2.25, %v1
  %v2 = load f64, %v1
  %v3 = call @twice(%v2) -> f64
  %v4 = call free(%v0) -> void
  %v5 = call output_f64(%v3) -> void
  ret %v3
}
fn @twice(f64) -> f64 {
bb0:
  %v0 = alloca f64, 1
  store f64 %arg0, %v0
  %v1 = load f64, %v0
  %v2 = fadd f64 %v1, %v1
  ret %v2
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Completed(Some(RtVal::F64(4.5))));
        assert_identical(&a, &b);
        // Sweep every eligible result: pointer corruptions trap the
        // same way in both engines.
        for target in 0..a.eligible_results {
            let config = RunConfig {
                injection: Some(Injection::at_global_index(target, 33)),
                ..RunConfig::default()
            };
            let (a, b) = both(src, &config);
            assert_identical(&a, &b);
        }
    }

    #[test]
    fn machine_reuse_is_stateless() {
        let module = parse_module(LOOP_SRC).unwrap();
        let prog = CompiledProgram::compile(&module);
        let mut m = CompiledMachine::new(&prog);
        let first = m.run(&RunConfig::default()).unwrap();
        // Interleave a corrupted run, then verify the clean run replays
        // bit-identically on the same machine.
        let _ = m
            .run(&RunConfig {
                injection: Some(Injection::at_global_index(2, 61)),
                ..RunConfig::default()
            })
            .unwrap();
        let again = m.run(&RunConfig::default()).unwrap();
        assert_identical(&first, &again);
    }

    #[test]
    fn budget_and_deadline_match_reference() {
        let src = "fn @main() {\nbb0:\n  br bb0\n}\n";
        let config = RunConfig {
            max_insts: 10_000,
            ..RunConfig::default()
        };
        let (a, b) = both(src, &config);
        assert_eq!(b.status, RunStatus::Hang);
        assert_identical(&a, &b);

        let module = parse_module(src).unwrap();
        let prog = CompiledProgram::compile(&module);
        let out = CompiledMachine::new(&prog)
            .run(&RunConfig {
                wall_limit: Some(Duration::from_millis(20)),
                ..RunConfig::default()
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Hang);
    }

    /// The budget must stop the compiled engine at the exact same
    /// instruction count as the reference for a spread of budgets around
    /// the poll interval (the watermark tick folds both conditions into
    /// one compare — an off-by-one here would shift every hang record).
    #[test]
    fn budget_watermark_is_exact() {
        let src = "fn @main() {\nbb0:\n  br bb0\n}\n";
        for max_insts in [1u64, 7, 4095, 4096, 4097, 8192, 10_000] {
            let config = RunConfig {
                max_insts,
                ..RunConfig::default()
            };
            let (a, b) = both(src, &config);
            assert_eq!(a.status, RunStatus::Hang);
            assert_identical(&a, &b);
        }
    }

    #[test]
    fn deep_recursion_traps_like_reference() {
        let src = r#"
fn @main() -> i64 {
bb0:
  %v0 = call @rec(0) -> i64
  ret %v0
}
fn @rec(i64) -> i64 {
bb0:
  %v0 = add i64 %arg0, 1
  %v1 = call @rec(%v0) -> i64
  ret %v1
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Trapped(Trap::StackOverflow));
        assert_identical(&a, &b);
    }

    #[test]
    fn detection_matches_reference() {
        let src = r#"
fn @main() {
bb0:
  %v0 = add i64 1, 2
  %v1 = call __ipas_check_i(%v0, 4) -> void
  ret
}
"#;
        let (a, b) = both(src, &RunConfig::default());
        assert_eq!(b.status, RunStatus::Detected);
        assert_identical(&a, &b);
    }

    #[test]
    fn site_profile_matches_reference() {
        let config = RunConfig {
            profile_sites: true,
            ..RunConfig::default()
        };
        let (a, b) = both(LOOP_SRC, &config);
        assert_eq!(a.site_profile, b.site_profile);
    }

    #[test]
    fn eligible_trace_matches_reference() {
        let config = RunConfig {
            trace_eligible: true,
            ..RunConfig::default()
        };
        let (a, b) = both(LOOP_SRC, &config);
        assert_identical(&a, &b);
        let trace = a.eligible_trace.expect("trace requested");
        assert_eq!(trace, b.eligible_trace.expect("trace requested"));
        // The RLE runs cover the eligible sequence exactly, and the
        // encoding is maximal (no two adjacent runs share a site).
        assert_eq!(
            trace.iter().map(|&(_, _, n)| n).sum::<u64>(),
            a.eligible_results
        );
        for w in trace.windows(2) {
            assert_ne!((w[0].0, w[0].1), (w[1].0, w[1].1), "non-maximal run");
        }
        // Without the flag, no trace is produced.
        let (c, _) = both(LOOP_SRC, &RunConfig::default());
        assert!(c.eligible_trace.is_none());
    }

    #[test]
    fn entry_errors_match_reference() {
        let module = parse_module("fn @foo(i64) {\nbb0:\n  ret\n}\n").unwrap();
        let prog = CompiledProgram::compile(&module);
        let mut m = CompiledMachine::new(&prog);
        let missing = m.run(&RunConfig::default()).unwrap_err();
        assert_eq!(
            missing,
            Machine::new(&module)
                .run(&RunConfig::default())
                .unwrap_err()
        );
        let config = RunConfig {
            entry: "foo".into(),
            ..RunConfig::default()
        };
        let bad_arity = m.run(&config).unwrap_err();
        assert_eq!(bad_arity, Machine::new(&module).run(&config).unwrap_err());
    }

    #[test]
    fn engine_parses_from_str() {
        assert_eq!("reference".parse::<Engine>().unwrap(), Engine::Reference);
        assert_eq!("ref".parse::<Engine>().unwrap(), Engine::Reference);
        assert_eq!("compiled".parse::<Engine>().unwrap(), Engine::Compiled);
        assert!("jit".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Compiled);
    }
}

//! Instructions of the IR.

use std::fmt;

use crate::function::BlockId;
use crate::module::FuncId;
use crate::types::Type;
use crate::value::Value;

/// Binary (two-operand) arithmetic and bitwise opcodes.
///
/// Integer opcodes operate on `i64` (and `And`/`Or`/`Xor` also on `i1`);
/// `F`-prefixed opcodes operate on `f64`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Signed integer division. Traps on division by zero or overflow.
    Sdiv,
    /// Signed integer remainder. Traps on division by zero or overflow.
    Srem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 63).
    Shl,
    /// Logical shift right (shift amount masked to 63).
    Lshr,
    /// Arithmetic shift right (shift amount masked to 63).
    Ashr,
    /// Float addition.
    Fadd,
    /// Float subtraction.
    Fsub,
    /// Float multiplication.
    Fmul,
    /// Float division.
    Fdiv,
    /// Float remainder.
    Frem,
}

impl BinOp {
    /// All binary opcodes, in a stable order.
    pub const ALL: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Sdiv,
        BinOp::Srem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Lshr,
        BinOp::Ashr,
        BinOp::Fadd,
        BinOp::Fsub,
        BinOp::Fmul,
        BinOp::Fdiv,
        BinOp::Frem,
    ];

    /// The textual mnemonic of the opcode.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::Srem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
            BinOp::Frem => "frem",
        }
    }

    /// Parses a mnemonic back to an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.mnemonic() == s)
    }

    /// Returns `true` for opcodes that operate on floats.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv | BinOp::Frem
        )
    }

    /// Returns `true` for addition or subtraction (feature 2 of Table 1).
    pub fn is_add_sub(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Fadd | BinOp::Fsub)
    }

    /// Returns `true` for multiplication or division (feature 3 of Table 1).
    pub fn is_mul_div(self) -> bool {
        matches!(self, BinOp::Mul | BinOp::Sdiv | BinOp::Fmul | BinOp::Fdiv)
    }

    /// Returns `true` for remainder opcodes (feature 4 of Table 1).
    pub fn is_rem(self) -> bool {
        matches!(self, BinOp::Srem | BinOp::Frem)
    }

    /// Returns `true` for bitwise/logical opcodes (feature 5 of Table 1).
    pub fn is_logical(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Lshr | BinOp::Ashr
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer comparison predicates (signed, plus equality).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
}

impl IcmpPred {
    /// All predicates, in a stable order.
    pub const ALL: [IcmpPred; 6] = [
        IcmpPred::Eq,
        IcmpPred::Ne,
        IcmpPred::Slt,
        IcmpPred::Sle,
        IcmpPred::Sgt,
        IcmpPred::Sge,
    ];

    /// The textual mnemonic of the predicate.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        }
    }

    /// Parses a mnemonic back to a predicate.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.mnemonic() == s)
    }

    /// Evaluates the predicate on two integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            IcmpPred::Eq => a == b,
            IcmpPred::Ne => a != b,
            IcmpPred::Slt => a < b,
            IcmpPred::Sle => a <= b,
            IcmpPred::Sgt => a > b,
            IcmpPred::Sge => a >= b,
        }
    }
}

impl fmt::Display for IcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Float comparison predicates (ordered: any comparison with NaN is false,
/// except `One`/`Une` follow IEEE semantics via Rust operators).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FcmpPred {
    /// Ordered equal.
    Oeq,
    /// Unordered-or-not-equal.
    Une,
    /// Ordered less than.
    Olt,
    /// Ordered less or equal.
    Ole,
    /// Ordered greater than.
    Ogt,
    /// Ordered greater or equal.
    Oge,
}

impl FcmpPred {
    /// All predicates, in a stable order.
    pub const ALL: [FcmpPred; 6] = [
        FcmpPred::Oeq,
        FcmpPred::Une,
        FcmpPred::Olt,
        FcmpPred::Ole,
        FcmpPred::Ogt,
        FcmpPred::Oge,
    ];

    /// The textual mnemonic of the predicate.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FcmpPred::Oeq => "oeq",
            FcmpPred::Une => "une",
            FcmpPred::Olt => "olt",
            FcmpPred::Ole => "ole",
            FcmpPred::Ogt => "ogt",
            FcmpPred::Oge => "oge",
        }
    }

    /// Parses a mnemonic back to a predicate.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.mnemonic() == s)
    }

    /// Evaluates the predicate on two floats.
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FcmpPred::Oeq => a == b,
            FcmpPred::Une => a != b,
            FcmpPred::Olt => a < b,
            FcmpPred::Ole => a <= b,
            FcmpPred::Ogt => a > b,
            FcmpPred::Oge => a >= b,
        }
    }
}

impl fmt::Display for FcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conversion opcodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Signed integer to float.
    Sitofp,
    /// Float to signed integer (saturating; NaN becomes 0).
    Fptosi,
    /// Boolean zero-extension to `i64`.
    Zext,
    /// `i64` truncation to boolean (takes bit 0).
    Trunc,
    /// Reinterpret `i64` bits as `f64` or vice versa.
    Bitcast,
    /// Pointer to `i64`.
    Ptrtoint,
    /// `i64` to pointer.
    Inttoptr,
}

impl CastOp {
    /// All cast opcodes, in a stable order.
    pub const ALL: [CastOp; 7] = [
        CastOp::Sitofp,
        CastOp::Fptosi,
        CastOp::Zext,
        CastOp::Trunc,
        CastOp::Bitcast,
        CastOp::Ptrtoint,
        CastOp::Inttoptr,
    ];

    /// The textual mnemonic of the opcode.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Sitofp => "sitofp",
            CastOp::Fptosi => "fptosi",
            CastOp::Zext => "zext",
            CastOp::Trunc => "trunc",
            CastOp::Bitcast => "bitcast",
            CastOp::Ptrtoint => "ptrtoint",
            CastOp::Inttoptr => "inttoptr",
        }
    }

    /// Parses a mnemonic back to an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.mnemonic() == s)
    }
}

impl fmt::Display for CastOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Built-in runtime functions provided by the interpreter.
///
/// These model the external library surface of the paper's workloads (libm,
/// malloc, MPI) plus the IPAS detector runtime (`__ipas_check*`), which is
/// what the duplication pass inserts at the end of each duplication path.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `f64 sqrt(f64)`.
    Sqrt,
    /// `f64 sin(f64)`.
    Sin,
    /// `f64 cos(f64)`.
    Cos,
    /// `f64 exp(f64)`.
    Exp,
    /// `f64 log(f64)` — natural log.
    Log,
    /// `f64 pow(f64, f64)`.
    Pow,
    /// `f64 fabs(f64)`.
    Fabs,
    /// `f64 floor(f64)`.
    Floor,
    /// `ptr malloc(i64 bytes)` — traps on negative or huge sizes.
    Malloc,
    /// `void free(ptr)`.
    Free,
    /// `void print_i64(i64)` — appends to the run's console log.
    PrintI64,
    /// `void print_f64(f64)` — appends to the run's console log.
    PrintF64,
    /// `void output_i64(i64)` — appends to the verified output stream.
    OutputI64,
    /// `void output_f64(f64)` — appends to the verified output stream.
    OutputF64,
    /// `i64 mpi_rank()`.
    MpiRank,
    /// `i64 mpi_size()`.
    MpiSize,
    /// `f64 mpi_allreduce_sum(f64)` — sum across ranks.
    MpiAllreduceSum,
    /// `i64 mpi_allreduce_sum_i(i64)` — sum across ranks.
    MpiAllreduceSumI,
    /// `f64 mpi_allreduce_max(f64)` — max across ranks.
    MpiAllreduceMax,
    /// `void mpi_barrier()`.
    MpiBarrier,
    /// `void mpi_allgather_f(ptr arr, i64 n)` — each rank owns the block
    /// `[r·n/P, (r+1)·n/P)`; afterwards every rank holds all blocks.
    MpiAllgatherF,
    /// `void mpi_allreduce_arr_f(ptr arr, i64 n)` — element-wise sum of
    /// the float array across ranks, result replicated.
    MpiAllreduceArrF,
    /// `void mpi_allreduce_arr_i(ptr arr, i64 n)` — element-wise sum of
    /// the integer array across ranks, result replicated.
    MpiAllreduceArrI,
    /// `void __ipas_check_i(i64 orig, i64 dup)` — raises fault detection on
    /// mismatch. Inserted by the duplication pass; never written by hand.
    IpasCheckI,
    /// `void __ipas_check_f(f64 orig, f64 dup)` — bitwise comparison.
    IpasCheckF,
    /// `void __ipas_check_p(ptr orig, ptr dup)`.
    IpasCheckP,
    /// `void __ipas_check_b(i1 orig, i1 dup)`.
    IpasCheckB,
}

impl Intrinsic {
    /// All intrinsics, in a stable order.
    pub const ALL: [Intrinsic; 27] = [
        Intrinsic::Sqrt,
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Pow,
        Intrinsic::Fabs,
        Intrinsic::Floor,
        Intrinsic::Malloc,
        Intrinsic::Free,
        Intrinsic::PrintI64,
        Intrinsic::PrintF64,
        Intrinsic::OutputI64,
        Intrinsic::OutputF64,
        Intrinsic::MpiRank,
        Intrinsic::MpiSize,
        Intrinsic::MpiAllreduceSum,
        Intrinsic::MpiAllreduceSumI,
        Intrinsic::MpiAllreduceMax,
        Intrinsic::MpiBarrier,
        Intrinsic::MpiAllgatherF,
        Intrinsic::MpiAllreduceArrF,
        Intrinsic::MpiAllreduceArrI,
        Intrinsic::IpasCheckI,
        Intrinsic::IpasCheckF,
        Intrinsic::IpasCheckP,
        Intrinsic::IpasCheckB,
    ];

    /// The external name of the intrinsic.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Pow => "pow",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Floor => "floor",
            Intrinsic::Malloc => "malloc",
            Intrinsic::Free => "free",
            Intrinsic::PrintI64 => "print_i64",
            Intrinsic::PrintF64 => "print_f64",
            Intrinsic::OutputI64 => "output_i64",
            Intrinsic::OutputF64 => "output_f64",
            Intrinsic::MpiRank => "mpi_rank",
            Intrinsic::MpiSize => "mpi_size",
            Intrinsic::MpiAllreduceSum => "mpi_allreduce_sum",
            Intrinsic::MpiAllreduceSumI => "mpi_allreduce_sum_i",
            Intrinsic::MpiAllreduceMax => "mpi_allreduce_max",
            Intrinsic::MpiBarrier => "mpi_barrier",
            Intrinsic::MpiAllgatherF => "mpi_allgather_f",
            Intrinsic::MpiAllreduceArrF => "mpi_allreduce_arr_f",
            Intrinsic::MpiAllreduceArrI => "mpi_allreduce_arr_i",
            Intrinsic::IpasCheckI => "__ipas_check_i",
            Intrinsic::IpasCheckF => "__ipas_check_f",
            Intrinsic::IpasCheckP => "__ipas_check_p",
            Intrinsic::IpasCheckB => "__ipas_check_b",
        }
    }

    /// Looks an intrinsic up by external name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|i| i.name() == s)
    }

    /// Parameter types of the intrinsic.
    pub fn param_types(self) -> &'static [Type] {
        use Type::*;
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Fabs
            | Intrinsic::Floor
            | Intrinsic::PrintF64
            | Intrinsic::OutputF64
            | Intrinsic::MpiAllreduceSum
            | Intrinsic::MpiAllreduceMax => &[F64],
            Intrinsic::Pow => &[F64, F64],
            Intrinsic::Malloc
            | Intrinsic::PrintI64
            | Intrinsic::OutputI64
            | Intrinsic::MpiAllreduceSumI => &[I64],
            Intrinsic::Free => &[Ptr],
            Intrinsic::MpiAllgatherF
            | Intrinsic::MpiAllreduceArrF
            | Intrinsic::MpiAllreduceArrI => &[Ptr, I64],
            Intrinsic::MpiRank | Intrinsic::MpiSize | Intrinsic::MpiBarrier => &[],
            Intrinsic::IpasCheckI => &[I64, I64],
            Intrinsic::IpasCheckF => &[F64, F64],
            Intrinsic::IpasCheckP => &[Ptr, Ptr],
            Intrinsic::IpasCheckB => &[Bool, Bool],
        }
    }

    /// Return type of the intrinsic.
    pub fn return_type(self) -> Type {
        use Type::*;
        match self {
            Intrinsic::Sqrt
            | Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Pow
            | Intrinsic::Fabs
            | Intrinsic::Floor
            | Intrinsic::MpiAllreduceSum
            | Intrinsic::MpiAllreduceMax => F64,
            Intrinsic::Malloc => Ptr,
            Intrinsic::MpiRank | Intrinsic::MpiSize | Intrinsic::MpiAllreduceSumI => I64,
            Intrinsic::Free
            | Intrinsic::PrintI64
            | Intrinsic::PrintF64
            | Intrinsic::OutputI64
            | Intrinsic::OutputF64
            | Intrinsic::MpiBarrier
            | Intrinsic::MpiAllgatherF
            | Intrinsic::MpiAllreduceArrF
            | Intrinsic::MpiAllreduceArrI
            | Intrinsic::IpasCheckI
            | Intrinsic::IpasCheckF
            | Intrinsic::IpasCheckP
            | Intrinsic::IpasCheckB => Void,
        }
    }

    /// Returns `true` for the IPAS detector runtime calls.
    pub fn is_ipas_check(self) -> bool {
        matches!(
            self,
            Intrinsic::IpasCheckI
                | Intrinsic::IpasCheckF
                | Intrinsic::IpasCheckP
                | Intrinsic::IpasCheckB
        )
    }

    /// Returns `true` for pure math intrinsics (safe to duplicate).
    pub fn is_pure_math(self) -> bool {
        matches!(
            self,
            Intrinsic::Sqrt
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Exp
                | Intrinsic::Log
                | Intrinsic::Pow
                | Intrinsic::Fabs
                | Intrinsic::Floor
        )
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The callee of a [`Inst::Call`] instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the same module.
    Func(FuncId),
    /// A built-in runtime function.
    Intrinsic(Intrinsic),
}

/// An IR instruction.
///
/// Terminators ([`Inst::Br`], [`Inst::CondBr`], [`Inst::Ret`]) must appear
/// exactly once, as the last instruction of each block. [`Inst::Phi`] nodes
/// must appear at the top of their block.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// Two-operand arithmetic: `result = op ty lhs, rhs`.
    Binary {
        /// The opcode.
        op: BinOp,
        /// Operand/result type (`I64`, `Bool` for bitwise ops, or `F64`).
        ty: Type,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Integer comparison producing a `Bool`.
    Icmp {
        /// The predicate.
        pred: IcmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Float comparison producing a `Bool`.
    Fcmp {
        /// The predicate.
        pred: FcmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Type conversion.
    Cast {
        /// The conversion opcode.
        op: CastOp,
        /// Destination type.
        to: Type,
        /// The converted value.
        arg: Value,
    },
    /// Conditional select: `result = cond ? then_value : else_value`.
    Select {
        /// Result type.
        ty: Type,
        /// Boolean condition.
        cond: Value,
        /// Value when the condition is true.
        then_value: Value,
        /// Value when the condition is false.
        else_value: Value,
    },
    /// Stack allocation of `count` eight-byte slots; yields a pointer.
    Alloca {
        /// Type stored in each slot (informational; every slot is 8 bytes).
        ty: Type,
        /// Number of slots.
        count: u32,
    },
    /// Memory load: `result = load ty, addr`.
    Load {
        /// Loaded type.
        ty: Type,
        /// Address operand.
        addr: Value,
    },
    /// Memory store: `store ty value, addr`.
    Store {
        /// Stored type.
        ty: Type,
        /// The value to store.
        value: Value,
        /// Address operand.
        addr: Value,
    },
    /// Pointer arithmetic: `result = base + index * 8`.
    Gep {
        /// Element type (informational; elements are 8 bytes).
        elem_ty: Type,
        /// Base pointer.
        base: Value,
        /// Element index.
        index: Value,
    },
    /// Function or intrinsic call.
    Call {
        /// The callee.
        callee: Callee,
        /// Argument values.
        args: Vec<Value>,
        /// The declared return type.
        ret_ty: Type,
    },
    /// SSA phi node; one incoming value per predecessor block.
    Phi {
        /// Result type.
        ty: Type,
        /// `(predecessor, value)` pairs.
        incomings: Vec<(BlockId, Value)>,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    CondBr {
        /// Boolean condition.
        cond: Value,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Function return.
    Ret {
        /// The returned value; `None` for `void` functions.
        value: Option<Value>,
    },
}

impl Inst {
    /// Heap bytes the instruction's operand list holds (calls and phis
    /// only), at its allocated capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Inst::Call { args, .. } => args.capacity() * std::mem::size_of::<Value>(),
            Inst::Phi { incomings, .. } => {
                incomings.capacity() * std::mem::size_of::<(BlockId, Value)>()
            }
            _ => 0,
        }
    }

    /// Returns `true` if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. }
        )
    }

    /// Returns `true` for phi nodes.
    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }

    /// The successor blocks named by this instruction (empty for
    /// non-terminators and returns).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Br { target } => vec![*target],
            Inst::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => Vec::new(),
        }
    }

    /// The type of the value produced by this instruction ([`Type::Void`]
    /// when it produces none).
    pub fn result_type(&self) -> Type {
        match self {
            Inst::Binary { ty, .. } => *ty,
            Inst::Icmp { .. } | Inst::Fcmp { .. } => Type::Bool,
            Inst::Cast { to, .. } => *to,
            Inst::Select { ty, .. } => *ty,
            Inst::Alloca { .. } | Inst::Gep { .. } => Type::Ptr,
            Inst::Load { ty, .. } => *ty,
            Inst::Call { ret_ty, .. } => *ret_ty,
            Inst::Phi { ty, .. } => *ty,
            Inst::Store { .. } | Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => {
                Type::Void
            }
        }
    }

    /// Returns `true` if this instruction produces an SSA value.
    pub fn has_result(&self) -> bool {
        self.result_type() != Type::Void
    }

    /// Collects the value operands of this instruction (not including
    /// block labels).
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on each value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Binary { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cast { arg, .. } => f(*arg),
            Inst::Select {
                cond,
                then_value,
                else_value,
                ..
            } => {
                f(*cond);
                f(*then_value);
                f(*else_value);
            }
            Inst::Alloca { .. } => {}
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { value, addr, .. } => {
                f(*value);
                f(*addr);
            }
            Inst::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    f(*v);
                }
            }
            Inst::Br { .. } => {}
            Inst::CondBr { cond, .. } => f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
        }
    }

    /// Rewrites each value operand through `f` in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Binary { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { arg, .. } => *arg = f(*arg),
            Inst::Select {
                cond,
                then_value,
                else_value,
                ..
            } => {
                *cond = f(*cond);
                *then_value = f(*then_value);
                *else_value = f(*else_value);
            }
            Inst::Alloca { .. } => {}
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Store { value, addr, .. } => {
                *value = f(*value);
                *addr = f(*addr);
            }
            Inst::Gep { base, index, .. } => {
                *base = f(*base);
                *index = f(*index);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Inst::Br { .. } => {}
            Inst::CondBr { cond, .. } => *cond = f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v);
                }
            }
        }
    }

    /// A short, human-readable opcode name (used in diagnostics and
    /// feature dumps).
    pub fn opcode_name(&self) -> &'static str {
        match self {
            Inst::Binary { op, .. } => op.mnemonic(),
            Inst::Icmp { .. } => "icmp",
            Inst::Fcmp { .. } => "fcmp",
            Inst::Cast { op, .. } => op.mnemonic(),
            Inst::Select { .. } => "select",
            Inst::Alloca { .. } => "alloca",
            Inst::Load { .. } => "load",
            Inst::Store { .. } => "store",
            Inst::Gep { .. } => "gep",
            Inst::Call { .. } => "call",
            Inst::Phi { .. } => "phi",
            Inst::Br { .. } => "br",
            Inst::CondBr { .. } => "condbr",
            Inst::Ret { .. } => "ret",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_mnemonics_round_trip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn binop_categories_are_disjoint_for_arith() {
        assert!(BinOp::Add.is_add_sub() && !BinOp::Add.is_mul_div());
        assert!(BinOp::Fmul.is_mul_div() && !BinOp::Fmul.is_add_sub());
        assert!(BinOp::Srem.is_rem() && !BinOp::Srem.is_logical());
        assert!(BinOp::Xor.is_logical() && !BinOp::Xor.is_add_sub());
    }

    #[test]
    fn icmp_eval() {
        assert!(IcmpPred::Slt.eval(-1, 0));
        assert!(!IcmpPred::Sgt.eval(-1, 0));
        assert!(IcmpPred::Eq.eval(5, 5));
        assert!(IcmpPred::Ne.eval(5, 6));
        assert!(IcmpPred::Sle.eval(5, 5));
        assert!(IcmpPred::Sge.eval(5, 5));
    }

    #[test]
    fn fcmp_eval_nan_is_unordered() {
        assert!(!FcmpPred::Oeq.eval(f64::NAN, f64::NAN));
        assert!(FcmpPred::Une.eval(f64::NAN, 1.0));
        assert!(!FcmpPred::Olt.eval(f64::NAN, 1.0));
    }

    #[test]
    fn intrinsic_names_round_trip() {
        for intr in [
            Intrinsic::Sqrt,
            Intrinsic::Malloc,
            Intrinsic::MpiAllreduceSum,
            Intrinsic::IpasCheckF,
        ] {
            assert_eq!(Intrinsic::from_name(intr.name()), Some(intr));
        }
        assert_eq!(Intrinsic::from_name("nope"), None);
    }

    #[test]
    fn intrinsic_signatures() {
        assert_eq!(Intrinsic::Pow.param_types(), &[Type::F64, Type::F64]);
        assert_eq!(Intrinsic::Malloc.return_type(), Type::Ptr);
        assert_eq!(Intrinsic::IpasCheckI.return_type(), Type::Void);
        assert!(Intrinsic::IpasCheckP.is_ipas_check());
        assert!(Intrinsic::Sqrt.is_pure_math());
        assert!(!Intrinsic::Malloc.is_pure_math());
    }

    #[test]
    fn inst_result_types() {
        let add = Inst::Binary {
            op: BinOp::Add,
            ty: Type::I64,
            lhs: Value::i64(1),
            rhs: Value::i64(2),
        };
        assert_eq!(add.result_type(), Type::I64);
        assert!(add.has_result());
        let st = Inst::Store {
            ty: Type::I64,
            value: Value::i64(1),
            addr: Value::null(),
        };
        assert_eq!(st.result_type(), Type::Void);
        assert!(!st.has_result());
    }

    #[test]
    fn successors_and_terminators() {
        let b0 = BlockId::new(0);
        let b1 = BlockId::new(1);
        let br = Inst::Br { target: b1 };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![b1]);
        let cbr = Inst::CondBr {
            cond: Value::bool(true),
            then_bb: b0,
            else_bb: b1,
        };
        assert_eq!(cbr.successors(), vec![b0, b1]);
        let ret = Inst::Ret { value: None };
        assert!(ret.is_terminator());
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn map_operands_rewrites_everything() {
        let mut call = Inst::Call {
            callee: Callee::Intrinsic(Intrinsic::Pow),
            args: vec![Value::f64(2.0), Value::f64(3.0)],
            ret_ty: Type::F64,
        };
        call.map_operands(|_| Value::f64(1.0));
        assert_eq!(call.operands(), vec![Value::f64(1.0), Value::f64(1.0)]);
    }
}

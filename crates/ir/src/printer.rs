//! Textual rendering of modules and functions.
//!
//! The format round-trips through [`crate::parser`]. Instruction results
//! are printed with their arena index (`%v3`), parameters as `%argN`, and
//! blocks as `bbN:` labels in layout order.

use std::fmt::Write as _;

use crate::function::Function;
use crate::inst::{Callee, Inst};
use crate::module::Module;
use crate::types::Type;

/// Renders a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module \"{}\"", module.name());
    for (_, func) in module.functions() {
        out.push('\n');
        out.push_str(&print_function(func, Some(module)));
    }
    out
}

/// Renders a single function. When `module` is provided, callees are
/// printed by name; otherwise by id.
pub fn print_function(func: &Function, module: Option<&Module>) -> String {
    let mut out = String::new();
    let params = func
        .params()
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(out, "fn @{}({})", func.name(), params);
    if func.return_type() != Type::Void {
        let _ = write!(out, " -> {}", func.return_type());
    }
    out.push_str(" {\n");
    for bb in func.block_ids() {
        let _ = writeln!(out, "{bb}:");
        for &id in func.block(bb).insts() {
            let inst = func.inst(id);
            out.push_str("  ");
            if inst.has_result() {
                let _ = write!(out, "%v{} = ", id.index());
            }
            out.push_str(&print_inst(inst, module));
            out.push('\n');
        }
    }
    out.push_str("}\n");
    out
}

/// Renders one instruction (without the result assignment).
pub fn print_inst(inst: &Inst, module: Option<&Module>) -> String {
    match inst {
        Inst::Binary { op, ty, lhs, rhs } => format!("{op} {ty} {lhs}, {rhs}"),
        Inst::Icmp { pred, lhs, rhs } => format!("icmp {pred} {lhs}, {rhs}"),
        Inst::Fcmp { pred, lhs, rhs } => format!("fcmp {pred} {lhs}, {rhs}"),
        Inst::Cast { op, to, arg } => format!("{op} {to} {arg}"),
        Inst::Select {
            ty,
            cond,
            then_value,
            else_value,
        } => format!("select {ty} {cond}, {then_value}, {else_value}"),
        Inst::Alloca { ty, count } => format!("alloca {ty}, {count}"),
        Inst::Load { ty, addr } => format!("load {ty}, {addr}"),
        Inst::Store { ty, value, addr } => format!("store {ty} {value}, {addr}"),
        Inst::Gep {
            elem_ty,
            base,
            index,
        } => format!("gep {elem_ty} {base}, {index}"),
        Inst::Call {
            callee,
            args,
            ret_ty,
        } => {
            let name = match callee {
                Callee::Func(id) => match module {
                    Some(m) => format!("@{}", m.function(*id).name()),
                    None => format!("@{id}"),
                },
                Callee::Intrinsic(i) => i.name().to_string(),
            };
            let args = args
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("call {name}({args}) -> {ret_ty}")
        }
        Inst::Phi { ty, incomings } => {
            let inc = incomings
                .iter()
                .map(|(bb, v)| format!("{bb}: {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!("phi {ty} [{inc}]")
        }
        Inst::Br { target } => format!("br {target}"),
        Inst::CondBr {
            cond,
            then_bb,
            else_bb,
        } => format!("condbr {cond}, {then_bb}, {else_bb}"),
        Inst::Ret { value } => match value {
            Some(v) => format!("ret {v}"),
            None => "ret".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, IcmpPred, Intrinsic};
    use crate::value::Value;

    #[test]
    fn prints_binary_and_ret() {
        let mut b = FunctionBuilder::new("f", &[Type::I64], Type::I64);
        let v = b.binary(BinOp::Add, Type::I64, Value::param(0), Value::i64(1));
        b.ret(Some(v));
        let text = print_function(&b.finish(), None);
        assert!(text.contains("fn @f(i64) -> i64 {"), "{text}");
        assert!(text.contains("%v0 = add i64 %arg0, 1"), "{text}");
        assert!(text.contains("ret %v0"), "{text}");
    }

    #[test]
    fn prints_calls_and_branches() {
        let mut b = FunctionBuilder::new("g", &[Type::F64], Type::Void);
        let entry = b.entry_block();
        let done = b.new_block();
        b.switch_to_block(entry);
        let s = b.call_intrinsic(Intrinsic::Sqrt, vec![Value::param(0)]);
        let c = b.icmp(IcmpPred::Eq, Value::i64(0), Value::i64(0));
        b.cond_br(c, done, done);
        b.switch_to_block(done);
        b.call_intrinsic(Intrinsic::PrintF64, vec![s]);
        b.ret(None);
        let text = print_function(&b.finish(), None);
        assert!(text.contains("call sqrt(%arg0) -> f64"), "{text}");
        assert!(text.contains("condbr %v1, bb1, bb1"), "{text}");
        assert!(text.contains("call print_f64(%v0) -> void"), "{text}");
    }

    #[test]
    fn prints_phi() {
        let mut b = FunctionBuilder::new("h", &[], Type::I64);
        let entry = b.entry_block();
        let next = b.new_block();
        b.switch_to_block(entry);
        b.br(next);
        b.switch_to_block(next);
        let p = b.phi(Type::I64, vec![(entry, Value::i64(7))]);
        b.ret(Some(p));
        let text = print_function(&b.finish(), None);
        assert!(text.contains("phi i64 [bb0: 7]"), "{text}");
    }
}

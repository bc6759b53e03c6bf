//! Seeded structured generator for SciL source programs.
//!
//! The generator emits programs from a typed statement/expression
//! grammar, tracking every variable's [`LangType`]-like category so the
//! output always passes the checker. Loops use literal trip counts and
//! array indices are kept in bounds (loop counters modulo the literal
//! array length), so every generated program terminates; division uses
//! non-zero literal divisors most of the time but deliberately keeps a
//! small trap-path budget.

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;

/// The generator's view of a SciL type.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Ty {
    Int,
    Float,
    Bool,
    /// `[int]` with its literal allocation length.
    ArrInt(i64),
    /// `[float]` with its literal allocation length.
    ArrFloat(i64),
}

struct Scope {
    /// `(name, type)` for every variable visible here.
    vars: Vec<(String, Ty)>,
    next_var: usize,
}

impl Scope {
    fn fresh(&mut self, ty: Ty) -> String {
        let name = format!("v{}", self.next_var);
        self.next_var += 1;
        self.vars.push((name.clone(), ty));
        name
    }

    fn of(&self, want: impl Fn(Ty) -> bool) -> Vec<(String, Ty)> {
        self.vars
            .iter()
            .filter(|(_, t)| want(*t))
            .cloned()
            .collect()
    }
}

struct Gen<'r> {
    rng: &'r mut StdRng,
    out: String,
    indent: usize,
    /// Remaining statement budget for the current function, shared
    /// across nesting so deep blocks cannot explode.
    budget: usize,
    /// Names of loop counters currently in scope (always `>= 0`, so
    /// they are safe modulo operands for in-bounds indexing).
    counters: Vec<String>,
    outputs: usize,
    /// Names and arities of previously generated helper functions
    /// (`(name, n_int_params, returns_float)`), callable from `main`.
    helpers: Vec<(String, usize, bool)>,
}

const INT_LITS: [i64; 8] = [0, 1, 2, 3, 7, 10, 100, 1023];
const FLOAT_LITS: [&str; 7] = ["0.0", "1.0", "0.5", "2.0", "3.25", "1.5e2", "1e10"];
const NZ_DIVISORS: [&str; 5] = ["1", "2", "3", "7", "16"];

impl<'r> Gen<'r> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    // ---- expressions ------------------------------------------------

    fn int_expr(&mut self, scope: &Scope, depth: usize) -> String {
        let vars = scope.of(|t| t == Ty::Int);
        if depth == 0 || self.rng.gen_bool(0.35) {
            return if !vars.is_empty() && self.rng.gen_bool(0.6) {
                vars[self.rng.gen_range(0..vars.len())].0.clone()
            } else {
                INT_LITS[self.rng.gen_range(0..INT_LITS.len())].to_string()
            };
        }
        match self.rng.gen_range(0..7u32) {
            0..=2 => {
                let op = ["+", "-", "*"][self.rng.gen_range(0..3usize)];
                let a = self.int_expr(scope, depth - 1);
                let b = self.int_expr(scope, depth - 1);
                format!("({a} {op} {b})")
            }
            3 => {
                // Division/remainder: usually a literal non-zero
                // divisor; occasionally a live value (trap path).
                let op = if self.rng.gen_bool(0.5) { "/" } else { "%" };
                let a = self.int_expr(scope, depth - 1);
                let b = if self.rng.gen_bool(0.85) {
                    NZ_DIVISORS[self.rng.gen_range(0..NZ_DIVISORS.len())].to_string()
                } else {
                    self.int_expr(scope, depth - 1)
                };
                format!("({a} {op} {b})")
            }
            4 => {
                let a = self.float_expr(scope, depth - 1);
                format!("ftoi({a})")
            }
            5 => {
                let arrs = scope.of(|t| matches!(t, Ty::ArrInt(_)));
                match arrs.into_iter().next() {
                    Some((name, Ty::ArrInt(len))) => {
                        let idx = self.index_expr(len);
                        format!("{name}[{idx}]")
                    }
                    _ => self.int_expr(scope, depth - 1),
                }
            }
            _ => {
                let a = self.int_expr(scope, depth - 1);
                format!("(0 - {a})")
            }
        }
    }

    fn float_expr(&mut self, scope: &Scope, depth: usize) -> String {
        let vars = scope.of(|t| t == Ty::Float);
        if depth == 0 || self.rng.gen_bool(0.35) {
            return if !vars.is_empty() && self.rng.gen_bool(0.6) {
                vars[self.rng.gen_range(0..vars.len())].0.clone()
            } else {
                FLOAT_LITS[self.rng.gen_range(0..FLOAT_LITS.len())].to_string()
            };
        }
        match self.rng.gen_range(0..6u32) {
            0..=1 => {
                let op = ["+", "-", "*", "/"][self.rng.gen_range(0..4usize)];
                let a = self.float_expr(scope, depth - 1);
                let b = self.float_expr(scope, depth - 1);
                format!("({a} {op} {b})")
            }
            2 => {
                let f =
                    ["sqrt", "sin", "cos", "fabs", "floor", "exp"][self.rng.gen_range(0..6usize)];
                let a = self.float_expr(scope, depth - 1);
                format!("{f}({a})")
            }
            3 => {
                let a = self.int_expr(scope, depth - 1);
                format!("itof({a})")
            }
            4 => {
                let arrs = scope.of(|t| matches!(t, Ty::ArrFloat(_)));
                match arrs.into_iter().next() {
                    Some((name, Ty::ArrFloat(len))) => {
                        let idx = self.index_expr(len);
                        format!("{name}[{idx}]")
                    }
                    _ => self.float_expr(scope, depth - 1),
                }
            }
            _ => {
                let a = self.float_expr(scope, depth - 1);
                let b = self.float_expr(scope, depth - 1);
                format!("pow({a}, {b})")
            }
        }
    }

    fn bool_expr(&mut self, scope: &Scope, depth: usize) -> String {
        if depth == 0 || self.rng.gen_bool(0.3) {
            return if self.rng.gen_bool(0.5) {
                "true"
            } else {
                "false"
            }
            .to_string();
        }
        match self.rng.gen_range(0..3u32) {
            0 => {
                let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
                let a = self.int_expr(scope, depth - 1);
                let b = self.int_expr(scope, depth - 1);
                format!("({a} {op} {b})")
            }
            1 => {
                let op = ["<", "<=", ">", ">="][self.rng.gen_range(0..4usize)];
                let a = self.float_expr(scope, depth - 1);
                let b = self.float_expr(scope, depth - 1);
                format!("({a} {op} {b})")
            }
            _ => {
                let op = if self.rng.gen_bool(0.5) { "&&" } else { "||" };
                let a = self.bool_expr(scope, depth - 1);
                let b = self.bool_expr(scope, depth - 1);
                format!("({a} {op} {b})")
            }
        }
    }

    /// A provably in-bounds index for an array of length `len`: either
    /// a literal, or a non-negative loop counter modulo the length.
    fn index_expr(&mut self, len: i64) -> String {
        if !self.counters.is_empty() && self.rng.gen_bool(0.5) {
            let c = &self.counters[self.rng.gen_range(0..self.counters.len())];
            format!("({c} % {len})")
        } else {
            self.rng.gen_range(0..len).to_string()
        }
    }

    // ---- statements -------------------------------------------------

    fn stmt(&mut self, scope: &mut Scope, depth: usize) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match self.rng.gen_range(0..12u32) {
            0..=2 => {
                // New typed let.
                match self.rng.gen_range(0..3u32) {
                    0 => {
                        let e = self.int_expr(scope, 2);
                        let n = scope.fresh(Ty::Int);
                        self.line(&format!("let {n}: int = {e};"));
                    }
                    1 => {
                        let e = self.float_expr(scope, 2);
                        let n = scope.fresh(Ty::Float);
                        self.line(&format!("let {n}: float = {e};"));
                    }
                    _ => {
                        let e = self.bool_expr(scope, 2);
                        let n = scope.fresh(Ty::Bool);
                        self.line(&format!("let {n}: bool = {e};"));
                    }
                }
            }
            3 => {
                // Reassign an existing scalar — but never a live loop
                // counter, which must keep marching toward its bound.
                let counters = self.counters.clone();
                let vars = scope.of(|t| t == Ty::Int || t == Ty::Float);
                let vars: Vec<_> = vars
                    .into_iter()
                    .filter(|(n, _)| !counters.contains(n))
                    .collect();
                if let Some((name, ty)) = vars.into_iter().next() {
                    let e = if ty == Ty::Int {
                        self.int_expr(scope, 2)
                    } else {
                        self.float_expr(scope, 2)
                    };
                    self.line(&format!("{name} = {e};"));
                }
            }
            4 => {
                // Array allocation (int or float).
                let len = self.rng.gen_range(1..9i64);
                if self.rng.gen_bool(0.5) {
                    let n = scope.fresh(Ty::ArrInt(len));
                    self.line(&format!("let {n}: [int] = new_int({len});"));
                } else {
                    let n = scope.fresh(Ty::ArrFloat(len));
                    self.line(&format!("let {n}: [float] = new_float({len});"));
                }
            }
            5 => {
                // In-bounds array store.
                let arrs = scope.of(|t| matches!(t, Ty::ArrInt(_) | Ty::ArrFloat(_)));
                if let Some((name, ty)) = arrs.into_iter().next() {
                    let (len, val) = match ty {
                        Ty::ArrInt(len) => (len, self.int_expr(scope, 2)),
                        Ty::ArrFloat(len) => (len, self.float_expr(scope, 2)),
                        _ => unreachable!(),
                    };
                    let idx = self.index_expr(len);
                    self.line(&format!("{name}[{idx}] = {val};"));
                }
            }
            6..=7 if depth > 0 => {
                // If / if-else.
                let cond = self.bool_expr(scope, 2);
                self.line(&format!("if ({cond}) {{"));
                self.indent += 1;
                let mark = scope.vars.len();
                for _ in 0..self.rng.gen_range(1..3usize) {
                    self.stmt(scope, depth - 1);
                }
                scope.vars.truncate(mark);
                self.indent -= 1;
                if self.rng.gen_bool(0.5) {
                    self.line("} else {");
                    self.indent += 1;
                    for _ in 0..self.rng.gen_range(1..3usize) {
                        self.stmt(scope, depth - 1);
                    }
                    scope.vars.truncate(mark);
                    self.indent -= 1;
                }
                self.line("}");
            }
            8 if depth > 0 => {
                // Bounded for loop with a fresh counter.
                let trips = self.rng.gen_range(2..9i64);
                let c = scope.fresh(Ty::Int);
                self.line(&format!(
                    "for (let {c}: int = 0; {c} < {trips}; {c} = {c} + 1) {{"
                ));
                self.counters.push(c);
                self.indent += 1;
                let mark = scope.vars.len();
                for _ in 0..self.rng.gen_range(1..3usize) {
                    self.stmt(scope, depth - 1);
                }
                scope.vars.truncate(mark);
                self.indent -= 1;
                self.counters.pop();
                self.line("}");
                // The counter itself leaves scope with the loop.
                scope.vars.pop();
            }
            9 if depth > 0 => {
                // Bounded while loop over a counter variable.
                let trips = self.rng.gen_range(2..7i64);
                let c = scope.fresh(Ty::Int);
                self.line(&format!("let {c}: int = 0;"));
                self.line(&format!("while ({c} < {trips}) {{"));
                self.counters.push(c.clone());
                self.indent += 1;
                let mark = scope.vars.len();
                for _ in 0..self.rng.gen_range(1..3usize) {
                    self.stmt(scope, depth - 1);
                }
                scope.vars.truncate(mark);
                self.line(&format!("{c} = {c} + 1;"));
                self.indent -= 1;
                self.counters.pop();
                self.line("}");
            }
            10 => {
                // Call a helper for effect/value.
                if let Some((name, arity, is_float)) = self.helpers.first().cloned() {
                    let args: Vec<String> = (0..arity).map(|_| self.int_expr(scope, 1)).collect();
                    let call = format!("{name}({})", args.join(", "));
                    let (n, decl) = if is_float {
                        (scope.fresh(Ty::Float), "float")
                    } else {
                        (scope.fresh(Ty::Int), "int")
                    };
                    self.line(&format!("let {n}: {decl} = {call};"));
                } else {
                    self.emit_output(scope);
                }
            }
            _ => self.emit_output(scope),
        }
    }

    fn emit_output(&mut self, scope: &Scope) {
        if self.outputs >= 8 {
            return;
        }
        self.outputs += 1;
        if self.rng.gen_bool(0.5) {
            let e = self.int_expr(scope, 2);
            self.line(&format!("output_i({e});"));
        } else {
            let e = self.float_expr(scope, 2);
            self.line(&format!("output_f({e});"));
        }
    }

    fn function(&mut self, name: &str, int_params: usize, ret_float: bool, stmts: usize) {
        let params: Vec<String> = (0..int_params).map(|i| format!("p{i}: int")).collect();
        let ret = if ret_float { "float" } else { "int" };
        self.line(&format!("fn {name}({}) -> {ret} {{", params.join(", ")));
        self.indent += 1;
        let mut scope = Scope {
            vars: (0..int_params)
                .map(|i| (format!("p{i}"), Ty::Int))
                .collect(),
            next_var: 0,
        };
        self.budget = stmts;
        while self.budget > 0 {
            self.stmt(&mut scope, 2);
        }
        if name == "main" {
            self.outputs = 0;
            self.emit_output(&scope);
            self.emit_output(&scope);
        }
        let ret_expr = if ret_float {
            self.float_expr(&scope, 2)
        } else {
            self.int_expr(&scope, 2)
        };
        self.line(&format!("return {ret_expr};"));
        self.indent -= 1;
        self.line("}");
        self.out.push('\n');
    }
}

/// Generates one type-correct, terminating SciL program.
///
/// The result always compiles through `ipas_lang::compile` — a
/// rejection is a generator bug, not a finding — and its loops have
/// literal trip counts, so execution retires a bounded number of
/// instructions unless a deliberately generated trap path fires first.
pub fn gen_program(rng: &mut StdRng) -> String {
    let mut g = Gen {
        rng,
        out: String::new(),
        indent: 0,
        budget: 0,
        counters: Vec::new(),
        outputs: 0,
        helpers: Vec::new(),
    };
    let mut header = String::new();
    let _ = writeln!(header, "// seeded fuzz program");
    g.out.push_str(&header);

    if g.rng.gen_bool(0.6) {
        let arity = g.rng.gen_range(0..3usize);
        let ret_float = g.rng.gen_bool(0.5);
        g.function("helper", arity, ret_float, 4);
        g.helpers.push(("helper".to_string(), arity, ret_float));
    }
    g.outputs = 0;
    let stmts = g.rng.gen_range(5..14usize);
    g.function("main", 0, false, stmts);
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_compile() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = gen_program(&mut rng);
            ipas_lang::compile(&src).unwrap_or_else(|e| {
                panic!("seed {seed}: generator emitted a rejected program: {e:?}\n{src}")
            });
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_program(&mut StdRng::seed_from_u64(7));
        let b = gen_program(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn generated_programs_terminate() {
        use ipas_interp::{Machine, RunConfig, RunStatus};
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = gen_program(&mut rng);
            let module = ipas_lang::compile(&src).expect("compiles");
            let cfg = RunConfig {
                max_insts: 2_000_000,
                ..RunConfig::default()
            };
            let out = Machine::new(&module).run(&cfg).expect("well-formed");
            assert_ne!(
                out.status,
                RunStatus::Hang,
                "seed {seed}: bounded loops must terminate\n{src}"
            );
        }
    }
}

//! Modules: collections of functions.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::function::Function;

/// Identifies a function within a [`Module`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(u32);

impl FuncId {
    /// Creates a function id from a raw index.
    pub fn new(index: usize) -> Self {
        FuncId(index as u32)
    }

    /// The raw index of this function.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A compilation unit: a named set of functions.
///
/// Function ids are assigned in insertion order and never invalidated.
///
/// The canonical printed text is memoized: [`Module::text`] prints on
/// first use and later calls read the memo. [`Module::add_function`]
/// and [`Module::function_mut`], the only ways to mutate a module,
/// clear it.
#[derive(Clone, Default)]
pub struct Module {
    name: String,
    funcs: Vec<Function>,
    by_name: HashMap<String, FuncId>,
    text: OnceLock<String>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            by_name: HashMap::new(),
            text: OnceLock::new(),
        }
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        let id = FuncId::new(self.funcs.len());
        assert!(
            self.by_name.insert(func.name().to_string(), id).is_none(),
            "duplicate function name `{}`",
            func.name()
        );
        self.text.take();
        self.funcs.push(func);
        id
    }

    /// Looks a function up by name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Borrows a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutably borrows a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        self.text.take();
        &mut self.funcs[id.index()]
    }

    /// Number of functions in the module.
    pub fn num_functions(&self) -> usize {
        self.funcs.len()
    }

    /// Iterates over `(id, function)` pairs in insertion order.
    pub fn functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// Total linked static instructions across all functions (Table 3).
    pub fn num_static_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_linked_insts()).sum()
    }

    /// The module in the textual IR format, printed on first use and
    /// memoized until the next mutation.
    pub fn text(&self) -> &str {
        self.text.get_or_init(|| crate::printer::print_module(self))
    }

    /// Renders the module in the textual IR format (an owned copy of
    /// [`Module::text`]).
    pub fn to_text(&self) -> String {
        self.text().to_string()
    }

    /// Heap bytes the module holds: its functions at their allocated
    /// capacities, its name index and, once printed, its text memo.
    pub fn bytes(&self) -> usize {
        // A hash table holds a control byte besides each slot.
        let index = self.by_name.capacity() * (std::mem::size_of::<(String, FuncId)>() + 1)
            + self.by_name.keys().map(String::capacity).sum::<usize>();
        self.name.capacity()
            + self.funcs.capacity() * std::mem::size_of::<Function>()
            + self.funcs.iter().map(Function::bytes).sum::<usize>()
            + index
            + self.text.get().map_or(0, String::capacity)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// Shows the module's contents, not its text memo, so the output does
/// not depend on whether the module was printed.
impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("funcs", &self.funcs)
            .field("by_name", &self.by_name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new("m");
        let id = m.add_function(Function::new("foo", &[Type::I64], Type::Void));
        assert_eq!(m.function_id("foo"), Some(id));
        assert_eq!(m.function_id("bar"), None);
        assert_eq!(m.function(id).name(), "foo");
        assert_eq!(m.num_functions(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_panic() {
        let mut m = Module::new("m");
        m.add_function(Function::new("foo", &[], Type::Void));
        m.add_function(Function::new("foo", &[], Type::Void));
    }

    fn ret_function(name: &str) -> Function {
        let mut b = crate::FunctionBuilder::new(name, &[Type::I64], Type::I64);
        let entry = b.entry_block();
        b.switch_to_block(entry);
        b.ret(Some(crate::Value::param(0)));
        b.finish()
    }

    /// The memo must always equal a fresh print, and so must a clone's.
    fn assert_memo_fresh(m: &Module) {
        let fresh = crate::printer::print_module(m);
        assert_eq!(m.text(), fresh);
        assert_eq!(m.to_text(), fresh);
        assert_eq!(m.to_string(), fresh);
        assert_eq!(m.clone().text(), fresh);
    }

    #[test]
    fn text_memo_follows_every_mutation() {
        let mut m = Module::new("m");
        assert_memo_fresh(&m);
        let f = m.add_function(ret_function("f"));
        assert_memo_fresh(&m);
        let before = m.text().to_string();
        // Mutate through `function_mut`: the memo must not go stale.
        let entry = m.function(f).entry();
        m.function_mut(f).insert_inst(
            entry,
            0,
            crate::Inst::Binary {
                op: crate::BinOp::Add,
                ty: Type::I64,
                lhs: crate::Value::param(0),
                rhs: crate::Value::param(0),
            },
        );
        assert_memo_fresh(&m);
        assert_ne!(m.text(), before);
        m.add_function(ret_function("g"));
        assert_memo_fresh(&m);
        assert!(m.text().contains("@g"));
    }

    #[test]
    fn debug_output_ignores_the_memo() {
        let mut m = Module::new("m");
        m.add_function(ret_function("f"));
        let unprinted = format!("{m:?}");
        let _ = m.text();
        assert_eq!(format!("{m:?}"), unprinted);
        assert!(unprinted.starts_with("Module { name: \"m\", funcs: ["));
        assert_eq!(
            format!("{:?}", Module::default()),
            "Module { name: \"\", funcs: [], by_name: {} }"
        );
    }

    #[test]
    fn bytes_count_functions_operand_lists_and_the_text_memo() {
        let mut m = Module::new("m");
        let empty = m.bytes();
        let f = m.add_function(ret_function("f"));
        let one = m.bytes();
        assert!(one >= empty + std::mem::size_of::<Function>() + "f".len());
        let entry = m.function(f).entry();
        m.function_mut(f).insert_inst(
            entry,
            0,
            crate::Inst::Call {
                callee: crate::inst::Callee::Func(f),
                args: vec![crate::Value::param(0); 3],
                ret_ty: Type::I64,
            },
        );
        let call = m.bytes();
        assert!(call >= one + 3 * std::mem::size_of::<crate::Value>());
        // Printing fills the memo, which the module then holds.
        let text = m.text().len();
        assert!(m.bytes() >= call + text);
    }

    #[test]
    fn functions_iterate_in_order() {
        let mut m = Module::new("m");
        m.add_function(Function::new("a", &[], Type::Void));
        m.add_function(Function::new("b", &[], Type::Void));
        let names: Vec<_> = m.functions().map(|(_, f)| f.name().to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

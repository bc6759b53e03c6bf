//! Modules: collections of functions.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::function::Function;
use crate::sha256;

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
/// first use and later calls read the memo, and so is its
/// [`Module::canonical_digest`]. [`Module::add_function`] and
/// [`Module::function_mut`], the only ways to mutate a module, clear
/// both.
#[derive(Clone, Default)]
pub struct Module {
    name: String,
    funcs: Vec<Function>,
    by_name: HashMap<String, FuncId>,
    text: OnceLock<String>,
    digest: OnceLock<String>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            by_name: HashMap::new(),
            text: OnceLock::new(),
            digest: OnceLock::new(),
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
        self.clear_memos();
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
        self.clear_memos();
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

    /// The SHA-256, as 64 lowercase hex digits, of the module's text
    /// after one parse round trip, memoized like [`Module::text`]. The
    /// printer writes each value under its arena index and the parser
    /// numbers values densely in layout order, so a pass's output and
    /// the same module read back from its printed IR print differently
    /// but share this digest; a second round trip is a fixpoint.
    pub fn canonical_digest(&self) -> &str {
        self.digest.get_or_init(|| {
            let digest = |text: &str| sha256::hex(&sha256::sha256(text.as_bytes()));
            match crate::parser::parse_module(self.text()) {
                Ok(canonical) => digest(canonical.text()),
                // Printed IR always parses (the fuzz round-trip oracle
                // checks it); the printed text is still a faithful
                // digest if not.
                Err(_) => digest(self.text()),
            }
        })
    }

    fn clear_memos(&mut self) {
        self.text.take();
        self.digest.take();
    }

    /// Renders the module in the textual IR format (an owned copy of
    /// [`Module::text`]).
    pub fn to_text(&self) -> String {
        self.text().to_string()
    }

    /// Heap bytes the module holds: its functions at their allocated
    /// capacities, its name index and, once computed, its text and
    /// digest memos.
    pub fn bytes(&self) -> usize {
        // A hash table holds a control byte besides each slot.
        let index = self.by_name.capacity() * (std::mem::size_of::<(String, FuncId)>() + 1)
            + self.by_name.keys().map(String::capacity).sum::<usize>();
        self.name.capacity()
            + self.funcs.capacity() * std::mem::size_of::<Function>()
            + self.funcs.iter().map(Function::bytes).sum::<usize>()
            + index
            + self.text.get().map_or(0, String::capacity)
            + self.digest.get().map_or(0, String::capacity)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// Shows the module's contents, not its memos, so the output does not
/// depend on whether the module was printed or digested.
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

    /// The memos must always equal a fresh print and a fresh digest,
    /// and so must a clone's.
    fn assert_memo_fresh(m: &Module) {
        let fresh = crate::printer::print_module(m);
        assert_eq!(m.text(), fresh);
        assert_eq!(m.to_text(), fresh);
        assert_eq!(m.to_string(), fresh);
        assert_eq!(m.clone().text(), fresh);
        let canonical = crate::parser::parse_module(&fresh)
            .map_or(fresh, |parsed| crate::printer::print_module(&parsed));
        let digest = sha256::hex(&sha256::sha256(canonical.as_bytes()));
        assert_eq!(m.canonical_digest(), digest);
        assert_eq!(m.clone().canonical_digest(), digest);
    }

    #[test]
    fn text_memo_follows_every_mutation() {
        let mut m = Module::new("m");
        assert_memo_fresh(&m);
        let f = m.add_function(ret_function("f"));
        assert_memo_fresh(&m);
        let before = m.text().to_string();
        let digest_before = m.canonical_digest().to_string();
        // Mutate through `function_mut`: the memos must not go stale.
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
        assert_ne!(m.canonical_digest(), digest_before);
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
        let _ = m.canonical_digest();
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

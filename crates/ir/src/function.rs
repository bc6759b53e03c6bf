//! Functions, basic blocks, and instruction arenas.

use std::collections::HashMap;
use std::fmt;

use crate::inst::Inst;
use crate::types::Type;
use crate::value::Value;

/// Identifies a basic block within a [`Function`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id from a raw index.
    pub fn new(index: usize) -> Self {
        BlockId(index as u32)
    }

    /// The raw index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifies an instruction within a [`Function`]'s arena.
///
/// Instruction ids are stable across transformations: passes that delete an
/// instruction only unlink it from its block; the arena slot is retained so
/// that analysis results keyed by `InstId` remain valid.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl InstId {
    /// Creates an instruction id from a raw index.
    pub fn new(index: usize) -> Self {
        InstId(index as u32)
    }

    /// The raw index of this instruction.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%v{}", self.0)
    }
}

/// A basic block: an ordered list of instruction ids, ending in a
/// terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    insts: Vec<InstId>,
}

impl Block {
    /// The instructions of this block, in execution order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// The terminator instruction id, if the block is non-empty.
    pub fn terminator(&self) -> Option<InstId> {
        self.insts.last().copied()
    }

    /// Number of instructions in the block (feature 14 of Table 1).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A function: typed parameters, a return type, and a CFG of basic blocks
/// over an instruction arena.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    name: String,
    params: Vec<Type>,
    ret: Type,
    blocks: Vec<Block>,
    insts: Vec<Inst>,
}

impl Function {
    /// Creates an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>, params: &[Type], ret: Type) -> Self {
        Function {
            name: name.into(),
            params: params.to_vec(),
            ret,
            blocks: vec![Block::default()],
            insts: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter types.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// The declared return type ([`Type::Void`] for none).
    pub fn return_type(&self) -> Type {
        self.ret
    }

    /// The entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of basic blocks (feature 22 of Table 1).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Borrows a block.
    ///
    /// # Panics
    ///
    /// Panics if `bb` is out of range.
    pub fn block(&self, bb: BlockId) -> &Block {
        &self.blocks[bb.index()]
    }

    /// Borrows an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutably borrows an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Total number of arena slots (including unlinked instructions).
    pub fn num_inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently linked into blocks
    /// (the "static instruction" count of Table 3).
    pub fn num_linked_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Heap bytes the function holds: its name, parameter types,
    /// blocks and instruction arena, at their allocated capacities.
    pub(crate) fn bytes(&self) -> usize {
        let block_lists: usize = self
            .blocks
            .iter()
            .map(|b| b.insts.capacity() * std::mem::size_of::<InstId>())
            .sum();
        let operand_lists: usize = self.insts.iter().map(Inst::heap_bytes).sum();
        self.name.capacity()
            + self.params.capacity() * std::mem::size_of::<Type>()
            + self.blocks.capacity() * std::mem::size_of::<Block>()
            + block_lists
            + self.insts.capacity() * std::mem::size_of::<Inst>()
            + operand_lists
    }

    /// Appends a fresh empty block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId::new(self.blocks.len() - 1)
    }

    /// Appends `inst` to block `bb`, returning its arena id.
    ///
    /// # Panics
    ///
    /// Panics if `bb` is out of range.
    pub fn append_inst(&mut self, bb: BlockId, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len());
        self.insts.push(inst);
        self.blocks[bb.index()].insts.push(id);
        id
    }

    /// Inserts `inst` into block `bb` at position `pos`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `bb` or `pos` is out of range.
    pub fn insert_inst(&mut self, bb: BlockId, pos: usize, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len());
        self.insts.push(inst);
        self.blocks[bb.index()].insts.insert(pos, id);
        id
    }

    /// Unlinks the instruction `id` from block `bb` (its arena slot is
    /// retained). Returns `true` if the instruction was present.
    pub fn unlink_inst(&mut self, bb: BlockId, id: InstId) -> bool {
        let insts = &mut self.blocks[bb.index()].insts;
        if let Some(pos) = insts.iter().position(|&i| i == id) {
            insts.remove(pos);
            true
        } else {
            false
        }
    }

    /// Replaces the instruction list of block `bb` wholesale.
    ///
    /// Used by passes that rebuild a block (e.g. the duplication pass).
    pub fn set_block_insts(&mut self, bb: BlockId, insts: Vec<InstId>) {
        self.blocks[bb.index()].insts = insts;
    }

    /// The block that currently contains instruction `id`, if any.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.block_ids()
            .find(|&bb| self.blocks[bb.index()].insts.contains(&id))
    }

    /// Builds a map from every linked instruction to its containing block.
    pub fn inst_blocks(&self) -> HashMap<InstId, BlockId> {
        let mut map = HashMap::new();
        for bb in self.block_ids() {
            for &id in self.block(bb).insts() {
                map.insert(id, bb);
            }
        }
        map
    }

    /// Successor blocks of `bb` (from its terminator).
    pub fn successors(&self, bb: BlockId) -> Vec<BlockId> {
        match self.block(bb).terminator() {
            Some(t) => self.inst(t).successors(),
            None => Vec::new(),
        }
    }

    /// Predecessor lists for every block, indexed by block index.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bb in self.block_ids() {
            for succ in self.successors(bb) {
                preds[succ.index()].push(bb);
            }
        }
        preds
    }

    /// Rewrites every operand in the function through `f`.
    pub fn map_all_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        for inst in &mut self.insts {
            inst.map_operands(&mut f);
        }
    }

    /// The type of a [`Value`] as seen inside this function.
    ///
    /// # Panics
    ///
    /// Panics if the value names an out-of-range parameter or instruction.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).result_type(),
            Value::Param(n) => self.params[n as usize],
            Value::Const(c) => c.ty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Inst};

    fn sample() -> Function {
        let mut f = Function::new("f", &[Type::I64], Type::I64);
        let entry = f.entry();
        let add = f.append_inst(
            entry,
            Inst::Binary {
                op: BinOp::Add,
                ty: Type::I64,
                lhs: Value::param(0),
                rhs: Value::i64(1),
            },
        );
        f.append_inst(
            entry,
            Inst::Ret {
                value: Some(Value::inst(add)),
            },
        );
        f
    }

    #[test]
    fn append_and_query() {
        let f = sample();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_linked_insts(), 2);
        assert_eq!(f.block(f.entry()).len(), 2);
        assert_eq!(f.value_type(Value::param(0)), Type::I64);
        let term = f.block(f.entry()).terminator().unwrap();
        assert!(f.inst(term).is_terminator());
    }

    #[test]
    fn unlink_retains_arena_slot() {
        let mut f = sample();
        let first = f.block(f.entry()).insts()[0];
        assert!(f.unlink_inst(f.entry(), first));
        assert_eq!(f.num_linked_insts(), 1);
        assert_eq!(f.num_inst_slots(), 2);
        assert!(!f.unlink_inst(f.entry(), first));
    }

    #[test]
    fn successors_and_predecessors() {
        let mut f = Function::new("g", &[], Type::Void);
        let entry = f.entry();
        let b1 = f.add_block();
        let b2 = f.add_block();
        f.append_inst(
            entry,
            Inst::CondBr {
                cond: Value::bool(true),
                then_bb: b1,
                else_bb: b2,
            },
        );
        f.append_inst(b1, Inst::Br { target: b2 });
        f.append_inst(b2, Inst::Ret { value: None });
        assert_eq!(f.successors(entry), vec![b1, b2]);
        let preds = f.predecessors();
        assert_eq!(preds[b2.index()], vec![entry, b1]);
        assert_eq!(preds[entry.index()], Vec::<BlockId>::new());
    }

    #[test]
    fn block_of_finds_container() {
        let f = sample();
        let first = f.block(f.entry()).insts()[0];
        assert_eq!(f.block_of(first), Some(f.entry()));
        assert_eq!(f.block_of(InstId::new(99)), None);
    }

    #[test]
    fn insert_positions_correctly() {
        let mut f = sample();
        let entry = f.entry();
        let id = f.insert_inst(
            entry,
            0,
            Inst::Binary {
                op: BinOp::Mul,
                ty: Type::I64,
                lhs: Value::param(0),
                rhs: Value::i64(2),
            },
        );
        assert_eq!(f.block(entry).insts()[0], id);
        assert_eq!(f.block(entry).len(), 3);
    }
}

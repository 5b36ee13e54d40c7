//! Register bytecode for the mini-Nsp VM.
//!
//! A [`Chunk`] is the unit of compiled code: a flat `Vec<Op>` plus the side
//! tables the ops index into (constant pool, interned names, keyword-argument
//! tables, matrix shapes, trap messages, nested function definitions) and a
//! parallel `Vec<Pos>` of source spans for error reporting.
//!
//! The calling convention is register-based and contiguous (Lua-style):
//! every expression operand is evaluated into a frame register; call ops name
//! a base register and an argument count, and multi-value results are written
//! to `dst..dst+want`. An argument that is a plain local is *lent*: its
//! register in the call's window stays empty ([`Op::Ref`]) and the callee
//! reads the variable's own slot, so passing a string, a hash or a serial
//! copies nothing. Named locals occupy dedicated slots resolved at lower
//! time, so executing an op never hashes a name (counted by the tests in
//! `vm.rs`).

use crate::ast::{BinOp, FuncDef, UnOp};
use crate::interp::NValue;
use crate::lexer::Pos;
use std::rc::Rc;

/// A register index within a frame.
pub type Reg = u16;

/// Sentinel register meaning "absent" (no step expression, no slot, …).
pub const NO_REG: Reg = u16::MAX;

/// Sentinel side-table index meaning "absent" (no keyword args, …).
pub const NO_TABLE: u16 = u16::MAX;

/// One VM instruction. Registers are frame-relative; `name` fields index
/// [`Chunk::names`]; other `u16` fields index the chunk side tables.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names follow one scheme: dst/src/base/argc/…
pub enum Op {
    /// `regs[dst] = consts[idx].clone()`.
    Const { dst: Reg, idx: u16 },
    /// `regs[dst] = regs[src].clone()`; an unbound `src` slot falls back to
    /// the dynamic scope chain (outer frames, globals, bare builtin call).
    Copy { dst: Reg, src: Reg },
    /// `regs[dst] = regs[src].take()` — move a bound temporary.
    Take { dst: Reg, src: Reg },
    /// A lent call argument: `regs[dst]` is left empty while local `src`
    /// is bound (the call reads `src` in place); an unbound `src` resolves
    /// into `regs[dst]` like [`Op::Copy`].
    Ref { dst: Reg, src: Reg },
    /// Read an identifier that has no local slot in this chunk.
    LoadDyn { dst: Reg, name: u32 },
    /// Multi-value read of a bare identifier (multi-assignment RHS).
    IdentMulti { dst: Reg, slot: Reg, name: u32, want: u16 },
    /// Binary operator over two registers.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Unary operator.
    Un { op: UnOp, dst: Reg, src: Reg },
    /// `lo:hi` / `lo:step:hi` range (step == `NO_REG` → 1.0).
    Range { dst: Reg, lo: Reg, hi: Reg, step: Reg },
    /// Matrix literal: entries are in `base..`, row widths in
    /// `shapes[shape]`.
    Matrix { dst: Reg, shape: u16, base: Reg },
    /// Postfix transpose.
    Transpose { dst: Reg, src: Reg },
    /// Index the value in `base` with `n` index registers at `idx..`.
    Index { dst: Reg, base: Reg, idx: Reg, n: u16 },
    /// Field read `base.name`.
    Field { dst: Reg, base: Reg, name: u32 },
    /// `name(args)` — resolved at runtime to variable indexing or a call
    /// (user function first, then the builtin table), exactly like the
    /// tree-walker. Arguments are in `base..base+argc` in source order;
    /// `kwt` marks which are keywords, `lent` which are lent locals
    /// ([`Chunk::lends`]). `slot`/`builtin` are compile-time resolutions
    /// (`NO_REG`/`NO_TABLE` when absent).
    Apply {
        dst: Reg,
        name: u32,
        slot: Reg,
        builtin: u16,
        base: Reg,
        argc: u16,
        kwt: u16,
        lent: u16,
        want: u16,
    },
    /// `obj.name[args]` bracket-method call. `wb != NO_REG` is `L.add_last[x]`
    /// on a plain variable: `obj` is unused and the receiver is slot `wb`,
    /// taken after the arguments and updated in place.
    Method {
        dst: Reg,
        name: u32,
        obj: Reg,
        base: Reg,
        argc: u16,
        kwt: u16,
        want: u16,
        wb: Reg,
    },
    /// `name(idx...) = src` write indexing into local `slot`.
    IndexAsg { slot: Reg, name: u32, idx: Reg, n: u16, src: Reg },
    /// `name.field = src` with hash auto-create, into local `slot`.
    FieldAsg { slot: Reg, name: u32, field: u32, src: Reg },
    /// Define `defs[def]` as a user function (`interp.funcs`).
    DefFunc { def: u16 },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when the condition register is falsy (`truthy()` errors on
    /// non-plain values, same as the tree-walker).
    JumpIfFalse { cond: Reg, to: u32 },
    /// Start a `for` loop over the value in `iter` (pushes an iterator).
    ForPrep { iter: Reg },
    /// Advance the innermost iterator into `var`, or pop it and jump `end`.
    ForNext { var: Reg, end: u32 },
    /// Pop `drop` active iterators, then jump (break/continue/return).
    ExitLoop { drop: u16, to: u32 },
    /// Raise `msgs[msg]` as a runtime error.
    Trap { msg: u16 },
}

/// A compiled program fragment plus its side tables.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Source position per op (parallel to `ops`; `Pos::NONE` = no span).
    pub spans: Vec<Pos>,
    /// Interned constant pool (deduplicated literals).
    pub consts: Vec<NValue>,
    /// Interned identifier names.
    pub names: Vec<Rc<str>>,
    /// Named local slots introduced by this chunk: `(slot, name index)`.
    pub locals: Vec<(Reg, u32)>,
    /// Total frame size (named locals + temporaries).
    pub nregs: u16,
    /// Keyword-argument tables: `(argument position, name index)` pairs.
    pub kw_tables: Vec<Vec<(u16, u32)>>,
    /// Lent-argument tables: `(argument position, local slot)` pairs, in
    /// position order.
    pub lends: Vec<Vec<(u16, Reg)>>,
    /// Matrix literal shapes: entry count per row.
    pub shapes: Vec<Vec<u16>>,
    /// Trap messages.
    pub msgs: Vec<String>,
    /// Function definitions appearing in this chunk.
    pub defs: Vec<Rc<FuncDef>>,
}

/// A compiled user function: the definition (for arity/outs and identity)
/// plus its body chunk. Parameters occupy the first local slots, output
/// variables the following ones.
#[derive(Debug, Clone)]
pub struct Proto {
    /// The source definition this proto was compiled from (cache identity).
    pub def: Rc<FuncDef>,
    /// Slots of the declared parameters, in declaration order.
    pub param_slots: Vec<Reg>,
    /// Slots of the declared output variables, in declaration order.
    pub out_slots: Vec<Reg>,
    /// The compiled body.
    pub chunk: Chunk,
}

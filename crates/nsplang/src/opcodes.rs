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
//! to `dst..dst+want`. An argument that is a local is an [`Op::Copy`] like
//! any other read of it, and a copy shares the value rather than cloning
//! it, so passing a string, a hash or a serial copies nothing. An operand
//! of [`Op::Bin`] or [`Op::Field`] that is a local is read in place.
//! Named locals occupy dedicated slots resolved at lower time, so
//! executing an op never hashes a name (counted by the tests in `vm.rs`).

use crate::ast::{BinOp, FuncDef, UnOp};
use crate::interp::NValue;
use crate::lexer::Pos;
use std::rc::Rc;

/// A register index within a frame.
pub(crate) type Reg = u16;

/// Sentinel register meaning "absent" (no step expression, no slot, …).
pub(crate) const NO_REG: Reg = u16::MAX;

/// Sentinel side-table index meaning "absent" (no keyword args, …).
pub(crate) const NO_TABLE: u16 = u16::MAX;

/// One VM instruction. Registers are frame-relative; `name` fields index
/// [`Chunk::names`]; other `u16` fields index the chunk side tables.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names follow one scheme: dst/src/base/argc/…
pub(crate) enum Op {
    /// `regs[dst] = consts[idx]`: a scalar as an immediate, a string
    /// shared with the pool.
    Const { dst: Reg, idx: u16 },
    /// `regs[dst] = regs[src]`, shared: a boxed plain value turns shared
    /// in `src` and both registers hold it (an immediate, a status or a
    /// handle is cloned). An unbound `src` slot falls back to the dynamic
    /// scope chain (outer frames, globals, bare builtin call).
    Copy { dst: Reg, src: Reg },
    /// `regs[dst] = regs[src].take()` — move a bound temporary.
    Take { dst: Reg, src: Reg },
    /// Read an identifier that has no local slot in this chunk.
    LoadDyn { dst: Reg, name: u32 },
    /// Multi-value read of a bare identifier (multi-assignment RHS).
    IdentMulti {
        dst: Reg,
        slot: Reg,
        name: u32,
        want: u16,
    },
    /// Binary operator over two registers. An operand in a named slot is
    /// a local, read in place (an unbound one resolves like [`Op::Copy`]);
    /// a temporary is consumed.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Unary operator.
    Un { op: UnOp, dst: Reg, src: Reg },
    /// `lo:hi` / `lo:step:hi` range (step == `NO_REG` → 1.0).
    Range {
        dst: Reg,
        lo: Reg,
        hi: Reg,
        step: Reg,
    },
    /// Matrix literal: entries are in `base..`, row widths in
    /// `shapes[shape]`.
    Matrix { dst: Reg, shape: u16, base: Reg },
    /// Postfix transpose.
    Transpose { dst: Reg, src: Reg },
    /// Index the value in `base` with `n` index registers at `idx..`.
    Index {
        dst: Reg,
        base: Reg,
        idx: Reg,
        n: u16,
    },
    /// Field read `base.name`.
    Field { dst: Reg, base: Reg, name: u32 },
    /// `name(i...)(j...)` on local `slot`, the `i`s in `idx..idx+n1` and
    /// the `j`s after them: a list item is indexed where it lies, not
    /// copied out first. Anything else runs as the [`Op::Apply`] of
    /// `name(i...)` (`builtin` as there) followed by an [`Op::Index`].
    IndexTwice {
        dst: Reg,
        name: u32,
        slot: Reg,
        builtin: u16,
        idx: Reg,
        n1: u16,
        n2: u16,
    },
    /// `name(args)` — resolved at runtime to variable indexing or a call
    /// (user function first, then the builtin table), exactly like the
    /// tree-walker. Arguments are in `base..base+argc` in source order;
    /// `kwt` marks which are keywords. `slot`/`builtin` are compile-time
    /// resolutions (`NO_REG`/`NO_TABLE` when absent).
    Apply {
        dst: Reg,
        name: u32,
        slot: Reg,
        builtin: u16,
        base: Reg,
        argc: u16,
        kwt: u16,
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
    IndexAsg {
        slot: Reg,
        name: u32,
        idx: Reg,
        n: u16,
        src: Reg,
    },
    /// `name.field = src` with hash auto-create, into local `slot`.
    FieldAsg {
        slot: Reg,
        name: u32,
        field: u32,
        src: Reg,
    },
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
    pub(crate) ops: Vec<Op>,
    /// Source position per op (parallel to `ops`; `Pos::NONE` = no span).
    pub(crate) spans: Vec<Pos>,
    /// Interned constant pool (deduplicated literals).
    pub(crate) consts: Vec<Const>,
    /// Interned identifier names.
    pub(crate) names: Vec<Rc<str>>,
    /// Named local slots introduced by this chunk: `(slot, name index)`.
    pub(crate) locals: Vec<(Reg, u32)>,
    /// Total frame size (named locals + temporaries).
    pub(crate) nregs: u16,
    /// Keyword-argument tables: `(argument position, name index)` pairs.
    pub(crate) kw_tables: Vec<Vec<(u16, u32)>>,
    /// Matrix literal shapes: entry count per row.
    pub(crate) shapes: Vec<Vec<u16>>,
    /// Trap messages.
    pub(crate) msgs: Vec<String>,
    /// Function definitions appearing in this chunk.
    pub(crate) defs: Vec<Rc<FuncDef>>,
}

/// A literal of the constant pool.
#[derive(Debug, Clone)]
pub(crate) enum Const {
    Num(f64),
    Bool(bool),
    /// A string, shared by every register that loads it.
    Str(Rc<NValue>),
}

/// A compiled user function: the definition (for arity/outs and identity)
/// plus its body chunk. Parameters occupy the first local slots, output
/// variables the following ones.
#[derive(Debug, Clone)]
pub(crate) struct Proto {
    /// The source definition this proto was compiled from (cache identity).
    pub(crate) def: Rc<FuncDef>,
    /// Slots of the declared parameters, in declaration order.
    pub(crate) param_slots: Vec<Reg>,
    /// Slots of the declared output variables, in declaration order.
    pub(crate) out_slots: Vec<Reg>,
    /// The compiled body.
    pub(crate) chunk: Chunk,
}

//! The register bytecode VM.
//!
//! [`run_vm`] parses and lowers a script ([`crate::lower`]) and executes the
//! resulting [`Chunk`] on a flat register frame. Semantics are shared with
//! the tree-walker by construction: both engines call the same value helpers
//! (`binary_value`, `index_value`, …), builtin table, method dispatch, and
//! RNG, so variable bindings, draw sequences, and error messages are
//! bit-identical (asserted by `tests/nsp_scripts.rs`).
//!
//! Registers hold an [`RVal`]: a boxed [`NValue`], one shared by several
//! registers, or an **unboxed** scalar (`f64` / `bool`). The VM keeps
//! scalars as immediates and materialises the 1×1 matrix (inline, so
//! allocation-free) only where a value needs its boxed form (containers,
//! scope flush, a builtin that inspects the matrix). Materialisation is
//! loss-free — `RVal::F(x)` round-trips to exactly `NValue::scalar(x)` — so
//! unboxing is invisible to scripts and to the equivalence battery. A
//! string literal, and a boxed local that an [`Op::Copy`] reads, is
//! shared rather than copied: a register that changes it gets its own
//! copy first, unless it holds the only reference.
//!
//! Hot-path discipline: executing an op, calls included, hashes no name
//! and compares no string. Every name is interned once per chunk into a
//! global id ([`VmState`]); a frame's named slots carry those ids, so
//! "is this name bound in the dynamic chain?" is a scan of `u32`s; and
//! what the interpreter's own scopes and function table say about a name
//! is cached per id and trusted while the interpreter's binding epoch has
//! not moved. A builtin runs by id on its argument registers in place
//! and returns one value; a user function runs on a pooled frame. The
//! unit tests at the bottom count name lookups and allocations per
//! dispatched op.

use crate::ast::{BinOp, FuncDef, UnOp};
use crate::interp::{
    add_last_value, binary_value, build_matrix, builtin_id, field_assign_value, field_ref,
    for_items_of, index_assign_value, index_plain, index_value, list_item, range_value,
    read_exec_source, transpose_value, unary_value, Builtin, CallArg, Interp, NValue, NspError,
    Ret, BUILTIN_EXEC,
};
use crate::lower::{lower_function, lower_program, lower_seeded};
use crate::opcodes::{Chunk, Const, Op, Proto, Reg, NO_REG, NO_TABLE};
use crate::parser::parse_program;
use nspval::{Hash, Value};
use std::collections::HashMap;
use std::rc::Rc;

type R<T> = Result<T, NspError>;

fn err<T>(msg: impl Into<String>) -> R<T> {
    Err(NspError::new(msg))
}
/// A register value: a boxed [`NValue`], a shared one, or an unboxed
/// scalar immediate.
///
/// The scalar variants carry exactly the information of a 1×1 real/bool
/// matrix, so converting back ([`RVal::nv`]) reconstructs a bit-identical
/// [`NValue`]; the dispatch loop's scalar fast paths replicate the scalar
/// arms of `binary_value`/`unary_value`/`truthy` (same results, same error
/// strings) without touching the allocator.
#[derive(Debug, Clone)]
enum RVal {
    /// A boxed value (matrices, strings, lists, objects, …).
    N(NValue),
    /// A boxed value several registers (or the constant pool) hold: read
    /// in place, copied out only by a register that takes it to change.
    S(Rc<NValue>),
    /// An unboxed 1×1 real.
    F(f64),
    /// An unboxed 1×1 boolean.
    B(bool),
}

impl RVal {
    /// Box a value, unboxing 1×1 reals/booleans on the way in.
    #[inline]
    fn from_nv(v: NValue) -> RVal {
        match v {
            NValue::V(Value::Real(ref m)) if m.is_scalar() => RVal::F(m.get(0, 0)),
            NValue::V(Value::Bool(ref b)) if b.is_scalar() => RVal::B(b.get(0, 0)),
            v => RVal::N(v),
        }
    }

    /// Materialise into an owned [`NValue`] (loss-free).
    #[inline]
    fn nv(self) -> NValue {
        match self {
            RVal::N(v) => v,
            RVal::S(v) => Rc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
            RVal::F(x) => NValue::scalar(x),
            RVal::B(b) => NValue::boolean(b),
        }
    }

    /// The boxed value, read in place; `None` for an immediate.
    #[inline]
    fn boxed(&self) -> Option<&NValue> {
        match self {
            RVal::N(v) => Some(v),
            RVal::S(v) => Some(v),
            _ => None,
        }
    }

    /// A copy of the bound value in `reg`: plain data is shared from then
    /// on (the register itself turns shared), so a string or a list
    /// reaches another register, or a callee, without a deep copy.
    #[inline]
    fn share(reg: &mut RVal) -> RVal {
        if let RVal::N(v @ NValue::V(_)) = reg {
            let v = std::mem::replace(v, NValue::V(Value::None));
            *reg = RVal::S(Rc::new(v));
        }
        reg.clone()
    }

    /// Materialise a clone.
    #[inline]
    fn to_nv(&self) -> NValue {
        match self {
            RVal::N(v) => v.clone(),
            RVal::S(v) => (**v).clone(),
            RVal::F(x) => NValue::scalar(*x),
            RVal::B(b) => NValue::boolean(*b),
        }
    }

    /// The scalar-real content, unboxed or boxed.
    #[inline]
    fn as_num(&self) -> Option<f64> {
        match self {
            RVal::F(x) => Some(*x),
            RVal::B(_) => None,
            boxed => boxed.boxed().and_then(NValue::as_scalar),
        }
    }

    /// The scalar-boolean content, unboxed or boxed.
    #[inline]
    fn as_bool(&self) -> Option<bool> {
        match self {
            RVal::B(b) => Some(*b),
            RVal::F(_) => None,
            boxed => match boxed.boxed() {
                Some(NValue::V(v)) => v.as_bool(),
                _ => None,
            },
        }
    }
}

/// The scalar-real arm of `binary_value` on immediates: identical results
/// and error string to `numeric_binop`'s `is_scalar` path.
#[inline]
fn scalar_bin(op: BinOp, x: f64, y: f64) -> R<RVal> {
    use BinOp::*;
    Ok(match op {
        Add => RVal::F(x + y),
        Sub => RVal::F(x - y),
        Mul => RVal::F(x * y),
        Div => RVal::F(x / y),
        Eq => RVal::B(x == y),
        Ne => RVal::B(x != y),
        Lt => RVal::B(x < y),
        Gt => RVal::B(x > y),
        Le => RVal::B(x <= y),
        Ge => RVal::B(x >= y),
        And | Or => return err("&&/|| need booleans"),
    })
}

/// A call argument register, read in place by the shared builtins.
impl CallArg for Option<RVal> {
    fn num(&self) -> Option<f64> {
        self.as_ref().and_then(RVal::as_num)
    }

    fn text(&self) -> Option<&str> {
        self.as_ref()?.boxed()?.as_str()
    }

    fn value(&mut self) -> &NValue {
        if !matches!(self, Some(RVal::N(_) | RVal::S(_))) {
            let v = self.take().expect("argument register bound").nv();
            *self = Some(RVal::N(v));
        }
        self.as_ref().and_then(RVal::boxed).expect("boxed above")
    }

    fn take_value(&mut self) -> NValue {
        self.take().expect("argument register bound").nv()
    }
}

// ---- names ------------------------------------------------------------------

/// The name id of a register that is a temporary, not a named local.
const NO_NAME: u32 = u32::MAX;

/// What the VM knows about one interned name. `global` and `func` are what
/// the interpreter's scopes and function table said at binding epoch
/// `epoch`, and hold until the epoch moves.
struct NameInfo {
    name: Rc<str>,
    /// The builtin of that name, or `NO_TABLE`.
    builtin: u16,
    /// Some linked chunk gives the name a slot: unless it does, no frame
    /// binds it.
    slotted: bool,
    epoch: u64,
    /// Some interpreter scope binds the name.
    global: bool,
    /// The user function of that name, compiled.
    func: Option<Rc<VmFunc>>,
}

/// A compiled user function (its definition — cache identity, arity,
/// outputs — and body) and the body's names as ids.
pub(crate) struct VmFunc {
    proto: Proto,
    gids: Vec<u32>,
    /// The name id of each register of a fresh frame.
    names: Vec<u32>,
}

/// The VM's state on an interpreter: interned names, compiled functions and
/// a pool of frames for user calls.
#[derive(Default)]
pub(crate) struct VmState {
    ids: HashMap<Rc<str>, u32>,
    info: Vec<NameInfo>,
    /// Compiled bodies by function name, revalidated against the live
    /// definition by `Rc` identity so redefinition recompiles.
    funcs: HashMap<String, Rc<VmFunc>>,
    frames: Vec<Frame>,
}

#[cfg(test)]
thread_local! {
    static NAME_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one resolution of a name by its text (a hash or a string
/// comparison): the tests below pin how many a dispatched op makes.
#[inline]
fn name_lookup() {
    #[cfg(test)]
    NAME_LOOKUPS.with(|n| n.set(n.get() + 1));
}

impl VmState {
    fn intern(&mut self, name: &Rc<str>) -> u32 {
        name_lookup();
        if let Some(&g) = self.ids.get(name) {
            return g;
        }
        let g = self.info.len() as u32;
        self.ids.insert(name.clone(), g);
        self.info.push(NameInfo {
            name: name.clone(),
            builtin: builtin_id(name).unwrap_or(NO_TABLE),
            slotted: false,
            epoch: u64::MAX,
            global: false,
            func: None,
        });
        g
    }

    /// A chunk's names as ids, and the name id of each of its registers.
    fn link(&mut self, chunk: &Chunk) -> (Vec<u32>, Vec<u32>) {
        let gids: Vec<u32> = chunk.names.iter().map(|n| self.intern(n)).collect();
        let mut names = vec![NO_NAME; chunk.nregs as usize];
        for &(slot, name) in &chunk.locals {
            let g = gids[name as usize];
            names[slot as usize] = g;
            self.info[g as usize].slotted = true;
        }
        (gids, names)
    }

    fn compiled(&mut self, def: &Rc<FuncDef>) -> Rc<VmFunc> {
        name_lookup();
        if let Some(f) = self.funcs.get(&def.name) {
            if Rc::ptr_eq(&f.proto.def, def) {
                return f.clone();
            }
        }
        let proto = lower_function(def);
        let (gids, names) = self.link(&proto.chunk);
        let f = Rc::new(VmFunc { proto, gids, names });
        self.funcs.insert(def.name.clone(), f.clone());
        f
    }

    /// A frame for a call of `f`, from the pool when one is free.
    fn frame(&mut self, f: &VmFunc) -> Frame {
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.regs.resize(f.names.len(), None);
        frame.names.extend_from_slice(&f.names);
        frame
    }

    /// Return a finished call's frame to the pool, its values dropped.
    fn recycle(&mut self, mut frame: Frame) {
        frame.regs.clear();
        frame.names.clear();
        frame.grown = false;
        self.frames.push(frame);
    }
}

/// What the interpreter says about name `g`, asked again only when a
/// binding changed since the last answer.
fn info(interp: &mut Interp, g: u32) -> &NameInfo {
    if interp.vm.info[g as usize].epoch != interp.epoch {
        name_lookup();
        let name = interp.vm.info[g as usize].name.clone();
        let global = interp.scopes.iter().any(|s| s.contains_key(&*name));
        let func = interp.funcs.get(&*name).cloned();
        let func = func.map(|def| interp.vm.compiled(&def));
        let info = &mut interp.vm.info[g as usize];
        info.epoch = interp.epoch;
        info.global = global;
        info.func = func;
    }
    &interp.vm.info[g as usize]
}

// ---- frames -----------------------------------------------------------------

/// One execution frame: registers plus the name id of each (`NO_NAME` for
/// temporaries). The name ids drive the dynamic-scope fallback and the
/// final flush of top-level bindings into the global scope.
#[derive(Default)]
pub(crate) struct Frame {
    regs: Vec<Option<RVal>>,
    names: Vec<u32>,
    /// An `exec` gave the frame names its own chunk does not know. Until
    /// then a name has at most one slot here, the one the lowerer gave
    /// it, so a name whose slot is empty is bound nowhere in the frame.
    grown: bool,
}

impl Frame {
    /// Grow an existing frame for an `exec`-lowered chunk.
    fn extend_for(&mut self, chunk: &Chunk, gids: &[u32]) {
        let n = chunk.nregs as usize;
        if n > self.regs.len() {
            self.regs.resize(n, None);
            self.names.resize(n, NO_NAME);
        }
        for &(slot, name) in &chunk.locals {
            self.grown |= self.names[slot as usize] == NO_NAME;
            self.names[slot as usize] = gids[name as usize];
        }
    }

    /// The value of the first bound named slot with name id `g`.
    fn lookup(&self, g: u32) -> Option<&RVal> {
        self.names
            .iter()
            .zip(&self.regs)
            .find_map(|(&n, r)| if n == g { r.as_ref() } else { None })
    }
}

/// The frames of the enclosing calls, innermost first: the dynamic scope
/// chain between a frame and the interpreter's scopes.
#[derive(Clone, Copy)]
struct Chain<'a> {
    frame: &'a Frame,
    up: Option<&'a Chain<'a>>,
}

/// Parse, lower, and execute a script; top-level bindings are flushed to the
/// interpreter's current scope afterwards (also on error, mirroring the
/// tree-walker's incremental binding).
pub(crate) fn run_vm(interp: &mut Interp, src: &str) -> R<()> {
    let prog = parse_program(src)?;
    let chunk = lower_program(&prog);
    let (gids, names) = interp.vm.link(&chunk);
    let mut frame = Frame {
        regs: vec![None; names.len()],
        names,
        grown: false,
    };
    let res = run_frame(interp, &chunk, &gids, &mut frame, None);
    flush_frame(interp, &mut frame);
    res
}

fn flush_frame(interp: &mut Interp, frame: &mut Frame) {
    for (&g, reg) in frame.names.iter().zip(&mut frame.regs) {
        if g != NO_NAME {
            if let Some(v) = reg.take() {
                let name = interp.vm.info[g as usize].name.to_string();
                interp.bind(name, v.nv());
            }
        }
    }
}

/// Execute a chunk on a frame. `gids` are the chunk's names as ids;
/// `chain` links the frames of the enclosing calls.
fn run_frame(
    interp: &mut Interp,
    chunk: &Chunk,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
) -> R<()> {
    let ops = &chunk.ops[..];
    let mut pc = 0usize;
    // Active `for` iterators, innermost last.
    let mut iters: Vec<ForIter> = Vec::new();
    while pc < ops.len() {
        let step: R<usize> =
            match ops[pc] {
                Op::Const { dst, idx } => {
                    put(
                        &mut frame.regs[dst as usize],
                        load_const(&chunk.consts[idx as usize]),
                    );
                    Ok(pc + 1)
                }
                Op::Copy { dst, src } => {
                    let v = match frame.regs[src as usize] {
                        Some(ref mut v) => Ok(RVal::share(v)),
                        None => load_slow(interp, frame, chain, frame.names[src as usize])
                            .map(RVal::from_nv),
                    };
                    v.map(|v| {
                        put(&mut frame.regs[dst as usize], v);
                        pc + 1
                    })
                }
                Op::Take { dst, src } => {
                    frame.regs[dst as usize] = frame.regs[src as usize].take();
                    Ok(pc + 1)
                }
                Op::LoadDyn { dst, name } => load_slow(interp, frame, chain, gids[name as usize])
                    .map(|v| {
                        frame.regs[dst as usize] = Some(RVal::from_nv(v));
                        pc + 1
                    }),
                Op::IdentMulti {
                    dst,
                    slot,
                    name,
                    want,
                } => ident_multi(interp, gids, frame, chain, dst, slot, name, want).map(|_| pc + 1),
                Op::Bin { op, dst, a, b } => {
                    // Scalar fast path on the registers as they are: a
                    // temporary left behind is an immediate, overwritten
                    // before it is read again.
                    let fast = match (&frame.regs[a as usize], &frame.regs[b as usize]) {
                        (Some(x), Some(y)) => scalar_rval(op, x, y),
                        _ => None,
                    };
                    let res = fast.unwrap_or_else(|| bin_op(interp, frame, chain, op, a, b));
                    res.map(|v| {
                        put(&mut frame.regs[dst as usize], v);
                        pc + 1
                    })
                }
                Op::Un { op, dst, src } => {
                    let fast = frame.regs[src as usize].as_ref().and_then(|v| match op {
                        UnOp::Neg => v.as_num().map(|x| RVal::F(-x)),
                        UnOp::Not => v.as_bool().map(|b| RVal::B(!b)),
                    });
                    let res = match fast {
                        Some(v) => Ok(v),
                        None => {
                            let v = take_nv(frame, src);
                            unary_value(op, &v).map(RVal::from_nv)
                        }
                    };
                    res.map(|v| {
                        put(&mut frame.regs[dst as usize], v);
                        pc + 1
                    })
                }
                Op::Range { dst, lo, hi, step } => {
                    let vlo = take_nv(frame, lo);
                    let vhi = take_nv(frame, hi);
                    let vstep = if step == NO_REG {
                        None
                    } else {
                        Some(take_nv(frame, step))
                    };
                    range_value(&vlo, &vhi, vstep.as_ref()).map(|v| {
                        frame.regs[dst as usize] = Some(RVal::N(v));
                        pc + 1
                    })
                }
                Op::Matrix { dst, shape, base } => {
                    let mut rows = Vec::with_capacity(chunk.shapes[shape as usize].len());
                    let mut at = base;
                    for &width in &chunk.shapes[shape as usize] {
                        let mut row = Vec::with_capacity(width as usize);
                        for _ in 0..width {
                            row.push(take_nv(frame, at));
                            at += 1;
                        }
                        rows.push(row);
                    }
                    build_matrix(&rows).map(|v| {
                        frame.regs[dst as usize] = Some(RVal::from_nv(v));
                        pc + 1
                    })
                }
                Op::Transpose { dst, src } => {
                    let v = take_nv(frame, src);
                    transpose_value(v).map(|v| {
                        frame.regs[dst as usize] = Some(RVal::from_nv(v));
                        pc + 1
                    })
                }
                Op::Index { dst, base, idx, n } => {
                    let b = take_nv(frame, base);
                    let idx = &mut frame.regs[idx as usize..(idx + n) as usize];
                    let res = index_value(&b, idx);
                    idx.fill(None);
                    res.map(|v| {
                        frame.regs[dst as usize] = Some(RVal::from_nv(v));
                        pc + 1
                    })
                }
                Op::Field { dst, base, name } => {
                    let field = &chunk.names[name as usize];
                    field_op(interp, frame, chain, base, field).map(|v| {
                        frame.regs[dst as usize] = Some(v);
                        pc + 1
                    })
                }
                Op::IndexTwice {
                    dst,
                    name,
                    slot,
                    builtin,
                    idx,
                    n1,
                    n2,
                } => index_twice(
                    interp, chunk, gids, frame, chain, dst, name, slot, builtin, idx, n1, n2,
                )
                .map(|_| pc + 1),
                Op::Apply {
                    dst,
                    name,
                    slot,
                    builtin,
                    base,
                    argc,
                    kwt,
                    want,
                } => {
                    let call = Call {
                        dst,
                        base,
                        argc,
                        kwt,
                        want,
                    };
                    apply_op(interp, chunk, gids, frame, chain, name, slot, builtin, call)
                        .map(|_| pc + 1)
                }
                Op::Method {
                    dst,
                    name,
                    obj,
                    base,
                    argc,
                    kwt,
                    want,
                    wb,
                } => method_op(
                    interp, chunk, frame, chain, dst, name, obj, base, argc, kwt, want, wb,
                )
                .map(|_| pc + 1),
                Op::IndexAsg {
                    slot,
                    name,
                    idx,
                    n,
                    src,
                } => index_asg(interp, chunk, gids, frame, chain, slot, name, idx, n, src)
                    .map(|_| pc + 1),
                Op::FieldAsg {
                    slot,
                    name,
                    field,
                    src,
                } => field_asg(interp, chunk, gids, frame, chain, slot, name, field, src)
                    .map(|_| pc + 1),
                Op::DefFunc { def } => {
                    interp.define(chunk.defs[def as usize].clone());
                    Ok(pc + 1)
                }
                Op::Jump { to } => Ok(to as usize),
                Op::JumpIfFalse { cond, to } => {
                    // Scalar conditions branch on the immediate; `truthy` on a
                    // 1×1 real is `x != 0.0`, on a 1×1 bool the bool itself.
                    match frame.regs[cond as usize] {
                        Some(RVal::B(b)) => Ok(if b { pc + 1 } else { to as usize }),
                        Some(RVal::F(x)) => Ok(if x != 0.0 { pc + 1 } else { to as usize }),
                        _ => {
                            let c = take_nv(frame, cond);
                            c.truthy().map(|t| if t { pc + 1 } else { to as usize })
                        }
                    }
                }
                Op::ForPrep { iter } => ForIter::new(take_nv(frame, iter)).map(|it| {
                    iters.push(it);
                    pc + 1
                }),
                Op::ForNext { var, end } => {
                    let item = match iters.last_mut().expect("ForNext inside a loop") {
                        ForIter::Reals(xs) => xs.pop().map(RVal::F),
                        ForIter::Items(items) => items.pop().map(RVal::from_nv),
                    };
                    match item {
                        Some(item) => {
                            put(&mut frame.regs[var as usize], item);
                            Ok(pc + 1)
                        }
                        None => {
                            iters.pop();
                            Ok(end as usize)
                        }
                    }
                }
                Op::ExitLoop { drop, to } => {
                    for _ in 0..drop {
                        iters.pop();
                    }
                    Ok(to as usize)
                }
                Op::Trap { msg } => err(chunk.msgs[msg as usize].clone()),
            };
        match step {
            Ok(next) => pc = next,
            Err(e) => return Err(e.with_span(chunk.spans[pc])),
        }
    }
    Ok(())
}

/// An active `for` loop's remaining items, the next one last.
enum ForIter {
    /// The entries of a real vector, yielded as immediates: `for k = 1:n`
    /// boxes no item.
    Reals(Vec<f64>),
    /// Anything else `for_items_of` iterates.
    Items(Vec<NValue>),
}

impl ForIter {
    fn new(v: NValue) -> R<ForIter> {
        Ok(match v {
            NValue::V(Value::Real(m)) if m.rows() <= 1 || m.cols() == 1 => {
                ForIter::Reals(m.data().iter().rev().copied().collect())
            }
            v => {
                let mut items = for_items_of(v)?;
                items.reverse();
                ForIter::Items(items)
            }
        })
    }
}

/// Write `v` into a register. The value it replaces is dropped only
/// when it holds something to drop: the drop glue of a boxed value is
/// not inlined into the dispatch loop, and a scalar loop overwrites
/// immediates.
#[inline(always)]
fn put(reg: &mut Option<RVal>, v: RVal) {
    let old = reg.replace(v);
    if matches!(old, None | Some(RVal::F(_) | RVal::B(_))) {
        std::mem::forget(old);
    }
}

/// Load a constant: a scalar as an immediate, a string shared with the
/// pool. Nothing is copied.
#[inline]
fn load_const(c: &Const) -> RVal {
    match c {
        Const::Num(x) => RVal::F(*x),
        Const::Bool(b) => RVal::B(*b),
        Const::Str(s) => RVal::S(s.clone()),
    }
}

/// Operand `r` of an op that reads its operands: a temporary is taken
/// (`Some`), a bound local is read in place where it is (`None`), and an
/// unbound local resolves through the dynamic chain (`Some`).
fn operand(
    interp: &mut Interp,
    frame: &mut Frame,
    chain: Option<&Chain>,
    r: Reg,
) -> R<Option<RVal>> {
    let g = frame.names[r as usize];
    if g == NO_NAME {
        let v = frame.regs[r as usize].take();
        return Ok(Some(v.expect("operand register bound")));
    }
    if frame.regs[r as usize].is_some() {
        return Ok(None);
    }
    load_slow(interp, frame, chain, g).map(|v| Some(RVal::from_nv(v)))
}

/// `a op b` on operand registers `a` and `b` (see [`operand`]).
fn bin_op(
    interp: &mut Interp,
    frame: &mut Frame,
    chain: Option<&Chain>,
    op: BinOp,
    a: Reg,
    b: Reg,
) -> R<RVal> {
    let x = operand(interp, frame, chain, a)?;
    let y = operand(interp, frame, chain, b)?;
    let x = x.as_ref().or(frame.regs[a as usize].as_ref());
    let y = y.as_ref().or(frame.regs[b as usize].as_ref());
    bin_rval(op, x.expect("operand bound"), y.expect("operand bound"))
}

/// `base.name` on operand register `base` (see [`operand`]).
fn field_op(
    interp: &mut Interp,
    frame: &mut Frame,
    chain: Option<&Chain>,
    base: Reg,
    name: &str,
) -> R<RVal> {
    let own = operand(interp, frame, chain, base)?;
    let b = own.as_ref().or(frame.regs[base as usize].as_ref());
    field_rval(b.expect("operand bound"), name)
}

/// The scalar fast path of `x op y`: both operands are immediates (or
/// boxed 1×1s) — pure register arithmetic; `None` for anything else.
#[inline(always)]
fn scalar_rval(op: BinOp, x: &RVal, y: &RVal) -> Option<R<RVal>> {
    if let (Some(x), Some(y)) = (x.as_num(), y.as_num()) {
        return Some(scalar_bin(op, x, y));
    }
    match (x.as_bool(), y.as_bool()) {
        (Some(x), Some(y)) if matches!(op, BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne) => {
            Some(Ok(RVal::B(match op {
                BinOp::And => x && y,
                BinOp::Or => x || y,
                BinOp::Eq => x == y,
                _ => x != y,
            })))
        }
        _ => None,
    }
}

/// `x op y` on register values: the scalar fast path, else the shared
/// `binary_value` on the values where they are.
fn bin_rval(op: BinOp, x: &RVal, y: &RVal) -> R<RVal> {
    if let Some(v) = scalar_rval(op, x, y) {
        return v;
    }
    let (bx, by);
    let x = match x.boxed() {
        Some(v) => v,
        None => {
            bx = x.to_nv();
            &bx
        }
    };
    let y = match y.boxed() {
        Some(v) => v,
        None => {
            by = y.to_nv();
            &by
        }
    };
    binary_value(op, x, y).map(RVal::from_nv)
}

/// Take a bound operand register and materialise it (temporaries are always
/// written by a preceding op before being consumed).
#[inline]
fn take_nv(frame: &mut Frame, r: Reg) -> NValue {
    frame.regs[r as usize]
        .take()
        .expect("operand register bound")
        .nv()
}

/// `base.name` as a register value: a scalar field is read unboxed, without
/// copying it out of the hash (or the status).
fn field_rval(base: &RVal, name: &str) -> R<RVal> {
    let boxed;
    let base = match base.boxed() {
        Some(v) => v,
        None => {
            boxed = base.to_nv();
            &boxed
        }
    };
    let v = field_ref(base, name)?;
    Ok(match &*v {
        Value::Real(m) if m.is_scalar() => RVal::F(m.get(0, 0)),
        Value::Bool(b) if b.is_scalar() => RVal::B(b.get(0, 0)),
        _ => RVal::N(NValue::wrap(v.into_owned())),
    })
}

// ---- dynamic resolution (cold paths) ----------------------------------------

/// Variable-only resolution through the dynamic scope chain: this frame's
/// named slots, enclosing frames (innermost first), then interpreter scopes.
/// Every caller asks about a name whose own slot, if the chunk has one, is
/// empty; so unless the frame has grown, this frame does not bind it.
fn find_var(interp: &mut Interp, frame: &Frame, chain: Option<&Chain>, g: u32) -> Option<NValue> {
    if interp.vm.info[g as usize].slotted {
        if let Some(v) = frame.grown.then(|| frame.lookup(g)).flatten() {
            return Some(v.to_nv());
        }
        let mut link = chain;
        while let Some(c) = link {
            if let Some(v) = c.frame.lookup(g) {
                return Some(v.to_nv());
            }
            link = c.up;
        }
    }
    let info = info(interp, g);
    if !info.global {
        return None;
    }
    let name = info.name.clone();
    name_lookup();
    interp
        .scopes
        .iter()
        .rev()
        .find_map(|s| s.get(&*name))
        .cloned()
}

/// Full identifier resolution for reads: variable, else zero-argument call
/// (user function, then builtin), else "undefined variable" — the same
/// order as the tree-walker's `Expr::Ident` evaluation.
fn resolve_ident(
    interp: &mut Interp,
    frame: &Frame,
    chain: Option<&Chain>,
    g: u32,
    want: usize,
) -> R<Vec<NValue>> {
    if let Some(v) = find_var(interp, frame, chain, g) {
        return Ok(vec![v]);
    }
    let info = info(interp, g);
    let (func, builtin, name) = (info.func.clone(), info.builtin, info.name.clone());
    if let Some(f) = func {
        let child = interp.vm.frame(&f);
        let mut child = run_user(interp, &f, frame, chain, child)?;
        let n = outputs(&f, &child, want)?;
        let outs = (0..n).map(|k| output(&f, &mut child, k).nv()).collect();
        interp.vm.recycle(child);
        return Ok(outs);
    }
    if builtin != NO_TABLE {
        let none: &mut [NValue] = &mut [];
        return Ok(interp
            .call_builtin(Builtin::from_id(builtin), none, Vec::new())?
            .into_vec());
    }
    err(format!("undefined variable {name}"))
}

fn load_slow(interp: &mut Interp, frame: &Frame, chain: Option<&Chain>, g: u32) -> R<NValue> {
    debug_assert!(g != NO_NAME, "unbound register read is a named slot");
    let mut res = resolve_ident(interp, frame, chain, g, 1)?;
    Ok(res.remove(0))
}

// ---- calls ------------------------------------------------------------------

/// Where a call's arguments are and where its results go.
#[derive(Clone, Copy)]
struct Call {
    dst: Reg,
    base: Reg,
    argc: u16,
    kwt: u16,
    want: u16,
}

fn gather_args(
    chunk: &Chunk,
    frame: &mut Frame,
    base: Reg,
    argc: u16,
    kwt: u16,
) -> (Vec<NValue>, Vec<(String, NValue)>) {
    let mut pos = Vec::with_capacity(argc as usize);
    let mut kw = Vec::new();
    if kwt == NO_TABLE {
        for i in 0..argc {
            pos.push(take_nv(frame, base + i));
        }
    } else {
        let table = &chunk.kw_tables[kwt as usize];
        for i in 0..argc {
            let v = take_nv(frame, base + i);
            match table.iter().find(|(p, _)| *p == i) {
                Some((_, nid)) => kw.push((chunk.names[*nid as usize].to_string(), v)),
                None => pos.push(v),
            }
        }
    }
    (pos, kw)
}

/// Clear a call's argument registers: what they share, the caller's
/// locals hold alone again.
fn clear_args(frame: &mut Frame, call: Call) {
    frame.regs[call.base as usize..(call.base + call.argc) as usize].fill(None);
}

/// Write a call's results to `dst..dst+want`, enforcing the multi-assignment
/// arity error with the tree-walker's exact message.
fn write_results(frame: &mut Frame, dst: Reg, want: u16, results: Vec<NValue>) -> R<()> {
    if results.len() < want as usize {
        return err(format!(
            "expected {} return values, got {}",
            want,
            results.len()
        ));
    }
    for (i, v) in results.into_iter().take(want as usize).enumerate() {
        frame.regs[dst as usize + i] = Some(RVal::from_nv(v));
    }
    Ok(())
}

/// [`write_results`] of a builtin's or method's results.
fn write_ret(frame: &mut Frame, dst: Reg, want: u16, ret: Ret) -> R<()> {
    let v = match ret {
        Ret::Many(v) => return write_results(frame, dst, want, v),
        Ret::Num(x) => RVal::F(x),
        Ret::Bool(b) => RVal::B(b),
        Ret::One(v) => RVal::from_nv(v),
    };
    write_one(frame, dst, want, v)
}

fn write_one(frame: &mut Frame, dst: Reg, want: u16, v: RVal) -> R<()> {
    if want > 1 {
        return err(format!("expected {want} return values, got 1"));
    }
    if want == 1 {
        frame.regs[dst as usize] = Some(v);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn apply_op(
    interp: &mut Interp,
    chunk: &Chunk,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
    name: u32,
    slot: Reg,
    builtin: u16,
    call: Call,
) -> R<()> {
    // Runtime var-vs-call split, like the tree-walker's `Expr::Apply`: a
    // bound local, a variable further out, a user function, a builtin.
    // A bound local indexes in place — no clone of the container, matching
    // the tree-walker's by-reference `index_value(base, &idx)`.
    if slot != NO_REG && frame.regs[slot as usize].is_some() {
        return index_call(frame, None, slot, call);
    }
    let g = gids[name as usize];
    if let Some(v) = find_var(interp, frame, chain, g) {
        return index_call(frame, Some(v), slot, call);
    }
    if let Some(f) = info(interp, g).func.clone() {
        return call_user(interp, chunk, frame, chain, &f, call);
    }
    if builtin == BUILTIN_EXEC {
        let (mut pos, _kw) = gather_args(chunk, frame, call.base, call.argc, call.kwt);
        exec_in_frame(interp, frame, chain, &mut pos)?;
        return write_one(frame, call.dst, call.want, RVal::N(NValue::V(Value::None)));
    }
    if builtin == NO_TABLE {
        return err(format!("unknown function {}", chunk.names[name as usize]));
    }
    let b = Builtin::from_id(builtin);
    let ret = if call.kwt == NO_TABLE {
        let args = &mut frame.regs[call.base as usize..(call.base + call.argc) as usize];
        let ret = interp.call_builtin(b, args, Vec::new());
        clear_args(frame, call);
        ret
    } else {
        let (mut pos, kw) = gather_args(chunk, frame, call.base, call.argc, call.kwt);
        interp.call_builtin(b, &mut pos, kw)
    }?;
    write_ret(frame, call.dst, call.want, ret)
}

/// `x(args)` where `x` is a variable: the bound local `slot`, or `outer`,
/// a value found further out.
fn index_call(frame: &mut Frame, outer: Option<NValue>, slot: Reg, call: Call) -> R<()> {
    if call.kwt != NO_TABLE {
        return err("unexpected keyword argument");
    }
    // The variable is a local (below the argument registers) or `outer`.
    let (locals, above) = frame.regs.split_at_mut(call.base as usize);
    let args = &mut above[..call.argc as usize];
    let res = match &outer {
        Some(v) => index_value(v, args),
        None => {
            let local = locals[slot as usize].as_ref().expect("bound local");
            match local.boxed() {
                Some(v) => index_value(v, args),
                None => index_value(&local.to_nv(), args),
            }
        }
    };
    clear_args(frame, call);
    write_one(frame, call.dst, call.want, RVal::from_nv(res?))
}

/// Call user function `f` on a pooled frame. Arguments move from their
/// registers into the parameter slots.
fn call_user(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    chain: Option<&Chain>,
    f: &Rc<VmFunc>,
    call: Call,
) -> R<()> {
    let arity = |got: usize| -> R<()> {
        if got > f.proto.def.params.len() {
            return err(format!(
                "{} takes {} arguments, got {}",
                f.proto.def.name,
                f.proto.def.params.len(),
                got
            ));
        }
        Ok(())
    };
    let params = &f.proto.param_slots;
    let child = if call.kwt == NO_TABLE {
        arity(call.argc as usize)?;
        let mut child = interp.vm.frame(f);
        for i in 0..call.argc {
            let arg = frame.regs[(call.base + i) as usize].take();
            child.regs[params[i as usize] as usize] = arg;
        }
        child
    } else {
        // Keyword arguments are dropped, as by the tree-walker.
        let (pos, _kw) = gather_args(chunk, frame, call.base, call.argc, call.kwt);
        arity(pos.len())?;
        let mut child = interp.vm.frame(f);
        for (i, a) in pos.into_iter().enumerate() {
            child.regs[params[i] as usize] = Some(RVal::from_nv(a));
        }
        child
    };
    let mut child = run_user(interp, f, frame, chain, child)?;
    let n = outputs(f, &child, call.want as usize)?;
    if n < call.want as usize {
        return err(format!("expected {} return values, got {n}", call.want));
    }
    for k in 0..call.want as usize {
        frame.regs[call.dst as usize + k] = Some(output(f, &mut child, k));
    }
    interp.vm.recycle(child);
    Ok(())
}

/// Run the body of `f` on `child`, its parameters bound; the caller's
/// frame joins the dynamic-scope chain. The frame comes back with the
/// outputs in their slots.
fn run_user(
    interp: &mut Interp,
    f: &VmFunc,
    caller: &Frame,
    chain: Option<&Chain>,
    mut child: Frame,
) -> R<Frame> {
    let link = Chain {
        frame: caller,
        up: chain,
    };
    run_frame(interp, &f.proto.chunk, &f.gids, &mut child, Some(&link))?;
    Ok(child)
}

/// How many values a call of `f` wanting `want` yields, once each of them
/// is checked set — the tree-walker's order: an unset output first, then
/// the count. An output-less function yields `none`.
fn outputs(f: &VmFunc, child: &Frame, want: usize) -> R<usize> {
    let outs = &f.proto.def.outs;
    let n = want.max(1).min(outs.len().max(1));
    for (k, o) in outs.iter().take(n).enumerate() {
        if child.regs[f.proto.out_slots[k] as usize].is_none() {
            return err(format!(
                "function {} did not set output {o}",
                f.proto.def.name
            ));
        }
    }
    Ok(if outs.is_empty() { 1 } else { n })
}

/// Output `k` of a finished call (checked by [`outputs`]).
fn output(f: &VmFunc, child: &mut Frame, k: usize) -> RVal {
    if f.proto.def.outs.is_empty() {
        return RVal::N(NValue::V(Value::None));
    }
    child.regs[f.proto.out_slots[k] as usize]
        .take()
        .expect("checked by outputs")
}

/// The `exec` builtin on the VM engine: lower the file's program *into the
/// current frame* (seeded with its named slots) and run it there, so the
/// script binds variables in the caller's scope exactly like the
/// tree-walker's `self.run` on the current scope stack.
fn exec_in_frame(
    interp: &mut Interp,
    frame: &mut Frame,
    chain: Option<&Chain>,
    pos: &mut [NValue],
) -> R<()> {
    let prog = parse_program(&read_exec_source(pos)?)?;
    let seeds: Vec<(Rc<str>, Reg)> = frame
        .names
        .iter()
        .enumerate()
        .filter(|&(_, &g)| g != NO_NAME)
        .map(|(i, &g)| (interp.vm.info[g as usize].name.clone(), i as Reg))
        .collect();
    let chunk = lower_seeded(&prog, &seeds, frame.regs.len() as Reg);
    let (gids, _) = interp.vm.link(&chunk);
    frame.extend_for(&chunk, &gids);
    run_frame(interp, &chunk, &gids, frame, chain)
}

/// Run the in-place update `f` on the value bound to local `slot`: the value
/// is taken out of the register, mutated and put back — also when `f` fails,
/// since the shared helpers leave it untouched on error. An unbound slot
/// means the name lives in an enclosing frame or scope (or nowhere): `outer`
/// fetches a copy, bound locally only once `f` succeeds, so assignments
/// never reach a caller's bindings.
fn update_slot<T>(
    frame: &mut Frame,
    slot: Reg,
    outer: impl FnOnce(&Frame) -> R<NValue>,
    f: impl FnOnce(&mut Frame, &mut NValue) -> R<T>,
) -> R<T> {
    let (mut v, own) = match frame.regs[slot as usize].take() {
        Some(v) => (v.nv(), true),
        None => (outer(frame)?, false),
    };
    let out = f(frame, &mut v);
    if own || out.is_ok() {
        frame.regs[slot as usize] = Some(RVal::from_nv(v));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn method_op(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    chain: Option<&Chain>,
    dst: Reg,
    name: u32,
    obj: Reg,
    base: Reg,
    argc: u16,
    kwt: u16,
    want: u16,
    wb: Reg,
) -> R<()> {
    let ret = if wb != NO_REG {
        // `L.add_last[x]` on a plain variable: append in slot `wb`, after the
        // arguments (which may read `L`), taken from their registers (a
        // keyword argument is dropped first).
        let mut kw_free = (kwt != NO_TABLE).then(|| gather_args(chunk, frame, base, argc, kwt).0);
        let args = base as usize..(base + argc) as usize;
        update_slot(
            frame,
            wb,
            |frame| load_slow(interp, frame, chain, frame.names[wb as usize]),
            |frame, list| {
                let out = match &mut kw_free {
                    Some(pos) => add_last_value(list, pos, want as usize),
                    None => add_last_value(list, &mut frame.regs[args.clone()], want as usize),
                };
                frame.regs[args].fill(None);
                out
            },
        )?
    } else {
        let b = take_nv(frame, obj);
        let (mut pos, kw) = gather_args(chunk, frame, base, argc, kwt);
        interp.method(b, &chunk.names[name as usize], &mut pos, kw)?
    };
    write_ret(frame, dst, want, ret)
}

/// `name(i...)(j...)` ([`Op::IndexTwice`]): on a bound local list, the
/// item `name(i)` is indexed in place; anything else is the two ops it
/// stands for, an [`Op::Apply`] and an [`Op::Index`] of its result. Either
/// way `dst` is written only when both succeed.
#[allow(clippy::too_many_arguments)]
fn index_twice(
    interp: &mut Interp,
    chunk: &Chunk,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
    dst: Reg,
    name: u32,
    slot: Reg,
    builtin: u16,
    idx: Reg,
    n1: u16,
    n2: u16,
) -> R<()> {
    let (locals, above) = frame.regs.split_at_mut(idx as usize);
    let (first, rest) = above.split_at_mut(n1 as usize);
    let second = &mut rest[..n2 as usize];
    let base = locals[slot as usize].as_ref().and_then(RVal::boxed);
    // A hash item may come out as a Premia object (`NValue::wrap`), so
    // only other items are indexed in place.
    let fast = match base {
        Some(NValue::V(base)) => match list_item(base, first) {
            Some(Ok(item)) if !matches!(item, Value::Hash(_)) => Some(index_plain(item, second)),
            Some(Err(e)) => Some(Err(e)),
            _ => None,
        },
        _ => None,
    };
    let res = match fast {
        Some(res) => {
            first.fill(None);
            res
        }
        None => {
            // `name(i...)` lands in the first `i` register, which the
            // call frees, so `dst` keeps its value until the result exists.
            let call = Call {
                dst: idx,
                base: idx,
                argc: n1,
                kwt: NO_TABLE,
                want: 1,
            };
            apply_op(interp, chunk, gids, frame, chain, name, slot, builtin, call)?;
            let item = take_nv(frame, idx);
            let second = &mut frame.regs[(idx + n1) as usize..(idx + n1 + n2) as usize];
            index_value(&item, second)
        }
    };
    frame.regs[(idx + n1) as usize..(idx + n1 + n2) as usize].fill(None);
    res.map(|v| frame.regs[dst as usize] = Some(RVal::from_nv(v)))
}

#[allow(clippy::too_many_arguments)]
fn ident_multi(
    interp: &mut Interp,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
    dst: Reg,
    slot: Reg,
    name: u32,
    want: u16,
) -> R<()> {
    let results = match slot {
        s if s != NO_REG && frame.regs[s as usize].is_some() => {
            vec![frame.regs[s as usize]
                .as_ref()
                .expect("checked above")
                .to_nv()]
        }
        _ => resolve_ident(interp, frame, chain, gids[name as usize], want as usize)?,
    };
    write_results(frame, dst, want, results)
}

#[allow(clippy::too_many_arguments)]
fn index_asg(
    interp: &mut Interp,
    chunk: &Chunk,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
    slot: Reg,
    name: u32,
    idx: Reg,
    n: u16,
    src: Reg,
) -> R<()> {
    let mut iv = Vec::with_capacity(n as usize);
    for i in 0..n {
        iv.push(take_nv(frame, idx + i));
    }
    let v = take_nv(frame, src);
    update_slot(
        frame,
        slot,
        |frame| {
            find_var(interp, frame, chain, gids[name as usize]).ok_or_else(|| {
                NspError::new(format!("undefined variable {}", chunk.names[name as usize]))
            })
        },
        |_, current| index_assign_value(current, &iv, v),
    )
}

#[allow(clippy::too_many_arguments)]
fn field_asg(
    interp: &mut Interp,
    chunk: &Chunk,
    gids: &[u32],
    frame: &mut Frame,
    chain: Option<&Chain>,
    slot: Reg,
    name: u32,
    field: u32,
    src: Reg,
) -> R<()> {
    let v = take_nv(frame, src);
    update_slot(
        frame,
        slot,
        |frame| {
            // auto-create, like Nsp's H.A = ...
            Ok(find_var(interp, frame, chain, gids[name as usize])
                .unwrap_or(NValue::V(Value::Hash(Hash::new()))))
        },
        |_, hash| field_assign_value(hash, &chunk.names[field as usize], v),
    )
}

#[cfg(test)]
mod tests {
    //! What one dispatched op costs, counted rather than timed: heap
    //! allocations (a per-thread counting allocator) and name lookups
    //! ([`name_lookup`]). Each statement runs in a loop at two lengths and
    //! against an empty loop body, so what a script pays once (parsing,
    //! lowering, interning, the first call's frame) cancels out and what is
    //! left is the cost of one turn.
    use super::NAME_LOOKUPS;
    use crate::{Engine, Interp};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, counting the allocations each thread asks for.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_one() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter is a statistic and guards
    // nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_one();
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    const SETUP: &str = "function y = f(a, b, c, d)\n  y = a\nendfunction\n\
                         h = hash_create(src=1, tag=2, count=3)\n\
                         L = list(1, 'two', 3)\nMCW = 'COMM:WORLD'";

    /// (allocations, name lookups) of one VM run of `body` in an `n`-turn
    /// loop after `SETUP`.
    fn counts(body: &str, n: usize) -> (u64, u64) {
        let src = format!("{SETUP}\nfor k = 1:{n} do\n  {body}\nend");
        let mut interp = Interp::with_engine(Engine::Vm);
        let (a0, l0) = (ALLOCS.with(Cell::get), NAME_LOOKUPS.with(Cell::get));
        interp.run(&src).expect("script runs");
        (
            ALLOCS.with(Cell::get) - a0,
            NAME_LOOKUPS.with(Cell::get) - l0,
        )
    }

    /// (allocations, name lookups) `stmt` adds to one loop turn.
    fn per_turn(stmt: &str) -> (f64, f64) {
        const N: usize = 200;
        let growth = |body: &str| {
            let (a1, l1) = counts(body, N);
            let (a2, l2) = counts(body, 2 * N);
            (a2 as f64 - a1 as f64, l2 as f64 - l1 as f64)
        };
        let (a, l) = growth(stmt);
        let (a0, l0) = growth("");
        ((a - a0) / N as f64, (l - l0) / N as f64)
    }

    #[test]
    fn calls_allocate_nothing_per_turn() {
        // A builtin on two immediates, a 4-argument user function (its
        // frame comes from the pool), a hash field (read in place) and a
        // copy of a list or a hash (shared: the first copy boxes it once,
        // every turn after hands out one more reference).
        for (stmt, allocs) in [
            ("s = min(k, 3)", 0.0),
            ("s = f(k, 1, 2, 3)", 0.0),
            ("s = h.src", 0.0),
            ("s = isempty(MCW)", 0.0),
            ("M = L", 0.0),
            ("M = h", 0.0),
        ] {
            assert_eq!(per_turn(stmt).0, allocs, "allocations per turn of `{stmt}`");
        }
    }

    #[test]
    fn dispatched_ops_look_up_no_name() {
        for stmt in [
            "s = k + 1",
            "s = min(k, 3)",
            "s = f(k, 1, 2, 3)",
            "s = h.src",
            "s = L(2)",
            "s = string(k)",
            "M = list(k, MCW)",
            "x = isempty(MCW)",
            "[r, c] = size(k)",
        ] {
            assert_eq!(per_turn(stmt).1, 0.0, "name lookups per turn of `{stmt}`");
        }
    }

    #[test]
    fn strings_and_items_are_read_where_they_are() {
        // A string compared, a string constant and a string local passed
        // on, and a list item indexed where it lies, copy nothing: each
        // statement below costs what building `P` alone costs.
        let build = "P = list(list('Price', 0, 3.5))";
        let base = per_turn(build).0;
        for stmt in [
            "s = MCW == ''",
            "s = '' == MCW",
            "s = isempty('')",
            "s = f(MCW, 'x', k, 3)",
            "s = P(1)(3)",
            "s = -1",
        ] {
            let (allocs, lookups) = per_turn(&format!("{build}\n  {stmt}"));
            assert_eq!(allocs - base, 0.0, "allocations per turn of `{stmt}`");
            assert_eq!(lookups, 0.0, "name lookups per turn of `{stmt}`");
        }
    }

    #[test]
    fn a_binding_made_while_running_is_seen() {
        // A function definition moves the binding epoch in the middle of
        // a run: what a call resolved `g` to before is not trusted after.
        let src = "function y = g(a)\n  y = a + 1\nendfunction\ns = g(1)\n\
                   function y = g(a)\n  y = a + 2\nendfunction\nt = g(1)";
        let mut interp = Interp::with_engine(Engine::Vm);
        interp.run(src).unwrap();
        assert_eq!(interp.get_scalar("s"), Some(2.0));
        assert_eq!(interp.get_scalar("t"), Some(3.0));
    }
}

//! The register bytecode VM.
//!
//! [`run_vm`] parses and lowers a script ([`crate::lower`]) and executes the
//! resulting [`Chunk`] on a flat register frame. Semantics are shared with
//! the tree-walker by construction: both engines call the same value helpers
//! (`binary_value`, `index_value`, …), builtin table, method dispatch, and
//! RNG, so variable bindings, draw sequences, and error messages are
//! bit-identical (asserted by `tests/nsp_scripts.rs`).
//!
//! Registers hold an [`RVal`]: either a boxed [`NValue`] or an **unboxed**
//! scalar (`f64` / `bool`). Every nspval scalar is a heap-allocated 1×1
//! matrix, so the tree-walker pays one allocation per arithmetic node; the
//! VM keeps scalars as immediates and materialises the 1×1 matrix only at
//! engine boundaries (calls, indexing, scope flush). Materialisation is
//! loss-free — `RVal::F(x)` round-trips to exactly `NValue::scalar(x)` —
//! so unboxing is invisible to scripts and to the equivalence battery.
//!
//! Hot-path discipline: the dispatch loop below (bracketed by `HASH-FREE`
//! markers, grep-gated by `scripts/ci.sh`) touches only `Vec`-indexed state — registers, constants, interned names.
//! Name hashing survives only on cold paths (dynamic-scope fallback, call
//! setup).

use crate::ast::{BinOp, UnOp};
use crate::interp::{
    add_last_value, binary_value, build_matrix, builtin_id, builtin_name, field_assign_value,
    field_value, for_items_of, index_assign_value, index_value, range_value, read_exec_source,
    transpose_value, unary_value, Interp, NValue, NspError, BUILTIN_EXEC,
};
use crate::lower::{lower_function, lower_program, lower_seeded};
use crate::opcodes::{Chunk, Op, Proto, Reg, NO_REG, NO_TABLE};
use crate::parser::parse_program;
use nspval::{Hash, Value};
use std::rc::Rc;

type R<T> = Result<T, NspError>;

fn err<T>(msg: impl Into<String>) -> R<T> {
    Err(NspError::new(msg))
}

/// A register value: a boxed [`NValue`] or an unboxed scalar immediate.
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
            RVal::F(x) => NValue::scalar(x),
            RVal::B(b) => NValue::boolean(b),
        }
    }

    /// Materialise a clone.
    #[inline]
    fn to_nv(&self) -> NValue {
        match self {
            RVal::N(v) => v.clone(),
            RVal::F(x) => NValue::scalar(*x),
            RVal::B(b) => NValue::boolean(*b),
        }
    }

    /// The scalar-real content, unboxed or boxed.
    #[inline]
    fn as_num(&self) -> Option<f64> {
        match self {
            RVal::F(x) => Some(*x),
            RVal::N(NValue::V(Value::Real(m))) if m.is_scalar() => Some(m.get(0, 0)),
            _ => None,
        }
    }

    /// The scalar-boolean content, unboxed or boxed.
    #[inline]
    fn as_bool(&self) -> Option<bool> {
        match self {
            RVal::B(b) => Some(*b),
            RVal::N(NValue::V(Value::Bool(m))) if m.is_scalar() => Some(m.get(0, 0)),
            _ => None,
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

/// One execution frame: registers plus the names of the named slots
/// (`None` for temporaries). The name table drives the dynamic-scope
/// fallback and the final flush of top-level bindings into the global scope.
pub(crate) struct Frame {
    regs: Vec<Option<RVal>>,
    names: Vec<Option<Rc<str>>>,
}

impl Frame {
    fn for_chunk(chunk: &Chunk) -> Frame {
        let n = chunk.nregs as usize;
        let mut f = Frame {
            regs: vec![None; n],
            names: vec![None; n],
        };
        f.name_locals(chunk);
        f
    }

    /// Grow an existing frame for an `exec`-lowered chunk.
    fn extend_for(&mut self, chunk: &Chunk) {
        let n = chunk.nregs as usize;
        if n > self.regs.len() {
            self.regs.resize(n, None);
            self.names.resize(n, None);
        }
        self.name_locals(chunk);
    }

    fn name_locals(&mut self, chunk: &Chunk) {
        for &(slot, name) in &chunk.locals {
            self.names[slot as usize] = Some(chunk.names[name as usize].clone());
        }
    }

    /// Find `name` among this frame's bound named slots.
    fn lookup(&self, name: &str) -> Option<NValue> {
        for (i, n) in self.names.iter().enumerate() {
            if let Some(n) = n {
                if &**n == name {
                    if let Some(v) = self.regs[i].as_ref() {
                        return Some(v.to_nv());
                    }
                }
            }
        }
        None
    }
}

/// Parse, lower, and execute a script; top-level bindings are flushed to the
/// interpreter's current scope afterwards (also on error, mirroring the
/// tree-walker's incremental binding).
pub(crate) fn run_vm(interp: &mut Interp, src: &str) -> R<()> {
    let prog = parse_program(src)?;
    let chunk = lower_program(&prog);
    let mut frame = Frame::for_chunk(&chunk);
    let res = run_frame(interp, &chunk, &mut frame, &[]);
    flush_frame(interp, &mut frame);
    res
}

fn flush_frame(interp: &mut Interp, frame: &mut Frame) {
    let scope = interp.scopes.last_mut().expect("at least the global scope");
    for (i, name) in frame.names.iter().enumerate() {
        if let Some(name) = name {
            if let Some(v) = frame.regs[i].take() {
                scope.insert(name.to_string(), v.nv());
            }
        }
    }
}

/// Execute a chunk on a frame. `parents` are the frames of enclosing calls,
/// innermost last (the dynamic scope chain between this frame and the
/// interpreter's global scope).
fn run_frame(interp: &mut Interp, chunk: &Chunk, frame: &mut Frame, parents: &[&Frame]) -> R<()> {
    let ops = &chunk.ops[..];
    let mut pc = 0usize;
    // Active `for` iterators, innermost last (items reversed: pop = next).
    let mut iters: Vec<Vec<NValue>> = Vec::new();
    // HASH-FREE-BEGIN: script dispatch loop. Registers, constants, and
    // jump targets are Vec-indexed; no name lookup happens on these paths,
    // and the scalar fast paths (Bin/Un/JumpIfFalse on RVal immediates)
    // never touch the allocator. Cold helpers (dynamic resolve, calls)
    // live below the end marker.
    while pc < ops.len() {
        let step: R<usize> = match ops[pc] {
            Op::Const { dst, idx } => {
                frame.regs[dst as usize] = Some(load_const(&chunk.consts[idx as usize]));
                Ok(pc + 1)
            }
            Op::Copy { dst, src } => {
                let v = match frame.regs[src as usize] {
                    Some(ref v) => Ok(v.clone()),
                    None => load_slow(interp, frame, parents, frame.names[src as usize].clone())
                        .map(RVal::from_nv),
                };
                v.map(|v| {
                    frame.regs[dst as usize] = Some(v);
                    pc + 1
                })
            }
            Op::Take { dst, src } => {
                frame.regs[dst as usize] = frame.regs[src as usize].take();
                Ok(pc + 1)
            }
            Op::LoadDyn { dst, name } => {
                load_slow(interp, frame, parents, Some(chunk.names[name as usize].clone())).map(
                    |v| {
                        frame.regs[dst as usize] = Some(RVal::from_nv(v));
                        pc + 1
                    },
                )
            }
            Op::IdentMulti {
                dst,
                slot,
                name,
                want,
            } => ident_multi(interp, chunk, frame, parents, dst, slot, name, want)
                .map(|_| pc + 1),
            Op::Bin { op, dst, a, b } => {
                // Scalar fast path: both operands are immediates (or boxed
                // 1×1s) — pure register arithmetic, no allocation.
                let fast = match (&frame.regs[a as usize], &frame.regs[b as usize]) {
                    (Some(x), Some(y)) => match (x.as_num(), y.as_num()) {
                        (Some(x), Some(y)) => Some(scalar_bin(op, x, y)),
                        _ => match (x.as_bool(), y.as_bool()) {
                            (Some(x), Some(y))
                                if matches!(
                                    op,
                                    BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne
                                ) =>
                            {
                                Some(Ok(RVal::B(match op {
                                    BinOp::And => x && y,
                                    BinOp::Or => x || y,
                                    BinOp::Eq => x == y,
                                    _ => x != y,
                                })))
                            }
                            _ => None,
                        },
                    },
                    _ => None,
                };
                let res = match fast {
                    Some(r) => r,
                    None => {
                        let va = take_nv(frame, a);
                        let vb = take_nv(frame, b);
                        binary_value(op, &va, &vb).map(RVal::from_nv)
                    }
                };
                res.map(|v| {
                    frame.regs[dst as usize] = Some(v);
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
                    frame.regs[dst as usize] = Some(v);
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
                transpose_value(&v).map(|v| {
                    frame.regs[dst as usize] = Some(RVal::from_nv(v));
                    pc + 1
                })
            }
            Op::Index { dst, base, idx, n } => {
                let b = take_nv(frame, base);
                let mut iv = Vec::with_capacity(n as usize);
                for i in 0..n {
                    iv.push(take_nv(frame, idx + i));
                }
                index_value(&b, &iv).map(|v| {
                    frame.regs[dst as usize] = Some(RVal::from_nv(v));
                    pc + 1
                })
            }
            Op::Field { dst, base, name } => {
                let b = take_nv(frame, base);
                field_value(&b, &chunk.names[name as usize]).map(|v| {
                    frame.regs[dst as usize] = Some(RVal::from_nv(v));
                    pc + 1
                })
            }
            Op::Apply {
                dst,
                name,
                slot,
                builtin,
                base,
                argc,
                kwt,
                want,
            } => apply_op(
                interp, chunk, frame, parents, dst, name, slot, builtin, base, argc, kwt, want,
            )
            .map(|_| pc + 1),
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
                interp, chunk, frame, parents, dst, name, obj, base, argc, kwt, want, wb,
            )
            .map(|_| pc + 1),
            Op::IndexAsg {
                slot,
                name,
                idx,
                n,
                src,
            } => index_asg(interp, chunk, frame, parents, slot, name, idx, n, src)
                .map(|_| pc + 1),
            Op::FieldAsg {
                slot,
                name,
                field,
                src,
            } => field_asg(interp, chunk, frame, parents, slot, name, field, src)
                .map(|_| pc + 1),
            Op::DefFunc { def } => {
                def_func(interp, chunk, def);
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
                        c.truthy()
                            .map(|t| if t { pc + 1 } else { to as usize })
                    }
                }
            }
            Op::ForPrep { iter } => {
                let v = take_nv(frame, iter);
                for_items_of(v).map(|mut items| {
                    items.reverse();
                    iters.push(items);
                    pc + 1
                })
            }
            Op::ForNext { var, end } => {
                let it = iters.last_mut().expect("ForNext inside a loop");
                match it.pop() {
                    Some(item) => {
                        frame.regs[var as usize] = Some(RVal::from_nv(item));
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
    // HASH-FREE-END
    Ok(())
}

/// Load a constant, unboxing scalar literals so hot loops never clone a
/// heap matrix for `1` or `0.0`.
#[inline]
fn load_const(c: &NValue) -> RVal {
    match c {
        NValue::V(Value::Real(m)) if m.is_scalar() => RVal::F(m.get(0, 0)),
        NValue::V(Value::Bool(b)) if b.is_scalar() => RVal::B(b.get(0, 0)),
        c => RVal::N(c.clone()),
    }
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

// ---- dynamic resolution (cold paths) ----------------------------------------

/// Variable-only resolution through the dynamic scope chain: this frame's
/// named slots, enclosing frames (innermost first), then interpreter scopes.
fn resolve_var(interp: &Interp, frame: &Frame, parents: &[&Frame], name: &str) -> Option<NValue> {
    if let Some(v) = frame.lookup(name) {
        return Some(v);
    }
    for p in parents.iter().rev() {
        if let Some(v) = p.lookup(name) {
            return Some(v);
        }
    }
    interp.scopes.iter().rev().find_map(|s| s.get(name)).cloned()
}

/// Full identifier resolution for reads: variable, else zero-argument call
/// (user function, then builtin), else "undefined variable" — the same
/// order as the tree-walker's `Expr::Ident` evaluation.
fn resolve_ident(
    interp: &mut Interp,
    frame: &Frame,
    parents: &[&Frame],
    name: &str,
    want: usize,
) -> R<Vec<NValue>> {
    if let Some(v) = resolve_var(interp, frame, parents, name) {
        return Ok(vec![v]);
    }
    if let Some(f) = interp.funcs.get(name).cloned() {
        return call_user(interp, frame, parents, &f, Vec::new(), want);
    }
    if builtin_id(name).is_some() {
        return interp.call_builtin(name, Vec::new(), Vec::new(), want);
    }
    err(format!("undefined variable {name}"))
}

fn load_slow(
    interp: &mut Interp,
    frame: &Frame,
    parents: &[&Frame],
    name: Option<Rc<str>>,
) -> R<NValue> {
    let name = name.expect("unbound register read is a named slot");
    let mut res = resolve_ident(interp, frame, parents, &name, 1)?;
    Ok(res.remove(0))
}

// ---- calls ------------------------------------------------------------------

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

#[allow(clippy::too_many_arguments)]
fn apply_op(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    parents: &[&Frame],
    dst: Reg,
    name: u32,
    slot: Reg,
    builtin: u16,
    base: Reg,
    argc: u16,
    kwt: u16,
    want: u16,
) -> R<()> {
    let (pos, kw) = gather_args(chunk, frame, base, argc, kwt);
    // Runtime var-vs-call split, like the tree-walker's `Expr::Apply`.
    // A bound slot indexes in place — no clone of the container, matching
    // the tree-walker's by-reference `index_value(base, &idx)`.
    if slot != NO_REG && frame.regs[slot as usize].is_some() {
        if !kw.is_empty() {
            return err("unexpected keyword argument");
        }
        let res = {
            let rv = frame.regs[slot as usize].as_ref().expect("checked above");
            match rv {
                RVal::N(v) => index_value(v, &pos)?,
                imm => index_value(&imm.to_nv(), &pos)?,
            }
        };
        return write_results(frame, dst, want, vec![res]);
    }
    let nm = chunk.names[name as usize].clone();
    let var = resolve_var(interp, frame, parents, &nm);
    if let Some(v) = var {
        if !kw.is_empty() {
            return err("unexpected keyword argument");
        }
        let res = index_value(&v, &pos)?;
        return write_results(frame, dst, want, vec![res]);
    }
    let results = call_by_name(interp, frame, parents, &nm, builtin, pos, kw, want as usize)?;
    write_results(frame, dst, want, results)
}

#[allow(clippy::too_many_arguments)]
fn call_by_name(
    interp: &mut Interp,
    frame: &mut Frame,
    parents: &[&Frame],
    name: &str,
    builtin: u16,
    pos: Vec<NValue>,
    kw: Vec<(String, NValue)>,
    want: usize,
) -> R<Vec<NValue>> {
    if let Some(f) = interp.funcs.get(name).cloned() {
        return call_user(interp, frame, parents, &f, pos, want);
    }
    if builtin == BUILTIN_EXEC {
        return exec_in_frame(interp, frame, parents, pos);
    }
    if builtin != NO_TABLE {
        return interp.call_builtin(builtin_name(builtin), pos, kw, want);
    }
    // Not a builtin: shares the tree-walker's "unknown function" arm.
    interp.call_builtin(name, pos, kw, want)
}

/// Compiled-function cache: keyed by name, revalidated against the live
/// `funcs` binding by `Rc` identity so redefinition recompiles.
fn proto_for(interp: &mut Interp, f: &Rc<crate::ast::FuncDef>) -> Rc<Proto> {
    if let Some((def, proto)) = interp.vm_protos.get(&f.name) {
        if Rc::ptr_eq(def, f) {
            return proto.clone();
        }
    }
    let proto = Rc::new(lower_function(f));
    interp
        .vm_protos
        .insert(f.name.clone(), (f.clone(), proto.clone()));
    proto
}

fn call_user(
    interp: &mut Interp,
    frame: &Frame,
    parents: &[&Frame],
    f: &Rc<crate::ast::FuncDef>,
    args: Vec<NValue>,
    want: usize,
) -> R<Vec<NValue>> {
    if args.len() > f.params.len() {
        return err(format!(
            "{} takes {} arguments, got {}",
            f.name,
            f.params.len(),
            args.len()
        ));
    }
    let proto = proto_for(interp, f);
    let mut child = Frame::for_chunk(&proto.chunk);
    for (i, a) in args.into_iter().enumerate() {
        child.regs[proto.param_slots[i] as usize] = Some(RVal::from_nv(a));
    }
    {
        let mut np: Vec<&Frame> = Vec::with_capacity(parents.len() + 1);
        np.extend_from_slice(parents);
        np.push(frame);
        run_frame(interp, &proto.chunk, &mut child, &np)?;
    }
    let mut outs = Vec::new();
    let n_out = want.max(1).min(f.outs.len().max(1));
    for (k, o) in f.outs.iter().take(n_out).enumerate() {
        match child.regs[proto.out_slots[k] as usize].take() {
            Some(v) => outs.push(v.nv()),
            None => return err(format!("function {} did not set output {o}", f.name)),
        }
    }
    if outs.is_empty() {
        outs.push(NValue::V(Value::None));
    }
    Ok(outs)
}

/// The `exec` builtin on the VM engine: lower the file's program *into the
/// current frame* (seeded with its named slots) and run it there, so the
/// script binds variables in the caller's scope exactly like the
/// tree-walker's `self.run` on the current scope stack.
fn exec_in_frame(
    interp: &mut Interp,
    frame: &mut Frame,
    parents: &[&Frame],
    pos: Vec<NValue>,
) -> R<Vec<NValue>> {
    let prog = parse_program(&read_exec_source(pos)?)?;
    let seeds: Vec<(Rc<str>, Reg)> = frame
        .names
        .iter()
        .enumerate()
        .filter_map(|(i, n)| n.clone().map(|n| (n, i as Reg)))
        .collect();
    let chunk = lower_seeded(&prog, &seeds, frame.regs.len() as Reg);
    frame.extend_for(&chunk);
    run_frame(interp, &chunk, frame, parents)?;
    Ok(vec![NValue::V(Value::None)])
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
    f: impl FnOnce(&mut NValue) -> R<T>,
) -> R<T> {
    let (mut v, own) = match frame.regs[slot as usize].take() {
        Some(v) => (v.nv(), true),
        None => (outer(frame)?, false),
    };
    let out = f(&mut v);
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
    parents: &[&Frame],
    dst: Reg,
    name: u32,
    obj: Reg,
    base: Reg,
    argc: u16,
    kwt: u16,
    want: u16,
    wb: Reg,
) -> R<()> {
    let results = if wb != NO_REG {
        // `L.add_last[x]` on a plain variable: append in slot `wb`, after the
        // arguments (which may read `L`).
        let (pos, _kw) = gather_args(chunk, frame, base, argc, kwt);
        update_slot(
            frame,
            wb,
            |frame| load_slow(interp, frame, parents, frame.names[wb as usize].clone()),
            |list| add_last_value(list, pos, want as usize),
        )?
    } else {
        let b = take_nv(frame, obj);
        let (pos, kw) = gather_args(chunk, frame, base, argc, kwt);
        interp.method(b, &chunk.names[name as usize], pos, kw)?
    };
    write_results(frame, dst, want, results)
}

#[allow(clippy::too_many_arguments)]
fn ident_multi(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    parents: &[&Frame],
    dst: Reg,
    slot: Reg,
    name: u32,
    want: u16,
) -> R<()> {
    let nm = chunk.names[name as usize].clone();
    let results = match slot {
        s if s != NO_REG && frame.regs[s as usize].is_some() => {
            vec![frame.regs[s as usize]
                .as_ref()
                .expect("checked above")
                .to_nv()]
        }
        _ => resolve_ident(interp, frame, parents, &nm, want as usize)?,
    };
    write_results(frame, dst, want, results)
}

#[allow(clippy::too_many_arguments)]
fn index_asg(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    parents: &[&Frame],
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
    let nm = &chunk.names[name as usize];
    update_slot(
        frame,
        slot,
        |frame| {
            resolve_var(interp, frame, parents, nm)
                .ok_or_else(|| NspError::new(format!("undefined variable {nm}")))
        },
        |current| index_assign_value(current, &iv, v),
    )
}

#[allow(clippy::too_many_arguments)]
fn field_asg(
    interp: &mut Interp,
    chunk: &Chunk,
    frame: &mut Frame,
    parents: &[&Frame],
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
            Ok(
                resolve_var(interp, frame, parents, &chunk.names[name as usize])
                    .unwrap_or(NValue::V(Value::Hash(Hash::new()))),
            )
        },
        |hash| field_assign_value(hash, &chunk.names[field as usize], v),
    )
}

fn def_func(interp: &mut Interp, chunk: &Chunk, def: u16) {
    let f = chunk.defs[def as usize].clone();
    interp.funcs.insert(f.name.clone(), f);
}

//! Lowering: mini-Nsp AST → register bytecode (`opcodes`).
//!
//! The lowerer is a single pass over the statement list preceded by a local
//! scan: every name the block *assigns* (assignment targets, `for` loop
//! variables, `add_last` receivers, function parameters and outputs) gets a
//! dedicated frame slot, so the VM reads and writes locals by index instead
//! of hashing names. Names that are only read compile to `LoadDyn` (or a
//! `Copy` from a slot that falls back to the dynamic chain when unbound),
//! preserving the tree-walker's dynamic scoping.
//!
//! Lowering itself never fails: statically detectable runtime errors
//! (`break` outside a loop, keyword arguments in index position, nested
//! field assignment) compile to `Op::Trap` at the position the
//! tree-walker would raise them, so both engines report identical errors.

use crate::ast::{Arg, Expr, FuncDef, Spanned, Stmt, Target};
use crate::interp::{builtin_id, Builtin, NValue, BUILTIN_EXEC};
use crate::lexer::Pos;
use crate::opcodes::{Chunk, Op, Proto, Reg, NO_REG, NO_TABLE};
use std::collections::HashMap;
use std::rc::Rc;

/// Lower a parsed program to a chunk executed on a fresh frame.
pub fn lower_program(prog: &[Spanned]) -> Chunk {
    Lowerer::new(&[], 0, false).lower(prog)
}

/// Lower a program into an existing frame (the `exec` builtin): `seeds` maps
/// the frame's already-named slots, `base` is the frame's current register
/// count; new locals are appended densely from `base`.
pub(crate) fn lower_seeded(prog: &[Spanned], seeds: &[(Rc<str>, Reg)], base: Reg) -> Chunk {
    Lowerer::new(seeds, base, false).lower(prog)
}

/// Compile a user function body. Parameters take the first slots, declared
/// outputs the following ones (`Proto::out_slots`).
pub(crate) fn lower_function(f: &Rc<FuncDef>) -> Proto {
    let mut lw = Lowerer::new(&[], 0, true);
    let param_slots: Vec<Reg> = f.params.iter().map(|p| lw.local(p)).collect();
    let out_slots: Vec<Reg> = f.outs.iter().map(|o| lw.local(o)).collect();
    let chunk = lw.lower(&f.body);
    Proto {
        def: f.clone(),
        param_slots,
        out_slots,
        chunk,
    }
}

/// Constant-pool key: scalars by bit pattern, so `-0.0`/`NaN` literals
/// intern consistently without `f64: Eq`.
#[derive(Hash, PartialEq, Eq)]
enum CKey {
    Num(u64),
    Str(String),
    Bool(bool),
}

struct LoopCtx {
    is_for: bool,
    start: usize,
    breaks: Vec<usize>,
}

struct Lowerer {
    ops: Vec<Op>,
    spans: Vec<Pos>,
    consts: Vec<NValue>,
    const_map: HashMap<CKey, u16>,
    names: Vec<Rc<str>>,
    name_map: HashMap<String, u32>,
    local_map: HashMap<String, Reg>,
    locals: Vec<(Reg, u32)>,
    next_local: Reg,
    first_temp: Reg,
    next_reg: Reg,
    max_reg: Reg,
    kw_tables: Vec<Vec<(u16, u32)>>,
    lends: Vec<Vec<(u16, Reg)>>,
    shapes: Vec<Vec<u16>>,
    msgs: Vec<String>,
    msg_map: HashMap<String, u16>,
    defs: Vec<Rc<FuncDef>>,
    loops: Vec<LoopCtx>,
    pending_end: Vec<usize>,
    in_function: bool,
    cur_pos: Pos,
}

impl Lowerer {
    fn new(seeds: &[(Rc<str>, Reg)], base: Reg, in_function: bool) -> Self {
        let mut lw = Lowerer {
            ops: Vec::new(),
            spans: Vec::new(),
            consts: Vec::new(),
            const_map: HashMap::new(),
            names: Vec::new(),
            name_map: HashMap::new(),
            local_map: HashMap::new(),
            locals: Vec::new(),
            next_local: base,
            first_temp: base,
            next_reg: base,
            max_reg: base,
            kw_tables: Vec::new(),
            lends: Vec::new(),
            shapes: Vec::new(),
            msgs: Vec::new(),
            msg_map: HashMap::new(),
            defs: Vec::new(),
            loops: Vec::new(),
            pending_end: Vec::new(),
            in_function,
            cur_pos: Pos::NONE,
        };
        for (name, slot) in seeds {
            lw.name(name);
            lw.local_map.insert(name.to_string(), *slot);
        }
        lw
    }

    fn lower(mut self, stmts: &[Spanned]) -> Chunk {
        scan_stmts(stmts, &mut |name| {
            self.local(name);
        });
        self.first_temp = self.next_local;
        self.next_reg = self.first_temp;
        self.max_reg = self.max_reg.max(self.first_temp);
        for s in stmts {
            self.stmt(s);
        }
        let end = self.ops.len();
        for at in std::mem::take(&mut self.pending_end) {
            self.patch(at, end);
        }
        Chunk {
            ops: self.ops,
            spans: self.spans,
            consts: self.consts,
            names: self.names,
            locals: self.locals,
            nregs: self.max_reg,
            kw_tables: self.kw_tables,
            lends: self.lends,
            shapes: self.shapes,
            msgs: self.msgs,
            defs: self.defs,
        }
    }

    // ---- tables -------------------------------------------------------------

    fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(Rc::from(name));
        self.name_map.insert(name.to_string(), id);
        id
    }

    /// The slot of a named local, registering it on first sight.
    fn local(&mut self, name: &str) -> Reg {
        if let Some(&slot) = self.local_map.get(name) {
            return slot;
        }
        let slot = self.next_local;
        self.next_local += 1;
        let id = self.name(name);
        self.locals.push((slot, id));
        self.local_map.insert(name.to_string(), slot);
        self.max_reg = self.max_reg.max(self.next_local);
        slot
    }

    fn slot_of(&self, name: &str) -> Option<Reg> {
        self.local_map.get(name).copied()
    }

    fn konst(&mut self, key: CKey, make: impl FnOnce() -> NValue) -> u16 {
        if let Some(&idx) = self.const_map.get(&key) {
            return idx;
        }
        let idx = self.consts.len() as u16;
        self.consts.push(make());
        self.const_map.insert(key, idx);
        idx
    }

    fn msg(&mut self, m: impl Into<String>) -> u16 {
        let m = m.into();
        if let Some(&idx) = self.msg_map.get(&m) {
            return idx;
        }
        let idx = self.msgs.len() as u16;
        self.msgs.push(m.clone());
        self.msg_map.insert(m, idx);
        idx
    }

    // ---- emission -----------------------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.spans.push(self.cur_pos);
        self.ops.len() - 1
    }

    fn emit_at(&mut self, op: Op, pos: Pos) -> usize {
        self.ops.push(op);
        self.spans.push(pos);
        self.ops.len() - 1
    }

    fn trap(&mut self, m: impl Into<String>) {
        let msg = self.msg(m);
        self.emit(Op::Trap { msg });
    }

    fn patch(&mut self, at: usize, to: usize) {
        let to = to as u32;
        match &mut self.ops[at] {
            Op::Jump { to: t }
            | Op::JumpIfFalse { to: t, .. }
            | Op::ForNext { end: t, .. }
            | Op::ExitLoop { to: t, .. } => *t = to,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    // ---- statements ---------------------------------------------------------

    fn stmt(&mut self, s: &Spanned) {
        self.cur_pos = s.pos;
        self.next_reg = self.first_temp;
        match &s.kind {
            Stmt::Expr(e) => {
                let t = self.alloc();
                match e {
                    // `want = 0`: nobody reads the value, so `L.add_last[x]`
                    // does not have to produce a copy of `L`.
                    Expr::MethodCall(base, name, args) => {
                        self.method_call(base, name, args, t, 0);
                    }
                    _ => self.expr_at(e, t),
                }
            }
            Stmt::Assign(targets, rhs) => {
                if targets.len() == 1 {
                    self.assign_single(&targets[0], rhs);
                } else {
                    self.assign_multi(targets, rhs);
                }
            }
            Stmt::If { arms, else_body } => {
                let mut to_end = Vec::new();
                for (cond, body) in arms {
                    self.cur_pos = s.pos;
                    self.next_reg = self.first_temp;
                    let t = self.alloc();
                    self.expr_at(cond, t);
                    let jf = self.emit(Op::JumpIfFalse { cond: t, to: 0 });
                    self.block(body);
                    to_end.push(self.emit(Op::Jump { to: 0 }));
                    let next = self.ops.len();
                    self.patch(jf, next);
                }
                self.block(else_body);
                let end = self.ops.len();
                for at in to_end {
                    self.patch(at, end);
                }
            }
            Stmt::While { cond, body } => {
                let start = self.ops.len();
                self.cur_pos = s.pos;
                self.next_reg = self.first_temp;
                let t = self.alloc();
                self.expr_at(cond, t);
                let jf = self.emit(Op::JumpIfFalse { cond: t, to: 0 });
                self.loops.push(LoopCtx {
                    is_for: false,
                    start,
                    breaks: Vec::new(),
                });
                self.block(body);
                self.cur_pos = s.pos;
                self.emit(Op::Jump { to: start as u32 });
                let end = self.ops.len();
                self.patch(jf, end);
                let ctx = self.loops.pop().expect("pushed above");
                for at in ctx.breaks {
                    self.patch(at, end);
                }
            }
            Stmt::For { var, iter, body } => {
                let slot = self.local(var);
                let t = self.alloc();
                self.expr_at(iter, t);
                self.emit(Op::ForPrep { iter: t });
                let start = self.ops.len();
                let fnext = self.emit(Op::ForNext {
                    var: slot,
                    end: 0,
                });
                self.loops.push(LoopCtx {
                    is_for: true,
                    start,
                    breaks: Vec::new(),
                });
                self.block(body);
                self.cur_pos = s.pos;
                self.emit(Op::Jump { to: start as u32 });
                let end = self.ops.len();
                self.patch(fnext, end);
                let ctx = self.loops.pop().expect("pushed above");
                for at in ctx.breaks {
                    self.patch(at, end);
                }
            }
            Stmt::Break => match self.loops.last() {
                Some(ctx) => {
                    let drop = if ctx.is_for { 1 } else { 0 };
                    let at = self.emit(Op::ExitLoop { drop, to: 0 });
                    self.loops
                        .last_mut()
                        .expect("checked above")
                        .breaks
                        .push(at);
                }
                None => self.flow_escape("break outside loop"),
            },
            Stmt::Continue => match self.loops.last() {
                Some(ctx) => {
                    let to = ctx.start as u32;
                    self.emit(Op::Jump { to });
                }
                None => self.flow_escape("continue outside loop"),
            },
            Stmt::Return => {
                let drop = self.loops.iter().filter(|c| c.is_for).count() as u16;
                let at = self.emit(Op::ExitLoop { drop, to: 0 });
                self.pending_end.push(at);
            }
            Stmt::FuncDef(f) => {
                let def = self.defs.len() as u16;
                self.defs.push(Rc::new(f.clone()));
                self.emit(Op::DefFunc { def });
            }
        }
    }

    /// `break`/`continue` with no enclosing loop: at top level the
    /// tree-walker raises a span-less error from `run()`; inside a function
    /// body the flow value unwinds to `call_user`, which treats it like
    /// falling off the end.
    fn flow_escape(&mut self, msg: &str) {
        if self.in_function {
            let drop = self.loops.iter().filter(|c| c.is_for).count() as u16;
            let at = self.emit(Op::ExitLoop { drop, to: 0 });
            self.pending_end.push(at);
        } else {
            let m = self.msg(msg);
            self.emit_at(Op::Trap { msg: m }, Pos::NONE);
        }
    }

    fn block(&mut self, stmts: &[Spanned]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn assign_single(&mut self, target: &Target, rhs: &Expr) {
        match target {
            Target::Ident(name) => {
                let slot = self.local(name);
                self.expr_at(rhs, slot);
            }
            Target::Index(name, args) => {
                let slot = self.local(name);
                let name_id = self.name(name);
                let tv = self.alloc();
                self.expr_at(rhs, tv);
                let idx = self.next_reg;
                let mut n = 0u16;
                for a in args {
                    match a {
                        Arg::Pos(e) => {
                            let t = self.alloc();
                            self.expr_at(e, t);
                            n += 1;
                        }
                        Arg::Kw(_, _) => {
                            self.trap("keyword in index");
                            return;
                        }
                    }
                }
                self.emit(Op::IndexAsg {
                    slot,
                    name: name_id,
                    idx,
                    n,
                    src: tv,
                });
            }
            Target::Field(base, field) => {
                let tv = self.alloc();
                self.expr_at(rhs, tv);
                match base.as_ref() {
                    Target::Ident(name) => {
                        let slot = self.local(name);
                        let name_id = self.name(name);
                        let field_id = self.name(field);
                        self.emit(Op::FieldAsg {
                            slot,
                            name: name_id,
                            field: field_id,
                            src: tv,
                        });
                    }
                    _ => self.trap("nested field assignment not supported"),
                }
            }
        }
    }

    fn assign_multi(&mut self, targets: &[Target], rhs: &Expr) {
        let want = targets.len() as u16;
        let dst = self.next_reg;
        // Reserve the destination block, then compile the producer.
        for _ in 0..want {
            self.alloc();
        }
        match rhs {
            Expr::Apply(callee, args) => match callee.as_ref() {
                Expr::Ident(name) => self.apply_ident(name, args, dst, want),
                other => {
                    // Indexing always yields one value; the tree-walker
                    // errors after evaluating it.
                    if !self.index_expr(other, args, dst) {
                        return;
                    }
                    self.trap(format!("expected {want} return values, got 1"));
                    return;
                }
            },
            Expr::MethodCall(base, name, args) => {
                if !self.method_call(base, name, args, dst, want) {
                    return;
                }
            }
            Expr::Ident(name) => {
                let slot = self.slot_of(name).unwrap_or(NO_REG);
                let name_id = self.name(name);
                self.emit(Op::IdentMulti {
                    dst,
                    slot,
                    name: name_id,
                    want,
                });
            }
            other => {
                self.expr_at(other, dst);
                self.trap(format!("expected {want} return values, got 1"));
                return;
            }
        }
        // Assign left to right, like the tree-walker.
        for (i, t) in targets.iter().enumerate() {
            let src = dst + i as Reg;
            match t {
                Target::Ident(name) => {
                    let slot = self.local(name);
                    self.emit(Op::Take { dst: slot, src });
                }
                Target::Index(name, args) => {
                    let slot = self.local(name);
                    let name_id = self.name(name);
                    let idx = self.next_reg;
                    let mut n = 0u16;
                    let mut ok = true;
                    for a in args {
                        match a {
                            Arg::Pos(e) => {
                                let t = self.alloc();
                                self.expr_at(e, t);
                                n += 1;
                            }
                            Arg::Kw(_, _) => {
                                self.trap("keyword in index");
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        return;
                    }
                    self.emit(Op::IndexAsg {
                        slot,
                        name: name_id,
                        idx,
                        n,
                        src,
                    });
                    self.next_reg = idx;
                }
                Target::Field(base, field) => match base.as_ref() {
                    Target::Ident(name) => {
                        let slot = self.local(name);
                        let name_id = self.name(name);
                        let field_id = self.name(field);
                        self.emit(Op::FieldAsg {
                            slot,
                            name: name_id,
                            field: field_id,
                            src,
                        });
                    }
                    _ => {
                        self.trap("nested field assignment not supported");
                        return;
                    }
                },
            }
        }
    }

    // ---- expressions --------------------------------------------------------

    /// Compile `e` so its value lands in `dst`. Sub-expression temporaries
    /// live strictly above `dst` (and above the named-local region) and are
    /// released on return, which keeps sibling operands in contiguous
    /// registers for the call ops.
    fn expr_at(&mut self, e: &Expr, dst: Reg) {
        let floor = (dst + 1).max(self.first_temp).max(self.next_reg);
        self.next_reg = floor;
        self.max_reg = self.max_reg.max(floor);
        self.expr_inner(e, dst);
        self.next_reg = floor;
    }

    fn expr_inner(&mut self, e: &Expr, dst: Reg) {
        match e {
            Expr::Num(v) => {
                let idx = self.konst(CKey::Num(v.to_bits()), || NValue::scalar(*v));
                self.emit(Op::Const { dst, idx });
            }
            Expr::Str(s) => {
                let idx = self.konst(CKey::Str(s.clone()), || NValue::string(s.clone()));
                self.emit(Op::Const { dst, idx });
            }
            Expr::Bool(b) => {
                let idx = self.konst(CKey::Bool(*b), || NValue::boolean(*b));
                self.emit(Op::Const { dst, idx });
            }
            Expr::Ident(name) => match self.slot_of(name) {
                Some(slot) => {
                    self.emit(Op::Copy { dst, src: slot });
                }
                None => {
                    let id = self.name(name);
                    self.emit(Op::LoadDyn { dst, name: id });
                }
            },
            Expr::Matrix(rows) => {
                let base = self.next_reg;
                let mut shape = Vec::with_capacity(rows.len());
                for row in rows {
                    shape.push(row.len() as u16);
                    for entry in row {
                        let t = self.alloc();
                        self.expr_at(entry, t);
                    }
                }
                let sid = self.shapes.len() as u16;
                self.shapes.push(shape);
                self.emit(Op::Matrix {
                    dst,
                    shape: sid,
                    base,
                });
            }
            Expr::Range(lo, step, hi) => {
                let tlo = self.alloc();
                self.expr_at(lo, tlo);
                let thi = self.alloc();
                self.expr_at(hi, thi);
                let tstep = match step {
                    Some(s) => {
                        let t = self.alloc();
                        self.expr_at(s, t);
                        t
                    }
                    None => NO_REG,
                };
                self.emit(Op::Range {
                    dst,
                    lo: tlo,
                    hi: thi,
                    step: tstep,
                });
            }
            Expr::Unary(op, inner) => {
                let t = self.alloc();
                self.expr_at(inner, t);
                self.emit(Op::Un {
                    op: *op,
                    dst,
                    src: t,
                });
            }
            Expr::Binary(op, a, b) => {
                let ta = self.alloc();
                self.expr_at(a, ta);
                let tb = self.alloc();
                self.expr_at(b, tb);
                self.emit(Op::Bin {
                    op: *op,
                    dst,
                    a: ta,
                    b: tb,
                });
            }
            Expr::Apply(callee, args) => match callee.as_ref() {
                Expr::Ident(name) => self.apply_ident(name, args, dst, 1),
                other => {
                    self.index_expr(other, args, dst);
                }
            },
            Expr::Field(base, name) => {
                // A local's field is read in place: no copy of the hash.
                let tb = match base.as_ref() {
                    Expr::Ident(v) if self.slot_of(v).is_some() => {
                        self.slot_of(v).expect("checked")
                    }
                    _ => {
                        let tb = self.alloc();
                        self.expr_at(base, tb);
                        tb
                    }
                };
                let id = self.name(name);
                self.emit(Op::Field {
                    dst,
                    base: tb,
                    name: id,
                });
            }
            Expr::MethodCall(base, name, args) => {
                self.method_call(base, name, args, dst, 1);
            }
            Expr::Transpose(inner) => {
                let t = self.alloc();
                self.expr_at(inner, t);
                self.emit(Op::Transpose { dst, src: t });
            }
        }
    }

    /// Compile arguments (keywords allowed) into contiguous registers in
    /// source order; returns `(base, argc, kw table, lend table)`. With
    /// `lend` set (the callee's own slot, or `NO_REG`), a positional
    /// argument that is a local is lent instead of copied: each local
    /// once, never the callee itself, in the first 64 positions (the VM
    /// tracks lent arguments in a `u64`).
    fn call_args(&mut self, args: &[Arg], lend: Option<Reg>) -> (Reg, u16, u16, u16) {
        let base = self.next_reg;
        let mut kw = Vec::new();
        let mut lent: Vec<(u16, Reg)> = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let t = self.alloc();
            match a {
                Arg::Pos(e) => match (lend, e) {
                    (Some(callee), Expr::Ident(v)) if i < 64 => match self.slot_of(v) {
                        Some(src) if src != callee && lent.iter().all(|&(_, s)| s != src) => {
                            self.emit(Op::Ref { dst: t, src });
                            lent.push((i as u16, src));
                        }
                        _ => self.expr_at(e, t),
                    },
                    _ => self.expr_at(e, t),
                },
                Arg::Kw(name, e) => {
                    let id = self.name(name);
                    kw.push((i as u16, id));
                    self.expr_at(e, t);
                }
            }
        }
        let kwt = push_table(&mut self.kw_tables, kw);
        let lent = push_table(&mut self.lends, lent);
        (base, args.len() as u16, kwt, lent)
    }

    fn apply_ident(&mut self, name: &str, args: &[Arg], dst: Reg, want: u16) {
        let slot = self.slot_of(name).unwrap_or(NO_REG);
        let builtin = builtin_id(name).unwrap_or(NO_TABLE);
        // A lent local is read when the call runs, not when its argument
        // is evaluated: no other argument may rebind a local in between
        // (`add_last`, `exec`), and no keyword argument or keeping builtin
        // may take it.
        let lend = (builtin == NO_TABLE
            || (builtin != BUILTIN_EXEC && !Builtin::from_id(builtin).keeps_args()))
            && args
                .iter()
                .all(|a| matches!(a, Arg::Pos(e) if !may_rebind(e)));
        let (base, argc, kwt, lent) = self.call_args(args, lend.then_some(slot));
        let name_id = self.name(name);
        self.emit(Op::Apply {
            dst,
            name: name_id,
            slot,
            builtin,
            base,
            argc,
            kwt,
            lent,
            want,
        });
    }

    /// Index the value of an arbitrary callee expression. Returns `false`
    /// when a keyword argument forced a trap (stream ends there).
    fn index_expr(&mut self, callee: &Expr, args: &[Arg], dst: Reg) -> bool {
        let tb = self.alloc();
        self.expr_at(callee, tb);
        let idx = self.next_reg;
        let mut n = 0u16;
        for a in args {
            match a {
                Arg::Pos(e) => {
                    let t = self.alloc();
                    self.expr_at(e, t);
                    n += 1;
                }
                Arg::Kw(_, _) => {
                    self.trap("unexpected keyword argument");
                    return false;
                }
            }
        }
        self.emit(Op::Index {
            dst,
            base: tb,
            idx,
            n,
        });
        true
    }

    /// Compile a bracket-method call; returns `false` if lowering trapped.
    fn method_call(
        &mut self,
        base: &Expr,
        name: &str,
        args: &[Arg],
        dst: Reg,
        want: u16,
    ) -> bool {
        // `L.add_last[x]` on a plain variable appends in `L`'s slot: the VM
        // takes the receiver from `wb` after the arguments, so no operand
        // register (and no copy of the list) is made for it here.
        let (tb, wb) = match base {
            Expr::Ident(v) if name == "add_last" => (NO_REG, self.local(v)),
            _ => {
                let tb = self.alloc();
                self.expr_at(base, tb);
                (tb, NO_REG)
            }
        };
        let (abase, argc, kwt, _) = self.call_args(args, None);
        let name_id = self.name(name);
        self.emit(Op::Method {
            dst,
            name: name_id,
            obj: tb,
            base: abase,
            argc,
            kwt,
            want,
            wb,
        });
        true
    }
}

/// Add a non-empty side table; its index, or `NO_TABLE` for none.
fn push_table<T>(tables: &mut Vec<Vec<T>>, t: Vec<T>) -> u16 {
    if t.is_empty() {
        return NO_TABLE;
    }
    tables.push(t);
    tables.len() as u16 - 1
}

// ---- local scan -------------------------------------------------------------

/// Can evaluating `e` bind a local of the running frame? Only a method
/// call (`L.add_last[x]`) or an `exec` can.
fn may_rebind(e: &Expr) -> bool {
    match e {
        Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) => false,
        Expr::Ident(name) => name == "exec",
        Expr::MethodCall(..) => true,
        Expr::Matrix(rows) => rows.iter().flatten().any(may_rebind),
        Expr::Range(lo, step, hi) => {
            may_rebind(lo) || step.as_deref().is_some_and(may_rebind) || may_rebind(hi)
        }
        Expr::Unary(_, inner) | Expr::Transpose(inner) | Expr::Field(inner, _) => may_rebind(inner),
        Expr::Binary(_, a, b) => may_rebind(a) || may_rebind(b),
        Expr::Apply(callee, args) => {
            may_rebind(callee)
                || args.iter().any(|a| match a {
                    Arg::Pos(e) | Arg::Kw(_, e) => may_rebind(e),
                })
        }
    }
}

/// Visit, in source order, every name a block binds: assignment target
/// roots, `for` variables, and `add_last` receivers (updated in their slot
/// by the method-call rule). Nested function bodies compile separately and are
/// skipped.
fn scan_stmts(stmts: &[Spanned], f: &mut impl FnMut(&str)) {
    for s in stmts {
        match &s.kind {
            Stmt::Assign(targets, rhs) => {
                for t in targets {
                    scan_target(t, f);
                }
                scan_expr(rhs, f);
                for t in targets {
                    if let Target::Index(_, args) = t {
                        scan_args(args, f);
                    }
                }
            }
            Stmt::Expr(e) => scan_expr(e, f),
            Stmt::If { arms, else_body } => {
                for (cond, body) in arms {
                    scan_expr(cond, f);
                    scan_stmts(body, f);
                }
                scan_stmts(else_body, f);
            }
            Stmt::While { cond, body } => {
                scan_expr(cond, f);
                scan_stmts(body, f);
            }
            Stmt::For { var, iter, body } => {
                f(var);
                scan_expr(iter, f);
                scan_stmts(body, f);
            }
            Stmt::Break | Stmt::Continue | Stmt::Return | Stmt::FuncDef(_) => {}
        }
    }
}

fn scan_target(t: &Target, f: &mut impl FnMut(&str)) {
    match t {
        Target::Ident(name) | Target::Index(name, _) => f(name),
        Target::Field(base, _) => scan_target(base, f),
    }
}

fn scan_args(args: &[Arg], f: &mut impl FnMut(&str)) {
    for a in args {
        match a {
            Arg::Pos(e) | Arg::Kw(_, e) => scan_expr(e, f),
        }
    }
}

fn scan_expr(e: &Expr, f: &mut impl FnMut(&str)) {
    match e {
        Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Ident(_) => {}
        Expr::Matrix(rows) => {
            for row in rows {
                for entry in row {
                    scan_expr(entry, f);
                }
            }
        }
        Expr::Range(lo, step, hi) => {
            scan_expr(lo, f);
            if let Some(s) = step {
                scan_expr(s, f);
            }
            scan_expr(hi, f);
        }
        Expr::Unary(_, inner) | Expr::Transpose(inner) => scan_expr(inner, f),
        Expr::Binary(_, a, b) => {
            scan_expr(a, f);
            scan_expr(b, f);
        }
        Expr::Apply(callee, args) => {
            scan_expr(callee, f);
            scan_args(args, f);
        }
        Expr::Field(base, _) => scan_expr(base, f),
        Expr::MethodCall(base, name, args) => {
            // `L.add_last[x]` updates `L` in its slot.
            if name == "add_last" {
                if let Expr::Ident(v) = base.as_ref() {
                    f(v);
                }
            }
            scan_expr(base, f);
            scan_args(args, f);
        }
    }
}

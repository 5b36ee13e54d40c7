//! The tree-walking evaluator and builtin/toolbox dispatch.

use crate::ast::{Arg, BinOp, Expr, FuncDef, Spanned, Stmt, Target, UnOp};
use crate::lexer::Pos;
use crate::parser::parse_program;
use crate::toolbox::PremiaObj;
use farm::store::{DirStore, FrameReader, ProblemStore};
use minimpi::{Comm, MpiBuf, Status};
use nspval::{BoolMatrix, Hash, List, Matrix, Serial, StrMatrix, Value, MAX_DEPTH};
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::rc::Rc;

/// Interpreter runtime error.
#[derive(Debug, Clone, PartialEq)]
pub struct NspError {
    /// Human-readable description of the failure.
    pub message: String,
    /// `line:col` of the statement that raised the error, when known.
    /// Both engines attach the innermost executing statement's position.
    span: Option<Pos>,
}

impl NspError {
    /// Build an error from any message (no source span).
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        NspError {
            message: msg.into(),
            span: None,
        }
    }

    /// Attach a source span unless one is already present (the innermost
    /// statement wins, so nested statements keep their own position).
    pub(crate) fn with_span(mut self, pos: Pos) -> Self {
        if self.span.is_none() && pos.is_some() {
            self.span = Some(pos);
        }
        self
    }
}

impl fmt::Display for NspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(p) => write!(f, "nsp error at {}: {}", p, self.message),
            None => write!(f, "nsp error: {}", self.message),
        }
    }
}

impl std::error::Error for NspError {}

impl From<crate::parser::ParseError> for NspError {
    fn from(e: crate::parser::ParseError) -> Self {
        NspError::new(e.to_string())
    }
}

/// Which execution engine [`Interp::run`] uses.
///
/// Both engines share the parser, the value semantics helpers, the builtin
/// and method dispatch, and the RNG state, and are proven bit-identical on
/// the script battery in `tests/nsp_scripts.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original AST tree-walker.
    Tree,
    /// The register bytecode VM (`lower` + `vm` modules): slot-resolved
    /// locals, interned constants, no hash lookups in the dispatch loop.
    #[default]
    Vm,
}

type R<T> = Result<T, NspError>;

fn err<T>(msg: impl Into<String>) -> R<T> {
    Err(NspError::new(msg))
}

/// An interpreter value: plain Nsp data, or a toolbox object.
#[derive(Debug, Clone)]
pub enum NValue {
    /// Any `nspval` value.
    V(Value),
    /// A mutable `PremiaModel` instance (reference semantics, like Nsp
    /// objects).
    Premia(Rc<RefCell<PremiaObj>>),
    /// An MPI receive buffer (`mpibuf_create`).
    Buf(Rc<RefCell<MpiBuf>>),
    /// What `MPI_Probe` and `MPI_Recv` return: source, tag and byte
    /// count, held inline. A script sees the hash `src`/`tag`/`count` it
    /// stands for; it becomes that hash only where a plain value is
    /// needed (serialize, save, a list item, `disp`, a field assignment).
    Status(Status),
}

impl NValue {
    /// A 1×1 real value.
    pub fn scalar(x: f64) -> Self {
        NValue::V(Value::scalar(x))
    }

    /// A 1×1 string value.
    pub(crate) fn string(s: impl Into<String>) -> Self {
        NValue::V(Value::string(s.into()))
    }

    /// A 1×1 boolean value.
    pub(crate) fn boolean(b: bool) -> Self {
        NValue::V(Value::boolean(b))
    }

    /// The scalar content, if this is a 1×1 real value.
    pub(crate) fn as_scalar(&self) -> Option<f64> {
        match self {
            NValue::V(v) => v.as_scalar(),
            _ => None,
        }
    }

    /// The string content, if this is a 1×1 string value.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            NValue::V(v) => v.as_str(),
            _ => None,
        }
    }

    /// Convert to a plain `Value` for serialization / MPI transmission.
    /// Premia objects encode as their `PremiaModel` hash, a status as its
    /// `src`/`tag`/`count` hash.
    pub fn to_value(&self) -> R<Value> {
        match self {
            NValue::V(v) => Ok(v.clone()),
            NValue::Premia(p) => {
                let problem = p.borrow().to_problem().map_err(NspError::new)?;
                Ok(problem.to_value())
            }
            NValue::Buf(_) => err("mpibuf objects cannot be serialized"),
            NValue::Status(st) => Ok(status_hash(st)),
        }
    }

    /// [`NValue::to_value`] for a value the caller owns: plain data moves
    /// out instead of being copied.
    fn into_value(self) -> R<Value> {
        match self {
            NValue::V(v) => Ok(v),
            other => other.to_value(),
        }
    }

    /// Move the value out, leaving `none` behind: how a builtin consumes an
    /// argument it owns.
    pub(crate) fn take(&mut self) -> NValue {
        std::mem::replace(self, NValue::V(Value::None))
    }

    /// Wrap a decoded value: `PremiaModel` hashes come back to life as
    /// Premia objects (this is what makes `P = unserialize(...);
    /// P.compute[]` work on the slave).
    pub fn wrap(v: Value) -> NValue {
        if let Some(h) = v.as_hash() {
            if h.get("class").and_then(|c| c.as_str()) == Some("PremiaModel") {
                if let Ok(problem) = PremiaProblem::from_value(&v) {
                    return NValue::Premia(Rc::new(RefCell::new(PremiaObj::from_problem(problem))));
                }
            }
        }
        NValue::V(v)
    }

    pub(crate) fn truthy(&self) -> R<bool> {
        match self {
            NValue::V(v) => Ok(v.truthy()),
            // A hash is never true.
            NValue::Status(_) => Ok(false),
            _ => err("object is not a condition"),
        }
    }

    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            NValue::V(v) => value_type_name(v),
            NValue::Premia(_) => "PremiaModel",
            NValue::Buf(_) => "mpibuf",
            NValue::Status(_) => "hash",
        }
    }

    /// How `disp` shows the value.
    fn shown(&self) -> String {
        match self {
            NValue::V(v) => format!("{v}"),
            NValue::Status(st) => format!("{}", status_hash(st)),
            other => format!("<{}>", other.type_name()),
        }
    }
}

fn value_type_name(v: &Value) -> &'static str {
    match v {
        Value::Real(_) => "real matrix",
        Value::Bool(_) => "boolean",
        Value::Str(_) => "string",
        Value::List(_) => "list",
        Value::Hash(_) => "hash",
        Value::Serial(_) => "serial",
        Value::None => "none",
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

/// The interpreter: global scope, user functions, optional MPI binding,
/// captured output (`disp`).
pub struct Interp {
    pub(crate) scopes: Vec<HashMap<String, NValue>>,
    pub(crate) funcs: HashMap<String, Rc<FuncDef>>,
    pub(crate) comm: Option<Rc<Comm>>,
    /// Lines printed by `disp`/`print` (inspectable in tests; also echoed
    /// to stdout when `echo` is set).
    pub output: Vec<String>,
    /// Echo `disp` output to stdout as well as capturing it.
    pub echo: bool,
    pub(crate) rng_state: u64,
    engine: Engine,
    /// Binding epoch: moves whenever a name is added to or removed from
    /// `scopes` or `funcs`, so the VM can tell that what it learnt about
    /// a name still holds without hashing it again.
    pub(crate) epoch: u64,
    /// The VM's name table, compiled functions and frame pool.
    pub(crate) vm: crate::vm::VmState,
    /// What `sload` reads through: the farm's directory reader, which
    /// opens each file relative to a held handle on its directory. Taken
    /// at a run's first `sload` and dropped when the run ends, so no
    /// handle outlives the run (the next may start in another working
    /// directory).
    files: Option<Box<dyn FrameReader>>,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh interpreter with no MPI binding, on the default engine
    /// (the VM).
    pub fn new() -> Self {
        Interp {
            scopes: vec![HashMap::new()],
            funcs: HashMap::new(),
            comm: None,
            output: Vec::new(),
            echo: false,
            rng_state: 0x5EED0F55,
            engine: Engine::default(),
            epoch: 0,
            vm: Default::default(),
            files: None,
        }
    }

    /// A fresh interpreter running scripts on the given engine.
    pub fn with_engine(engine: Engine) -> Self {
        let mut i = Interp::new();
        i.engine = engine;
        i
    }

    /// Bind a live MPI communicator: `MPI_Comm_rank` etc. operate on it.
    pub fn with_comm(comm: Rc<Comm>) -> Self {
        let mut i = Interp::new();
        i.comm = Some(comm);
        i
    }

    /// Switch the execution engine for subsequent [`Interp::run`] calls.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Parse and execute a script on the selected engine.
    pub fn run(&mut self, src: &str) -> R<()> {
        let ran = match self.engine {
            Engine::Tree => self.run_tree(src),
            Engine::Vm => crate::vm::run_vm(self, src),
        };
        self.files = None;
        ran
    }

    fn run_tree(&mut self, src: &str) -> R<()> {
        let prog = parse_program(src)?;
        match self.exec_block(&prog)? {
            Flow::Normal | Flow::Return => Ok(()),
            Flow::Break => err("break outside loop"),
            Flow::Continue => err("continue outside loop"),
        }
    }

    /// Look up a variable (any scope, innermost first).
    pub fn get(&self, name: &str) -> Option<&NValue> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Convenience for tests: variable as plain `Value`.
    pub fn get_value(&self, name: &str) -> Option<Value> {
        self.get(name).and_then(|v| v.to_value().ok())
    }

    /// Borrow-based fast path: variable as a scalar, without cloning the
    /// whole `NValue` the way [`Interp::get_value`] does.
    pub fn get_scalar(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|v| v.as_scalar())
    }

    /// Borrow-based fast path: variable as a 1×1 boolean.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        match self.get(name)? {
            NValue::V(v) => v.as_bool(),
            _ => None,
        }
    }

    /// Iterate the global bindings (name, value), in insertion order of the
    /// underlying map (unspecified). Used by the engine-equivalence battery.
    pub fn globals(&self) -> impl Iterator<Item = (&str, &NValue)> {
        self.scopes[0].iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The current RNG state (used to assert identical draw sequences
    /// across engines).
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// Bind `name` in the current scope.
    pub fn set(&mut self, name: &str, v: NValue) {
        self.bind(name.to_string(), v);
    }

    /// Bind `name` in the current scope; a new name moves the epoch.
    pub(crate) fn bind(&mut self, name: String, v: NValue) {
        let scope = self.scopes.last_mut().expect("at least the global scope");
        if scope.insert(name, v).is_none() {
            self.epoch += 1;
        }
    }

    /// Define (or redefine) a user function.
    pub(crate) fn define(&mut self, f: Rc<FuncDef>) {
        self.funcs.insert(f.name.clone(), f);
        self.epoch += 1;
    }

    pub(crate) fn comm(&self) -> R<&Comm> {
        match &self.comm {
            Some(c) => Ok(c),
            None => err("no MPI communicator bound to this interpreter"),
        }
    }

    pub(crate) fn rand(&mut self) -> f64 {
        // SplitMix64, interpreter-local.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    // ---- statements ---------------------------------------------------------

    fn exec_block(&mut self, stmts: &[Spanned]) -> R<Flow> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Spanned) -> R<Flow> {
        self.exec_stmt_kind(&stmt.kind)
            .map_err(|e| e.with_span(stmt.pos))
    }

    fn exec_stmt_kind(&mut self, stmt: &Stmt) -> R<Flow> {
        match stmt {
            Stmt::Expr(e) => {
                // `want = 0`: nobody reads the value, so `L.add_last[x]`
                // does not have to produce a copy of `L`.
                self.eval_multi(e, 0)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign(targets, rhs) => {
                if targets.len() == 1 {
                    let v = self.eval(rhs)?;
                    self.assign(&targets[0], v)?;
                } else {
                    // Multi-assignment needs a multi-valued call.
                    let vals = self.eval_multi(rhs, targets.len())?;
                    if vals.len() < targets.len() {
                        return err(format!(
                            "expected {} return values, got {}",
                            targets.len(),
                            vals.len()
                        ));
                    }
                    for (t, v) in targets.iter().zip(vals) {
                        self.assign(t, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { arms, else_body } => {
                for (cond, body) in arms {
                    if self.eval(cond)?.truthy()? {
                        return self.exec_block(body);
                    }
                }
                self.exec_block(else_body)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy()? {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body } => {
                let items = self.for_items(iter)?;
                for item in items {
                    self.set(var, item);
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Return => Ok(Flow::Return),
            Stmt::FuncDef(f) => {
                self.define(Rc::new(f.clone()));
                Ok(Flow::Normal)
            }
        }
    }

    fn for_items(&mut self, iter: &Expr) -> R<Vec<NValue>> {
        let v = self.eval(iter)?;
        for_items_of(v)
    }

    fn assign(&mut self, target: &Target, v: NValue) -> R<()> {
        match target {
            Target::Ident(name) => {
                // Assignments always bind in the current scope: function
                // bodies cannot mutate globals (Nsp/Matlab semantics) —
                // they can only read them.
                self.set(name, v);
                Ok(())
            }
            Target::Index(name, args) => {
                let idx_vals: Vec<NValue> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Pos(e) => self.eval(e),
                        Arg::Kw(_, _) => err("keyword in index"),
                    })
                    .collect::<R<Vec<_>>>()?;
                self.update_var(
                    name,
                    |me| {
                        me.get(name)
                            .cloned()
                            .ok_or_else(|| NspError::new(format!("undefined variable {name}")))
                    },
                    |current| index_assign_value(current, &idx_vals, v),
                )
            }
            Target::Field(base, field) => match base.as_ref() {
                Target::Ident(name) => self.update_var(
                    name,
                    // auto-create, like Nsp's H.A = ...
                    |me| {
                        Ok(me
                            .get(name)
                            .cloned()
                            .unwrap_or(NValue::V(Value::Hash(Hash::new()))))
                    },
                    |hash| field_assign_value(hash, field, v),
                ),
                _ => err("nested field assignment not supported"),
            },
        }
    }

    /// Apply the in-place update `f` to the variable `name`. A binding in
    /// the current scope is mutated where it lives — no copy, and untouched
    /// when `f` fails. A name that resolves only further out (or not at
    /// all) goes through `outer`, whose copy is bound locally once `f`
    /// succeeds: assignments never reach a caller's bindings.
    fn update_var<T>(
        &mut self,
        name: &str,
        outer: impl FnOnce(&mut Self) -> R<NValue>,
        f: impl FnOnce(&mut NValue) -> R<T>,
    ) -> R<T> {
        let scope = self.scopes.last_mut().expect("at least the global scope");
        if let Some(v) = scope.get_mut(name) {
            return f(v);
        }
        let mut v = outer(self)?;
        let out = f(&mut v)?;
        self.set(name, v);
        Ok(out)
    }

    // ---- expressions ---------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> R<NValue> {
        Ok(self.eval_multi(e, 1)?.remove(0))
    }

    /// Evaluate an expression that may produce multiple values (function
    /// calls with several outputs).
    fn eval_multi(&mut self, e: &Expr, want: usize) -> R<Vec<NValue>> {
        match e {
            Expr::Num(v) => Ok(vec![NValue::scalar(*v)]),
            Expr::Str(s) => Ok(vec![NValue::string(s.clone())]),
            Expr::Bool(b) => Ok(vec![NValue::boolean(*b)]),
            Expr::Ident(name) => {
                if let Some(v) = self.get(name) {
                    Ok(vec![v.clone()])
                } else if self.funcs.contains_key(name) || builtin_id(name).is_some() {
                    // Zero-argument call: `premia_create` style is written
                    // with parens in practice, but allow bare too.
                    self.call(name, Vec::new(), Vec::new(), want)
                } else {
                    err(format!("undefined variable {name}"))
                }
            }
            Expr::Matrix(rows) => Ok(vec![self.eval_matrix(rows)?]),
            Expr::Range(lo, step, hi) => {
                // Evaluation order is lo, hi, then step (matching the VM's
                // operand order); scalar checks happen after evaluation.
                let vlo = self.eval(lo)?;
                let vhi = self.eval(hi)?;
                let vstep = match step {
                    Some(s) => Some(self.eval(s)?),
                    None => None,
                };
                Ok(vec![range_value(&vlo, &vhi, vstep.as_ref())?])
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                Ok(vec![unary_value(*op, &v)?])
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                Ok(vec![binary_value(*op, &va, &vb)?])
            }
            Expr::Apply(callee, args) => match callee.as_ref() {
                Expr::Ident(name) => {
                    if self.get(name).is_some() {
                        // Indexing a variable.
                        let mut idx = self.eval_pos_args(args)?;
                        let base = self.get(name).expect("checked");
                        Ok(vec![index_value(base, &mut idx)?])
                    } else {
                        let (pos, kw) = self.eval_args(args)?;
                        self.call(name, pos, kw, want)
                    }
                }
                other => {
                    // Index the result of an arbitrary expression:
                    // L(1)(3) etc.
                    let base = self.eval(other)?;
                    let mut idx = self.eval_pos_args(args)?;
                    Ok(vec![index_value(&base, &mut idx)?])
                }
            },
            Expr::Field(base, name) => {
                let b = self.eval(base)?;
                Ok(vec![field_value(&b, name)?])
            }
            Expr::MethodCall(base, name, args) => {
                // `L.add_last[x]` on a plain variable appends in place.
                // The arguments come first: they may read `L` itself.
                if let ("add_last", Expr::Ident(var)) = (name.as_str(), base.as_ref()) {
                    let (mut pos, _kw) = self.eval_args(args)?;
                    return self
                        .update_var(
                            var,
                            |me| me.eval(base),
                            |list| add_last_value(list, &mut pos, want),
                        )
                        .map(Ret::into_vec);
                }
                let b = self.eval(base)?;
                let (mut pos, kw) = self.eval_args(args)?;
                self.method(b, name, &mut pos, kw).map(Ret::into_vec)
            }
            Expr::Transpose(inner) => {
                let v = self.eval(inner)?;
                Ok(vec![transpose_value(v)?])
            }
        }
    }

    fn eval_matrix(&mut self, rows: &[Vec<Expr>]) -> R<NValue> {
        // Evaluate all entries first (row-major order, same as the VM's
        // operand evaluation), then classify/assemble in the shared helper.
        let mut vals: Vec<Vec<NValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut rv = Vec::with_capacity(row.len());
            for e in row {
                rv.push(self.eval(e)?);
            }
            vals.push(rv);
        }
        build_matrix(&vals)
    }

    fn eval_pos_args(&mut self, args: &[Arg]) -> R<Vec<NValue>> {
        args.iter()
            .map(|a| match a {
                Arg::Pos(e) => self.eval(e),
                Arg::Kw(_, _) => err("unexpected keyword argument"),
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn eval_args(&mut self, args: &[Arg]) -> R<(Vec<NValue>, Vec<(String, NValue)>)> {
        let mut pos = Vec::new();
        let mut kw = Vec::new();
        for a in args {
            match a {
                Arg::Pos(e) => pos.push(self.eval(e)?),
                Arg::Kw(name, e) => kw.push((name.clone(), self.eval(e)?)),
            }
        }
        Ok((pos, kw))
    }

    // ---- calls ---------------------------------------------------------------

    fn call(
        &mut self,
        name: &str,
        mut pos: Vec<NValue>,
        kw: Vec<(String, NValue)>,
        want: usize,
    ) -> R<Vec<NValue>> {
        if let Some(f) = self.funcs.get(name).cloned() {
            return self.call_user(&f, pos, want);
        }
        match builtin_id(name) {
            Some(id) => Ok(self
                .call_builtin(Builtin::from_id(id), &mut pos, kw)?
                .into_vec()),
            None => err(format!("unknown function {name}")),
        }
    }

    pub(crate) fn call_user(
        &mut self,
        f: &FuncDef,
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
        let mut scope = HashMap::new();
        for (p, a) in f.params.iter().zip(args) {
            scope.insert(p.clone(), a);
        }
        self.scopes.push(scope);
        self.epoch += 1;
        let flow = self.exec_block(&f.body);
        let scope = self.scopes.pop().expect("pushed above");
        self.epoch += 1;
        flow?;
        let mut outs = Vec::new();
        for o in f.outs.iter().take(want.max(1).min(f.outs.len().max(1))) {
            match scope.get(o) {
                Some(v) => outs.push(v.clone()),
                None => return err(format!("function {} did not set output {o}", f.name)),
            }
        }
        if outs.is_empty() {
            outs.push(NValue::V(Value::None));
        }
        Ok(outs)
    }

    /// Run builtin `b` on its positional arguments, read in place (`pos`
    /// may be the VM's registers or the tree-walker's evaluated values),
    /// and its keyword arguments.
    pub(crate) fn call_builtin<A: CallArg>(
        &mut self,
        b: Builtin,
        pos: &mut [A],
        kw: Vec<(String, NValue)>,
    ) -> R<Ret> {
        use Builtin as B;
        let name = b.name();
        let none = || Ok(Ret::One(NValue::V(Value::None)));
        let mpi_err = |e: minimpi::MpiError| NspError::new(e.to_string());
        let xdr_err = |e: xdrser::XdrError| NspError::new(e.to_string());
        match b {
            // ---- core -------------------------------------------------------
            B::List => {
                let items = pos.iter_mut().map(|v| item(v.take_value()));
                Ok(Ret::One(NValue::V(Value::list(items.collect::<R<_>>()?))))
            }
            B::HashCreate => {
                let entries = kw.into_iter().map(|(k, v)| Ok((k, item(v)?)));
                Ok(Ret::One(NValue::V(Value::Hash(entries.collect::<R<_>>()?))))
            }
            B::Rand => {
                let (r, c) = match &*pos {
                    [] => (1, 1),
                    [n] => {
                        let n = need_scalar(n, "rand size")? as usize;
                        (n, n)
                    }
                    [r, c, ..] => (
                        need_scalar(r, "rand rows")? as usize,
                        need_scalar(c, "rand cols")? as usize,
                    ),
                };
                let data: Vec<f64> = (0..r * c).map(|_| self.rand()).collect();
                Ok(Ret::One(NValue::V(Value::Real(Matrix::from_col_major(
                    r, c, data,
                )))))
            }
            B::Reseed => {
                let [seed] = args(name, pos)?;
                self.reseed(need_scalar(seed, "reseed seed")? as u64);
                none()
            }
            B::Size => {
                let star = pos.get(1).and_then(|a| a.text()) == Some("*");
                let [v] = args(name, pos)?;
                match v.value() {
                    NValue::V(Value::List(l)) => Ok(Ret::Num(l.len() as f64)),
                    NValue::V(Value::Real(m)) => Ok(if star {
                        Ret::Num(m.len() as f64)
                    } else {
                        Ret::Many(vec![
                            NValue::scalar(m.rows() as f64),
                            NValue::scalar(m.cols() as f64),
                        ])
                    }),
                    NValue::V(Value::Str(s)) => Ok(Ret::Num((s.rows() * s.cols()) as f64)),
                    other => err(format!("size of {}", other.type_name())),
                }
            }
            B::Length => {
                let [v] = args(name, pos)?;
                match v.value() {
                    NValue::V(Value::List(l)) => Ok(Ret::Num(l.len() as f64)),
                    NValue::V(Value::Real(m)) => Ok(Ret::Num(m.len() as f64)),
                    NValue::V(Value::Str(s)) => Ok(Ret::Num(
                        s.as_scalar().map(|x| x.chars().count()).unwrap_or(0) as f64,
                    )),
                    other => err(format!("length of {}", other.type_name())),
                }
            }
            B::Floor | B::Ceil | B::Abs | B::Sqrt | B::Exp | B::Log => {
                let [x] = args(name, pos)?;
                let x = need_scalar(x, name)?;
                Ok(Ret::Num(match b {
                    B::Floor => x.floor(),
                    B::Ceil => x.ceil(),
                    B::Abs => x.abs(),
                    B::Sqrt => x.sqrt(),
                    B::Exp => x.exp(),
                    _ => x.ln(),
                }))
            }
            B::Min | B::Max => {
                let [a, c] = args(name, pos)?;
                let a = need_scalar(a, name)?;
                let c = need_scalar(c, name)?;
                Ok(Ret::Num(if b == B::Min { a.min(c) } else { a.max(c) }))
            }
            B::String => {
                let [v] = args(name, pos)?;
                let s = match v.num() {
                    Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => (x as i64).to_string(),
                    Some(x) => format!("{x}"),
                    None => match v.value() {
                        NValue::V(Value::Str(s)) => {
                            s.as_scalar().map(|x| x.to_string()).unwrap_or_default()
                        }
                        other => format!("<{}>", other.type_name()),
                    },
                };
                Ok(Ret::One(NValue::string(s)))
            }
            B::Disp | B::Print => {
                let text = pos
                    .iter_mut()
                    .map(|v| v.value().shown())
                    .collect::<Vec<_>>()
                    .join(" ");
                if self.echo {
                    println!("{text}");
                }
                self.output.push(text);
                none()
            }
            B::Exec => {
                // Fig. 1: exec('src/loader.sce') — run a script file in
                // the current interpreter.
                let src = read_exec_source(pos)?;
                self.run(&src)?;
                none()
            }
            B::Getenv => {
                let [var] = args(name, pos)?;
                let var = need_str(var, "getenv variable")?;
                Ok(Ret::One(NValue::string(
                    std::env::var(var).unwrap_or_default(),
                )))
            }
            B::Error => {
                let msg = pos.first().and_then(|v| v.text()).unwrap_or("error");
                err(msg)
            }
            B::Isempty => {
                let [v] = args(name, pos)?;
                let empty = match v.value() {
                    NValue::V(Value::Real(m)) => m.is_empty(),
                    NValue::V(Value::List(l)) => l.is_empty(),
                    NValue::V(Value::Str(s)) => s.as_scalar() == Some(""),
                    _ => false,
                };
                Ok(Ret::Bool(empty))
            }
            // ---- serialization toolbox (§3.2 / Fig. 2) ----------------------
            B::Serialize => {
                let [v] = args(name, pos)?;
                let s = xdrser::serialize(&*plain(v)?);
                Ok(Ret::One(NValue::V(Value::Serial(s))))
            }
            B::Unserialize => {
                let [v] = args(name, pos)?;
                match v.value() {
                    NValue::V(Value::Serial(s)) => Ok(Ret::One(unserialize_value(s)?)),
                    other => err(format!("unserialize of {}", other.type_name())),
                }
            }
            B::Save => {
                let [path, v] = args(name, pos)?;
                let path = need_str(path, "save path")?;
                xdrser::save(path, &*plain(v)?).map_err(xdr_err)?;
                none()
            }
            B::Load => {
                let [path] = args(name, pos)?;
                let v = xdrser::load(need_str(path, "load path")?).map_err(xdr_err)?;
                Ok(Ret::One(NValue::wrap(v)))
            }
            B::Sload => {
                let [path] = args(name, pos)?;
                let path = Path::new(need_str(path, "sload path")?);
                // The farm master's read: the same bytes and errors as
                // `xdrser::sload`, without walking the whole path per file.
                let files = self.files.get_or_insert_with(|| DirStore.reader());
                let mut bytes = Vec::new();
                files.fetch_into(path, &mut bytes).map_err(xdr_err)?;
                Ok(Ret::One(NValue::V(Value::Serial(Serial::new(bytes)))))
            }
            // ---- Premia toolbox (§3.3) ---------------------------------------
            B::PremiaCreate => Ok(Ret::One(NValue::Premia(Rc::new(RefCell::new(
                PremiaObj::new(),
            ))))),
            // ---- MPI toolbox (§3.2) -------------------------------------------
            B::MpiInit => Ok(Ret::Bool(true)),
            B::MpiInitialized => Ok(Ret::Bool(self.comm.is_some())),
            B::MpicommCreate => {
                let which = pos.first().and_then(|v| v.text()).unwrap_or("WORLD");
                Ok(Ret::One(NValue::string(format!("COMM:{which}"))))
            }
            B::MpiinfoCreate => Ok(Ret::One(NValue::string("INFO:NULL"))),
            B::MpiCommRank => Ok(Ret::Num(self.comm()?.rank() as f64)),
            B::MpiCommSize => Ok(Ret::Num(self.comm()?.size() as f64)),
            B::MpiSendObj => {
                let [v, dest, tag] = args(name, pos)?;
                let v = plain(v)?;
                let dest = need_int(dest, "destination")?;
                let tag = need_int(tag, "tag")?;
                self.comm()?.send_obj(&v, dest, tag).map_err(mpi_err)?;
                none()
            }
            B::MpiRecvObj => {
                let [src, tag] = args(name, pos)?;
                let src = need_int(src, "source")?;
                let tag = need_int(tag, "tag")?;
                let (v, _st) = self.comm()?.recv_obj(src, tag).map_err(mpi_err)?;
                Ok(Ret::One(NValue::wrap(v)))
            }
            B::MpiProbe => {
                let [src, tag] = args(name, pos)?;
                let src = need_int(src, "source")?;
                let tag = need_int(tag, "tag")?;
                let st = self.comm()?.probe(src, tag).map_err(mpi_err)?;
                Ok(Ret::One(NValue::Status(st)))
            }
            B::MpiGetCount | B::MpiGetElements => {
                let [stat] = args(name, pos)?;
                match stat.value() {
                    NValue::Status(st) => Ok(Ret::Num(st.count() as f64)),
                    NValue::V(Value::Hash(h)) => {
                        let count = h
                            .get("count")
                            .and_then(|v| v.as_scalar())
                            .ok_or_else(|| NspError::new("bad status object"))?;
                        Ok(Ret::Num(count))
                    }
                    other => err(format!("bad status: {}", other.type_name())),
                }
            }
            B::MpibufCreate => {
                let [n] = args(name, pos)?;
                let n = need_scalar(n, "buffer size")?;
                // The size is a limit the receive checks, not an
                // allocation; it still has to be a byte count.
                if !(n >= 0.0 && n.fract() == 0.0) {
                    return err(format!(
                        "buffer size must be a non-negative integer, got {n}"
                    ));
                }
                let buf = MpiBuf::with_capacity(n as usize);
                Ok(Ret::One(NValue::Buf(Rc::new(RefCell::new(buf)))))
            }
            B::MpiRecv => {
                let [buf, src, tag] = args(name, pos)?;
                let NValue::Buf(buf) = buf.value() else {
                    return err("MPI_Recv needs an mpibuf");
                };
                let src = need_int(src, "source")?;
                let tag = need_int(tag, "tag")?;
                let st = self
                    .comm()?
                    .recv_into(&mut buf.borrow_mut(), src, tag)
                    .map_err(mpi_err)?;
                Ok(Ret::One(NValue::Status(st)))
            }
            B::MpiUnpack => {
                let [buf] = args(name, pos)?;
                let NValue::Buf(buf) = buf.value() else {
                    return err("MPI_Unpack needs an mpibuf");
                };
                let v = self.comm()?.unpack(&buf.borrow()).map_err(mpi_err)?;
                // Keep the raw value (a Serial stays a Serial), matching
                // the Fig. 4 slave that unserializes explicitly.
                Ok(Ret::One(NValue::V(v)))
            }
            B::MpiPack => {
                let [v] = args(name, pos)?;
                let buf = self.comm()?.pack(&*plain(v)?);
                Ok(Ret::One(NValue::Buf(Rc::new(RefCell::new(buf)))))
            }
            B::MpiSend => {
                let [buf, dest, tag] = args(name, pos)?;
                if !matches!(buf.value(), NValue::Buf(_)) {
                    return err("MPI_Send needs an mpibuf (use MPI_Pack first)");
                }
                let dest = need_int(dest, "destination")?;
                let tag = need_int(tag, "tag")?;
                // A buffer nothing else holds is sent as it is; one a
                // variable still holds is copied.
                let NValue::Buf(buf) = buf.take_value() else {
                    unreachable!("checked above")
                };
                let bytes = match Rc::try_unwrap(buf) {
                    Ok(only) => only.into_inner().into_bytes(),
                    Err(shared) => shared.borrow().bytes().to_vec(),
                };
                self.comm()?.send(bytes, dest, tag).map_err(mpi_err)?;
                none()
            }
            B::MpiBarrier => {
                self.comm()?.barrier();
                none()
            }
            B::MpiWtime => Ok(Ret::Num(self.comm()?.wtime())),
        }
    }

    // ---- methods ---------------------------------------------------------------

    pub(crate) fn method(
        &mut self,
        base: NValue,
        name: &str,
        pos: &mut [NValue],
        kw: Vec<(String, NValue)>,
    ) -> R<Ret> {
        let one = |v: NValue| Ok(Ret::One(v));
        match (&base, name) {
            // ---- Premia object (§3.3) -------------------------------------
            (NValue::Premia(p), "set_asset") => {
                p.borrow_mut().asset = Some(kw_str(&kw, pos)?);
                one(base)
            }
            (NValue::Premia(p), "set_model") => {
                let s = kw_str(&kw, pos)?;
                p.borrow_mut().model =
                    Some(ModelSpec::by_name(&s).map_err(|e| NspError::new(e.to_string()))?);
                one(base)
            }
            (NValue::Premia(p), "set_option") => {
                let s = kw_str(&kw, pos)?;
                p.borrow_mut().option =
                    Some(OptionSpec::by_name(&s).map_err(|e| NspError::new(e.to_string()))?);
                one(base)
            }
            (NValue::Premia(p), "set_method") => {
                let s = kw_str(&kw, pos)?;
                let spec = MethodSpec::by_name(&s).map_err(|e| NspError::new(e.to_string()))?;
                p.borrow_mut().method = Some(tune_method(spec, &kw)?);
                one(base)
            }
            (NValue::Premia(p), "compute") => {
                p.borrow_mut().compute().map_err(NspError::new)?;
                one(base)
            }
            (NValue::Premia(p), "get_method_results") => {
                let b = p.borrow();
                let r = b
                    .result
                    .as_ref()
                    .ok_or_else(|| NspError::new("compute[] has not been called"))?;
                // The paper reads L(1)(3) as the price: outer list of
                // result groups, inner list (name, aux, value).
                let inner = Value::list(vec![
                    Value::string("Price"),
                    Value::scalar(r.std_error.unwrap_or(0.0)),
                    Value::scalar(r.price),
                ]);
                one(NValue::V(Value::list(vec![inner])))
            }
            // ---- generic value methods -------------------------------------
            // A receiver that is not a plain variable (`f().add_last[x]`):
            // nothing to write back to, the grown list is the result.
            (_, "add_last") => {
                let mut list = base;
                add_last_value(&mut list, pos, 0)?;
                one(list)
            }
            (NValue::V(_) | NValue::Premia(_) | NValue::Status(_), "equal") => {
                let other = pos
                    .first()
                    .ok_or_else(|| NspError::new("equal needs a value"))?;
                Ok(Ret::Bool(base.to_value()?.equal(&other.to_value()?)))
            }
            (NValue::V(Value::Serial(s)), "unserialize") => one(unserialize_value(s)?),
            (NValue::V(Value::Serial(s)), "compress") => {
                let c = xdrser::compress_serial(s).map_err(|e| NspError::new(e.to_string()))?;
                one(NValue::V(Value::Serial(c)))
            }
            (NValue::V(Value::Serial(s)), "uncompress") => {
                let c = xdrser::decompress_serial(s).map_err(|e| NspError::new(e.to_string()))?;
                one(NValue::V(Value::Serial(c)))
            }
            (b, m) => err(format!("{} has no method {m}", b.type_name())),
        }
    }
}

// ---- shared value semantics ------------------------------------------------
//
// These free functions are the single implementation of the language's value
// operations. Both engines (tree-walker and bytecode VM) call them, which is
// what makes results AND error messages bit-identical by construction.

/// Unary operator application.
pub(crate) fn unary_value(op: UnOp, v: &NValue) -> R<NValue> {
    match (op, v) {
        (UnOp::Neg, NValue::V(Value::Real(m))) => {
            let data = m.data().iter().map(|x| -x).collect();
            Ok(NValue::V(Value::Real(Matrix::from_col_major(
                m.rows(),
                m.cols(),
                data,
            ))))
        }
        (UnOp::Not, NValue::V(Value::Bool(b))) => {
            let data = b.data().iter().map(|x| !x).collect();
            Ok(NValue::V(Value::Bool(BoolMatrix::from_col_major(
                b.rows(),
                b.cols(),
                data,
            ))))
        }
        (op, v) => err(format!("cannot apply {op:?} to {}", v.type_name())),
    }
}

/// Binary operator application. `&&`/`||` are *eager*: both operands are
/// already evaluated by the time this runs, in both engines.
pub(crate) fn binary_value(op: BinOp, a: &NValue, b: &NValue) -> R<NValue> {
    use BinOp::*;
    // String concatenation and comparison.
    if let (Some(x), Some(y)) = (a.as_str(), b.as_str()) {
        return match op {
            Add => Ok(NValue::string([x, y].concat())),
            Eq => Ok(NValue::boolean(x == y)),
            Ne => Ok(NValue::boolean(x != y)),
            _ => err(format!("cannot apply {op:?} to strings")),
        };
    }
    // Boolean logic.
    if let (NValue::V(Value::Bool(x)), NValue::V(Value::Bool(y))) = (a, b) {
        if matches!(op, And | Or | Eq | Ne) {
            let xa = x.all();
            let ya = y.all();
            return Ok(NValue::boolean(match op {
                And => xa && ya,
                Or => xa || ya,
                Eq => xa == ya,
                Ne => xa != ya,
                _ => unreachable!(),
            }));
        }
    }
    // Numeric (scalar/matrix, elementwise with scalar broadcast).
    if let (NValue::V(Value::Real(ma)), NValue::V(Value::Real(mb))) = (a, b) {
        return numeric_binop(op, ma, mb);
    }
    // Equality of anything else.
    if matches!(op, Eq | Ne) {
        let va = a.to_value()?;
        let vb = b.to_value()?;
        let equal = va.equal(&vb);
        return Ok(NValue::boolean(if op == Eq { equal } else { !equal }));
    }
    err(format!(
        "cannot apply {op:?} to {} and {}",
        a.type_name(),
        b.type_name()
    ))
}

/// Postfix transpose.
pub(crate) fn transpose_value(v: NValue) -> R<NValue> {
    match v {
        NValue::V(Value::Real(m)) => {
            let mut t = Matrix::zeros(m.cols(), m.rows());
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    t.set(c, r, m.get(r, c));
                }
            }
            Ok(NValue::V(Value::Real(t)))
        }
        // Transposing a list is the identity — Fig. 4 iterates
        // `Lpb(1:k)'`.
        list @ NValue::V(Value::List(_)) => Ok(list),
        other => err(format!("cannot transpose {}", other.type_name())),
    }
}

/// `base(idx...)` read indexing (lists, matrices, hashes).
pub(crate) fn index_value<A: CallArg>(base: &NValue, idx: &mut [A]) -> R<NValue> {
    match base {
        NValue::V(v) => index_plain(v, idx),
        NValue::Status(st) => index_plain(&status_hash(st), idx),
        other => err(format!("cannot index {}", other.type_name())),
    }
}

/// The item `L(i)` reads, borrowed: `Some` when `base` is a list and
/// `idx` one scalar, `None` for any other indexing.
pub(crate) fn list_item<'a, A: CallArg>(base: &'a Value, idx: &[A]) -> Option<R<&'a Value>> {
    let Value::List(l) = base else { return None };
    let [i] = idx else { return None };
    let i = i.num()? as usize;
    if i < 1 || i > l.len() {
        return Some(err(format!("list index {i} out of bounds ({})", l.len())));
    }
    Some(Ok(l.get(i - 1).expect("bounds checked")))
}

/// [`index_value`] of plain data.
pub(crate) fn index_plain<A: CallArg>(base: &Value, idx: &mut [A]) -> R<NValue> {
    if let Some(item) = list_item(base, idx) {
        return item.map(|v| NValue::wrap(v.clone()));
    }
    match base {
        Value::List(l) => {
            if idx.len() != 1 {
                return err("lists take one index");
            }
            match idx[0].value() {
                NValue::V(Value::Real(m)) => {
                    // Sublist selection: L(1:k).
                    let mut out = List::new();
                    for &x in m.data() {
                        let i = x as usize;
                        if i < 1 || i > l.len() {
                            return err(format!("list index {i} out of bounds"));
                        }
                        out.add_last(l.get(i - 1).expect("bounds checked").clone());
                    }
                    Ok(NValue::V(Value::List(out)))
                }
                other => err(format!("bad list index: {}", other.type_name())),
            }
        }
        Value::Real(m) => match idx.len() {
            1 if idx[0].num().is_some() => {
                let i = idx[0].num().expect("checked") as usize;
                if i < 1 || i > m.len() {
                    return err(format!("index {i} out of bounds"));
                }
                Ok(NValue::scalar(m.get_linear(i - 1)))
            }
            1 => match idx[0].value() {
                NValue::V(Value::Real(im)) => {
                    let mut data = Vec::with_capacity(im.len());
                    for &x in im.data() {
                        let i = x as usize;
                        if i < 1 || i > m.len() {
                            return err(format!("index {i} out of bounds"));
                        }
                        data.push(m.get_linear(i - 1));
                    }
                    Ok(NValue::V(Value::Real(Matrix::row(data))))
                }
                other => err(format!("bad matrix index: {}", other.type_name())),
            },
            2 => {
                let r = idx[0]
                    .num()
                    .ok_or_else(|| NspError::new("row index must be scalar"))?
                    as usize;
                let c = idx[1]
                    .num()
                    .ok_or_else(|| NspError::new("col index must be scalar"))?
                    as usize;
                if r < 1 || c < 1 || r > m.rows() || c > m.cols() {
                    return err("matrix index out of bounds");
                }
                Ok(NValue::scalar(m.get(r - 1, c - 1)))
            }
            _ => err("matrices take 1 or 2 indices"),
        },
        Value::Hash(h) => {
            if idx.len() == 1 {
                if let Some(key) = idx[0].text() {
                    return match h.get(key) {
                        Some(v) => Ok(NValue::wrap(v.clone())),
                        None => err(format!("hash has no key {key}")),
                    };
                }
            }
            err("hash indices are strings")
        }
        other => err(format!("cannot index {}", value_type_name(other))),
    }
}

/// `v` as an item of a list or hash, for the five places a script puts
/// one value in another (`list`, `hash_create`, `L(i) = v`, `H.f = v`,
/// `add_last`): refused before the container is touched when it would
/// then nest deeper than [`MAX_DEPTH`], the bound the reader keeps too.
fn item(v: NValue) -> R<Value> {
    let v = v.into_value()?;
    if 1 + v.depth() > MAX_DEPTH {
        return err(format!("value nested deeper than {MAX_DEPTH}"));
    }
    Ok(v)
}

/// `base(idx...) = v` write indexing, in place. `current` is left untouched
/// when the assignment fails.
pub(crate) fn index_assign_value(current: &mut NValue, idx: &[NValue], v: NValue) -> R<()> {
    match current {
        NValue::V(Value::List(l)) => {
            if idx.len() != 1 {
                return err("lists take one index");
            }
            // Range deletion: Lpb(1:k) = []
            if let NValue::V(Value::Real(m)) = &idx[0] {
                if m.len() > 1 {
                    if !matches!(&v, NValue::V(val) if val.is_empty_matrix()) {
                        return err("list range assignment only supports deletion with []");
                    }
                    let mut positions: Vec<usize> = m
                        .data()
                        .iter()
                        .map(|&x| x as usize)
                        .filter(|p| (1..=l.len()).contains(p))
                        .collect();
                    positions.sort_unstable();
                    positions.dedup();
                    match (positions.first(), positions.last()) {
                        // One contiguous run (the Fig. 4 `Lpb(1:sent) = []`).
                        (Some(&lo), Some(&hi)) if hi - lo + 1 == positions.len() => {
                            l.remove_range(lo - 1, positions.len())
                        }
                        _ => {
                            for p in positions.into_iter().rev() {
                                l.remove_range(p - 1, 1);
                            }
                        }
                    }
                    return Ok(());
                }
            }
            let i = idx[0]
                .as_scalar()
                .ok_or_else(|| NspError::new("list index must be a scalar"))?
                as usize;
            if i < 1 {
                return err("list indices are 1-based");
            }
            let val = item(v)?;
            // Deletion of a single element.
            if val.is_empty_matrix() && i <= l.len() {
                l.remove_range(i - 1, 1);
                return Ok(());
            }
            while l.len() < i {
                l.add_last(Value::None);
            }
            *l.get_mut(i - 1).expect("extended above") = val;
            Ok(())
        }
        NValue::V(Value::Real(m)) => {
            let x = v
                .as_scalar()
                .ok_or_else(|| NspError::new("matrix assignment needs a scalar"))?;
            match idx.len() {
                1 => {
                    let i = idx[0]
                        .as_scalar()
                        .ok_or_else(|| NspError::new("index must be scalar"))?
                        as usize;
                    if i < 1 || i > m.len() {
                        return err(format!("index {i} out of bounds"));
                    }
                    m.data_mut()[i - 1] = x;
                }
                2 => {
                    let r = idx[0].as_scalar().unwrap_or(0.0) as usize;
                    let c = idx[1].as_scalar().unwrap_or(0.0) as usize;
                    if r < 1 || c < 1 || r > m.rows() || c > m.cols() {
                        return err("matrix index out of bounds");
                    }
                    m.set(r - 1, c - 1, x);
                }
                _ => return err("matrices take 1 or 2 indices"),
            }
            Ok(())
        }
        other => err(format!("cannot index-assign into {}", other.type_name())),
    }
}

/// `base.field = v` in place; `base` is left untouched on error. A status
/// becomes the hash it stands for.
pub(crate) fn field_assign_value(base: &mut NValue, field: &str, v: NValue) -> R<()> {
    if let NValue::Status(st) = base {
        let mut hash = NValue::V(status_hash(st));
        field_assign_value(&mut hash, field, v)?;
        *base = hash;
        return Ok(());
    }
    match base {
        NValue::V(Value::Hash(h)) => {
            h.set(field, item(v)?);
            Ok(())
        }
        other => err(format!("cannot set field on {}", other.type_name())),
    }
}

/// `list.add_last[x]` in place; `list` is left untouched on error. The
/// call's value is the grown list: a caller that reads it (`want > 0`) gets
/// the one copy, the statement form (`want == 0`) none.
pub(crate) fn add_last_value<A: CallArg>(list: &mut NValue, pos: &mut [A], want: usize) -> R<Ret> {
    match list {
        NValue::V(Value::List(l)) => {
            let [v] = args("add_last", pos)?;
            l.add_last(item(v.take_value())?);
            Ok(if want == 0 {
                Ret::Many(Vec::new())
            } else {
                Ret::One(list.clone())
            })
        }
        other => err(format!("{} has no method add_last", other.type_name())),
    }
}

/// The one checked read of a call's positional arguments: the first `N`,
/// in place. A callee that consumes one [`NValue::take`]s it. Trailing
/// extras (the scripts' `MCW` handles) are ignored.
pub(crate) fn args<'a, A, const N: usize>(name: &str, pos: &'a mut [A]) -> R<&'a mut [A; N]> {
    let got = pos.len();
    pos.first_chunk_mut().ok_or_else(|| {
        let s = if N == 1 { "" } else { "s" };
        NspError::new(format!("{name} needs {N} argument{s}, got {got}"))
    })
}

/// A call argument as a builtin reads it, in place: the tree-walker's
/// evaluated [`NValue`]s, or the VM's registers, where a scalar is an
/// unboxed immediate and a variable's value may be shared rather than
/// copied.
pub(crate) trait CallArg {
    /// The content of a 1×1 real.
    fn num(&self) -> Option<f64>;
    /// The content of a 1×1 string.
    fn text(&self) -> Option<&str>;
    /// The argument as a value (an immediate is boxed in place).
    fn value(&mut self) -> &NValue;
    /// Move the argument out, leaving `none` behind.
    fn take_value(&mut self) -> NValue;
}

impl CallArg for NValue {
    fn num(&self) -> Option<f64> {
        self.as_scalar()
    }

    fn text(&self) -> Option<&str> {
        self.as_str()
    }

    fn value(&mut self) -> &NValue {
        self
    }

    fn take_value(&mut self) -> NValue {
        self.take()
    }
}

/// What a builtin or method call produces: one value (a scalar kept
/// unboxed, so the VM stores it as an immediate) or, for `size` and the
/// statement form of `add_last`, a list of them.
pub(crate) enum Ret {
    /// A 1×1 real.
    Num(f64),
    /// A 1×1 boolean.
    Bool(bool),
    /// Any one value.
    One(NValue),
    /// Several values (or none).
    Many(Vec<NValue>),
}

impl Ret {
    /// The results as the tree-walker passes them around.
    pub(crate) fn into_vec(self) -> Vec<NValue> {
        match self {
            Ret::Num(x) => vec![NValue::scalar(x)],
            Ret::Bool(b) => vec![NValue::boolean(b)],
            Ret::One(v) => vec![v],
            Ret::Many(v) => v,
        }
    }
}

fn need_scalar(v: &impl CallArg, what: &str) -> R<f64> {
    v.num()
        .ok_or_else(|| NspError::new(format!("{what} must be a scalar")))
}

/// A rank or tag: an integer, refused rather than truncated into one (a
/// destination of 1.5 must not reach rank 1). -1 passes, where the call
/// reads it as `ANY_SOURCE` or `ANY_TAG`.
fn need_int(v: &impl CallArg, what: &str) -> R<i32> {
    let x = need_scalar(v, what)?;
    // The cast saturates and sends NaN to 0: only an i32 comes back as x.
    let n = x as i32;
    if f64::from(n) == x {
        return Ok(n);
    }
    if x.fract() != 0.0 {
        return err(format!("{what} must be an integer, got {x}"));
    }
    err(format!("{what} {x} is out of range"))
}

fn need_str<'a>(v: &'a impl CallArg, what: &str) -> R<&'a str> {
    v.text()
        .ok_or_else(|| NspError::new(format!("{what} must be a string")))
}

/// An argument as plain data, borrowed where it is plain already: what a
/// builtin that only reads its argument (`serialize`, `MPI_Send_Obj`, …)
/// serializes. A Premia object encodes as its `PremiaModel` hash.
fn plain(v: &mut impl CallArg) -> R<Cow<'_, Value>> {
    match v.value() {
        NValue::V(val) => Ok(Cow::Borrowed(val)),
        other => other.to_value().map(Cow::Owned),
    }
}

/// `unserialize(S)` / `S.unserialize[]`, shared by both engines. A plain
/// serial in the order `PremiaProblem::to_xdr_bytes` writes becomes a
/// Premia object with no value tree (a Fig. 4 slave's every job); any
/// other serial is read into a tree once, which [`NValue::wrap`] makes a
/// Premia object if `PremiaProblem::from_value` takes it.
pub(crate) fn unserialize_value(s: &Serial) -> R<NValue> {
    if !s.is_compressed() {
        if let Some(problem) = PremiaProblem::from_xdr_in_order(s.bytes()) {
            return Ok(NValue::Premia(Rc::new(RefCell::new(
                PremiaObj::from_problem(problem),
            ))));
        }
    }
    let v = xdrser::unserialize(s).map_err(|e| NspError::new(e.to_string()))?;
    Ok(NValue::wrap(v))
}

/// The front half of `exec(path)`, shared by both engines: check the
/// argument and read the script file.
pub(crate) fn read_exec_source<A: CallArg>(pos: &mut [A]) -> R<String> {
    let [path] = args("exec", pos)?;
    let path = path
        .text()
        .ok_or_else(|| NspError::new("exec path must be a string"))?;
    std::fs::read_to_string(path).map_err(|e| NspError::new(format!("exec {path}: {e}")))
}

/// `base.name` field read.
pub(crate) fn field_value(base: &NValue, name: &str) -> R<NValue> {
    field_ref(base, name).map(|v| NValue::wrap(v.into_owned()))
}

/// The value `base.name` reads: a hash's entry borrowed, a status's
/// field built (a scalar, so nothing is allocated).
pub(crate) fn field_ref<'a>(base: &'a NValue, name: &str) -> R<Cow<'a, Value>> {
    match base {
        NValue::V(Value::Hash(h)) => h
            .get(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| NspError::new(format!("hash has no field {name}"))),
        NValue::Status(st) => status_field(st, name).map(|x| Cow::Owned(Value::scalar(x))),
        other => err(format!("{} has no fields", other.type_name())),
    }
}

/// The item sequence a `for` loop iterates over (eager, like Nsp).
pub(crate) fn for_items_of(v: NValue) -> R<Vec<NValue>> {
    match v {
        NValue::V(Value::List(l)) => Ok(l.into_iter().map(NValue::wrap).collect()),
        NValue::V(Value::Real(m)) => {
            if m.rows() <= 1 || m.cols() == 1 {
                Ok(m.data().iter().map(|&x| NValue::scalar(x)).collect())
            } else {
                // Iterate columns as column vectors (Matlab semantics).
                let mut cols = Vec::with_capacity(m.cols());
                for c in 0..m.cols() {
                    let col: Vec<f64> = (0..m.rows()).map(|r| m.get(r, c)).collect();
                    cols.push(NValue::V(Value::Real(Matrix::col(col))));
                }
                Ok(cols)
            }
        }
        NValue::V(Value::Str(s)) => {
            Ok(s.data().iter().map(|x| NValue::string(x.clone())).collect())
        }
        other => err(format!("cannot iterate over {}", other.type_name())),
    }
}

/// Assemble a matrix literal from its evaluated entries (row-major rows).
pub(crate) fn build_matrix(rows: &[Vec<NValue>]) -> R<NValue> {
    if rows.is_empty() {
        return Ok(NValue::V(Value::empty_matrix()));
    }
    // Support horizontal concatenation of row vectors/scalars within a
    // row, and string rows.
    let mut all_rows: Vec<Vec<f64>> = Vec::new();
    let mut strings: Vec<String> = Vec::new();
    let mut is_string = false;
    for row in rows {
        let mut data = Vec::new();
        for v in row {
            match v {
                NValue::V(Value::Real(m)) => data.extend_from_slice(m.data()),
                NValue::V(Value::Str(s)) => {
                    is_string = true;
                    strings.extend(s.data().iter().cloned());
                }
                NValue::V(Value::Bool(b)) => data.extend(b.data().iter().map(|&x| x as u8 as f64)),
                other => {
                    return err(format!(
                        "matrix entries must be numeric, got {}",
                        other.type_name()
                    ))
                }
            }
        }
        all_rows.push(data);
    }
    if is_string {
        // A string row vector like ["-name", "nsp-child"].
        return Ok(NValue::V(Value::Str(StrMatrix::row(strings))));
    }
    let cols = all_rows[0].len();
    if all_rows.iter().any(|r| r.len() != cols) {
        return err("ragged matrix literal");
    }
    let rows_n = all_rows.len();
    let mut data = vec![0.0; rows_n * cols];
    for (r, row) in all_rows.iter().enumerate() {
        for (c, &x) in row.iter().enumerate() {
            data[c * rows_n + r] = x;
        }
    }
    Ok(NValue::V(Value::Real(Matrix::from_col_major(
        rows_n, cols, data,
    ))))
}

/// Build an `a:b[:c]` range from its evaluated bounds. Scalar checks run
/// after all operands are evaluated (lo, hi, then step — both engines
/// evaluate in that order).
pub(crate) fn range_value(lo: &NValue, hi: &NValue, step: Option<&NValue>) -> R<NValue> {
    let lo = lo
        .as_scalar()
        .ok_or_else(|| NspError::new("range bound must be scalar"))?;
    let hi = hi
        .as_scalar()
        .ok_or_else(|| NspError::new("range bound must be scalar"))?;
    let step = match step {
        Some(s) => s
            .as_scalar()
            .ok_or_else(|| NspError::new("range step must be scalar"))?,
        None => 1.0,
    };
    if step == 0.0 {
        return err("range step cannot be zero");
    }
    let mut data = Vec::new();
    let mut x = lo;
    if step > 0.0 {
        while x <= hi + 1e-12 {
            data.push(x);
            x += step;
        }
    } else {
        while x >= hi - 1e-12 {
            data.push(x);
            x += step;
        }
    }
    Ok(NValue::V(Value::Real(Matrix::row(data))))
}

/// The builtin functions. The lowerer resolves a callee name to its dense
/// id ([`builtin_id`]) at compile time, and both engines dispatch on the
/// variant: no per-call string match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is its script name, in camel case
pub(crate) enum Builtin {
    List,
    HashCreate,
    Rand,
    Reseed,
    Size,
    Length,
    Floor,
    Ceil,
    Abs,
    Sqrt,
    Exp,
    Log,
    Min,
    Max,
    String,
    Disp,
    Print,
    Getenv,
    Error,
    Isempty,
    Exec,
    Serialize,
    Unserialize,
    Save,
    Load,
    Sload,
    PremiaCreate,
    MpiInit,
    MpiInitialized,
    MpicommCreate,
    MpiinfoCreate,
    MpiCommRank,
    MpiCommSize,
    MpiSendObj,
    MpiRecvObj,
    MpiProbe,
    MpiGetCount,
    MpiGetElements,
    MpibufCreate,
    MpiRecv,
    MpiUnpack,
    MpiPack,
    MpiSend,
    MpiBarrier,
    MpiWtime,
}

/// The builtin table, in id order: `BUILTINS[id] = (name, variant)`.
const BUILTINS: &[(&str, Builtin)] = &[
    ("list", Builtin::List),
    ("hash_create", Builtin::HashCreate),
    ("rand", Builtin::Rand),
    ("reseed", Builtin::Reseed),
    ("size", Builtin::Size),
    ("length", Builtin::Length),
    ("floor", Builtin::Floor),
    ("ceil", Builtin::Ceil),
    ("abs", Builtin::Abs),
    ("sqrt", Builtin::Sqrt),
    ("exp", Builtin::Exp),
    ("log", Builtin::Log),
    ("min", Builtin::Min),
    ("max", Builtin::Max),
    ("string", Builtin::String),
    ("disp", Builtin::Disp),
    ("print", Builtin::Print),
    ("getenv", Builtin::Getenv),
    ("error", Builtin::Error),
    ("isempty", Builtin::Isempty),
    ("exec", Builtin::Exec),
    ("serialize", Builtin::Serialize),
    ("unserialize", Builtin::Unserialize),
    ("save", Builtin::Save),
    ("load", Builtin::Load),
    ("sload", Builtin::Sload),
    ("premia_create", Builtin::PremiaCreate),
    ("MPI_Init", Builtin::MpiInit),
    ("MPI_Initialized", Builtin::MpiInitialized),
    ("mpicomm_create", Builtin::MpicommCreate),
    ("mpiinfo_create", Builtin::MpiinfoCreate),
    ("MPI_Comm_rank", Builtin::MpiCommRank),
    ("MPI_Comm_size", Builtin::MpiCommSize),
    ("MPI_Send_Obj", Builtin::MpiSendObj),
    ("MPI_Recv_Obj", Builtin::MpiRecvObj),
    ("MPI_Probe", Builtin::MpiProbe),
    ("MPI_Get_count", Builtin::MpiGetCount),
    ("MPI_Get_elements", Builtin::MpiGetElements),
    ("mpibuf_create", Builtin::MpibufCreate),
    ("MPI_Recv", Builtin::MpiRecv),
    ("MPI_Unpack", Builtin::MpiUnpack),
    ("MPI_Pack", Builtin::MpiPack),
    ("MPI_Send", Builtin::MpiSend),
    ("MPI_Barrier", Builtin::MpiBarrier),
    ("MPI_Wtime", Builtin::MpiWtime),
];

/// Id of the `exec` builtin — the VM intercepts it so the inner script
/// shares the current frame (tree semantics: exec binds into the caller's
/// scope).
pub(crate) const BUILTIN_EXEC: u16 = Builtin::Exec as u16;

impl Builtin {
    /// The builtin with dense id `id`.
    pub(crate) fn from_id(id: u16) -> Builtin {
        BUILTINS[id as usize].1
    }

    /// The script name.
    pub(crate) fn name(self) -> &'static str {
        BUILTINS[self as usize].0
    }
}

/// Resolve a builtin name to its dense id (compile time, and the cold
/// paths that start from a name).
pub(crate) fn builtin_id(name: &str) -> Option<u16> {
    BUILTINS
        .iter()
        .position(|&(b, _)| b == name)
        .map(|i| i as u16)
}

/// `P.set_xxx[str="..."]` keyword or single positional string.
fn kw_str(kw: &[(String, NValue)], pos: &[NValue]) -> R<String> {
    if let Some((_, v)) = kw.iter().find(|(k, _)| k == "str") {
        return v
            .as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| NspError::new("str= expects a string"));
    }
    if let Some(v) = pos.first() {
        return v
            .as_str()
            .map(|s| s.to_string())
            .ok_or_else(|| NspError::new("expected a string argument"));
    }
    err("expected str=\"...\" argument")
}

/// Apply numeric keyword overrides from `set_method[...]` onto the spec
/// resolved by name, so scripts can drive a method round by round:
/// `P.set_method[str="MC_BSDE_LabartLelong", picard_rounds=1, y_prev=y]`.
/// Unknown keys are errors — a typo must not silently price the default
/// configuration.
fn tune_method(mut spec: MethodSpec, kw: &[(String, NValue)]) -> R<MethodSpec> {
    use MethodSpec::*;
    for (key, v) in kw {
        if key == "str" {
            continue;
        }
        let x = v
            .as_scalar()
            .ok_or_else(|| NspError::new(format!("{key}= expects a scalar")))?;
        let n = x as usize;
        match (&mut spec, key.as_str()) {
            (Pde { time_steps, .. }, "time_steps") => *time_steps = n,
            (Pde { space_steps, .. }, "space_steps") => *space_steps = n,
            (Tree { steps }, "steps") => *steps = n,
            (MonteCarlo { paths, .. } | QuasiMonteCarlo { paths }, "paths") => *paths = n,
            (MonteCarlo { time_steps, .. }, "time_steps") => *time_steps = n,
            (MonteCarlo { antithetic, .. }, "antithetic") => *antithetic = x != 0.0,
            (Lsm { paths, .. }, "paths") => *paths = n,
            (Lsm { exercise_dates, .. }, "exercise_dates") => *exercise_dates = n,
            (Lsm { basis_degree, .. }, "basis_degree") => *basis_degree = n,
            (Bsde { paths, .. }, "paths") => *paths = n,
            (Bsde { time_steps, .. }, "time_steps") => *time_steps = n,
            (Bsde { rate_spread, .. }, "rate_spread") => *rate_spread = x,
            (Bsde { picard_rounds, .. }, "picard_rounds") => *picard_rounds = n,
            (Bsde { y_prev, .. }, "y_prev") => *y_prev = x,
            (Xva { paths, .. }, "paths") => *paths = n,
            (Xva { time_steps, .. }, "time_steps") => *time_steps = n,
            (Xva { hazard, .. }, "hazard") => *hazard = x,
            (Xva { lgd, .. }, "lgd") => *lgd = x,
            (
                MonteCarlo { seed, .. } | Lsm { seed, .. } | Bsde { seed, .. } | Xva { seed, .. },
                "seed",
            ) => *seed = x as u64,
            _ => {
                return err(format!(
                    "method {} has no tunable parameter {key}",
                    spec.name()
                ))
            }
        }
    }
    Ok(spec)
}

/// The hash a status stands for.
fn status_hash(st: &Status) -> Value {
    let mut h = Hash::new();
    h.set("src", Value::scalar(st.src as f64));
    h.set("tag", Value::scalar(st.tag as f64));
    h.set("count", Value::scalar(st.count() as f64));
    Value::Hash(h)
}

/// The field `name` of a status, read as its hash reads it.
fn status_field(st: &Status, name: &str) -> R<f64> {
    match name {
        "src" => Ok(st.src as f64),
        "tag" => Ok(st.tag as f64),
        "count" => Ok(st.count() as f64),
        _ => err(format!("hash has no field {name}")),
    }
}

fn numeric_binop(op: BinOp, a: &Matrix, b: &Matrix) -> R<NValue> {
    use BinOp::*;
    // Comparison of scalars returns a boolean.
    if a.is_scalar() && b.is_scalar() {
        let x = a.get(0, 0);
        let y = b.get(0, 0);
        return Ok(match op {
            Add => NValue::scalar(x + y),
            Sub => NValue::scalar(x - y),
            Mul => NValue::scalar(x * y),
            Div => NValue::scalar(x / y),
            Eq => NValue::boolean(x == y),
            Ne => NValue::boolean(x != y),
            Lt => NValue::boolean(x < y),
            Gt => NValue::boolean(x > y),
            Le => NValue::boolean(x <= y),
            Ge => NValue::boolean(x >= y),
            And | Or => return err("&&/|| need booleans"),
        });
    }
    // Elementwise with scalar broadcast.
    let (rows, cols) = if a.is_scalar() {
        (b.rows(), b.cols())
    } else {
        (a.rows(), a.cols())
    };
    if !a.is_scalar() && !b.is_scalar() && (a.rows() != b.rows() || a.cols() != b.cols()) {
        return err("shape mismatch in matrix operation");
    }
    let get = |m: &Matrix, i: usize| {
        if m.is_scalar() {
            m.get(0, 0)
        } else {
            m.get_linear(i)
        }
    };
    let n = rows * cols;
    match op {
        Add | Sub | Mul | Div => {
            let mut data = Vec::with_capacity(n);
            for i in 0..n {
                let x = get(a, i);
                let y = get(b, i);
                data.push(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y, // elementwise (the scripts never need matmul)
                    Div => x / y,
                    _ => unreachable!(),
                });
            }
            Ok(NValue::V(Value::Real(Matrix::from_col_major(
                rows, cols, data,
            ))))
        }
        Eq | Ne | Lt | Gt | Le | Ge => {
            let mut data = Vec::with_capacity(n);
            for i in 0..n {
                let x = get(a, i);
                let y = get(b, i);
                data.push(match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Gt => x > y,
                    Le => x <= y,
                    Ge => x >= y,
                    _ => unreachable!(),
                });
            }
            Ok(NValue::V(Value::Bool(BoolMatrix::from_col_major(
                rows, cols, data,
            ))))
        }
        And | Or => err("&&/|| need booleans"),
    }
}

impl Interp {
    /// Seed used by `rand` (deterministic per interpreter).
    fn reseed(&mut self, seed: u64) {
        self.rng_state = seed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse and run a script on the tree-walker this module implements,
    /// in a fresh interpreter (no MPI binding); returns the interpreter
    /// for inspecting variables.
    pub(super) fn run_script(src: &str) -> Result<Interp, NspError> {
        let mut interp = Interp::with_engine(Engine::Tree);
        interp.run(src)?;
        Ok(interp)
    }

    impl Interp {
        /// Borrow-based fast path: variable as a 1×1 string slice.
        fn get_str(&self, name: &str) -> Option<&str> {
            self.get(name).and_then(|v| v.as_str())
        }
    }

    fn scalar(i: &Interp, name: &str) -> f64 {
        i.get_value(name).unwrap().as_scalar().unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        let i = run_script("x = 1 + 2 * 3 - 4 / 2").unwrap();
        assert_eq!(scalar(&i, "x"), 5.0);
    }

    #[test]
    fn string_concatenation_like_fig1() {
        let i = run_script("cmd = 'exec(''src/loader.sce'');'\ncmd = cmd + 'MPI_Init();'").unwrap();
        assert_eq!(
            i.get_str("cmd").unwrap(),
            "exec('src/loader.sce');MPI_Init();"
        );
    }

    #[test]
    fn while_loop_with_break() {
        let src = "n = 0\nwhile %t then\n n = n + 1\n if n == 5 then break end\nend";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "n"), 5.0);
    }

    #[test]
    fn for_over_range() {
        let i = run_script("s = 0\nfor k = 1:10 do\n s = s + k\nend").unwrap();
        assert_eq!(scalar(&i, "s"), 55.0);
    }

    #[test]
    fn for_over_list_elements() {
        let src = "L = list(10, 20, 30)\ns = 0\nfor x = L do\n s = s + x\nend";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "s"), 60.0);
    }

    #[test]
    fn list_indexing_and_deletion() {
        let src = "L = list(1, 2, 3, 4, 5)\na = L(2)\nL(1:2) = []\nb = L(1)\nn = size(L, '*')";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "a"), 2.0);
        assert_eq!(scalar(&i, "b"), 3.0);
        assert_eq!(scalar(&i, "n"), 3.0);
    }

    #[test]
    fn nested_list_index_like_fig4() {
        // L(1)(3) — the slave result access pattern.
        let src = "L = list(list('Price', 0.1, 42.5))\np = L(1)(3)";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "p"), 42.5);
    }

    #[test]
    fn hash_field_auto_create_like_fig2() {
        let src = "H.A = rand(4,5)\nH.B = rand(4,1)\nn = size(H.A, '*')";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "n"), 20.0);
    }

    #[test]
    fn functions_with_multiple_outputs() {
        let src = r#"
function [sl, result] = receive_res(x)
  sl = x + 1
  result = x * 2
endfunction
[a, b] = receive_res(10)
"#;
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "a"), 11.0);
        assert_eq!(scalar(&i, "b"), 20.0);
    }

    #[test]
    fn function_scoping_is_local() {
        let src = r#"
x = 100
function y = f(a)
  x = 5
  y = a + x
endfunction
r = f(1)
"#;
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "r"), 6.0);
        assert_eq!(scalar(&i, "x"), 100.0, "global x must be untouched");
    }

    #[test]
    fn serialize_unserialize_round_trip() {
        let src = r#"
A = list('string', %t, rand(4,4))
S = serialize(A)
B = S.unserialize[]
ok = B.equal[A]
"#;
        let i = run_script(src).unwrap();
        assert_eq!(i.get_bool("ok"), Some(true));
    }

    #[test]
    fn compress_round_trip_like_paper() {
        let src = r#"
A = 1:100
S = serialize(A)
S1 = S.compress[]
A1 = S1.unserialize[]
ok = A1.equal[A]
"#;
        let i = run_script(src).unwrap();
        assert_eq!(i.get_bool("ok"), Some(true));
        // And compression shrinks the serial, as in Fig. 2's
        // 842 → 248 bytes example.
        let s = i.get_value("S").unwrap();
        let s1 = i.get_value("S1").unwrap();
        assert!(s1.as_serial().unwrap().len() < s.as_serial().unwrap().len());
    }

    #[test]
    fn save_sload_unserialize_like_fig2() {
        let dir = std::env::temp_dir().join("nsplang_sload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saved.bin");
        let src = format!(
            r#"
H.A = rand(4,5)
H.B = rand(4,1)
save('{p}', H)
S = sload('{p}')
H1 = S.unserialize[]
ok = H1.equal[H]
"#,
            p = path.display()
        );
        let i = run_script(&src).unwrap();
        assert_eq!(i.get_bool("ok"), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn premia_workflow_like_section_3_3() {
        let src = r#"
P = premia_create()
P.set_asset[str="equity"]
P.set_model[str="BlackScholes1dim"]
P.set_option[str="CallEuro"]
P.set_method[str="CF"]
P.compute[]
L = P.get_method_results[]
price = L(1)(3)
"#;
        let i = run_script(src).unwrap();
        let price = scalar(&i, "price");
        assert!((price - 10.4506).abs() < 1e-3, "price {price}");
    }

    #[test]
    fn premia_save_load_round_trip() {
        let dir = std::env::temp_dir().join("nsplang_premia_save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fic");
        let src = format!(
            r#"
P = premia_create()
P.set_asset[str="equity"]
P.set_model[str="Heston1dim"]
P.set_option[str="PutAmer"]
P.set_method[str="MC_AM_Alfonsi_LongstaffSchwartz"]
save('{p}', P)
Q = load('{p}')
ok = Q.equal[P]
"#,
            p = path.display()
        );
        let i = run_script(&src).unwrap();
        assert_eq!(i.get_bool("ok"), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undefined_variable_is_error() {
        assert!(run_script("y = nosuchvar + 1").is_err());
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(run_script("y = frobnicate(1)").is_err());
    }

    #[test]
    fn disp_captures_output() {
        let i = run_script("disp('hello')").unwrap();
        assert_eq!(i.output.len(), 1);
        assert!(i.output[0].contains("hello"));
    }

    #[test]
    fn comparison_chain_in_if() {
        let src = "x = 3\nif x <> 0 then\n y = 1\nelse\n y = 2\nend";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "y"), 1.0);
    }

    #[test]
    fn matrix_literals_and_indexing() {
        let src = "m = [1, 2; 3, 4]\na = m(2, 1)\nb = m(4)";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "a"), 3.0);
        assert_eq!(scalar(&i, "b"), 4.0); // column-major linear index
    }

    #[test]
    fn transpose_of_row_vector() {
        let src = "r = 1:3\nc = r'\n[rows, cols] = size(c)";
        let i = run_script(src).unwrap();
        assert_eq!(scalar(&i, "rows"), 3.0);
        assert_eq!(scalar(&i, "cols"), 1.0);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut a = Interp::new();
        a.reseed(1);
        a.run("x = rand(2,2)").unwrap();
        let mut b = Interp::new();
        b.reseed(1);
        b.run("x = rand(2,2)").unwrap();
        assert_eq!(a.get_value("x"), b.get_value("x"));
    }
}

#[cfg(test)]
mod exec_tests {
    use super::tests::run_script;

    #[test]
    fn exec_runs_a_script_file() {
        let dir = std::env::temp_dir().join("nsplang_exec");
        std::fs::create_dir_all(&dir).unwrap();
        let lib = dir.join("loader.sce");
        std::fs::write(
            &lib,
            "function y = twice(x)\n y = 2 * x\nendfunction\nbase = 21\n",
        )
        .unwrap();
        let src = format!("exec('{}')\nz = twice(base)", lib.display());
        let i = run_script(&src).unwrap();
        assert_eq!(i.get_scalar("z"), Some(42.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exec_missing_file_is_error() {
        assert!(run_script("exec('/no/such/file.sce')").is_err());
    }
}

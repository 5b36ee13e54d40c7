//! Integration: the paper's script shapes executed by the `nsplang`
//! interpreter, including the Fig. 4/5 master/slave portfolio pricer on a
//! live `minimpi` world with one interpreter per rank.

use minimpi::World;
use nsplang::Interp;
use std::rc::Rc;

#[path = "common/registry.rs"]
mod registry;

#[test]
fn section_3_3_premia_session() {
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
    let mut i = Interp::new();
    i.run(src).unwrap();
    let price = i.get_scalar("price").unwrap();
    assert!((price - 10.4506).abs() < 1e-3);
}

#[test]
fn fig2_sload_session() {
    let dir = std::env::temp_dir().join("it_nsp_fig2");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = format!(
        r#"
H.A = rand(4,5)
H.B = rand(4,1)
save('{d}/saved.bin', H)
S = sload('{d}/saved.bin')
H1 = S.unserialize[]
ok = H1.equal[H]
"#,
        d = dir.display()
    );
    let mut i = Interp::new();
    i.run(&src).unwrap();
    assert_eq!(i.get_bool("ok"), Some(true));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obj_send_recv_between_interpreted_ranks() {
    // §3.2's A=list('string',%t,rand(4,4)); MPI_Send_Obj / MPI_Recv_Obj
    // example, with an interpreter on each rank.
    let outputs = World::run(2, |comm| {
        let rank = comm.rank();
        let mut interp = Interp::with_comm(Rc::new(comm));
        if rank == 0 {
            interp
                .run(
                    "MCW = mpicomm_create('WORLD')\nA = list('string', %t, rand(4,4))\nMPI_Send_Obj(A, 1, 3, MCW)\nMPI_Send_Obj(A, 1, 4, MCW)",
                )
                .unwrap();
            true
        } else {
            interp
                .run(
                    "MCW = mpicomm_create('WORLD')\nB = MPI_Recv_Obj(0, 3, MCW)\nC = MPI_Recv_Obj(0, 4, MCW)\nok = B.equal[C]",
                )
                .unwrap();
            interp.get_bool("ok").unwrap()
        }
    });
    assert!(outputs[1]);
}

#[test]
fn fig4_style_farm_runs_interpreted() {
    fig4_farm_on_engine(nsplang::Engine::Tree, "it_nsp_fig4");
}

#[test]
fn fig4_style_farm_runs_on_vm() {
    // Same protocol, every rank's interpreter on the bytecode VM.
    fig4_farm_on_engine(nsplang::Engine::Vm, "it_nsp_fig4_vm");
}

fn fig4_farm_on_engine(engine: nsplang::Engine, tag: &str) {
    // Scaled-down Fig. 4/5: 8 problems, 1 master + 2 slaves, full
    // pack/probe/mpibuf protocol.
    let dir = std::env::temp_dir().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = farm::portfolio::toy_portfolio(8);
    for (k, job) in jobs.iter().enumerate() {
        riskbench::xdrser::save(
            dir.join(format!("pb-{}.bin", k + 1)),
            &job.problem.to_value(),
        )
        .unwrap();
    }
    let script = format!(
        r#"
TAG = 7
MCW = mpicomm_create('WORLD')
mpi_rank = MPI_Comm_rank(MCW)
mpi_size = MPI_Comm_size(MCW)

function send_pb(name, slv, TAG, MCW)
  ser_obj = sload(name)
  MPI_Send_Obj(name, slv, TAG, MCW)
  pack_obj = MPI_Pack(ser_obj, MCW)
  MPI_Send(pack_obj, slv, TAG, MCW)
endfunction

function [sl, result] = receive_res(TAG, MCW)
  stat = MPI_Probe(-1, -1, MCW)
  sl = stat.src
  result = MPI_Recv_Obj(sl, TAG, MCW)
endfunction

if mpi_rank <> 0 then
  while %t then
    name = MPI_Recv_Obj(0, TAG, MCW)
    if name == '' then break end
    stat = MPI_Probe(-1, -1, MCW)
    elems = MPI_Get_elements(stat, '')
    pack_obj = mpibuf_create(elems)
    stat = MPI_Recv(pack_obj, 0, TAG, MCW)
    ser_obj = MPI_Unpack(pack_obj, MCW)
    P = unserialize(ser_obj)
    P.compute[]
    L = P.get_method_results[]
    MPI_Send_Obj(L(1)(3), 0, TAG, MCW)
  end
else
  Lpb = list()
  for k = 1:8 do
    Lpb.add_last['{d}/pb-' + string(k) + '.bin']
  end
  res = list()
  slv = 1
  sent = 0
  for k = 1:min(mpi_size-1, 8) do
    send_pb(Lpb(k), slv, TAG, MCW)
    slv = slv + 1
    sent = sent + 1
  end
  Lpb(1:sent) = []
  for pb = Lpb' do
    [sl, result] = receive_res(TAG, MCW)
    res.add_last[list(sl, result)]
    send_pb(pb, sl, TAG, MCW)
  end
  for k = 1:sent do
    [sl, result] = receive_res(TAG, MCW)
    res.add_last[list(sl, result)]
  end
  for slv = 1:mpi_size-1 do
    MPI_Send_Obj('', slv, TAG, MCW)
  end
  total = 0
  for r = res do
    total = total + r(2)
  end
  n_res = size(res, '*')
"#,
        d = dir.display()
    ) + "\nend\n";

    let outputs = World::run(3, move |comm| {
        let rank = comm.rank();
        let mut interp = Interp::with_comm(Rc::new(comm));
        interp.set_engine(engine);
        interp
            .run(&script)
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        if rank == 0 {
            Some((
                interp.get_scalar("total").unwrap(),
                interp.get_scalar("n_res").unwrap(),
            ))
        } else {
            None
        }
    });
    let (total, n_res) = outputs[0].unwrap();
    assert_eq!(n_res, 8.0);
    let serial: f64 = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price)
        .sum();
    assert!(
        (total - serial).abs() < 1e-9,
        "scripted {total} vs serial {serial}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interpreter_errors_are_reported_not_panicking() {
    let mut i = Interp::new();
    assert!(i.run("x = undefined_thing + 1").is_err());
    assert!(i.run("P = premia_create()\nP.compute[]").is_err()); // incomplete problem
    assert!(i.run("L = list(1)\ny = L(5)").is_err()); // out of bounds
}

#[test]
fn shipped_scripts_parse() {
    // The standalone scripts in scripts/ must stay syntactically valid.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts");
    let mut found = 0;
    for entry in std::fs::read_dir(&root).expect("scripts directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("nsp") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        nsplang::parse_program(&src)
            .unwrap_or_else(|e| panic!("{} fails to parse: {e}", path.display()));
        found += 1;
    }
    assert!(found >= 4, "expected the shipped scripts, found {found}");
}

#[test]
fn fig2_script_runs_standalone() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts");
    let src = std::fs::read_to_string(root.join("fig2_sload.nsp")).unwrap();
    let mut i = Interp::new();
    i.run(&src).unwrap();
    assert_eq!(i.get_bool("ok"), Some(true));
    assert_eq!(i.get_bool("ok2"), Some(true));
}

#[test]
fn section33_script_runs_standalone() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts");
    let src = std::fs::read_to_string(root.join("section33_premia.nsp")).unwrap();
    let mut i = Interp::new();
    i.run(&src).unwrap();
    assert_eq!(i.get_bool("ok"), Some(true));
}

#[test]
fn rates_workflow_through_interpreter() {
    // The §2 interest-rate extension is reachable from scripts too.
    let src = r#"
P = premia_create()
P.set_asset[str="rates"]
P.set_model[str="Vasicek1dim"]
P.set_option[str="ZCBond"]
P.set_method[str="CF"]
P.compute[]
L = P.get_method_results[]
price = L(1)(3)
"#;
    let mut i = Interp::new();
    i.run(src).unwrap();
    let price = i.get_scalar("price").unwrap();
    assert!(price > 0.0 && price < 1.0, "ZCB price {price}");
}

// ---- engine equivalence battery ---------------------------------------------
//
// Every script below runs on both engines (tree-walker and bytecode VM) and
// must produce bit-identical global bindings (compared as XDR bytes),
// identical RNG states, identical `disp` output, and — for failing scripts —
// identical rendered error messages including `line:col` spans.

mod engine_equivalence {
    use nsplang::{Engine, Interp, NspError};
    use std::collections::BTreeMap;

    fn snapshot(i: &Interp) -> BTreeMap<String, String> {
        i.globals()
            .map(|(name, v)| {
                let repr = match v.to_value() {
                    Ok(val) => format!("{:?}", riskbench::xdrser::serialize_to_bytes(&val)),
                    Err(e) => format!("unserializable: {e}"),
                };
                (name.to_string(), repr)
            })
            .collect()
    }

    fn run_both(src: &str) -> (Interp, Result<(), NspError>, Interp, Result<(), NspError>) {
        let mut t = Interp::with_engine(Engine::Tree);
        let rt = t.run(src);
        let mut v = Interp::with_engine(Engine::Vm);
        let rv = v.run(src);
        (t, rt, v, rv)
    }

    #[track_caller]
    fn assert_agree(src: &str) {
        let _ = agree(src);
    }

    /// Assert both engines agree on `src`; the tree-walker's interpreter
    /// and result come back for assertions on values.
    #[track_caller]
    fn agree(src: &str) -> (Interp, Result<(), NspError>) {
        let (t, rt, v, rv) = run_both(src);
        match (&rt, &rv) {
            (Ok(()), Ok(())) => {}
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "error mismatch on:\n{src}")
            }
            _ => panic!("engines disagree on success: tree={rt:?} vm={rv:?} on:\n{src}"),
        }
        assert_eq!(t.output, v.output, "disp output mismatch on:\n{src}");
        assert_eq!(t.rng_state(), v.rng_state(), "rng divergence on:\n{src}");
        assert_eq!(snapshot(&t), snapshot(&v), "binding mismatch on:\n{src}");
        (t, rt)
    }

    #[test]
    fn scalars_strings_bools_arith() {
        assert_agree("x = 1 + 2*3 - 4/2\ns = 'a' + 'b'\nb = %t\nc = ~%f\nn = -x");
        assert_agree("x = 2 < 3\ny = 2 >= 3\nz = 'ab' == 'ab'\nw = 1 <> 2");
        assert_agree("a = %t && %f\nb = %t || %f");
    }

    #[test]
    fn matrices_ranges_transpose() {
        assert_agree("m = [1, 2; 3, 4]\nt = m'\ne = []\nr = 1:5\nr2 = 1:2:9\ns = m(1,2) + r(3)");
        assert_agree("m = [1, 2, 3]\nm(2) = 7\nm(1:2) + 0\nv = m(1:2)\nq = m([3,1])");
        assert_agree("m = rand(3,3)\ns = size(m)\n[r, c] = size(m)\nn = size(m, '*')");
    }

    #[test]
    fn float_index_truncation_matches() {
        // Nsp/Matlab-style `as usize` truncation happens in the shared
        // helper; both engines must agree bit-for-bit.
        assert_agree("m = [10, 20, 30]\na = m(2.9)\nb = m(2)\nok = a == b");
        assert_agree("L = list(10, 20, 30)\na = L(2.9)\nb = L(2)\nok = a == b");
    }

    #[test]
    fn and_or_are_eager_both_engines() {
        // Both operand sides evaluate (no short-circuit), in source order —
        // visible through disp side effects.
        assert_agree(
            "function [r] = lhs()\n  disp('lhs')\n  r = %f\nendfunction\n\
             function [r] = rhs()\n  disp('rhs')\n  r = %t\nendfunction\n\
             a = lhs() && rhs()\nb = lhs() || rhs()",
        );
    }

    #[test]
    fn lists_nested_and_writeback() {
        assert_agree("L = list(1, 'two', %t)\nx = L(2)\nn = length(L)");
        assert_agree("L = list(list(1, 2), list(3))\nx = L(1)(2)\ny = L(2)(1)");
        // No first index, and a hash item read into its own list's name.
        assert_agree("L = list(list(1, 2))\nx = L()(1)");
        assert_agree("x = list(1, hash_create(y = 2))\nx = x(2)('y')");
        assert_agree("L = list()\nfor k = 1:5 do\n  L.add_last[k*k]\nend\ns = L(5)\nn = length(L)");
        assert_agree("L = list(1,2,3,4,5)\nL(2) = 'x'\nL(4) = []\nn = length(L)");
        assert_agree("L = list(1,2,3,4,5)\nk = 2\nL(1:k) = []\nn = length(L)\nh = L(1)");
    }

    #[test]
    fn hashes_and_field_chains() {
        assert_agree("H.A = 1\nH.B = 'two'\nx = H.A + 1\ny = H('B')");
        assert_agree("H = hash_create(a=1, b=2)\nx = H.a + H.b");
        // Field assignment on a non-hash errors identically.
        assert_agree("G = 5\nG.A = 1");
        // Auto-created hash then overwritten field.
        assert_agree("H.A = 1\nH.A = 2\nx = H.A");
    }

    #[test]
    fn control_flow_loops() {
        assert_agree(
            "s = 0\nfor k = 1:10 do\n  if k == 3 then continue end\n  if k == 8 then break end\n  s = s + k\nend",
        );
        assert_agree(
            "s = 0\nk = 0\nwhile k < 10 do\n  k = k + 1\n  if k == 4 then continue end\n  s = s + k\nend",
        );
        assert_agree(
            "s = 0\nfor i = 1:3 do\n  for j = 1:3 do\n    if j == 2 then break end\n    s = s + i*10 + j\n  end\nend",
        );
        assert_agree("t = 0\nfor v = [5, 6; 7, 8] do\n  t = t + v(1)\nend");
        assert_agree("t = ''\nfor v = list('a', 'b') do\n  t = t + v\nend");
        assert_agree(
            "x = 1\nif x > 2 then y = 'big'\nelseif x > 0 then y = 'small'\nelse y = 'neg'\nend",
        );
    }

    #[test]
    fn top_level_return_and_flow_errors() {
        assert_agree("x = 1\nreturn\nx = 2");
        // Flow escapes at top level error without a span in both engines.
        assert_agree("break");
        assert_agree("continue");
        assert_agree("for k = 1:3 do\n  y = k\nend\nbreak");
    }

    #[test]
    fn functions_recursion_and_scoping() {
        assert_agree(
            "function [r] = fib(n)\n  if n < 2 then\n    r = n\n  else\n    r = fib(n-1) + fib(n-2)\n  end\nendfunction\nx = fib(12)",
        );
        // Dynamic scoping: function bodies read caller bindings.
        assert_agree("g = 42\nfunction [r] = f()\n  r = g + 1\nendfunction\nx = f()");
        // ...but cannot mutate them (assignments are call-local).
        assert_agree(
            "g = 1\nfunction [r] = f()\n  g = 99\n  r = g\nendfunction\nx = f()\nok = g == 1",
        );
        assert_agree(
            "function [a, b] = two()\n  a = 1\n  b = 2\nendfunction\n[p, q] = two()\ns = two()",
        );
        assert_agree("function [r] = f(x)\n  r = x\nendfunction\ny = f(1, 2, 3)");
        assert_agree("function [r] = f()\n  z = 1\nendfunction\ny = f()");
        assert_agree("function noret(x)\n  d = x\nendfunction\nnoret(3)\ny = 1");
        // break/continue inside a function body but outside a loop end the
        // call like falling off the end (Flow unwinds to call_user).
        assert_agree("function [r] = f()\n  r = 1\n  break\n  r = 2\nendfunction\nx = f()");
        // User function shadows a builtin.
        assert_agree("function [r] = rand()\n  r = 7\nendfunction\nx = rand()");
        // Variable shadows a function name: call becomes indexing.
        assert_agree("f = [10, 20]\nx = f(2)");
        // Redefinition: later def wins.
        assert_agree(
            "function [r] = f()\n  r = 1\nendfunction\na = f()\nfunction [r] = f()\n  r = 2\nendfunction\nb = f()",
        );
    }

    #[test]
    fn multi_assign_arity_errors() {
        assert_agree("[a, b] = 1 + 1");
        assert_agree("x = 5\n[a, b] = x");
        assert_agree("function [r] = one()\n  r = 1\nendfunction\n[a, b] = one()");
        assert_agree("L = list(1, 2)\n[a, b] = L(1)");
    }

    #[test]
    fn rng_and_reseed_mid_script() {
        assert_agree("a = rand()\nb = rand(2,2)\nc = rand(3)");
        assert_agree(
            "a = rand()\nreseed(42)\nb = rand()\nreseed(42)\nc = rand()\nok = b == c\nd = rand(2,3)",
        );
        // Draw order through function calls and loops.
        assert_agree(
            "function [r] = draw()\n  r = rand()\nendfunction\ns = 0\nfor k = 1:5 do\n  s = s + draw()\nend",
        );
    }

    #[test]
    fn error_scripts_identical_messages_and_spans() {
        assert_agree("x = undefined_thing + 1");
        assert_agree("x = 1\ny = x + undefined_thing");
        assert_agree("L = list(1)\ny = L(5)");
        assert_agree("m = [1, 2]\ny = m(9)");
        assert_agree("m = [1, 2]\nm(9) = 0");
        assert_agree("x = 'a' - 1");
        assert_agree("if 5 then y = 1 end\nz = list()\nif z then y = 2 end");
        assert_agree("unknown_fn(1, 2)");
        assert_agree("x = 1\ny = 2\nz = [1,2](3)");
        assert_agree("for k = 1:3 do\n  y = k(2)\nend");
        assert_agree("H.A.B = 1");
    }

    #[test]
    fn builtins_report_missing_arguments() {
        // A builtin called with too few arguments is an NspError with the
        // same text and span on both engines, never a panic.
        for src in [
            "x = min(1)",
            "sload()",
            "MPI_Send_Obj(1)",
            "mpibuf_create()",
            "exec()",
        ] {
            assert_agree(src);
        }
        let (_, rt, _, _) = run_both("y = 0\nx = min(1)");
        assert_eq!(
            rt.unwrap_err().to_string(),
            "nsp error at 2:1: min needs 2 arguments, got 1"
        );
    }

    #[test]
    fn sload_fails_with_the_text_of_a_plain_sload() {
        // `sload` reads through the farm's directory reader; a missing
        // file or directory and a file without the serialized header
        // fail as `xdrser::sload` fails, on both engines.
        let dir = std::env::temp_dir().join(format!("nsp_sload_errors_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"definitely not XDR").unwrap();
        let missing = "I/O error: No such file or directory (os error 2)";
        for (path, want) in [
            (dir.join("missing.bin"), missing),
            (dir.join("no_such_dir").join("a.bin"), missing),
            (junk, "bad magic: not a serialized Nsp value"),
        ] {
            assert_eq!(xdrser::sload(&path).unwrap_err().to_string(), want);
            let (_, r) = agree(&format!("x = 1\nS = sload('{}')", path.display()));
            assert_eq!(
                r.unwrap_err().to_string(),
                format!("nsp error at 2:1: {want}")
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lent_arguments_keep_value_semantics() {
        // A plain local passed to a call is shared, not copied: the callee
        // reads the caller's value in place. None of that may show.
        let f2 = "function [r] = f(a, b)\n  r = a + b\nendfunction\n";
        for src in [
            "x = 5\nx = min(x, 3)".to_string(),
            format!("{f2}x = 2\ny = f(x, x)"),
            format!("{f2}x = 2\nx = f(x, 1)"),
            "n = 2\nm = [5, 6]\ny = m(n)\nz = m(n) + n".to_string(),
            "x = 3\n[r, c] = size(x)\ny = x + 1\nz = x".to_string(),
            "x = 3\ns = string(x)\nt = string(s)\nu = s".to_string(),
            "s = 'a'\ny = min(s, 1)".to_string(),
            "h = hash_create(a = 1)\ny = MPI_Get_count(h)".to_string(),
            "L = list(1, 2)\nn = length(L)\nM = list(L, n)\nok = M(1).equal[L]".to_string(),
            // The callee reads the passed variable through the dynamic chain.
            "function [r] = g(a)\n  r = a + x\nendfunction\nx = 1\ny = g(x)".to_string(),
            // Another argument appends to the passed list: it is copied first.
            "function [r] = g(a, b)\n  r = length(a) + length(b)\nendfunction\nL = list(1)\ny = g(L, L.add_last[2])".to_string(),
            // A local not bound yet resolves where its argument stands: the
            // zero-argument calls run in source order.
            "function [r] = g()\n  disp('g')\n  r = 1\nendfunction\nfunction [r] = h()\n  disp('h')\n  r = 2\nendfunction\ny = min(g, h())\ng = 5".to_string(),
            "y = min(q, 1)\nq = 2".to_string(),
        ] {
            assert_agree(&src);
        }
    }

    #[test]
    fn mpibuf_sizes_are_checked_not_allocated() {
        // A size is a limit the receive checks; it allocates nothing, so
        // a huge one is fine and a negative, fractional or non-finite one
        // is refused.
        for n in ["1e13", "1e20", "0", "436"] {
            let (_, r) = agree(&format!("b = mpibuf_create({n})\nok = 1"));
            assert!(r.is_ok(), "mpibuf_create({n}): {r:?}");
        }
        for (n, shown) in [
            ("-5", "-5"),
            ("0.5", "0.5"),
            ("1/0", "inf"),
            ("0/0", "NaN"),
            ("-1/0", "-inf"),
        ] {
            let (_, r) = agree(&format!("b = mpibuf_create({n})"));
            assert_eq!(
                r.unwrap_err().message,
                format!("buffer size must be a non-negative integer, got {shown}")
            );
        }
    }

    /// The named scalar variables of `i`.
    fn scalars<const N: usize>(i: &Interp, names: [&str; N]) -> [f64; N] {
        names.map(|n| i.get_scalar(n).unwrap_or_else(|| panic!("no scalar {n}")))
    }

    /// [`agree`] on a script that must succeed.
    #[track_caller]
    fn agree_ok(src: &str) -> Interp {
        let (t, rt) = agree(src);
        rt.unwrap_or_else(|e| panic!("{e} on:\n{src}"));
        t
    }

    #[test]
    fn in_place_mutators_keep_value_semantics() {
        // A copy made before the append does not see it.
        let i = agree_ok("L = list(1, 2)\nM = L\nL.add_last[3]\nnl = length(L)\nnm = length(M)");
        assert_eq!(scalars(&i, ["nl", "nm"]), [3.0, 2.0]);
        // The receiver read in its own arguments is the value before the update.
        let i = agree_ok("L = list(1, 2)\nL.add_last[L]\nn = length(L)\ninner = length(L(3))");
        assert_eq!(scalars(&i, ["n", "inner"]), [3.0, 2.0]);
        let i = agree_ok("L = list(1, 2, 3)\nL(2) = L\nn = length(L)\ninner = length(L(2))");
        assert_eq!(scalars(&i, ["n", "inner"]), [3.0, 3.0]);
        // Expression form: the result is the grown list, and a copy of it.
        let i = agree_ok(
            "L = list(1)\nx = L.add_last[2]\nx.add_last[3]\nnx = length(x)\nnl = length(L)",
        );
        assert_eq!(scalars(&i, ["nx", "nl"]), [3.0, 2.0]);
        // A receiver that is not a plain variable has nothing to write back to.
        let i =
            agree_ok("L = list(list(1))\nx = L(1).add_last[2]\nnx = length(x)\nn1 = length(L(1))");
        assert_eq!(scalars(&i, ["nx", "n1"]), [2.0, 1.0]);
        // A copy shares its value until one of the names is written: the
        // writer copies first, the other name keeps what it had.
        let i = agree_ok(
            "L = list(1, 2)\na = L\na(1) = 9\nl1 = L(1)\na1 = a(1)\n\
             H = hash_create(y = 2)\nH2 = H\nH2.x = 1\nsame = H.equal[hash_create(y = 2)]\nh2x = H2.x",
        );
        assert_eq!(scalars(&i, ["l1", "a1", "h2x"]), [1.0, 9.0, 1.0]);
        assert_eq!(i.get_bool("same"), Some(true));
        // `add_last`, as a statement and as an expression, on either name.
        let i = agree_ok(
            "L = list(1)\nM = L\nL.add_last[2]\nm1 = length(M)\nl1 = length(L)\n\
             N = L\nX = L.add_last[3]\nn2 = length(N)\nl2 = length(L)\nx2 = length(X)\n\
             K = L\nK.add_last[4]\nl3 = length(L)\nk3 = length(K)",
        );
        assert_eq!(
            scalars(&i, ["m1", "l1", "n2", "l2", "x2", "l3", "k3"]),
            [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0]
        );
        // A callee that changes its parameter changes its own copy.
        let i = agree_ok(
            "function [r] = g(a, h)\n  a(1) = 9\n  h.x = 5\n  r = a(1) + h.x\nendfunction\n\
             L = list(1, 2)\nH = hash_create(x = 1)\ny = g(L, H)\nl1 = L(1)\nhx = H.x",
        );
        assert_eq!(scalars(&i, ["y", "l1", "hx"]), [14.0, 1.0, 1.0]);
        // Two items built from one list, then the list changes.
        let i = agree_ok(
            "x = list(1)\nM = list(x, x)\nx.add_last[2]\nx(1) = 7\n\
             m1 = length(M(1))\nm2 = length(M(2))\nf = M(1)(1)\nnx = length(x)",
        );
        assert_eq!(scalars(&i, ["m1", "m2", "f", "nx"]), [1.0, 1.0, 1.0, 2.0]);
        // A string compared after its source is reassigned.
        let i =
            agree_ok("s = 'ab'\nt = s\ns = 'cd'\ne = t == 'ab'\nu = s\ns = s + 'x'\nf = u == 'cd'");
        assert_eq!((i.get_bool("e"), i.get_bool("f")), (Some(true), Some(true)));
        assert_eq!(i.get_value("s").unwrap().as_str(), Some("cdx"));
    }

    #[test]
    fn failed_mutation_leaves_the_binding_as_it_was() {
        for (src, var) in [
            ("L = list(1, 2)\nL.add_last[]", "L"),
            // The value is rejected before the list is extended to index 5.
            ("L = list(1, 2)\nb = mpibuf_create(4)\nL(5) = b", "L"),
            ("L = list(1, 2)\nL(1:2) = 7", "L"),
            ("m = [1, 2]\nm(9) = 0", "m"),
            ("H.a = 1\nb = mpibuf_create(4)\nH.b = b", "H"),
            // `D` is as deep as the nesting bound: each of the five
            // builders refuses to put it in one more list or hash.
            (
                "D = list(); for k = 1:127 do D = list(D) end; L = list(1)\nL = list(2, D)",
                "L",
            ),
            (
                "D = list(); for k = 1:127 do D = list(D) end; H.a = 1\nH = hash_create(b = D)",
                "H",
            ),
            (
                "D = list(); for k = 1:127 do D = list(D) end; L = list(1)\nL(2) = D",
                "L",
            ),
            (
                "D = list(); for k = 1:127 do D = list(D) end; H.a = 1\nH.b = D",
                "H",
            ),
            (
                "D = list(); for k = 1:127 do D = list(D) end; L = list(1)\nL.add_last[D]",
                "L",
            ),
            // The second index fails on the hash item `x(2)`, also when the
            // result would go to `x` itself.
            ("M = 5\nx = list(1, hash_create(y = 2)); M = x(2)(1)", "M"),
            ("x = list(1, hash_create(y = 2))\nx = x(2)(1)", "x"),
        ] {
            let intact = src.lines().next().unwrap();
            let mut want = Interp::new();
            want.run(intact).unwrap();
            let (t, rt, v, rv) = run_both(src);
            assert_eq!(
                rt.unwrap_err().to_string(),
                rv.unwrap_err().to_string(),
                "on:\n{src}"
            );
            for engine in [&t, &v] {
                assert_eq!(engine.get_value(var), want.get_value(var), "on:\n{src}");
            }
        }
    }

    #[test]
    fn mutators_in_a_function_bind_locally() {
        // `L`, `A` and `H` live in the caller's frame: the function updates
        // its own copies and the caller's stay as they were.
        let i = agree_ok(
            "L = list(1)\nA = [1, 2, 3]\nH.a = 1\n\
             function [n, a, h] = f()\n  L.add_last[2]\n  A(1) = 9\n  H.b = 2\n  n = length(L)\n  a = A(1)\n  h = H.b\nendfunction\n\
             [n, a, h] = f()\nnl = length(L)\na1 = A(1)",
        );
        assert_eq!(scalars(&i, ["n", "a", "h"]), [2.0, 9.0, 2.0]);
        assert_eq!(scalars(&i, ["nl", "a1"]), [1.0, 1.0]);
        assert_eq!(i.get_value("H").unwrap().as_hash().unwrap().len(), 1);
        // An undefined receiver errors identically (arguments first).
        assert_agree("function f()\n  L.add_last[1]\nendfunction\nf()");
        assert_agree("L.add_last[undefined_thing]");
    }

    #[test]
    fn range_deletion_contiguous_and_scattered() {
        let i = agree_ok("L = list(1, 2, 3, 4, 5, 6)\nL(2:4) = []\nn = length(L)\na = L(2)");
        assert_eq!(scalars(&i, ["n", "a"]), [3.0, 5.0]);
        // Unsorted with a repeat: one contiguous run once sorted and de-duplicated.
        let i =
            agree_ok("L = list(1, 2, 3, 4, 5, 6)\nL([3, 1, 2, 2]) = []\nn = length(L)\na = L(1)");
        assert_eq!(scalars(&i, ["n", "a"]), [3.0, 4.0]);
        let i = agree_ok(
            "L = list(1, 2, 3, 4, 5, 6)\nL([5, 1, 3]) = []\nn = length(L)\na = L(1)\nb = L(3)",
        );
        assert_eq!(scalars(&i, ["n", "a", "b"]), [3.0, 2.0, 6.0]);
        // Positions past the end are ignored.
        let i = agree_ok("L = list(1, 2, 3, 4, 5, 6)\nL(5:9) = []\nn = length(L)");
        assert_eq!(scalars(&i, ["n"]), [4.0]);
    }

    #[test]
    fn two_thousand_entry_list_build_agrees() {
        // The gated `fig4_script` workload's result list, at its length.
        let i = agree_ok("res = list()\nfor k = 1:2000 do\n  res.add_last[list(k, k * 0.5)]\nend\nn = length(res)");
        assert_eq!(scalars(&i, ["n"]), [2000.0]);
    }

    #[test]
    fn serialization_builtins_agree() {
        assert_agree(
            "A = list('s', %t, rand(2,2))\nS = serialize(A)\nB = unserialize(S)\nok = B.equal[A]",
        );
    }

    #[test]
    fn exec_binds_in_caller_scope_both_engines() {
        let dir = std::env::temp_dir().join("it_nsp_exec_equiv");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let inner = dir.join("inner.nsp");
        std::fs::write(&inner, "shared = shared + 1\nfresh = rand()\n").unwrap();
        let src = format!(
            "shared = 1\nexec('{p}')\nexec('{p}')\nok = shared == 3",
            p = inner.display()
        );
        assert_agree(&src);
        // A name the exec'd file binds is found by the code after it,
        // also as a call argument and inside a called function.
        let src = format!(
            "shared = 1\nexec('{p}')\ny = min(fresh, 2)\nfunction [r] = g()\n  r = fresh + 1\nendfunction\nz = g()",
            p = inner.display()
        );
        assert_agree(&src);
        // exec inside a function binds into the function's scope, which
        // evaporates on return — the global must stay untouched.
        let src = format!(
            "shared = 1\nfunction [r] = f()\n  shared = 10\n  exec('{p}')\n  r = shared\nendfunction\nx = f()\nok = shared == 1",
            p = inner.display()
        );
        assert_agree(&src);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn premia_session_agrees() {
        assert_agree(
            "P = premia_create()\nP.set_asset[str=\"equity\"]\nP.set_model[str=\"BlackScholes1dim\"]\nP.set_option[str=\"CallEuro\"]\nP.set_method[str=\"CF\"]\nP.compute[]\nL = P.get_method_results[]\nprice = L(1)(3)",
        );
    }

    #[test]
    fn new_workload_class_sessions_agree() {
        // The heterogeneous workload classes are reachable by their
        // Premia-style registry names from scripts, and both engines
        // price them bit-identically: BSDE Picard (Labart–Lelong),
        // XVA/CVA on a netting set, and the multi-dimensional Bermudan
        // max-call via LSM.
        assert_agree(
            "P = premia_create()\nP.set_asset[str=\"equity\"]\nP.set_model[str=\"BlackScholes1dim\"]\nP.set_option[str=\"CallEuro\"]\nP.set_method[str=\"MC_BSDE_LabartLelong\", paths=2048, time_steps=12]\nP.compute[]\nL = P.get_method_results[]\nprice = L(1)(3)",
        );
        assert_agree(
            "P = premia_create()\nP.set_asset[str=\"equity\"]\nP.set_model[str=\"BlackScholes1dim\"]\nP.set_option[str=\"NettingSetForward\"]\nP.set_method[str=\"MC_XVA_CVA\", paths=1024, time_steps=16]\nP.compute[]\nL = P.get_method_results[]\ncva = L(1)(3)",
        );
        assert_agree(
            "P = premia_create()\nP.set_asset[str=\"equity\"]\nP.set_model[str=\"BlackScholesNdim\"]\nP.set_option[str=\"CallMaxBermuda\"]\nP.set_method[str=\"MC_AM_LongstaffSchwartz\", paths=1024, exercise_dates=8, basis_degree=2]\nP.compute[]\nL = P.get_method_results[]\nprice = L(1)(3)",
        );
    }

    #[test]
    fn method_tuning_kwargs_agree() {
        // Keyword overrides patch the named spec; typos and knobs the
        // method doesn't have must fail identically on both engines.
        assert_agree(
            "P = premia_create()\nP.set_method[str=\"MC_BSDE_LabartLelong\", picard_rounds=1, y_prev=0.5, seed=7]",
        );
        assert_agree(
            "P = premia_create()\nP.set_method[str=\"MC_BSDE_LabartLelong\", bogus_knob=1]",
        );
        assert_agree("P = premia_create()\nP.set_method[str=\"CF\", paths=10]");
    }

    #[test]
    fn scripted_picard_sweeps_agree_with_one_shot() {
        // The scripted BSDE driver: one Picard sweep per compute[],
        // feeding y_prev forward — exactly the staged farm's contract —
        // must land bit-for-bit on the one-shot multi-round run. `ok`
        // is an exact float comparison, so snapshot equality across
        // engines plus the tree-engine check below pins both.
        let src = "y = 0\nfor k = 1:3 do\n  P = premia_create()\n  P.set_asset[str=\"equity\"]\n  P.set_model[str=\"BlackScholes1dim\"]\n  P.set_option[str=\"CallEuro\"]\n  P.set_method[str=\"MC_BSDE_LabartLelong\", paths=2048, time_steps=12, picard_rounds=1, y_prev=y]\n  P.compute[]\n  L = P.get_method_results[]\n  y = L(1)(3)\nend\nQ = premia_create()\nQ.set_asset[str=\"equity\"]\nQ.set_model[str=\"BlackScholes1dim\"]\nQ.set_option[str=\"CallEuro\"]\nQ.set_method[str=\"MC_BSDE_LabartLelong\", paths=2048, time_steps=12, picard_rounds=3]\nQ.compute[]\nM = Q.get_method_results[]\nok = y == M(1)(3)";
        assert_agree(src);
        let mut i = Interp::with_engine(Engine::Tree);
        i.run(src).unwrap();
        assert_eq!(i.get_bool("ok"), Some(true), "sweeps must equal one-shot");
    }

    #[test]
    fn fig4_shaped_master_loop_agrees() {
        // The paper's master-side list plumbing (no MPI): build the job
        // list, range-delete the sent prefix, iterate the transposed rest.
        assert_agree(
            "Lpb = list()\nfor k = 1:8 do\n  Lpb.add_last['pb-' + string(k) + '.bin']\nend\nsent = 2\nLpb(1:sent) = []\nnames = ''\nfor pb = Lpb' do\n  names = names + pb\nend\nn = length(Lpb)",
        );
    }

    /// Binds `D` to lists nested as deep as the bound, 128 (`list()` is one).
    const DEEP: &str = "D = list(); for k = 1:127 do D = list(D) end\n";

    #[test]
    fn a_value_as_deep_as_the_bound_round_trips() {
        let path = std::env::temp_dir().join(format!("it_nsp_depth_{}.bin", std::process::id()));
        let i = agree_ok(&format!(
            "{DEEP}S = serialize(D)\nE = unserialize(S)\nsave('{p}', D)\nF = load('{p}')\n\
             ok = E.equal[D] && F.equal[D]",
            p = path.display()
        ));
        std::fs::remove_file(&path).ok();
        assert_eq!(i.get_bool("ok"), Some(true));
        assert_eq!(i.get_value("D").unwrap().depth(), 128);
    }

    #[test]
    fn a_value_as_deep_as_the_bound_crosses_mpi() {
        use minimpi::World;
        use std::rc::Rc;
        for engine in [Engine::Tree, Engine::Vm] {
            let got = World::run(2, |comm| {
                let rank = comm.rank();
                let mut interp = Interp::with_comm(Rc::new(comm));
                interp.set_engine(engine);
                let talk = if rank == 0 {
                    "MPI_Send_Obj(D, 1, 3, MCW)"
                } else {
                    "E = MPI_Recv_Obj(0, 3, MCW)\nok = E.equal[D]"
                };
                let src = format!("{DEEP}MCW = mpicomm_create('WORLD')\n{talk}");
                interp.run(&src).unwrap();
                interp.get_bool("ok")
            });
            assert_eq!(got, [None, Some(true)], "{engine:?}");
        }
    }

    #[test]
    fn a_ten_thousand_deep_build_is_an_error_not_an_abort() {
        let src = "L = list()\nfor k = 1:10000 do\n  L = list(L)\nend";
        let run = std::thread::Builder::new().stack_size(2 << 20);
        let run = run.spawn(move || {
            let (t, rt) = agree(src);
            (rt.map_err(|e| e.message), t.get_scalar("k"))
        });
        let (r, k) = run.unwrap().join().unwrap();
        assert_eq!(r, Err("value nested deeper than 128".to_string()));
        assert_eq!(k, Some(128.0));
    }

    #[test]
    fn operands_and_arguments_read_in_place_keep_value_semantics() {
        // A local operand of a binary operator is read where it is; a
        // string passed to a user function is shared, not copied. None of
        // that may show.
        let id = "function [r] = id(s)\n  r = s\nendfunction\n";
        let i = agree_ok(&format!(
            "{id}function [r] = grow(s)\n  s = s + 'x'\n  r = s\nendfunction\n\
             name = 'ab'\ny = grow(name)\nz = name\nw = id(name)\nname = name + 'c'\n\
             e = name == ''\nf = name == name\ng = '' == name"
        ));
        assert_eq!(i.get_value("y").unwrap().as_str(), Some("abx"));
        assert_eq!(i.get_value("z").unwrap().as_str(), Some("ab"));
        assert_eq!(i.get_value("w").unwrap().as_str(), Some("ab"));
        assert_eq!(i.get_bool("e"), Some(false));
        assert_eq!(i.get_bool("f"), Some(true));
        // A list shared with a callee that appends to its own copy.
        let i = agree_ok(
            "function [r] = g(a)\n  a.add_last[3]\n  r = length(a)\nendfunction\n\
             L = list(1, 2)\nn = g(L)\nm = length(L)\nM = L\nk = g(M)",
        );
        assert_eq!(scalars(&i, ["n", "m", "k"]), [3.0, 2.0, 3.0]);
        for src in [
            // An operand not bound yet: an error, or a zero-argument call
            // that runs where the operand stands, before `h()`.
            "y = q + 1\nq = 2",
            "function [r] = g()\n  disp('g')\n  r = 1\nendfunction\n\
             function [r] = h()\n  disp('h')\n  r = 2\nendfunction\n\
             y = g + 1\nz = g + h()\nw = h() + g\ng = 5",
            "x = 3\nx = x + x\ny = x == 6\ns = 'a'\nt = s + s",
            "L = list(1)\nn = length(L) + length(L.add_last[2])",
            // A local argument after the others is read (or resolved) in
            // argument order, after them, and before the callee is looked
            // up.
            "y = nosuch(q, 1)\nq = 2",
            "function [r] = g()\n  disp('g')\n  r = 1\nendfunction\n\
             function [r] = h()\n  disp('h')\n  r = 2\nendfunction\n\
             y = min(h(), g)\nz = min(g, -1)\ng = 5",
            "function [r] = g(a, b)\n  r = length(a) + 10 * length(b)\nendfunction\n\
             L = list(1)\ny = g(L.add_last[2], L)",
        ] {
            assert_agree(src);
        }
    }

    #[test]
    fn a_copy_of_a_handle_is_the_same_object() {
        // A Premia object copied and set up through the copy is priced
        // through the original name.
        let i = agree_ok(
            "P = premia_create()\nQ = P\nQ.set_asset[str=\"equity\"]\nQ.set_model[str=\"BlackScholes1dim\"]\n\
             Q.set_option[str=\"CallEuro\"]\nQ.set_method[str=\"CF\"]\nP.compute[]\n\
             L = P.get_method_results[]\nprice = L(1)(3)",
        );
        assert!(i.get_scalar("price").is_some_and(|p| p > 0.0));
        // A receive into a copy of an mpibuf fills the original.
        let runs = agree_on_two_ranks([
            "b = MPI_Pack('hello', MCW)\nMPI_Send(b, 1, 7, MCW)",
            "buf = mpibuf_create(100)\nb2 = buf\nst = MPI_Recv(b2, 0, 7, MCW)\nv = MPI_Unpack(buf, MCW)",
        ]);
        assert_eq!(runs[1].0, Ok(()));
        assert_eq!(runs[1].1["v"], bytes_of("v = 'hello'", "v"));
    }

    #[test]
    fn an_item_of_a_local_list_is_indexed_in_place() {
        // `L(i)(j)` reads the item where it lies, and errs as the copy
        // did; anything else takes the two steps it always took.
        let i = agree_ok(
            "L = list(list('Price', 0, 3.5), 7, list(1, 2))\np = L(1)(3)\ns = L(1)(1)\n\
             q = L(2)(1)\nr = L(3)(1:2)\nH = list(hash_create(a = 4))\nh = H(1)('a')\n\
             function [r] = G(i)\n  r = list(i, i + 1)\nendfunction\ng = G(1)(2)\nG = 5",
        );
        assert_eq!(scalars(&i, ["p", "q", "h", "g"]), [3.5, 7.0, 4.0, 2.0]);
        assert_eq!(i.get_value("s").unwrap().as_str(), Some("Price"));
        for (src, msg) in [
            (
                "L = list(list(1))\np = L(2)(1)",
                "list index 2 out of bounds (1)",
            ),
            (
                "L = list(list(1))\np = L(1)(2)",
                "list index 2 out of bounds (1)",
            ),
            (
                "L = list(list(1))\np = L(0.5)(1)",
                "list index 0 out of bounds (1)",
            ),
            ("L = list('s')\np = L(1)(1)", "cannot index string"),
            ("L = list(list(1))\np = L(1)()", "lists take one index"),
            ("L = list(list(1))\np = L()(1)", "lists take one index"),
            ("p = L(1)(1)\nL = 2", "unknown function L"),
        ] {
            let (_, r) = agree(src);
            assert_eq!(r.unwrap_err().message, msg, "{src}");
        }
    }

    /// What one rank of a two-rank world left: its rendered error, its
    /// bindings and its `disp` output.
    type RankRun = (Result<(), String>, BTreeMap<String, String>, Vec<String>);

    /// `srcs[r]` on rank `r` of a two-rank world, `MCW` bound first.
    fn on_two_ranks(engine: Engine, srcs: [&str; 2]) -> Vec<RankRun> {
        minimpi::World::run(2, |comm| {
            let rank = comm.rank();
            let mut i = Interp::with_comm(std::rc::Rc::new(comm));
            i.set_engine(engine);
            let src = format!("MCW = mpicomm_create('WORLD')\n{}", srcs[rank]);
            let r = i.run(&src).map_err(|e| e.to_string());
            (r, snapshot(&i), i.output.clone())
        })
    }

    /// [`on_two_ranks`] on both engines, which must agree.
    #[track_caller]
    fn agree_on_two_ranks(srcs: [&str; 2]) -> Vec<RankRun> {
        let tree = on_two_ranks(Engine::Tree, srcs);
        assert_eq!(tree, on_two_ranks(Engine::Vm, srcs), "on {srcs:?}");
        tree
    }

    /// The XDR bytes `src` binds to `name` on a one-rank interpreter.
    fn bytes_of(src: &str, name: &str) -> String {
        let (i, r) = agree(src);
        r.unwrap();
        snapshot(&i).remove(name).expect("bound")
    }

    #[test]
    fn mpi_ranks_and_tags_are_integers_or_refused() {
        // A rank or a tag that is not an integer is refused, not truncated
        // into one (a destination of 1.5 reached rank 1, NaN rank 0, a
        // source of 0.9 received from rank 0, tag 7.9 was tag 7).
        let idle = "ok = 1";
        let send = "MPI_Send_Obj(45, 1, 7, MCW)";
        let packed = "b = MPI_Pack(46, MCW)\nMPI_Send(b, 1, 7, MCW)";
        for (srcs, rank, msg) in [
            (
                ["MPI_Send_Obj(42, 1.5, 7, MCW)", idle],
                0,
                "destination must be an integer, got 1.5",
            ),
            (
                ["MPI_Send_Obj(43, 0/0, 7, MCW)", idle],
                0,
                "destination must be an integer, got NaN",
            ),
            (
                ["MPI_Send_Obj(44, 1, 7.9, MCW)", idle],
                0,
                "tag must be an integer, got 7.9",
            ),
            (
                ["MPI_Send_Obj(44, 1e10, 7, MCW)", idle],
                0,
                "destination 10000000000 is out of range",
            ),
            (
                ["b = MPI_Pack(46, MCW)\nMPI_Send(b, 1.25, 7, MCW)", idle],
                0,
                "destination must be an integer, got 1.25",
            ),
            (
                [send, "x = MPI_Recv_Obj(0.9, 7, MCW)"],
                1,
                "source must be an integer, got 0.9",
            ),
            (
                [send, "st = MPI_Probe(0, 7.5, MCW)"],
                1,
                "tag must be an integer, got 7.5",
            ),
            (
                [
                    packed,
                    "b = mpibuf_create(100)\nst = MPI_Recv(b, -0.5, 7, MCW)",
                ],
                1,
                "source must be an integer, got -0.5",
            ),
        ] {
            let runs = agree_on_two_ranks(srcs);
            let err = runs[rank].0.clone().expect_err("refused");
            assert!(err.ends_with(msg), "{err} on {srcs:?}");
            assert_eq!(runs[1 - rank].0, Ok(()), "{srcs:?}");
        }
        // -1 stays ANY_SOURCE and ANY_TAG.
        let runs = agree_on_two_ranks([
            send,
            "st = MPI_Probe(-1, -1, MCW)\nx = MPI_Recv_Obj(-1, -1, MCW)",
        ]);
        assert_eq!(runs[1].0, Ok(()));
        assert_eq!(runs[1].1["x"], bytes_of("x = 45", "x"));
    }

    #[test]
    fn a_status_reads_as_the_hash_it_stands_for() {
        // What `MPI_Probe` and `MPI_Recv` return is read, shown, stored
        // and sent as the hash `src`/`tag`/`count`, on both engines.
        let send = "MPI_Send_Obj('hello', 1, 5, MCW)\nb = MPI_Pack(list(1, 2), MCW)\nMPI_Send(b, 1, 6, MCW)";
        let reads = "st = MPI_Probe(0, 5, MCW)\nn = MPI_Get_count(st)\n\
                     h = hash_create(src = 0, tag = 5, count = n)\n\
                     s = st.src\nt = st.tag\nc = st.count\ne = MPI_Get_elements(st, '')\n\
                     disp(st)\ndisp(h)\nS = serialize(st)\nU = unserialize(S)\nL = list(st)\n\
                     ok = U.equal[h] && L(1).equal[h] && st.equal[h] && st == h && S.equal[serialize(h)]\n\
                     x = MPI_Recv_Obj(0, 5, MCW)\n\
                     buf = mpibuf_create(MPI_Get_elements(MPI_Probe(0, 6, MCW), ''))\n\
                     r = MPI_Recv(buf, 0, 6, MCW)\nrt = r.tag\nrc = MPI_Get_count(r)\n\
                     moved = r\nr.src = 3\nset = r.equal[hash_create(src = 3, tag = 6, count = rc)]";
        let runs = agree_on_two_ranks([send, reads]);
        assert_eq!(runs[1].0, Ok(()));
        let (got, out) = (&runs[1].1, &runs[1].2);
        // The byte counts of the two messages.
        use riskbench::nspval::Value;
        let len = |v: Value| riskbench::xdrser::serialize_to_bytes(&v).len();
        let hello = len(Value::string("hello"));
        let pair = len(Value::list(vec![Value::scalar(1.0), Value::scalar(2.0)]));
        for (name, want) in [
            ("s", "0".to_string()),
            ("t", "5".to_string()),
            ("n", hello.to_string()),
            ("c", hello.to_string()),
            ("e", hello.to_string()),
            ("rt", "6".to_string()),
            ("rc", pair.to_string()),
            ("ok", "%t".to_string()),
            ("set", "%t".to_string()),
        ] {
            assert_eq!(got[name], bytes_of(&format!("v = {want}"), "v"), "{name}");
        }
        assert_eq!(out[0], out[1], "disp(st) shows disp(h)");
        // A status binding is its hash; the assigned one is a hash.
        assert_eq!(got["st"], got["h"]);
        let moved = format!("v = hash_create(src = 0, tag = 6, count = {pair})");
        assert_eq!(got["moved"], bytes_of(&moved, "v"));
        for (stmt, msg) in [
            ("z = st.nosuch", "hash has no field nosuch"),
            ("z = h.nosuch", "hash has no field nosuch"),
            ("z = st + 1", "cannot apply Add to hash and real matrix"),
            ("z = size(st)", "size of hash"),
            ("for z = st do\nend", "cannot iterate over hash"),
            ("if st then\n z = 1\nend\nz = st('count')", ""),
        ] {
            let src = format!(
                "st = MPI_Probe(0, 5, MCW)\nh = hash_create(src = 0, tag = 5, count = 20)\n{stmt}"
            );
            let runs = agree_on_two_ranks(["MPI_Send_Obj('hello', 1, 5, MCW)", &src]);
            match runs[1].0.as_ref() {
                Err(e) => assert!(!msg.is_empty() && e.ends_with(msg), "{e} on {stmt}"),
                Ok(()) => assert!(msg.is_empty(), "{stmt} ran"),
            }
        }
    }

    #[test]
    fn a_sent_buffer_is_moved_only_when_nothing_else_holds_it() {
        // `MPI_Send` of the last statement of a function consumes the
        // buffer its local held alone; a buffer still bound elsewhere is
        // copied, so each later send and unpack sees all of its bytes.
        let sends = "function f(v)\n  b = MPI_Pack(v, MCW)\n  MPI_Send(b, 1, 7, MCW)\nendfunction\n\
                     function g(v)\n  b = MPI_Pack(v, MCW)\n  keep = b\n  MPI_Send(b, 1, 8, MCW)\n  MPI_Send(keep, 1, 9, MCW)\nendfunction\n\
                     function [b] = h(v)\n  b = MPI_Pack(v, MCW)\n  MPI_Send(b, 1, 10, MCW)\nendfunction\n\
                     c = MPI_Pack('top', MCW)\nMPI_Send(c, 1, 11, MCW)\nMPI_Send(c, 1, 12, MCW)\n\
                     f('one')\ng('two')\nd = h('three')\nMPI_Send(d, 1, 13, MCW)\nback = MPI_Unpack(c, MCW)";
        let recvs = "function [v] = take(tag)\n  st = MPI_Probe(0, tag, MCW)\n  buf = mpibuf_create(MPI_Get_count(st))\n\
                     st = MPI_Recv(buf, 0, tag, MCW)\n  v = MPI_Unpack(buf, MCW)\nendfunction\n\
                     a = list(take(11), take(12), take(7), take(8), take(9), take(10), take(13))";
        let runs = agree_on_two_ranks([sends, recvs]);
        assert_eq!((&runs[0].0, &runs[1].0), (&Ok(()), &Ok(())));
        assert_eq!(runs[0].1["back"], bytes_of("v = 'top'", "v"));
        let want = "a = list('top', 'top', 'one', 'two', 'two', 'three', 'three')";
        assert_eq!(runs[1].1["a"], bytes_of(want, "a"));
    }
}

// ---- explicit span rendering ------------------------------------------------

mod error_spans {
    use nsplang::{Engine, Interp};

    /// Rendered `line:col` spans for three representative bad scripts, on
    /// both engines (lexer, runtime-in-statement, runtime-in-nested-block).
    fn rendered(src: &str, engine: Engine) -> String {
        let mut i = Interp::with_engine(engine);
        i.run(src).unwrap_err().to_string()
    }

    #[test]
    fn lex_error_carries_position() {
        for e in [Engine::Tree, Engine::Vm] {
            let msg = rendered("x = 1\ny = @", e);
            assert!(
                msg.contains("2:5"),
                "lex error should point at 2:5, got: {msg}"
            );
        }
    }

    #[test]
    fn runtime_error_points_at_statement() {
        for e in [Engine::Tree, Engine::Vm] {
            let msg = rendered("x = 1\ny = x + undefined_thing", e);
            assert_eq!(msg, "nsp error at 2:1: undefined variable undefined_thing");
        }
    }

    #[test]
    fn nested_statement_span_wins() {
        for e in [Engine::Tree, Engine::Vm] {
            let msg = rendered("ok = 1\nfor k = 1:3 do\n  y = k(2)\nend", e);
            assert_eq!(msg, "nsp error at 3:3: index 2 out of bounds");
        }
    }
}

// ---- unserialize decodes a problem from its bytes ---------------------------
//
// `unserialize` reads a plain serial as a problem first
// (`PremiaProblem::from_xdr_bytes`) and falls back to the general path. The
// general path is the oracle: `xdrser::unserialize`, then `NValue::wrap`.

mod direct_unserialize {
    use super::registry::registry;
    use nsplang::{Engine, Interp, NValue};
    use riskbench::nspval::{Hash, Serial, Value};
    use riskbench::xdrser::{compress_serial, serialize_to_bytes, unserialize};

    /// A Premia object or plain data, as the XDR bytes of its value; or
    /// the error text.
    type Outcome = Result<(bool, Vec<u8>), String>;

    fn outcome_of(v: &NValue) -> (bool, Vec<u8>) {
        let bytes = serialize_to_bytes(&v.to_value().expect("plain or Premia"));
        (matches!(v, NValue::Premia(_)), bytes)
    }

    fn general_path(s: &Serial) -> Outcome {
        let v = unserialize(s).map_err(|e| e.to_string())?;
        Ok(outcome_of(&NValue::wrap(v)))
    }

    fn scripted(s: &Serial, engine: Engine, src: &str) -> Outcome {
        let mut i = Interp::with_engine(engine);
        i.set("S", NValue::V(Value::Serial(s.clone())));
        i.run(src).map_err(|e| e.message)?;
        Ok(outcome_of(i.get("P").expect("P bound")))
    }

    #[track_caller]
    fn assert_same(s: &Serial) -> Outcome {
        let want = general_path(s);
        for engine in [Engine::Tree, Engine::Vm] {
            for src in ["P = unserialize(S)", "P = S.unserialize[]"] {
                assert_eq!(scripted(s, engine, src), want, "{src} on {engine:?}");
            }
        }
        want
    }

    fn serial_of(v: &Value) -> Serial {
        Serial::new(serialize_to_bytes(v))
    }

    #[test]
    fn every_registry_problem_plain_compressed_and_truncated() {
        for p in registry() {
            let bytes = p.to_xdr_bytes();
            let plain = Serial::new(bytes.clone());
            let (premia, _) = assert_same(&plain).expect("a problem decodes");
            assert!(premia, "{} becomes a Premia object", p.label());
            assert_same(&compress_serial(&plain).unwrap()).expect("compressed decodes");
            for cut in [bytes.len() / 2, bytes.len() - 1] {
                assert!(assert_same(&Serial::new(bytes[..cut].to_vec())).is_err());
            }
        }
    }

    #[test]
    fn what_is_not_a_problem_stays_plain_data_or_the_same_error() {
        // A `PremiaModel` hash that `from_value` refuses, a hash that is not
        // a problem, a non-hash, and bytes that are no serialization.
        let mut half = Hash::new();
        half.set("class", Value::string("PremiaModel"));
        half.set("asset", Value::string("equity"));
        let mut other = Hash::new();
        other.set("a", Value::scalar(1.0));
        for v in [Value::Hash(half), Value::Hash(other), Value::scalar(2.0)] {
            let (premia, _) = assert_same(&serial_of(&v)).expect("plain data decodes");
            assert!(!premia);
        }
        assert!(assert_same(&Serial::new(Vec::new())).is_err());
        assert!(assert_same(&Serial::new(vec![7; 12])).is_err());
    }
}

// ---- both engines under MPI -------------------------------------------------

#[test]
fn rank_parallel_send_recv_agrees_across_engines() {
    use nsplang::Engine;
    // The §3.2 object send/recv exchange, once per engine; receiving rank
    // must see bit-identical bytes (same RNG stream on rank 0).
    let run_with = |engine: Engine| -> Vec<u8> {
        let outputs = World::run(2, move |comm| {
            let rank = comm.rank();
            let mut interp = Interp::with_comm(Rc::new(comm));
            interp.set_engine(engine);
            if rank == 0 {
                interp
                    .run("MCW = mpicomm_create('WORLD')\nA = list('string', %t, rand(4,4))\nMPI_Send_Obj(A, 1, 3, MCW)")
                    .unwrap();
                Vec::new()
            } else {
                interp
                    .run("MCW = mpicomm_create('WORLD')\nB = MPI_Recv_Obj(0, 3, MCW)")
                    .unwrap();
                riskbench::xdrser::serialize_to_bytes(&interp.get_value("B").unwrap())
            }
        });
        outputs[1].clone()
    };
    let tree_bytes = run_with(Engine::Tree);
    let vm_bytes = run_with(Engine::Vm);
    assert!(!tree_bytes.is_empty());
    assert_eq!(
        tree_bytes, vm_bytes,
        "cross-rank payloads must be bit-identical"
    );
}

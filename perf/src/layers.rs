//! Per-layer metrics of a traced run. Two sources, both outside the
//! crates under test:
//!
//! * **layer replays** — timed calls into each crate's public functions
//!   from here, over the workload's generated inputs;
//! * **recorder breakdowns** — the events an `obs::Recorder` attached
//!   through `FarmConfig::recorder` / `ServeConfig::recorder` /
//!   `World::run_instrumented` collected during the traced passes.
//!
//! Every traced run reports every metric in `metrics::PER_LAYER`; one
//! that has no meaning on the workload at hand (the open-loop rate
//! ladder on a farm) reads 0.

use crate::gen::{self, Portfolio};
use crate::metrics::PER_LAYER;
use crate::run::Measured;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Pass, Spec, Workload, LATENCY_LIMIT_US, OPEN_RATE};
use clustersim::{NfsCache, SimConfig, SimJob};
use exec::{ExecPolicy, StatsSink};
use farm::portfolio::{representative_problem, JobClass, PortfolioJob, PortfolioScale};
use farm::strategy::{prepare_payload, recover_problem, WirePolicy};
use farm::{FarmConfig, Transmission};
use minimpi::{MpiBuf, World};
use nspval::Value;
use obs::{Breakdown, EventKind, Recorder};
use pricing::{MethodSpec, PremiaProblem};
use rand::SeedableRng;
use sched::{Action, DispatchPolicy, Event as SchedEvent, SchedConfig, Scheduler};
use serve::{Request, ServeConfig, Session};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{CachingStore, ContentFingerprint, DirStore, MemoKey, ProblemStore, ResultCache};
use transport::{ChannelGroup, Frame, Payload, Transport, UdsTransport};

/// What the run hands the layer stage.
pub struct Facts<'a> {
    pub spec: &'a Spec,
    /// Seconds the in-process reference took per problem.
    pub job_secs: &'a [f64],
    pub plain: &'a [Pass],
    pub traced: &'a [Pass],
    /// Host speed during each untraced pass (see `host`).
    pub host_speeds: &'a [f64],
    /// Wall-clock the replays may spend.
    pub budget: Duration,
}

/// Operations the layer stage itself attempted against the program.
#[derive(Debug, Default)]
pub struct Extra {
    pub attempted: u64,
    pub failed: u64,
}

/// Replay slices per budget: ~70 micro-replays plus a dozen larger ones.
const SLICES: u32 = 110;
/// Toy problems staged for replays on workloads that have no files, and
/// for the script-versus-farm comparison.
const REPLAY_JOBS: usize = 400;
const TAG: i32 = 7;

type Out = BTreeMap<&'static str, Summary>;

/// Call `f` in batches for about `slice`; each sample is one batch's
/// mean seconds per call. Batches are sized to ~0.5 ms so the clock
/// reads cost nothing next to the work.
fn bench(slice: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let batch = ((0.5e-3 / once) as usize).clamp(1, 100_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < slice {
        let b0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(b0.elapsed().as_secs_f64() / batch as f64);
    }
    samples
}

/// Indices `1, 2, …, n − 1, 0, 1, …`: the replays walk their inputs
/// round-robin so no call sees the input the previous one just touched.
fn cycle(n: usize) -> impl FnMut() -> usize {
    let mut i = 0;
    move || {
        i = (i + 1) % n;
        i
    }
}

fn scaled(samples: &[f64], factor: f64) -> Summary {
    let v: Vec<f64> = samples.iter().map(|s| s * factor).collect();
    Summary::of(&v)
}

/// Throughput samples: `units` of work per call.
fn rate(samples: &[f64], units: f64) -> Summary {
    let v: Vec<f64> = samples.iter().map(|s| units / s).collect();
    Summary::of(&v)
}

fn paths_of(p: &PremiaProblem) -> f64 {
    match p.method {
        MethodSpec::MonteCarlo { paths, .. }
        | MethodSpec::Lsm { paths, .. }
        | MethodSpec::Bsde { paths, .. }
        | MethodSpec::Xva { paths, .. } => paths as f64,
        _ => 1.0,
    }
}

/// Files the file-based replays read: the workload's own, or a staged
/// toy set when it has none. Also the values and bytes behind them.
struct ReplayInputs {
    files: Vec<PathBuf>,
    strategy: Transmission,
    values: Vec<Value>,
    bytes: Vec<Vec<u8>>,
    /// Mean serialized size of one problem.
    mean_bytes: f64,
    scratch: PathBuf,
}

/// A seeded toy portfolio saved the way the Fig. 4 script reads it, so
/// one staged set serves the script replay and the file replays.
fn stage_toy(
    dir: &Path,
    count: usize,
    seed: u64,
) -> Result<(Vec<PortfolioJob>, Vec<PathBuf>), String> {
    let jobs = gen::farm_jobs(Portfolio::Toy(count), seed);
    let (files, _) = workloads::save_for_script(&jobs, dir)?;
    Ok((jobs, files))
}

fn replay_inputs(f: &Facts, w: &dyn Workload) -> Result<ReplayInputs, String> {
    let scratch = f.spec.workdir.join("replay");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let (files, strategy) = match w.farm_inputs() {
        // A few hundred files are plenty for a per-file cost and keep
        // the replays inside their slices.
        Some((_, files, strategy)) => (files.iter().take(512).cloned().collect(), strategy),
        None => {
            let (_, files) = stage_toy(&scratch.join("toy"), REPLAY_JOBS, f.spec.seed)?;
            (files, Transmission::SerializedLoad)
        }
    };
    let mut values = Vec::with_capacity(files.len());
    let mut bytes = Vec::with_capacity(files.len());
    for path in &files {
        let v = xdrser::load(path).map_err(|e| format!("load {path:?}: {e}"))?;
        bytes.push(xdrser::serialize_to_bytes(&v));
        values.push(v);
    }
    let mean_bytes = bytes.iter().map(Vec::len).sum::<usize>() as f64 / bytes.len() as f64;
    Ok(ReplayInputs {
        files,
        strategy,
        values,
        bytes,
        mean_bytes,
        scratch,
    })
}

// ---------------------------------------------------------------------------
// pricing / exec / numerics
// ---------------------------------------------------------------------------

fn pricing_layer(
    out: &mut Out,
    f: &Facts,
    w: &dyn Workload,
    slice: Duration,
) -> Result<(), String> {
    // A farm's reference is computed once, over the whole portfolio; a
    // serve pass computes the reference of its own never-seen problems.
    let per_pass: Vec<f64> = f.plain.iter().map(|p| p.reference_s).collect();
    let serial = if per_pass.iter().any(|s| *s > 0.0) {
        Summary::of(&per_pass)
    } else {
        Summary::single(f.job_secs.iter().sum())
    };
    out.insert("pricing.serial_s", serial);

    let kernels: [(&'static str, JobClass, f64); 9] = [
        ("pricing.vanilla_cf_ns", JobClass::VanillaClosedForm, 1e9),
        ("pricing.barrier_pde_us", JobClass::BarrierPde, 1e6),
        ("pricing.american_pde_us", JobClass::AmericanPde, 1e6),
        ("pricing.basket_mc_ns_per_path", JobClass::BasketMc, 1e9),
        ("pricing.localvol_mc_ns_per_path", JobClass::LocalVolMc, 1e9),
        (
            "pricing.american_lsm_ns_per_path",
            JobClass::AmericanBasketLsm,
            1e9,
        ),
        (
            "pricing.bermudan_lsm_ns_per_path",
            JobClass::BermudanMaxLsm,
            1e9,
        ),
        ("pricing.bsde_ns_per_path", JobClass::BsdePicardMc, 1e9),
        ("pricing.xva_ns_per_path", JobClass::XvaCvaMc, 1e9),
    ];
    for (name, class, unit) in kernels {
        let p = representative_problem(class, PortfolioScale::Quick).problem;
        p.compute().map_err(|e| format!("{name}: {e}"))?;
        let s = bench(slice, || {
            black_box(black_box(&p).compute().ok());
        });
        out.insert(name, scaled(&s, unit / paths_of(&p)));
    }

    // Measured lane speed-up: the same local-vol Monte-Carlo at lane
    // widths 1, 4 and 8 on the sequential executor.
    let mut lv = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
    if let MethodSpec::MonteCarlo { paths, .. } = &mut lv.method {
        *paths = 16_384;
    }
    let lane_time = |width: usize| -> Result<f64, String> {
        let pol = ExecPolicy::sequential().lanes(width);
        lv.compute_with(&pol)
            .map_err(|e| format!("lanes {width}: {e}"))?;
        Ok(stats::median(&bench(slice, || {
            black_box(lv.compute_with(&pol).ok());
        })))
    };
    let t1 = lane_time(1)?;
    out.insert("pricing.lane4_speedup", Summary::single(t1 / lane_time(4)?));
    out.insert("pricing.lane8_speedup", Summary::single(t1 / lane_time(8)?));

    let problems = w.sample_problems();
    let values: Vec<Value> = problems.iter().map(PremiaProblem::to_value).collect();
    let mut next = cycle(problems.len());
    let s = bench(slice, || {
        black_box(problems[next()].to_value());
    });
    out.insert("pricing.to_value_ns", scaled(&s, 1e9));
    let s = bench(slice, || {
        black_box(PremiaProblem::from_value(&values[next()]).ok());
    });
    out.insert("pricing.from_value_ns", scaled(&s, 1e9));
    Ok(())
}

fn exec_layer(out: &mut Out, slice: Duration) -> Result<(), String> {
    // Threading cost of the chunked executor: one path-heavy problem on
    // one worker and on two. On the single CPU the benchmark pins itself
    // to, the ceiling is T1 / (2 · T2) = 0.5; what moves the number is
    // the executor's spawn / steal / join overhead.
    const THREADS: usize = 2;
    let mut p = representative_problem(JobClass::LocalVolMc, PortfolioScale::Quick).problem;
    if let MethodSpec::MonteCarlo { paths, .. } = &mut p.method {
        *paths = 32_768;
    }
    let sink = Arc::new(StatsSink::new());
    let one = ExecPolicy::new(1);
    let many = ExecPolicy::new(THREADS).with_sink(sink.clone());
    p.compute_with(&one)
        .map_err(|e| format!("exec replay: {e}"))?;
    let t1 = stats::median(&bench(slice, || {
        black_box(p.compute_with(&one).ok());
    }));
    let tn = stats::median(&bench(slice, || {
        black_box(p.compute_with(&many).ok());
    }));
    out.insert(
        "exec.thread_efficiency",
        Summary::single(t1 / (THREADS as f64 * tn)),
    );
    out.insert("exec.steals", Summary::single(sink.take().steals as f64));

    // Empty chunks: what the executor costs per chunk with no work in it.
    let pol = ExecPolicy::new(1).chunk(1);
    const CHUNKS: usize = 4096;
    let s = bench(slice, || {
        black_box(pol.run(CHUNKS, |c| c.index));
    });
    out.insert("exec.chunk_overhead_ns", scaled(&s, 1e9 / CHUNKS as f64));
    Ok(())
}

fn numerics_layer(out: &mut Out, slice: Duration) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut gauss = numerics::NormalGen::new();
    let mut buf = [0.0f64; 256];
    let s = bench(slice, || {
        gauss.fill(&mut rng, &mut buf);
        black_box(&buf);
    });
    out.insert("numerics.gauss_ns", scaled(&s, 1e9 / buf.len() as f64));

    let mut sobol = numerics::sobol::Sobol::new(8);
    let mut point = [0.0f64; 8];
    let s = bench(slice, || {
        sobol.next_point(&mut point);
        black_box(&point);
    });
    out.insert("numerics.sobol_ns", scaled(&s, 1e9));
}

// ---------------------------------------------------------------------------
// xdr / nspval, store, farm strategy: over the replay files
// ---------------------------------------------------------------------------

fn xdr_layer(out: &mut Out, r: &ReplayInputs, slice: Duration) {
    let mut next = cycle(r.files.len());
    let s = bench(slice, || {
        black_box(xdrser::sload(&r.files[next()]).ok());
    });
    out.insert("xdr.sload_us", scaled(&s, 1e6));
    let s = bench(slice, || {
        black_box(xdrser::load(&r.files[next()]).ok());
    });
    out.insert("xdr.load_us", scaled(&s, 1e6));
    // Rewrite a small ring of scratch files: the cost of *creating* a
    // file on this box swings several-fold for reasons no change to the
    // program could move.
    let ring: Vec<PathBuf> = (0..32)
        .map(|k| r.scratch.join(format!("save-{k}.bin")))
        .collect();
    let s = bench(slice, || {
        let k = next();
        black_box(xdrser::save(&ring[k % ring.len()], &r.values[k]).ok());
    });
    out.insert("xdr.save_us", scaled(&s, 1e6));

    let mb = r.mean_bytes / 1e6;
    let s = bench(slice, || {
        black_box(xdrser::serialize_to_bytes(&r.values[next()]));
    });
    out.insert("xdr.serialize_mbps", rate(&s, mb));
    let s = bench(slice, || {
        black_box(xdrser::unserialize_bytes(&r.bytes[next()]).ok());
    });
    out.insert("xdr.unserialize_mbps", rate(&s, mb));

    let packed: Vec<Vec<u8>> = r
        .bytes
        .iter()
        .map(|b| xdrser::compress::compress_bytes(b))
        .collect();
    let s = bench(slice, || {
        black_box(xdrser::compress::compress_bytes(&r.bytes[next()]));
    });
    out.insert("xdr.compress_mbps", rate(&s, mb));
    let s = bench(slice, || {
        black_box(xdrser::compress::decompress_bytes(&packed[next()]).ok());
    });
    out.insert("xdr.decompress_mbps", rate(&s, mb));
    let packed_bytes = packed.iter().map(Vec::len).sum::<usize>() as f64 / packed.len() as f64;
    out.insert(
        "xdr.compress_ratio",
        Summary::single(packed_bytes / r.mean_bytes),
    );
}

fn store_layer(out: &mut Out, r: &ReplayInputs, slice: Duration) {
    let mut next = cycle(r.files.len());
    let dir = DirStore::new();
    let s = bench(slice, || {
        black_box(dir.fetch(&r.files[next()]).ok());
    });
    out.insert("store.dir_fetch_us", scaled(&s, 1e6));

    let warm = CachingStore::over_dir(1 << 30);
    for path in &r.files {
        let _ = warm.fetch(path);
    }
    let s = bench(slice, || {
        black_box(warm.fetch(&r.files[next()]).ok());
    });
    out.insert("store.cache_hit_us", scaled(&s, 1e6));
    out.insert("store.hit_rate", Summary::single(warm.stats().hit_rate()));
    // A one-byte budget: every entry is oversized, so every fetch goes
    // through the cache's miss path to the directory.
    let cold = CachingStore::over_dir(1);
    let s = bench(slice, || {
        black_box(cold.fetch(&r.files[next()]).ok());
    });
    out.insert("store.cache_miss_us", scaled(&s, 1e6));

    // The serve session's memo: same value type, same 1 MiB budget.
    let key = |k: u64| MemoKey {
        fp: ContentFingerprint {
            hash: k.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            len: 200,
        },
        chunk: 0,
        lanes: 0,
    };
    let mut memo: ResultCache<(f64, Option<f64>)> = ResultCache::new(1 << 20);
    const RESIDENT: u64 = 4096;
    for k in 0..RESIDENT {
        memo.insert(key(k), (k as f64, None), 16);
    }
    let mut k = 0u64;
    let s = bench(slice, || {
        k = (k + 1) % RESIDENT;
        black_box(memo.get(&key(k)));
    });
    out.insert("store.memo_get_ns", scaled(&s, 1e9));
    let mut fresh = RESIDENT;
    let s = bench(slice, || {
        fresh += 1;
        memo.insert(key(fresh), (1.0, None), 16);
    });
    out.insert("store.memo_insert_ns", scaled(&s, 1e9));

    let s = bench(slice, || {
        black_box(ContentFingerprint::of_bytes(&r.bytes[next()]));
    });
    out.insert("store.fingerprint_mbps", rate(&s, r.mean_bytes / 1e6));
}

fn strategy_layer(out: &mut Out, r: &ReplayInputs, slice: Duration) -> Result<(), String> {
    let mut next = cycle(r.files.len());
    let store = DirStore::new();
    let s = bench(slice, || {
        black_box(prepare_payload(&store, r.strategy, &r.files[next()], &WirePolicy::RAW).ok());
    });
    out.insert("farm.prepare_payload_us", scaled(&s, 1e6));
    let payloads: Vec<Option<Value>> = r
        .files
        .iter()
        .map(|p| prepare_payload(&store, r.strategy, p, &WirePolicy::RAW))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("prepare_payload: {e}"))?;
    let s = bench(slice, || {
        let k = next();
        black_box(recover_problem(&store, r.strategy, "", payloads[k].as_ref()).ok());
    });
    out.insert("farm.recover_problem_us", scaled(&s, 1e6));
    Ok(())
}

// ---------------------------------------------------------------------------
// transport / minimpi: ping-pong across two threads
// ---------------------------------------------------------------------------

/// Round-trip seconds of `size`-byte frames between two endpoints, for
/// about `slice`. The echo side runs on a thread of its own.
fn ping_pong<T: Transport + 'static>(
    a: T,
    b: T,
    size: usize,
    slice: Duration,
) -> Result<Vec<f64>, String> {
    const STOP: i32 = 9;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        loop {
            let frame = b
                .match_deadline(0, transport::ANY_TAG, None, true)
                .map_err(|e| format!("echo recv: {e}"))?
                .ok_or("echo: no frame")?;
            if frame.tag == STOP {
                return Ok(());
            }
            b.send(0, Frame::new(1, TAG, frame.payload))
                .map_err(|e| format!("echo send: {e}"))?;
        }
    });
    let payload = vec![0x5au8; size];
    let mut rtts = Vec::new();
    let mut fail = None;
    let start = Instant::now();
    let mut warm = 16;
    while fail.is_none() && (rtts.len() < 8 || start.elapsed() < slice) {
        let t0 = Instant::now();
        let sent = a.send(1, Frame::new(0, TAG, Payload::Owned(payload.clone())));
        let back = sent.and_then(|()| a.match_deadline(1, TAG, None, true));
        match back {
            Ok(Some(f)) if f.payload.len() == size => {}
            Ok(_) => fail = Some("ping: short or missing echo".to_string()),
            Err(e) => fail = Some(format!("ping: {e}")),
        }
        if warm > 0 {
            warm -= 1;
        } else {
            rtts.push(t0.elapsed().as_secs_f64());
        }
    }
    let stopped = a.send(1, Frame::new(0, STOP, Payload::Owned(Vec::new())));
    if stopped.is_err() || fail.is_some() {
        // The echo thread may be blocked on a frame that will never
        // come; tearing the group down wakes it.
        a.poison();
    }
    let echoed = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    match fail {
        Some(e) => Err(e),
        None => echoed.map(|()| rtts),
    }
}

fn transport_layer(out: &mut Out, scratch: &Path, slice: Duration) -> Result<(), String> {
    let sizes: [(usize, &'static str, &'static str, bool); 3] = [
        (
            64,
            "transport.channel_rtt_us",
            "transport.uds_rtt_us",
            false,
        ),
        (
            64 << 10,
            "transport.channel_rtt_64k_us",
            "transport.uds_rtt_64k_us",
            false,
        ),
        (
            1 << 20,
            "transport.channel_mbps_1m",
            "transport.uds_mbps_1m",
            true,
        ),
    ];
    for (size, channel_name, uds_name, as_bandwidth) in sizes {
        let group = ChannelGroup::new(2);
        let channel = ping_pong(group.endpoint(0), group.endpoint(1), size, slice)?;

        let dir = scratch.join(format!("uds-{size}"));
        let peer_dir = dir.clone();
        let peer = std::thread::spawn(move || UdsTransport::connect(&peer_dir, 1, 2));
        let a = UdsTransport::connect(&dir, 0, 2).map_err(|e| format!("uds connect: {e}"));
        let b = peer
            .join()
            .map_err(|_| "uds connect panicked".to_string())?;
        let uds = ping_pong(a?, b.map_err(|e| format!("uds connect: {e}"))?, size, slice)?;

        for (name, rtts) in [(channel_name, channel), (uds_name, uds)] {
            let s = if as_bandwidth {
                // Both directions carry the payload.
                rate(&rtts, 2.0 * size as f64 / 1e6)
            } else {
                scaled(&rtts, 1e6)
            };
            out.insert(name, s);
        }
    }
    Ok(())
}

fn minimpi_layer(
    out: &mut Out,
    r: &ReplayInputs,
    slaves: usize,
    slice: Duration,
) -> Result<(), String> {
    let value = r.values[0].clone();
    // Object ping-pong, then the Fig. 4 receive idiom (probe, size a
    // buffer from the status, recv_into) against raw sends.
    let results = World::run(2, |comm| -> Result<Vec<Vec<f64>>, String> {
        let e = |what: &str, err: minimpi::MpiError| format!("{what}: {err}");
        let stop = Value::empty_matrix();
        if comm.rank() == 1 {
            loop {
                let (v, _) = comm.recv_obj(0, TAG).map_err(|x| e("echo recv_obj", x))?;
                if v.equal(&stop) {
                    break;
                }
                comm.send_obj(&v, 0, TAG)
                    .map_err(|x| e("echo send_obj", x))?;
            }
            loop {
                let st = comm.probe(0, TAG).map_err(|x| e("echo probe", x))?;
                let mut buf = MpiBuf::with_capacity(st.count());
                comm.recv_into(&mut buf, 0, TAG)
                    .map_err(|x| e("echo recv_into", x))?;
                if buf.is_empty() {
                    return Ok(Vec::new());
                }
                comm.send(buf.bytes(), 0, TAG)
                    .map_err(|x| e("echo send", x))?;
            }
        }
        let mut failed = None;
        let obj = bench(slice, || {
            let sent = comm.send_obj(&value, 1, TAG);
            if let Err(x) = sent.and_then(|()| comm.recv_obj(1, TAG).map(|_| ())) {
                failed.get_or_insert(e("obj ping", x));
            }
        });
        comm.send_obj(&stop, 1, TAG).map_err(|x| e("obj stop", x))?;
        let packed = comm.pack(&value);
        let raw = bench(slice, || {
            let sent = comm.send(packed.bytes(), 1, TAG);
            if let Err(x) = sent.and_then(|()| comm.recv(1, TAG).map(|_| ())) {
                failed.get_or_insert(e("raw ping", x));
            }
        });
        comm.send(&[], 1, TAG).map_err(|x| e("raw stop", x))?;
        let pack = bench(slice, || {
            black_box(comm.pack(&value));
        });
        let unpack = bench(slice, || {
            black_box(comm.unpack(&packed).ok());
        });
        match failed {
            Some(err) => Err(err),
            None => Ok(vec![obj, raw, pack, unpack]),
        }
    });
    let mut ranks = results.into_iter();
    let master = ranks.next().ok_or("minimpi replay: no rank 0")??;
    for echo in ranks {
        echo?;
    }
    out.insert("minimpi.obj_rtt_us", scaled(&master[0], 1e6));
    out.insert("minimpi.probe_recv_us", scaled(&master[1], 1e6));
    out.insert("minimpi.pack_ns", scaled(&master[2], 1e9));
    out.insert("minimpi.unpack_ns", scaled(&master[3], 1e9));

    let ranks = slaves + 1;
    let s = bench(slice, || {
        black_box(World::run(ranks, |comm| comm.rank()));
    });
    out.insert("minimpi.spawn_us", scaled(&s, 1e6 / ranks as f64));
    Ok(())
}

// ---------------------------------------------------------------------------
// sched
// ---------------------------------------------------------------------------

/// Walk a whole run through the scheduler: prime the slaves, answer
/// every dispatch. Returns (`on` calls, actions emitted).
fn sched_walk(cfg: SchedConfig) -> Result<(u64, u64), String> {
    let slaves = cfg.slaves;
    let mut sched = Scheduler::new(cfg).map_err(|e| format!("sched config: {e}"))?;
    let (mut calls, mut actions) = (0u64, 0u64);
    let mut inflight: Vec<(usize, usize)> = Vec::new();
    let mut feed = |sched: &mut Scheduler, ev: SchedEvent, inflight: &mut Vec<(usize, usize)>| {
        calls += 1;
        for a in sched.on(ev, calls) {
            actions += 1;
            if let Action::Dispatch { job, slave, .. } = a {
                inflight.push((job, slave));
            }
        }
    };
    for slave in 1..=slaves {
        feed(&mut sched, SchedEvent::SlaveReady { slave }, &mut inflight);
    }
    while let Some((job, slave)) = inflight.pop() {
        feed(&mut sched, SchedEvent::Answer { job, slave }, &mut inflight);
    }
    if !sched.finished() {
        return Err("sched walk ended before the run finished".into());
    }
    Ok((calls, actions))
}

fn sched_layer(out: &mut Out, seed: u64, slice: Duration) -> Result<(), String> {
    const JOBS: usize = 10_000;
    const SLAVES: usize = 8;
    let mut rng = gen::Rng::new(seed);
    let costs: Vec<f64> = (0..JOBS).map(|_| rng.uniform(0.001, 1.0)).collect();
    let fifo = || SchedConfig::plain(JOBS, SLAVES);
    let lpt = || {
        SchedConfig::plain(JOBS, SLAVES).policy(DispatchPolicy::Lpt {
            costs: costs.clone(),
        })
    };
    let (calls, actions) = sched_walk(fifo())?;
    out.insert(
        "sched.actions_per_job",
        Summary::single(actions as f64 / JOBS as f64),
    );
    for (name, cfg) in [
        ("sched.decisions_per_s", &fifo as &dyn Fn() -> SchedConfig),
        ("sched.lpt_decisions_per_s", &lpt),
    ] {
        sched_walk(cfg())?;
        let s = bench(slice, || {
            black_box(sched_walk(cfg()).ok());
        });
        out.insert(name, rate(&s, calls as f64));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// farm / obs: breakdown of the traced passes
// ---------------------------------------------------------------------------

/// The workload's headline timing per pass: request p50 where the pass
/// length is fixed by the arrival schedule, wall-clock everywhere else.
fn primary(f: &Facts, p: &Pass) -> f64 {
    if f.spec.name == "serve_open" {
        stats::percentile(&p.latencies_us, 0.50) / 1e6
    } else {
        p.wall_s
    }
}

fn breakdown_layer(out: &mut Out, f: &Facts, tr: &mut Tracer) {
    let slaves = f.spec.slaves as f64;
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut dropped = 0u64;
    for (k, p) in f.traced.iter().enumerate() {
        let Some((events, lost)) = &p.events else {
            continue;
        };
        dropped += lost;
        if k == 0 {
            // One pass of program-side events is enough to look at.
            tr.add_rank_spans(events, p.events_offset_ns);
        }
        let b = Breakdown::from_events(events);
        // `+ 0.0`: an empty sum of floats is -0.0, which prints oddly.
        let mut push = |name, v: f64| cols.entry(name).or_default().push(v + 0.0);
        push("farm.prepare_s", b.prepare_s());
        push("farm.wire_s", b.wire_s());
        push("farm.wait_s", b.wait_s());
        push("farm.compute_s", b.compute_s());
        push("farm.messages", b.count_of(EventKind::Send) as f64);
        push("farm.bytes", b.bytes_of(EventKind::Send) as f64);
        // Busy = every primary span that is not waiting for a message.
        let waits = [EventKind::Probe, EventKind::Recv];
        let busy = |on_master: bool| -> f64 {
            events
                .iter()
                .filter(|e| (e.rank == 0) == on_master)
                .filter(|e| !waits.contains(&e.kind) && !EventKind::DIAGNOSTIC.contains(&e.kind))
                .map(|e| e.dur_ns as f64 / 1e9)
                .sum()
        };
        push("farm.master_busy_frac", busy(true) / p.wall_s);
        push("farm.slave_busy_frac", busy(false) / (p.wall_s * slaves));
    }
    for name in [
        "farm.prepare_s",
        "farm.wire_s",
        "farm.wait_s",
        "farm.compute_s",
        "farm.messages",
        "farm.bytes",
        "farm.master_busy_frac",
        "farm.slave_busy_frac",
    ] {
        out.insert(
            name,
            Summary::of(cols.get(name).map_or(&[][..], Vec::as_slice)),
        );
    }

    let per_job: Vec<f64> = f
        .plain
        .iter()
        .map(|p| p.wall_s * 1e6 / p.problems.max(1) as f64)
        .collect();
    out.insert("farm.per_job_us", Summary::of(&per_job));
    let wall = stats::median(&f.plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let serial = out["pricing.serial_s"].value;
    out.insert("farm.efficiency", Summary::single(serial / (wall * slaves)));
    let passes = || f.plain.iter().chain(f.traced);
    let retries: u64 = passes()
        .map(|p| {
            let farm = p.retries;
            let serve = p
                .serve
                .as_ref()
                .and_then(|s| s.report.as_ref())
                .map_or(0, |r| r.retries);
            farm + serve
        })
        .sum();
    out.insert("farm.retries", Summary::single(retries as f64));
    out.insert(
        "farm.failed",
        Summary::single(passes().map(|p| p.failed).sum::<u64>() as f64),
    );

    out.insert("obs.dropped", Summary::single(dropped as f64));
    let med = |ps: &[Pass]| stats::median(&ps.iter().map(|p| primary(f, p)).collect::<Vec<_>>());
    out.insert(
        "obs.overhead_ratio",
        Summary::single(med(f.traced) / med(f.plain)),
    );
}

fn obs_layer(out: &mut Out, slice: Duration) {
    let rec = Recorder::with_capacity(1, 1 << 12);
    let s = bench(slice, || {
        let t = rec.now_ns();
        rec.record_span(0, EventKind::Compute, 1, t, 0);
    });
    out.insert("obs.record_ns", scaled(&s, 1e9));
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// What the serve metrics are computed from: the workload's own passes
/// on a serve workload, a short closed-loop replay elsewhere.
#[derive(Default)]
struct ServeFacts {
    /// Per-pass p99 over all requests.
    p99_us: Vec<f64>,
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    submit_us: Vec<f64>,
    gen_lag_us: Vec<f64>,
    start_us: Vec<f64>,
    shutdown_us: Vec<f64>,
    memo_hit_rate: f64,
    shed: u64,
    /// Requests shed, failed, wrong or over the latency limit.
    missed: u64,
    attempted: u64,
}

fn serve_facts_of_passes(f: &Facts) -> ServeFacts {
    let mut s = ServeFacts {
        p99_us: f
            .plain
            .iter()
            .map(|p| stats::percentile(&p.latencies_us, 0.99))
            .collect(),
        ..ServeFacts::default()
    };
    let (mut hits, mut lookups) = (0u64, 0u64);
    for p in f.plain.iter().chain(f.traced) {
        let Some(d) = &p.serve else { continue };
        // Per-pass medians, so one slow pass is one sample.
        for (to, from) in [
            (&mut s.cold_us, &d.cold_us),
            (&mut s.warm_us, &d.warm_us),
            (&mut s.submit_us, &d.submit_us),
        ] {
            if !from.is_empty() {
                to.push(stats::median(from));
            }
        }
        if !d.gen_lag_us.is_empty() {
            s.gen_lag_us.push(stats::percentile(&d.gen_lag_us, 0.99));
        }
        if let Some(r) = &d.report {
            s.start_us.push(d.start_us);
            s.shutdown_us.push(d.shutdown_us);
            hits += r.memo.hits;
            lookups += r.memo.hits + r.memo.misses;
        }
        s.shed += d.shed;
        s.missed += d.over_limit + p.failed;
        s.attempted += p.attempted;
    }
    s.memo_hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    s
}

/// A short closed-loop session over the workload's own problems: each
/// 16-problem request once cold, then once more (all memoised).
fn serve_replay(
    f: &Facts,
    w: &dyn Workload,
    extra: &mut Extra,
    tr: &mut Tracer,
) -> Result<ServeFacts, String> {
    let problems = w.sample_problems();
    let requests: Vec<Vec<PremiaProblem>> = problems
        .chunks(gen::REQUEST_PROBLEMS)
        .take(12)
        .map(<[PremiaProblem]>::to_vec)
        .collect();
    let t0 = Instant::now();
    let session = tr.span("Session::start", 0, || {
        Session::start(ServeConfig::new(f.spec.slaves))
    });
    let session = session.map_err(|e| format!("serve replay: {e}"))?;
    let start_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut s = ServeFacts {
        gen_lag_us: vec![0.0],
        start_us: vec![start_us],
        ..ServeFacts::default()
    };
    let mut first: Vec<Vec<Option<u64>>> = Vec::new();
    for round in 0..2 {
        for (i, req) in requests.iter().enumerate() {
            s.attempted += 1;
            let t0 = Instant::now();
            let ticket = tr.span("Session::submit", i as u64, || {
                session.submit(Request::new(req.clone()))
            });
            s.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let resp = match ticket.and_then(|t| t.wait()) {
                Ok(r) => r,
                Err(_) => {
                    s.shed += 1;
                    s.missed += 1;
                    extra.failed += 1;
                    continue;
                }
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let bits: Vec<Option<u64>> = resp
                .results
                .iter()
                .map(|r| r.as_ref().ok().map(|p| p.price.to_bits()))
                .collect();
            let ok = if round == 0 {
                first.push(bits.clone());
                bits.iter().all(Option::is_some)
            } else {
                // Memoised answers must equal the fresh ones bit for bit.
                first.get(i) == Some(&bits) && bits.iter().all(Option::is_some)
            };
            if !ok {
                extra.failed += 1;
            }
            if !ok || us > LATENCY_LIMIT_US {
                s.missed += 1;
            }
            if round == 0 {
                &mut s.cold_us
            } else {
                &mut s.warm_us
            }
            .push(us);
        }
    }
    let t0 = Instant::now();
    let report = tr.span("Session::shutdown", 0, || session.shutdown());
    s.shutdown_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let report = report.map_err(|e| format!("serve replay shutdown: {e}"))?;
    s.memo_hit_rate = report.memo.hit_rate();
    let all: Vec<f64> = s.cold_us.iter().chain(&s.warm_us).copied().collect();
    s.p99_us.push(stats::percentile(&all, 0.99));
    extra.attempted += s.attempted;
    Ok(s)
}

fn serve_layer(
    out: &mut Out,
    f: &Facts,
    w: &mut dyn Workload,
    extra: &mut Extra,
    tr: &mut Tracer,
) -> Result<(), String> {
    let on_serve = f.plain.iter().any(|p| p.serve.is_some());
    let s = if on_serve {
        serve_facts_of_passes(f)
    } else {
        serve_replay(f, w, extra, tr)?
    };
    out.insert("serve.req_p99_us", Summary::of(&s.p99_us));
    out.insert("serve.cold_p50_us", Summary::of(&s.cold_us));
    out.insert("serve.warm_p50_us", Summary::of(&s.warm_us));
    out.insert("serve.submit_us", Summary::of(&s.submit_us));
    out.insert("serve.memo_hit_rate", Summary::single(s.memo_hit_rate));
    out.insert("serve.shed", Summary::single(s.shed as f64));
    out.insert(
        "serve.slo_miss_share",
        Summary::single(s.missed as f64 / s.attempted.max(1) as f64),
    );
    out.insert("serve.gen_lag_p99_us", Summary::of(&s.gen_lag_us));
    out.insert("serve.start_us", Summary::of(&s.start_us));
    out.insert("serve.shutdown_us", Summary::of(&s.shutdown_us));

    // Rate ladder (open-loop workload only): p99 at half and twice the
    // workload's rate, and the highest of the three rates that meets
    // the latency limit with nothing shed and no backlog building up.
    let mut ladder: Vec<(f64, f64, bool)> = Vec::new();
    for (rate, seconds) in [(OPEN_RATE / 2.0, 2.0), (OPEN_RATE * 2.0, 1.5)] {
        let count = (rate * seconds) as usize;
        let Some(pass) = w.pass_at_rate(rate, count, tr, rate as u64) else {
            break;
        };
        let pass = pass?;
        // Finding the rate the session cannot sustain is the ladder's
        // job: a request shed on a rung is an outcome (the rung is not
        // sustained), not a failure of the run. A wrong price still is.
        let shed = pass.serve.as_ref().map_or(0, |d| d.shed);
        extra.attempted += pass.attempted;
        extra.failed += pass.failed - shed;
        ladder.push((
            rate,
            stats::percentile(&pass.latencies_us, 0.99),
            sustained(&pass),
        ));
    }
    if ladder.is_empty() {
        for name in [
            "serve.p99_us_at_500",
            "serve.p99_us_at_2000",
            "serve.sustained_rps",
        ] {
            out.insert(name, Summary::single(0.0));
        }
        return Ok(());
    }
    let at_base: Vec<f64> = f
        .plain
        .iter()
        .map(|p| stats::percentile(&p.latencies_us, 0.99))
        .collect();
    ladder.push((
        OPEN_RATE,
        stats::median(&at_base),
        f.plain.iter().all(sustained),
    ));
    let p99_at = |r: f64| ladder.iter().find(|l| l.0 == r).map_or(0.0, |l| l.1);
    out.insert(
        "serve.p99_us_at_500",
        Summary::single(p99_at(OPEN_RATE / 2.0)),
    );
    out.insert(
        "serve.p99_us_at_2000",
        Summary::single(p99_at(OPEN_RATE * 2.0)),
    );
    let best = ladder
        .iter()
        .filter(|l| l.2)
        .map(|l| l.0)
        .fold(0.0, f64::max);
    out.insert("serve.sustained_rps", Summary::single(best));
    Ok(())
}

/// A pass sustains its rate when nothing failed or was shed, p99 is
/// within the limit, and the last quarter of the window is not slower
/// than twice the first (a growing backlog shows as a rising median).
fn sustained(p: &Pass) -> bool {
    let l = &p.latencies_us;
    if p.failed > 0 || l.len() < 8 {
        return false;
    }
    let q = l.len() / 4;
    let head = stats::median(&l[..q]);
    let tail = stats::median(&l[l.len() - q..]);
    stats::percentile(l, 0.99) <= LATENCY_LIMIT_US && tail <= 2.0 * head
}

// ---------------------------------------------------------------------------
// nsplang
// ---------------------------------------------------------------------------

const LOOP_ITERS: usize = 20_000;

fn nsplang_layer(out: &mut Out, slice: Duration) -> Result<(), String> {
    let ast =
        nsplang::parse_program(workloads::FIG4_SCRIPT).map_err(|e| format!("parse fig4: {e:?}"))?;
    let s = bench(slice, || {
        black_box(nsplang::parse_program(workloads::FIG4_SCRIPT).ok());
    });
    out.insert("nsplang.parse_us", scaled(&s, 1e6));
    let s = bench(slice, || {
        black_box(nsplang::lower::lower_program(&ast));
    });
    out.insert("nsplang.lower_us", scaled(&s, 1e6));

    // A scalar loop: three arithmetic operations and a store per turn.
    let arith = format!("s = 0\nfor k = 1:{LOOP_ITERS} do\n  s = s + k * 2 - 1\nend");
    let call = format!("s = 0\nfor k = 1:{LOOP_ITERS} do\n  s = min(k, 3)\nend");
    let time = |engine, src: &str| -> Result<Vec<f64>, String> {
        nsplang::Interp::with_engine(engine)
            .run(src)
            .map_err(|e| e.to_string())?;
        Ok(bench(slice, || {
            black_box(nsplang::Interp::with_engine(engine).run(src).ok());
        }))
    };
    let ops = 3.0 * LOOP_ITERS as f64;
    out.insert(
        "nsplang.vm_ops_per_s",
        rate(&time(nsplang::Engine::Vm, &arith)?, ops),
    );
    out.insert(
        "nsplang.tree_ops_per_s",
        rate(&time(nsplang::Engine::Tree, &arith)?, ops),
    );
    // One builtin call per turn, loop overhead included.
    let s = time(nsplang::Engine::Vm, &call)?;
    out.insert(
        "nsplang.builtin_call_ns",
        scaled(&s, 1e9 / LOOP_ITERS as f64),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// script versus farm, and the simulator scored against both
// ---------------------------------------------------------------------------

/// The same toy files through `farm::run` (serialized load) and through
/// the Fig. 4 script: seconds per job each way, plus the farm run's
/// jobs, files and wall-clock for the simulator to be scored against.
struct ToyFarm {
    jobs: Vec<PortfolioJob>,
    files: Vec<PathBuf>,
    farm_wall_s: f64,
    script_per_job_s: f64,
}

fn toy_farm(
    f: &Facts,
    w: &dyn Workload,
    extra: &mut Extra,
    tr: &mut Tracer,
) -> Result<ToyFarm, String> {
    let dir = f.spec.workdir.join("replay").join("script");
    let (jobs, files) = match w.farm_inputs() {
        // fig4_script: its own files are already laid out for the script.
        Some((jobs, files, _)) if f.spec.name == "fig4_script" => {
            (jobs[..REPLAY_JOBS].to_vec(), files[..REPLAY_JOBS].to_vec())
        }
        _ => stage_toy(&dir, REPLAY_JOBS, f.spec.seed)?,
    };
    let n = files.len();
    let script = workloads::script_over(files[0].parent().unwrap_or(Path::new(".")))?;
    let cfg = FarmConfig::new(f.spec.slaves, Transmission::SerializedLoad);
    let (reference, _) = workloads::reference_of(jobs.iter().map(|j| &j.problem))?;

    let (mut farm_s, mut script_s) = (Vec::new(), Vec::new());
    for round in 0..3 {
        let t0 = Instant::now();
        let report = tr.span("farm::run", 1000 + round, || farm::run(&files, &cfg));
        farm_s.push(t0.elapsed().as_secs_f64());
        let report = report.map_err(|e| format!("toy farm: {e}"))?;
        extra.attempted += n as u64;
        extra.failed += workloads::wrong_prices(&report, &reference);

        let t0 = Instant::now();
        tr.span("Interp::run", 1000 + round, || {
            workloads::run_script_world(&script, n, f.spec.slaves, None)
        })?;
        script_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(ToyFarm {
        jobs,
        files,
        farm_wall_s: stats::median(&farm_s),
        script_per_job_s: stats::median(&script_s) / n as f64,
    })
}

/// Simulate one farm run with every cost taken from this run's own
/// layer numbers; returns (simulated makespan, events, simulator seconds).
fn simulate(
    out: &Out,
    jobs: &[PortfolioJob],
    files: &[PathBuf],
    job_secs: &[f64],
    strategy: Transmission,
    slaves: usize,
) -> (f64, u64, f64) {
    let us = |name: &str| out[name].value / 1e6;
    let mut cfg = SimConfig::default();
    // In-process world: no network beyond the transport itself.
    cfg.network.latency = 0.0;
    cfg.network.bandwidth = f64::MAX;
    cfg.transport.per_message = us("transport.channel_rtt_us") / 2.0;
    cfg.transport.per_byte = 1.0 / (out["transport.channel_mbps_1m"].value * 1e6);
    let prep = us("farm.prepare_payload_us") + out["minimpi.pack_ns"].value / 1e9;
    cfg.master.full_load_prep = prep;
    cfg.master.sload_prep = prep;
    cfg.master.result_handle = us("minimpi.probe_recv_us") / 2.0;
    cfg.slave.unpack = us("farm.recover_problem_us") + out["minimpi.unpack_ns"].value / 1e9;
    cfg.slave.result_prep = out["minimpi.pack_ns"].value / 1e9;
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .zip(files)
        .zip(job_secs)
        .map(|((job, file), secs)| SimJob {
            id: job.id,
            class: job.class,
            bytes: std::fs::metadata(file).map_or(0, |m| m.len() as usize),
            compute: *secs,
        })
        .collect();
    let rec = Recorder::with_capacity(slaves + 1, 1 << 18);
    let t0 = Instant::now();
    let outcome = clustersim::sim::simulate_farm_recorded(
        &sim_jobs,
        slaves,
        strategy,
        &cfg,
        &mut NfsCache::new(),
        Some(&rec),
    );
    let took = t0.elapsed().as_secs_f64();
    (
        outcome.makespan,
        rec.events().len() as u64 + rec.dropped(),
        took,
    )
}

fn script_and_sim_layer(
    out: &mut Out,
    f: &Facts,
    w: &dyn Workload,
    extra: &mut Extra,
    tr: &mut Tracer,
) -> Result<(), String> {
    let toy = toy_farm(f, w, extra, tr)?;
    let n = toy.files.len() as f64;
    let script_per_job_s = if f.spec.name == "fig4_script" {
        stats::median(
            &f.plain
                .iter()
                .map(|p| p.wall_s / p.attempted as f64)
                .collect::<Vec<_>>(),
        )
    } else {
        toy.script_per_job_s
    };
    out.insert(
        "nsplang.script_per_job_us",
        Summary::single((script_per_job_s - toy.farm_wall_s / n) * 1e6),
    );

    // Score the simulator against the live farm this run measured: the
    // workload's own passes where it is a `farm::run`, else the toy farm.
    let (sim, events, took, live) = match w.farm_inputs() {
        Some((jobs, files, strategy)) if f.spec.name != "fig4_script" => {
            let live = stats::median(&f.plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
            let (sim, events, took) =
                simulate(out, jobs, files, f.job_secs, strategy, f.spec.slaves);
            (sim, events, took, live)
        }
        _ => {
            let secs = vec![out["pricing.vanilla_cf_ns"].value / 1e9; toy.jobs.len()];
            let (sim, events, took) = simulate(
                out,
                &toy.jobs,
                &toy.files,
                &secs,
                Transmission::SerializedLoad,
                f.spec.slaves,
            );
            (sim, events, took, toy.farm_wall_s)
        }
    };
    out.insert("clustersim.sim_makespan_s", Summary::single(sim));
    out.insert("clustersim.residual", Summary::single((sim - live) / live));
    out.insert(
        "clustersim.events_per_s",
        Summary::single(events as f64 / took.max(1e-9)),
    );
    Ok(())
}

// ---------------------------------------------------------------------------

/// Every per-layer metric, in table order.
pub fn all(
    f: &Facts,
    w: &mut dyn Workload,
    tr: &mut Tracer,
) -> Result<(Vec<Measured>, Extra), String> {
    let slice = f.budget / SLICES;
    let mut out = Out::new();
    let mut extra = Extra::default();
    let inputs = tr.span("replay:stage", 0, || replay_inputs(f, w))?;

    tr.span("replay:pricing", 0, || pricing_layer(&mut out, f, w, slice))?;
    tr.span("replay:exec", 0, || exec_layer(&mut out, slice))?;
    tr.span("replay:numerics", 0, || numerics_layer(&mut out, slice));
    tr.span("replay:xdr", 0, || xdr_layer(&mut out, &inputs, slice));
    tr.span("replay:store", 0, || store_layer(&mut out, &inputs, slice));
    tr.span("replay:farm::strategy", 0, || {
        strategy_layer(&mut out, &inputs, slice)
    })?;
    tr.span("replay:transport", 0, || {
        transport_layer(&mut out, &inputs.scratch, slice)
    })?;
    tr.span("replay:minimpi", 0, || {
        minimpi_layer(&mut out, &inputs, f.spec.slaves, slice)
    })?;
    tr.span("replay:sched", 0, || {
        sched_layer(&mut out, f.spec.seed, slice)
    })?;
    tr.span("replay:nsplang", 0, || nsplang_layer(&mut out, slice))?;
    tr.span("replay:obs", 0, || obs_layer(&mut out, slice));
    // Layer numbers are as the clock read them; this says how fast the
    // host was while it did.
    out.insert("host.speed", Summary::of(f.host_speeds));
    breakdown_layer(&mut out, f, tr);
    let id = tr.begin("replay:serve", 0);
    serve_layer(&mut out, f, w, &mut extra, tr)?;
    tr.end(id);
    let id = tr.begin("replay:script+sim", 0);
    script_and_sim_layer(&mut out, f, w, &mut extra, tr)?;
    tr.end(id);

    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            out.remove(def.name)
                .map(|s| Measured { def: *def, s })
                .ok_or(format!("internal: no producer for {}", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(stray) = out.keys().next() {
        return Err(format!("internal: {stray} is not in the metric table"));
    }
    Ok((metrics, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_per_call_seconds() {
        let s = bench(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_micros(200))
        });
        assert!(s.len() >= 3);
        let m = stats::median(&s);
        assert!((150e-6..2e-3).contains(&m), "median {m}");
    }

    #[test]
    fn sched_walk_finishes_and_counts_exactly() {
        let (calls, actions) = sched_walk(SchedConfig::plain(100, 4)).unwrap();
        // 4 primings + 100 answers; per job one dispatch and one accept,
        // plus 4 stops and the finish.
        assert_eq!(calls, 104);
        assert_eq!(actions, 2 * 100 + 4 + 1);
        assert_eq!(
            sched_walk(SchedConfig::plain(100, 4)).unwrap(),
            (calls, actions)
        );
    }

    #[test]
    fn channel_ping_pong_measures_round_trips() {
        let g = ChannelGroup::new(2);
        let rtts = ping_pong(g.endpoint(0), g.endpoint(1), 64, Duration::from_millis(10)).unwrap();
        assert!(rtts.len() >= 8 && rtts.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn sustained_rejects_failures_limits_and_growth() {
        let pass = |latencies_us: Vec<f64>, failed| Pass {
            latencies_us,
            failed,
            ..Pass::default()
        };
        assert!(sustained(&pass(vec![300.0; 100], 0)));
        assert!(!sustained(&pass(vec![300.0; 100], 1)));
        assert!(!sustained(&pass(vec![LATENCY_LIMIT_US * 2.0; 100], 0)));
        let growing: Vec<f64> = (0..100).map(|i| 100.0 + 50.0 * i as f64).collect();
        assert!(!sustained(&pass(growing, 0)));
    }
}

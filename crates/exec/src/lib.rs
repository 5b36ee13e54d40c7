//! Deterministic intra-slave compute parallelism: a work-stealing
//! chunked executor for the Monte-Carlo/LSM path loops.
//!
//! The farm's breakdown tables (PR 2/3) show prepare/wire collapsing
//! while **compute** dominates wall-clock — yet every pricing kernel is
//! a single-threaded path loop, so each slave uses one core of a
//! multi-core node. This crate supplies the missing dimension: the path
//! space is split into fixed-size chunks, a small work-stealing thread
//! pool runs the chunks, and per-chunk partial results are handed back
//! **in chunk-index order** so the reduction is a pure function of the
//! chunk partition — not of which worker ran which chunk.
//!
//! # Determinism contract
//!
//! A chunked kernel is **bit-identical for any worker count** (1 == 2 ==
//! 8) provided it follows two rules, both enforced by construction here:
//!
//! 1. every chunk derives its randomness only from
//!    [`stream_seed`]`(seed, chunk.index)` — an independently seeded
//!    counter-style RNG stream per chunk, never a shared stream;
//! 2. the reduction consumes [`ExecPolicy::run`]'s result vector in
//!    order — chunk `i`'s partial always lands in slot `i`, whatever
//!    thread produced it.
//!
//! The chunk size is therefore *part of the result*: changing
//! [`ExecPolicy::chunk_size`] changes the stream split (legitimately, as
//! changing `seed` would). The thread count never is.
//!
//! Built on `std::thread::scope` plus the vendored `parking_lot` shim —
//! no external dependencies, per `shims/README.md`.

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of paths per chunk. Large enough that chunk overhead
/// (one RNG seeding + one queue pop) is negligible against thousands of
/// path simulations; small enough that a 100 000-path kernel yields ~100
/// chunks for 8 workers to balance over.
pub const DEFAULT_CHUNK: usize = 1024;

/// Derive the RNG seed of one chunk's stream from the kernel seed and
/// the chunk index: a SplitMix64-style avalanche over
/// `seed ⊕ golden·(index+1)`, so neighbouring chunks (and neighbouring
/// seeds) land in statistically unrelated streams. Pure function —
/// the foundation of the thread-count-independence contract.
pub fn stream_seed(seed: u64, chunk_index: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk_index.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One invalid configuration field: which builder knob, and what is
/// wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigIssue {
    /// The builder method / field name (e.g. `"threads"`).
    field: &'static str,
    /// What is wrong with the supplied value.
    problem: String,
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.problem)
    }
}

/// Every invalid field of a rejected configuration, collected in one
/// pass — validation never stops at the first failure, so a caller
/// fixing a config sees the complete list at once. Shared by
/// `ExecPolicy`, `farm::FarmConfig` and `serve::ServeConfig`, which all
/// follow the same builder convention: chainable setters, one
/// `validate()` that returns this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigIssues {
    /// The collected issues, in field declaration order. Never empty.
    pub issues: Vec<ConfigIssue>,
}

impl ConfigIssues {
    /// An empty collector. Use [`reject`](Self::reject) to accumulate
    /// and [`into_result`](Self::into_result) to finish.
    pub fn collect() -> Self {
        ConfigIssues { issues: Vec::new() }
    }

    /// A ready-made single-issue rejection, for call sites that detect
    /// one late error outside a full `validate()` pass (e.g. a
    /// cost-vector length that can only be checked against the inputs).
    pub fn one(field: &'static str, problem: impl Into<String>) -> Self {
        let mut issues = ConfigIssues::collect();
        issues.reject(field, problem);
        issues
    }

    /// Record one invalid field.
    pub fn reject(&mut self, field: &'static str, problem: impl Into<String>) {
        self.issues.push(ConfigIssue {
            field,
            problem: problem.into(),
        });
    }

    /// `Ok(())` when nothing was rejected, else `Err(self)`.
    pub fn into_result(self) -> Result<(), ConfigIssues> {
        if self.issues.is_empty() {
            Ok(())
        } else {
            Err(self)
        }
    }

    /// Did validation reject this field?
    pub fn has(&self, field: &str) -> bool {
        self.issues.iter().any(|i| i.field == field)
    }
}

impl fmt::Display for ConfigIssues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: ")?;
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigIssues {}

/// Supported SIMD lane widths for batched path generation.
///
/// With `L > 1` lanes a kernel advances `L` paths per loop iteration
/// through the hand-rolled lane structs (`pricing::lanes::F64s`),
/// drawing the normals of each group in `(group, step, lane)` order
/// instead of the scalar `(path, step)` order. That draw order is part
/// of the sampled result — exactly like the chunk size — so each lane
/// width owns its own pinned goldens, and [`LaneConfig::Scalar`] keeps
/// the pre-lane kernels byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneConfig {
    /// One path at a time — the pre-lane scalar kernels, unchanged.
    #[default]
    Scalar,
    /// Four paths per lane group (`F64s<4>`).
    X4,
    /// Eight paths per lane group (`F64s<8>`).
    X8,
}

impl LaneConfig {
    /// Parse a lane width; only 1 (scalar), 4 and 8 are supported.
    pub fn from_width(width: usize) -> Result<Self, String> {
        match width {
            0 | 1 => Ok(LaneConfig::Scalar),
            4 => Ok(LaneConfig::X4),
            8 => Ok(LaneConfig::X8),
            other => Err(format!(
                "unsupported lane width {other} (supported: 1, 4, 8)"
            )),
        }
    }

    /// Number of paths advanced per lane group.
    fn width(self) -> usize {
        match self {
            LaneConfig::Scalar => 1,
            LaneConfig::X4 => 4,
            LaneConfig::X8 => 8,
        }
    }
}

/// A per-worker scratch arena for kernel path buffers.
///
/// Kernels borrow zeroed `Vec<f64>` buffers with [`take`](Self::take)
/// and hand them back with [`put`](Self::put); the capacity survives
/// the round-trip, so after the first few chunks every `take` is a
/// `clear` + in-capacity `resize` — **zero allocations in the
/// steady-state hot loops**. One workspace is checked out per worker
/// for the duration of a [`ExecPolicy::run_ws`] call and parked in the
/// policy's shared workspace pool between runs, so buffers persist
/// across the jobs of a farm slave.
#[derive(Debug, Default)]
pub struct PathWorkspace {
    bufs: Vec<Vec<f64>>,
}

impl PathWorkspace {
    /// A fresh workspace with no pooled buffers.
    pub fn new() -> Self {
        PathWorkspace::default()
    }

    /// Borrow a zero-filled buffer of exactly `len` elements, reusing
    /// the capacity of a previously [`put`](Self::put) buffer when one
    /// is available (same contents as `vec![0.0; len]`).
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Return a buffer for reuse by later [`take`](Self::take) calls.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.bufs.push(buf);
    }
}

/// Thread-safe parking lot for idle [`PathWorkspace`]s, shared by every
/// clone of an [`ExecPolicy`] — the farm clones its per-run policy for
/// each job, so a slave's workers keep reusing the same warmed buffers
/// job after job.
#[derive(Debug, Default)]
struct WorkspacePool {
    inner: Mutex<Vec<PathWorkspace>>,
}

impl WorkspacePool {
    /// Check a workspace out (a fresh one if the pool is empty).
    fn take(&self) -> PathWorkspace {
        self.inner.lock().pop().unwrap_or_default()
    }

    /// Park a workspace for the next [`take`](Self::take).
    fn put(&self, ws: PathWorkspace) {
        self.inner.lock().push(ws);
    }
}

/// One contiguous slice of the item (path) space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk index in `0..n_chunks` — the RNG-stream counter.
    pub index: u64,
    /// First item (inclusive).
    pub start: usize,
    /// One past the last item (exclusive).
    pub end: usize,
}

impl Chunk {
    /// Number of items in this chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the chunk covers no items (never produced by the
    /// planner; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Timing of one executed chunk, for post-hoc observability: the farm
/// emits these as `ComputeChunk` events *after* the parallel region,
/// from the rank's own thread (the obs recorder is single-writer per
/// rank, so workers never record directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Chunk index.
    index: u64,
    /// Items the chunk covered.
    pub items: u64,
    /// Wall-clock nanoseconds the chunk took on its worker.
    pub dur_ns: u64,
}

/// Aggregate execution statistics across the kernel runs of one job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of `run` invocations recorded.
    runs: u64,
    /// Successful steals (a worker popping from another worker's queue).
    pub steals: u64,
    /// Largest worker count any recorded run actually used.
    threads: usize,
    /// Per-chunk timings, in execution-record order (chunk-index order
    /// within each run).
    pub chunks: Vec<ChunkTiming>,
}

/// Thread-safe accumulator the kernels report [`ChunkTiming`]s into;
/// attach one via [`ExecPolicy::with_sink`] and drain it with
/// [`StatsSink::take`] after the compute region.
#[derive(Debug, Default)]
pub struct StatsSink {
    inner: Mutex<ExecStats>,
}

impl StatsSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Record one executor run.
    fn add_run(&self, workers: usize, timings: Vec<ChunkTiming>, steals: u64) {
        let mut st = self.inner.lock();
        st.runs += 1;
        st.steals += steals;
        st.threads = st.threads.max(workers);
        st.chunks.extend(timings);
    }

    /// Drain the accumulated statistics, resetting the sink.
    pub fn take(&self) -> ExecStats {
        std::mem::take(&mut *self.inner.lock())
    }
}

/// How a kernel's path loop should execute: worker count, chunk size,
/// SIMD lane width, and an optional statistics sink. The default — one
/// thread, scalar lanes, no sink — is the executor-free behaviour.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    threads: usize,
    chunk: usize,
    lane: LaneConfig,
    sink: Option<Arc<StatsSink>>,
    pool: Arc<WorkspacePool>,
}

impl ExecPolicy {
    /// Single-threaded policy (the default everywhere).
    pub fn sequential() -> Self {
        ExecPolicy::default()
    }

    /// Policy with `threads` workers (0 is treated as 1).
    pub fn new(threads: usize) -> Self {
        ExecPolicy {
            threads,
            ..ExecPolicy::default()
        }
    }

    /// Resolve the user-facing compute knobs of `farm::FarmConfig` and
    /// `serve::ServeConfig` into what a slave runs, collecting **every**
    /// invalid field into one [`ConfigIssues`] (the workspace-wide
    /// builder convention). `Ok(None)` is the sequential kernel (one
    /// thread, scalar lanes); `Ok(Some(_))` is the chunked executor with
    /// [`DEFAULT_CHUNK`] paths per chunk, whatever the thread count, so
    /// one thread prices exactly like eight. `lanes` must be 1, 4 or 8
    /// (0 = scalar).
    pub fn validated(threads: usize, lanes: usize) -> Result<Option<Self>, ConfigIssues> {
        let mut issues = ConfigIssues::collect();
        if threads == 0 {
            issues.reject("threads", "compute threads must be at least 1");
        }
        let lane = match LaneConfig::from_width(lanes) {
            Ok(lane) => lane,
            Err(why) => {
                issues.reject("lanes", why);
                LaneConfig::Scalar
            }
        };
        issues.into_result()?;
        Ok(
            (threads > 1 || lane != LaneConfig::Scalar)
                .then(|| ExecPolicy::new(threads).lane(lane)),
        )
    }

    /// Override the chunk size (0 is treated as [`DEFAULT_CHUNK`]).
    /// **Changes the RNG-stream split** and therefore the sampled
    /// result, exactly as changing the seed would; the thread count
    /// never does.
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Set the SIMD lane width (1, 4 or 8). **Changes the RNG draw
    /// order** within each chunk and therefore the sampled result,
    /// exactly as the chunk size does; see [`LaneConfig`]. Panics on an
    /// unsupported width — validate with [`LaneConfig::from_width`]
    /// first when the width comes from user input.
    pub fn lanes(mut self, width: usize) -> Self {
        self.lane = LaneConfig::from_width(width).expect("unsupported lane width");
        self
    }

    /// Set the lane configuration directly.
    fn lane(mut self, lane: LaneConfig) -> Self {
        self.lane = lane;
        self
    }

    /// Attach a [`StatsSink`] that every run reports its chunk timings
    /// and steal count into.
    pub fn with_sink(mut self, sink: Arc<StatsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Effective worker count.
    fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Effective lane width (1 for the scalar path).
    pub fn lane_width(&self) -> usize {
        self.lane.width()
    }

    /// Effective chunk size.
    pub fn chunk_size(&self) -> usize {
        if self.chunk == 0 {
            DEFAULT_CHUNK
        } else {
            self.chunk
        }
    }

    /// Split `items` into chunks per this policy.
    pub fn plan(&self, items: usize) -> Vec<Chunk> {
        let size = self.chunk_size();
        let mut chunks = Vec::with_capacity(items.div_ceil(size).max(1));
        let mut start = 0usize;
        let mut index = 0u64;
        while start < items {
            let end = (start + size).min(items);
            chunks.push(Chunk { index, start, end });
            start = end;
            index += 1;
        }
        chunks
    }

    /// Run `f` over every chunk of `items` and return the per-chunk
    /// results **in chunk-index order**, whatever thread computed them.
    ///
    /// With one worker (or one chunk) this degenerates to a plain
    /// in-order loop on the calling thread — no threads are spawned.
    /// With `T > 1` workers the chunk queue is block-partitioned across
    /// `min(T, n_chunks)` scoped threads; an idle worker steals from the
    /// back of the longest remaining queue. `f` must derive any
    /// randomness from [`stream_seed`]`(seed, chunk.index)` only.
    pub fn run<R, F>(&self, items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Chunk) -> R + Sync,
    {
        self.run_ws(items, |c, _| f(c))
    }

    /// Like [`Self::run`], but hands each chunk invocation a mutable
    /// [`PathWorkspace`] so kernels can borrow reusable path buffers
    /// instead of allocating in the hot loop. One workspace is checked
    /// out of the policy's shared workspace pool per worker and parked again
    /// afterwards, so buffer capacity persists across runs (and across
    /// the jobs of a farm slave). The workspace must not influence the
    /// numerical result — it is scratch capacity, nothing else.
    pub fn run_ws<R, F>(&self, items: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Chunk, &mut PathWorkspace) -> R + Sync,
    {
        let chunks = self.plan(items);
        let n = chunks.len();
        let workers = self.threads().min(n.max(1));
        if workers <= 1 {
            let mut ws = self.pool.take();
            let mut out = Vec::with_capacity(n);
            let mut timings = Vec::with_capacity(n);
            for c in &chunks {
                let t0 = Instant::now();
                out.push(f(c, &mut ws));
                timings.push(ChunkTiming {
                    index: c.index,
                    items: c.len() as u64,
                    dur_ns: t0.elapsed().as_nanos() as u64,
                });
            }
            self.pool.put(ws);
            if let Some(sink) = &self.sink {
                sink.add_run(1, timings, 0);
            }
            return out;
        }

        // Block-partition the chunk indices across the workers; each
        // worker drains its own queue front-to-back and, when empty,
        // steals from the back of the longest other queue.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let steals = AtomicU64::new(0);
        let f = &f;
        let chunks_ref = &chunks;
        let queues_ref = &queues;
        let steals_ref = &steals;
        let pool_ref = &self.pool;

        let mut produced: Vec<(usize, R, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut ws = pool_ref.take();
                        let mut local: Vec<(usize, R, u64)> = Vec::new();
                        loop {
                            // Own queue first...
                            let mut next = queues_ref[w].lock().pop_front();
                            // ...then steal from the longest victim.
                            if next.is_none() {
                                let mut best: Option<(usize, usize)> = None;
                                for (v, q) in queues_ref.iter().enumerate() {
                                    if v == w {
                                        continue;
                                    }
                                    let len = q.lock().len();
                                    if len > 0 && best.is_none_or(|(_, b)| len > b) {
                                        best = Some((v, len));
                                    }
                                }
                                if let Some((v, _)) = best {
                                    next = queues_ref[v].lock().pop_back();
                                    if next.is_some() {
                                        steals_ref.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            let Some(i) = next else { break };
                            let c = &chunks_ref[i];
                            let t0 = Instant::now();
                            let r = f(c, &mut ws);
                            local.push((i, r, t0.elapsed().as_nanos() as u64));
                        }
                        pool_ref.put(ws);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });

        // Reassemble in chunk-index order: slot i always holds chunk
        // i's partial, whichever worker produced it.
        produced.sort_by_key(|(i, _, _)| *i);
        debug_assert_eq!(produced.len(), n, "every chunk ran exactly once");
        if let Some(sink) = &self.sink {
            let timings = produced
                .iter()
                .map(|&(i, _, dur_ns)| ChunkTiming {
                    index: chunks[i].index,
                    items: chunks[i].len() as u64,
                    dur_ns,
                })
                .collect();
            sink.add_run(workers, timings, steals.load(Ordering::Relaxed));
        }
        produced.into_iter().map(|(_, r, _)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl WorkspacePool {
        /// Number of idle workspaces currently parked.
        fn idle(&self) -> usize {
            self.inner.lock().len()
        }
    }

    impl ExecPolicy {
        /// The lane configuration.
        fn lane_config(&self) -> LaneConfig {
            self.lane
        }

        /// The shared workspace pool behind [`Self::run_ws`].
        fn workspace_pool(&self) -> &Arc<WorkspacePool> {
            &self.pool
        }
    }

    #[test]
    fn validated_collects_every_invalid_field() {
        for (threads, lanes, fields) in [
            (0, 1, &["threads"][..]),
            (2, 3, &["lanes"]),
            (1, 16, &["lanes"]),
            (0, 3, &["threads", "lanes"]),
        ] {
            let err = ExecPolicy::validated(threads, lanes).unwrap_err();
            assert_eq!(err.issues.len(), fields.len(), "{err}");
            let text = err.to_string();
            for field in fields {
                assert!(err.has(field) && text.contains(field), "{text}");
            }
        }
    }

    #[test]
    fn validated_accepts_defaults_and_sets_knobs() {
        // (threads, lanes) -> the sequential kernel (None) or the chunked
        // policy's (threads, lane width), always on the default chunk:
        // one thread with lanes is chunked exactly like eight threads.
        for (threads, lanes, want) in [
            (1, 1, None),
            (1, 0, None),
            (2, 1, Some((2, 1))),
            (8, 0, Some((8, 1))),
            (1, 4, Some((1, 4))),
            (1, 8, Some((1, 8))),
            (8, 8, Some((8, 8))),
        ] {
            let pol = ExecPolicy::validated(threads, lanes).unwrap();
            let got = pol.as_ref().map(|p| (p.threads(), p.lane_width()));
            assert_eq!(got, want, "threads={threads} lanes={lanes}");
            assert!(pol.is_none_or(|p| p.chunk_size() == DEFAULT_CHUNK));
        }
    }

    #[test]
    fn plan_covers_items_exactly_once() {
        for items in [0usize, 1, 7, 1024, 1025, 10_000] {
            for chunk in [1usize, 3, 1024] {
                let pol = ExecPolicy::sequential().chunk(chunk);
                let chunks = pol.plan(items);
                let total: usize = chunks.iter().map(Chunk::len).sum();
                assert_eq!(total, items, "items {items} chunk {chunk}");
                let mut next = 0usize;
                for (i, c) in chunks.iter().enumerate() {
                    assert_eq!(c.index, i as u64);
                    assert_eq!(c.start, next);
                    assert!(!c.is_empty());
                    next = c.end;
                }
            }
        }
        assert!(ExecPolicy::sequential().plan(0).is_empty());
    }

    /// A chunk "kernel": order-sensitive accumulation over the chunk's
    /// derived stream, so any mis-ordering or stream reuse shows up.
    fn chunk_value(seed: u64, c: &Chunk) -> f64 {
        let mut z = stream_seed(seed, c.index);
        let mut acc = 0.0;
        for _ in c.start..c.end {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc = acc * 0.9999 + (z >> 11) as f64 / (1u64 << 53) as f64;
        }
        acc
    }

    #[test]
    fn results_bit_identical_across_worker_counts() {
        let items = 10_000;
        let reduce = |threads: usize| -> u64 {
            let pol = ExecPolicy::new(threads).chunk(512);
            let parts = pol.run(items, |c| chunk_value(42, c));
            // Deterministic in-order reduction.
            let mut acc = 0.0;
            for p in parts {
                acc = acc * 0.5 + p;
            }
            acc.to_bits()
        };
        let t1 = reduce(1);
        assert_eq!(t1, reduce(2));
        assert_eq!(t1, reduce(8));
        assert_eq!(t1, reduce(3));
    }

    #[test]
    fn chunk_size_is_part_of_the_result() {
        let items = 4_096;
        let total = |chunk: usize| -> f64 {
            ExecPolicy::new(2)
                .chunk(chunk)
                .run(items, |c| chunk_value(7, c))
                .iter()
                .sum()
        };
        // Different splits draw different streams — documented contract.
        assert_ne!(total(512).to_bits(), total(1024).to_bits());
    }

    #[test]
    fn skewed_workload_triggers_stealing() {
        let sink = Arc::new(StatsSink::new());
        let pol = ExecPolicy::new(4).chunk(1).with_sink(sink.clone());
        // 16 one-item chunks; the first worker's chunks are slow, so the
        // other workers finish their own and steal.
        let out = pol.run(16, |c| {
            if c.index < 4 {
                std::thread::sleep(Duration::from_millis(20));
            }
            c.index
        });
        assert_eq!(out, (0..16).collect::<Vec<u64>>());
        let stats = sink.take();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.chunks.len(), 16);
        assert_eq!(stats.threads, 4);
        assert!(stats.steals > 0, "no steals on a 20ms-skewed workload");
        // Sink drained.
        assert_eq!(sink.take(), ExecStats::default());
    }

    #[test]
    fn sequential_run_records_timings_without_threads() {
        let sink = Arc::new(StatsSink::new());
        let pol = ExecPolicy::sequential().chunk(100).with_sink(sink.clone());
        let out = pol.run(250, |c| c.len());
        assert_eq!(out, vec![100, 100, 50]);
        let stats = sink.take();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.chunks.iter().map(|c| c.items).sum::<u64>(), 250);
    }

    #[test]
    fn more_workers_than_chunks_degrades_gracefully() {
        let pol = ExecPolicy::new(64).chunk(1024);
        let out = pol.run(2048, |c| c.index);
        assert_eq!(out, vec![0, 1]);
        // And an empty item space.
        let empty: Vec<u64> = ExecPolicy::new(8).run(0, |c| c.index);
        assert!(empty.is_empty());
    }

    #[test]
    fn stream_seed_is_an_avalanche() {
        // Neighbouring chunks and neighbouring seeds land far apart.
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        let c = stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!((a ^ b).count_ones() > 10);
        assert!((a ^ c).count_ones() > 10);
        // Pure function.
        assert_eq!(stream_seed(42, 0), a);
    }

    #[test]
    fn default_policy_is_single_threaded_default_chunk() {
        let pol = ExecPolicy::default();
        assert_eq!(pol.threads(), 1);
        assert_eq!(pol.chunk_size(), DEFAULT_CHUNK);
        assert_eq!(ExecPolicy::new(0).threads(), 1);
        assert_eq!(
            ExecPolicy::sequential().chunk(0).chunk_size(),
            DEFAULT_CHUNK
        );
        assert_eq!(pol.lane_width(), 1);
        assert_eq!(pol.lane_config(), LaneConfig::Scalar);
    }

    #[test]
    fn lane_config_accepts_only_supported_widths() {
        assert_eq!(LaneConfig::from_width(0), Ok(LaneConfig::Scalar));
        assert_eq!(LaneConfig::from_width(1), Ok(LaneConfig::Scalar));
        assert_eq!(LaneConfig::from_width(4), Ok(LaneConfig::X4));
        assert_eq!(LaneConfig::from_width(8), Ok(LaneConfig::X8));
        for bad in [2usize, 3, 5, 16] {
            assert!(LaneConfig::from_width(bad).is_err(), "width {bad}");
        }
        assert_eq!(ExecPolicy::new(2).lanes(8).lane_width(), 8);
        assert_eq!(ExecPolicy::new(2).lane(LaneConfig::X4).lane_width(), 4);
    }

    #[test]
    fn workspace_reuses_capacity_across_take_put() {
        let mut ws = PathWorkspace::new();
        let mut buf = ws.take(100);
        assert_eq!(buf, vec![0.0; 100]);
        buf[0] = 7.0;
        let ptr = buf.as_ptr();
        ws.put(buf);
        // Same allocation comes back, zeroed, even at a smaller length.
        let again = ws.take(50);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again, vec![0.0; 50]);
        assert!(again.capacity() >= 100);
    }

    #[test]
    fn run_ws_pools_one_workspace_per_worker_and_is_deterministic() {
        let pol = ExecPolicy::new(4).chunk(64);
        let total = |pol: &ExecPolicy| -> u64 {
            let parts = pol.run_ws(1_000, |c, ws| {
                let mut buf = ws.take(c.len());
                for (k, x) in buf.iter_mut().enumerate() {
                    *x = chunk_value(9, c) + k as f64;
                }
                let s: f64 = buf.iter().sum();
                ws.put(buf);
                s
            });
            let mut acc = 0.0;
            for p in parts {
                acc = acc * 0.5 + p;
            }
            acc.to_bits()
        };
        let seq = total(&ExecPolicy::sequential().chunk(64));
        assert_eq!(seq, total(&pol));
        // Workers parked their workspaces; clones share the same pool.
        assert!(pol.workspace_pool().idle() >= 1);
        let before = pol.workspace_pool().idle();
        let clone = pol.clone();
        total(&clone);
        assert!(clone.workspace_pool().idle() <= before.max(4));
        assert!(Arc::ptr_eq(pol.workspace_pool(), clone.workspace_pool()));
    }
}

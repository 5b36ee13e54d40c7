//! Performance-model parameters, calibrated to the paper's testbed:
//! dual-core Xeon 3075 nodes on Gigabit Ethernet with NFS storage
//! (§4: "interconnected using a Gigabit Ethernet network", "the cluster …
//! use\[s\] a NFS file system").

/// Network model: fixed per-message latency plus size/bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// One-way per-message latency in seconds (MPI over GigE ≈ 50–100 µs).
    pub latency: f64,
    /// Link bandwidth in bytes/second (GigE ≈ 125 MB/s).
    pub bandwidth: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            latency: 60e-6,
            bandwidth: 125e6,
        }
    }
}

impl NetworkParams {
    /// Wire time of one message of `bytes`.
    pub(crate) fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// NFS server model: FIFO service with a block cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfsParams {
    /// Service time of a cold (disk) read of one small problem file.
    pub(crate) cold_read: f64,
    /// Service time once the file is in the server's block cache.
    pub(crate) warm_read: f64,
}

impl Default for NfsParams {
    fn default() -> Self {
        NfsParams {
            cold_read: 1.2e-3,
            warm_read: 0.08e-3,
        }
    }
}

/// Master-side per-job CPU costs by transmission strategy (§4.2's
/// comparison is precisely about these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterCosts {
    /// full load: read file + materialise the `PremiaModel` + serialize +
    /// pack. The §4.2 numbers put the master's full-load cycle near
    /// 0.4 ms/job at saturation.
    pub full_load_prep: f64,
    /// serialized load: one raw file read (the file cache makes repeat
    /// sweeps cheap; we charge the steady-state cost).
    pub sload_prep: f64,
    /// NFS: build the tiny name message only.
    pub(crate) nfs_prep: f64,
    /// Handling one returned result (recv + bookkeeping).
    pub result_handle: f64,
}

impl Default for MasterCosts {
    fn default() -> Self {
        MasterCosts {
            full_load_prep: 0.40e-3,
            sload_prep: 0.12e-3,
            nfs_prep: 0.02e-3,
            result_handle: 0.02e-3,
        }
    }
}

/// Slave-side per-job overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaveCosts {
    /// Unpack + unserialize a received problem (loaded strategies).
    pub unpack: f64,
    /// Pack + send a result (before wire time).
    pub result_prep: f64,
}

impl Default for SlaveCosts {
    fn default() -> Self {
        SlaveCosts {
            unpack: 0.05e-3,
            result_prep: 0.02e-3,
        }
    }
}

/// Client-side problem-store model: the `store` crate's byte-budgeted
/// cache in front of the master's fetches (and the slaves' NFS reads),
/// plus the compressed-wire option for loaded payloads. Both knobs are
/// **off** by default so the baseline model reproduces the paper's
/// Tables I–III unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreParams {
    /// Model a warm client-side problem cache: repeat fetches of the
    /// same file skip the backend.
    pub client_cache: bool,
    /// Service time of a cache hit (a memory lookup plus an `Arc`
    /// clone — far below any disk or NFS read).
    pub(crate) hit_fetch: f64,
    /// Compress loaded payloads on the wire.
    pub compress: bool,
    /// Minimum payload size worth compressing, bytes (mirrors
    /// `WirePolicy::compressed(threshold)` in the live farm).
    pub(crate) compress_threshold: usize,
    /// Compressed/raw size ratio for XDR problem files (LZSS on the
    /// highly repetitive Premia descriptors lands near one half).
    pub(crate) compress_ratio: f64,
    /// Master-side compression CPU, seconds per input byte.
    pub(crate) compress_cpu: f64,
    /// Slave-side decompression CPU, seconds per input byte.
    pub(crate) decompress_cpu: f64,
}

impl Default for StoreParams {
    fn default() -> Self {
        StoreParams {
            client_cache: false,
            hit_fetch: 0.01e-3,
            compress: false,
            compress_threshold: 256,
            compress_ratio: 0.5,
            compress_cpu: 5e-9,
            decompress_cpu: 2e-9,
        }
    }
}

/// Intra-slave compute-parallelism model: the `exec` crate's chunked
/// executor as the simulator sees it. **Off** by default (`threads == 1`)
/// so the baseline model reproduces the paper's Tables I–III unchanged —
/// exactly like [`StoreParams`].
///
/// The model applies to every job's pre-drawn compute cost: a `SimJob`
/// carries a duration, not a pricing method, so the per-class drawn cost
/// stands in for the path-chunked kernel work the live farm routes
/// through the executor (`JobClass::chunked_kernel` documents which
/// methods those are on the live side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecParams {
    /// Worker threads per slave rank (1 = today's sequential kernels).
    pub threads: usize,
    /// Amdahl serial fraction of a chunked-kernel job: path generation
    /// parallelises, the LSM backward regression and the final reduction
    /// do not.
    serial_fraction: f64,
    /// Fixed per-job cost of spinning up the chunk queues and joining
    /// the scope, seconds (a scoped spawn of a handful of workers on
    /// Linux lands in the tens of microseconds). Charged only when
    /// `threads >= 2`.
    spawn_overhead: f64,
    /// SIMD lane width of the batched kernels (1 = scalar kernels, the
    /// pre-lane default). Like `threads`, **off** by default so the
    /// baseline model is unchanged.
    pub lanes: usize,
    /// Fraction of a job's parallelisable work that vectorises across
    /// lanes: the per-path exp/fma arithmetic batches, the RNG draw and
    /// the payoff branch stay scalar.
    lane_fraction: f64,
    /// Fixed per-job cost when lane batching is on, seconds. The
    /// workspace pool removes every hot-loop allocation, so the per-job
    /// setup collapses to popping pooled buffers — far below the
    /// allocating `spawn_overhead`, which it *replaces* when
    /// `lanes >= 2`.
    workspace_overhead: f64,
    /// When `true`, the executor model applies **per class**: only jobs
    /// whose class routes through a path-chunked kernel on the live
    /// farm (`JobClass::chunked_kernel`) get the thread/lane speedup;
    /// closed-form, PDE and tree jobs keep their sequential cost. This
    /// is the honest model for heterogeneous mixed-class workloads.
    /// **Off** by default so the historical uniform model (and every
    /// committed table) is unchanged bit for bit.
    per_class: bool,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            threads: 1,
            serial_fraction: 0.05,
            spawn_overhead: 0.02e-3,
            lanes: 1,
            lane_fraction: 0.9,
            workspace_overhead: 0.005e-3,
            per_class: false,
        }
    }
}

impl ExecParams {
    /// Amdahl-style speedup of the parallelisable region from SIMD lane
    /// batching: `1 / ((1 - f) + f/L)` with `f = lane_fraction`. Exactly
    /// 1.0 when `lanes <= 1`.
    fn lane_speedup(&self) -> f64 {
        if self.lanes <= 1 {
            return 1.0;
        }
        let l = self.lanes as f64;
        1.0 / ((1.0 - self.lane_fraction) + self.lane_fraction / l)
    }

    /// Wall seconds of a chunked-kernel job that costs `compute`
    /// sequential seconds, plus the worker-CPU seconds spent inside
    /// parallel chunks (what the live farm's `ComputeChunk` diagnostics
    /// sum to). Returns `(compute, 0.0)` untouched when both knobs are
    /// off (threads ≤ 1 and lanes ≤ 1). Lane batching shrinks the
    /// parallelisable region *before* it is divided across threads —
    /// lanes compose multiplicatively with threads, and the pooled
    /// workspaces replace the allocating spawn overhead.
    fn apply(&self, compute: f64) -> (f64, f64) {
        if self.threads <= 1 && self.lanes <= 1 {
            return (compute, 0.0);
        }
        let parallel = compute * (1.0 - self.serial_fraction);
        let laned = parallel / self.lane_speedup();
        let overhead = if self.lanes > 1 {
            self.workspace_overhead
        } else {
            self.spawn_overhead
        };
        let wall = compute - parallel + laned / self.threads.max(1) as f64 + overhead;
        (wall, laned)
    }

    /// [`Self::apply`] gated by the job's class: with `per_class` set,
    /// only chunked-kernel jobs (`chunked == true`) see the executor
    /// speedup; otherwise every job does, as the uniform model always
    /// did.
    pub(crate) fn apply_classed(&self, chunked: bool, compute: f64) -> (f64, f64) {
        if self.per_class && !chunked {
            return (compute, 0.0);
        }
        self.apply(compute)
    }
}

/// Transport-layer cost model: what the pluggable `transport` backend
/// adds *on top of* the raw [`NetworkParams`] wire time, per message and
/// per byte. **Zero by default**, so the baseline model reproduces the
/// paper's Tables I–III bit for bit; the presets carry the calibrated
/// overheads of the two live backends (the `perf` harness measures their
/// round trips as `transport.channel_rtt_us` / `transport.uds_rtt_us`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportParams {
    /// Fixed per-message overhead in seconds (frame header build/parse,
    /// mailbox wake-up; for the socket backend also the syscall pair).
    pub per_message: f64,
    /// Per-byte overhead in seconds (copy into/out of the frame; for the
    /// socket backend the kernel buffer crossings).
    pub per_byte: f64,
}

impl TransportParams {
    /// Transport overhead of one message of `bytes`.
    pub(crate) fn cost(&self, bytes: usize) -> f64 {
        self.per_message + bytes as f64 * self.per_byte
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// Network model.
    pub network: NetworkParams,
    /// NFS server model.
    pub nfs: NfsParams,
    /// Master-side per-job costs.
    pub master: MasterCosts,
    /// Slave-side per-job overheads.
    pub slave: SlaveCosts,
    /// Problem-store model (client cache + wire compression).
    pub store: StoreParams,
    /// Intra-slave compute-parallelism model (chunked executor).
    pub exec: ExecParams,
    /// Transport-layer overhead model (pluggable backend costs).
    pub transport: TransportParams,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExecParams {
        /// Amdahl speedup of one chunked-kernel job at this thread count:
        /// `1 / (s + (1 - s)/T)`. Exactly 1.0 when `threads <= 1`.
        fn speedup(&self) -> f64 {
            if self.threads <= 1 {
                return 1.0;
            }
            let t = self.threads as f64;
            1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / t)
        }
    }

    impl TransportParams {
        /// Calibrated in-process channel backend: an enqueue, a condvar
        /// wake-up and (for owned payloads) one memcpy.
        pub(crate) fn channel() -> Self {
            TransportParams {
                per_message: 1.5e-6,
                per_byte: 0.1e-9,
            }
        }

        /// Calibrated Unix-domain-socket backend: a write/read syscall pair
        /// and two kernel buffer crossings per message.
        pub(crate) fn socket() -> Self {
            TransportParams {
                per_message: 8e-6,
                per_byte: 0.6e-9,
            }
        }
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let n = NetworkParams::default();
        let small = n.transfer_time(100);
        let big = n.transfer_time(1_000_000);
        assert!(small < big);
        assert!(small >= n.latency);
        // 1 MB over GigE ≈ 8 ms plus latency.
        assert!((big - (n.latency + 0.008)).abs() < 1e-9);
    }

    #[test]
    fn defaults_are_ordered_sensibly() {
        let m = MasterCosts::default();
        assert!(m.full_load_prep > m.sload_prep);
        assert!(m.sload_prep > m.nfs_prep);
        let nfs = NfsParams::default();
        assert!(nfs.cold_read > nfs.warm_read);
    }

    #[test]
    fn store_model_is_off_by_default_and_hits_beat_every_read() {
        let s = StoreParams::default();
        assert!(!s.client_cache && !s.compress);
        // A cache hit must be cheaper than even a warm NFS read and any
        // master-side fetch span — otherwise caching could never help.
        let nfs = NfsParams::default();
        let m = MasterCosts::default();
        assert!(s.hit_fetch < nfs.warm_read);
        assert!(s.hit_fetch < m.sload_prep - m.nfs_prep);
        assert!(s.compress_ratio > 0.0 && s.compress_ratio < 1.0);
    }

    #[test]
    fn exec_model_off_by_default_and_speedup_is_sane() {
        let e = ExecParams::default();
        assert_eq!(e.threads, 1);
        assert_eq!(e.speedup(), 1.0);
        assert_eq!(e.apply(20.0), (20.0, 0.0));
        // More threads always help, but sublinearly (Amdahl).
        let mut prev = 1.0;
        for threads in [2, 4, 8, 16] {
            let e = ExecParams {
                threads,
                ..ExecParams::default()
            };
            let s = e.speedup();
            assert!(s > prev, "threads {threads}: {s} !> {prev}");
            assert!(s < threads as f64, "threads {threads}: superlinear {s}");
            prev = s;
        }
        // apply() is consistent with speedup() up to the fixed overhead.
        let e = ExecParams {
            threads: 8,
            ..ExecParams::default()
        };
        let (wall, parallel) = e.apply(20.0);
        assert!((wall - e.spawn_overhead - 20.0 / e.speedup()).abs() < 1e-12);
        assert!((parallel - 20.0 * (1.0 - e.serial_fraction)).abs() < 1e-12);
    }

    #[test]
    fn lane_model_off_by_default_and_bit_identical_when_scalar() {
        let e = ExecParams::default();
        assert_eq!(e.lanes, 1);
        assert_eq!(e.lane_speedup(), 1.0);
        // threads > 1 with lanes = 1 must reproduce the pre-lane model
        // bit for bit (the lane terms must be exact no-ops).
        for threads in [2, 4, 8] {
            let e = ExecParams {
                threads,
                ..ExecParams::default()
            };
            let parallel = 20.0 * (1.0 - e.serial_fraction);
            let want_wall = 20.0 - parallel + parallel / threads as f64 + e.spawn_overhead;
            assert_eq!(e.apply(20.0), (want_wall, parallel));
        }
    }

    #[test]
    fn per_class_gating_spares_sequential_classes_only() {
        // Off by default: classed apply is the uniform apply.
        let uniform = ExecParams {
            threads: 8,
            lanes: 4,
            ..ExecParams::default()
        };
        assert!(!uniform.per_class);
        for chunked in [false, true] {
            assert_eq!(uniform.apply_classed(chunked, 3.0), uniform.apply(3.0));
        }
        // On: sequential classes keep their cost, chunked classes speed up.
        let classed = ExecParams {
            per_class: true,
            ..uniform
        };
        assert_eq!(classed.apply_classed(false, 3.0), (3.0, 0.0));
        assert_eq!(classed.apply_classed(true, 3.0), uniform.apply(3.0));
        assert!(classed.apply_classed(true, 3.0).0 < 3.0);
    }

    #[test]
    fn transport_model_is_zero_by_default_and_socket_costs_more() {
        let off = TransportParams::default();
        assert_eq!(off.cost(0), 0.0);
        assert_eq!(off.cost(1 << 20), 0.0);
        let ch = TransportParams::channel();
        let so = TransportParams::socket();
        for bytes in [0usize, 96, 600, 1 << 16] {
            assert!(ch.cost(bytes) > 0.0);
            assert!(
                so.cost(bytes) > ch.cost(bytes),
                "sockets must cost more than channels at {bytes} B"
            );
        }
        // Overheads stay far below the modelled network wire time — the
        // transport refines the cost model, it must not dominate it.
        let n = NetworkParams::default();
        assert!(so.cost(600) < n.transfer_time(600));
    }

    #[test]
    fn lane_model_compounds_with_threads_and_cuts_overhead() {
        // Lanes alone help, lanes + threads help more, and wider lanes
        // help sublinearly (the scalar RNG/payoff fraction caps it).
        let base = ExecParams::default().apply(1.0).0;
        let l8 = ExecParams {
            lanes: 8,
            ..ExecParams::default()
        };
        let l4 = ExecParams {
            lanes: 4,
            ..ExecParams::default()
        };
        assert!(l8.lane_speedup() > l4.lane_speedup());
        assert!(l8.lane_speedup() < 8.0);
        let (lane_wall, laned) = l8.apply(1.0);
        assert!(lane_wall < base);
        assert!(laned < 1.0 * (1.0 - l8.serial_fraction));
        let both = ExecParams {
            threads: 8,
            lanes: 8,
            ..ExecParams::default()
        };
        let t8 = ExecParams {
            threads: 8,
            ..ExecParams::default()
        };
        assert!(both.apply(1.0).0 < t8.apply(1.0).0);
        assert!(both.apply(1.0).0 < lane_wall);
        // The pooled-workspace overhead undercuts the allocating spawn.
        assert!(both.workspace_overhead < both.spawn_overhead);
    }
}

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
    /// Minimum payload size worth compressing, bytes. The live farm
    /// always sends raw payloads; this is a simulated ablation only.
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
    /// Transport-layer overhead model (pluggable backend costs).
    pub transport: TransportParams,
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

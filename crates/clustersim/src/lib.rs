//! A discrete-event cluster simulator for the Robin-Hood portfolio
//! pricer.
//!
//! The paper's measurements were taken on a 256-node (512-core) SUPELEC
//! cluster — hardware we do not have. Per the reproduction's substitution
//! rule, this crate replays the *exact* master/slave protocol of Figs. 4–5
//! against a calibrated performance model instead:
//!
//! * **master** — a serial resource that, per job, pays the strategy's
//!   preparation cost (read + materialise + serialize + pack for *full
//!   load*; a raw file read for *serialized load*; nothing but the name
//!   for *NFS*) and then occupies its NIC for `latency + bytes/bandwidth`;
//! * **network** — Gigabit-Ethernet-like per-message latency and
//!   bandwidth;
//! * **NFS server** — a FIFO resource with a block cache: the first read
//!   of a file is a disk-speed access, later reads (from any client, and
//!   across consecutive sweep runs — exactly the §4.2 caching bias) are
//!   served from memory;
//! * **slaves** — one resource each, paying unpack/unserialize overheads
//!   and the job's compute cost, drawn per §4.3 class from a calibrated
//!   [`farm::calibrate::CostModel`].
//!
//! [`tables`] assembles this into the generators for Tables I, II and III.
//!
//! [`simulate_serve`] layers the live `serve::Session` front loop on
//! top: an open-loop arrival stream with per-priority admission shares,
//! request coalescing, result memoisation, and the same request-level
//! `Enqueue`/`Admit`/`Shed`/`MemoHit` event schema, so one
//! `obs::Breakdown` reports p50/p99 for simulated and live service
//! alike.

#![warn(missing_docs)]
#![allow(clippy::too_many_arguments)]

pub mod params;
pub mod resource;
pub mod sim;
pub mod tables;

pub use params::{
    ExecParams, MasterCosts, NetworkParams, NfsParams, SimConfig, SlaveCosts, StoreParams,
    TransportParams,
};
pub use sched::{DispatchPolicy, SchedConfig, SchedError, Supervision, Trace};
pub use sim::{
    simulate_farm, simulate_farm_cached, simulate_farm_config, simulate_farm_recorded,
    simulate_farm_sched, simulate_serve, simulate_sharded, ClientCache, NfsCache, ServeSimOutcome,
    ShardSimConfig, ShardSimOutcome, SimCaches, SimFault, SimJob, SimOutcome, SimRequest,
    SimSchedOpts,
};
pub use tables::{
    format_table, speedup_ratio, table1_rows, table1_sim_jobs, table2_rows, table2_sim_jobs,
    table3_rows, table3_sim_jobs, TableRow, TABLE1_CPUS, TABLE1_T2, TABLE2_CPUS,
    TABLE2_VANILLA_COST, TABLE3_CPUS, TABLE3_T2,
};

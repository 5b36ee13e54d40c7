//! A discrete-event cluster simulator for the Robin-Hood portfolio
//! pricer.
//!
//! The paper's measurements were taken on a 256-node (512-core) SUPELEC
//! cluster — hardware we do not have. Per the reproduction's substitution
//! rule, this crate runs the live farm's own master loop,
//! `farm::driver::drive`, over a virtual-time transport (`world`) that
//! prices everything else with a calibrated performance model:
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
//!   and the job's compute cost, [`SimJob::compute`], which the caller
//!   sets (the tables draw it per §4.3 class from
//!   `JobClass::paper_cost_seconds` or Table I's class range).
//!
//! [`simulate`] is the one entry point: a [`SimSpec`] names the jobs,
//! the strategy, the model, an optional recorder, an optional fault plan
//! (a live `farm::FarmConfig`'s, by the one op rule of `docs/FAULTS.md`)
//! and the [`Topology`] — one master under the live scheduler's own
//! [`SchedConfig`], or sharded peer masters. `tables` assembles it into
//! the generators for Tables I, II and III. A whole simulated cluster
//! runs on the calling thread (`clippy.toml` forbids spawning one).

#![warn(missing_docs)]

mod params;
mod resource;
pub mod sim;
mod tables;
mod world;

pub use params::{
    MasterCosts, NetworkParams, NfsParams, SimConfig, SlaveCosts, StoreParams, TransportParams,
};
pub use sched::{DispatchPolicy, SchedConfig, SchedError, Supervision, Trace};
pub use sim::{simulate, NfsCache, SimCaches, SimError, SimJob, SimOutcome, SimSpec, Topology};
pub use tables::{
    format_table, speedup_ratio, table1_rows, table1_sim_jobs, table2_rows, table2_sim_jobs,
    table3_rows, table3_sim_jobs, TableRow, TABLE1_CPUS, TABLE1_T2, TABLE2_CPUS,
    TABLE2_VANILLA_COST, TABLE3_CPUS, TABLE3_T2,
};

//! Hierarchical (sub-master) farm — the second §5 improvement: "divide
//! the nodes into sub-groups, each group having its own master. Then, each
//! sub-master could apply a naive load balancing but since it has fewer
//! slave processes to monitor the speedups would be better."
//!
//! Topology: the global master (rank 0) splits the file list into
//! contiguous chunks, one per sub-master, each sent as a job frame of
//! names; each sub-master runs a private Robin-Hood loop over its own
//! slaves — guided frames, like the flat farm — and reports its
//! collected results back to the global master when its chunk is
//! drained.

use crate::config::RunCtx;
use crate::driver::{self, Farm};
use crate::robin_hood::{FarmError, FarmReport};
use crate::slave::{self, Link};
use crate::strategy::Transmission;
use crate::wire::{self, Answer, Body, JobFrame};
use minimpi::{Comm, World};
use obs::Recorder;
use sched::{DispatchPolicy, SchedConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const TAG: i32 = 11;

/// Rank layout for `groups` sub-masters with `slaves_per_group` slaves
/// each: rank 0 = global master; ranks `1 + g*(slaves_per_group+1)` are
/// sub-masters; the following `slaves_per_group` ranks are their slaves.
#[derive(Debug, Clone, Copy)]
struct Topology {
    groups: usize,
    slaves_per_group: usize,
}

impl Topology {
    fn world_size(&self) -> usize {
        1 + self.groups * (self.slaves_per_group + 1)
    }

    fn sub_master_rank(&self, g: usize) -> usize {
        1 + g * (self.slaves_per_group + 1)
    }

    /// Which group a rank belongs to, and whether it is the sub-master.
    fn classify(&self, rank: usize) -> (usize, bool) {
        debug_assert!(rank >= 1);
        let g = (rank - 1) / (self.slaves_per_group + 1);
        let is_sub_master = (rank - 1).is_multiple_of(self.slaves_per_group + 1);
        (g, is_sub_master)
    }
}

/// Run the hierarchical farm: `groups` sub-masters, each with
/// `slaves_per_group` compute slaves. With a `recorder`, every rank's
/// comm traffic plus sub-master prepare and slave compute phases land in
/// it (size it with at least the world size:
/// `1 + groups * (slaves_per_group + 1)` ranks).
///
/// The groups are unsupervised: a job that cannot be prepared, read or
/// priced ends the run with [`FarmError::JobFailed`] once every group
/// has reported, with every rank stopped.
pub fn run_hierarchical_farm(
    files: &[PathBuf],
    groups: usize,
    slaves_per_group: usize,
    strategy: Transmission,
    recorder: Option<Arc<Recorder>>,
) -> Result<FarmReport, FarmError> {
    if groups == 0 || slaves_per_group == 0 {
        return Err(FarmError::NoSlaves);
    }
    let topo = Topology {
        groups,
        slaves_per_group,
    };
    let needs = topo.world_size();
    if let Some(covers) = recorder.as_ref().map(|r| r.ranks()).filter(|&c| c < needs) {
        let problem = format!("covers {covers} ranks but the hierarchy needs {needs}");
        return Err(FarmError::Config(exec::ConfigIssues::one(
            "recorder", problem,
        )));
    }
    let ctx = RunCtx::new(None);
    let results = World::run_instrumented(needs, None, recorder, |comm| {
        let rank = comm.rank();
        if rank == 0 {
            return Some(global_master(&comm, files, topo));
        }
        let (g, is_sub) = topo.classify(rank);
        let link = Link {
            master: topo.sub_master_rank(g),
            tag: TAG,
        };
        if !is_sub {
            slave::serve_jobs(&comm, &ctx, link, None);
        } else if let Err(e) = sub_master(&comm, &ctx, topo, link, strategy) {
            // A failed job was reported upstream; what is left is a
            // failed link, which has nobody to tell (see
            // `slave::serve_jobs`).
            panic!("sub-master {rank}: {e}");
        }
        None
    });
    results
        .into_iter()
        .next()
        .flatten()
        .expect("global master produces the report")
}

/// Global master: chunk the portfolio, send one chunk (a job frame of
/// names; an empty chunk is the empty message) to each sub-master,
/// gather their result lists.
fn global_master(comm: &Comm, files: &[PathBuf], topo: Topology) -> Result<FarmReport, FarmError> {
    let start = Instant::now();
    // Contiguous chunking, remainder spread over the first groups.
    let base = files.len() / topo.groups;
    let rem = files.len() % topo.groups;
    let mut begin = 0;
    for g in 0..topo.groups {
        let len = base + usize::from(g < rem);
        let mut chunk = JobFrame::new(Vec::new());
        for (idx, file) in files.iter().enumerate().skip(begin).take(len) {
            chunk.push(idx, Body::Name(&file.to_string_lossy()));
        }
        begin += len;
        let chunk = if len > 0 { chunk.finish() } else { Vec::new() };
        comm.send(&chunk, topo.sub_master_rank(g) as i32, TAG)?;
    }
    // Gather one report per group — all of them, so that a failed group
    // does not leave the others' reports unread — and keep the first
    // failure.
    let mut outcomes = Vec::with_capacity(files.len());
    let mut failure = None;
    for _ in 0..topo.groups {
        let (v, _st) = driver::recv_any(comm, TAG)?;
        match wire::decode_group_report(&v) {
            Ok(group) => outcomes.extend(group),
            Err(e) => failure = failure.or(Some(e)),
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let mut per_slave = vec![0usize; comm.size()];
    for o in &outcomes {
        *per_slave.get_mut(o.slave).ok_or_else(|| {
            FarmError::Protocol(format!("outcome from unknown rank {}", o.slave))
        })? += 1;
    }
    Ok(FarmReport {
        outcomes,
        elapsed: start.elapsed(),
        per_slave,
        failed_jobs: Vec::new(),
        failed_members: Vec::new(),
        retries: 0,
        dead_slaves: Vec::new(),
        trace: None,
    })
}

/// Sub-master: Robin-Hood over its own slaves for its chunk, then one
/// aggregated report to the global master — its outcomes in completion
/// order or, when a job failed, that job's failure.
fn sub_master(
    comm: &Comm,
    ctx: &RunCtx,
    topo: Topology,
    link: Link,
    strategy: Transmission,
) -> Result<(), FarmError> {
    let (chunk, _) = comm.recv(0, TAG)?;
    let members = if chunk.is_empty() {
        Vec::new()
    } else {
        wire::decode_frame(&chunk)?
    };
    let name = |(idx, body)| match body {
        Body::Name(name) => Ok((idx, Path::new(name))),
        Body::Serial { .. } => Err(FarmError::Protocol(format!("chunk job {idx} is no name"))),
    };
    let jobs: Vec<(usize, &Path)> = members.into_iter().map(name).collect::<Result<_, _>>()?;
    // Sched job `j` is global job `base + j` (chunks are contiguous).
    let farm = Farm {
        comm,
        link,
        base: jobs.first().map_or(0, |j| j.0),
        frames: None,
        supervisor: None,
        resident: false,
        ctx,
        strategy,
    };
    let mut scratch = Vec::new();
    let fifo = DispatchPolicy::Fifo;
    let cfg = SchedConfig::farm(jobs.len(), topo.slaves_per_group, fifo, None, None);
    let run = driver::drive(&farm, cfg, |job, rank, batch, _outcomes| {
        farm.send_frame(rank, jobs[job..job + batch].iter().copied(), &mut scratch)
    });
    let report = match run {
        Ok(run) => wire::group_report_value(&run.outcomes),
        Err(FarmError::JobFailed { job, why }) => Answer::failed(job, why).to_value(),
        Err(e) => return Err(e),
    };
    Ok(comm.send_obj(&report, 0, TAG)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{save_portfolio, toy_portfolio};

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_hier_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        let expected: Vec<f64> = jobs
            .iter()
            .map(|j| j.problem.compute().unwrap().price)
            .collect();
        (paths, expected, dir)
    }

    #[test]
    fn hierarchical_farm_completes_portfolio() {
        let (paths, expected, dir) = setup(30, "complete");
        let report =
            run_hierarchical_farm(&paths, 2, 3, Transmission::SerializedLoad, None).unwrap();
        assert_eq!(report.completed(), 30);
        let mut seen = [false; 30];
        for o in &report.outcomes {
            assert!(!seen[o.job]);
            seen[o.job] = true;
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn work_spreads_across_groups() {
        let (paths, _, dir) = setup(40, "spread");
        let report = run_hierarchical_farm(&paths, 2, 2, Transmission::Nfs, None).unwrap();
        // Topology: rank 0 global, 1 sub, 2-3 slaves, 4 sub, 5-6 slaves.
        let g1: usize = report.per_slave[2] + report.per_slave[3];
        let g2: usize = report.per_slave[5] + report.per_slave[6];
        assert_eq!(g1 + g2, 40);
        assert!(g1 > 0 && g2 > 0, "one group idle: {g1}/{g2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_group_matches_flat_farm_semantics() {
        let (paths, expected, dir) = setup(12, "flat_equiv");
        let report = run_hierarchical_farm(&paths, 1, 2, Transmission::FullLoad, None).unwrap();
        assert_eq!(report.completed(), 12);
        for o in &report.outcomes {
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_empty_topology() {
        assert!(run_hierarchical_farm(&[], 0, 3, Transmission::Nfs, None).is_err());
        assert!(run_hierarchical_farm(&[], 3, 0, Transmission::Nfs, None).is_err());
    }

    #[test]
    fn more_groups_than_jobs() {
        let (paths, _, dir) = setup(3, "sparse");
        let report =
            run_hierarchical_farm(&paths, 4, 2, Transmission::SerializedLoad, None).unwrap();
        assert_eq!(report.completed(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

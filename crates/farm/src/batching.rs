//! Job batching — the first §5 improvement: "gather several pricing
//! problems and send them all together to reduce the communication
//! latency … it is always advisable to send a single large message rather
//! [than] several smaller messages."
//!
//! The batched farm is the flat farm with [`crate::FarmConfig::batch_size`]
//! above 1: the same driver hands out contiguous FIFO batches, the same
//! slave loop prices each member, and only the framing differs — one
//! packed message of `batch_size` problems out ([`send_batch`]), one
//! columnar result list back per batch.

use crate::driver::Farm;
use crate::robin_hood::FarmError;
use crate::slave::{Framing, Link};
use crate::strategy::prepare_payload_recorded;
use crate::wire::BatchItem;
use nspval::{List, Value};
use std::path::PathBuf;

/// The batched link between rank 0 and its slaves.
pub(crate) const LINK: Link = Link {
    master: 0,
    tag: 9,
    framing: Framing::Batch,
};

/// Send jobs `range` to `slave` as one batch message.
pub(crate) fn send_batch(
    farm: &Farm<'_>,
    slave: usize,
    files: &[PathBuf],
    range: std::ops::Range<usize>,
) -> Result<(), FarmError> {
    let comm = farm.comm;
    let mut batch = List::new();
    for idx in range {
        let path = &files[idx];
        comm.set_job(Some(idx));
        let payload = prepare_payload_recorded(comm, farm.ctx, farm.strategy, path)
            .map_err(|e| FarmError::job_failed(idx, e))?;
        let name = path.to_string_lossy().to_string();
        batch.add_last(BatchItem { idx, name, payload }.to_value());
    }
    comm.set_job(None);
    // One packed message for the whole batch.
    let packed = comm.pack(&Value::List(batch));
    comm.send(packed.bytes(), slave as i32, farm.link.tag)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::robin_hood::FarmReport;
    use crate::strategy::Transmission;

    /// `batch` problems per message via the unified entry point.
    fn run_batched_farm(
        files: &[PathBuf],
        slaves: usize,
        strategy: Transmission,
        batch: usize,
    ) -> Result<FarmReport, FarmError> {
        run(files, &FarmConfig::new(slaves, strategy).batch_size(batch))
    }

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_batch_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        (paths, dir)
    }

    #[test]
    fn batched_farm_completes_everything() {
        let (paths, dir) = setup(37, "complete");
        for batch in [1, 4, 10, 100] {
            let report = run_batched_farm(&paths, 3, Transmission::SerializedLoad, batch).unwrap();
            assert_eq!(report.completed(), 37, "batch {batch}");
            let mut jobs: Vec<usize> = report.outcomes.iter().map(|o| o.job).collect();
            jobs.sort();
            assert_eq!(jobs, (0..37).collect::<Vec<_>>(), "batch {batch}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_one_matches_plain_farm_prices() {
        let (paths, dir) = setup(12, "vs_plain");
        // `batch_size(1)` *is* the plain per-job protocol; 2 is the
        // smallest batch that travels as one.
        let plain = run(&paths, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
        let batched = run_batched_farm(&paths, 2, Transmission::SerializedLoad, 1).unwrap();
        let pairs = run_batched_farm(&paths, 2, Transmission::SerializedLoad, 2).unwrap();
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(by_job(&plain), by_job(&batched));
        assert_eq!(by_job(&plain), by_job(&pairs));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_nfs_works() {
        let (paths, dir) = setup(9, "nfs");
        let report = run_batched_farm(&paths, 2, Transmission::Nfs, 4).unwrap();
        assert_eq!(report.completed(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversize_batch_clamps() {
        let (paths, dir) = setup(5, "oversize");
        let report = run_batched_farm(&paths, 3, Transmission::FullLoad, 1000).unwrap();
        assert_eq!(report.completed(), 5);
        // All jobs went to the first slave as one batch.
        assert_eq!(report.per_slave.iter().sum::<usize>(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}

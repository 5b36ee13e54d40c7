//! Job frames on the flat farm — the first §5 improvement: "gather
//! several pricing problems and send them all together to reduce the
//! communication latency … it is always advisable to send a single large
//! message rather [than] several smaller messages."
//!
//! The frame is what every farm link dispatches: `Farm::write_frame`
//! writes it and the driver sends it, the one slave loop prices each
//! member and answers with one columnar reply.
//! Where nothing needs jobs one at a time (a FIFO, unsupervised,
//! unstaged run of the flat farm) frames are sized by
//! [`sched::Batch::Guided`]'s rule; anywhere else a frame holds one job.

#[cfg(test)]
mod tests {
    use crate::config::{run, FarmConfig};
    use crate::driver::Farm;
    use crate::portfolio::{save_portfolio, toy_portfolio};
    use crate::robin_hood::{FarmError, FarmReport};
    use crate::strategy::Transmission;
    use std::path::PathBuf;

    /// The framed farm: what the unified entry point runs by default.
    fn run_batched_farm(
        files: &[PathBuf],
        slaves: usize,
        strategy: Transmission,
    ) -> Result<FarmReport, FarmError> {
        run(files, &FarmConfig::new(slaves, strategy).record_trace(true))
    }

    /// The sizes of the frames a run dispatched, in order.
    fn frames(report: &FarmReport) -> Vec<usize> {
        let trace = report.trace.as_ref().expect("trace was recorded");
        trace
            .entries
            .iter()
            .flat_map(|e| &e.actions)
            .filter_map(|a| match a {
                sched::Action::Dispatch { batch, .. } => Some(*batch),
                _ => None,
            })
            .collect()
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
        for slaves in [1, 2, 3, 5] {
            let report = run_batched_farm(&paths, slaves, Transmission::SerializedLoad).unwrap();
            assert_eq!(report.completed(), 37, "{slaves} slaves");
            let mut jobs: Vec<usize> = report.outcomes.iter().map(|o| o.job).collect();
            jobs.sort();
            assert_eq!(jobs, (0..37).collect::<Vec<_>>(), "{slaves} slaves");
            let frames = frames(&report);
            assert_eq!(frames[0], 37usize.div_ceil(2 * slaves), "{slaves} slaves");
            assert_eq!(frames.iter().sum::<usize>(), 37, "{slaves} slaves");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_one_matches_plain_farm_prices() {
        let (paths, dir) = setup(12, "vs_plain");
        // A supervised run ships frames of one: the same prices, bit for
        // bit, however many problems shared a message.
        let per_job = FarmConfig::new(2, Transmission::SerializedLoad).supervised(true);
        let per_job = run(&paths, &per_job).unwrap();
        let framed = run_batched_farm(&paths, 2, Transmission::SerializedLoad).unwrap();
        assert!(frames(&framed)[0] > 1);
        let by_job = |r: &FarmReport| {
            let mut v: Vec<(usize, u64)> = r
                .outcomes
                .iter()
                .map(|o| (o.job, o.price.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(by_job(&per_job), by_job(&framed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_nfs_works() {
        let (paths, dir) = setup(9, "nfs");
        let report = run_batched_farm(&paths, 2, Transmission::Nfs).unwrap();
        assert_eq!(report.completed(), 9);
        // ceil(9 / 4), ceil(6 / 4), then one at a time.
        assert_eq!(frames(&report), [3, 2, 1, 1, 1, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversize_batch_clamps() {
        let (paths, dir) = setup(600, "oversize");
        let report = run_batched_farm(&paths, 1, Transmission::FullLoad).unwrap();
        assert_eq!(report.completed(), 600);
        // Half of what is queued, capped: 256 of 600, then 172 of 344.
        assert_eq!(frames(&report)[..2], [sched::MAX_FRAME, 172]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites the job ids of an honest reply.
    type Mangle = fn(Vec<usize>) -> Vec<usize>;

    /// A slave whose reply covers something other than the frame it was
    /// sent: `mangle` rewrites the honest reply's job ids.
    fn run_with_rogue_slave(tag: &str, mangle: Mangle) -> FarmError {
        use crate::slave::TAG;
        use crate::wire::{batch_reply_value, decode_frame, Answer};
        let (paths, dir) = setup(8, tag);
        let scenario = move || {
            let ran = minimpi::World::run(2, |comm| {
                if comm.rank() == 1 {
                    let (frame, _) = comm.recv(0, TAG).unwrap();
                    let ids = decode_frame(&frame).unwrap().iter().map(|m| m.0).collect();
                    let answers: Vec<Answer> = mangle(ids)
                        .into_iter()
                        .map(|job| Answer::Priced {
                            job,
                            price: 666.0,
                            std_error: None,
                        })
                        .collect();
                    comm.send_obj(&batch_reply_value(&answers), 0, TAG).unwrap();
                    // The master must stop this rank, not leave it parked.
                    let (stop, _) = comm.recv(0, TAG).unwrap();
                    assert!(stop.is_empty());
                    return None;
                }
                let farm = Farm {
                    comm: &comm,
                    base: 0,
                    frames: None,
                    supervisor: None,
                    resident: false,
                    strategy: Transmission::SerializedLoad,
                };
                let cfg = FarmConfig::new(1, farm.strategy);
                let run = crate::driver::drive(&farm, cfg.sched_config(8), |job, n, _, buf| {
                    let members = (job..job + n).map(|idx| (idx, paths[idx].as_path()));
                    farm.write_frame(members, buf)
                });
                Some(run.expect_err("a rogue reply was believed"))
            });
            ran.into_iter().next().flatten().expect("master reports")
        };
        // Watchdog: a master that waits for the rest of the frame hangs.
        let (run, t0) = (std::thread::spawn(scenario), std::time::Instant::now());
        while !run.is_finished() {
            assert!(t0.elapsed().as_secs() < 10, "{tag}: hang");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        std::fs::remove_dir_all(&dir).ok();
        run.join().unwrap()
    }

    #[test]
    fn a_reply_must_answer_exactly_the_frame_that_was_sent() {
        // One slave, eight jobs: the first frame is jobs 0..4.
        let cases: [(&str, Mangle, &str); 4] = [
            ("fewer", |ids| ids[..2].to_vec(), "stops after 2 answers"),
            ("extra", |ids| [ids, vec![4]].concat(), "names job 4 there"),
            (
                "reordered",
                |ids| vec![ids[0], ids[2], ids[1], ids[3]],
                "names job 2 there",
            ),
            (
                "foreign",
                |ids| vec![ids[0], 7, ids[2], ids[3]],
                "names job 7 there",
            ),
        ];
        for (tag, mangle, what) in cases {
            match run_with_rogue_slave(tag, mangle) {
                FarmError::Protocol(why) => {
                    assert!(why.contains("rank 1 was sent jobs 0..4"), "{tag}: {why}");
                    assert!(why.contains(what), "{tag}: {why}");
                }
                other => panic!("{tag}: expected a protocol error, got {other:?}"),
            }
        }
    }
}

//! Property tests for the scheduler state machine: over randomized
//! workloads, event interleavings, fault injections and dispatch
//! policies, the scheduler must
//!
//! * never have one job in flight on two slaves at once, and never
//!   dispatch a job that already has an accepted answer;
//! * never dispatch to a buried (or stopped) slave;
//! * always terminate — every fair event sequence reaches `Finish` or
//!   `AllSlavesDead` in bounded steps;
//! * with staged rounds declared: never dispatch a job whose round is
//!   still blocked (an earlier round has unanswered work), insert a
//!   barrier **only** where declared (a uniform-round staged machine is
//!   action-for-action identical to the flat one), and drain every
//!   round by the time the run terminates.

use proptest::prelude::*;
use sched::{Action, DispatchPolicy, Event, SchedConfig, Scheduler, Supervision, MAX_FRAME};

/// A tiny deterministic RNG for the event walk (SplitMix64).
struct Walk {
    state: u64,
}

impl Walk {
    fn new(seed: u64) -> Self {
        Walk { state: seed }
    }
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Driver-side mirror of the scheduler's assignments, built purely from
/// the action stream, used to check the invariants.
struct Model {
    /// slave -> jobs currently assigned by an un-answered Dispatch.
    inflight: Vec<Option<Vec<usize>>>,
    dead: Vec<bool>,
    stopped: Vec<bool>,
    accepted: Vec<bool>,
    finished: bool,
    aborted: bool,
    /// `Some(r)` when the config declared staged rounds: `r[job]` is
    /// each job's round, and the model asserts the barrier invariants.
    round_of: Option<Vec<usize>>,
    /// Highest round seen in a dispatch so far (rounds unlock in order).
    last_round: usize,
    /// `true` for unsupervised staged runs: every earlier-round job must
    /// be *accepted* before a later round dispatches (supervised runs
    /// may also abandon jobs, which unblocks the round without an
    /// acceptance).
    strict_rounds: bool,
    /// Debug log of every action, for cross-machine comparisons.
    log: Vec<String>,
}

impl Model {
    fn new(jobs: usize, slaves: usize) -> Self {
        Model {
            inflight: vec![None; slaves + 1],
            dead: vec![false; slaves + 1],
            stopped: vec![false; slaves + 1],
            accepted: vec![false; jobs],
            finished: false,
            aborted: false,
            round_of: None,
            last_round: 0,
            strict_rounds: false,
            log: Vec::new(),
        }
    }

    /// Apply one action, asserting the safety invariants.
    fn apply(&mut self, a: &Action) {
        self.log.push(format!("{a:?}"));
        match *a {
            Action::Dispatch { job, slave, batch } => {
                assert!(
                    !self.dead[slave],
                    "dispatch({job}->{slave}) to a buried slave"
                );
                assert!(
                    !self.stopped[slave],
                    "dispatch({job}->{slave}) to a stopped slave"
                );
                assert!(
                    self.inflight[slave].is_none(),
                    "dispatch({job}->{slave}) to a busy slave"
                );
                for j in job..job + batch {
                    assert!(!self.accepted[j], "job {j} redispatched after acceptance");
                    for (s, inf) in self.inflight.iter().enumerate() {
                        if let Some(batch_jobs) = inf {
                            assert!(
                                !batch_jobs.contains(&j),
                                "job {j} double-dispatched (already on slave {s})"
                            );
                        }
                    }
                }
                if let Some(rounds) = &self.round_of {
                    let r = rounds[job];
                    assert!(
                        r >= self.last_round,
                        "dispatch({job}->{slave}) in round {r} after round {} opened",
                        self.last_round
                    );
                    self.last_round = r;
                    if self.strict_rounds {
                        for (j, &rj) in rounds.iter().enumerate() {
                            if rj < r {
                                assert!(
                                    self.accepted[j],
                                    "round-{r} job {job} dispatched while round-{rj} \
                                     job {j} is unanswered"
                                );
                            }
                        }
                    }
                }
                self.inflight[slave] = Some((job..job + batch).collect());
            }
            Action::Stop { slave } => {
                assert!(!self.stopped[slave], "slave {slave} stopped twice");
                self.stopped[slave] = true;
            }
            Action::Accept { job, .. } => {
                assert!(!self.accepted[job], "job {job} accepted twice");
                self.accepted[job] = true;
            }
            Action::Expire { slave, .. } => {
                self.inflight[slave] = None;
            }
            Action::Requeue { .. } => {}
            Action::Bury { slave } => {
                assert!(!self.dead[slave], "slave {slave} buried twice");
                self.dead[slave] = true;
                self.inflight[slave] = None;
            }
            Action::AllSlavesDead => self.aborted = true,
            Action::Finish => self.finished = true,
        }
    }

    fn busy_slaves(&self) -> Vec<usize> {
        (1..self.inflight.len())
            .filter(|&s| self.inflight[s].is_some() && !self.dead[s])
            .collect()
    }
}

/// Random-walk one scheduler to termination under a fair environment.
fn walk_to_termination(cfg: SchedConfig, seed: u64) -> (Scheduler, Model) {
    let jobs = cfg.jobs;
    let slaves = cfg.slaves;
    let supervised = cfg.supervision.is_some();
    let rounds = cfg.rounds.clone();
    let mut sched = Scheduler::new(cfg).expect("valid config");
    let mut model = Model::new(jobs, slaves);
    model.strict_rounds = rounds.is_some() && !supervised;
    model.round_of = rounds;
    let mut rng = Walk::new(seed);
    let mut now: u64 = 0;

    let feed = |sched: &mut Scheduler, model: &mut Model, ev: Event, now: u64| {
        for a in sched.on(ev, now) {
            model.apply(&a);
        }
    };

    for s in 1..=slaves {
        feed(&mut sched, &mut model, Event::SlaveReady { slave: s }, now);
    }

    let budget = 64 * (jobs + 1) * (slaves + 1) + 10_000;
    for _ in 0..budget {
        if sched.is_terminal() {
            break;
        }
        now += 1 + rng.below(40_000_000); // up to 40ms per step
        let busy = model.busy_slaves();
        let roll = rng.below(100);
        if !busy.is_empty() && (roll < 55 || !supervised) {
            // A slave answers its batch (identified by its first job).
            let s = busy[rng.below(busy.len() as u64) as usize];
            let batch_jobs = model.inflight[s].take().expect("busy");
            let job = batch_jobs[0];
            feed(&mut sched, &mut model, Event::Answer { job, slave: s }, now);
            // The Accept action covers the batch head; its mates in the
            // same dispatch were answered by the same message.
            for j in batch_jobs.into_iter().skip(1) {
                assert!(!model.accepted[j], "job {j} accepted twice");
                model.accepted[j] = true;
            }
        } else if supervised && !busy.is_empty() && roll < 65 {
            // A slave reports a failure instead of a result.
            let s = busy[rng.below(busy.len() as u64) as usize];
            let job = model.inflight[s].as_ref().expect("busy")[0];
            model.inflight[s] = None;
            feed(
                &mut sched,
                &mut model,
                Event::Failure { job, slave: s },
                now,
            );
        } else if supervised && roll < 72 {
            // A slave dies (possibly the last one).
            let alive: Vec<usize> = (1..=slaves).filter(|&s| !model.dead[s]).collect();
            if let Some(&s) = alive.get(rng.below(alive.len().max(1) as u64) as usize) {
                model.inflight[s] = None;
                feed(&mut sched, &mut model, Event::SlaveDead { slave: s }, now);
            }
        } else {
            // Time passes; deadlines and backoffs mature.
            now += 1 + rng.below(400_000_000); // up to 400ms
            feed(&mut sched, &mut model, Event::Deadline, now);
        }
    }
    (sched, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Plain-mode walks: safety invariants hold action by action and the
    /// run always reaches `Finish` with every job accepted exactly once.
    #[test]
    fn plain_walks_terminate_with_every_job_accepted(
        jobs in 0usize..24,
        slaves in 1usize..5,
        framed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = if framed {
            SchedConfig::farm(jobs, slaves, DispatchPolicy::Fifo, None, None)
        } else {
            SchedConfig::plain(jobs, slaves)
        };
        let (sched, model) = walk_to_termination(cfg, seed);
        prop_assert!(sched.finished(), "plain run did not finish");
        prop_assert!(model.finished);
        prop_assert!(model.accepted.iter().all(|a| *a), "unanswered job in a finished run");
        prop_assert!((1..=slaves).all(|s| model.stopped[s]), "finished without stopping a slave");
    }

    /// Framed walks, whichever slave answers next: every job goes out
    /// exactly once, in contiguous ascending frames of at most
    /// `MAX_FRAME`, and the last frame dispatched is a single job.
    #[test]
    fn framed_walks_dispatch_every_job_once_in_guided_frames(
        jobs in 0usize..3_001,
        slaves in 1usize..9,
        seed in any::<u64>(),
    ) {
        let cfg = SchedConfig::farm(jobs, slaves, DispatchPolicy::Fifo, None, None);
        let mut sched = Scheduler::new(cfg).expect("valid config");
        let mut rng = Walk::new(seed);
        let mut busy: Vec<(usize, usize)> = Vec::new();
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut take = |acts: Vec<Action>, busy: &mut Vec<(usize, usize)>| {
            for a in acts {
                if let Action::Dispatch { job, slave, batch } = a {
                    busy.push((job, slave));
                    frames.push((job, batch));
                }
            }
        };
        for slave in 1..=slaves {
            take(sched.on(Event::SlaveReady { slave }, 0), &mut busy);
        }
        while !busy.is_empty() {
            let (job, slave) = busy.swap_remove(rng.below(busy.len() as u64) as usize);
            take(sched.on(Event::Answer { job, slave }, 0), &mut busy);
        }
        prop_assert!(sched.finished());
        let mut next = 0;
        for &(job, batch) in &frames {
            prop_assert_eq!(job, next, "frames are contiguous and ascending");
            prop_assert!((1..=MAX_FRAME).contains(&batch), "frame of {}", batch);
            next += batch;
        }
        prop_assert_eq!(next, jobs, "every job dispatched exactly once");
        prop_assert_eq!(frames.last().map_or(1, |f| f.1), 1, "the tail frame is one job");
    }

    /// Supervised walks under answers, failures, deadline expiries and
    /// slave deaths: safety invariants hold and the run terminates in
    /// `Finish` or `AllSlavesDead`; on `Finish` every job was accepted
    /// or exhausted its attempt budget.
    #[test]
    fn supervised_walks_terminate(
        jobs in 0usize..24,
        slaves in 1usize..5,
        max_attempts in 1u32..5,
        lpt in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = if lpt {
            // A non-trivial, collision-rich cost vector.
            DispatchPolicy::Lpt {
                costs: (0..jobs).map(|j| ((j * 7) % 5) as f64).collect(),
            }
        } else {
            DispatchPolicy::Fifo
        };
        let cfg = SchedConfig::plain(jobs, slaves).policy(policy).supervised(Supervision {
            deadline_ns: 150_000_000,
            max_attempts,
            backoff_base_ns: 5_000_000,
        });
        let (sched, model) = walk_to_termination(cfg, seed);
        prop_assert!(
            sched.is_terminal(),
            "supervised run neither finished nor aborted"
        );
        if sched.finished() {
            let failed = sched.failed_jobs();
            for (j, acc) in model.accepted.iter().enumerate() {
                prop_assert!(
                    *acc || failed.contains(&j),
                    "job {j} neither accepted nor abandoned in a finished run"
                );
            }
            // Dead slaves never get the stop sentinel; live ones always do.
            for s in 1..=slaves {
                prop_assert!(model.dead[s] != model.stopped[s] || !model.dead[s]);
            }
        } else {
            prop_assert!(model.aborted);
            prop_assert!((1..=slaves).all(|s| model.dead[s]));
            prop_assert!(sched.unfinished() > 0);
        }
    }

    /// Staged plain walks: a job is never dispatched while any job of an
    /// earlier round is unanswered, rounds unlock in ascending order,
    /// and termination implies every declared round was drained.
    #[test]
    fn staged_walks_never_dispatch_a_blocked_job(
        rounds in proptest::collection::vec(0usize..5, 0..20),
        slaves in 1usize..5,
        lpt in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let jobs = rounds.len();
        let policy = if lpt {
            DispatchPolicy::Lpt {
                costs: (0..jobs).map(|j| ((j * 13) % 7) as f64).collect(),
            }
        } else {
            DispatchPolicy::Fifo
        };
        let n_rounds = rounds.iter().map(|&r| r + 1).max().unwrap_or(0);
        let cfg = SchedConfig::plain(jobs, slaves)
            .policy(policy)
            .rounds(rounds.clone());
        let (sched, model) = walk_to_termination(cfg, seed);
        prop_assert!(sched.finished(), "staged plain run did not finish");
        prop_assert!(model.accepted.iter().all(|a| *a));
        // Terminal => rounds drained: the cursor sits past the last
        // declared round and no round reports unfinished work.
        prop_assert_eq!(sched.rounds_drained(), Some(n_rounds));
        prop_assert_eq!(sched.current_round(), None);
    }

    /// Staged supervised walks under failures, expiries and deaths: the
    /// barrier never unlocks out of order, the run terminates, and a
    /// finished run drained every round (abandoned jobs unblock their
    /// round instead of wedging the ones behind it).
    #[test]
    fn staged_supervised_walks_terminate_with_rounds_drained(
        rounds in proptest::collection::vec(0usize..4, 0..16),
        slaves in 1usize..4,
        max_attempts in 1u32..4,
        seed in any::<u64>(),
    ) {
        let jobs = rounds.len();
        let n_rounds = rounds.iter().map(|&r| r + 1).max().unwrap_or(0);
        let cfg = SchedConfig::plain(jobs, slaves)
            .rounds(rounds.clone())
            .supervised(Supervision {
                deadline_ns: 150_000_000,
                max_attempts,
                backoff_base_ns: 5_000_000,
            });
        let (sched, model) = walk_to_termination(cfg, seed);
        prop_assert!(sched.is_terminal(), "staged supervised run did not terminate");
        if sched.finished() {
            let failed = sched.failed_jobs();
            for (j, acc) in model.accepted.iter().enumerate() {
                prop_assert!(
                    *acc || failed.contains(&j),
                    "job {} neither accepted nor abandoned", j
                );
            }
            prop_assert_eq!(sched.rounds_drained(), Some(n_rounds));
            prop_assert_eq!(sched.current_round(), None);
        }
    }

    /// Barrier only where declared: a staged machine whose jobs all sit
    /// in round 0 replays the *identical* action stream as the flat
    /// machine under the same event walk — staging must cost nothing
    /// when no cross-round structure exists.
    #[test]
    fn uniform_round_walks_match_flat_walks_action_for_action(
        jobs in 0usize..20,
        slaves in 1usize..5,
        seed in any::<u64>(),
    ) {
        let flat = SchedConfig::plain(jobs, slaves);
        let staged = SchedConfig::plain(jobs, slaves).rounds(vec![0; jobs]);
        let (_, flat_model) = walk_to_termination(flat, seed);
        let (_, staged_model) = walk_to_termination(staged, seed);
        prop_assert_eq!(&flat_model.log, &staged_model.log);
    }
}

// ---------------------------------------------------------------------------
// Straggler tail: LPT strictly beats FIFO on a heavy-tailed class mix
// ---------------------------------------------------------------------------

/// Event-driven virtual-time replay: every dispatch runs for its job's
/// cost; the earliest-finishing slave answers next. Returns the
/// makespan in seconds.
fn replay_makespan(policy: DispatchPolicy, costs: &[f64], slaves: usize) -> f64 {
    let cfg = SchedConfig::plain(costs.len(), slaves).policy(policy);
    let mut sched = Scheduler::new(cfg).expect("valid config");
    let mut running: Vec<Option<usize>> = vec![None; slaves + 1];
    let mut free_at: Vec<u64> = vec![0; slaves + 1];
    let mut now: u64 = 0;
    let apply = |actions: Vec<Action>,
                 running: &mut Vec<Option<usize>>,
                 free_at: &mut Vec<u64>,
                 now: u64| {
        for a in actions {
            if let Action::Dispatch { job, slave, .. } = a {
                running[slave] = Some(job);
                free_at[slave] = now + (costs[job] * 1e9) as u64;
            }
        }
    };
    for s in 1..=slaves {
        let acts = sched.on(Event::SlaveReady { slave: s }, now);
        apply(acts, &mut running, &mut free_at, now);
    }
    while !sched.is_terminal() {
        let Some(s) = (1..=slaves)
            .filter(|&s| running[s].is_some())
            .min_by_key(|&s| free_at[s])
        else {
            break;
        };
        now = free_at[s];
        let job = running[s].take().expect("busy slave");
        let acts = sched.on(Event::Answer { job, slave: s }, now);
        apply(acts, &mut running, &mut free_at, now);
    }
    now as f64 / 1e9
}

#[test]
fn lpt_strictly_beats_fifo_on_a_heavy_tailed_mixed_portfolio() {
    // The mixed workload's per-class grain shape (§4.3 magnitudes): six
    // near-free vanillas, two European MC grains, then the XVA, BSDE,
    // American-LSM and Bermudan heavies — FIFO strands a 105 s Bermudan
    // on the run's tail, LPT fronts it.
    let block = [
        0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 20.0, 20.0, 25.0, 65.0, 90.0, 105.0,
    ];
    let costs: Vec<f64> = (0..4).flat_map(|_| block).collect();
    let slaves = 4;
    let fifo = replay_makespan(DispatchPolicy::Fifo, &costs, slaves);
    let lpt = replay_makespan(
        DispatchPolicy::Lpt {
            costs: costs.clone(),
        },
        &costs,
        slaves,
    );
    assert!(
        lpt < fifo,
        "LPT makespan {lpt:.3}s does not beat FIFO {fifo:.3}s"
    );
    // And the win is the straggler tail, not noise: at least one full
    // European-MC grain of slack.
    assert!(fifo - lpt > 20.0, "tail win too small: {:.3}s", fifo - lpt);
}

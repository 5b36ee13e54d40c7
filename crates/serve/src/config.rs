//! [`ServeConfig`]: the session builder, following the same convention
//! as [`exec::ExecPolicy`] and `farm::FarmConfig` — chainable setters
//! plus one [`validate`](ServeConfig::validate) that collects *every*
//! invalid field into an [`exec::ConfigIssues`] instead of stopping at
//! the first failure.

use exec::{ConfigIssues, ExecPolicy};
use farm::SupervisorConfig;
use minimpi::FaultPlan;
use obs::Recorder;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Everything a long-lived pricing session needs, behind one builder.
///
/// Defaults: 3 priority classes over a 64-request queue, 8 MiB of
/// serialized problem bytes in flight, a 1 MiB result memo, sequential
/// compute, supervised dispatch with test-scale timings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) slaves: usize,
    pub(crate) queue_depth: usize,
    pub(crate) inflight_bytes: usize,
    pub(crate) memo_bytes: usize,
    pub(crate) priorities: u8,
    pub(crate) threads: usize,
    pub(crate) lanes: usize,
    /// The farm's supervision knobs; the slaves' patience is unbounded
    /// (`Duration::MAX`), since a session is long-lived.
    pub(crate) supervisor: SupervisorConfig,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    pub(crate) recorder: Option<Arc<Recorder>>,
}

impl ServeConfig {
    /// A session over `slaves` resident worker ranks (the world is
    /// `slaves + 1` ranks: the front loop plus the slaves).
    pub fn new(slaves: usize) -> Self {
        ServeConfig {
            slaves,
            queue_depth: 64,
            inflight_bytes: 8 << 20,
            memo_bytes: 1 << 20,
            priorities: 3,
            threads: 1,
            lanes: 1,
            supervisor: SupervisorConfig {
                slave_idle_timeout: Duration::MAX,
                ..SupervisorConfig::default()
            },
            fault_plan: None,
            recorder: None,
        }
    }

    /// Bound on admitted-but-unanswered requests. Priority class `p`
    /// may occupy at most `queue_depth >> p` slots (floored at 1), so
    /// under load the batch classes shed first and the urgent class
    /// keeps the whole queue.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Bound on serialized problem bytes admitted and not yet answered.
    /// A request whose problems alone exceed it is refused as
    /// [`ServeError::TooLarge`].
    pub fn inflight_bytes(mut self, bytes: usize) -> Self {
        self.inflight_bytes = bytes;
        self
    }

    /// Byte budget of the result memo ([`store::ResultCache`]); 0
    /// disables memoisation entirely.
    pub fn memo_bytes(mut self, bytes: usize) -> Self {
        self.memo_bytes = bytes;
        self
    }

    /// Number of priority classes (class 0 is the most urgent).
    pub fn priorities(mut self, classes: u8) -> Self {
        self.priorities = classes;
        self
    }

    /// Worker threads per slave compute (1 with scalar lanes = the
    /// sequential kernels; anything else routes through the chunked
    /// executor — [`ExecPolicy::validated`] decides).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// SIMD lane width of the path kernels (1 = scalar).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Per-dispatch deadline of the supervised scheduler: a job in
    /// flight longer than this is presumed lost and requeued.
    pub fn job_deadline(mut self, d: Duration) -> Self {
        self.supervisor.job_deadline = d;
        self
    }

    /// Front-loop poll granularity while a batch is in flight.
    pub fn poll(mut self, d: Duration) -> Self {
        self.supervisor.poll = d;
        self
    }

    /// Inject faults into the session's world (testing).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Record phase events into `rec` (needs at least `slaves + 1`
    /// rings).
    pub fn recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Admission limit of priority class `p`: its share of the queue,
    /// halving per class and floored at one slot.
    pub(crate) fn depth_limit(&self, priority: u8) -> usize {
        (self.queue_depth >> priority.min(63)).max(1)
    }

    /// The slave-side compute policy, decided by
    /// [`ExecPolicy::validated`] exactly as `farm::FarmConfig` decides
    /// it: `None` (the sequential kernel) unless threads or lanes ask
    /// for the chunked executor.
    pub(crate) fn exec_policy(&self) -> Option<ExecPolicy> {
        ExecPolicy::validated(self.threads, self.lanes).expect("validated by Session::start")
    }

    /// The execution-parameter half of the memo key: `(0, 0)` for the
    /// sequential kernel, else the policy's chunk size and lane width
    /// (both are part of the result contract — see `store::MemoKey`).
    pub(crate) fn memo_params(&self) -> (u32, u32) {
        self.exec_policy()
            .map_or((0, 0), |p| (p.chunk_size() as u32, p.lane_width() as u32))
    }

    /// Validate the whole configuration, collecting *every* invalid
    /// field (not just the first) into one [`ConfigIssues`].
    pub(crate) fn validate(&self) -> Result<(), ConfigIssues> {
        let mut issues = ConfigIssues::collect();
        if self.slaves == 0 {
            issues.reject("slaves", "session needs at least one slave");
        }
        if self.queue_depth == 0 {
            issues.reject("queue_depth", "must admit at least one request");
        }
        if self.inflight_bytes == 0 {
            issues.reject("inflight_bytes", "a zero byte budget can never admit");
        }
        if self.priorities == 0 {
            issues.reject("priorities", "needs at least one priority class");
        }
        if let Err(bad) = ExecPolicy::validated(self.threads, self.lanes) {
            issues.issues.extend(bad.issues);
        }
        if self.supervisor.job_deadline.is_zero() {
            issues.reject("job_deadline", "must be nonzero");
        }
        if self.supervisor.poll.is_zero() {
            issues.reject("poll", "must be nonzero");
        }
        if let Some(rec) = &self.recorder {
            if rec.ranks() < self.slaves + 1 {
                issues.reject(
                    "recorder",
                    format!(
                        "covers {} ranks but the session needs {}",
                        rec.ranks(),
                        self.slaves + 1
                    ),
                );
            }
        }
        issues.into_result()
    }
}

/// A session-level failure.
#[derive(Debug)]
pub enum ServeError {
    /// The [`ServeConfig`] was rejected; carries every invalid field.
    Config(ConfigIssues),
    /// Admission control turned the request away: its priority class is
    /// at its queue share, or the byte budget is exhausted. Back off
    /// and resubmit.
    Overloaded {
        /// Priority class of the rejected request.
        priority: u8,
        /// Requests of this class already admitted.
        queued: usize,
        /// This class's queue share.
        depth_limit: usize,
        /// Serialized problem bytes currently in flight.
        inflight_bytes: usize,
        /// The session's in-flight byte budget.
        byte_budget: usize,
    },
    /// The request's problems serialize to more bytes than the session's
    /// whole in-flight budget, so no retry can ever admit it: split it,
    /// or raise [`ServeConfig::inflight_bytes`]. Not a shed.
    TooLarge {
        /// Serialized problem bytes the request holds.
        bytes: usize,
        /// The session's in-flight byte budget.
        byte_budget: usize,
    },
    /// The request's priority class does not exist in this session.
    InvalidPriority {
        /// The requested class.
        priority: u8,
        /// Number of configured classes.
        classes: u8,
    },
    /// A request must carry at least one problem.
    EmptyRequest,
    /// The session is shut down (or its world died); the request was
    /// not admitted, or the ticket will never be answered.
    SessionClosed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(issues) => write!(f, "{issues}"),
            ServeError::Overloaded {
                priority,
                queued,
                depth_limit,
                inflight_bytes,
                byte_budget,
            } => write!(
                f,
                "overloaded: priority {priority} holds {queued}/{depth_limit} queue slots, \
                 {inflight_bytes}/{byte_budget} bytes in flight"
            ),
            ServeError::TooLarge { bytes, byte_budget } => write!(
                f,
                "too large: the request holds {bytes} bytes, more than the whole \
                 {byte_budget}-byte budget"
            ),
            ServeError::InvalidPriority { priority, classes } => write!(
                f,
                "priority {priority} out of range (session has {classes} classes)"
            ),
            ServeError::EmptyRequest => write!(f, "request carries no problems"),
            ServeError::SessionClosed => write!(f, "session is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(cfg: &ServeConfig) -> ConfigIssues {
        cfg.validate().expect_err("config should be rejected")
    }

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::new(2).validate().is_ok());
    }

    #[test]
    fn zero_slaves_rejected() {
        assert!(rejected(&ServeConfig::new(0)).has("slaves"));
    }

    #[test]
    fn zero_queue_depth_rejected() {
        assert!(rejected(&ServeConfig::new(2).queue_depth(0)).has("queue_depth"));
    }

    #[test]
    fn zero_byte_budget_rejected() {
        assert!(rejected(&ServeConfig::new(2).inflight_bytes(0)).has("inflight_bytes"));
    }

    #[test]
    fn zero_priorities_rejected() {
        assert!(rejected(&ServeConfig::new(2).priorities(0)).has("priorities"));
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(rejected(&ServeConfig::new(2).threads(0)).has("threads"));
    }

    #[test]
    fn unsupported_lane_width_rejected() {
        for lanes in [2usize, 3, 5, 16] {
            assert!(
                rejected(&ServeConfig::new(2).lanes(lanes)).has("lanes"),
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn zero_deadline_and_poll_rejected() {
        let issues = rejected(
            &ServeConfig::new(2)
                .job_deadline(Duration::ZERO)
                .poll(Duration::ZERO),
        );
        assert!(issues.has("job_deadline"));
        assert!(issues.has("poll"));
    }

    #[test]
    fn undersized_recorder_rejected() {
        let cfg = ServeConfig::new(3).recorder(Arc::new(Recorder::new(2)));
        assert!(rejected(&cfg).has("recorder"));
    }

    #[test]
    fn validation_collects_every_invalid_field_at_once() {
        let cfg = ServeConfig::new(0)
            .queue_depth(0)
            .threads(0)
            .lanes(7)
            .poll(Duration::ZERO);
        let issues = rejected(&cfg);
        assert_eq!(issues.issues.len(), 5, "{issues}");
        for field in ["slaves", "queue_depth", "threads", "lanes", "poll"] {
            assert!(issues.has(field), "missing {field} in {issues}");
        }
    }

    #[test]
    fn priority_shares_halve_and_floor_at_one() {
        let cfg = ServeConfig::new(2).queue_depth(8).priorities(5);
        assert_eq!(cfg.depth_limit(0), 8);
        assert_eq!(cfg.depth_limit(1), 4);
        assert_eq!(cfg.depth_limit(2), 2);
        assert_eq!(cfg.depth_limit(3), 1);
        assert_eq!(cfg.depth_limit(4), 1, "share floors at one slot");
    }

    #[test]
    fn memo_params_track_the_result_contract() {
        // Sequential kernel: the (0, 0) legacy key.
        assert_eq!(ServeConfig::new(2).memo_params(), (0, 0));
        // Chunked: the default chunk and the lane width, whatever the
        // thread count (one thread with lanes is chunked too).
        let chunk = exec::DEFAULT_CHUNK as u32;
        assert_eq!(ServeConfig::new(2).threads(4).memo_params(), (chunk, 1));
        assert_eq!(ServeConfig::new(2).lanes(8).memo_params(), (chunk, 8));
    }
}

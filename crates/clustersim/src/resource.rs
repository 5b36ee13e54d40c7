//! Serial resources — the building block of the replay simulator.
//!
//! Every contended entity (the master CPU+NIC, each slave, the NFS
//! server) is a FIFO serial resource: work submitted at `ready` starts at
//! `max(ready, free_at)` and holds the resource for `duration`.

/// A serially used resource with FIFO semantics.
#[derive(Debug, Clone, Default)]
pub(crate) struct Resource {
    free_at: f64,
    busy_total: f64,
}

impl Resource {
    /// Construct with validation; panics on invalid parameters.
    pub(crate) fn new() -> Self {
        Resource {
            free_at: 0.0,
            busy_total: 0.0,
        }
    }

    /// Occupy the resource for `duration` starting no earlier than
    /// `ready`; returns the completion time.
    pub(crate) fn acquire(&mut self, ready: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0, "negative duration");
        let start = self.free_at.max(ready);
        self.free_at = start + duration;
        self.busy_total += duration;
        self.free_at
    }

    /// Total busy time accumulated (utilisation numerator).
    pub(crate) fn busy_total(&self) -> f64 {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Resource {
        /// Earliest time new work could start.
        fn free_at(&self) -> f64 {
            self.free_at
        }

        /// Clear all accumulated state.
        fn reset(&mut self) {
            self.free_at = 0.0;
            self.busy_total = 0.0;
        }
    }

    #[test]
    fn sequential_acquisitions_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0.0, 2.0), 2.0);
        // Submitted at t=1 while busy until 2 → starts at 2.
        assert_eq!(r.acquire(1.0, 3.0), 5.0);
        // Submitted after the resource is idle → starts immediately.
        assert_eq!(r.acquire(10.0, 1.0), 11.0);
        assert_eq!(r.busy_total(), 6.0);
    }

    #[test]
    fn zero_duration_is_allowed() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5.0, 0.0), 5.0);
        assert_eq!(r.free_at(), 5.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new();
        r.acquire(0.0, 7.0);
        r.reset();
        assert_eq!(r.free_at(), 0.0);
        assert_eq!(r.busy_total(), 0.0);
    }
}

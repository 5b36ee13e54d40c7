//! Process-level resource readings from `/proc` (Linux only; on another
//! platform the readings are 0 and the metrics that use them say so).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes `USER_HZ` at 100 on every
/// architecture; there is no way to query it without a libc binding.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed so far, over all
/// of its threads, including those that already exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; everything after
    // its closing parenthesis is space-separated, starting at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to one CPU: the highest-numbered one it may run on (device interrupts
/// and the rest of the system tend to sit on the lowest). Returns that
/// CPU, or `None` when the platform or the kernel refuses, in which case
/// nothing changed.
///
/// Why the benchmark pins itself: every workload here is a master (or
/// front loop) and a slave exchanging small messages. Spread over two
/// virtual CPUs, each message is a cross-CPU wake-up whose cost depends
/// on where the scheduler last put the two threads; on the 2-vCPU box
/// this was written on, the same `table2_sload` pass takes 0.16 s or
/// 0.55 s, flipping between the two within one run. On one CPU the
/// wake-up is a context switch and the pass repeats within 2 %.
///
/// The open-loop load generator stays on that CPU too. Moved to the
/// other one it was *later*, not earlier: that CPU runs everything else
/// on the box, and the generator's p99 lateness went from ~1 ms to
/// 8–200 ms.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let size = std::mem::size_of::<CpuSet>();
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly `size`
        // bytes; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|c| set[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly `size` bytes that
        // the call only reads; pid 0 names the calling thread.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Cores available to this process (1 once [`pin_to_one_cpu`] succeeded).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker ranks every workload runs with: all cores but the one the
/// master / front loop occupies — the paper's "n CPUs = 1 master +
/// (n − 1) slaves" convention — and never fewer than one.
pub fn slaves() -> usize {
    nproc().saturating_sub(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = cpu_seconds() - before;
        // 60 ms of spinning is 6 ticks; allow for tick granularity.
        assert!((0.02..1.0).contains(&used), "cpu delta {used}");
    }

    #[test]
    fn pinning_leaves_one_cpu_and_threads_inherit_it() {
        // The affinity is per thread: pin a scratch thread, not the
        // test runner's.
        std::thread::spawn(|| {
            let Some(cpu) = pin_to_one_cpu() else { return };
            assert_eq!(nproc(), 1);
            let child = std::thread::spawn(|| (nproc(), pin_to_one_cpu()))
                .join()
                .unwrap();
            assert_eq!(child, (1, Some(cpu)));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn peak_rss_is_positive_and_sizing_is_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(slaves() >= 1 && slaves() <= nproc().max(1));
    }
}

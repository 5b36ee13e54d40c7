//! The host-speed probe: a fixed amount of work, none of it the
//! program's, timed beside every set-up and pass so that each can be
//! reported at the speed of a reference host.
//!
//! Why: the box this benchmark is gated on is a 2-vCPU VM on a shared
//! host whose speed moves in steps — the same pinned, single-threaded
//! arithmetic loop takes 22, 28, 37 or 45 ms for seconds to minutes at a
//! time, whatever this VM's other CPU does — and every workload moves
//! with it: ten 12-second runs of one commit spread 25–49 % between
//! their quartiles, twice the widest bound the acceptance contract
//! allows. No statistic over one run's passes removes a step that
//! outlasts the run. Dividing each pass by the probe readings taken just
//! before and after it does: the ten-run spread falls to 1–6 %.
//!
//! The probe mixes the two kinds of work the workloads are made of, in
//! about equal time: a thread-to-thread ping-pong with a small file read
//! per round (scheduler, futex and system-call path — the farm's wire
//! protocol in miniature) and a register-only arithmetic loop (the
//! pricing kernels). It calls nothing in `crates/`, so no change to the
//! program moves it.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Probe seconds that count as speed 1: what the probe takes on the box
/// above in its fastest state. Normalised seconds are therefore seconds
/// on that box with its neighbours quiet.
pub const REFERENCE_PROBE_S: f64 = 0.016;

const ROUND_TRIPS: usize = 1_500;
const ARITHMETIC_STEPS: usize = 5_000_000;

pub struct Probe {
    file: PathBuf,
}

impl Probe {
    /// Stage the small file the ping-pong reads, inside `dir`.
    pub fn new(dir: &Path) -> Result<Probe, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let file = dir.join("probe.bin");
        std::fs::write(&file, [0x5Au8; 256]).map_err(|e| format!("write {file:?}: {e}"))?;
        Ok(Probe { file })
    }

    /// Seconds the fixed probe work takes right now.
    pub fn read(&self) -> f64 {
        let t0 = Instant::now();
        self.ping_pong();
        arithmetic();
        t0.elapsed().as_secs_f64()
    }

    fn ping_pong(&self) {
        let (to_peer, peer_in) = sync_channel::<Vec<u8>>(1);
        let (to_me, me_in) = sync_channel::<Vec<u8>>(1);
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(mut msg) = peer_in.recv() {
                    msg[0] = msg[0].wrapping_add(1);
                    if to_me.send(msg).is_err() {
                        break;
                    }
                }
            });
            let mut buf = [0u8; 256];
            for _ in 0..ROUND_TRIPS {
                let read = std::fs::File::open(&self.file).and_then(|mut f| f.read(&mut buf));
                let len = read.unwrap_or(0).max(1);
                to_peer
                    .send(buf[..len].to_vec())
                    .expect("the peer lives until the sender is dropped");
                let echoed = me_in.recv().expect("the peer echoes every message");
                std::hint::black_box(echoed);
            }
            drop(to_peer);
        });
    }
}

fn arithmetic() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..ARITHMETIC_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)).sqrt();
    }
    std::hint::black_box(acc);
}

/// Host speed over an interval bracketed by two probe readings, as a
/// multiple of the reference host's: 1 when both read
/// `REFERENCE_PROBE_S`, 0.5 when the probe took twice as long.
pub fn speed(probe_before_s: f64, probe_after_s: f64) -> f64 {
    REFERENCE_PROBE_S / (0.5 * (probe_before_s + probe_after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_relative_to_the_reference_probe() {
        assert_eq!(speed(REFERENCE_PROBE_S, REFERENCE_PROBE_S), 1.0);
        assert_eq!(speed(2.0 * REFERENCE_PROBE_S, 2.0 * REFERENCE_PROBE_S), 0.5);
        // The mean of the two readings counts, not either alone.
        assert_eq!(speed(0.5 * REFERENCE_PROBE_S, 1.5 * REFERENCE_PROBE_S), 1.0);
    }

    #[test]
    fn a_probe_reading_is_a_positive_time() {
        // `perf/.run`, the scratch directory `.gitignore` names.
        let dir = PathBuf::from(format!(".run/probe-test-{}", std::process::id()));
        let probe = Probe::new(&dir).unwrap();
        let s = probe.read();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(s > 0.0 && s < 5.0, "probe took {s} s");
    }
}

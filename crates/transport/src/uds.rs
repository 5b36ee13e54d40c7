//! The multi-process backend: a full mesh of Unix-domain sockets.
//!
//! Rank *r* binds `dir/r.sock`, dials every lower rank (retrying until
//! the peer's listener exists) and accepts one connection from every
//! higher rank; a `HELLO` frame on each fresh stream identifies the
//! dialler. One blocking reader thread per peer stream decodes frames
//! and pushes them into the rank's single [`Mailbox`] — the same
//! structure the in-process backend uses — so matching, wildcards,
//! deadline waits and wakeups are shared code, and per-pair ordering
//! falls out of stream FIFO plus a per-stream write lock.
//!
//! Frames are XDR-style: big-endian words, payloads padded to 4 bytes.
//!
//! Faults are mapped onto the wire by the layer above: a dropped message
//! is simply never written, a truncation is written short with the true
//! advertised length, a delay travels as a nanosecond header the
//! receiver turns back into a visibility time, and kills/poisons are
//! broadcast as control frames so every process converges on the same
//! liveness map.
//!
//! The barrier is message-based (MatlabMPI style): every rank sends
//! `ARRIVE` to rank 0, which releases the generation with a `RELEASE`
//! fan-out once all peers have arrived.

use crate::error::TransportError;
use crate::frame::{Frame, Payload};
use crate::mailbox::Mailbox;
use crate::Transport;
use parking_lot::{Condvar, Mutex};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIND_DATA: u32 = 0;
const KIND_KILL: u32 = 1;
const KIND_POISON: u32 = 2;
const KIND_BARRIER_ARRIVE: u32 = 3;
const KIND_BARRIER_RELEASE: u32 = 4;
const KIND_HELLO: u32 = 5;

/// How long a dialler keeps retrying a peer whose listener is not bound
/// yet (children racing through process startup).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Default)]
struct BarrierCtl {
    /// Rank 0 only: peers that have arrived at the current generation.
    arrivals: usize,
    /// Non-zero ranks: release pulses received from rank 0.
    releases: u64,
    /// Non-zero ranks: release pulses already consumed by `barrier()`.
    taken: u64,
    /// Group teardown: barriers stop blocking.
    poisoned: bool,
}

struct Inner {
    rank: usize,
    size: usize,
    epoch: Instant,
    inbox: Mailbox,
    /// Group-wide liveness map (index = rank; own entry mirrors `inbox`).
    dead: Vec<AtomicBool>,
    /// Write half of each peer stream (`None` at our own index). The
    /// mutex keeps concurrent senders from interleaving frames, which
    /// preserves per-pair ordering on the wire.
    peers: Vec<Option<Mutex<UnixStream>>>,
    ctl: Mutex<BarrierCtl>,
    ctl_cond: Condvar,
    sock_path: PathBuf,
}

impl Inner {
    fn write_frame(&self, dest: usize, bytes: &[u8]) -> Result<(), TransportError> {
        let stream = self.peers[dest]
            .as_ref()
            .expect("no stream to self");
        let mut s = stream.lock();
        if let Err(e) = s.write_all(bytes) {
            drop(s);
            // A broken pipe means the peer process is gone: record the
            // death so subsequent sends fail fast without a syscall.
            self.dead[dest].store(true, Ordering::SeqCst);
            return Err(TransportError::Io(format!("write to rank {dest}: {e}")));
        }
        Ok(())
    }

    fn apply_kill(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
        if rank == self.rank {
            self.inbox.kill();
        }
    }

    fn apply_poison(&self) {
        self.inbox.poison();
        let mut st = self.ctl.lock();
        st.poisoned = true;
        self.ctl_cond.notify_all();
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.sock_path);
    }
}

/// One rank's endpoint in a multi-process Unix-domain-socket group.
pub struct UdsTransport {
    inner: Arc<Inner>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl UdsTransport {
    /// Join the mesh rooted at `dir` as `rank` of `size`. Blocks until
    /// fully connected to every peer: lower ranks are dialled (retrying
    /// while their listeners come up), higher ranks are accepted. All
    /// ranks must use the same `dir` and agree on `size`.
    pub fn connect(dir: &Path, rank: usize, size: usize) -> Result<UdsTransport, TransportError> {
        assert!(rank < size, "rank out of range");
        std::fs::create_dir_all(dir)?;
        let sock_path = Self::sock_path(dir, rank);
        let _ = std::fs::remove_file(&sock_path);
        let listener = UnixListener::bind(&sock_path)?;

        let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        // Dial every lower rank, identifying ourselves with HELLO.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let path = Self::sock_path(dir, peer);
            let start = Instant::now();
            let stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(e) => {
                        if start.elapsed() > CONNECT_TIMEOUT {
                            return Err(TransportError::Io(format!(
                                "rank {rank} failed to reach rank {peer}: {e}"
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            };
            let mut hello = Vec::with_capacity(8);
            put_u32(&mut hello, KIND_HELLO);
            put_u32(&mut hello, rank as u32);
            let mut s = stream;
            s.write_all(&hello)?;
            *slot = Some(s);
        }
        // Accept one connection from every higher rank.
        for _ in rank + 1..size {
            let (mut s, _) = listener.accept()?;
            let kind = read_u32(&mut s)?;
            if kind != KIND_HELLO {
                return Err(TransportError::Io(format!(
                    "expected HELLO, got frame kind {kind}"
                )));
            }
            let peer = read_u32(&mut s)? as usize;
            if peer <= rank || peer >= size || streams[peer].is_some() {
                return Err(TransportError::Io(format!("bad HELLO from rank {peer}")));
            }
            streams[peer] = Some(s);
        }
        drop(listener);

        let inner = Arc::new(Inner {
            rank,
            size,
            epoch: Instant::now(),
            inbox: Mailbox::new(rank),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            peers: streams
                .iter()
                .map(|s| {
                    s.as_ref()
                        .map(|s| Mutex::new(s.try_clone().expect("dup stream")))
                })
                .collect(),
            ctl: Mutex::new(BarrierCtl::default()),
            ctl_cond: Condvar::new(),
            sock_path,
        });

        let mut readers = Vec::with_capacity(size.saturating_sub(1));
        for stream in streams.into_iter().flatten() {
            let inner = Arc::clone(&inner);
            readers.push(std::thread::spawn(move || reader_loop(stream, inner)));
        }
        Ok(UdsTransport {
            inner,
            readers: Mutex::new(readers),
        })
    }

    /// The socket path `rank` binds under `dir`.
    fn sock_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("{rank}.sock"))
    }
}

impl Drop for UdsTransport {
    fn drop(&mut self) {
        // Shut the sockets so the blocking reader threads see EOF, then
        // reap them.
        for peer in self.inner.peers.iter().flatten() {
            let _ = peer.lock().shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Transport for UdsTransport {
    fn rank(&self) -> usize {
        self.inner.rank
    }

    fn size(&self) -> usize {
        self.inner.size
    }

    fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    fn send(&self, dest: usize, frame: Frame) -> Result<(), TransportError> {
        let inner = &self.inner;
        if dest == inner.rank {
            return inner.inbox.push(frame);
        }
        if inner.dead[dest].load(Ordering::SeqCst) {
            return Err(TransportError::Dead(dest));
        }
        if inner.inbox.is_poisoned() {
            return Err(TransportError::Disconnected);
        }
        let delay_ns = frame
            .visible_at
            .map(|t| t.saturating_duration_since(Instant::now()).as_nanos() as u64)
            .unwrap_or(0);
        let payload = frame.payload.as_slice();
        let mut buf = Vec::with_capacity(36 + payload.len() + 3);
        put_u32(&mut buf, KIND_DATA);
        put_u32(&mut buf, frame.src as u32);
        put_u32(&mut buf, frame.tag as u32);
        put_u64(&mut buf, frame.full_len as u64);
        put_u64(&mut buf, delay_ns);
        put_u64(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        buf.resize(buf.len() + pad4(payload.len()), 0);
        match inner.write_frame(dest, &buf) {
            Ok(()) => Ok(()),
            // Peer process gone: surface the same fail-fast error the
            // in-process backend gives for a dead mailbox.
            Err(_) => Err(TransportError::Dead(dest)),
        }
    }

    fn match_deadline(
        &self,
        src: i32,
        tag: i32,
        deadline: Option<Instant>,
        consume: bool,
    ) -> Result<Option<Frame>, TransportError> {
        self.inner.inbox.match_deadline(src, tag, deadline, consume)
    }

    fn try_match(&self, src: i32, tag: i32) -> Result<Option<Frame>, TransportError> {
        self.inner.inbox.try_match(src, tag)
    }

    fn discard(&self, src: i32, tag: i32) -> Result<bool, TransportError> {
        self.inner.inbox.discard(src, tag)
    }

    fn kill(&self, rank: usize) {
        let inner = &self.inner;
        // Snapshot liveness *before* applying the kill: the victim must
        // still receive the broadcast (it is how its own blocked waits
        // learn to fail), only peers that were already gone are skipped.
        let was_dead: Vec<bool> = (0..inner.size)
            .map(|p| inner.dead[p].load(Ordering::SeqCst))
            .collect();
        inner.apply_kill(rank);
        let mut buf = Vec::with_capacity(8);
        put_u32(&mut buf, KIND_KILL);
        put_u32(&mut buf, rank as u32);
        for (peer, dead) in was_dead.iter().copied().enumerate() {
            if peer != inner.rank && !dead {
                let _ = inner.write_frame(peer, &buf);
            }
        }
    }

    fn is_dead(&self, rank: usize) -> bool {
        if rank == self.inner.rank {
            self.inner.inbox.is_dead()
        } else {
            self.inner.dead[rank].load(Ordering::SeqCst)
        }
    }

    fn poison(&self) {
        let inner = &self.inner;
        inner.apply_poison();
        let mut buf = Vec::with_capacity(4);
        put_u32(&mut buf, KIND_POISON);
        for peer in 0..inner.size {
            if peer != inner.rank {
                let _ = inner.write_frame(peer, &buf);
            }
        }
    }

    fn barrier(&self) {
        let inner = &self.inner;
        if inner.size == 1 {
            return;
        }
        if inner.rank == 0 {
            {
                let mut st = inner.ctl.lock();
                while st.arrivals < inner.size - 1 && !st.poisoned {
                    inner.ctl_cond.wait(&mut st);
                }
                if st.poisoned {
                    return;
                }
                st.arrivals -= inner.size - 1;
            }
            let mut buf = Vec::with_capacity(4);
            put_u32(&mut buf, KIND_BARRIER_RELEASE);
            for peer in 1..inner.size {
                let _ = inner.write_frame(peer, &buf);
            }
        } else {
            let mut buf = Vec::with_capacity(8);
            put_u32(&mut buf, KIND_BARRIER_ARRIVE);
            put_u32(&mut buf, inner.rank as u32);
            if inner.write_frame(0, &buf).is_err() {
                return;
            }
            let mut st = inner.ctl.lock();
            let target = st.taken + 1;
            while st.releases < target && !st.poisoned {
                inner.ctl_cond.wait(&mut st);
            }
            if !st.poisoned {
                st.taken = target;
            }
        }
    }
}

fn reader_loop(mut stream: UnixStream, inner: Arc<Inner>) {
    loop {
        let kind = match read_u32(&mut stream) {
            Ok(k) => k,
            Err(_) => return, // EOF: peer finished or tore down
        };
        let res: Result<(), TransportError> = (|| {
            match kind {
                KIND_DATA => {
                    let src = read_u32(&mut stream)? as usize;
                    let tag = read_u32(&mut stream)? as i32;
                    let full_len = read_u64(&mut stream)? as usize;
                    let delay_ns = read_u64(&mut stream)?;
                    let plen = read_u64(&mut stream)? as usize;
                    let mut payload = vec![0u8; plen];
                    stream.read_exact(&mut payload)?;
                    let mut pad = [0u8; 3];
                    stream.read_exact(&mut pad[..pad4(plen)])?;
                    let visible_at =
                        (delay_ns > 0).then(|| Instant::now() + Duration::from_nanos(delay_ns));
                    // A dead/poisoned inbox refuses the frame; that is
                    // fine — the sender observed a successful write, just
                    // as with the in-process backend's kill races.
                    let _ = inner.inbox.push(Frame {
                        src,
                        tag,
                        payload: Payload::Owned(payload),
                        full_len,
                        visible_at,
                    });
                }
                KIND_KILL => {
                    let rank = read_u32(&mut stream)? as usize;
                    if rank < inner.size {
                        inner.apply_kill(rank);
                    }
                }
                KIND_POISON => inner.apply_poison(),
                KIND_BARRIER_ARRIVE => {
                    let _from = read_u32(&mut stream)?;
                    let mut st = inner.ctl.lock();
                    st.arrivals += 1;
                    inner.ctl_cond.notify_all();
                }
                KIND_BARRIER_RELEASE => {
                    let mut st = inner.ctl.lock();
                    st.releases += 1;
                    inner.ctl_cond.notify_all();
                }
                other => {
                    return Err(TransportError::Io(format!("unknown frame kind {other}")));
                }
            }
            Ok(())
        })();
        if res.is_err() {
            return;
        }
    }
}

fn pad4(len: usize) -> usize {
    (4 - len % 4) % 4
}

fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_be_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_be_bytes());
}

fn read_u32(s: &mut UnixStream) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    Ok(u32::from_be_bytes(b))
}

fn read_u64(s: &mut UnixStream) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    s.read_exact(&mut b)?;
    Ok(u64::from_be_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(dir: &Path, size: usize) -> Vec<UdsTransport> {
        // Stand the mesh up from threads of one process — the socket
        // layer neither knows nor cares that the ranks share an address
        // space, which is exactly what makes it testable here.
        let dir = dir.to_path_buf();
        let handles: Vec<_> = (0..size)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || UdsTransport::connect(&dir, r, size).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("transport_uds_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mesh_roundtrip_and_order() {
        let dir = tmp("order");
        let t = mesh(&dir, 2);
        for i in 0..50u8 {
            t[0].send(1, Frame::new(0, 7, Payload::Owned(vec![i; 3])))
                .unwrap();
        }
        for i in 0..50u8 {
            let m = t[1].match_deadline(0, 7, None, true).unwrap().unwrap();
            assert_eq!(m.payload.as_slice(), &[i; 3]);
        }
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_synchronises_and_is_reusable() {
        let dir = tmp("barrier");
        let t = mesh(&dir, 3);
        let hs: Vec<_> = t
            .into_iter()
            .map(|tr| {
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        tr.barrier();
                    }
                    tr.rank()
                })
            })
            .collect();
        let mut ranks: Vec<_> = hs.into_iter().map(|h| h.join().unwrap()).collect();
        ranks.sort();
        assert_eq!(ranks, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_broadcast_converges() {
        let dir = tmp("kill");
        let t = mesh(&dir, 3);
        t[0].kill(2);
        assert!(matches!(
            t[0].send(2, Frame::new(0, 0, Payload::Owned(vec![1]))),
            Err(TransportError::Dead(2))
        ));
        // The broadcast reaches rank 1 asynchronously.
        let start = Instant::now();
        while !t[1].is_dead(2) {
            assert!(start.elapsed() < Duration::from_secs(5), "kill never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The victim's own waits fail.
        assert!(matches!(
            t[2].match_deadline(-1, -1, None, true),
            Err(TransportError::Dead(2))
        ));
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delay_header_defers_visibility() {
        let dir = tmp("delay");
        let t = mesh(&dir, 2);
        let mut f = Frame::new(0, 1, Payload::Owned(vec![5]));
        f.visible_at = Some(Instant::now() + Duration::from_millis(60));
        t[0].send(1, f).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(t[1].try_match(0, 1).unwrap().is_none(), "visible too early");
        let m = t[1].match_deadline(0, 1, None, true).unwrap().unwrap();
        assert_eq!(m.payload.as_slice(), &[5]);
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_frame_roundtrip() {
        let dir = tmp("large");
        let t = mesh(&dir, 2);
        let big: Vec<u8> = (0..100_000usize).map(|i| (i * 31 % 251) as u8).collect();
        t[0].send(1, Frame::new(0, 2, Payload::Owned(big.clone())))
            .unwrap();
        let m = t[1].match_deadline(0, 2, None, true).unwrap().unwrap();
        assert_eq!(m.payload.as_slice(), &big[..]);
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

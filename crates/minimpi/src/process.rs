//! Multi-process worlds: real OS processes over the Unix-domain-socket
//! transport.
//!
//! Where [`crate::World`] runs every rank as a thread of one process,
//! [`ProcessWorld`] re-executes the current binary once per child rank.
//! Each child discovers its identity from environment variables, joins
//! the socket mesh under a shared rendezvous directory and runs an entry
//! point looked up **by name** in a registry the binary declares — the
//! closure itself cannot cross the process boundary, so the paper's
//! `MPI_Comm_spawn(command, args, n)` shape (spawn a *program*, not a
//! closure) is reproduced faithfully.
//!
//! ```text
//! parent (rank 0)                    child i (rank i)
//!   spawn_full("slave", ...)           exec(current_exe)
//!     spawn n children  ────────▶      child_entry(®istry)
//!     UdsTransport::connect               reads MINIMPI_PROC_*
//!       ◀── full mesh handshake ──▶      UdsTransport::connect
//!     Comm (rank 0)                      registry["slave"](Comm)
//! ```
//!
//! Fault plans cross the boundary through the [`FaultPlan`] environment
//! codec, so the child's decision table is bit-identical to the
//! parent's. Child-side fault *logs* stay in the child (a real cluster
//! has the same visibility limit); tests assert observable behaviour
//! instead.

use crate::comm::Comm;
use crate::error::MpiError;
use crate::fault::FaultPlan;
use obs::Recorder;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use transport::UdsTransport;

/// Rendezvous directory of the mesh (also the "world exists" marker).
const ENV_DIR: &str = "MINIMPI_PROC_DIR";
/// The child's rank.
const ENV_RANK: &str = "MINIMPI_PROC_RANK";
/// Total world size (children + parent).
const ENV_SIZE: &str = "MINIMPI_PROC_SIZE";
/// Name of the entry point to run, resolved in the child's registry.
const ENV_ENTRY: &str = "MINIMPI_PROC_ENTRY";
/// Encoded [`FaultPlan`] (absent = no plan).
const ENV_PLAN: &str = "MINIMPI_PROC_PLAN";

/// Distinguishes concurrent worlds spawned by one parent process.
static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);

/// A child entry point: the function a spawned rank runs once it has
/// joined the mesh. Registered by name in [`ProcessWorld::child_entry`].
type ChildEntry = fn(Comm);

/// Entry points for multi-process communicator groups. See the module
/// docs for the launch protocol.
pub struct ProcessWorld;

impl ProcessWorld {
    /// Spawn `n_children` copies of the current executable, each running
    /// the registered entry point `entry` (see
    /// [`ProcessWorld::child_entry`]), and join them as rank 0 of a
    /// `n_children + 1`-rank world, with an optional fault plan (shipped
    /// to every child through the environment codec and applied by the
    /// parent's own [`Comm`] too) and an optional parent-side
    /// [`Recorder`]. From a normal binary whose `main` calls
    /// `child_entry` first, pass `bootstrap_test = None`; inside a libtest
    /// binary, name a `#[test]` function that calls `child_entry` (libtest
    /// offers no other hook into `main`; the bootstrap test passes
    /// trivially in normal runs because the environment is absent).
    pub fn spawn_full(
        n_children: usize,
        entry: &str,
        plan: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<Recorder>>,
        bootstrap_test: Option<&str>,
    ) -> Result<ProcessParent, MpiError> {
        assert!(n_children >= 1, "spawn needs at least one child");
        let size = n_children + 1;
        let exe = std::env::current_exe()
            .map_err(|e| MpiError::Transport(format!("current_exe: {e}")))?;
        let dir = std::env::temp_dir().join(format!(
            "minimpi_world_{}_{}",
            std::process::id(),
            WORLD_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| MpiError::Transport(format!("rendezvous dir: {e}")))?;

        let mut children = Vec::with_capacity(n_children);
        for rank in 1..size {
            let mut cmd = Command::new(&exe);
            cmd.env(ENV_DIR, &dir)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, size.to_string())
                .env(ENV_ENTRY, entry)
                .stdout(Stdio::null());
            if let Some(plan) = &plan {
                cmd.env(ENV_PLAN, plan.encode());
            }
            if let Some(name) = bootstrap_test {
                // libtest: run exactly the bootstrap test, on the main
                // test thread, without capturing (capture buffers live
                // past the entry and slow teardown).
                cmd.args([name, "--exact", "--test-threads=1", "--nocapture"]);
            }
            match cmd.spawn() {
                Ok(child) => children.push(child),
                Err(e) => {
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                    return Err(MpiError::Transport(format!("spawn rank {rank}: {e}")));
                }
            }
        }

        // Children dial us with retry, so connecting after spawning is
        // race-free; connect blocks until the mesh is complete.
        match UdsTransport::connect(&dir, 0, size) {
            Ok(t) => Ok(ProcessParent {
                comm: Some(Comm::new(Arc::new(t), plan, recorder)),
                children,
                dir,
            }),
            Err(e) => {
                for c in &mut children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                let _ = std::fs::remove_dir_all(&dir);
                Err(MpiError::Transport(format!("parent connect: {e}")))
            }
        }
    }

    /// Child-side bootstrap. Call this **first** in `main` (or from the
    /// libtest bootstrap test): when the process is a spawned child it
    /// joins the mesh, runs its registered entry and returns `true` (the
    /// caller should then exit); in a plain invocation it returns
    /// `false` immediately.
    ///
    /// `registry` maps entry names to functions; spawning an entry
    /// absent from the child's registry panics the child, which the
    /// parent observes as a failed exit status in
    /// [`ProcessParent::join`].
    pub fn child_entry(registry: &[(&str, ChildEntry)]) -> bool {
        let Ok(dir) = std::env::var(ENV_DIR) else {
            return false;
        };
        let rank: usize = std::env::var(ENV_RANK)
            .expect("child rank")
            .parse()
            .expect("child rank parses");
        let size: usize = std::env::var(ENV_SIZE)
            .expect("world size")
            .parse()
            .expect("world size parses");
        let entry = std::env::var(ENV_ENTRY).expect("entry name");
        let plan = std::env::var(ENV_PLAN).ok().map(|s| {
            Arc::new(FaultPlan::decode(&s).expect("fault plan decodes across the boundary"))
        });
        let f = registry
            .iter()
            .find(|(name, _)| *name == entry)
            .unwrap_or_else(|| panic!("no registered entry point named {entry:?}"))
            .1;
        let transport = UdsTransport::connect(dir.as_ref(), rank, size)
            .unwrap_or_else(|e| panic!("child rank {rank} failed to join mesh: {e}"));
        f(Comm::new(Arc::new(transport), plan, None));
        true
    }
}

/// The parent's handle on a spawned multi-process world: rank 0's
/// [`Comm`] plus the child processes.
pub struct ProcessParent {
    comm: Option<Comm>,
    children: Vec<Child>,
    dir: PathBuf,
}

impl ProcessParent {
    /// The parent's endpoint (rank 0) in the world.
    pub fn comm(&self) -> &Comm {
        self.comm.as_ref().expect("comm present until join")
    }

    /// Wait for every child to exit, failing if any exited unsuccessfully
    /// (e.g. a panicked entry point). Call after the protocol has told
    /// the children to stop — this does not interrupt them.
    pub fn join(mut self) -> Result<(), MpiError> {
        // Drop our endpoint first: children blocked on reads from a
        // parent that is done observe EOF instead of waiting forever.
        self.comm = None;
        let mut failures = Vec::new();
        for (i, mut child) in self.children.drain(..).enumerate() {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => failures.push(format!("rank {}: {status}", i + 1)),
                Err(e) => failures.push(format!("rank {}: wait failed: {e}", i + 1)),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if failures.is_empty() {
            Ok(())
        } else {
            Err(MpiError::Transport(format!(
                "child failures: {}",
                failures.join("; ")
            )))
        }
    }
}

impl Drop for ProcessParent {
    fn drop(&mut self) {
        if self.children.is_empty() {
            return;
        }
        // Not joined: poison the group so blocked children wake, then
        // make sure nothing outlives us.
        if let Some(c) = &self.comm {
            c.transport().poison();
        }
        self.comm = None;
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

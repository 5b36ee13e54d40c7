//! Helpers shared by the integration tests (`mod common;`).

use std::thread;
use std::time::Duration;
use transport::queue;

/// Run `f` under a hard wall-clock bound. A scenario that hangs is
/// itself the bug these suites exist to catch, so the watchdog fails the
/// test instead of letting the harness time out opaquely.
pub fn with_watchdog<T, F>(secs: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = queue::channel();
    let h = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Some(v)) => {
            h.join().expect("scenario thread panicked");
            v
        }
        Ok(None) => panic!("scenario exceeded the {secs}s watchdog (hang)"),
        // Disconnected without a value: the scenario thread panicked
        // before sending — join to surface its panic message.
        Err(_) => {
            h.join().expect("scenario thread panicked");
            unreachable!("sender dropped without sending or panicking")
        }
    }
}

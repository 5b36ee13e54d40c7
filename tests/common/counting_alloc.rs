//! The system allocator, counting: the one global allocator of the
//! allocation tests. The test binaries `alloc_free`, `farm_alloc`,
//! `script_alloc`, `serve_alloc` and `nsp_linear` install it with
//! `#[path = "common/counting_alloc.rs"] mod counting_alloc;`, and
//! `nsplang`'s library tests (the VM's per-turn counts) with a
//! `#[cfg(test)]` `#[path]` module in `crates/nsplang/src/lib.rs`. Every
//! allocation, zeroed allocation and reallocation counts once, with the
//! bytes it asks for, both for the whole process and for the thread that
//! makes it. Frees count nothing.
//!
//! A binary whose work runs on other threads (a farm's ranks, a
//! session's front loop) reads the process counts, and then holds one
//! test, so that nothing else allocates while it counts. A binary whose
//! tests run side by side reads the calling thread's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub(crate) allocations: u64,
    pub(crate) bytes: u64,
}

impl Sub for Tally {
    type Output = Tally;
    fn sub(self, before: Tally) -> Tally {
        Tally {
            allocations: self.allocations - before.allocations,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// What the process and the calling thread have allocated; the
/// difference of two readings is what was allocated between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) process: Tally,
    pub(crate) thread: Tally,
}

impl Sub for Counts {
    type Output = Counts;
    fn sub(self, before: Counts) -> Counts {
        Counts {
            process: self.process - before.process,
            thread: self.thread - before.thread,
        }
    }
}

/// The counts so far.
pub(crate) fn now() -> Counts {
    Counts {
        process: Tally {
            allocations: ALLOCATIONS.load(Ordering::SeqCst),
            bytes: BYTES.load(Ordering::SeqCst),
        },
        thread: THREAD.with(Cell::get),
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<Tally> = const {
        Cell::new(Tally {
            allocations: 0,
            bytes: 0,
        })
    };
}

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // A thread being torn down has no counter left; its allocations are
    // still the process's.
    let _ = THREAD.try_with(|t| {
        let Tally {
            allocations,
            bytes: b,
        } = t.get();
        t.set(Tally {
            allocations: allocations + 1,
            bytes: b + bytes as u64,
        });
    });
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

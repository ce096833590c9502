//! A counting global allocator for the alloc-regression harness. Only
//! the `bench_alloc` bin installs it: it intercepts every allocation in
//! the process.
//!
//! Wraps the system allocator and counts every allocation and reallocation
//! plus the bytes requested. The counters are process-global relaxed
//! atomics: the measurement loops are single-threaded, so a snapshot
//! around a loop attributes exactly that loop's heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is fresh heap traffic; count the full new size, as a
        // `Vec` doubling would cost if it were an alloc + copy.
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation and byte counts since process start (or the last window's
/// baseline — use differences, not absolutes).
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Counts a closure's heap traffic: (allocations, bytes requested).
pub fn count_in<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (a0, b0) = counts();
    let r = f();
    let (a1, b1) = counts();
    (a1 - a0, b1 - b0, r)
}

//! Process-wide allocation counter, switched on only for traced runs.
//!
//! Untraced runs pay one relaxed load per allocation; traced runs add
//! one relaxed increment. Frees are not tracked: a layer's `allocs`
//! metric is allocation pressure, a count that only grows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Allocations counted so far, across every thread.
pub fn count() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Restarts the resident-set high-water mark from the current resident
/// size (Linux `clear_refs` code 5); a no-op where unsupported.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs `f` and returns its result with the process's resident-set
/// high-water mark while it ran, in MiB.
pub fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, f64) {
    reset_peak_rss();
    let out = f();
    (out, peak_rss_mib())
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

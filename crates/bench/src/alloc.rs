//! Counting global allocator for the bench binaries.
//!
//! Wall-clock numbers are machine-dependent and noisy in CI; allocation
//! *counts* are not — with pinned threads and a fixed seed they are a
//! deterministic work counter, so the perf-regression gate (see
//! [`crate::compare`]) can budget them without flaking. Linking
//! `mc-bench` installs [`CountingAlloc`] as the process-wide
//! `#[global_allocator]`; the overhead is two relaxed atomic increments
//! per allocation, which is invisible next to the allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A [`System`]-backed allocator that counts every allocation and the
/// bytes it requested. Frees are deliberately not tracked: the gate cares
/// about allocation *pressure*, and a count that only grows composes with
/// baseline/delta arithmetic the same way `mc-obs` counters do.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cumulative allocation totals since process start. Capture one before
/// and one after a measured region and diff with [`AllocStats::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Heap allocations (`alloc` + `alloc_zeroed` + grow-`realloc` calls).
    pub allocations: u64,
    /// Total bytes requested across those allocations (`realloc` counts
    /// only the growth).
    pub bytes: u64,
}

impl AllocStats {
    /// The current process-wide totals.
    pub fn capture() -> Self {
        AllocStats {
            allocations: ALLOCATIONS.load(Relaxed),
            bytes: ALLOCATED_BYTES.load(Relaxed),
        }
    }

    /// The delta between this capture and an earlier `base`.
    pub fn since(&self, base: &Self) -> Self {
        AllocStats {
            allocations: self.allocations.saturating_sub(base.allocations),
            bytes: self.bytes.saturating_sub(base.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted() {
        let base = AllocStats::capture();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let delta = AllocStats::capture().since(&base);
        assert!(delta.allocations >= 1, "Vec allocation must be counted");
        assert!(delta.bytes >= 8 * 1024);
        drop(v);
    }
}

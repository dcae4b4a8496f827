//! A counting global allocator for the probes.
//!
//! [`CountingAlloc`] forwards every request to [`System`] and counts,
//! per thread, the allocations it serves and the bytes they ask for. A
//! probe installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: socbuf_bench::alloc::CountingAlloc = socbuf_bench::alloc::CountingAlloc;
//! ```
//!
//! and measures a closure with [`count`]. No library crate installs it:
//! only a binary chooses its global allocator.
//!
//! A `realloc` counts as one allocation of its new size (a growing
//! `Vec` pays one per doubling); frees are not counted. The counters
//! are thread-local, so work a closure hands to other threads is not
//! seen, and another thread's work never leaks in. Counts do not depend
//! on the host's speed or core count, which is what makes them gateable
//! on a noisy shared runner. They do depend on the Rust toolchain's
//! standard library, whose collections may change their growth policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations and requested bytes over some span of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: an allocation during thread teardown, after the
    // counters are gone, must still be served.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// The calling thread's running totals since it started.
pub fn totals() -> Counts {
    Counts {
        allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
        bytes: BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Runs `f` and returns its value with the allocations it made on this
/// thread. All zeros unless [`CountingAlloc`] is the global allocator.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = totals();
    let value = f();
    let after = totals();
    (
        value,
        Counts {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// [`System`] with per-thread allocation counters; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters never allocate (const-initialized `Cell`s).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_allocator_counts_what_it_serves_on_this_thread() {
        // Driven directly: the test harness keeps the default global
        // allocator.
        let layout = Layout::from_size_align(48, 8).unwrap();
        let ((), counts) = count(|| unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            let p = CountingAlloc.realloc(p, layout, 96);
            assert!(!p.is_null());
            CountingAlloc.dealloc(p, Layout::from_size_align(96, 8).unwrap());
        });
        assert_eq!(
            counts,
            Counts {
                allocs: 2,
                bytes: 48 + 96
            }
        );
        // Without the allocator installed nothing else is recorded.
        let (v, counts) = count(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert_eq!(counts, Counts::default());
    }
}

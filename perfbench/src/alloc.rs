//! A counting global allocator: `System` plus live, peak, total-bytes and
//! call counters.
//!
//! The counters feed `peak_heap_mb` (peak live bytes over the timed phase)
//! and the per-layer `*.alloc_mb` metrics (bytes allocated between two
//! reads of [`Counting::allocated`], taken around one call into a layer).
//! The load comes from one thread, so a delta taken around a call is that
//! call's allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocation counters around the system allocator.  The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct Counting {
    live: AtomicU64,
    peak: AtomicU64,
    allocated: AtomicU64,
    calls: AtomicU64,
}

impl Counting {
    /// Zeroed counters.
    pub const fn new() -> Self {
        Counting {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live(&self) -> u64 {
        self.live.load(Relaxed)
    }

    /// The highest `live` value since the last [`Counting::reset_peak`].
    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    /// Start a new peak window at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }

    /// Bytes handed out so far (a reallocation counts its new size).
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Relaxed)
    }

    /// Allocation and reallocation calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    fn grow(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrink(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Relaxed);
    }

    fn record_call(&self, bytes: u64) {
        self.allocated.fetch_add(bytes, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters only observe
// sizes and never touch the memory, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly what `System.alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.record_call(layout.size() as u64);
            self.grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.record_call(layout.size() as u64);
            self.grow(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`, as `System.realloc` requires.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            self.record_call(new_size as u64);
            let (old, new_size) = (layout.size() as u64, new_size as u64);
            if new_size >= old {
                self.grow(new_size - old);
            } else {
                self.shrink(old - new_size);
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_return_to_their_start_after_balanced_alloc_and_free() {
        // A private instance, so allocations of concurrently running tests
        // (which go through the global one) cannot disturb the counts.
        let counting = Counting::new();
        let start = counting.live();
        let small = Layout::from_size_align(24, 8).unwrap();
        let large = Layout::from_size_align(4096, 16).unwrap();
        // SAFETY: each block is freed exactly once with the layout (and, after
        // the realloc, the size) it was allocated with.
        unsafe {
            let a = counting.alloc(small);
            let b = counting.alloc_zeroed(large);
            assert!(!a.is_null() && !b.is_null());
            assert_eq!(counting.live(), start + 24 + 4096);
            let a = counting.realloc(a, small, 100);
            assert_eq!(counting.live(), start + 100 + 4096);
            counting.dealloc(b, large);
            counting.dealloc(a, Layout::from_size_align(100, 8).unwrap());
        }
        assert_eq!(counting.live(), start);
        assert_eq!(counting.peak(), start + 100 + 4096);
        assert_eq!(counting.allocated(), 24 + 4096 + 100);
        assert_eq!(counting.calls(), 3);
        counting.reset_peak();
        assert_eq!(counting.peak(), start);
    }
}

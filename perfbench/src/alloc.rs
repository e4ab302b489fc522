//! A counting global allocator for the traced run. Only the traced
//! binary installs it; the untraced binary times the system allocator,
//! because these atomics tax every allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// Counts allocations and tracks live and peak heap bytes. The counters
/// publish no other data, so every access is `Relaxed`.
pub struct CountingAllocator;

fn grow(bytes: usize) {
    let live = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Read before writing: the peak rarely moves, and an unconditional
    // read-modify-write would bounce its cache line between threads.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters around the call, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            COUNT.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Allocation count and peak live heap bytes since [`reset`]; both stay 0
/// when [`CountingAllocator`] is not the global allocator.
pub fn snapshot() -> (usize, usize) {
    (COUNT.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed))
}

/// Zeroes the allocation count and restarts the peak from the live heap.
pub fn reset() {
    COUNT.store(0, Ordering::Relaxed);
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

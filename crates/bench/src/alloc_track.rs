//! A counting global allocator for the Table VIII memory-usage
//! experiments: tracks live bytes and the high-water mark, so each mining
//! run's peak memory can be reported deterministically (the paper
//! measures process memory; peak live heap is the same quantity without
//! allocator/OS noise).

#![expect(
    clippy::disallowed_types,
    reason = "allocation counters are process-wide atomics, not mining concurrency"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// Install with `#[global_allocator]` in a harness binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ftpm_bench::TrackingAllocator = ftpm_bench::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Bytes currently allocated.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size. Call immediately
/// before the measured region.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes allocated while running `f`, measured from a fresh
/// high-water mark, minus the live bytes at entry — i.e. the extra memory
/// the workload needed.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = current_bytes();
    reset_peak();
    let out = f();
    (out, peak_bytes().saturating_sub(baseline))
}

/// Total allocation events (successful `alloc` calls) since process
/// start. Reallocs and frees are not counted — this is the "how many
/// times did the workload hit the allocator" metric the intern-speedup
/// gate compares.
pub fn alloc_count() -> usize {
    COUNT.load(Ordering::Relaxed)
}

/// Allocation events performed while running `f` — the per-workload
/// delta of [`alloc_count`]. Only meaningful in a single-threaded
/// region: concurrent allocations from other threads land in the same
/// counter.
pub fn measure_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = alloc_count();
    let out = f();
    (out, alloc_count() - before)
}

//! A counting `#[global_allocator]`, off unless a slice asks: allocations
//! per event are counted in the traced run's single-threaded slices only,
//! and the end-to-end run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls to `alloc`/`realloc` while enabled.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are plain
// atomics and never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on and returns how many allocations happened in
/// the whole process meanwhile (the slices that call this are the only
/// thing running).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_while_enabled() {
        // other tests allocate concurrently, so only a lower bound holds
        let (v, n) = super::count(|| (0..100).map(|i| vec![i; 4]).collect::<Vec<_>>());
        assert_eq!(v.len(), 100);
        assert!(n >= 100, "counted {n}");
    }
}

//! A counting global allocator: every allocation in the process bumps
//! one relaxed counter, so a window's delta divided by its requests is
//! the allocations per request of whoever allocated in it. The clients
//! in this benchmark allocate nothing per request, so on the HTTP mix
//! the delta is the server's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator; installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized with no destructor: reading it never allocates.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no slot left; its count is moot.
    let _ = MINE.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (including reallocations) since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    MINE.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_heap_allocations() {
        // Other test threads may allocate concurrently: the global delta
        // is a lower bound, the thread's own count is exact.
        let (before, mine) = (allocations(), thread_allocations());
        let v: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        assert!(allocations() - before >= 101, "one per box, one for the vector");
        assert_eq!(thread_allocations() - mine, 101);
        drop(v);
        assert_eq!(thread_allocations() - mine, 101, "frees are not allocations");
    }
}

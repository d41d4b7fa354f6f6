//! A counting global allocator for `serve.allocs_per_event`.
//!
//! Counting is per thread and off by default: the timed end-to-end runs pay
//! one thread-local flag read per allocation, and a count taken around a
//! deterministic-mode `serve` call (which runs entirely on the calling
//! thread) sees exactly that call's allocations, whatever other threads do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter.
pub struct Counting;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counter lives in
// const-initialized thread-locals without destructors, which never
// allocate; `try_with` skips counting while a thread is torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note() {
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Count the allocations this thread makes while `f` runs.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    ENABLED.with(|on| on.set(true));
    let out = f();
    ENABLED.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let (v, n) = count(|| {
            let a: Vec<u8> = Vec::with_capacity(16);
            let b = Box::new(7u64);
            std::hint::black_box((a, b))
        });
        drop(v);
        assert_eq!(n, 2);
        let (_, idle) = count(|| std::hint::black_box(1 + 1));
        assert_eq!(idle, 0);
        // Allocations outside `count` are not counted.
        let before = ALLOCS.with(Cell::get);
        drop(std::hint::black_box(vec![1u8; 32]));
        assert_eq!(ALLOCS.with(Cell::get), before);
    }
}

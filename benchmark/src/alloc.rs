//! A counting global allocator for `core.alloc_count` / `core.alloc_bytes`.
//!
//! Counters are per thread, so the measuring thread reads exactly its own
//! allocations (the measured query runs with kernel threads pinned to one)
//! and the load threads of other phases never contend on a shared line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // `const` initialisers and no destructor: safe to touch from inside
    // the allocator, which must not itself allocate.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn book(size: usize) {
    // `try_with` because a thread may allocate while its locals are being
    // torn down; those allocations are not ones anybody measures.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local `Cell`s and never
// allocates, so `System`'s own contract is all that is relied on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by `f` on the calling thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (COUNT.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (COUNT.with(Cell::get), BYTES.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
}

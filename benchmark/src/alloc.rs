//! Counting allocator for the traced binary. Only `bench_traced` (and the
//! test binary) installs it as `#[global_allocator]`; the untraced binary
//! keeps the system allocator, so end-to-end numbers carry no counting cost.
//!
//! Counters are per thread: every workload runs on the calling thread, so a
//! count between two [`counts`] calls is exact and repeats run to run, even
//! when `cargo test` runs other tests on sibling threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: reading these from inside the
    // allocator neither allocates nor touches a destroyed value.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(size: usize) {
    // `try_with`: a thread allocating while it tears down its TLS block is
    // simply not counted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

/// `(allocation calls, bytes requested)` by this thread so far; `(0, 0)`
/// for ever in a binary that did not install [`CountingAlloc`]. `realloc`
/// counts as one call of its new size; frees are not counted.
pub fn counts() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// The system allocator plus the per-thread counters behind [`counts`].
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only updates plain
// thread-local integers and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods above
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

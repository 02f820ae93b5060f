//! A counting global allocator: every heap allocation the process
//! makes bumps two relaxed counters (calls, bytes requested) and is
//! then served by the system allocator unchanged.
//!
//! The counters are statistics — they publish no other data — so
//! `Relaxed` is sufficient. The benchmark load is one thread, which is
//! what makes `allocs_per_task` repeat exactly for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs as `#[global_allocator]`.
pub struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments untouched to `System`,
// which upholds the `GlobalAlloc` contract; the counters never
// influence the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one allocator call asking for `new_size`
        // bytes; counting it keeps `Vec` growth visible.
        count(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counter values at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl AllocCount {
    /// The counters now.
    pub fn now() -> Self {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Calls and bytes since `self` was taken.
    pub fn elapsed(self) -> Self {
        let now = Self::now();
        AllocCount {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 boxes + 1 `Vec` that grows once = 5 calls, 3*8 + 64 + 128 bytes.
    fn pattern() -> AllocCount {
        let before = AllocCount::now();
        let mut bytes: Vec<u8> = Vec::with_capacity(64);
        bytes.extend_from_slice(&[7u8; 64]);
        bytes.reserve_exact(64);
        let boxes = [Box::new(1u64), Box::new(2u64), Box::new(3u64)];
        let seen = before.elapsed();
        std::hint::black_box((&boxes, &bytes));
        seen
    }

    #[test]
    fn known_pattern_counts_exactly() {
        // Other tests allocate on parallel threads while this runs, and
        // that noise only ever adds; the minimum over a few tries is the
        // pattern's own count.
        let best = (0..50)
            .map(|_| pattern())
            .min_by_key(|c| (c.allocs, c.bytes));
        assert_eq!(
            best,
            Some(AllocCount {
                allocs: 5,
                bytes: 3 * 8 + 64 + 128
            })
        );
    }

    #[test]
    fn dealloc_is_not_counted() {
        let best = (0..50)
            .map(|_| {
                let held = Box::new([0u8; 32]);
                let before = AllocCount::now();
                drop(held);
                before.elapsed()
            })
            .min_by_key(|c| (c.allocs, c.bytes));
        assert_eq!(best, Some(AllocCount::default()));
    }
}

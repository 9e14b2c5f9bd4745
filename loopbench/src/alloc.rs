//! A counting global allocator: allocation events and live heap bytes,
//! read around each layer call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// System allocator wrapper counting allocation events and live bytes.
pub struct Counting;

static EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every operation is forwarded to `System` unchanged; the
// counters are relaxed atomic side effects that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }
}

/// Allocation events (alloc, alloc_zeroed, realloc) so far.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Heap bytes released by dropping `value`: what it owned.
pub fn owned_bytes<T>(value: T) -> i64 {
    let before = live_bytes();
    drop(value);
    before - live_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_bytes_sees_a_dropped_buffer() {
        let v = vec![0u8; 1 << 20];
        assert!(owned_bytes(v) >= 1 << 20);
        let before = events();
        let w: Vec<u64> = Vec::with_capacity(64);
        assert!(events() > before);
        drop(w);
    }
}

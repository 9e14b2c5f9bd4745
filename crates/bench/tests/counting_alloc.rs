//! Stress test for `CountingAlloc`, the one `unsafe impl` in the bench
//! crate: one barrier releases eight threads that each run a known mix
//! of `alloc`, `alloc_zeroed`, `realloc` and `dealloc` through the
//! global allocator, and the counter must rise by exactly the
//! allocation events they made, with no `dealloc` counted.
//!
//! Built with `harness = false`, so no test-runner thread allocates
//! while the counter is read.

use std::alloc::{alloc, alloc_zeroed, dealloc, realloc, Layout};
use std::sync::Barrier;

use monitorless_bench::harness::{alloc_events, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const THREADS: usize = 8;
const ROUNDS: usize = 2_000;

/// Counted events per [`round`]: one `alloc`, one `alloc_zeroed` and
/// two `realloc`s; its two `dealloc`s count nothing.
const EVENTS_PER_ROUND: u64 = 4;

/// Allocation events counted while `f` runs on this thread alone.
fn events_of(f: impl FnOnce()) -> u64 {
    let before = alloc_events();
    f();
    alloc_events() - before
}

/// One round of round-dependent sizes and alignments; every 16th round
/// grows past the 128 KiB point where the system allocator switches to
/// `mmap`.
fn round(i: usize) {
    let size = if i.is_multiple_of(16) {
        64 << 10
    } else {
        16 + i % 240
    };
    let layout = Layout::from_size_align(size, 8 << (i % 4)).expect("valid layout");
    let grown = Layout::from_size_align(size * 4, layout.align()).expect("valid layout");
    let shrunk = Layout::from_size_align(size / 2, layout.align()).expect("valid layout");
    // SAFETY: every layout has a non-zero size; each pointer is checked
    // non-null before use, read and written only within its current
    // layout's size, passed to `realloc` and `dealloc` with the layout
    // it was last allocated with, and freed exactly once.
    unsafe {
        let a = alloc(layout);
        assert!(!a.is_null());
        a.write_bytes(0xA5, size);
        let z = alloc_zeroed(layout);
        assert!(!z.is_null());
        assert!((0..size).all(|k| *z.add(k) == 0), "alloc_zeroed returned dirty memory");
        let g = realloc(a, layout, grown.size());
        assert!(!g.is_null());
        assert!((0..size).all(|k| *g.add(k) == 0xA5), "growing realloc lost data");
        let s = realloc(g, grown, shrunk.size());
        assert!(!s.is_null());
        assert!((0..shrunk.size()).all(|k| *s.add(k) == 0xA5), "shrinking realloc lost data");
        dealloc(s, shrunk);
        dealloc(z, layout);
    }
}

fn main() {
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    // SAFETY: a non-zero-size layout; each pointer is checked non-null,
    // reallocated and freed with the layout it holds, and freed once.
    unsafe {
        let mut p = std::ptr::null_mut();
        assert_eq!(events_of(|| p = alloc(layout)), 1, "alloc counts one event");
        assert!(!p.is_null());
        assert_eq!(events_of(|| p = realloc(p, layout, 128)), 1, "realloc counts one event");
        assert!(!p.is_null());
        let grown = Layout::from_size_align(128, 8).expect("valid layout");
        assert_eq!(events_of(|| dealloc(p, grown)), 0, "dealloc counts nothing");
        assert_eq!(events_of(|| p = alloc_zeroed(layout)), 1, "alloc_zeroed counts one event");
        assert!(!p.is_null());
        dealloc(p, layout);
    }

    // Four phases on one barrier: every thread has started (its startup
    // allocations are done), the main thread reads the counter, all
    // eight are released at once, all have finished, the counter is
    // read again, and only then may they exit.
    let barrier = Barrier::new(THREADS + 1);
    let counted = std::thread::scope(|s| {
        for t in 0..THREADS {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                barrier.wait();
                for i in 0..ROUNDS {
                    round(t * ROUNDS + i);
                }
                barrier.wait();
                barrier.wait();
            });
        }
        barrier.wait();
        let before = alloc_events();
        barrier.wait();
        barrier.wait();
        let counted = alloc_events() - before;
        barrier.wait();
        counted
    });
    let expected = (THREADS * ROUNDS) as u64 * EVENTS_PER_ROUND;
    assert_eq!(counted, expected, "allocation events lost or double-counted under contention");
    println!("counting_alloc: {THREADS} threads x {ROUNDS} rounds, {counted} events counted");
}

//! What the root tests share (`mod support;`): the hostile-input driver
//! ([`hostile`]) and a counting allocator, which installs itself as the
//! test binary's global allocator.
//!
//! The allocator keeps two counts. Per thread, the bytes live and the most
//! live at once, so a test can bound what one decode allocates while other
//! tests run on other threads ([`peak_allocation`], [`bounded`]). Across
//! all threads, the number of allocations and reallocations made
//! ([`allocation_count`]).

// Each test binary uses the half it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub mod hostile;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn track(grow: usize, shrink: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + grow - shrink.min(live.get() + grow);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        track(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        track(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` had live at once on this thread, beyond what was
/// live before it.
pub fn peak_allocation<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    drop(f());
    PEAK.with(Cell::get) - base
}

/// Allocations and reallocations made so far, by every thread.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// `decode`, asserting that it never has more than `per` bytes live per
/// input byte plus `slack` at once.
pub fn bounded<T>(
    per: usize,
    slack: usize,
    decode: impl Fn(&[u8]) -> Option<T>,
) -> impl Fn(&[u8]) -> Option<T> {
    move |input| {
        let mut value = None;
        let peak = peak_allocation(|| value = decode(input));
        assert!(peak <= per * input.len() + slack, "{peak} bytes live decoding {}", input.len());
        value
    }
}

//! Interning a new term allocates nothing of its own: the store's entry
//! vector and its two id indexes grow by doubling, and a term whose children
//! are already canonical needs no other memory.
//!
//! This test binary's global allocator counts the allocations of each thread
//! separately, so the other tests the harness runs in parallel cannot
//! disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acsr::prelude::*;
use acsr::store::TermStore;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn interning_new_terms_allocates_only_to_grow_the_tables() {
    let store = TermStore::new();
    let end = store.intern(&nil());
    let cpu = Res::new("cpu");
    let terms: Vec<P> = (0..10_000)
        .map(|i| act([(cpu, i)], end.term().clone()))
        .collect();
    let before = allocations();
    for t in &terms {
        store.intern(t);
    }
    let made = allocations() - before;
    assert_eq!(store.len(), 10_001);
    assert!(
        made < 100,
        "interning 10 000 new terms made {made} allocations"
    );
}

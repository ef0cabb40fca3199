//! Allocation budget of the executor's per-event path.
//!
//! The link model, the lineage tables and the dispatch path reuse their
//! buffers, so a run's heap allocations are its set-up tables and a few
//! buffer growths, amortised over the tasks. A return to allocating per
//! event (per link tick, per transfer, per dispatch) costs at least one
//! allocation per task and fails the budget. The count is exact — one
//! thread, a deterministic run — so the test cannot flake.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpuflow_experiments::stress::{self, Shape};
use gpuflow_runtime::run;

thread_local! {
    /// Allocations made by this thread. Each test thread counts only its
    /// own, so tests running in parallel do not disturb each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts every allocation and
/// reallocation on the calling thread.
struct ThreadCounting;

fn count() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations belong to no measured run.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: ThreadCounting = ThreadCounting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Tasks per stress DAG: large enough that the set-up tables amortise
/// well below one allocation per task.
const TASKS: usize = 20_000;

#[test]
fn stress_runs_allocate_less_than_once_per_task() {
    let cfg = stress::stress_config();
    for shape in Shape::ALL {
        let wf = stress::build(shape, TASKS);
        let before = allocations();
        let report = run(&wf, &cfg).expect("stress run succeeds");
        let allocs = allocations() - before;
        let tasks = wf.tasks().len() as u64;
        assert_eq!(report.records.len() as u64, tasks);
        assert!(
            allocs < tasks,
            "{}: {allocs} heap allocations for {tasks} tasks ({:.2} per task)",
            shape.label(),
            allocs as f64 / tasks as f64
        );
    }
}

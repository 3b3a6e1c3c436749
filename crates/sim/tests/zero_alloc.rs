//! The arena regression test: a steady-state streaming step performs
//! **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator, and the
//! test measures by *two-run delta*: the same endless [`TrainingLoop`] is
//! driven through [`run_workload_totals`] twice on fresh, identical
//! setups — once for `K` steps, once for `K + EXTRA` steps. Everything up
//! to step `K` (arena warm-up, θ-cache misses, workload construction) is
//! a bitwise-identical prefix of both runs, so the difference in
//! allocation counts is exactly the heap traffic of the `EXTRA`
//! steady-state steps — which must be zero.
//!
//! Everything lives in one `#[test]` so no concurrent test can perturb
//! the counter, and the counter itself is *thread-scoped*: only the test
//! thread opts in, so allocations made by libtest's harness machinery on
//! its own threads (which run concurrently with the measured region)
//! never reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use aps_collectives::workload::generators::TrainingLoop;
use aps_core::controller::{AlwaysReconfigure, Controller, Greedy, Static};
use aps_cost::units::MIB;
use aps_cost::ReconfigModel;
use aps_fabric::CircuitSwitch;
use aps_matrix::Matching;
use aps_sim::stream::{run_workload_totals, StreamPricing, StreamSummary};
use aps_sim::RunConfig;
use aps_topology::builders;

/// Counts every allocation-path call (alloc, alloc_zeroed, realloc);
/// frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Opt-in switch: only the thread that flipped this on contributes to
    /// [`ALLOCS`]. Const-initialized TLS never allocates on first access,
    /// so reading it from inside the global allocator cannot recurse.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation-path call iff the current thread opted in.
/// `try_with` (not `with`) so late allocations during TLS teardown are
/// silently untracked instead of panicking inside the allocator.
#[inline]
fn count_if_tracked() {
    if TRACK.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracked();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracked();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const N: usize = 8;
/// Warm-up budget: several full epochs, so every distinct matching has a
/// θ-cache entry and every arena buffer has hit its high-water mark.
const WARMUP: usize = 200;
/// The steady-state stretch whose allocation delta must be zero.
const EXTRA: usize = 100_000;

/// The at-scale case: a 1024-port ring under `Greedy`, the shape whose
/// steps are dominated by the max-min solve over ~1024 links. It shows the
/// solver's bottleneck heap and position map recycle at scale.
const N_LARGE: usize = 1024;
/// Two epochs of the 28-step loop: every θ miss is priced and every
/// buffer has reached its high-water mark.
const WARMUP_LARGE: usize = 56;
/// Two more epochs, so every step shape recurs in the measured stretch.
const EXTRA_LARGE: usize = 56;

/// Runs `steps` of the endless `n`-port training loop under `controller`
/// on a fresh fabric, returning the summary and the allocation count the
/// run spent.
fn run(n: usize, steps: usize, controller: &dyn Controller) -> (StreamSummary, u64) {
    let base = builders::ring_unidirectional(n).unwrap();
    let ring = Matching::shift(n, 1).unwrap();
    let reconfig = ReconfigModel::constant(5e-6).unwrap();
    let mut fabric = CircuitSwitch::new(ring, reconfig);
    let mut workload = TrainingLoop::new(n, 4, MIB, 4.0 * MIB, None).unwrap();
    let pricing = StreamPricing::new(reconfig);
    let cfg = RunConfig::paper_defaults();
    let before = allocs();
    let summary = run_workload_totals(
        &mut fabric,
        &base,
        &mut workload,
        controller,
        pricing,
        &cfg,
        steps,
    )
    .unwrap();
    (summary, allocs() - before)
}

#[test]
fn steady_state_step_allocates_nothing() {
    // One test fn, and only this thread feeds the counter.
    TRACK.with(|t| t.set(true));
    for (name, n, warmup, extra, controller) in [
        ("static", N, WARMUP, EXTRA, &Static as &dyn Controller),
        ("always-reconfigure", N, WARMUP, EXTRA, &AlwaysReconfigure),
        ("greedy", N, WARMUP, EXTRA, &Greedy),
        ("greedy-1024", N_LARGE, WARMUP_LARGE, EXTRA_LARGE, &Greedy),
    ] {
        let (short, allocs_short) = run(n, warmup, controller);
        let (long, allocs_long) = run(n, warmup + extra, controller);
        assert_eq!(short.steps, warmup, "{name}: short run executed");
        assert_eq!(long.steps, warmup + extra, "{name}: long run executed");
        // The long run strictly extends the short one.
        assert!(long.total_ps > short.total_ps, "{name}: stream advanced");
        let delta = allocs_long - allocs_short;
        assert_eq!(
            delta, 0,
            "{name}: {extra} steady-state steps performed {delta} heap \
             allocations (want 0); warm-up spent {allocs_short}"
        );
    }
}

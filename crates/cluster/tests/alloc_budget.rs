//! Allocation budget of the engine's hot path: an untraced lone run must
//! make fewer heap allocations than it has arrivals. Per-event handlers
//! (arrival, batch close, device wake) reuse their buffers; what remains
//! is per batch or per monitor tick, not per request.
//!
//! A counting global allocator sees every allocation in this process, so
//! this binary holds a single test: no other test thread can allocate
//! while the run is measured.

use paldia_cluster::{run, RunSpec, SimConfig, WorkloadSpec};
use paldia_core::PaldiaScheduler;
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::SimDuration;
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the counter is a plain atomic that no
// allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as `realloc`'s caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// DPN-92 (the Fig. 12b model) at a steady 200 rps for five minutes: about
/// 60 k arrivals in batches of a few requests, so a per-arrival or
/// per-wake allocation alone would break the budget.
#[test]
fn a_steady_run_allocates_less_than_once_per_arrival() {
    let trace = RateTrace::constant(
        200.0,
        SimDuration::from_secs(300),
        SimDuration::from_secs(1),
    );
    let workloads = [WorkloadSpec::new(MlModel::Dpn92, trace)];
    let cfg = SimConfig::with_seed(7);
    let mut sched = PaldiaScheduler::new();
    let hw = InstanceKind::G3s_xlarge;
    let spec = RunSpec::lone(&workloads, &mut sched, hw, Catalog::table_ii(), &cfg);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run(spec).into_lone();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let arrivals: u64 = result.arrived_per_model.iter().map(|&(_, n)| n).sum();
    assert!(arrivals > 50_000, "a steady trace of {arrivals} arrivals");
    assert!(!result.completed.is_empty());
    assert!(
        allocations < arrivals,
        "{allocations} heap allocations for {arrivals} arrivals"
    );
}

// Fixture: the entry points the boundary corpus seeds are called from here,
// so rule u1 keeps out of this corpus's pinned diagnostic set.
fn main() {
    enginecore::engine::run_simulation_boundary(3);
    relay::PaldiaScheduler.monitor_tick();
}

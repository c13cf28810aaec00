// Fixture: rule u1 negative — the perfbench harness is a caller.
fn main() {
    core::u1_cases::from_perfbench();
}

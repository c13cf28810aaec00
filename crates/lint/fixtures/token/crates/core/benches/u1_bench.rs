// Fixture: rule u1 negative — a bench target is a caller.
fn main() {
    core::u1_cases::from_bench();
}

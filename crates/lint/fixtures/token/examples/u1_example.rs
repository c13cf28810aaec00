// Fixture: rule u1 negative — a root example is a caller.
fn main() {
    core::u1_cases::from_example();
}

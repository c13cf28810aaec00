// Fixture: rule u1 — an integration test is not a caller.
#[test]
fn tests_dir_calls() {
    assert_eq!(core::u1_cases::tests_dir_only(), 2);
    assert_eq!(core::u1_cases::never_called(), 7);
}

// Fixture: rule u1 — `pub` items that no non-test code names.

pub fn never_called() -> u32 {
    7
}

// Named only by its own impl blocks and a `pub use` in lib.rs.
pub struct OnlyImpls;

impl OnlyImpls {
    pub fn fresh() -> OnlyImpls {
        OnlyImpls
    }
}

impl Default for OnlyImpls {
    fn default() -> Self {
        OnlyImpls::fresh()
    }
}

// Named only inside `#[cfg(test)]` below, or only under `/tests/`.
pub fn cfg_test_only() -> u32 {
    1
}

pub fn tests_dir_only() -> u32 {
    2
}

// Negatives: each is named by a caller outside the library sources.
pub fn from_bin() -> u32 {
    3
}

pub fn from_bench() -> u32 {
    4
}

pub fn from_example() -> u32 {
    5
}

pub fn from_perfbench() -> u32 {
    6
}

pub const FORMAT_ONLY: u32 = 8;

// A trait method is reached through the trait: `area` is never flagged,
// though nothing calls it.
pub trait Shape {
    fn area(&self) -> f64;
}

pub struct Square(pub f64);

impl Shape for Square {
    fn area(&self) -> f64 {
        self.0 * self.0
    }
}

// lint:allow(u1) fixture: a reviewed hatch on a dead item suppresses it
pub fn hatched_dead() -> u32 {
    9
}

// lint:allow(u1) fixture: a hatch on a live item is stale
pub fn hatched_live() -> u32 {
    10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls() {
        assert_eq!(cfg_test_only(), 1);
        assert_eq!(never_called(), 7);
    }
}

// Fixture: rule u1 negatives — a binary target is a caller.
use core::u1_cases::{from_bin, hatched_live, Square};

fn main() {
    let side = Square(2.0);
    println!("{} {} {}", from_bin(), hatched_live(), side.0);
    println!("{FORMAT_ONLY}");
}

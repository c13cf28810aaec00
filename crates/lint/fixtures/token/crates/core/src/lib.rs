// Fixture: a re-export alone keeps nothing alive (rule u1).
pub mod u1_cases;

pub use u1_cases::OnlyImpls;

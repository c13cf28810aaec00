//! # paldia-metrics
//!
//! Everything the evaluation section measures, computed from
//! `paldia-cluster` [`RunResult`](paldia_cluster::RunResult)s:
//!
//! * SLO compliance and per-model compliance (Figs. 3, 9, 11–13, Table III)
//! * latency percentiles and tail breakdowns (Figs. 1, 4)
//! * end-to-end latency CDFs (Fig. 6)
//! * goodput over peak-traffic windows (Fig. 7a)
//! * normalized cost (Figs. 5, 10–13), power (Fig. 7b), utilization (Fig. 8)
//! * plain-text table rendering for the `repro` harness
//! * averaging across repetitions with outlier rejection (the paper drops
//!   samples beyond 2.5σ of the mean)

pub mod breakdown;
pub mod cdf;
pub mod faults;
pub mod goodput;
pub mod latency;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use breakdown::{tail_cohort, TailBreakdown};
pub use cdf::Cdf;
pub use faults::FaultImpact;
pub use goodput::goodput_in_window;
pub use latency::{percentile, LatencyStats};
pub use summary::average_with_outlier_rejection;
pub use table::TextTable;
pub use timeseries::TimeSeries;

//! # paldia-experiments
//!
//! One module per figure/table of the paper's evaluation, each producing a
//! paper-vs-measured [`ExperimentReport`]. The `repro` binary runs them all
//! and prints the tables EXPERIMENTS.md records:
//!
//! ```text
//! cargo run --release -p paldia-experiments --bin repro            # full (5 reps)
//! cargo run --release -p paldia-experiments --bin repro -- --quick # 1 rep
//! cargo run --release -p paldia-experiments --bin repro -- fig3 fig5
//! ```
//!
//! `--trace out.json` / `--explain ID` capture the primary run with the
//! `paldia-obs` observability sink attached, and `--diff A.jsonl B.jsonl` /
//! `--diff-flip KEY=VALUE` / `--diff-golden` align and diff two decision
//! logs; the primary run is [`diffcap::PrimaryScenario`]. `repro`,
//! `paldia-serve` and `paldia-run` read their command lines through [`cli`].

pub mod ablations;
pub mod cli;
pub mod common;
pub mod diffcap;
pub mod ext_fleet;
pub mod fig01_motivation;
pub mod fig03_slo_vision;
pub mod fig04_breakdown;
pub mod fig05_cost;
pub mod fig06_cdf;
pub mod fig07_goodput_power;
pub mod fig08_utilization;
pub mod fig09_llm;
pub mod fig11_oracle;
pub mod fig12_traces;
pub mod fig13_adverse;
pub mod llm_iter;
pub mod runner;
pub mod scenarios;
pub mod stress;
pub mod table3_mixed;
pub mod timings;

pub use common::{Check, ExperimentReport, RunOpts, SchemeKind};
pub use runner::{run_grid, GridCell};

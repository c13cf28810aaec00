//! Shard-count invariance of the partitioned fleet engine, as properties:
//! whatever the workload mix, seed, or fault schedule, the number of
//! partitions must never change a single bit of the output — and the
//! engine must complete even when shards outnumber the worker pool.

use paldia::cluster::{
    run_fleet_sharded, FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, SimConfig,
    WorkloadSpec,
};
use paldia::core::{pool, PaldiaScheduler};
use paldia::hw::Catalog;
use paldia::sim::{SimDuration, SimTime};
use paldia::traces::RateTrace;
use paldia::workloads::MlModel;
use proptest::prelude::*;

const ELASTIC: u32 = u32::MAX;
const MODELS: [MlModel; 4] = [
    MlModel::GoogleNet,
    MlModel::ResNet50,
    MlModel::SeNet18,
    MlModel::MobileNet,
];

/// A fleet of `n` tenants with per-tenant rates drawn by the property.
fn fleet(rates: &[f64], secs: u64) -> Vec<FleetDeployment> {
    let tiers = Catalog::table_ii().by_cost_ascending();
    rates
        .iter()
        .enumerate()
        .map(|(i, &rps)| FleetDeployment {
            name: format!("prop-{i}"),
            workloads: vec![WorkloadSpec::new(
                MODELS[i % MODELS.len()],
                RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
            )],
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: tiers[i % tiers.len()],
        })
        .collect()
}

fn fingerprint(results: &[RunResult]) -> String {
    format!("{results:?}")
}

fn run(rates: &[f64], secs: u64, cfg: &SimConfig, shards: u32) -> String {
    fingerprint(&run_fleet_sharded(
        fleet(rates, secs),
        Catalog::table_ii(),
        ELASTIC,
        cfg,
        shards,
    ))
}

proptest! {
    /// Clean elastic fleets: identical output at shard counts 1, 2, 3, 7.
    #[test]
    fn clean_fleet_is_invariant_across_shard_counts(
        seed in 0u64..1_000,
        rates in proptest::collection::vec(4.0f64..40.0, 2..5),
    ) {
        let cfg = SimConfig::with_seed(seed);
        let baseline = run(&rates, 15, &cfg, 1);
        for shards in [2u32, 3, 7] {
            prop_assert_eq!(&baseline, &run(&rates, 15, &cfg, shards),
                "clean fleet diverged at shards={}", shards);
        }
    }

    /// Iteration-level LLM fleets: whatever the seed, and with or without
    /// the cold-start storm, the three-tenant continuous-batching fleet
    /// must emit the identical output at shards 1 and 3.
    #[test]
    fn llm_mode_is_invariant_across_shard_counts(
        seed in 0u64..500,
        storm_bit in 0u64..2,
    ) {
        use paldia::experiments::llm_iter::{run_llm_fleet, LlmRunOpts};
        use paldia::experiments::SchemeKind;
        let storm = storm_bit == 1;
        let base = LlmRunOpts {
            seed,
            secs: 45,
            scheme: SchemeKind::Paldia,
            iterative: true,
            storm,
        };
        let serial = run_llm_fleet(&base, 1);
        let sharded = run_llm_fleet(&base, 3);
        prop_assert!(serial.iter().all(|r| !r.completed.is_empty()), "an LLM tenant served nothing");
        prop_assert_eq!(
            format!("{serial:?}"),
            format!("{sharded:?}"),
            "LLM fleet ({}) diverged at shards=3",
            if storm { "storm" } else { "clean" }
        );
    }

    /// Faulted fleets: a crash + degrade + storm schedule with
    /// property-chosen phases must not break the invariance either.
    #[test]
    fn faulted_fleet_is_invariant_across_shard_counts(
        seed in 0u64..1_000,
        crash_at in 3u64..14,
        degrade_at in 3u64..14,
        severity in 0.1f64..0.9,
        rates in proptest::collection::vec(4.0f64..40.0, 2..5),
    ) {
        let plan = FaultPlan::new()
            .crash(SimTime::from_secs(crash_at), SimDuration::from_secs(5))
            .degrade(SimTime::from_secs(degrade_at), SimDuration::from_secs(7), severity)
            .cold_start_storm(SimTime::from_secs(crash_at + 4));
        let cfg = SimConfig::with_seed(seed)
            .with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
        let baseline = run(&rates, 18, &cfg, 1);
        for shards in [2u32, 3, 7] {
            prop_assert_eq!(&baseline, &run(&rates, 18, &cfg, shards),
                "faulted fleet diverged at shards={}", shards);
        }
    }
}

/// Shards beyond the pool's worker cap must queue, not deadlock: with the
/// pool pinned to one job, a 7-shard faulted run still completes and
/// still matches the single-shard output. (`pool::set_jobs` is
/// process-global, but shard/job counts never affect results — only
/// wall-clock — so concurrent tests are unaffected.)
#[test]
fn pool_starvation_completes_and_matches() {
    pool::set_jobs(1);
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(10), SimDuration::from_secs(5))
        .straggler(SimTime::from_secs(18), SimDuration::from_secs(8), 2.5);
    let cfg = SimConfig::with_seed(77).with_faults(plan, FailoverPolicyKind::SameTierSpread);
    let rates = [30.0, 15.0, 40.0, 10.0, 25.0];
    let baseline = run(&rates, 20, &cfg, 1);
    let starved = run(&rates, 20, &cfg, 7);
    assert_eq!(baseline, starved, "7 shards on a 1-job pool diverged");
}

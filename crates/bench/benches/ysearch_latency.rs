//! The paper claims the best-y search completes "with minimal overhead
//! (< 3 ms) through multi-threading" (§III). This bench validates that the
//! full Algorithm 1 evaluation — the in-order sweep over the entire Table II
//! pool with Eq. (1) y-probing, on the calling thread — stays well under
//! that budget. `scripts/ci.sh` fails when any case's mean reaches 3 ms.

use criterion::{criterion_group, criterion_main, Criterion};
use paldia_core::ysearch::{evaluate_pool, ModelLoad};
use paldia_hw::InstanceKind;
use paldia_workloads::MlModel;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ysearch_latency");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let kinds = InstanceKind::ALL;
    for &(label, pending) in &[("light", 64u64), ("surge", 2_048), ("deep", 16_384)] {
        let loads = [ModelLoad {
            model: MlModel::ResNet50,
            pending,
            rate_rps: 450.0,
        }];
        g.bench_function(format!("full_pool/{label}"), |b| {
            b.iter(|| evaluate_pool(&kinds, &loads, 200.0))
        });
    }
    // The 16-model worst case (every workload active at once).
    let loads: Vec<ModelLoad> = MlModel::ALL
        .iter()
        .map(|&m| ModelLoad {
            model: m,
            pending: 1_024,
            rate_rps: 100.0,
        })
        .collect();
    g.bench_function("full_pool/16_models", |b| {
        b.iter(|| evaluate_pool(&kinds, &loads, 200.0))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The workspace builds in an offline container where the crates.io mirror
//! is unreachable, so the real `criterion` cannot be fetched. This shim is a
//! functional micro-benchmark harness, not statistics theatre: it warms up,
//! runs timed samples until the measurement budget or sample count is
//! exhausted, and prints mean / min per-iteration wall-clock. It covers the
//! API surface the `paldia-core` `ysearch_latency` bench uses:
//! `criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! group configuration (`sample_size`, `measurement_time`, `warm_up_time`),
//! `BenchmarkGroup::bench_function` and `Bencher::iter`.

use std::time::{Duration, Instant};

use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
struct SampleConfig {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

/// Top-level benchmark context handed to each `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {
    config: SampleConfig,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.config,
            _criterion: self,
        }
    }
}

pub struct BenchmarkGroup<'c> {
    name: String,
    config: SampleConfig,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.config.measurement_time = t;
        self
    }

    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.config.warm_up_time = t;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_benchmark(&full, self.config, f);
        self
    }

    pub fn finish(self) {}
}

/// Measurement driver passed to each benchmark closure.
pub struct Bencher {
    config: SampleConfig,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `f`, one invocation per sample, after a warm-up period.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let warm_until = Instant::now() + self.config.warm_up_time;
        loop {
            black_box(f());
            if Instant::now() >= warm_until {
                break;
            }
        }
        let budget = Instant::now() + self.config.measurement_time;
        for _ in 0..self.config.sample_size {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed());
            if Instant::now() >= budget {
                break;
            }
        }
    }
}

fn run_benchmark<F>(id: &str, config: SampleConfig, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        config,
        samples: Vec::new(),
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{id:<48} (no samples recorded)");
        return;
    }
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / bencher.samples.len() as u32;
    let min = bencher.samples.iter().min().copied().unwrap_or_default();
    println!(
        "{id:<48} mean {:>12} min {:>12} ({} samples)",
        format_duration(mean),
        format_duration(min),
        bencher.samples.len()
    );
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod shim_tests {
    use super::*;

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.measurement_time(Duration::from_millis(50));
        g.warm_up_time(Duration::from_millis(1));
        let mut ran = 0u32;
        g.bench_function("counts", |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        g.finish();
        assert!(ran > 0);
    }
}

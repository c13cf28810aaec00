//! Metric names, units and the result line.
//!
//! The two tables below must match `BENCHMARK.json`: an untraced run
//! prints exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`]. A
//! per-layer metric of a layer the workload does not exercise reads 0
//! (see `perfbench/README.md`).

use std::fmt::Write;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("slo_pct", "%"),
    ("cost_usd", "USD"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics: (name, unit). Named after the module they time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.decide.calls", "count"),
    ("core.decide.self_s", "s"),
    ("core.decide.p50_us", "us"),
    ("core.decide.p99_us", "us"),
    ("core.decide.share", "%"),
    ("core.plan_cache.hits", "count"),
    ("core.plan_cache.misses", "count"),
    ("core.plan_cache.hit_ratio", "%"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("cluster.self_s", "s"),
    ("cluster.arrived", "count"),
    ("cluster.completed", "count"),
    ("cluster.unserved", "count"),
    ("cluster.cold_starts", "count"),
    ("cluster.transitions", "count"),
    ("cluster.mean_batch", "count"),
    ("cluster.node_leases", "count"),
    ("cluster.gpu_util", "%"),
    ("cluster.queue_p99_ms", "ms"),
    ("cluster.interference_p99_ms", "ms"),
    ("traces.build_s", "s"),
    ("obs.events", "count"),
    ("obs.kind.request_arrived", "count"),
    ("obs.kind.batch_formed", "count"),
    ("obs.kind.batch_dispatched", "count"),
    ("obs.kind.batch_admitted", "count"),
    ("obs.kind.batch_completed", "count"),
    ("obs.kind.iteration_started", "count"),
    ("obs.kind.batch_join", "count"),
    ("obs.kind.batch_leave", "count"),
    ("obs.kind.decision", "count"),
    ("obs.sink.self_s", "s"),
    ("obs.jsonl.encode_s", "s"),
    ("obs.jsonl.bytes", "B"),
    ("obs.jsonl.decode_s", "s"),
    ("obs.attrib_s", "s"),
    ("obs.kv_occupancy_s", "s"),
    ("obs.triage_s", "s"),
    ("obs.diff_s", "s"),
    ("obs.diff.aligned", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("serve.handshake_ms", "ms"),
    ("serve.send_s", "s"),
    ("serve.first_done_ms", "ms"),
    ("serve.drain_ms", "ms"),
    ("serve.done_lines", "count"),
    ("serve.err_lines", "count"),
    ("serve.server_cpu_s", "s"),
    ("serve.proto.parse_s", "s"),
    ("serve.proto.encode_s", "s"),
    ("serve.session_s", "s"),
    ("serve.wire_s", "s"),
    ("serve.lag_p99_ms", "ms"),
    ("serve.rps", "1/s"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.vol_ctxsw", "count"),
    ("proc.invol_ctxsw", "count"),
    ("proc.minflt", "count"),
    ("host.steal_s", "s"),
    ("bench.run_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.probe_overhead_pct", "%"),
];

/// Metric values by name, checked against a table on output.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The JSON object of `table`'s metrics. A name in `table` this run
    /// did not set reads 0; a name set outside `table` is a bug here.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        for (n, _) in &self.values {
            assert!(
                table.iter().any(|(t, _)| t == n),
                "metric {n} is not in the benchmark's table"
            );
        }
        let mut s = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String");
        }
        s.push('}');
        s
    }

    /// Human-readable table, one metric per line.
    pub fn render(&self, table: &[(&str, &str)]) -> String {
        let mut s = String::new();
        for (name, unit) in table {
            if let Some(v) = self.get(name) {
                writeln!(s, "  {name:<30} {v:>16.6} {unit}").expect("writing to a String");
            }
        }
        s
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

//! `target/serve-report.json` — the CI artifact of the `serve-smoke`
//! stage. Handwritten JSON, like `BENCH_repro.json` and the experiment
//! reports: the workspace builds offline, without serde.

use std::io::Write;
use std::path::Path;

use crate::smoke::{SmokeOpts, SmokeOutcome};

/// Render the report JSON.
pub fn render_report(opts: &SmokeOpts, o: &SmokeOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"paldia-serve-smoke-v1\",\n");
    s.push_str(&format!("  \"pass\": {},\n", o.pass()));
    s.push_str(&format!(
        "  \"opts\": {{\"requests\": {}, \"speed\": {}, \"seed\": {}}},\n",
        opts.requests, opts.speed, opts.seed
    ));
    s.push_str(&format!(
        "  \"trace\": {{\"arrivals\": {}, \"duration_us\": {}}},\n",
        o.trace_arrivals, o.trace_duration_us
    ));
    s.push_str(&format!(
        "  \"shell\": {{\"completed\": {}, \"unserved\": {}, \"cold_starts\": {}, \
         \"transitions\": {}, \"cost_usd\": {:.6}, \"decision_events\": {}, \
         \"wall_ms\": {:.1}, \"protocol_errors\": {}}},\n",
        o.shell.result.completed.len(),
        o.shell.result.unserved,
        o.shell.result.cold_starts,
        o.shell.result.transitions,
        o.shell.result.total_cost(),
        o.shell_events.len(),
        o.shell.wall.as_secs_f64() * 1e3,
        o.shell.protocol_errors.len(),
    ));
    s.push_str(&format!(
        "  \"sim\": {{\"completed\": {}, \"unserved\": {}, \"cold_starts\": {}, \
         \"transitions\": {}, \"cost_usd\": {:.6}, \"decision_events\": {}}},\n",
        o.sim_result.completed.len(),
        o.sim_result.unserved,
        o.sim_result.cold_starts,
        o.sim_result.transitions,
        o.sim_result.total_cost(),
        o.sim_events.len(),
    ));
    s.push_str(&format!(
        "  \"client\": {{\"sent\": {}, \"done\": {}, \"errors\": {}, \"wall_ms\": {:.1}}},\n",
        o.stats.sent,
        o.stats.done.len(),
        o.stats.errors.len(),
        o.stats.wall.as_secs_f64() * 1e3,
    ));
    s.push_str(&format!(
        "  \"diff\": {{\"forward_divergent\": {}, \"backward_divergent\": {}, \
         \"aligned\": {}, \"events_identical\": {}}}\n",
        o.forward.total_divergent,
        o.backward.total_divergent,
        o.forward.aligned,
        o.events_identical,
    ));
    s.push_str("}\n");
    s
}

/// Write the report to `path`, creating parent directories as needed.
pub fn write_report(path: &Path, opts: &SmokeOpts, o: &SmokeOutcome) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    f.write_all(render_report(opts, o).as_bytes())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

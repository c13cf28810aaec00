//! Wall-clock timing for the reproduction harness and the tracked perf
//! baseline file `BENCH_repro.json` at the repo root.
//!
//! `repro --timings` times the run end-to-end and per figure, reports the
//! y-search plan-cache hit rate, prints a timing table, and appends one
//! entry to `BENCH_repro.json` so every PR has a recorded before/after
//! trajectory. The file is handwritten JSON (the workspace builds offline,
//! without serde):
//!
//! ```json
//! {
//!   "schema": "paldia-bench-repro-v1",
//!   "entries": [
//!     {
//!       "label": "after-parallel-runner",
//!       "unix_time": 1754500000,
//!       "mode": "quick",
//!       "commit": "2df78eb",
//!       "nproc": 2,
//!       "jobs": 8,
//!       "shards": 1,
//!       "seed": 1000,
//!       "total_s": 12.345,
//!       "figures": [{"id": "fig1", "secs": 1.234}],
//!       "ysearch_cache": {"hits": 100, "misses": 10, "hit_rate": 0.909}
//!     }
//!   ]
//! }
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};

/// Wall-clock of one figure/table module.
#[derive(Clone, Debug)]
pub struct FigureTiming {
    /// Experiment id ("fig1", "table3", …).
    pub id: String,
    /// Wall-clock seconds.
    pub secs: f64,
}

/// One timing entry: a full `repro` invocation.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Free-form label (`--label`), e.g. "baseline-serial".
    pub label: String,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time: u64,
    /// "quick" or "full".
    pub mode: String,
    /// Git commit the binary was built from ("unknown" outside a repo).
    pub commit: String,
    /// Host core count (`available_parallelism`), so entries from
    /// different hosts are told apart.
    pub nproc: usize,
    /// Worker cap the run executed with.
    pub jobs: usize,
    /// Shard count the simulations executed with (1 = serial engine).
    pub shards: u32,
    /// Seed base.
    pub seed: u64,
    /// End-to-end wall-clock seconds.
    pub total_s: f64,
    /// Per-figure wall-clock, in execution order.
    pub figures: Vec<FigureTiming>,
    /// Process-wide y-search plan-cache hits.
    pub cache_hits: u64,
    /// Process-wide y-search plan-cache misses.
    pub cache_misses: u64,
}

impl TimingReport {
    /// Plan-cache hit rate in `[0, 1]`; 0 when the cache was never queried.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Human-readable timing table for `--timings` stdout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "timings ({} mode, {} core(s), {} job(s), {} shard(s), seed {}, commit {}):\n",
            self.mode, self.nproc, self.jobs, self.shards, self.seed, self.commit
        ));
        // Ids pad to the longest (at least 8), so the seconds line up.
        let width = self.figures.iter().map(|f| f.id.len()).fold(8, usize::max);
        for f in &self.figures {
            out.push_str(&format!("  {:<width$} {:>8.2}s\n", f.id, f.secs));
        }
        out.push_str(&format!("  {:<width$} {:>8.2}s\n", "total", self.total_s));
        out.push_str(&format!(
            "  y-search plan cache: {} hits / {} misses ({:.1}% hit rate)\n",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0
        ));
        out
    }

    /// This entry as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let figures = self
            .figures
            .iter()
            .map(|f| format!("{{\"id\": \"{}\", \"secs\": {:.3}}}", escape(&f.id), f.secs))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\"label\": \"{}\", \"unix_time\": {}, \"mode\": \"{}\", ",
                "\"commit\": \"{}\", ",
                "\"nproc\": {}, \"jobs\": {}, \"shards\": {}, \"seed\": {}, \"total_s\": {:.3}, ",
                "\"figures\": [{}], ",
                "\"ysearch_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}}}"
            ),
            escape(&self.label),
            self.unix_time,
            escape(&self.mode),
            escape(&self.commit),
            self.nproc,
            self.jobs,
            self.shards,
            self.seed,
            self.total_s,
            figures,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate(),
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

const SCHEMA: &str = "paldia-bench-repro-v1";

/// Append `entry` to the bench file at `path`, creating it (with the schema
/// header) when missing. An unparseable existing file is replaced rather
/// than corrupted further.
pub fn append_entry(path: &Path, entry: &TimingReport) -> std::io::Result<()> {
    let json = entry.to_json();
    let existing = std::fs::read_to_string(path).ok();
    let body = match existing.as_deref().map(str::trim_end) {
        Some(text)
            if text.ends_with("]\n}") || text.ends_with("]}") || text.ends_with("]\r\n}") =>
        {
            // Splice before the closing "]": the entries array keeps growing.
            let cut = text.rfind(']').expect("checked suffix");
            let head = text[..cut].trim_end();
            let sep = if head.ends_with('[') { "" } else { "," };
            format!("{head}{sep}\n    {json}\n  ]\n}}\n")
        }
        _ => format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"entries\": [\n    {json}\n  ]\n}}\n"),
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

/// The nearest directory at or above `dir` whose `Cargo.toml` declares a
/// `[workspace]`.
fn workspace_root(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| {
            std::fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|t| t.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// `BENCH_repro.json` at the root of the workspace containing `dir`.
fn bench_path_from(dir: &Path) -> Result<PathBuf, String> {
    workspace_root(dir)
        .map(|root| root.join("BENCH_repro.json"))
        .ok_or_else(|| {
            format!(
                "no Cargo.toml with [workspace] at or above {}; run from inside the checkout",
                dir.display()
            )
        })
}

/// The tracked bench file of the checkout the process runs in: resolved
/// at run time from the working directory, so a binary built in one tree
/// and run in another writes to the tree it runs in.
pub fn default_bench_path() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("reading the working directory: {e}"))?;
    bench_path_from(&cwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str) -> TimingReport {
        TimingReport {
            label: label.into(),
            unix_time: 1_754_500_000,
            mode: "quick".into(),
            commit: "deadbeef".into(),
            nproc: 2,
            jobs: 4,
            shards: 1,
            seed: 1_000,
            total_s: 12.5,
            figures: vec![
                FigureTiming {
                    id: "fig1".into(),
                    secs: 1.25,
                },
                FigureTiming {
                    id: "table3".into(),
                    secs: 0.5,
                },
            ],
            cache_hits: 90,
            cache_misses: 10,
        }
    }

    #[test]
    fn json_shape_and_hit_rate() {
        let e = entry("base");
        assert!((e.cache_hit_rate() - 0.9).abs() < 1e-12);
        let j = e.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"label\": \"base\""));
        assert!(j.contains("\"figures\": [{\"id\": \"fig1\""));
        assert!(j.contains("\"commit\": \"deadbeef\""));
        assert!(j.contains("\"nproc\": 2, \"jobs\": 4"));
        assert!(j.contains("\"shards\": 1"));
        assert!(j.contains("\"hit_rate\": 0.9000"));
    }

    #[test]
    fn append_creates_then_grows() {
        let dir = std::env::temp_dir().join(format!("paldia-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_repro.json");
        let _ = std::fs::remove_file(&path);

        append_entry(&path, &entry("first")).unwrap();
        let once = std::fs::read_to_string(&path).unwrap();
        assert!(once.contains(SCHEMA));
        assert_eq!(once.matches("\"label\"").count(), 1);

        append_entry(&path, &entry("second")).unwrap();
        let twice = std::fs::read_to_string(&path).unwrap();
        assert_eq!(twice.matches("\"label\"").count(), 2);
        assert!(twice.contains("\"first\"") && twice.contains("\"second\""));
        // Still exactly one schema header and balanced braces.
        assert_eq!(twice.matches(SCHEMA).count(), 1);
        assert_eq!(twice.matches('{').count(), twice.matches('}').count(),);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_is_replaced() {
        let dir = std::env::temp_dir().join(format!("paldia-bench-g-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_repro.json");
        std::fs::write(&path, "not json at all").unwrap();
        append_entry(&path, &entry("fresh")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(SCHEMA) && text.contains("\"fresh\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_path_follows_the_working_directory() {
        let base = std::env::temp_dir().join(format!("paldia-bench-ws-{}", std::process::id()));
        let nested = base.join("member/src");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            base.join("Cargo.toml"),
            "[workspace]\nmembers = [\"member\"]\n",
        )
        .unwrap();
        // A member manifest is not a workspace root; the walk continues up.
        std::fs::write(base.join("member/Cargo.toml"), "[package]\nname = \"m\"\n").unwrap();
        assert_eq!(
            bench_path_from(&nested).unwrap(),
            base.join("BENCH_repro.json")
        );
        assert_eq!(
            bench_path_from(&base).unwrap(),
            base.join("BENCH_repro.json")
        );
        // The same walk from this crate lands on the repository's root.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        assert_eq!(
            bench_path_from(here).unwrap(),
            here.join("../../BENCH_repro.json").canonicalize().unwrap()
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn bench_path_without_workspace_is_an_error() {
        let dir = std::env::temp_dir().join(format!("paldia-bench-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        if workspace_root(&dir).is_none() {
            let err = bench_path_from(&dir).unwrap_err();
            assert!(err.contains("[workspace]"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_mentions_cache() {
        let text = entry("x").render();
        assert!(text.contains("hit rate"));
        assert!(text.contains("fig1"));
        assert!(text.contains("total"));
        assert!(text.contains("\n  fig1         1.25s\n"), "{text}");
        let mut long = entry("x");
        long.figures[1].id = "ablation-batch-window".into();
        // Every seconds column ends where the longest id's does.
        let ends: Vec<usize> = long
            .render()
            .lines()
            .filter(|l| l.ends_with('s') && l.starts_with("  ") && !l.contains("cache"))
            .map(str::len)
            .collect();
        assert_eq!(ends.len(), 3, "{}", long.render());
        assert!(ends.iter().all(|&e| e == ends[0]), "{}", long.render());
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}

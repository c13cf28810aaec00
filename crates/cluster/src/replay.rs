//! Recorded arrival traces: a line-delimited text format carrying
//! everything a replay needs to reproduce a batch simulation bit-for-bit.
//!
//! A [`RecordedTrace`] captures the *sampled* arrivals of a workload set —
//! not the rate curves — together with the sampling seed, the arrival
//! timeline end, the sequence-number reservation (see [`crate::session`]),
//! and the initial hardware. Both replay executors (the DES and the
//! `paldia-serve` wall-clock shell) reconstruct their session from the same
//! trace, which is what makes their decision streams comparable at all.
//!
//! The format is deliberately plain text — one record per line, integers
//! in microseconds, models named by lower-case token — so a trace can be
//! inspected, truncated, or hand-edited with ordinary tools:
//!
//! ```text
//! # paldia-replay v1
//! seed 42
//! duration_us 120000000
//! reserve 3217
//! initial_hw g3s.xlarge
//! model googlenet
//! arrival 0 1 11812 googlenet
//! arrival 1 2 26401 googlenet
//! ...
//! end
//! ```
//!
//! `arrival <seq> <id> <at_us> <model>` lines are sorted by `(at_us, seq)`
//! — injection order. The module does no file I/O; callers (the
//! `experiments` capture path, the serve shell) read and write the text.

use crate::harness::{sample_arrivals, SampledArrival, WorkloadSpec};
use crate::request::RequestId;
use paldia_hw::InstanceKind;
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// The largest value a replay accepts for a time in microseconds
/// (`duration_us`, an arrival's `at_us`, a live session's length) and for
/// a sequence-number reservation (`reserve`), in files and on the wire.
/// 2^48 us is about 8.9 years of virtual time: far beyond any trace, and
/// far enough below `u64::MAX` that no horizon, tick or sequence number
/// derived from an accepted value can overflow.
pub const REPLAY_BOUND: u64 = 1 << 48;

/// `value` if it is at most [`REPLAY_BOUND`]; otherwise an error naming
/// `field`.
pub fn within_replay_bound(field: &str, value: u64) -> Result<u64, String> {
    if value > REPLAY_BOUND {
        return Err(format!(
            "`{field}` {value} exceeds the replay bound {REPLAY_BOUND}"
        ));
    }
    Ok(value)
}

/// Canonical lower-case token for a model name: its letters and digits,
/// lower-cased ("ResNet 50" → `resnet50`, "EfficientNet-B0" →
/// `efficientnetb0`). Model names contain spaces; tokens keep the line
/// format whitespace-split. A static table, so encoding and parsing a line
/// allocate nothing for it.
pub fn model_token(model: MlModel) -> &'static str {
    match model {
        MlModel::ResNet50 => "resnet50",
        MlModel::GoogleNet => "googlenet",
        MlModel::DenseNet121 => "densenet121",
        MlModel::Dpn92 => "dpn92",
        MlModel::Vgg19 => "vgg19",
        MlModel::ResNet18 => "resnet18",
        MlModel::MobileNet => "mobilenet",
        MlModel::MobileNetV2 => "mobilenetv2",
        MlModel::SeNet18 => "senet18",
        MlModel::ShuffleNetV2 => "shufflenetv2",
        MlModel::EfficientNetB0 => "efficientnetb0",
        MlModel::SimplifiedDla => "simplifieddla",
        MlModel::Albert => "albert",
        MlModel::Bert => "bert",
        MlModel::DistilBert => "distilbert",
        MlModel::FunnelTransformer => "funneltransformer",
    }
}

/// Resolve a [`model_token`] back to its model.
pub fn model_from_token(token: &str) -> Option<MlModel> {
    MlModel::ALL.into_iter().find(|&m| model_token(m) == token)
}

/// Resolve an instance kind from its AWS name (the `Display` form).
pub fn instance_from_token(token: &str) -> Option<InstanceKind> {
    InstanceKind::ALL
        .into_iter()
        .find(|k| k.aws_name() == token)
}

/// A recorded arrival trace plus the context a replay session needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Seed the arrivals were sampled under (provenance; replay never
    /// re-samples).
    pub seed: u64,
    /// End of the arrival timeline — the session's `trace_end`, from which
    /// the run horizon is `trace_end + DRAIN_GRACE`.
    pub duration: SimDuration,
    /// Sequence-number block to reserve before seeding the calendar:
    /// `max(seq) + 1` over the arrivals (see [`crate::session`]).
    pub reserve: u64,
    /// Hardware the deployment starts on (warm), recorded so both replay
    /// sides provision the same first worker.
    pub initial_hw: InstanceKind,
    /// Models served, in workload order.
    pub models: Vec<MlModel>,
    /// Arrivals sorted by `(at, seq)` — injection order.
    pub arrivals: Vec<SampledArrival>,
}

/// A parse failure: line number (1-based) and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl RecordedTrace {
    /// Record the arrivals a lone [`crate::run`] would sample for
    /// `workloads` under `seed`, starting on `initial_hw`. The arrivals are
    /// re-sorted from generation (model-major) order into injection
    /// `(at, seq)` order; the reservation covers the full generated block.
    pub fn record(workloads: &[WorkloadSpec], seed: u64, initial_hw: InstanceKind) -> Self {
        let (mut arrivals, trace_end) = sample_arrivals(workloads, seed);
        let reserve = arrivals.len() as u64;
        arrivals.sort_by_key(|sa| (sa.at, sa.seq));
        RecordedTrace {
            seed,
            duration: trace_end - SimTime::ZERO,
            reserve,
            initial_hw,
            models: workloads.iter().map(|s| s.model).collect(),
            arrivals,
        }
    }

    /// The first `n` arrivals as their own trace, with the timeline cut
    /// just past the last kept arrival. The result is a distinct scenario
    /// (fewer arrivals, shorter tick timeline) — still bit-comparable
    /// between the two replay executors, which is all a smoke run needs.
    pub fn truncated(&self, n: usize) -> Self {
        let arrivals: Vec<SampledArrival> = self.arrivals.iter().take(n).copied().collect();
        let last = arrivals.last().map_or(SimTime::ZERO, |sa| sa.at);
        let duration = (last + SimDuration::from_secs(1)) - SimTime::ZERO;
        let reserve = arrivals.iter().map(|sa| sa.seq + 1).max().unwrap_or(0);
        RecordedTrace {
            seed: self.seed,
            duration: duration.min(self.duration),
            reserve,
            initial_hw: self.initial_hw,
            models: self.models.clone(),
            arrivals,
        }
    }

    /// Serialize to the line format shown in the module docs.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(32 * self.arrivals.len() + 128);
        out.push_str("# paldia-replay v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("duration_us {}\n", self.duration.as_micros()));
        out.push_str(&format!("reserve {}\n", self.reserve));
        out.push_str(&format!("initial_hw {}\n", self.initial_hw));
        for &m in &self.models {
            out.push_str(&format!("model {}\n", model_token(m)));
        }
        for sa in &self.arrivals {
            out.push_str(&format!(
                "arrival {} {} {} {}\n",
                sa.seq,
                sa.id.0,
                sa.at.as_micros(),
                model_token(sa.model)
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the line format. Blank lines and `#` comments are ignored;
    /// every arrival must name a declared model and arrive in `(at, seq)`
    /// order; the trailing `end` marker guards against truncated files.
    /// Refused: a header or model given twice, a record with trailing
    /// tokens, and a `duration_us`, `reserve` or `at_us` above
    /// [`REPLAY_BOUND`].
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let err = |line: usize, message: String| ParseError { line, message };
        let set_once = |line: usize, tag: &str, was_set: bool| {
            if was_set {
                return Err(err(line, format!("repeated `{tag}` header")));
            }
            Ok(())
        };
        let mut seed: Option<u64> = None;
        let mut duration: Option<SimDuration> = None;
        let mut reserve: Option<u64> = None;
        let mut initial_hw: Option<InstanceKind> = None;
        let mut models: Vec<MlModel> = Vec::new();
        let mut arrivals: Vec<SampledArrival> = Vec::new();
        let mut ended = false;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if ended {
                return Err(err(lineno, "content after `end`".to_string()));
            }
            let mut parts = line.split_ascii_whitespace();
            let tag = parts.next().unwrap_or_default();
            let mut num = |field: &str| -> Result<u64, ParseError> {
                parts
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err(lineno, format!("expected integer {field}")))
            };
            let bounded =
                |field: &str, v: u64| within_replay_bound(field, v).map_err(|m| err(lineno, m));
            match tag {
                "seed" => {
                    let n = num("seed")?;
                    set_once(lineno, tag, seed.replace(n).is_some())?;
                }
                "duration_us" => {
                    let us = bounded("duration_us", num("duration_us")?)?;
                    let d = SimDuration::from_micros(us);
                    set_once(lineno, tag, duration.replace(d).is_some())?;
                }
                "reserve" => {
                    let n = bounded("reserve", num("reserve")?)?;
                    set_once(lineno, tag, reserve.replace(n).is_some())?;
                }
                "initial_hw" => {
                    let tok = parts
                        .next()
                        .ok_or_else(|| err(lineno, "expected instance name".to_string()))?;
                    let kind = instance_from_token(tok)
                        .ok_or_else(|| err(lineno, format!("unknown instance kind `{tok}`")))?;
                    set_once(lineno, tag, initial_hw.replace(kind).is_some())?;
                }
                "model" => {
                    let tok = parts
                        .next()
                        .ok_or_else(|| err(lineno, "expected model token".to_string()))?;
                    let model = model_from_token(tok)
                        .ok_or_else(|| err(lineno, format!("unknown model `{tok}`")))?;
                    if models.contains(&model) {
                        return Err(err(lineno, format!("repeated model `{tok}`")));
                    }
                    models.push(model);
                }
                "arrival" => {
                    let seq = num("seq")?;
                    let id = num("id")?;
                    let at = SimTime::from_micros(bounded("at_us", num("at_us")?)?);
                    let tok = parts
                        .next()
                        .ok_or_else(|| err(lineno, "expected model token".to_string()))?;
                    let model = model_from_token(tok)
                        .ok_or_else(|| err(lineno, format!("unknown model `{tok}`")))?;
                    if !models.contains(&model) {
                        return Err(err(lineno, format!("arrival for undeclared model `{tok}`")));
                    }
                    if let Some(prev) = arrivals.last() {
                        if (at, seq) <= (prev.at, prev.seq) {
                            return Err(err(
                                lineno,
                                "arrivals out of (at_us, seq) order".to_string(),
                            ));
                        }
                    }
                    arrivals.push(SampledArrival {
                        seq,
                        id: RequestId(id),
                        at,
                        model,
                    });
                }
                "end" => ended = true,
                other => return Err(err(lineno, format!("unknown record `{other}`"))),
            }
            if let Some(extra) = parts.next() {
                return Err(err(lineno, format!("trailing token `{extra}`")));
            }
        }
        if !ended {
            return Err(err(
                text.lines().count().max(1),
                "missing `end` marker (truncated file?)".to_string(),
            ));
        }
        let reserve = reserve.ok_or_else(|| err(1, "missing `reserve` header".to_string()))?;
        if let Some(bad) = arrivals.iter().find(|sa| sa.seq >= reserve) {
            return Err(err(
                1,
                format!("arrival seq {} outside reserve {}", bad.seq, reserve),
            ));
        }
        Ok(RecordedTrace {
            seed: seed.ok_or_else(|| err(1, "missing `seed` header".to_string()))?,
            duration: duration.ok_or_else(|| err(1, "missing `duration_us` header".to_string()))?,
            reserve,
            initial_hw: initial_hw
                .ok_or_else(|| err(1, "missing `initial_hw` header".to_string()))?,
            models,
            arrivals,
        })
    }

    /// End of the arrival timeline as an absolute session `trace_end`.
    pub fn trace_end(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each static token is the name's ASCII letters and digits,
    /// lower-cased, is unique, and resolves back to its model.
    #[test]
    fn model_tokens_are_unique_and_round_trip() {
        let mut seen = Vec::new();
        for m in MlModel::ALL {
            let tok = model_token(m);
            let derived: String = m
                .name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase();
            assert_eq!(tok, derived, "{m:?}");
            assert!(!seen.contains(&tok), "token collision for {m:?}: `{tok}`");
            assert_eq!(model_from_token(tok), Some(m));
            seen.push(tok);
        }
        for bad in ["", "GoogleNet", "googlenet ", "resnet", "googlenet2"] {
            assert_eq!(model_from_token(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn instance_tokens_round_trip() {
        for k in InstanceKind::ALL {
            assert_eq!(instance_from_token(&k.to_string()), Some(k));
            assert_eq!(instance_from_token(k.aws_name()), Some(k));
        }
        for bad in ["", "G3s.xlarge", "g3s", "g3s.xlarge "] {
            assert_eq!(instance_from_token(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn text_round_trips() {
        let trace = RecordedTrace {
            seed: 7,
            duration: SimDuration::from_secs(30),
            reserve: 3,
            initial_hw: InstanceKind::G3s_xlarge,
            models: vec![MlModel::GoogleNet, MlModel::ResNet50],
            arrivals: vec![
                SampledArrival {
                    seq: 0,
                    id: RequestId(1),
                    at: SimTime::from_micros(1_500),
                    model: MlModel::GoogleNet,
                },
                SampledArrival {
                    seq: 2,
                    id: RequestId(3),
                    at: SimTime::from_micros(1_500),
                    model: MlModel::ResNet50,
                },
                SampledArrival {
                    seq: 1,
                    id: RequestId(2),
                    at: SimTime::from_micros(9_000),
                    model: MlModel::GoogleNet,
                },
            ],
        };
        let text = trace.to_text();
        let parsed = RecordedTrace::parse(&text).expect("round trip parses");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parse_rejects_truncation_and_disorder() {
        let trace = RecordedTrace {
            seed: 1,
            duration: SimDuration::from_secs(1),
            reserve: 1,
            initial_hw: InstanceKind::M4_xlarge,
            models: vec![MlModel::GoogleNet],
            arrivals: vec![SampledArrival {
                seq: 0,
                id: RequestId(1),
                at: SimTime::from_micros(10),
                model: MlModel::GoogleNet,
            }],
        };
        let text = trace.to_text();
        let cut = text.trim_end_matches("end\n");
        let e = RecordedTrace::parse(cut).expect_err("truncated file rejected");
        assert!(e.message.contains("missing `end`"), "{e}");

        let disordered = text.replace(
            "arrival 0 1 10 googlenet",
            "arrival 0 1 10 googlenet\narrival 0 1 5 googlenet",
        );
        let e = RecordedTrace::parse(&disordered).expect_err("disorder rejected");
        assert!(e.message.contains("order"), "{e}");
    }

    #[test]
    fn truncated_keeps_prefix_and_tightens_reserve() {
        let trace = RecordedTrace {
            seed: 1,
            duration: SimDuration::from_secs(100),
            reserve: 10,
            initial_hw: InstanceKind::M4_xlarge,
            models: vec![MlModel::GoogleNet],
            arrivals: (0..10)
                .map(|i| SampledArrival {
                    seq: i,
                    id: RequestId(i + 1),
                    at: SimTime::from_millis(100 * (i + 1)),
                    model: MlModel::GoogleNet,
                })
                .collect(),
        };
        let cut = trace.truncated(4);
        assert_eq!(cut.arrivals.len(), 4);
        assert_eq!(cut.reserve, 4);
        assert_eq!(cut.duration, SimDuration::from_millis(1_400));
        RecordedTrace::parse(&cut.to_text()).expect("truncated trace still parses");
    }

    /// A one-arrival trace text with `duration_us`, `reserve` and `at_us`
    /// as given.
    fn text_with(duration_us: u64, reserve: u64, at_us: u64) -> String {
        format!(
            "seed 1\nduration_us {duration_us}\nreserve {reserve}\ninitial_hw m4.xlarge\n\
             model googlenet\narrival 0 1 {at_us} googlenet\nend\n"
        )
    }

    #[test]
    fn parse_accepts_the_bound_and_refuses_one_past_it() {
        let at = RecordedTrace::parse(&text_with(REPLAY_BOUND, REPLAY_BOUND, REPLAY_BOUND))
            .expect("values at the bound parse");
        assert_eq!(at.duration.as_micros(), REPLAY_BOUND);
        assert_eq!(at.reserve, REPLAY_BOUND);
        assert_eq!(at.arrivals[0].at.as_micros(), REPLAY_BOUND);
        let past = REPLAY_BOUND + 1;
        for (text, field, line) in [
            (text_with(past, 1, 10), "duration_us", 2),
            (text_with(10, past, 10), "reserve", 3),
            (text_with(10, 1, past), "at_us", 6),
            (text_with(u64::MAX, 1, 10), "duration_us", 2),
            (text_with(10, u64::MAX, 10), "reserve", 3),
        ] {
            let e = RecordedTrace::parse(&text).expect_err("past the bound");
            assert!(e.message.contains(field), "{e}");
            assert!(e.message.contains("replay bound"), "{e}");
            assert_eq!(e.line, line, "{e}");
        }
    }

    #[test]
    fn parse_refuses_trailing_tokens_and_repeats() {
        let good = text_with(10, 1, 5);
        RecordedTrace::parse(&good).expect("baseline parses");
        for (from, to, needle) in [
            ("seed 1\n", "seed 1 junk\n", "trailing token `junk`"),
            ("seed 1\n", "seed 1\nseed 2\n", "repeated `seed`"),
            (
                "reserve 1\n",
                "reserve 1\nreserve 1\n",
                "repeated `reserve`",
            ),
            (
                "initial_hw m4.xlarge\n",
                "initial_hw m4.xlarge\ninitial_hw m4.xlarge\n",
                "repeated `initial_hw`",
            ),
            (
                "model googlenet\n",
                "model googlenet\nmodel googlenet\n",
                "repeated model",
            ),
            ("end\n", "end now\n", "trailing token `now`"),
            ("5 googlenet\n", "5 googlenet x\n", "trailing token `x`"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from:?} found in the baseline");
            let e = RecordedTrace::parse(&bad).expect_err(needle);
            assert!(e.message.contains(needle), "{needle}: {e}");
        }
    }
}

//! Token-length-distribution workload cards for iteration-level
//! (continuous-batching) LLM execution.
//!
//! The request-level profile treats one request as one opaque "item"; an
//! LLM request is a *sequence*: a prompt of `prefill` tokens consumed in
//! chunked prefill iterations, then `decode` tokens produced one per
//! iteration. A [`TokenCard`] is the per-model distribution those lengths
//! are drawn from, and a [`TokenLens`] is one request's concrete draw.
//!
//! Sampling is a pure hash of `(seed, request id)` — no RNG stream — so
//! any layer (the batcher computing service hints, the device engine
//! sizing KV reservations, an experiment recomputing per-token latency
//! from a completed-request record) derives the *same* lengths for a request
//! without threading state or caring about draw order. That is what keeps
//! the iteration-level mode bit-identical across shard counts: lengths are
//! a function of identity, not of sampling history.
//!
//! KV-cache accounting is conservative (vLLM's reserve-on-admit policy):
//! a sequence reserves `prefill + decode` tokens of KV for its whole
//! residency, so `Σ kv ≤ capacity` can never be violated mid-flight by
//! decode growth.

use crate::model::MlModel;
use crate::profile::Profile;
use paldia_hw::InstanceKind;

/// Tokens of work in one profiled request-level "item": the unit that maps
/// the per-item latency table onto per-token iteration steps
/// ([`Profile::token_step_ms`]).
pub const TOKENS_PER_ITEM: u32 = 8;

/// Prompt tokens consumed per chunked-prefill iteration. A joining
/// sequence occupies `ceil(prefill / 32)` iterations before its first
/// decode step.
pub const PREFILL_TOKENS_PER_ITER: u32 = 32;

/// Per-additional-resident stretch of an iteration (batched attention and
/// KV traffic are not free): iteration time scales by
/// `1 + 0.02 · (residents − 1)`.
pub const ITER_RESIDENT_PENALTY: f64 = 0.02;

/// A token-length distribution: which (prefill, decode) lengths a model's
/// requests draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenCard {
    /// Short conversational turns: prompts 16–64 tokens, replies 8–32.
    ShortChat,
    /// Long-document workloads: prompts 128–256 tokens, outputs 48–96.
    LongDoc,
    /// 80% short exchanges (16–32 in, 4–8 out), 20% long tails
    /// (192–256 in, 64–128 out) — the bimodal shape that breaks any
    /// uniform-service-time assumption.
    Bimodal,
}

impl TokenCard {
    /// The card each language model serves under in the LLM experiments.
    /// Vision models have no token structure and also map to
    /// [`TokenCard::ShortChat`] should a caller ask.
    pub fn for_model(model: MlModel) -> TokenCard {
        match model {
            MlModel::Bert => TokenCard::LongDoc,
            MlModel::FunnelTransformer => TokenCard::Bimodal,
            _ => TokenCard::ShortChat,
        }
    }

    /// Draw the token lengths of request `req_id` under `seed`. Pure in
    /// both arguments: the same (card, seed, id) always yields the same
    /// lengths, on any shard, in any order.
    pub fn sample(self, seed: u64, req_id: u64) -> TokenLens {
        match self {
            TokenCard::ShortChat => TokenLens {
                prefill: draw(seed, req_id, 0, 16, 64),
                decode: draw(seed, req_id, 1, 8, 32),
            },
            TokenCard::LongDoc => TokenLens {
                prefill: draw(seed, req_id, 0, 128, 256),
                decode: draw(seed, req_id, 1, 48, 96),
            },
            TokenCard::Bimodal => {
                if mix(seed, req_id.wrapping_mul(4).wrapping_add(2)) % 10 < 8 {
                    TokenLens {
                        prefill: draw(seed, req_id, 0, 16, 32),
                        decode: draw(seed, req_id, 1, 4, 8),
                    }
                } else {
                    TokenLens {
                        prefill: draw(seed, req_id, 0, 192, 256),
                        decode: draw(seed, req_id, 1, 64, 128),
                    }
                }
            }
        }
    }
}

/// One request's concrete token lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenLens {
    /// Prompt tokens, consumed [`PREFILL_TOKENS_PER_ITER`] per iteration.
    pub prefill: u32,
    /// Output tokens, produced one per iteration.
    pub decode: u32,
}

impl TokenLens {
    /// Iterations the prompt occupies before the first decode step.
    pub fn prefill_iters(&self) -> u32 {
        self.prefill.div_ceil(PREFILL_TOKENS_PER_ITER).max(1)
    }

    /// Total iterations the sequence is resident: chunked prefill plus one
    /// per decode token.
    pub fn total_iters(&self) -> u32 {
        self.prefill_iters() + self.decode
    }

    /// KV-cache tokens reserved for the sequence's whole residency
    /// (conservative full reservation; see module docs).
    pub fn kv_tokens(&self) -> u64 {
        self.prefill as u64 + self.decode as u64
    }

    /// Per-request service-time hint (ms) on the reference V100 — what the
    /// batcher compares against [`Profile::uniform_service_ms`] when
    /// tightening close deadlines for longer-than-assumed requests.
    pub fn service_hint_ms(&self, model: MlModel) -> f64 {
        self.total_iters() as f64 * Profile::token_step_ms(model, InstanceKind::P3_2xlarge)
    }
}

/// Latency (ms) of one iteration on `kind` with `residents` sequences in
/// the running batch: the slowest per-sequence token step stretched by the
/// resident-count penalty.
pub fn iteration_ms(model: MlModel, kind: InstanceKind, residents: u32) -> f64 {
    let stretch = 1.0 + ITER_RESIDENT_PENALTY * residents.saturating_sub(1) as f64;
    Profile::token_step_ms(model, kind) * stretch
}

/// splitmix64-style avalanche of `(seed, lane)` — the pure source every
/// draw goes through.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi]` from the hash lane `(req_id, slot)`.
fn draw(seed: u64, req_id: u64, slot: u64, lo: u32, hi: u32) -> u32 {
    let h = mix(seed, req_id.wrapping_mul(4).wrapping_add(slot));
    lo + (h % (hi - lo + 1) as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_hw::GpuModel;

    #[test]
    fn sampling_is_pure_and_in_range() {
        for card in [TokenCard::ShortChat, TokenCard::LongDoc, TokenCard::Bimodal] {
            for id in 0..500u64 {
                let a = card.sample(42, id);
                let b = card.sample(42, id);
                assert_eq!(a, b, "{card:?}/{id}: sampling must be pure");
                assert!(a.prefill >= 16 && a.prefill <= 256, "{card:?}: {a:?}");
                assert!(a.decode >= 4 && a.decode <= 128, "{card:?}: {a:?}");
            }
        }
    }

    #[test]
    fn seeds_and_ids_change_draws() {
        let base = TokenCard::LongDoc.sample(1, 10);
        assert_ne!(base, TokenCard::LongDoc.sample(2, 10));
        assert_ne!(base, TokenCard::LongDoc.sample(1, 11));
    }

    #[test]
    fn bimodal_is_actually_bimodal() {
        let mut short = 0usize;
        let mut long = 0usize;
        for id in 0..1_000u64 {
            let l = TokenCard::Bimodal.sample(7, id);
            if l.prefill <= 32 {
                short += 1;
            } else {
                assert!(l.prefill >= 192);
                long += 1;
            }
        }
        assert!(short > 700 && short < 900, "short fraction {short}/1000");
        assert!(long > 100, "long tail {long}/1000");
    }

    #[test]
    fn token_conservation_identity() {
        let l = TokenLens {
            prefill: 65,
            decode: 10,
        };
        assert_eq!(l.prefill_iters(), 3); // ceil(65/32)
        assert_eq!(l.total_iters(), 13);
        assert_eq!(l.kv_tokens(), 75);
    }

    #[test]
    fn kv_binds_for_longdoc_fbr_for_shortchat_on_v100() {
        // Calibration: the two capacity dimensions bind on different
        // cards. LongDoc (BERT) exhausts V100 KV before its FBR slices;
        // ShortChat (ALBERT) exhausts FBR slices first.
        let kv_cap = GpuModel::V100.kv_capacity_tokens() as f64;
        let per_seq_share = |m: MlModel| {
            Profile::effective_share(m, InstanceKind::P3_2xlarge) / Profile::default_batch(m) as f64
        };
        // Mean prefill + decode of each card's uniform draw ranges.
        let by_kv = |c: TokenCard| match c {
            TokenCard::LongDoc => kv_cap / ((128.0 + 256.0) / 2.0 + (48.0 + 96.0) / 2.0),
            _ => kv_cap / ((16.0 + 64.0) / 2.0 + (8.0 + 32.0) / 2.0),
        };
        let by_share = |m: MlModel| 1.0 / per_seq_share(m);
        assert!(
            by_kv(TokenCard::LongDoc) < by_share(MlModel::Bert),
            "LongDoc: kv {} vs share {}",
            by_kv(TokenCard::LongDoc),
            by_share(MlModel::Bert)
        );
        assert!(
            by_kv(TokenCard::ShortChat) > by_share(MlModel::Albert),
            "ShortChat: kv {} vs share {}",
            by_kv(TokenCard::ShortChat),
            by_share(MlModel::Albert)
        );
    }

    #[test]
    fn iteration_time_orders_by_hardware_and_residents() {
        let v100 = iteration_ms(MlModel::Bert, InstanceKind::P3_2xlarge, 1);
        let m60 = iteration_ms(MlModel::Bert, InstanceKind::G3s_xlarge, 1);
        let cpu = iteration_ms(MlModel::Bert, InstanceKind::C6i_4xlarge, 1);
        assert!(v100 < m60 && m60 < cpu, "{v100} {m60} {cpu}");
        assert!(
            iteration_ms(MlModel::Bert, InstanceKind::P3_2xlarge, 8) > v100,
            "more residents stretch the iteration"
        );
        // A V100 serves a LongDoc sequence's full residency well inside
        // the 200 ms SLO even in a loaded batch…
        let loaded = iteration_ms(MlModel::Bert, InstanceKind::P3_2xlarge, 12);
        let mean_iters = TokenCard::LongDoc.sample(1, 1).total_iters() as f64;
        assert!(loaded * mean_iters < 200.0, "{}", loaded * mean_iters);
        // …while a CPU node cannot even finish prefill in budget.
        assert!(cpu * 10.0 > 200.0, "CPU per-token {cpu} ms");
    }

    #[test]
    fn service_hints_track_length() {
        let short = TokenLens {
            prefill: 16,
            decode: 4,
        };
        let long = TokenLens {
            prefill: 256,
            decode: 128,
        };
        assert!(
            short.service_hint_ms(MlModel::FunnelTransformer)
                < long.service_hint_ms(MlModel::FunnelTransformer)
        );
    }
}

//! Synthetic token workloads with Zipf-distributed vocabularies.
//!
//! NLP batch statistics drive everything in Vertical Sparse Scheduling:
//! duplicate/padded tokens make coalescing effective (Table 3), and
//! batch-to-batch overlap determines the prior/delayed split. Natural
//! corpora have Zipfian word frequencies, so a Zipf sampler plus a padding
//! fraction reproduces both effects; per-model exponents are calibrated in
//! [`crate::spec`].

use crate::spec::ModelSpec;
use embrace_simnet::GpuKind;
use embrace_tensor::{intersect, unique_sorted};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Token id reserved for padding (§4.2.2: "the same value will be padded").
const PAD_TOKEN: u32 = 0;

/// Inverse-CDF sampler over token ids `1..vocab` with Zipf weights
/// `P(k) ∝ 1/k^s`. The tables are shared between clones so all workers of
/// a job sample the same corpus distribution cheaply: build one sampler
/// per job and clone it into the workers.
#[derive(Clone)]
pub struct ZipfSampler {
    table: Arc<ZipfTable>,
}

/// The cumulative weights, and a guide into them: the weight axis
/// `[0, total)` cut into as many equal buckets as there are ids, `guide[b]`
/// being the first index of `cum` whose value exceeds bucket `b`'s lower
/// edge. A draw `u` then searches `cum[guide[b]..guide[b + 1]]` — one
/// entry on average — instead of the whole table, whose binary search is
/// one cache miss per level. (One bucket per id is 4 bytes per id beside
/// `cum`'s 8; at one bucket per 4 or 32 ids a batch takes 1.2× or 1.5× as
/// long to draw.)
struct ZipfTable {
    cum: Vec<f64>,
    guide: Vec<u32>,
    /// Buckets per unit of weight.
    scale: f64,
}

/// The draw [`ZipfTable::invert`] turns into [`PAD_TOKEN`]; real draws lie
/// in `[0, total)`.
const PAD_DRAW: f64 = -1.0;

impl ZipfTable {
    /// Token ids for a batch of draws: `cum.partition_point(|&c| c <= u) + 1`
    /// for each draw `u`, exactly, and PAD for [`PAD_DRAW`]. The bucket
    /// `u * scale` names is a hint — the product rounds, so `u` may sit an
    /// entry outside the hinted slice — and the slice is widened until
    /// `cum[lo - 1] <= u < cum[hi]` holds, which is all the equality needs.
    ///
    /// Two passes: every draw's guide entries, then every search. The
    /// guide reads are independent cache misses that overlap when issued
    /// back to back, instead of each waiting behind the previous draw's
    /// search branches.
    fn invert(&self, draws: &[f64]) -> Vec<u32> {
        let (cum, last) = (&self.cum[..], self.guide.len() - 2);
        let hints: Vec<(u32, u32)> = draws
            .iter()
            .map(|&u| {
                let b = ((u * self.scale) as usize).min(last);
                (self.guide[b], self.guide[b + 1])
            })
            .collect();
        let search = |u: f64, (lo, hi): (u32, u32)| {
            let (mut lo, mut hi) = (lo as usize, hi as usize);
            while lo > 0 && cum[lo - 1] > u {
                lo -= 1;
            }
            while hi < cum.len() && cum[hi] <= u {
                hi += 1;
            }
            lo + cum[lo..hi].partition_point(|&c| c <= u)
        };
        let token = |(&u, hint)| if u == PAD_DRAW { PAD_TOKEN } else { search(u, hint) as u32 + 1 };
        draws.iter().zip(hints).map(token).collect()
    }
}

impl ZipfSampler {
    pub fn new(vocab: usize, s: f64) -> Self {
        assert!(vocab >= 2, "need at least PAD + one real token");
        assert!(u32::try_from(vocab).is_ok(), "token ids are u32");
        let mut cum = Vec::with_capacity(vocab - 1);
        let mut total = 0.0;
        for k in 1..vocab {
            total += 1.0 / (k as f64).powf(s);
            cum.push(total);
        }
        let buckets = cum.len();
        let scale = buckets as f64 / total;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut first = 0;
        for b in 0..buckets {
            while first < cum.len() && cum[first] <= b as f64 / scale {
                first += 1;
            }
            guide.push(first as u32);
        }
        guide.push(cum.len() as u32);
        ZipfSampler { table: Arc::new(ZipfTable { cum, guide, scale }) }
    }

    /// One uniform draw on the weight axis `[0, total)`.
    fn draw<R: Rng>(&self, rng: &mut R) -> f64 {
        rng.gen_range(0.0..*self.table.cum.last().expect("`new` keeps one real token"))
    }

    /// Draw one token id in `1..=support`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        self.table.invert(&[self.draw(rng)])[0]
    }

    /// Draw a serving batch of `n` row ids. Duplicates are expected and
    /// intentional under the skew — deduplication, caching, and gradient
    /// coalescing all happen downstream, so a request replay must present
    /// the raw Zipf stream, never a pre-uniqued one.
    pub fn sample_batch<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<u32> {
        let draws: Vec<f64> = (0..n).map(|_| self.draw(rng)).collect();
        self.table.invert(&draws)
    }
}

/// Per-worker batch generator: an infinite stream of token batches.
#[derive(Clone)]
pub struct BatchGen {
    sampler: ZipfSampler,
    tokens_per_batch: usize,
    pad_fraction: f64,
    rng: StdRng,
}

impl BatchGen {
    pub fn new(
        sampler: ZipfSampler,
        tokens_per_batch: usize,
        pad_fraction: f64,
        seed: u64,
    ) -> Self {
        BatchGen { sampler, tokens_per_batch, pad_fraction, rng: StdRng::seed_from_u64(seed) }
    }

    /// Generator for `spec`'s workload on `gpu`, for worker `rank`.
    /// The model's embedding tables are treated as one logical table of
    /// `Σ vocab` rows; token ids index into it.
    pub fn from_spec(spec: &ModelSpec, gpu: GpuKind, rank: usize, seed: u64) -> Self {
        let vocab: usize = spec.embeddings.iter().map(|e| e.vocab).sum();
        let sampler = ZipfSampler::new(vocab, spec.zipf_s);
        BatchGen::new(
            sampler,
            spec.tokens_per_batch(gpu),
            spec.pad_fraction,
            seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    pub fn tokens_per_batch(&self) -> usize {
        self.tokens_per_batch
    }

    /// Produce the next batch: `tokens_per_batch` positions, each PAD with
    /// probability `pad_fraction`, otherwise a Zipf draw. All of the
    /// batch's draws are taken first, then inverted together.
    pub fn next_batch(&mut self) -> Vec<u32> {
        let draws: Vec<f64> = (0..self.tokens_per_batch)
            .map(|_| {
                if self.rng.gen_bool(self.pad_fraction) {
                    PAD_DRAW
                } else {
                    self.sampler.draw(&mut self.rng)
                }
            })
            .collect();
        self.sampler.table.invert(&draws)
    }
}

impl Iterator for BatchGen {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        Some(self.next_batch())
    }
}

/// Average per-worker-batch gradient statistics (the quantities of the
/// paper's Table 3), measured over a synthetic workload.
#[derive(Clone, Copy, Debug)]
pub struct GradStats {
    /// Average raw gradient rows per batch (token positions).
    pub rows_original: f64,
    /// Average rows after coalescing duplicates (unique tokens).
    pub rows_coalesced: f64,
    /// Average rows in the prior part: `unique(D_cur[rank]) ∩ D_next`.
    pub rows_prior: f64,
    /// Wire bytes per COO row.
    pub row_bytes: usize,
}

impl GradStats {
    const MIB: f64 = 1024.0 * 1024.0;

    pub fn original_mib(&self) -> f64 {
        self.rows_original * self.row_bytes as f64 / Self::MIB
    }

    pub fn coalesced_mib(&self) -> f64 {
        self.rows_coalesced * self.row_bytes as f64 / Self::MIB
    }

    pub fn prior_mib(&self) -> f64 {
        self.rows_prior * self.row_bytes as f64 / Self::MIB
    }
}

#[cfg(test)]
impl GradStats {
    /// Fraction of rows surviving coalescing.
    fn coalesce_ratio(&self) -> f64 {
        self.rows_coalesced / self.rows_original
    }

    /// Fraction of coalesced rows that are prior (needed by next batch).
    fn prior_ratio(&self) -> f64 {
        self.rows_prior / self.rows_coalesced
    }
}

/// Measure Table 3 statistics for `spec` on `gpu` with `world` workers,
/// averaged over `steps` steps. Implements exactly Algorithm 1's set
/// algebra: `Du = UNIQUE(D_cur[rank])`, `i_prior = Du ∩ D_next` where
/// `D_next` is the *gathered* (all-worker) next-iteration data.
pub fn grad_stats(
    spec: &ModelSpec,
    gpu: GpuKind,
    world: usize,
    steps: usize,
    seed: u64,
) -> GradStats {
    assert!(steps > 0 && world > 0);
    let mut gens: Vec<BatchGen> =
        (0..world).map(|r| BatchGen::from_spec(spec, gpu, r, seed)).collect();
    let mut cur: Vec<Vec<u32>> = gens.iter_mut().map(|g| g.next_batch()).collect();

    let (mut orig, mut coal, mut prior) = (0.0, 0.0, 0.0);
    for _ in 0..steps {
        let next: Vec<Vec<u32>> = gens.iter_mut().map(|g| g.next_batch()).collect();
        let next_union = unique_sorted(&next.concat());
        for batch in &cur {
            let du = unique_sorted(batch);
            orig += batch.len() as f64;
            coal += du.len() as f64;
            prior += intersect(&du, &next_union).len() as f64;
        }
        cur = next;
    }
    let denom = (steps * world) as f64;
    GradStats {
        rows_original: orig / denom,
        rows_coalesced: coal / denom,
        rows_prior: prior / denom,
        row_bytes: spec.grad_row_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelId;

    #[test]
    fn zipf_prefers_head_tokens() {
        let s = ZipfSampler::new(10_000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<u32> = (0..20_000).map(|_| s.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&t| t <= 100).count();
        let tail = draws.iter().filter(|&&t| t > 5_000).count();
        assert!(head > 10 * tail.max(1), "head {head} vs tail {tail}");
        assert!(draws.iter().all(|&t| (1..10_000).contains(&(t as usize))));
    }

    #[test]
    fn zipf_never_emits_pad() {
        let s = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert_ne!(s.sample(&mut rng), PAD_TOKEN);
        }
    }

    #[test]
    fn serving_batches_keep_duplicates_and_skew() {
        let s = ZipfSampler::new(1 << 16, 1.05);
        let mut rng = StdRng::seed_from_u64(9);
        let batch = s.sample_batch(512, &mut rng);
        assert_eq!(batch.len(), 512);
        let unique: std::collections::BTreeSet<u32> = batch.iter().copied().collect();
        assert!(unique.len() < batch.len(), "a skewed batch repeats hot rows");
        assert!(batch.iter().all(|&t| t != PAD_TOKEN));
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(batch, s.sample_batch(512, &mut rng2), "replay must be deterministic");
    }

    /// The guided lookup against the plain binary search it replaced, at
    /// every value where the two could part: each table entry and the
    /// `f64` on either side of it, zero, and the last value below the
    /// total.
    #[test]
    fn guided_lookup_equals_partition_point_at_every_edge() {
        for vocab in [2, 3, 50, 1 << 16, 262_144] {
            for s in [0.9, 1.05, 1.2] {
                let table = ZipfSampler::new(vocab, s).table;
                let total = *table.cum.last().unwrap();
                let below = |x: f64| f64::from_bits(x.to_bits() - 1);
                let above = |x: f64| f64::from_bits(x.to_bits() + 1);
                // The guide is a hint: shifted three entries either way it
                // must cost time, never the answer.
                let shifted = |by: i64| ZipfTable {
                    cum: table.cum.clone(),
                    guide: table
                        .guide
                        .iter()
                        .map(|&g| (g as i64 + by).clamp(0, table.cum.len() as i64) as u32)
                        .collect(),
                    scale: table.scale,
                };
                for table in [&*table, &shifted(-3), &shifted(3)] {
                    let edges = table.cum.iter().flat_map(|&c| [below(c), c, above(c)]);
                    let draws: Vec<f64> = edges.chain([0.0, below(total)]).collect();
                    for (&u, token) in draws.iter().zip(table.invert(&draws)) {
                        assert_eq!(
                            token as usize,
                            table.cum.partition_point(|&c| c <= u) + 1,
                            "vocab {vocab}, s {s}, u {u:e}"
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over the first 10⁵ tokens of a batch stream.
    fn stream_hash(batches: impl Iterator<Item = Vec<u32>>) -> u64 {
        let tokens = batches.flatten().take(100_000);
        tokens.fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
            (h ^ u64::from(t)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The token streams every loss curve and serving oracle is built on
    /// must not move: the trainer's and the padded stream hashed at the
    /// commit before `sample` gained its guide table (plain
    /// `partition_point` over all of `cum`), the serving replay's at the
    /// commit before draws were inverted a batch at a time.
    #[test]
    fn batch_streams_equal_the_unguided_samplers() {
        let sparse = BatchGen::new(ZipfSampler::new(262_144, 1.05), 8192, 0.0, 1);
        assert_eq!(stream_hash(sparse), 12_493_170_593_152_388_238);
        let padded = BatchGen::new(ZipfSampler::new(50_000, 1.2), 1000, 0.25, 0xE5B_2ACE);
        assert_eq!(stream_hash(padded), 17_076_571_238_767_546_904);
        let serving = ZipfSampler::new(1 << 20, 1.05);
        let mut rng = StdRng::seed_from_u64(7);
        let batches = std::iter::repeat_with(|| serving.sample_batch(512, &mut rng));
        assert_eq!(stream_hash(batches), 7_978_347_265_427_950_448);
    }

    #[test]
    fn batches_are_deterministic_per_seed() {
        let spec = ModelSpec::get(ModelId::Gnmt8);
        let mut a = BatchGen::from_spec(&spec, GpuKind::Rtx3090, 0, 42);
        let mut b = BatchGen::from_spec(&spec, GpuKind::Rtx3090, 0, 42);
        assert_eq!(a.next_batch(), b.next_batch());
        let mut c = BatchGen::from_spec(&spec, GpuKind::Rtx3090, 1, 42);
        assert_ne!(a.next_batch(), c.next_batch(), "ranks see different data shards");
    }

    #[test]
    fn batch_size_matches_spec() {
        let spec = ModelSpec::get(ModelId::BertBase);
        let mut g = BatchGen::from_spec(&spec, GpuKind::Rtx2080, 0, 7);
        assert_eq!(g.next_batch().len(), spec.tokens_per_batch(GpuKind::Rtx2080));
    }

    #[test]
    fn pad_fraction_realised() {
        let s = ZipfSampler::new(1000, 1.0);
        let mut g = BatchGen::new(s, 50_000, 0.3, 3);
        let batch = g.next_batch();
        let pads = batch.iter().filter(|&&t| t == PAD_TOKEN).count() as f64;
        let frac = pads / batch.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "pad fraction {frac}");
    }

    #[test]
    fn stats_are_internally_consistent() {
        let spec = ModelSpec::get(ModelId::Gnmt8);
        let st = grad_stats(&spec, GpuKind::Rtx3090, 4, 5, 11);
        assert!(st.rows_coalesced <= st.rows_original);
        assert!(st.rows_prior <= st.rows_coalesced);
        assert!(st.rows_prior > 0.0);
        assert!(st.original_mib() > st.coalesced_mib());
        assert!(st.coalesced_mib() > st.prior_mib());
        assert!((st.rows_original - spec.tokens_per_batch(GpuKind::Rtx3090) as f64).abs() < 1.0);
    }

    #[test]
    fn coalescing_shrinks_more_for_bert() {
        // The paper's Table 3 ordering: BERT coalesces hardest (84.7%
        // reduction), LM least (20.4%).
        let lm = grad_stats(&ModelSpec::get(ModelId::Lm), GpuKind::Rtx3090, 4, 3, 5);
        let bert = grad_stats(&ModelSpec::get(ModelId::BertBase), GpuKind::Rtx3090, 4, 3, 5);
        assert!(bert.coalesce_ratio() < lm.coalesce_ratio());
    }
}

#[cfg(test)]
mod calibration_probe {
    use super::*;
    use crate::spec::ModelId;

    /// Not an assertion — prints measured Table 3 ratios for tuning.
    /// Run with: cargo test -p embrace-models probe -- --ignored --nocapture
    #[test]
    #[ignore]
    fn probe_table3() {
        for id in ModelId::ALL {
            let spec = ModelSpec::get(id);
            let st = grad_stats(&spec, GpuKind::Rtx3090, 8, 10, 42);
            println!(
                "{:<12} orig {:6.1} MiB  coal {:6.1} MiB ({:.3})  prior {:6.1} MiB ({:.3})",
                spec.name,
                st.original_mib(),
                st.coalesced_mib(),
                st.coalesce_ratio(),
                st.prior_mib(),
                st.prior_ratio()
            );
        }
    }
}

#[cfg(test)]
mod table3_calibration {
    use super::*;
    use crate::spec::ModelId;

    /// The synthetic workloads must reproduce the paper's Table 3 gradient
    /// shrinkage: coalesce ratio within ±0.08 absolute, prior ratio within
    /// ±0.15 (the prior split is the noisier statistic; measured values
    /// are recorded in EXPERIMENTS.md).
    #[test]
    fn ratios_track_paper_table3() {
        let targets = [
            (ModelId::Lm, 6.9 / 8.7, 2.6 / 6.9),
            (ModelId::Gnmt8, 12.2 / 26.0, 5.8 / 12.2),
            (ModelId::Transformer, 16.6 / 35.2, 8.9 / 16.6),
            (ModelId::BertBase, 5.5 / 36.0, 3.2 / 5.5),
        ];
        for (id, coal_t, prior_t) in targets {
            let spec = ModelSpec::get(id);
            let st = grad_stats(&spec, GpuKind::Rtx3090, 8, 6, 42);
            assert!(
                (st.coalesce_ratio() - coal_t).abs() < 0.08,
                "{}: coalesce {:.3} vs paper {:.3}",
                spec.name,
                st.coalesce_ratio(),
                coal_t
            );
            assert!(
                (st.prior_ratio() - prior_t).abs() < 0.15,
                "{}: prior {:.3} vs paper {:.3}",
                spec.name,
                st.prior_ratio(),
                prior_t
            );
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::spec::ModelId;

    #[test]
    fn grad_stats_deterministic_for_seed() {
        let spec = ModelSpec::get(ModelId::BertBase);
        let a = grad_stats(&spec, GpuKind::Rtx3090, 4, 3, 9);
        let b = grad_stats(&spec, GpuKind::Rtx3090, 4, 3, 9);
        assert_eq!(a.rows_original, b.rows_original);
        assert_eq!(a.rows_coalesced, b.rows_coalesced);
        assert_eq!(a.rows_prior, b.rows_prior);
    }

    #[test]
    fn prior_rows_grow_with_world() {
        // D_next is gathered over all workers: more workers, more of this
        // worker's tokens reappear somewhere next step.
        let spec = ModelSpec::get(ModelId::Gnmt8);
        let small = grad_stats(&spec, GpuKind::Rtx3090, 2, 4, 5);
        let large = grad_stats(&spec, GpuKind::Rtx3090, 12, 4, 5);
        assert!(
            large.rows_prior > small.rows_prior,
            "world 12 prior {} vs world 2 prior {}",
            large.rows_prior,
            small.rows_prior
        );
        // Coalescing is world-independent (per-batch statistic).
        assert!((large.rows_coalesced - small.rows_coalesced).abs() / small.rows_coalesced < 0.05);
    }

    #[test]
    fn smaller_batches_coalesce_less() {
        // Fewer draws over the same vocabulary → fewer collisions →
        // higher surviving fraction.
        let spec = ModelSpec::get(ModelId::Transformer);
        let big = grad_stats(&spec, GpuKind::Rtx3090, 4, 3, 5); // 8994 tokens
        let small = grad_stats(&spec, GpuKind::Rtx2080, 4, 3, 5); // 878 tokens
        assert!(small.coalesce_ratio() > big.coalesce_ratio());
    }
}

//! The serving workloads: `serve_read` and `serve_mixed`.
//!
//! Two ranks each hold one shard of an `EmbeddingService` (2²⁰ × 16,
//! range-partitioned, Adagrad, 2048-row hot cache, AlltoAllv push) and
//! replay a pool of Zipf id batches generated from the seed. A round
//! replays the same batches from the start of the pool, so after the
//! warm-up round every round does identical work and the per-step
//! counters repeat exactly. Load is closed-loop: a rank issues its next
//! collective call when the previous one returned.
//!
//! The checked warm-up round hashes every row it is handed; the hashes
//! must equal those of a serial single-shard oracle replay (the init
//! function, then all ranks' pushes in rank order through
//! `RowOptimizer`).

use crate::report::Report;
use crate::run::{guarded, put_latency, Round, Workload, WORLD};
use crate::trace::StepProfile;
use crate::train::ZIPF_S;
use embrace_collectives::{run_group, Endpoint};
use embrace_models::ZipfSampler;
use embrace_obs::{recorder, Metrics, SpanSet};
use embrace_ps::{
    EmbeddingService, OptimizerKind, PartitionPolicy, PsError, PushTransport, RowOptimizer,
    ServiceConfig,
};
use embrace_tensor::{alloc_counter, coalesce, DenseTensor, RowSparse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

const VOCAB: usize = 1 << 20;
const DIM: usize = 16;
/// Ids per lookup, trainer and inference alike.
pub const BATCH: usize = 512;
/// Inference lookups after each trainer step of `serve_mixed`.
const INFER_PER_STEP: usize = 2;
const OPTIMIZER: OptimizerKind = OptimizerKind::Adagrad { lr: 0.05 };

pub const READ_STEPS: usize = 2000;
pub const MIXED_STEPS: usize = 400;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        vocab: VOCAB,
        dim: DIM,
        policy: PartitionPolicy::Range,
        optimizer: OPTIMIZER,
        cache_rows: 2048,
        push: PushTransport::Alltoallv,
    }
}

/// What a step does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// One `try_lookup` per rank: the cache is never invalidated.
    Read,
    /// Trainer `try_lookup` + `try_push` of that batch's gradient, then
    /// two inference `try_lookup`s from an independent stream: every
    /// push invalidates the cache.
    Mixed,
}

/// Initial value of `(row, column)`, shifted by the seed. Cheap enough
/// to materialise million-row shards, never zero across a whole row.
fn init_value(seed: u64) -> impl Fn(u32, usize) -> f32 + Sync {
    let shift = (seed % 1024) as u32;
    move |row, col| (row.wrapping_mul(31).wrapping_add(col as u32 + shift) % 1024) as f32 * 1e-3
}

/// The gradient a trainer pushes for the rows it just looked up: depends
/// on every looked-up bit (so a wrong row changes all that follows) and
/// stays in [0.01, 0.02), so Adagrad never walks into denormals however
/// many rounds a run lasts.
fn grad_of(rows: &DenseTensor) -> DenseTensor {
    let g = rows.as_slice().iter().map(|v| 0.01 + 0.01 * v.fract().abs()).collect();
    DenseTensor::from_vec(rows.rows(), rows.cols(), g)
}

/// FNV-1a over the bit patterns of a row block: equal hashes stand for
/// bitwise-equal rows without keeping 130 MB of looked-up rows around.
fn hash_rows(rows: &DenseTensor) -> u64 {
    rows.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One rank's id batches for a round.
struct RankPool {
    train: Vec<Vec<u32>>,
    /// `INFER_PER_STEP` batches per step; empty for [`Mix::Read`].
    infer: Vec<Vec<u32>>,
}

fn make_pools(mix: Mix, seed: u64, steps: usize) -> Vec<RankPool> {
    let sampler = ZipfSampler::new(VOCAB, ZIPF_S);
    (0..WORLD)
        .map(|rank| {
            let stream = |tag: u64, n: usize| -> Vec<Vec<u32>> {
                let mix = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (tag << 56);
                let mut rng = StdRng::seed_from_u64(seed ^ mix);
                (0..n).map(|_| sampler.sample_batch(BATCH, &mut rng)).collect()
            };
            RankPool {
                train: stream(1, steps),
                infer: match mix {
                    Mix::Read => Vec::new(),
                    Mix::Mixed => stream(2, steps * INFER_PER_STEP),
                },
            }
        })
        .collect()
}

/// Counters of one rank over one round, all from what the product
/// already exports.
#[derive(Clone, Copy, Default)]
struct Counters {
    msgs: u64,
    bytes: u64,
    copied_bytes: u64,
    control_msgs: u64,
    recv_retries: u64,
    alloc_events: u64,
    alloc_bytes: u64,
    lookups: u64,
    rows_served: u64,
    rows_fetched: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.copied_bytes += o.copied_bytes;
        self.control_msgs += o.control_msgs;
        self.recv_retries += o.recv_retries;
        self.alloc_events += o.alloc_events;
        self.alloc_bytes += o.alloc_bytes;
        self.lookups += o.lookups;
        self.rows_served += o.rows_served;
        self.rows_fetched += o.rows_fetched;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

/// The service's lifetime counters, for a before/after difference.
fn service_counters(svc: &EmbeddingService) -> Metrics {
    let mut m = Metrics::new();
    svc.export_metrics(&mut m);
    m
}

/// What one rank brings back from a round.
struct RankOut {
    step_ms: Vec<f64>,
    /// Service calls made, and the typed error that stopped the round.
    calls: u64,
    error: Option<PsError>,
    /// One hash per lookup, in call order (checked rounds only).
    hashes: Vec<u64>,
    spans: Option<SpanSet>,
    counters: Counters,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Checked,
    Traced,
}

/// One counted `try_lookup`, hashed when the round is a checked one.
fn checked_lookup(
    svc: &mut EmbeddingService,
    ep: &mut Endpoint,
    ids: &[u32],
    mode: Mode,
    out: &mut RankOut,
) -> Result<DenseTensor, PsError> {
    out.calls += 1;
    let rows = svc.try_lookup(ep, ids)?;
    if mode == Mode::Checked {
        out.hashes.push(hash_rows(&rows));
    }
    Ok(rows)
}

pub struct ServeWorkload {
    mix: Mix,
    seed: u64,
    steps: usize,
    pools: Vec<RankPool>,
    services: Vec<Mutex<EmbeddingService>>,
    /// Rank 0's hashes of the last checked round.
    reference: Vec<u64>,
    /// Slowest rank's `EmbeddingService::new`.
    service_new_ms: f64,
    /// Counters of all ranks, summed over the traced rounds.
    traced: Counters,
    traced_steps: u64,
}

impl ServeWorkload {
    pub fn new(mix: Mix, seed: u64, steps: usize) -> Self {
        ServeWorkload {
            mix,
            seed,
            steps,
            pools: Vec::new(),
            services: Vec::new(),
            reference: Vec::new(),
            service_new_ms: 0.0,
            traced: Counters::default(),
            traced_steps: 0,
        }
    }

    fn calls_per_step(&self) -> usize {
        match self.mix {
            Mix::Read => 1,
            Mix::Mixed => 2 + INFER_PER_STEP,
        }
    }

    fn lookups_per_step(&self) -> usize {
        match self.mix {
            Mix::Read => 1,
            Mix::Mixed => 1 + INFER_PER_STEP,
        }
    }

    /// One rank's side of a round.
    fn rank_round(&self, rank: usize, ep: &mut Endpoint, mode: Mode) -> RankOut {
        let mut svc = self.services[rank].lock().expect("no rank panicked holding its service");
        let pool = &self.pools[rank];
        let before = service_counters(&svc);
        alloc_counter::reset();
        if mode == Mode::Traced {
            recorder::install(&format!("rank{rank}"));
        }
        let mut out = RankOut {
            step_ms: Vec::with_capacity(self.steps),
            calls: 0,
            error: None,
            hashes: Vec::new(),
            spans: None,
            counters: Counters::default(),
        };
        for step in 0..self.steps {
            let t = Instant::now();
            let span = recorder::span("step", "step");
            let done = self.step(&mut svc, ep, pool, step, mode, &mut out);
            drop(span);
            if let Err(e) = done {
                out.error = Some(e);
                break;
            }
            out.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.spans = recorder::take();
        let after = service_counters(&svc);
        let delta = |name: &str| after.counter(name) - before.counter(name);
        out.counters = Counters {
            msgs: ep.msgs_sent(),
            bytes: ep.bytes_sent(),
            copied_bytes: ep.bytes_copied(),
            control_msgs: ep.control_msgs(),
            recv_retries: ep.recv_retries(),
            alloc_events: alloc_counter::events(),
            alloc_bytes: alloc_counter::bytes(),
            lookups: delta("ps.lookup.batches"),
            rows_served: delta("ps.lookup.rows_served"),
            rows_fetched: delta("ps.lookup.rows_fetched"),
            cache_hits: delta("ps.cache.hits"),
            cache_misses: delta("ps.cache.misses"),
        };
        out
    }

    fn step(
        &self,
        svc: &mut EmbeddingService,
        ep: &mut Endpoint,
        pool: &RankPool,
        step: usize,
        mode: Mode,
        out: &mut RankOut,
    ) -> Result<(), PsError> {
        let ids = &pool.train[step];
        let rows = checked_lookup(svc, ep, ids, mode, out)?;
        if self.mix == Mix::Mixed {
            let grad = RowSparse::new(ids.clone(), grad_of(&rows));
            out.calls += 1;
            svc.try_push(ep, &grad)?;
            for k in 0..INFER_PER_STEP {
                checked_lookup(svc, ep, &pool.infer[step * INFER_PER_STEP + k], mode, out)?;
            }
        }
        Ok(())
    }

    /// Run one round on all ranks; counts its calls and failures.
    fn run(&self, mode: Mode, report: &mut Report) -> (Round, Vec<RankOut>) {
        let t = Instant::now();
        let outs = guarded(|| run_group(WORLD, |rank, ep| self.rank_round(rank, ep, mode)));
        let wall_s = t.elapsed().as_secs_f64();
        let expected = (WORLD * self.steps * self.calls_per_step()) as u64;
        report.attempted += expected;
        match outs {
            Ok(outs) => {
                for (rank, o) in outs.iter().enumerate() {
                    if let Some(e) = &o.error {
                        // The group is poisoned: the calls not made fail too.
                        report.failed += expected / WORLD as u64 - o.calls + 1;
                        report.problems.push(format!("rank {rank}: {e}"));
                    }
                }
                let step_ms = outs[0].step_ms.clone();
                (Round { wall_s, step_ms }, outs)
            }
            Err(why) => {
                report.failed += expected;
                report.problems.push(format!("serving round panicked: {why}"));
                (Round { wall_s, step_ms: Vec::new() }, Vec::new())
            }
        }
    }

    /// Serial single-shard replay of one round from the initial table:
    /// the hash of every lookup, per rank, in call order. Only rows the
    /// round touches are materialised.
    fn oracle_hashes(&self) -> Vec<Vec<u64>> {
        let init = init_value(self.seed);
        let mut index: HashMap<u32, usize> = HashMap::new();
        for pool in &self.pools {
            for &id in pool.train.iter().chain(&pool.infer).flatten() {
                let next = index.len();
                index.entry(id).or_insert(next);
            }
        }
        let mut table = DenseTensor::zeros(index.len(), DIM);
        for (&id, &at) in &index {
            for (c, v) in table.row_mut(at).iter_mut().enumerate() {
                *v = init(id, c);
            }
        }
        let mut opt = RowOptimizer::new(OPTIMIZER, index.len(), DIM);
        let gather = |table: &DenseTensor, ids: &[u32]| {
            let at: Vec<u32> = ids.iter().map(|id| index[id] as u32).collect();
            table.gather_rows(&at)
        };
        let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); WORLD];
        for step in 0..self.steps {
            // Every lookup of a step is a collective, so all ranks read
            // the table between the same two pushes.
            let looked: Vec<DenseTensor> =
                self.pools.iter().map(|p| gather(&table, &p.train[step])).collect();
            for (rank, rows) in looked.iter().enumerate() {
                hashes[rank].push(hash_rows(rows));
            }
            if self.mix == Mix::Mixed {
                let grads: Vec<RowSparse> = self
                    .pools
                    .iter()
                    .zip(&looked)
                    .map(|(p, rows)| RowSparse::new(p.train[step].clone(), grad_of(rows)))
                    .collect();
                let summed = coalesce(&RowSparse::concat(&grads));
                for (i, id) in summed.indices().iter().enumerate() {
                    let at = index[id];
                    opt.update_row(at, table.row_mut(at), summed.values().row(i));
                }
                for (rank, pool) in self.pools.iter().enumerate() {
                    for k in 0..INFER_PER_STEP {
                        let ids = &pool.infer[step * INFER_PER_STEP + k];
                        hashes[rank].push(hash_rows(&gather(&table, ids)));
                    }
                }
            }
        }
        hashes
    }
}

impl Workload for ServeWorkload {
    fn set_up(&mut self, report: &mut Report) {
        self.pools = make_pools(self.mix, self.seed, self.steps);
        let cfg = service_config();
        let init = init_value(self.seed);
        let built = guarded(|| {
            run_group(WORLD, |rank, _ep| {
                let t = Instant::now();
                let svc = EmbeddingService::new(rank, WORLD, &cfg, &init);
                (svc, t.elapsed().as_secs_f64() * 1e3)
            })
        });
        report.check(built.is_ok(), || "EmbeddingService::new panicked".to_string());
        let Ok(built) = built else { return };
        self.service_new_ms = built.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
        self.services = built.into_iter().map(|(svc, _)| Mutex::new(svc)).collect();

        let (_, outs) = self.run(Mode::Checked, report);
        if outs.is_empty() || outs.iter().any(|o| o.error.is_some()) {
            return;
        }
        let oracle = self.oracle_hashes();
        for (rank, o) in outs.iter().enumerate() {
            let wrong = o.hashes.iter().zip(&oracle[rank]).filter(|(a, b)| a != b).count()
                + o.hashes.len().abs_diff(oracle[rank].len());
            report.check(wrong == 0, || {
                format!("rank {rank}: {wrong} lookups differ from the single-shard oracle")
            });
        }
        self.reference = outs.into_iter().next().map(|o| o.hashes).unwrap_or_default();
    }

    fn round(&mut self, report: &mut Report) -> Round {
        self.run(Mode::Plain, report).0
    }

    fn traced_round(&mut self, report: &mut Report) -> (Round, Vec<SpanSet>) {
        let (round, outs) = self.run(Mode::Traced, report);
        for o in &outs {
            self.traced.add(&o.counters);
        }
        self.traced_steps += self.steps as u64;
        (round, outs.into_iter().filter_map(|o| o.spans).collect())
    }

    /// After the last round both ranks look up the same batch: the rows
    /// must be finite and agree across ranks (a stale cached row would
    /// not), and on `serve_read`, where nothing ever changes the table,
    /// equal the oracle's from the warm-up round.
    fn final_check(&mut self, report: &mut Report) {
        let ids = &self.pools[0].train[0];
        let rows = guarded(|| {
            run_group(WORLD, |rank, ep| {
                let mut svc = self.services[rank].lock().expect("service lock");
                svc.try_lookup(ep, ids)
            })
        });
        report.attempted += WORLD as u64;
        let rows: Vec<DenseTensor> = match rows.map(|r| r.into_iter().collect::<Result<_, _>>()) {
            Ok(Ok(rows)) => rows,
            Ok(Err(e)) => {
                report.failed += WORLD as u64;
                report.problems.push(format!("final lookup: {e}"));
                return;
            }
            Err(why) => {
                report.failed += WORLD as u64;
                report.problems.push(format!("final lookup panicked: {why}"));
                return;
            }
        };
        let hashes: Vec<u64> = rows.iter().map(hash_rows).collect();
        report.check(
            hashes.windows(2).all(|w| w[0] == w[1])
                && rows[0].as_slice().iter().all(|v| v.is_finite()),
            || "final lookup: ranks disagree on the same rows, or a value is not finite".into(),
        );
        if self.mix == Mix::Read {
            report.check(self.reference.first() == Some(&hashes[0]), || {
                "final lookup differs from the oracle-checked warm-up round".to_string()
            });
        }
    }

    fn steps_per_round(&self) -> usize {
        self.steps
    }

    fn tokens_per_round(&self) -> usize {
        WORLD * self.steps * self.lookups_per_step() * BATCH
    }

    fn step_span_cat(&self) -> &'static str {
        "step"
    }

    fn layer_metrics(&mut self, profile: &StepProfile, report: &mut Report) {
        let none = Vec::new();
        let of = |name: &str| profile.by_name.get(name).unwrap_or(&none);
        put_latency(report, "ps.lookup_us", of("ps_lookup"));
        // `serve_read` never pushes; its push latency is not a number.
        // `serve_mixed` is every trainer workload's partner, so a traced
        // run of any other workload still emits these.
        put_latency(report, "ps.push_us", of("ps_push"));
        let c = &self.traced;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.put_value("ps.cache_hit_rate", ratio(c.cache_hits, c.cache_hits + c.cache_misses));
        report.put_value("ps.wire_savings", 1.0 - ratio(c.rows_fetched, c.rows_served));
        report.put_value("ps.rows_fetched_per_lookup", ratio(c.rows_fetched, c.lookups));
        report.put_value("ps.service_new_ms", self.service_new_ms);
        let per_step = |v: u64| ratio(v, self.traced_steps);
        report.put_value("tensor.alloc_events_per_step", per_step(c.alloc_events));
        report.put_value("tensor.alloc_bytes_per_step", per_step(c.alloc_bytes));
        report.put_value("transport.msgs_per_step", per_step(c.msgs));
        report.put_value("transport.bytes_per_step", per_step(c.bytes));
        report.put_value("transport.copied_bytes_per_step", per_step(c.copied_bytes));
        report.put_value("transport.control_msgs_per_step", per_step(c.control_msgs));
        report.put_value("transport.recv_retries", c.recv_retries as f64);
    }
}

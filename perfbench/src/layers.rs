//! The traced run's per-layer figures: each one times a call into one
//! layer's public functions, made from here on the workload's own
//! records, or reads a counter the server keeps. Where the program
//! reports the same stage itself (EXPLAIN profile stages,
//! `PipelineStats`), that figure is recorded beside it under
//! `program.*`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use topk_cluster::{greedy_embedding, segment_topk, PairScorer, PairScores, SegmentConfig};
use topk_core::bounds::prune_groups_fast_par;
use topk_core::{estimate_lower_bound, IncrementalDedup, Parallelism, TopKRankQuery};
use topk_predicates::{collapse_par, collapse_partition_key};
use topk_records::TokenizedRecord;
use topk_service::journal::Row as JournalRow;
use topk_service::{Client, Engine, EngineConfig, JournalSet, Json, Server, ShardRouter};

use crate::batch;
use crate::checks::{FIELD, MAX_DF, MIN_OVERLAP};
use crate::corpus::{self, Row};
use crate::live::{RoundInputs, Scratch, BENCH_SLO_P99_MICROS, EPSILON};
use crate::util::{median, ms, us};

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("text.tokenize_us_per_record", "us"),
    ("service.parse_us", "us"),
    ("service.dispatch_cached_us", "us"),
    ("service.wire_us", "us"),
    ("service.ingest_us_per_batch", "us"),
    ("service.journal_append_us_per_batch", "us"),
    ("service.journal_bytes_per_record", "bytes"),
    ("service.replay_ms", "ms"),
    ("service.query_engine_ms", "ms"),
    ("service.topr_engine_ms", "ms"),
    ("service.topr_gather_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.flushes", "count"),
    ("service.shard_skips", "count"),
    ("service.memory_bytes_per_record", "bytes"),
    ("service.brownout_entries", "count"),
    ("service.degraded_queries", "count"),
    ("service.admission_sheds", "count"),
    ("core.incremental_insert_us_per_burst", "us"),
    ("core.incremental_groups_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.groups_after_collapse", "count"),
    ("core.groups_after_prune", "count"),
    ("core.prune_kept_ratio", "ratio"),
    ("core.rank_certify_ms", "ms"),
    ("predicates.collapse_ms", "ms"),
    ("graph.lower_bound_us", "us"),
    ("cluster.score_ms", "ms"),
    ("cluster.embed_ms", "ms"),
    ("cluster.segment_ms", "ms"),
    ("approx.sample_ms", "ms"),
    ("approx.estimate_ms", "ms"),
    ("approx.escalated_partitions", "count"),
    ("program.flush_ms", "ms"),
    ("program.build_views_ms", "ms"),
    ("program.merge_ms", "ms"),
    ("program.gather_ms", "ms"),
    ("program.rank_query_ms", "ms"),
    ("program.pipeline_collapse_ms", "ms"),
    ("program.pipeline_bound_us", "us"),
    ("program.pipeline_prune_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Largest pruned set the clustering probe scores densely, as the
/// count query does below its sparse threshold.
const DENSE_LIMIT: usize = 2_000;
/// Repetitions of the microsecond-scale probes.
const MICRO_REPS: usize = 200;

/// Per-layer samples, reported as medians.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Record the EXPLAIN stages of an exact answer computed by the
    /// engine (cache hits and approximate answers carry none of these).
    pub fn profile(&mut self, body: &Json) {
        if body.get("epsilon").is_some() {
            return;
        }
        let Some(stages) = body
            .get("profile")
            .and_then(|p| p.get("stages"))
            .and_then(Json::as_arr)
        else {
            return;
        };
        for s in stages {
            let (Some(name), Some(micros)) = (
                s.get("stage").and_then(Json::as_str),
                s.get("micros").and_then(Json::as_f64),
            ) else {
                continue;
            };
            if matches!(
                name,
                "flush" | "build_views" | "merge" | "gather" | "rank_query"
            ) {
                self.add(&format!("program.{name}_ms"), micros / 1e3);
            }
        }
    }

    /// Every per-layer metric; one that no probe produced reads 0.
    pub fn figures(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = self.samples.get(name).map_or(0.0, |s| median(s));
                (name, v, unit)
            })
            .collect()
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

fn counter(stats: &Json, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Server counters read at the end of the measured round.
pub fn server_counters(layers: &mut Layers, stats: &Json) {
    let hits = counter(stats, "cache_hits");
    let misses = counter(stats, "cache_misses");
    layers.add("service.cache_hits", hits);
    layers.add("service.cache_misses", misses);
    layers.add("service.cache_hit_ratio", hits / (hits + misses).max(1.0));
    for name in [
        "flushes",
        "shard_skips",
        "brownout_entries",
        "degraded_queries",
        "admission_sheds",
    ] {
        layers.add(&format!("service.{name}"), counter(stats, name));
    }
    let records = stats.get("records").and_then(Json::as_f64).unwrap_or(0.0);
    let bytes = stats
        .get("memory_bytes")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    layers.add("service.memory_bytes_per_record", bytes / records.max(1.0));
}

/// Run every probe over a round's records.
pub fn probe(inputs: &RoundInputs, layers: &mut Layers) -> Result<(), String> {
    let all: Vec<Row> = inputs.acked.iter().chain(&inputs.burst).cloned().collect();
    probe_text(&inputs.acked, layers);
    let scratch = Scratch::new("probe")?;
    probe_service(inputs, &scratch, layers)?;
    probe_core(inputs, &all, layers);
    probe_approx(&all, inputs.k, layers);
    Ok(())
}

fn probe_text(rows: &[Row], layers: &mut Layers) {
    for _ in 0..3 {
        let (toks, d) = time(|| corpus::tokenize(rows));
        std::hint::black_box(toks);
        layers.add("text.tokenize_us_per_record", us(d) / rows.len() as f64);
    }
}

fn probe_service(
    inputs: &RoundInputs,
    scratch: &Scratch,
    layers: &mut Layers,
) -> Result<(), String> {
    let (k, shards) = (inputs.k, inputs.shards);
    let config = EngineConfig {
        shards,
        slo_p99_micros: BENCH_SLO_P99_MICROS,
        ..Default::default()
    };

    // Journal: append the stream batch by batch, fanned out by shard as
    // the engine fans it, then reopen and replay it.
    let base = scratch.0.join("journal");
    let router = ShardRouter::new(shards);
    {
        let (set, _) = JournalSet::open(&base, shards)?;
        let mut rid = 0u64;
        for chunk in inputs.acked.chunks(inputs.batch) {
            let toks = corpus::tokenize(chunk);
            let mut per: Vec<Vec<JournalRow>> = vec![Vec::new(); shards];
            for ((fields, w), t) in chunk.iter().zip(&toks) {
                per[router.route(&t.field(FIELD).text)].push((rid, fields.clone(), *w));
                rid += 1;
            }
            let (r, d) = time(|| set.append_sharded(&per));
            r?;
            layers.add("service.journal_append_us_per_batch", us(d));
        }
        layers.add(
            "service.journal_bytes_per_record",
            set.len_bytes() as f64 / inputs.acked.len() as f64,
        );
    }
    let (replayed, d) = time(|| -> Result<Engine, String> {
        let (set, recovery) = JournalSet::open(&base, shards)?;
        let mut engine = Engine::new(config.clone())?;
        engine.attach_journal(set);
        engine.replay_rows(recovery)?;
        Ok(engine)
    });
    drop(replayed?);
    layers.add("service.replay_ms", ms(d));

    // In-process engine: ingest, post-write queries, cached dispatch.
    let engine = Arc::new(Engine::new(config)?);
    for chunk in inputs.acked.chunks(inputs.batch) {
        let (r, d) = time(|| engine.ingest(chunk.to_vec()));
        r?;
        layers.add("service.ingest_us_per_batch", us(d));
    }
    engine.query_topk(k)?;
    for b in 0..5 {
        let burst: Vec<Row> = inputs.burst.iter().skip(b % 2).cloned().collect();
        engine.ingest(burst)?;
        let (r, d) = time(|| engine.query_with(false, k, None, false, None));
        r?;
        layers.add("service.query_engine_ms", ms(d));
    }
    let line = format!("{{\"cmd\":\"topk\",\"k\":{k}}}");
    for _ in 0..MICRO_REPS {
        let (r, d) = time(|| topk_service::parse_request_meta(&line));
        r.map_err(|e| e.message)?;
        layers.add("service.parse_us", us(d));
    }
    let mut dispatch = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let ((response, _), d) = time(|| topk_service::server::dispatch(&line, &engine));
        if !response.contains("\"ok\":true") {
            return Err(format!("cached dispatch failed: {response}"));
        }
        dispatch.push(us(d));
        layers.add("service.dispatch_cached_us", us(d));
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine))?;
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(&addr.to_string())?;
    let mut wire = Vec::with_capacity(MICRO_REPS);
    for _ in 0..MICRO_REPS {
        let (r, d) = time(|| client.topk(k));
        r?;
        wire.push(us(d));
    }
    layers.add("service.wire_us", median(&wire) - median(&dispatch));
    client.shutdown()?;
    handle
        .join()
        .map_err(|_| "probe server panicked".to_string())??;
    if inputs.stats == Json::Null {
        server_counters(layers, &engine.stats_json());
    }

    // Served TopR against the rank query on the same records; the
    // engine's own EXPLAIN stages of a post-write TopK and of this TopR
    // go beside the outside timings.
    engine.ingest(inputs.burst.iter().skip(1).cloned().collect())?;
    layers.profile(&engine.query_topk_explained(k)?);
    engine.ingest(inputs.burst.clone())?;
    let (r, d_engine) = time(|| engine.query_with(true, k, None, true, None));
    layers.profile(&r?);
    let toks = corpus::tokenize(
        &inputs
            .acked
            .iter()
            .chain(&inputs.burst)
            .cloned()
            .collect::<Vec<_>>(),
    );
    let stack = topk_service::generic_stack(&toks, FIELD, MAX_DF, MIN_OVERLAP);
    let mut q = TopKRankQuery::new(k);
    q.parallelism = Parallelism::auto();
    let (res, d_rank) = time(|| q.run(&toks, &stack));
    layers.add("service.topr_engine_ms", ms(d_engine));
    layers.add("service.topr_gather_ms", ms(d_engine) - ms(d_rank));
    layers.add(
        "core.rank_certify_ms",
        ms(d_rank) - ms(res.stats.total_time),
    );
    if let Some(it) = res.stats.iterations.first() {
        layers.add("predicates.collapse_ms", ms(it.collapse_time));
        layers.add("graph.lower_bound_us", us(it.bound_time));
        layers.add("program.pipeline_collapse_ms", ms(it.collapse_time));
        layers.add("program.pipeline_bound_us", us(it.bound_time));
        layers.add("program.pipeline_prune_ms", ms(it.prune_time));
    }
    Ok(())
}

fn probe_core(inputs: &RoundInputs, all: &[Row], layers: &mut Layers) {
    let toks = corpus::tokenize(&inputs.acked);
    let stack = topk_service::generic_stack(&toks, FIELD, MAX_DF, MIN_OVERLAP);
    let s_pred = stack.levels[0].0.as_ref();

    // Incremental collapse: one burst into a copy of the state, then the
    // full group rebuild the engine's view build repeats after writes.
    let mut inc = IncrementalDedup::new();
    for t in &toks {
        inc.insert(t.clone(), s_pred);
    }
    let state = inc.export_state();
    let burst = corpus::tokenize(&inputs.burst);
    for _ in 0..3 {
        let Ok(mut copy) = IncrementalDedup::from_state(state.clone()) else {
            break;
        };
        let (_, d) = time(|| {
            for t in &burst {
                copy.insert(t.clone(), s_pred);
            }
        });
        layers.add("core.incremental_insert_us_per_burst", us(d));
        let (groups, d) = time(|| copy.groups());
        std::hint::black_box(groups);
        layers.add("core.incremental_groups_ms", ms(d));
    }

    // Collapse, bound and prune over every record, as PrunedDedup runs
    // them, then the final clustering over the pruned groups.
    let toks = corpus::tokenize(all);
    let stack = topk_service::generic_stack(&toks, FIELD, MAX_DF, MIN_OVERLAP);
    let (s_pred, n_pred) = (stack.levels[0].0.as_ref(), stack.levels[0].1.as_ref());
    let par = Parallelism::auto();
    let reps: Vec<&TokenizedRecord> = toks.iter().collect();
    let weights: Vec<f64> = toks.iter().map(TokenizedRecord::weight).collect();
    let groups = collapse_par(&reps, &weights, s_pred, par);
    let greps: Vec<&TokenizedRecord> = groups.iter().map(|g| reps[g.rep as usize]).collect();
    let gweights: Vec<f64> = groups.iter().map(|g| g.weight).collect();
    let lb = estimate_lower_bound(&greps, &gweights, n_pred, inputs.k);
    let (kept, d) =
        time(|| prune_groups_fast_par(&greps, &gweights, n_pred, lb.lower_bound, 2, par));
    layers.add("core.prune_ms", ms(d));
    layers.add("core.groups_after_collapse", groups.len() as f64);
    layers.add("core.groups_after_prune", kept.len() as f64);
    layers.add(
        "core.prune_kept_ratio",
        kept.len() as f64 / groups.len().max(1) as f64,
    );

    let mut kept: Vec<u32> = kept;
    kept.sort_by(|&a, &b| {
        gweights[b as usize]
            .total_cmp(&gweights[a as usize])
            .then(a.cmp(&b))
    });
    kept.truncate(DENSE_LIMIT);
    let kreps: Vec<&TokenizedRecord> = kept.iter().map(|&i| greps[i as usize]).collect();
    let kweights: Vec<f64> = kept.iter().map(|&i| gweights[i as usize]).collect();
    let scorer = batch::scorer();
    let q = batch::count_query(&batch::CountConfig::standard());
    let n = kreps.len();
    let (pairs, d) = time(|| {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let s = if n_pred.matches(kreps[i], kreps[j]) {
                    scorer.score(kreps[i], kreps[j])
                } else {
                    q.non_canopy_score
                };
                pairs.push((i, j, s * kweights[i] * kweights[j]));
            }
        }
        PairScores::from_pairs(n, &pairs)
    });
    layers.add("cluster.score_ms", ms(d));
    let (order, d) = time(|| greedy_embedding(&pairs, q.alpha));
    layers.add("cluster.embed_ms", ms(d));
    let permuted = pairs.permute(&order);
    let cfg = SegmentConfig {
        k: inputs.k,
        r: q.r * 3,
        max_segment_len: q.max_segment_len,
        ell_stride: q.ell_stride,
    };
    let (answers, d) = time(|| segment_topk(&permuted, &cfg));
    std::hint::black_box(answers);
    layers.add("cluster.segment_ms", ms(d));
}

fn probe_approx(all: &[Row], k: usize, layers: &mut Layers) {
    let toks = corpus::tokenize(all);
    let stack = topk_service::generic_stack(&toks, FIELD, MAX_DF, MIN_OVERLAP);
    let m = topk_approx::sample_size(EPSILON);
    let ((sample, max_weight), d) = time(|| {
        let mut sketch = topk_approx::Sketch::new(topk_approx::DEFAULT_SEED, m);
        let mut max_weight = 0.0f64;
        for (rid, t) in toks.iter().enumerate() {
            sketch.offer(rid as u64, collapse_partition_key(&t.field(FIELD).text), t);
            max_weight = max_weight.max(t.weight());
        }
        (sketch, max_weight)
    });
    let (merged, d_merge) = time(|| topk_approx::merge_sketches([&sample], m));
    layers.add("approx.sample_ms", ms(d + d_merge));
    let pop = topk_approx::Population {
        n: toks.len() as u64,
        max_weight,
    };
    let ((_, parts), d) = time(|| {
        let est = topk_approx::estimate_groups(&merged, pop, FIELD, stack.levels[0].0.as_ref());
        topk_approx::escalation_partitions(&est, k)
    });
    layers.add("approx.estimate_ms", ms(d));
    layers.add("approx.escalated_partitions", parts.len() as f64);
}

//! The two serve workloads: a real `Server` in-process on loopback,
//! driven by one client connection in a closed loop.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use topk_service::{Client, ClientConfig, Engine, EngineConfig, JournalSet, Json, Server};

use crate::checks::{self, Oracle, Served};
use crate::corpus::{self, Row};
use crate::layers::Layers;
use crate::util::{ms, us, Samples, Tally};

/// Relative error of the explicit approximate queries.
pub const EPSILON: f64 = 0.1;

/// Sizes and mix of `live-topk`.
#[derive(Debug, Clone)]
pub struct TopkConfig {
    pub records: usize,
    pub shards: usize,
    pub batch: usize,
    pub bursts: usize,
    pub burst: usize,
    pub hot: usize,
    pub k: usize,
    /// Every `approx_every`-th burst is followed by an approximate TopK
    /// instead of the exact one and its cached repeat.
    pub approx_every: usize,
    /// Exact post-write answers checked against the oracle: every
    /// `check_every`-th burst, plus the cold and the last answer.
    pub check_every: usize,
}

impl TopkConfig {
    pub fn standard() -> Self {
        TopkConfig {
            records: 20_000,
            shards: 4,
            batch: 500,
            bursts: 40,
            burst: 20,
            hot: 3,
            k: 10,
            approx_every: 4,
            check_every: 8,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        TopkConfig {
            records: 400,
            batch: 100,
            bursts: 8,
            burst: 5,
            k: 5,
            check_every: 2,
            ..Self::standard()
        }
    }
}

/// Sizes and mix of `live-topr`.
#[derive(Debug, Clone)]
pub struct ToprConfig {
    pub records: usize,
    pub batch: usize,
    pub bursts: usize,
    pub burst: usize,
    pub hot: usize,
    pub k: usize,
    pub approx_every: usize,
}

impl ToprConfig {
    pub fn standard() -> Self {
        ToprConfig {
            records: 5_000,
            batch: 500,
            bursts: 8,
            burst: 20,
            hot: 3,
            k: 10,
            approx_every: 2,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        ToprConfig {
            records: 400,
            batch: 100,
            bursts: 3,
            burst: 5,
            k: 5,
            ..Self::standard()
        }
    }
}

/// Server settings shared by both serve workloads.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// p99 objective the engine's brownout compares against.
    pub slo_p99_micros: u64,
    /// Print every streaming read that disagrees with the oracle.
    pub list_mismatches: bool,
}

/// Raised far above the slowest exact request of either workload, so
/// brownout cannot engage on a healthy server and swap the measured
/// exact path for the approx tier.
pub const BENCH_SLO_P99_MICROS: u64 = 60_000_000;

/// One engine worker (`topk serve --threads 1`): on a 2-core machine the client and the server's
/// connection thread already fill both cores, and with two workers the
/// same inputs measured up to 60% apart from run to run.
pub const ENGINE_THREADS: usize = 1;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            slo_p99_micros: BENCH_SLO_P99_MICROS,
            list_mismatches: false,
        }
    }
}

/// What a round leaves for the per-layer probes.
pub struct RoundInputs {
    /// Every acknowledged row, in ingest order.
    pub acked: Vec<Row>,
    /// One write burst of the round.
    pub burst: Vec<Row>,
    pub shards: usize,
    pub batch: usize,
    pub k: usize,
    /// Counters read from `stats` at the end of the round.
    pub stats: Json,
}

struct Live {
    client: Client,
    handle: JoinHandle<Result<(), String>>,
}

fn engine_config(shards: usize, opts: &ServeOptions) -> EngineConfig {
    EngineConfig {
        shards,
        slo_p99_micros: opts.slo_p99_micros,
        parallelism: topk_core::Parallelism::threads(ENGINE_THREADS),
        ..Default::default()
    }
}

fn start(shards: usize, journal: &Path, opts: &ServeOptions) -> Result<Live, String> {
    let mut engine = Engine::new(engine_config(shards, opts))?;
    let (set, recovery) = JournalSet::open(journal, shards)?;
    if !recovery.rows.is_empty() {
        return Err(format!("journal {} is not empty", journal.display()));
    }
    engine.attach_journal(set);
    let server = Server::bind("127.0.0.1:0", Arc::new(engine))?;
    let (addr, handle) = server.spawn();
    let client = Client::connect_with(
        &addr.to_string(),
        ClientConfig {
            read_timeout: Duration::from_secs(120),
            retries: 0,
            ..Default::default()
        },
    )?;
    Ok(Live { client, handle })
}

fn stop(mut live: Live) -> Result<(), String> {
    live.client.shutdown()?;
    live.handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// Open the journal, replay it into a fresh engine and answer TopK.
fn recover(shards: usize, journal: &Path, opts: &ServeOptions, k: usize) -> Result<Json, String> {
    let (set, recovery) = JournalSet::open(journal, shards)?;
    let mut engine = Engine::new(engine_config(shards, opts))?;
    engine.attach_journal(set);
    engine.replay_rows(recovery)?;
    engine.query_topk(k)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One timed query over the wire; the EXPLAIN profile stages go to the
/// layer log when tracing.
fn query(
    live: &mut Live,
    rank: bool,
    k: usize,
    approx: Option<f64>,
    layers: &mut Option<&mut Layers>,
) -> (Result<Json, String>, Duration) {
    let t = Instant::now();
    let r = live.client.query(rank, k, approx, layers.is_some());
    let d = t.elapsed();
    if let (Some(l), Ok(body)) = (layers.as_deref_mut(), &r) {
        l.profile(body);
    }
    (r, d)
}

/// Parse an answer; a degraded or malformed one counts as failed.
fn answer(
    tally: &mut Tally,
    what: &str,
    r: Result<Json, String>,
    key: &str,
) -> Option<(Json, Vec<Served>)> {
    let body = tally.op(what, r)?;
    if checks::degraded(&body) {
        tally.fail(what, "answered degraded by brownout");
        return None;
    }
    match checks::served(&body, key) {
        Ok(s) => Some((body, s)),
        Err(e) => {
            tally.fail(what, &e);
            None
        }
    }
}

fn certified(body: &Json) -> bool {
    body.get("certified").and_then(Json::as_bool) == Some(true)
}

fn stats(live: &mut Live, tally: &mut Tally) -> Json {
    let s = tally.op("stats", live.client.stats()).unwrap_or(Json::Null);
    for name in ["brownout_entries", "degraded_queries", "admission_sheds"] {
        let v = s
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if v > 0.0 {
            eprintln!("perfbench: server reports {name}={v}");
        }
    }
    s
}

/// One round of `live-topk`: bulk ingest into a 4-shard journaled
/// server, a cold TopK, write bursts on trending entities each followed
/// by an exact TopK and its cached repeat (or an approximate TopK), and
/// a restart from the journal.
pub fn topk_round(
    cfg: &TopkConfig,
    opts: &ServeOptions,
    seed: u64,
    samples: &mut Samples,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> Result<RoundInputs, String> {
    let t_setup = Instant::now();
    let rows = corpus::students(cfg.records, corpus::STUDENTS_SEED);
    let hot = corpus::trending(&rows, cfg.hot, seed, cfg.shards);
    let scratch = Scratch::new("live-topk")?;
    let journal = scratch.0.join("journal");
    let mut live = start(cfg.shards, &journal, opts)?;
    samples.setup_s.push(t_setup.elapsed().as_secs_f64());

    let mut oracle = Oracle::default();
    let t = Instant::now();
    for chunk in rows.chunks(cfg.batch) {
        tally.op("ingest", live.client.ingest_batch(chunk));
    }
    samples
        .ingest_rps
        .push(rows.len() as f64 / t.elapsed().as_secs_f64());
    oracle.push(&rows);
    let mut acked = rows;

    let (r, d) = query(&mut live, false, cfg.k, None, &mut layers);
    samples.first_answer_ms.push(ms(d));
    if let Some((_, got)) = answer(tally, "cold topk", r, "groups") {
        tally.check(
            "cold topk",
            checks::check_topk(&got, &oracle.groups(), cfg.k),
        );
    }

    let mut busy = Duration::ZERO;
    let mut written = 0usize;
    for b in 0..cfg.bursts {
        let rows = corpus::burst(&hot, b, cfg.burst);
        let t = Instant::now();
        let r = live.client.ingest_batch(&rows);
        busy += t.elapsed();
        if tally.op("burst ingest", r).is_none() {
            continue;
        }
        written += rows.len();
        oracle.push(&rows);
        acked.extend(rows);
        if (b + 1) % cfg.approx_every == 0 {
            let (r, d) = query(&mut live, false, cfg.k, Some(EPSILON), &mut layers);
            busy += d;
            samples.approx_ms.push(ms(d));
            if let Some((_, got)) = answer(tally, "approx topk", r, "groups") {
                tally.check(
                    "approx topk",
                    checks::check_approx(&got, cfg.k, acked.len()),
                );
            }
            continue;
        }
        let (r, d) = query(&mut live, false, cfg.k, None, &mut layers);
        busy += d;
        samples.postwrite_ms.push(ms(d));
        let (r2, d2) = query(&mut live, false, cfg.k, None, &mut layers);
        busy += d2;
        samples.repeat_us.push(us(d2));
        let first = answer(tally, "post-write topk", r, "groups");
        let again = answer(tally, "cached topk", r2, "groups");
        if let (Some((_, got)), Some((_, got2))) = (first, again) {
            tally.check("cached topk", checks::check_same(&got, &got2));
            if b % cfg.check_every == 0 {
                tally.check(
                    "post-write topk",
                    checks::check_topk(&got, &oracle.groups(), cfg.k),
                );
            }
        }
    }
    samples.mixed_rps.push(written as f64 / busy.as_secs_f64());

    let before = answer(tally, "last topk", live.client.topk(cfg.k), "groups").map(|(_, g)| g);
    if let Some(got) = &before {
        tally.check(
            "last topk",
            checks::check_topk(got, &oracle.groups(), cfg.k),
        );
    }
    let stats = stats(&mut live, tally);
    stop(live)?;

    let t = Instant::now();
    let r = recover(cfg.shards, &journal, opts, cfg.k);
    samples.recovery_ms.push(ms(t.elapsed()));
    if let (Some((_, after)), Some(before)) = (answer(tally, "recovery topk", r, "groups"), &before)
    {
        tally.check("topk after replay", checks::check_same(before, &after));
    }
    Ok(RoundInputs {
        acked,
        burst: corpus::burst(&hot, 0, cfg.burst),
        shards: cfg.shards,
        batch: cfg.batch,
        k: cfg.k,
        stats,
    })
}

/// One round of `live-topr`: a fixed Citations corpus streamed in
/// batches into a 1-shard journaled server with an exact TopK after
/// every batch, a first TopR, write bursts each followed by a TopR and
/// its cached repeat (or an approximate TopK), and a restart from the
/// journal.
pub fn topr_round(
    cfg: &ToprConfig,
    opts: &ServeOptions,
    seed: u64,
    samples: &mut Samples,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> Result<RoundInputs, String> {
    let t_setup = Instant::now();
    let rows = corpus::citations(cfg.records, corpus::CITATIONS_SEED);
    let hot = corpus::trending(&rows, cfg.hot, seed, 1);
    let scratch = Scratch::new("live-topr")?;
    let journal = scratch.0.join("journal");
    let mut live = start(1, &journal, opts)?;
    samples.setup_s.push(t_setup.elapsed().as_secs_f64());

    let mut oracle = Oracle::default();
    let mut busy = Duration::ZERO;
    let mut acked: Vec<Row> = Vec::new();
    for chunk in rows.chunks(cfg.batch) {
        let t = Instant::now();
        let r = live.client.ingest_batch(chunk);
        busy += t.elapsed();
        if tally.op("stream ingest", r).is_none() {
            continue;
        }
        oracle.push(chunk);
        acked.extend_from_slice(chunk);
        let (r, d) = query(&mut live, false, cfg.k, None, &mut layers);
        busy += d;
        if let Some((_, got)) = answer(tally, "streaming topk", r, "groups") {
            // The engine collapses deferred records under the corpus
            // statistics in force at query time, so reads made while the
            // IDF-gated keys drift can disagree with the batch collapse.
            // Counted as failed operations, not as wrong answers, until
            // the collapse stops depending on when reads happen.
            if let Err(e) = checks::check_topk(&got, &oracle.groups(), cfg.k) {
                tally.failed += 1;
                if opts.list_mismatches {
                    eprintln!("mismatching read after {} records: {e}", acked.len());
                }
            }
        }
    }
    samples
        .ingest_rps
        .push(acked.len() as f64 / busy.as_secs_f64());

    let (r, d) = query(&mut live, true, cfg.k, None, &mut layers);
    samples.first_answer_ms.push(ms(d));
    if let Some((body, got)) = answer(tally, "first topr", r, "entries") {
        tally.check(
            "first topr",
            checks::check_topr(&got, certified(&body), &oracle.groups(), cfg.k),
        );
    }

    let mut busy = Duration::ZERO;
    let mut written = 0usize;
    for b in 0..cfg.bursts {
        let rows = corpus::burst(&hot, b, cfg.burst);
        let t = Instant::now();
        let r = live.client.ingest_batch(&rows);
        busy += t.elapsed();
        if tally.op("burst ingest", r).is_none() {
            continue;
        }
        written += rows.len();
        oracle.push(&rows);
        acked.extend(rows);
        if (b + 1) % cfg.approx_every == 0 {
            let (r, d) = query(&mut live, false, cfg.k, Some(EPSILON), &mut layers);
            busy += d;
            samples.approx_ms.push(ms(d));
            if let Some((_, got)) = answer(tally, "approx topk", r, "groups") {
                tally.check(
                    "approx topk",
                    checks::check_approx(&got, cfg.k, acked.len()),
                );
            }
            continue;
        }
        let (r, d) = query(&mut live, true, cfg.k, None, &mut layers);
        busy += d;
        samples.postwrite_ms.push(ms(d));
        let (r2, d2) = query(&mut live, true, cfg.k, None, &mut layers);
        busy += d2;
        samples.repeat_us.push(us(d2));
        let first = answer(tally, "post-write topr", r, "entries");
        let again = answer(tally, "cached topr", r2, "entries");
        if let (Some((body, got)), Some((_, got2))) = (first, again) {
            tally.check("cached topr", checks::check_same(&got, &got2));
            tally.check(
                "post-write topr",
                checks::check_topr(&got, certified(&body), &oracle.groups(), cfg.k),
            );
        }
    }
    samples.mixed_rps.push(written as f64 / busy.as_secs_f64());
    let stats = stats(&mut live, tally);
    stop(live)?;

    let t = Instant::now();
    let r = recover(1, &journal, opts, cfg.k);
    samples.recovery_ms.push(ms(t.elapsed()));
    if let Some((_, got)) = answer(tally, "recovery topk", r, "groups") {
        tally.check(
            "topk after replay",
            checks::check_topk(&got, &oracle.groups(), cfg.k),
        );
    }
    Ok(RoundInputs {
        acked,
        burst: corpus::burst(&hot, 0, cfg.burst),
        shards: 1,
        batch: cfg.batch,
        k: cfg.k,
        stats,
    })
}

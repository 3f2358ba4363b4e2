//! The `batch-count` workload: the paper's TopK count query with R
//! answers (`TopKQuery::run`, the library path of `topk count`) over a
//! Citations corpus, tokenized and stacked as `load_corpus` does. No
//! service code runs.

use std::time::{Duration, Instant};

use topk_approx::{merge_sketches, sample_size, ApproxGroup, Population, Sketch};
use topk_cluster::SimilarityScorer;
use topk_core::{IncrementalDedup, PipelineConfig, PrunedDedup, TopKQuery, TopKResult};
use topk_predicates::{collapse_partition_key, PredicateStack};
use topk_records::TokenizedRecord;

use crate::checks::{self, Oracle, FIELD, MAX_DF, MIN_OVERLAP};
use crate::corpus::{self, Row};
use crate::live::EPSILON;
use crate::util::{ms, us, Samples, Tally};

#[derive(Debug, Clone)]
pub struct CountConfig {
    pub records: usize,
    pub k: usize,
    pub r: usize,
    /// Write bursts, each followed by a fresh count query.
    pub bursts: usize,
    pub burst: usize,
    pub hot: usize,
}

impl CountConfig {
    pub fn standard() -> Self {
        CountConfig {
            records: 3_000,
            k: 10,
            r: 3,
            bursts: 1,
            burst: 5,
            hot: 3,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        CountConfig {
            records: 300,
            k: 5,
            burst: 5,
            ..Self::standard()
        }
    }
}

/// The batch path's intake: tokenize and build the predicate stack.
pub fn intake(toks: &mut Vec<TokenizedRecord>, rows: &[Row]) -> PredicateStack {
    toks.extend(corpus::tokenize(rows));
    topk_service::generic_stack(toks, FIELD, MAX_DF, MIN_OVERLAP)
}

pub fn count_query(cfg: &CountConfig) -> TopKQuery {
    TopKQuery::new(cfg.k, cfg.r)
}

pub fn scorer() -> SimilarityScorer {
    SimilarityScorer::name_default(FIELD)
}

/// The approximate count, by the library calls `topk count --approx`
/// makes: sample, estimate, escalate the K-boundary partitions to an
/// exact collapse, merge.
pub fn approx_count(
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    k: usize,
    epsilon: f64,
) -> Vec<ApproxGroup> {
    let m = sample_size(epsilon);
    let mut sketch = Sketch::new(topk_approx::DEFAULT_SEED, m);
    let mut max_weight = 0.0f64;
    for (rid, t) in toks.iter().enumerate() {
        sketch.offer(rid as u64, collapse_partition_key(&t.field(FIELD).text), t);
        max_weight = max_weight.max(t.weight());
    }
    let s_pred = stack.levels[0].0.as_ref();
    let sample = merge_sketches([&sketch], m);
    let pop = Population {
        n: toks.len() as u64,
        max_weight,
    };
    let estimates = topk_approx::estimate_groups(&sample, pop, FIELD, s_pred);
    let (_tau, parts) = topk_approx::escalation_partitions(&estimates, k);
    let mut cands: Vec<ApproxGroup> = Vec::new();
    if !parts.is_empty() {
        let mut inc = IncrementalDedup::new();
        let mut rids = Vec::new();
        for (rid, t) in toks.iter().enumerate() {
            if parts.contains(&collapse_partition_key(&t.field(FIELD).text)) {
                inc.insert(t.clone(), s_pred);
                rids.push(rid);
            }
        }
        for g in inc.groups() {
            let rep = rids[g.rep as usize];
            cands.push(ApproxGroup {
                estimate: g.weight,
                lo: g.weight,
                hi: g.weight,
                size: g.members.len() as u32,
                escalated: true,
                rep_rid: rep as u64,
                rep_text: toks[rep].field(FIELD).text.clone(),
            });
        }
    }
    for e in estimates {
        if !parts.contains(&e.partition) {
            cands.push(ApproxGroup {
                estimate: e.estimate,
                lo: e.lo,
                hi: e.hi,
                size: e.sampled as u32,
                escalated: false,
                rep_rid: e.rep_rid,
                rep_text: e.rep_text,
            });
        }
    }
    topk_approx::merge_topk(cands, k)
}

/// Check one count result against the oracle and a separate prune.
pub fn check(
    res: &TopKResult,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    cfg: &CountConfig,
) -> Result<(), String> {
    let survivors = PrunedDedup::new(
        toks,
        stack,
        PipelineConfig {
            k: cfg.k,
            ..Default::default()
        },
    )
    .run()
    .groups;
    let oracle = Oracle {
        toks: toks.to_vec(),
    }
    .groups();
    checks::check_count(res, &survivors, toks, &oracle, cfg.k, cfg.r)
}

/// One round of `batch-count`: intake, a first count query, write
/// bursts each followed by a fresh count query, an approximate count
/// after one more burst, a repeat of the last query with no write, and
/// a restart that rebuilds everything from the acknowledged rows.
/// Returns the acknowledged rows and one write burst.
pub fn round(
    cfg: &CountConfig,
    seed: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> (Vec<Row>, Vec<Row>) {
    let t_setup = Instant::now();
    let mut acked = corpus::citations(cfg.records, corpus::CITATIONS_SEED);
    let hot = corpus::trending(&acked, cfg.hot, seed, 1);
    let q = count_query(cfg);
    let scorer = scorer();
    samples.setup_s.push(t_setup.elapsed().as_secs_f64());

    let mut toks = Vec::new();
    let t = Instant::now();
    let mut stack = intake(&mut toks, &acked);
    let d_intake = t.elapsed();
    samples
        .ingest_rps
        .push(acked.len() as f64 / d_intake.as_secs_f64());
    tally.attempted += 1;

    let t = Instant::now();
    let res = q.run(&toks, &stack, &scorer);
    samples.first_answer_ms.push(ms(t.elapsed()));
    tally.attempted += 1;
    tally.check("first count", check(&res, &toks, &stack, cfg));

    let mut busy = Duration::ZERO;
    let mut written = 0usize;
    for b in 0..=cfg.bursts {
        let rows = corpus::burst(&hot, b, cfg.burst);
        let t = Instant::now();
        stack = intake(&mut toks, &rows);
        let d_write = t.elapsed();
        tally.attempted += 1;
        written += rows.len();
        acked.extend(rows);
        if b == cfg.bursts {
            let t = Instant::now();
            let top = approx_count(&toks, &stack, cfg.k, EPSILON);
            let d = t.elapsed();
            busy += d_write + d;
            samples.approx_ms.push(ms(d));
            tally.attempted += 1;
            let got: Vec<checks::Served> = top
                .iter()
                .map(|g| checks::Served {
                    weight: g.estimate,
                    rep: g.rep_rid,
                    upper: Some(g.hi),
                    lo: Some(g.lo),
                })
                .collect();
            tally.check(
                "approx count",
                checks::check_approx(&got, cfg.k, toks.len()),
            );
            break;
        }
        let t = Instant::now();
        let res = q.run(&toks, &stack, &scorer);
        let d = t.elapsed();
        busy += d_write + d;
        samples.postwrite_ms.push(ms(d));
        tally.attempted += 1;
        tally.check("post-write count", check(&res, &toks, &stack, cfg));
    }
    samples.mixed_rps.push(written as f64 / busy.as_secs_f64());

    // The batch path keeps no answer: asking again recomputes it. The
    // approximate count ran last, so repeat over the records it saw.
    let t = Instant::now();
    let again = q.run(&toks, &stack, &scorer);
    samples.repeat_us.push(us(t.elapsed()));
    tally.attempted += 1;
    tally.check("repeat count", check(&again, &toks, &stack, cfg));

    // Restart: the batch path keeps no state, so it re-reads the rows.
    let t = Instant::now();
    let mut fresh = Vec::new();
    let fresh_stack = intake(&mut fresh, &acked);
    let res = q.run(&fresh, &fresh_stack, &scorer);
    samples.recovery_ms.push(ms(t.elapsed()));
    tally.attempted += 1;
    tally.check(
        "count after restart",
        check(&res, &fresh, &fresh_stack, cfg),
    );
    (acked, corpus::burst(&hot, 0, cfg.burst))
}

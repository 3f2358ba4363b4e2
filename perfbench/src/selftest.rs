//! The benchmark's own tests: every workload runs to its end at a tiny
//! size with every check passing, and each check catches one corrupted
//! weight and one dropped group.

use topk_core::{PipelineConfig, PrunedDedup, TopKRankQuery};
use topk_service::{Engine, EngineConfig};

use crate::batch::{self, CountConfig};
use crate::checks::{self, Oracle, Served};
use crate::corpus;
use crate::live::{self, ServeOptions, TopkConfig, ToprConfig};
use crate::util::{Samples, Tally};

fn corrupt_weight(mut got: Vec<Served>) -> Vec<Served> {
    got[1].weight += 1.0;
    got
}

fn drop_group(mut got: Vec<Served>) -> Vec<Served> {
    got.remove(1);
    got
}

#[test]
fn live_topk_runs_correct_at_tiny_size() {
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    live::topk_round(
        &TopkConfig::tiny(),
        &ServeOptions::default(),
        1,
        &mut samples,
        &mut tally,
        None,
    )
    .expect("round runs");
    assert!(tally.wrong.is_empty(), "{:?}", tally.wrong);
    assert_eq!(tally.failed, 0);
    assert!(!samples.postwrite_ms.is_empty() && !samples.approx_ms.is_empty());
    assert_eq!(samples.recovery_ms.len(), 1);
}

#[test]
fn live_topr_runs_correct_at_tiny_size() {
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    live::topr_round(
        &ToprConfig::tiny(),
        &ServeOptions::default(),
        1,
        &mut samples,
        &mut tally,
        None,
    )
    .expect("round runs");
    assert!(tally.wrong.is_empty(), "{:?}", tally.wrong);
    assert!(!samples.postwrite_ms.is_empty() && !samples.repeat_us.is_empty());
}

#[test]
fn batch_count_runs_correct_at_tiny_size() {
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    batch::round(&CountConfig::tiny(), 1, &mut samples, &mut tally);
    assert!(tally.wrong.is_empty(), "{:?}", tally.wrong);
    assert_eq!(tally.failed, 0);
    assert_eq!(samples.recovery_ms.len(), 1);
}

/// Students rows fully ingested into an engine, and the oracle over
/// the same rows.
fn served_engine(k: usize) -> (Engine, Oracle) {
    let rows = corpus::students(300, corpus::STUDENTS_SEED);
    let engine = Engine::new(EngineConfig {
        shards: 2,
        ..Default::default()
    })
    .expect("engine");
    engine.ingest(rows.clone()).expect("ingest");
    let mut oracle = Oracle::default();
    oracle.push(&rows);
    engine.query_topk(k).expect("warm");
    (engine, oracle)
}

#[test]
fn topk_check_catches_corruption() {
    let k = 5;
    let (engine, oracle) = served_engine(k);
    let groups = oracle.groups();
    let got = checks::served(&engine.query_topk(k).expect("topk"), "groups").expect("parse");
    checks::check_topk(&got, &groups, k).expect("served TopK matches the oracle");
    assert!(checks::check_topk(&corrupt_weight(got.clone()), &groups, k).is_err());
    assert!(checks::check_topk(&drop_group(got), &groups, k).is_err());
}

#[test]
fn topr_check_catches_corruption() {
    let k = 5;
    let (engine, oracle) = served_engine(k);
    let groups = oracle.groups();
    let body = engine.query_topr(k).expect("topr");
    let certified = body.get("certified").and_then(topk_service::Json::as_bool) == Some(true);
    let got = checks::served(&body, "entries").expect("parse");
    checks::check_topr(&got, certified, &groups, k).expect("served TopR passes");
    assert!(checks::check_topr(&corrupt_weight(got.clone()), certified, &groups, k).is_err());
    assert!(checks::check_topr(&drop_group(got), certified, &groups, k).is_err());
    // The rank query itself, uncertified, still may not lose an entry.
    let stack = oracle.stack();
    let res = TopKRankQuery::new(k).run(&oracle.toks, &stack);
    let got: Vec<Served> = res
        .entries
        .iter()
        .map(|e| Served {
            weight: e.weight,
            rep: e.rep as u64,
            upper: Some(e.upper_bound),
            lo: None,
        })
        .collect();
    assert!(checks::check_topr(&drop_group(got), false, &groups, k).is_err());
}

#[test]
fn count_check_catches_corruption() {
    let cfg = CountConfig::tiny();
    let rows = corpus::citations(cfg.records, corpus::CITATIONS_SEED);
    let mut toks = Vec::new();
    let stack = batch::intake(&mut toks, &rows);
    let res = batch::count_query(&cfg).run(&toks, &stack, &batch::scorer());
    let survivors = PrunedDedup::new(
        &toks,
        &stack,
        PipelineConfig {
            k: cfg.k,
            ..Default::default()
        },
    )
    .run()
    .groups;
    let oracle = Oracle { toks: toks.clone() }.groups();
    checks::check_count(&res, &survivors, &toks, &oracle, cfg.k, cfg.r).expect("count passes");

    let mut bad = res.clone();
    bad.answers[0].groups[1].weight += 1.0;
    assert!(checks::check_count(&bad, &survivors, &toks, &oracle, cfg.k, cfg.r).is_err());
    let mut bad = res.clone();
    bad.answers[0].groups.remove(1);
    assert!(checks::check_count(&bad, &survivors, &toks, &oracle, cfg.k, cfg.r).is_err());
    // A prune that lost a group at or above M is caught too.
    let m_bound = res.stats.iterations.last().map_or(0.0, |it| it.lower_bound);
    let pos = survivors
        .iter()
        .position(|g| g.weight >= m_bound)
        .expect("the heaviest group clears M");
    let mut lost = survivors.clone();
    lost.remove(pos);
    assert!(checks::check_count(&res, &lost, &toks, &oracle, cfg.k, cfg.r).is_err());
}

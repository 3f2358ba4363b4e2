//! Answer checks against a batch oracle computed apart from the served
//! engine, and against properties of the method itself.
//!
//! The TopK oracle is the batch collapse (`PrunedDedup` in
//! `CanopyCollapse` mode: no bound, no prune) over the acknowledged
//! prefix, tokenized as the engine tokenizes. Pruning never drops a
//! group that can be among the K heaviest (paper §4.3), so a served
//! exact TopK must equal the oracle's K heaviest groups.

use std::collections::{HashMap, HashSet};

use topk_core::{FinalGroup, PipelineConfig, PrunedDedup, PruningMode, TopKResult};
use topk_predicates::PredicateStack;
use topk_records::{FieldId, TokenizedRecord};
use topk_service::Json;

use crate::corpus::{tokenize, Row};

/// Engine defaults for the generic predicate stack.
pub const MAX_DF: u32 = 30;
pub const MIN_OVERLAP: f64 = 0.6;
/// Match field of both generators (`name`, `author`).
pub const FIELD: FieldId = FieldId(0);

/// The acknowledged prefix, tokenized as the engine tokenizes it.
#[derive(Default)]
pub struct Oracle {
    pub toks: Vec<TokenizedRecord>,
}

impl Oracle {
    pub fn push(&mut self, rows: &[Row]) {
        self.toks.extend(tokenize(rows));
    }

    pub fn stack(&self) -> PredicateStack {
        topk_service::generic_stack(&self.toks, FIELD, MAX_DF, MIN_OVERLAP)
    }

    /// Every collapsed group, heaviest first (ties by representative).
    pub fn groups(&self) -> Vec<FinalGroup> {
        let stack = self.stack();
        PrunedDedup::new(
            &self.toks,
            &stack,
            PipelineConfig {
                k: 1,
                mode: PruningMode::CanopyCollapse,
                ..Default::default()
            },
        )
        .run()
        .groups
    }
}

/// One group of a served answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub weight: f64,
    pub rep: u64,
    /// TopR entries carry an upper bound; approximate groups carry
    /// their interval as (lo, hi) here.
    pub upper: Option<f64>,
    pub lo: Option<f64>,
}

fn same_weight(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("answer entry lacks `{key}`"))
}

/// Parse the `groups` (TopK) or `entries` (TopR) list of a response.
pub fn served(body: &Json, key: &str) -> Result<Vec<Served>, String> {
    let list = body
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("response lacks `{key}`"))?;
    list.iter()
        .map(|g| {
            let approx = g.get("estimate").is_some();
            Ok(Served {
                weight: num(g, if approx { "estimate" } else { "weight" })?,
                rep: num(g, "rep_id")? as u64,
                upper: if approx {
                    Some(num(g, "hi")?)
                } else {
                    g.get("upper_bound").and_then(Json::as_f64)
                },
                lo: if approx { Some(num(g, "lo")?) } else { None },
            })
        })
        .collect()
}

/// Whether a brownout degraded the answer to the approx tier.
pub fn degraded(body: &Json) -> bool {
    body.get("degraded").and_then(Json::as_bool) == Some(true)
}

/// A served exact TopK equals the oracle's K heaviest groups, by weight
/// and representative id.
pub fn check_topk(got: &[Served], oracle: &[FinalGroup], k: usize) -> Result<(), String> {
    let want = &oracle[..k.min(oracle.len())];
    if got.len() != want.len() {
        return Err(format!(
            "{} groups served, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, o)) in got.iter().zip(want).enumerate() {
        if g.rep != o.rep as u64 || !same_weight(g.weight, o.weight) {
            return Err(format!(
                "rank {}: served rep {} weight {}, oracle rep {} weight {}",
                i + 1,
                g.rep,
                g.weight,
                o.rep,
                o.weight
            ));
        }
    }
    Ok(())
}

/// TopR: weights never increase down the list, every upper bound is at
/// least its weight, every entry is an oracle group, the list is K long
/// when the oracle has K groups, and a certified list is the oracle's
/// K heaviest groups.
pub fn check_topr(
    got: &[Served],
    certified: bool,
    oracle: &[FinalGroup],
    k: usize,
) -> Result<(), String> {
    let by_rep: HashMap<u64, f64> = oracle.iter().map(|g| (g.rep as u64, g.weight)).collect();
    if got.len() != k.min(oracle.len()) {
        return Err(format!(
            "{} entries, oracle has {} groups",
            got.len(),
            oracle.len()
        ));
    }
    for (i, e) in got.iter().enumerate() {
        if i > 0 && e.weight > got[i - 1].weight {
            return Err(format!("rank {}: weight {} rises", i + 1, e.weight));
        }
        match e.upper {
            Some(u) if u >= e.weight => {}
            _ => {
                return Err(format!(
                    "rank {}: upper bound {:?} below weight",
                    i + 1,
                    e.upper
                ))
            }
        }
        match by_rep.get(&e.rep) {
            Some(&w) if same_weight(w, e.weight) => {}
            _ => {
                return Err(format!(
                    "rank {}: rep {} weight {} is no oracle group",
                    i + 1,
                    e.rep,
                    e.weight
                ))
            }
        }
    }
    if certified {
        check_topk(got, oracle, k).map_err(|e| format!("certified but {e}"))?;
    }
    Ok(())
}

/// An approximate TopK: K groups, each estimate inside its interval.
pub fn check_approx(got: &[Served], k: usize, max_groups: usize) -> Result<(), String> {
    if got.len() != k.min(max_groups) {
        return Err(format!(
            "{} approximate groups, want {}",
            got.len(),
            k.min(max_groups)
        ));
    }
    for (i, g) in got.iter().enumerate() {
        let (lo, hi) = (g.lo.unwrap_or(g.weight), g.upper.unwrap_or(g.weight));
        if !(lo <= g.weight && g.weight <= hi) {
            return Err(format!(
                "rank {}: estimate {} outside [{lo}, {hi}]",
                i + 1,
                g.weight
            ));
        }
    }
    Ok(())
}

/// Two answers to the same question agree.
pub fn check_same(a: &[Served], b: &[Served]) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("answers differ: {a:?} vs {b:?}"))
    }
}

/// The batch count query: at most R answers, pairwise distinct, scores
/// never increasing; each answer K disjoint groups of real records
/// whose weights add up; and every oracle group at or above the
/// pipeline's bound M survives the prune.
pub fn check_count(
    res: &TopKResult,
    survivors: &[FinalGroup],
    toks: &[TokenizedRecord],
    oracle: &[FinalGroup],
    k: usize,
    r: usize,
) -> Result<(), String> {
    if res.answers.is_empty() || res.answers.len() > r {
        return Err(format!("{} answers for R={r}", res.answers.len()));
    }
    let mut signatures = HashSet::new();
    for (ai, a) in res.answers.iter().enumerate() {
        if ai > 0 && a.score > res.answers[ai - 1].score {
            return Err(format!("answer {} scores above answer {ai}", ai + 1));
        }
        if a.groups.len() != k.min(oracle.len()) {
            return Err(format!(
                "answer {} has {} groups, want {k}",
                ai + 1,
                a.groups.len()
            ));
        }
        let mut seen = HashSet::new();
        let mut signature: Vec<Vec<u32>> = Vec::new();
        for g in &a.groups {
            let mut total = 0.0;
            for &rec in &g.records {
                let t = toks
                    .get(rec as usize)
                    .ok_or_else(|| format!("answer {} names record {rec}", ai + 1))?;
                if !seen.insert(rec) {
                    return Err(format!("answer {}: record {rec} in two groups", ai + 1));
                }
                total += t.weight();
            }
            if !same_weight(total, g.weight) {
                return Err(format!(
                    "answer {}: group weight {} but its records weigh {total}",
                    ai + 1,
                    g.weight
                ));
            }
            let mut recs = g.records.clone();
            recs.sort_unstable();
            signature.push(recs);
        }
        signature.sort();
        if !signatures.insert(signature) {
            return Err(format!("answer {} repeats an earlier answer", ai + 1));
        }
    }
    let m_bound = res.stats.iterations.last().map_or(0.0, |it| it.lower_bound);
    let kept: HashSet<(u64, u64)> = survivors
        .iter()
        .map(|g| (g.rep as u64, g.weight.to_bits()))
        .collect();
    for g in oracle.iter().take_while(|g| g.weight >= m_bound) {
        if !kept.contains(&(g.rep as u64, g.weight.to_bits())) {
            return Err(format!(
                "oracle group rep {} weight {} >= M {m_bound} was pruned",
                g.rep, g.weight
            ));
        }
    }
    Ok(())
}

//! Generated inputs: record rows, trending-entity bursts, and the
//! tokenization the engine applies to ingested rows.

use topk_datagen::{generate_citations, generate_students, CitationConfig, StudentConfig};
use topk_records::TokenizedRecord;
use topk_service::ShardRouter;

use crate::util::splitmix;

/// One ingested row: field texts and weight, as the wire carries it.
pub type Row = (Vec<String>, f64);

/// Generator seeds of the base corpora: the generators' defaults. Fixed,
/// not taken from `--seed`, for two reasons. The flush-timing fault
/// makes a fixed set of `live-topr`'s streaming reads disagree with the
/// oracle, and a fixed corpus keeps that count the same in every run.
/// And the cost of pruning and clustering swings tenfold between
/// Citations corpora of one size, so a corpus drawn per seed would
/// measure the corpus, not the code. `--seed` picks the trending
/// entities of every round, and so every write burst.
pub const CITATIONS_SEED: u64 = 0xC17A;
pub const STUDENTS_SEED: u64 = 0x57D1;

/// `n` Students records (about four records per pupil).
pub fn students(n: usize, seed: u64) -> Vec<Row> {
    let d = generate_students(&StudentConfig {
        n_students: (n / 4).max(1),
        n_records: n,
        seed,
        ..Default::default()
    });
    rows_of(&d)
}

/// The first `n` Citations author-mention records, generated with the
/// default author-to-citation ratio.
pub fn citations(n: usize, seed: u64) -> Vec<Row> {
    let n_citations = n * 2 / 3 + 10;
    let d = generate_citations(&CitationConfig {
        n_authors: (n_citations / 6).max(10),
        n_citations,
        seed,
        ..Default::default()
    });
    let mut rows = rows_of(&d);
    assert!(
        rows.len() >= n,
        "citation generator yielded {} < {n} rows",
        rows.len()
    );
    rows.truncate(n);
    rows
}

fn rows_of(d: &topk_records::Dataset) -> Vec<Row> {
    d.records()
        .iter()
        .map(|r| (r.fields().to_vec(), r.weight()))
        .collect()
}

/// `count` trending rows picked from `rows` by `seed`, with distinct
/// match texts that the engine routes to distinct shards when it has
/// enough of them. A burst then rebuilds the views of the same number
/// of shards whichever entities trend, so the seed moves the answers
/// but not the amount of work.
pub fn trending(rows: &[Row], count: usize, seed: u64, shards: usize) -> Vec<Row> {
    let router = ShardRouter::new(shards.max(1));
    let mut s = seed;
    let mut picked: Vec<(usize, String)> = Vec::new();
    let mut hot = Vec::with_capacity(count);
    while hot.len() < count {
        let row = &rows[(splitmix(&mut s) % rows.len() as u64) as usize];
        let text = topk_text::normalize::normalize(&row.0[0]);
        let shard = router.route(&text);
        let clash = picked
            .iter()
            .any(|(sh, t)| *t == text || (shards >= count && *sh == shard));
        if !clash {
            picked.push((shard, text));
            hot.push(row.clone());
        }
    }
    hot
}

/// Burst `b`: `size` new mentions of the trending rows, in rotation,
/// each of weight 1 (one new citation, or one new paper's unit mark),
/// so the bursts move the rankings by the same amount whichever rows
/// trend.
pub fn burst(hot: &[Row], b: usize, size: usize) -> Vec<Row> {
    (0..size)
        .map(|i| (hot[(b + i) % hot.len()].0.clone(), 1.0))
        .collect()
}

/// Normalize and tokenize rows exactly as `Engine::ingest` does.
pub fn tokenize(rows: &[Row]) -> Vec<TokenizedRecord> {
    rows.iter()
        .map(|(fields, w)| {
            let normalized: Vec<String> = fields
                .iter()
                .map(|f| topk_text::normalize::normalize(f))
                .collect();
            TokenizedRecord::from_fields(&normalized, *w)
        })
        .collect()
}

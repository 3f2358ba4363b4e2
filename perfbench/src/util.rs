//! Seeds, sample statistics, operation accounting and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// splitmix64 step: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of round `round` of a run started with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut s = seed ^ (round as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix(&mut s)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Operations attempted and failed, and answers found wrong.
///
/// A failed operation is one the system did not serve as asked: an
/// error, a shed, a brownout-degraded exact answer, or a read the
/// known flush-timing fault makes disagree with the oracle. A wrong
/// answer is any other disagreement with the checks; it makes the run
/// incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    /// Count one operation; an error counts it as failed and is logged.
    pub fn op<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Mark an already counted operation as failed.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {why}");
    }

    /// Record a check result; a failing check makes the run incorrect.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("perfbench: check failed, {what}: {e}");
            self.wrong.push(format!("{what}: {e}"));
        }
    }
}

/// Samples of the end-to-end metrics, gathered over a run's rounds.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub ingest_rps: Vec<f64>,
    pub first_answer_ms: Vec<f64>,
    pub mixed_rps: Vec<f64>,
    pub postwrite_ms: Vec<f64>,
    pub repeat_us: Vec<f64>,
    pub approx_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
}

/// Every end-to-end metric, with its unit, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("first_answer_ms", "ms"),
    ("mixed_rps", "1/s"),
    ("postwrite_p50_ms", "ms"),
    ("repeat_p50_us", "us"),
    ("approx_postwrite_p50_ms", "ms"),
    ("recovery_ms", "ms"),
];

impl Samples {
    /// The end-to-end figures: medians over the run's samples.
    pub fn figures(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("ingest_rps", median(&self.ingest_rps));
        m.insert("first_answer_ms", median(&self.first_answer_ms));
        m.insert("mixed_rps", median(&self.mixed_rps));
        m.insert("postwrite_p50_ms", median(&self.postwrite_ms));
        m.insert("repeat_p50_us", median(&self.repeat_us));
        m.insert("approx_postwrite_p50_ms", median(&self.approx_ms));
        m.insert("recovery_ms", median(&self.recovery_ms));
        m
    }

    /// One human-readable line: each figure with its sample count.
    pub fn describe(&self) -> String {
        let f = self.figures();
        let n = [
            self.setup_s.len(),
            self.ingest_rps.len(),
            self.first_answer_ms.len(),
            self.mixed_rps.len(),
            self.postwrite_ms.len(),
            self.repeat_us.len(),
            self.approx_ms.len(),
            self.recovery_ms.len(),
        ];
        END_TO_END
            .iter()
            .zip(n)
            .map(|((name, unit), n)| format!("{name}={:.4}{unit}(n={n})", f[name]))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn round_seeds_differ_and_repeat() {
        assert_eq!(round_seed(7, 1), round_seed(7, 1));
        assert_ne!(round_seed(7, 1), round_seed(7, 2));
        assert_ne!(round_seed(7, 1), round_seed(8, 1));
    }
}

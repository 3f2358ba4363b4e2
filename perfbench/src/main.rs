//! The repository's benchmark: three workloads, end-to-end figures from
//! untraced runs, per-layer figures from a traced run, every answer
//! checked against a batch oracle. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <live-topk|live-topr|batch-count> --seed N
//!           --seconds S --trace <0|1>
//!           [--slo-p99-us N] [--list-mismatches]
//! ```
//!
//! A run repeats whole rounds of its workload until `--seconds` have
//! passed, then prints one JSON result line last on stdout.

mod batch;
mod checks;
mod corpus;
mod layers;
mod live;
#[cfg(test)]
mod selftest;
mod util;

use std::time::{Duration, Instant};

use layers::Layers;
use live::{ServeOptions, TopkConfig, ToprConfig};
use util::{result_line, round_seed, Samples, Tally, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    LiveTopk,
    LiveTopr,
    BatchCount,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: ServeOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut serve = ServeOptions::default();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "live-topk" => Workload::LiveTopk,
                    "live-topr" => Workload::LiveTopr,
                    "batch-count" => Workload::BatchCount,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--slo-p99-us" => {
                serve.slo_p99_micros = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--slo-p99-us: {e}"))?
            }
            "--list-mismatches" => serve.list_mismatches = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve,
    })
}

/// Run one round of the workload with round seed `seed`; the returned
/// inputs feed the per-layer probes.
fn round(
    args: &Args,
    seed: u64,
    samples: &mut Samples,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Result<live::RoundInputs, String> {
    match args.workload {
        Workload::LiveTopk => live::topk_round(
            &TopkConfig::standard(),
            &args.serve,
            seed,
            samples,
            tally,
            layers,
        ),
        Workload::LiveTopr => live::topr_round(
            &ToprConfig::standard(),
            &args.serve,
            seed,
            samples,
            tally,
            layers,
        ),
        Workload::BatchCount => {
            let cfg = batch::CountConfig::standard();
            let (acked, burst) = batch::round(&cfg, seed, samples, tally);
            // No server ran: the service probes ingest the corpus into a
            // 1-shard engine in the serve workloads' batch size.
            Ok(live::RoundInputs {
                acked,
                burst,
                shards: 1,
                batch: ToprConfig::standard().batch,
                k: cfg.k,
                stats: topk_service::Json::Null,
            })
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut tally = Tally::default();
    if !args.trace {
        let mut samples = Samples::default();
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        let mut r = 0;
        loop {
            round(
                args,
                round_seed(args.seed, r),
                &mut samples,
                &mut tally,
                None,
            )?;
            r += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        println!("rounds={r} {}", samples.describe());
        let figures = samples.figures();
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, figures[name], unit))
            .collect();
        return Ok(result_line(&tally, &metrics));
    }

    // Traced: one plain round, the same round again with EXPLAIN on and
    // the layer probes after it. The end-to-end figures of the two
    // rounds side by side show what the tracing costs.
    let seed = round_seed(args.seed, 0);
    let mut plain = Samples::default();
    round(args, seed, &mut plain, &mut tally, None)?;
    let mut traced = Samples::default();
    let mut layers = Layers::default();
    let inputs = round(args, seed, &mut traced, &mut tally, Some(&mut layers))?;
    if inputs.stats != topk_service::Json::Null {
        layers::server_counters(&mut layers, &inputs.stats);
    }
    layers::probe(&inputs, &mut layers)?;
    println!("untraced {}", plain.describe());
    println!("traced   {}", traced.describe());
    let (p, t) = (plain.figures(), traced.figures());
    layers.add(
        "trace.overhead_ratio",
        t["postwrite_p50_ms"] / p["postwrite_p50_ms"],
    );
    Ok(result_line(&tally, &layers.figures()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

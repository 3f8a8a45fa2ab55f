//! The orion-rs benchmark. See `README.md` beside this package for the
//! definition of every workload and metric.
//!
//! ```text
//! orion-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! orion-benchmark --all [--traced] [--seed N] [--seconds S] [--out DIR] [--smoke]
//! orion-benchmark validate RESULTS.json [BENCHMARK.json]
//! orion-benchmark compare A.json B.json [BENCHMARK.json]
//! ```
//!
//! A single-workload run prints a report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`.

mod data;
mod harness;
mod json;
mod layers;
mod probes;
mod report;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{Outcome, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{DurableTxn, IndexMix, PointMix, Scale, ScanQuery};

/// The seed the paper was published in.
const DEFAULT_SEED: u64 = 1990;
const DEFAULT_SECONDS: f64 = 15.0;
/// Everything the benchmark writes goes under here (inside the
/// checkout it is run from).
const DEFAULT_OUT: &str = ".bench_out";

struct Cli {
    workload: Option<String>,
    all: bool,
    run: RunArgs,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        run: RunArgs {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            out: PathBuf::from(DEFAULT_OUT),
            quick: false,
        },
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => cli.run.traced = true,
            "--out" => cli.run.out = PathBuf::from(value()?),
            "--all" => cli.all = true,
            "--smoke" => cli.run.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // `--smoke`: a tenth of the data, one set-up, a one-second phase.
    cli.run.seconds = seconds.unwrap_or(if cli.run.quick { 1.0 } else { DEFAULT_SECONDS });
    if cli.all == cli.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(cli)
}

fn run_named(name: &str, scale: Scale, args: &RunArgs) -> Result<Outcome, String> {
    let seed = args.seed;
    match name {
        "point_mix" => run::run(&PointMix::new(seed, scale), args),
        "durable_txn" => run::run(&DurableTxn::new(seed, scale), args),
        "scan_query" => run::run(&ScanQuery::new(seed, scale), args),
        "index_mix" => run::run(&IndexMix::new(seed, scale), args),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {:?})",
                workloads::NAMES
            ))
        }
    }
    .map_err(|e| format!("{name}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("validate") => report::validate(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => parse_cli(&args).and_then(|cli| {
            if cli.all {
                return report::run_all(&cli.run);
            }
            let name = cli.workload.as_deref().expect("checked by parse_cli");
            let scale = Scale(if cli.run.quick { 10 } else { 1 });
            let outcome = run_named(name, scale, &cli.run)?;
            let table = if cli.run.traced {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            report::print_metrics(&outcome, table);
            let line = report::result_line(&outcome, table);
            let suffix = if cli.run.traced { "-traced" } else { "" };
            let file = cli.run.out.join(format!("result-{name}{suffix}.json"));
            std::fs::create_dir_all(&cli.run.out)
                .and_then(|()| std::fs::write(&file, format!("{line}\n")))
                .map_err(|e| format!("writing {}: {e}", file.display()))?;
            // The contract: this object is the last line of stdout.
            println!("{line}");
            Ok(())
        }),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("orion-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

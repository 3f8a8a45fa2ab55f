//! One run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones (see `layers`).

use crate::harness::{peak_rss_mb, Live, Recorder, Stop, Workload};
use crate::layers;
use crate::stats::{median, slice_rates, summarize, LatencySummary};
use orion_core::DbResult;
use std::path::PathBuf;

/// Times the whole set-up is repeated (each on a fresh database) so
/// `setup_s` is a median, and times the restart is.
const SETUP_REPS: usize = 3;
const RESTART_REPS: usize = 9;

/// Equal-count slices of the measured phase `ops_per_s` is the median of.
const SLICES: usize = 10;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where span files and a file-backed database go.
    pub out: PathBuf,
    /// `--smoke`: one set-up, one restart.
    pub quick: bool,
}

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// A measured phase, summed over its connections.
pub struct PhaseSummary {
    pub attempted: u64,
    /// Median of `slice_rates`.
    pub ops_per_s: f64,
    pub slice_rates: Vec<f64>,
    pub read: Option<LatencySummary>,
    pub write: Option<LatencySummary>,
}

/// Count failures, print the first few, and fold them into the totals.
pub fn absorb(what: &str, recs: &[Recorder], attempted: &mut u64, failed: &mut u64) {
    for rec in recs {
        *attempted += rec.attempted;
        *failed += rec.failed;
        for e in &rec.errors {
            println!("FAILED [{what}, connection {}]: {e}", rec.conn);
        }
    }
}

pub fn summarize_phase(recs: &[Recorder], tail: f64) -> PhaseSummary {
    let gather = |f: fn(&Recorder) -> &Vec<u64>| -> Vec<u64> {
        recs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let rates = slice_rates(&gather(|r| &r.op_ends), SLICES);
    PhaseSummary {
        attempted: recs.iter().map(|r| r.attempted).sum(),
        ops_per_s: if rates.is_empty() {
            0.0
        } else {
            median(&rates)
        },
        slice_rates: rates,
        read: summarize(&mut gather(|r| &r.read_ns), tail),
        write: summarize(&mut gather(|r| &r.write_ns), tail),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn print_latency(what: &str, s: &Option<LatencySummary>) {
    match s {
        Some(s) => println!(
            "  {what}: p50 {:.4} ms, p{} {:.4} ms ({} samples)",
            ms(s.p50_ns),
            s.tail_p * 100.0,
            ms(s.tail_ns),
            s.samples
        ),
        None => println!("  {what}: no samples"),
    }
}

pub fn run<W: Workload>(w: &W, args: &RunArgs) -> DbResult<Outcome> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = args
        .out
        .join(format!("db-{}-{}", w.name(), std::process::id()));
    println!(
        "workload {} seed {} seconds {} trace {} cores {cores} connections {} (closed loop)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        w.connections(cores)
    );
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up, several times over; the last instance is the one measured.
    let reps = if args.quick || args.traced {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut live = None;
    for _ in 0..reps {
        drop(live.take());
        let start = std::time::Instant::now();
        let (instance, warm) = Live::setup(w, &dir, cores)?;
        setup_s.push(start.elapsed().as_secs_f64());
        absorb("warm-up", &warm, &mut attempted, &mut failed);
        live = Some(instance);
    }
    let mut live = live.expect("at least one set-up");
    println!("  setup_s: {setup_s:.4?}");

    if args.traced {
        return layers::traced_run(w, &mut live, args, attempted, failed);
    }

    // The state after the fixed-count warm-up is the same on every
    // commit, however fast: restart time, space and memory are taken
    // here, not after the timed phase, whose length in operations
    // depends on the speed being measured.
    let restarts = if args.quick { 1 } else { RESTART_REPS };
    let restart_s = (0..restarts)
        .map(|_| live.restart().map(|d| d.as_secs_f64()))
        .collect::<DbResult<Vec<f64>>>()?;
    println!("  restart_s: {restart_s:.4?}");
    let space_amp = live.space_amp()?;
    let (pages, wal) = live.storage_bytes();
    println!("  space_amp: {space_amp:.4} (pages {pages} B + log {wal} B over live records)");
    let peak_rss = peak_rss_mb();

    // Caches are cold after the restart; refill them untimed.
    let rewarm = live.phase(|| Stop::Ops(w.warmup_ops() / 4), false);
    absorb("re-warm", &rewarm, &mut attempted, &mut failed);

    let recs = live.timed_phase(args.seconds, false);
    absorb("measured phase", &recs, &mut attempted, &mut failed);
    let phase = summarize_phase(&recs, w.preferred_tail());
    println!(
        "  measured phase: {} ops, median slice rate {:.1} ops/s of {:.1?}",
        phase.attempted, phase.ops_per_s, phase.slice_rates
    );
    print_latency("read", &phase.read);
    print_latency("write", &phase.write);

    let check = live.verify()?;
    absorb(
        "final check",
        std::slice::from_ref(&check),
        &mut attempted,
        &mut failed,
    );
    println!(
        "  final check: {} checks, {} failed",
        check.attempted, check.failed
    );

    let (Some(read), Some(write)) = (phase.read, phase.write) else {
        return Err(orion_core::DbError::Storage(
            "the measured phase produced no read or no write samples".into(),
        ));
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("ops_per_s", phase.ops_per_s),
            ("read_p50_ms", ms(read.p50_ns)),
            ("write_p50_ms", ms(write.p50_ns)),
            ("restart_s", median(&restart_s)),
            ("space_amp", space_amp),
            ("peak_rss_mb", peak_rss),
        ],
    })
}

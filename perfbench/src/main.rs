//! The LOGAN-rs benchmark: one seeded workload per invocation, run
//! through the library's public entry points, outputs checked, metrics
//! printed by name with their units. The last stdout line is the JSON
//! result; the lines before it are the same figures for people.
//!
//! ```text
//! perfbench --workload <bella-spgemm|bella-minimizer-stream|pairs-gpu|serve-closed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from bare backends;
//! `--trace 1` reports the per-layer metrics, timed from outside the
//! library by wrapping its calls. See README.md for the workload →
//! layer → metric map.

mod bella;
mod pairs;
mod report;
mod serve;
mod traced;

use report::{build_fingerprint, check_counters_ledger, Outcome, END_TO_END, PER_LAYER};

/// Counts heap bytes so each timed region reports its allocation peak.
#[global_allocator]
static PEAK_ALLOC: logan_bench::memprobe::PeakAlloc = logan_bench::memprobe::PeakAlloc;

const WORKLOADS: &[&str] = &[
    "bella-spgemm",
    "bella-minimizer-stream",
    "pairs-gpu",
    "serve-closed",
];

/// Host threads the benchmark lets the library use (the pipeline's own
/// data-parallel loops); every backend runs one.
const MAX_THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time one set-up of the workload, print it and exit (the fresh
    /// processes behind `setup_s`).
    pub setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(42),
        seconds,
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        match args.workload.as_str() {
            "bella-spgemm" => bella::setup_probe(false),
            "bella-minimizer-stream" => bella::setup_probe(true),
            "pairs-gpu" => pairs::setup_probe(),
            _ => serve::setup_probe(),
        }
        .print();
        return;
    }
    let fingerprint = build_fingerprint();
    let threads = MAX_THREADS.min(logan_core::backend::host_threads());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let mut o = pool.install(|| match args.workload.as_str() {
        "bella-spgemm" => bella::run(&args, false),
        "bella-minimizer-stream" => bella::run(&args, true),
        "pairs-gpu" => pairs::run(&args),
        _ => serve::run(&args),
    });
    let ledger = format!("{}-{}-{}", args.workload, args.seed, args.trace as u8);
    match check_counters_ledger(fingerprint.as_deref(), &ledger, &o.counters) {
        Ok(note) => o.notes.push(note),
        Err(e) => o.fail(o.attempted, e),
    }
    print_outcome(&args, &o);
}

fn print_outcome(args: &Args, o: &Outcome) {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &o.notes {
        println!("# {note}");
    }
    for (name, unit) in table {
        println!(
            "{name:<28} {:>16.6} {unit}",
            o.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    let failed_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    println!("{:<28} {failed_ratio:>16.6} ratio", "failed_ratio");
    for (name, value) in &o.counters {
        println!("counter {name:<20} {value}");
    }
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = o.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.problems.is_empty() && o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

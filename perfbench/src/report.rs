//! Metric names and units, the run outcome every workload returns, the
//! measuring loop every workload runs through, and the exact-counter
//! ledger.

use crate::traced::SpanTotals;
use crate::Args;
use logan_bench::memprobe::{measure, mib};
use logan_seq::readsim::{PairSet, ReadPair};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("gcups", "GCUPS"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
    ("overlap_recall", "ratio"),
    ("overlap_precision", "ratio"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("align.cells", "count"),
    ("align.antidiag_steps", "count"),
    ("align.cells_per_step", "cells"),
    ("align.ns_per_step", "ns"),
    ("align.tier.i8", "count"),
    ("align.tier.i16", "count"),
    ("align.tier.scalar", "count"),
    ("align.tier.escalations", "count"),
    ("align.escalation_ratio", "ratio"),
    ("align.gcups_busy", "GCUPS"),
    ("core.backend.calls", "count"),
    ("core.backend.busy_s", "s"),
    ("core.backend.idle_s", "s"),
    ("core.backend.pairs_per_call", "pairs"),
    ("bella.candidates.s", "s"),
    ("bella.kmer_count.s", "s"),
    ("bella.prune.s", "s"),
    ("bella.matrix.s", "s"),
    ("bella.spgemm.s", "s"),
    ("bella.chain.s", "s"),
    ("bella.threshold.s", "s"),
    ("bella.matrix.nnz", "count"),
    ("bella.candidates", "count"),
    ("bella.kept", "count"),
    ("bella.materialise.bytes", "bytes"),
    ("core.executor.split_s", "s"),
    ("core.executor.extend_s", "s"),
    ("core.executor.assemble_s", "s"),
    ("gpusim.sim_time_s", "s"),
    ("gpusim.sim_gcups", "GCUPS"),
    ("gpusim.launches", "count"),
    ("gpusim.warp_instructions", "count"),
    ("gpusim.hbm_bytes", "bytes"),
    ("gpusim.ops_per_byte", "ratio"),
    ("gpusim.utilization", "ratio"),
    ("serve.batches", "count"),
    ("serve.coalesced_batches", "count"),
    ("serve.pairs_per_batch", "pairs"),
    ("serve.lane_busy_frac", "ratio"),
    ("serve.submit_block_s", "s"),
    ("setup.backend_build_s", "s"),
    ("setup.server_start_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Fewest timed iterations a run makes, however short `--seconds` is.
pub const MIN_ITERS: usize = 3;

/// Fresh set-up processes started after each timed iteration.
pub const SETUP_PROBES: usize = 2;

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (`failed_ratio` = failed ÷ attempted).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic work counters: identical for a fixed seed.
    pub counters: Vec<(&'static str, u64)>,
    /// Extra human-readable lines (sample counts and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }

    /// Fail unless `counters` equals the first iteration's counters.
    pub fn expect_same_counters(&mut self, iter: usize, counters: &[(&'static str, u64)]) {
        if self.counters.is_empty() {
            self.counters = counters.to_vec();
        } else if self.counters != counters {
            self.fail(
                1,
                format!(
                    "iteration {iter}: counters {counters:?} differ from {:?}",
                    self.counters
                ),
            );
        }
    }

    /// The `align.*` and `core.backend.*` metrics from the spans of one
    /// traced iteration lasting `wall_s`; each lane that made calls
    /// counts as available for all of it.
    pub fn set_backend_layers(&mut self, t: &SpanTotals, wall_s: f64) {
        self.set("align.cells", t.cells as f64);
        self.set("align.antidiag_steps", t.steps as f64);
        self.set(
            "align.cells_per_step",
            ratio(t.cells as f64, t.steps as f64),
        );
        self.set("align.ns_per_step", ratio(t.busy_s * 1e9, t.steps as f64));
        self.set("align.tier.i8", t.tiers.lanes8 as f64);
        self.set("align.tier.i16", t.tiers.lanes16 as f64);
        self.set("align.tier.scalar", t.tiers.scalar as f64);
        self.set("align.tier.escalations", t.tiers.escalations as f64);
        self.set(
            "align.escalation_ratio",
            ratio(t.tiers.escalations as f64, t.tiers.lanes8 as f64),
        );
        self.set("align.gcups_busy", ratio(t.cells as f64 / 1e9, t.busy_s));
        self.set("core.backend.calls", t.calls as f64);
        self.set("core.backend.busy_s", t.busy_s);
        self.set(
            "core.backend.idle_s",
            (wall_s * t.lanes.max(1) as f64 - t.busy_s).max(0.0),
        );
        self.set(
            "core.backend.pairs_per_call",
            ratio(t.pairs as f64, t.calls as f64),
        );
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of a run's per-iteration timings: the statistic every timing is
/// reported as. On a shared host, contention only ever adds time and
/// comes in spells of seconds to minutes, so a run's per-iteration times
/// are often bimodal; rank statistics (median, quartile, best) then jump
/// with how many iterations fell on either side, and the mean moved least
/// from run to run.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// "n iterations: min / median / max" of per-iteration seconds.
fn spread_note(what: &str, secs: &[f64]) -> String {
    let all: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    format!(
        "{what}: {} iterations, wall min {:.4} / median {:.4} / max {:.4} s: {}",
        secs.len(),
        percentile(secs, 0.0),
        median(secs),
        percentile(secs, 100.0),
        all.join(" ")
    )
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The measuring budget of one run: keep iterating while another
/// iteration of the last one's length still fits in `--seconds`, and
/// make at least [`MIN_ITERS`].
struct Clock {
    start: Instant,
    seconds: f64,
    last_s: f64,
}

impl Clock {
    fn new(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
            last_s: 0.0,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < MIN_ITERS || self.start.elapsed().as_secs_f64() + self.last_s <= self.seconds
    }

    /// Note how long the iteration just finished took.
    fn lap(&mut self, seconds: f64) {
        self.last_s = seconds;
    }
}

/// Times the timed region of one iteration: a workload's iteration
/// calls [`Meter::time`] once, around exactly the work a user waits on,
/// and prepares and checks outside it.
#[derive(Default)]
pub struct Meter {
    wall_s: f64,
    peak_mb: f64,
}

impl Meter {
    /// Run `f` as the timed region: its wall time and allocation peak.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (out, peak, wall) = measure(f);
        self.wall_s = wall;
        self.peak_mb = mib(peak);
        out
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_s
    }
}

/// What one iteration of a workload returns to [`drive`].
pub struct Iteration<T> {
    /// The iteration's output; every iteration must equal the first.
    pub output: T,
    /// Deterministic work counters; every iteration must equal the first.
    pub counters: Vec<(&'static str, u64)>,
    /// Operations attempted, and those of them that failed.
    pub ops: u64,
    pub failed: u64,
    /// Backend spans of a traced iteration.
    pub spans: Option<SpanTotals>,
}

/// What the iterations of a run left for the closing metrics.
pub struct Runs<T> {
    /// The first iteration's output.
    pub first: T,
    /// Wall seconds and peak heap (MiB) of the bare iterations.
    pub walls: Vec<f64>,
    pub peaks: Vec<f64>,
    /// Wall seconds of the traced iterations.
    pub traced_walls: Vec<f64>,
    pub setups: Vec<Setup>,
}

/// The measuring loop of every workload. Iterate for `--seconds` (at
/// least [`MIN_ITERS`] times); `iteration(traced, meter)` runs one
/// iteration, timing its region with `meter`. Traced runs alternate bare
/// and traced iterations, so the tracing overhead is measured against
/// bare iterations of the same run. Each iteration's output (compared by
/// `same`) and counters must equal the first's; failed operations count
/// in `failed_ratio`. After each iteration, [`SETUP_PROBES`] fresh
/// processes time the workload's set-up.
pub fn drive<T>(
    args: &Args,
    o: &mut Outcome,
    same: impl Fn(&T, &T) -> bool,
    mut iteration: impl FnMut(bool, &mut Meter) -> Iteration<T>,
) -> Runs<T> {
    let mut clock = Clock::new(args.seconds);
    let mut first: Option<T> = None;
    let (mut walls, mut peaks, mut traced_walls, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut done = 0;
    while clock.more(done) {
        let traced = args.trace && done % 2 == 1;
        let mut meter = Meter::default();
        let it = iteration(traced, &mut meter);
        clock.lap(meter.wall_s);
        if traced {
            traced_walls.push(meter.wall_s);
        } else {
            walls.push(meter.wall_s);
            peaks.push(meter.peak_mb);
        }
        if let Some(spans) = &it.spans {
            o.set_backend_layers(spans, meter.wall_s);
        }
        o.attempted += it.ops;
        if it.failed > 0 {
            o.fail(
                it.failed,
                format!(
                    "iteration {done}: {} of {} operations failed",
                    it.failed, it.ops
                ),
            );
        }
        o.expect_same_counters(done, &it.counters);
        match &first {
            None => first = Some(it.output),
            Some(f) if !same(f, &it.output) => o.fail(
                1,
                format!("iteration {done}: output differs from iteration 0"),
            ),
            Some(_) => {}
        }
        setups.extend(probe_setups(&args.workload).expect("set-up probes run"));
        done += 1;
    }
    Runs {
        first: first.expect("at least one iteration"),
        walls,
        peaks,
        traced_walls,
        setups,
    }
}

impl<T> Runs<T> {
    /// The metrics every workload reports the same way, given one
    /// iteration's DP cells and requests. Untraced: the end-to-end
    /// metrics but recall and precision, with both latency percentiles at
    /// the iteration's wall time (right where an iteration is one
    /// request; `serve-closed` sets its own). Traced: set-up layers and
    /// `trace.overhead_frac`.
    pub fn set_common(&self, o: &mut Outcome, trace: bool, cells: u64, requests: usize) {
        let setup = |f: fn(&Setup) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        if trace {
            o.set("setup.backend_build_s", setup(|s| s.build_s));
            o.set("setup.server_start_s", setup(|s| s.start_s));
            o.set(
                "trace.overhead_frac",
                ratio(mean(&self.traced_walls), mean(&self.walls)) - 1.0,
            );
        } else {
            let wall = mean(&self.walls);
            o.notes.push(spread_note("untraced", &self.walls));
            o.set("wall_s", wall);
            o.set("gcups", ratio(cells as f64 / 1e9, wall));
            o.set("peak_heap_mb", median(&self.peaks));
            o.set("setup_s", setup(|s| s.total_s));
            o.set("req_per_s", ratio(requests as f64, wall));
            o.set("latency_p50_ms", wall * 1e3);
            o.set("latency_p99_ms", wall * 1e3);
        }
    }
}

/// One set-up as a new process pays it (seconds): construction of the
/// backend (and server), and the total up to the first result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub total_s: f64,
    pub build_s: f64,
    pub start_s: f64,
}

/// Time [`SETUP_PROBES`] set-ups of `workload`, each in a fresh process
/// of this executable (`--setup-probe 1`), as every `logan_cli` run pays
/// it: thread-local workspaces, allocator arenas and page faults start
/// cold, and their cost varies per process, so one process's set-ups
/// are not a sample of it. Runs probe between timed iterations, so the
/// probes spread over the run like the iterations do.
fn probe_setups(workload: &str) -> Result<Vec<Setup>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--setup-probe", "1"])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let v: Vec<f64> = text
                .split_whitespace()
                .filter_map(|w| w.parse().ok())
                .collect();
            match v[..] {
                [total_s, build_s, start_s] if out.status.success() => Ok(Setup {
                    total_s,
                    build_s,
                    start_s,
                }),
                _ => Err(format!("set-up probe failed ({}): {text}", out.status)),
            }
        })
        .collect()
}

impl Setup {
    /// The line a probe process prints.
    pub fn print(&self) {
        println!("{} {} {}", self.total_s, self.build_s, self.start_s);
    }
}

/// The block every set-up ends with: one fixed pair (1 kb template, 15 %
/// divergence, independent of the workload seed). Set-up runs from
/// nothing to the first result, so state a backend builds eagerly or
/// lazily on first use counts in `setup_s` either way.
pub fn warmup_block() -> Vec<ReadPair> {
    PairSet::generate_with_lengths(1, 0.15, 1_000, 1_000, 0).pairs
}

/// Deterministic sample of up to `k` indices out of `0..n`, chosen by
/// `seed`: a seeded offset then an even stride.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let stride = n / k;
    let offset = (splitmix(seed) % stride as u64) as usize;
    (0..k).map(|i| offset + i * stride).collect()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identity of the running build (executable size and mtime), taken at
/// start-up; `None` when the executable cannot be inspected.
pub fn build_fingerprint() -> Option<String> {
    let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let built = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    Some(format!("build {} {built}", meta.len()))
}

/// Check `counters` against those an earlier run of the same build,
/// workload, seed and mode recorded next to the executable, or record
/// them when there is none. This holds exact counters equal run to run,
/// not only iteration to iteration. `Err` is a mismatch; `Ok` says what
/// was done (a ledger that cannot be read or written is skipped, as it
/// says nothing about the program's outputs).
pub fn check_counters_ledger(
    fingerprint: Option<&str>,
    name: &str,
    counters: &[(&'static str, u64)],
) -> Result<String, String> {
    let (Some(fingerprint), Some(dir)) = (
        fingerprint,
        std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.join("perfbench-counters"))),
    ) else {
        return Ok("counter ledger skipped: executable not found".into());
    };
    let path = dir.join(format!("{name}.txt"));
    let mut text = fingerprint.to_string();
    for (counter, value) in counters {
        text.push_str(&format!("\n{counter} {value}"));
    }
    match std::fs::read_to_string(&path) {
        Ok(old) if old.lines().next() == Some(fingerprint) => {
            if old == text {
                Ok(format!(
                    "counters match an earlier run ({})",
                    path.display()
                ))
            } else {
                Err(format!(
                    "counters differ from an earlier run of this build ({}):\n{old}\nnow:\n{text}",
                    path.display()
                ))
            }
        }
        _ => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
            Ok(match written {
                Ok(()) => format!("counters recorded in {}", path.display()),
                Err(e) => format!("counter ledger skipped: {}: {e}", path.display()),
            })
        }
    }
}

//! `pairs-gpu`: the paper's §VI-A pair recipe on one simulated V100
//! driven by one host thread (`logan_cli pairs --backend gpu`).

use crate::report::{drive, ratio, sample_indices, warmup_block, Iteration, Outcome, Setup};
use crate::traced::{SpanTotals, TracedBackend};
use crate::Args;
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_bella::threshold::AdaptiveThreshold;
use logan_bella::BellaConfig;
use logan_core::executor::{assemble_results, split_jobs};
use logan_core::{AlignBackend, BackendReport, GpuBackend, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::{PairSet, ReadPair};
use logan_seq::Scoring;
use std::time::Instant;

pub const PAIRS: usize = 250;
const X: i32 = 100;
const DIVERGENCE: f64 = 0.15;
const ORACLE_SAMPLE: usize = 16;

fn backend() -> GpuBackend {
    let mut cfg = LoganConfig::with_x(X);
    cfg.engine = Engine::Adaptive;
    GpuBackend::new(LoganExecutor::new(DeviceSpec::v100(), cfg), 1)
}

/// One set-up, as `--setup-probe` times it in a fresh process: build the
/// simulated device and its backend, then align the warm-up block.
pub fn setup_probe() -> Setup {
    let warm = warmup_block();
    let start = Instant::now();
    let gpu = backend();
    let build_s = start.elapsed().as_secs_f64();
    std::hint::black_box(gpu.align_block(&warm));
    Setup {
        total_s: start.elapsed().as_secs_f64(),
        build_s,
        start_s: 0.0,
    }
}

/// Every generated pair is a true overlap of its template. A pair counts
/// as recovered when its score clears BELLA's adaptive threshold at
/// that length (the rule the overlap workloads keep pairs by), so recall
/// is the recovered share and precision is 1 by construction.
pub fn recall(pairs: &[ReadPair], results: &[SeedExtendResult], x: i32) -> f64 {
    let cfg = BellaConfig::with_x(x);
    let threshold = AdaptiveThreshold::new(cfg.scoring, cfg.error_rate, cfg.delta);
    let kept = pairs
        .iter()
        .zip(results)
        .filter(|(p, r)| threshold.keep(r.score, p.template_len))
        .count();
    ratio(kept as f64, pairs.len() as f64)
}

/// Scalar-oracle check of a deterministic sample of `results`.
pub fn check_oracle(
    o: &mut Outcome,
    pairs: &[ReadPair],
    results: &[SeedExtendResult],
    x: i32,
    seed: u64,
    sample: usize,
) {
    let idx = sample_indices(pairs.len(), sample, seed);
    let picked: Vec<ReadPair> = idx.iter().map(|&i| pairs[i].clone()).collect();
    let oracle = XDropCpuAligner::new(1, Scoring::default(), x, Engine::Scalar);
    let (want, _) = oracle.align_block(&picked);
    for (&i, w) in idx.iter().zip(&want) {
        if results[i] != *w {
            o.fail(1, format!("pair {i} differs from the scalar oracle"));
        }
    }
    o.notes.push(format!(
        "oracle: {} sampled pairs re-aligned by the scalar engine",
        idx.len()
    ));
}

fn counters(results: &[SeedExtendResult], rep: &BackendReport) -> Vec<(&'static str, u64)> {
    let steps = results
        .iter()
        .map(|r| r.left.iterations + r.right.iterations)
        .sum();
    let totals = rep.kernel_reports.iter().map(|k| &k.stats.total);
    vec![
        ("cells", rep.total_cells),
        ("antidiag_steps", steps),
        ("sim_time_bits", rep.sim_time_s.to_bits()),
        ("launches", rep.launches as u64),
        (
            "warp_instructions",
            totals.clone().map(|t| t.warp_instructions).sum(),
        ),
        ("hbm_bytes", totals.map(|t| t.hbm_bytes()).sum()),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let pairs = PairSet::generate(PAIRS, DIVERGENCE, args.seed).pairs;
    let mut o = Outcome::default();
    o.notes
        .push(format!("input: {} pairs, X = {X}", pairs.len()));
    let plain = backend();
    let traced = args.trace.then(|| TracedBackend::new(backend()));

    let runs = drive(
        args,
        &mut o,
        |a: &(Vec<SeedExtendResult>, BackendReport), b| a.0 == b.0,
        |traced_iter, meter| {
            let (out, spans) = match &traced {
                Some(tb) if traced_iter => {
                    let out = meter.time(|| tb.align_block(&pairs));
                    (out, Some(SpanTotals::of(&tb.take_spans())))
                }
                _ => (meter.time(|| plain.align_block(&pairs)), None),
            };
            Iteration {
                counters: counters(&out.0, &out.1),
                ops: 1,
                failed: 0,
                spans,
                output: out,
            }
        },
    );
    runs.set_common(&mut o, args.trace, runs.first.1.total_cells, 1);
    let (results, rep) = runs.first;
    check_oracle(&mut o, &pairs, &results, X, args.seed, ORACLE_SAMPLE);

    if args.trace {
        executor_layers(&mut o, traced.as_ref().unwrap().inner(), &pairs, &results);
        let totals: Vec<_> = rep.kernel_reports.iter().map(|k| &k.stats.total).collect();
        let instr: u64 = totals.iter().map(|t| t.warp_instructions).sum();
        let hbm: u64 = totals.iter().map(|t| t.hbm_bytes()).sum();
        let kernel_s: f64 = rep.kernel_reports.iter().map(|k| k.sim_time_s()).sum();
        let busy: f64 = rep
            .kernel_reports
            .iter()
            .map(|k| k.schedule.utilization * k.sim_time_s())
            .sum();
        o.set("gpusim.sim_time_s", rep.sim_time_s);
        o.set("gpusim.sim_gcups", rep.gcups());
        o.set("gpusim.launches", rep.launches as f64);
        o.set("gpusim.warp_instructions", instr as f64);
        o.set("gpusim.hbm_bytes", hbm as f64);
        o.set("gpusim.ops_per_byte", ratio(instr as f64, hbm as f64));
        o.set("gpusim.utilization", ratio(busy, kernel_s));
    } else {
        o.set("overlap_recall", recall(&pairs, &results, X));
        o.set("overlap_precision", 1.0);
        o.notes.push(format!(
            "simulated: {:.6} s, {:.2} sim GCUPS, {} launches (traced run reports gpusim.*)",
            rep.sim_time_s,
            rep.gcups(),
            rep.launches
        ));
    }
    o
}

/// Time the three public steps `align_pairs` is made of — `split_jobs`,
/// two `extend_batch` calls, `assemble_results` — on one host thread,
/// as the backend's driver pool runs them, and check they reproduce the
/// backend's results.
fn executor_layers(
    o: &mut Outcome,
    gpu: &GpuBackend,
    pairs: &[ReadPair],
    want: &[SeedExtendResult],
) {
    let exec = gpu.executor();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(gpu.driver_threads())
        .build()
        .expect("driver pool");
    let start = Instant::now();
    let (left, right) = split_jobs(pairs);
    let split = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let ((left_res, _), (right_res, _)) =
        pool.install(|| (exec.extend_batch(&left), exec.extend_batch(&right)));
    let extend = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let results = assemble_results(pairs, &left_res, &right_res, exec.config.profile);
    let assemble = start.elapsed().as_secs_f64();
    if results != want {
        o.fail(1, "split/extend/assemble differs from align_block".into());
    }
    o.set("core.executor.split_s", split);
    o.set("core.executor.extend_s", extend);
    o.set("core.executor.assemble_s", assemble);
}

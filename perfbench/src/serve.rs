//! `serve-closed`: the threaded `logan_serve::Server` with its default
//! config over one CPU thread (adaptive engine), driven in a closed
//! loop: one client thread keeps one request outstanding per tenant.

use crate::pairs::{check_oracle, recall};
use crate::report::{
    drive, mean, median, percentile, ratio, sample_indices, warmup_block, Iteration, Outcome, Setup,
};
use crate::traced::{SpanTotals, TracedBackend};
use crate::Args;
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_core::AlignBackend;
use logan_seq::readsim::{PairSet, ReadPair};
use logan_seq::Scoring;
use logan_serve::{ReplyHandle, ServeConfig, ServeStats, Server, TenantId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 8;
const PAIRS_PER_REQUEST: usize = 4;
const TEMPLATE_LEN: (usize, usize) = (1_000, 3_000);
const X: i32 = 50;
/// Requests per episode; a run repeats episodes on one server.
pub const EPISODE: usize = 200;
const ORACLE_SAMPLE: usize = 16;

fn backend() -> XDropCpuAligner {
    XDropCpuAligner::new(1, Scoring::default(), X, Engine::Adaptive)
}

fn start(backend: Arc<dyn AlignBackend>) -> Server {
    Server::start(backend, ServeConfig::default()).expect("default config starts")
}

/// One set-up, as `--setup-probe` times it in a fresh process: build the
/// backend, start the server, and wait for the reply to the warm-up
/// block.
pub fn setup_probe() -> Setup {
    let warm = warmup_block();
    let t = Instant::now();
    let b: Arc<dyn AlignBackend> = Arc::new(backend());
    let build_s = t.elapsed().as_secs_f64();
    let server = start(b);
    let start_s = t.elapsed().as_secs_f64() - build_s;
    server
        .submit(0, warm)
        .recv()
        .expect("warm-up request is answered");
    let total_s = t.elapsed().as_secs_f64();
    server.shutdown();
    Setup {
        total_s,
        build_s,
        start_s,
    }
}

/// What one closed-loop episode measured.
struct Episode {
    results: Vec<Vec<SeedExtendResult>>,
    failed: u64,
    latencies_s: Vec<f64>,
    submit_s: f64,
}

/// Submit every request, keeping one outstanding per tenant: request
/// `i` belongs to tenant `i % TENANTS`, and a tenant's next request goes
/// in as soon as its previous reply is back. Replies come back in
/// submission order (one lane, FIFO coalescing), so waiting on the
/// oldest request times each reply when it arrives.
fn episode(server: &Server, requests: Vec<Vec<ReadPair>>) -> Episode {
    let n = requests.len();
    let mut ep = Episode {
        results: Vec::with_capacity(n),
        failed: 0,
        latencies_s: Vec::with_capacity(n),
        submit_s: 0.0,
    };
    let mut pending: VecDeque<(Instant, ReplyHandle)> = VecDeque::with_capacity(TENANTS);
    let mut requests = requests.into_iter().enumerate();
    let mut submit = |pending: &mut VecDeque<(Instant, ReplyHandle)>, submit_s: &mut f64| {
        if let Some((i, pairs)) = requests.next() {
            let t = Instant::now();
            let handle = server.submit((i % TENANTS) as TenantId, pairs);
            *submit_s += t.elapsed().as_secs_f64();
            pending.push_back((t, handle));
        }
    };
    for _ in 0..TENANTS {
        submit(&mut pending, &mut ep.submit_s);
    }
    while let Some((t, handle)) = pending.pop_front() {
        let reply = handle.recv();
        ep.latencies_s.push(t.elapsed().as_secs_f64());
        match reply {
            Ok(resp) => ep.results.push(resp.results),
            Err(_) => {
                ep.failed += 1;
                ep.results.push(Vec::new());
            }
        }
        submit(&mut pending, &mut ep.submit_s);
    }
    ep
}

fn counters(results: &[Vec<SeedExtendResult>]) -> Vec<(&'static str, u64)> {
    let all = results.iter().flatten();
    vec![
        ("cells", all.clone().map(|r| r.cells()).sum()),
        (
            "antidiag_steps",
            all.map(|r| r.left.iterations + r.right.iterations).sum(),
        ),
    ]
}

fn ledger_balances(s: &ServeStats) -> bool {
    s.submitted == s.completed + s.failed + s.over_quota + s.rejected_shutdown + s.deadline_exceeded
}

pub fn run(args: &Args) -> Outcome {
    let pool = PairSet::generate_with_lengths(
        EPISODE * PAIRS_PER_REQUEST,
        0.15,
        TEMPLATE_LEN.0,
        TEMPLATE_LEN.1,
        args.seed,
    )
    .pairs;
    let requests: Vec<Vec<ReadPair>> = pool.chunks(PAIRS_PER_REQUEST).map(|c| c.to_vec()).collect();
    let mut o = Outcome::default();
    o.notes.push(format!(
        "input: {EPISODE} requests x {PAIRS_PER_REQUEST} pairs per episode, {TENANTS} tenants, closed loop"
    ));

    let plain = start(Arc::new(backend()));
    let traced = args.trace.then(|| {
        let tb = Arc::new(TracedBackend::new(backend()));
        let server = start(tb.clone());
        (tb, server)
    });

    let mut latencies = Vec::new();
    let mut layer: Vec<[f64; 5]> = Vec::new();
    let runs = drive(
        args,
        &mut o,
        |a: &Vec<Vec<SeedExtendResult>>, b| a == b,
        |traced_iter, meter| {
            let batch = requests.clone();
            let traced_iter = traced.as_ref().filter(|_| traced_iter);
            let server = traced_iter.map_or(&plain, |(_, s)| s);
            let before = server.stats();
            let ep = meter.time(|| episode(server, batch));
            let after = server.stats();
            let spans = traced_iter.map(|(tb, _)| {
                let spans = SpanTotals::of(&tb.take_spans());
                let batches = (after.batches - before.batches) as f64;
                layer.push([
                    batches,
                    (after.coalesced_batches - before.coalesced_batches) as f64,
                    ratio((after.batched_pairs - before.batched_pairs) as f64, batches),
                    ratio(spans.busy_s, meter.wall_s()),
                    ep.submit_s,
                ]);
                spans
            });
            if traced_iter.is_none() {
                latencies.push(ep.latencies_s);
            }
            Iteration {
                counters: counters(&ep.results),
                ops: EPISODE as u64,
                failed: ep.failed,
                spans,
                output: ep.results,
            }
        },
    );
    let flat: Vec<SeedExtendResult> = runs.first.iter().flatten().copied().collect();
    let cells: u64 = flat.iter().map(|r| r.cells()).sum();
    runs.set_common(&mut o, args.trace, cells, EPISODE);
    let results = runs.first;

    // Exactly-once ledger over every server of the run.
    let mut servers = vec![plain];
    servers.extend(traced.map(|(_, s)| s));
    for server in &servers {
        let stats = server.shutdown();
        if !ledger_balances(&stats) || stats.completed != stats.submitted {
            o.fail(1, format!("serve ledger does not balance: {stats:?}"));
        }
    }

    // Sampled replies against a direct align_block and the scalar oracle.
    let direct = backend();
    for i in sample_indices(requests.len(), ORACLE_SAMPLE, args.seed) {
        if results[i] != direct.align_block(&requests[i]).0 {
            o.fail(1, format!("reply {i} differs from a direct align_block"));
        }
    }
    check_oracle(&mut o, &pool, &flat, X, args.seed, ORACLE_SAMPLE);

    if args.trace {
        let col = |c: usize| median(&layer.iter().map(|t| t[c]).collect::<Vec<_>>());
        o.set("serve.batches", col(0));
        o.set("serve.coalesced_batches", col(1));
        o.set("serve.pairs_per_batch", col(2));
        o.set("serve.lane_busy_frac", col(3));
        o.set("serve.submit_block_s", col(4));
    } else {
        o.set("overlap_recall", recall(&pool, &flat, X));
        o.set("overlap_precision", 1.0);
        // Each episode's percentiles (200 requests), averaged over
        // episodes like every timing; pooled ones for reference.
        let per_episode =
            |p: f64| -> Vec<f64> { latencies.iter().map(|l| percentile(l, p)).collect() };
        o.set("latency_p50_ms", mean(&per_episode(50.0)) * 1e3);
        o.set("latency_p99_ms", mean(&per_episode(99.0)) * 1e3);
        let all = latencies.concat();
        o.notes.push(format!(
            "latency samples: {} requests over {} episodes; pooled p50 {:.3} ms, p99 {:.3} ms",
            all.len(),
            latencies.len(),
            median(&all) * 1e3,
            percentile(&all, 99.0) * 1e3
        ));
    }
    o
}

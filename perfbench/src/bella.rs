//! `bella-spgemm` and `bella-minimizer-stream`: simulated long reads,
//! serialized to FASTA in memory, overlapped by the BELLA pipeline on
//! one CPU thread with the adaptive engine (`logan_cli overlap
//! --backend cpu:1 --engine adaptive`, with `--seeder minimizer
//! --stream` for the second).

use crate::report::{drive, median, sample_indices, warmup_block, Iteration, Outcome, Setup};
use crate::traced::{SpanTotals, TracedBackend};
use crate::Args;
use logan_align::{Engine, XDropCpuAligner};
use logan_bella::chain::chain_candidates;
use logan_bella::kmer_count::{count_kmers, count_reliable_sharded};
use logan_bella::matrix::KmerMatrix;
use logan_bella::prune::{reliable_bounds, reliable_kmers};
use logan_bella::spgemm::spgemm_candidates;
use logan_bella::{
    BellaConfig, BellaOutput, BellaPipeline, ChainConfig, MinimizerIndex, PipelineBudget, Seeder,
};
use logan_core::AlignBackend;
use logan_seq::fasta::{read_fasta, write_fasta, FastaBatches, Record};
use logan_seq::readsim::{random_seq, ReadBatch, ReadPair, ReadSet, SimulatedRead};
use logan_seq::{ErrorModel, ErrorProfile};
use logan_seq::{Scoring, Seq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const GENOME_LEN: usize = 15_000;
const DEPTH: f64 = 20.0;
const ERROR_RATE: f64 = 0.15;
const READ_LEN: (usize, usize) = (5_000, 10_000);
const X: i32 = 50;
const MIN_OVERLAP: usize = 2_000;
/// Kept overlaps re-aligned by the scalar oracle per run.
const ORACLE_SAMPLE: usize = 24;
/// A run fails when kept overlaps score below this against the truth.
const MIN_QUALITY: f64 = 0.9;
/// Reads per batch and per candidate tile of the streaming run. The
/// default budget (256) holds all 40 reads in one tile, so the producer
/// would send one block and the lane would start only after all
/// chaining; 8 makes five tiles flow through the bounded channel, so
/// producer/consumer overlap and backpressure are exercised.
const STREAM_BATCH_READS: usize = 8;

fn config(streaming: bool) -> BellaConfig {
    let defaults = BellaConfig::with_x(X);
    BellaConfig {
        k: 17,
        min_overlap: MIN_OVERLAP,
        depth: DEPTH,
        seeder: if streaming {
            Seeder::Minimizer
        } else {
            Seeder::SpGemm
        },
        minimizer_w: 8,
        budget: if streaming {
            PipelineBudget {
                batch_reads: STREAM_BATCH_READS,
                ..defaults.budget
            }
        } else {
            defaults.budget
        },
        ..defaults
    }
}

fn backend(engine: Engine) -> XDropCpuAligner {
    XDropCpuAligner::new(1, Scoring::default(), X, engine)
}

/// One set-up, as `--setup-probe` times it in a fresh process: build the
/// pipeline and backend, then align the warm-up block.
pub fn setup_probe(streaming: bool) -> Setup {
    let warm = warmup_block();
    let start = Instant::now();
    let pipeline = BellaPipeline::new(config(streaming));
    let backend = backend(Engine::Adaptive);
    let build_s = start.elapsed().as_secs_f64();
    std::hint::black_box((pipeline, backend.align_block(&warm)));
    Setup {
        total_s: start.elapsed().as_secs_f64(),
        build_s,
        start_s: 0.0,
    }
}

/// The timed region: parse the FASTA, run the pipeline, list the kept
/// overlaps.
fn overlap(
    pipeline: &BellaPipeline,
    backend: &dyn AlignBackend,
    fasta: &[u8],
) -> (BellaOutput, Vec<(usize, usize)>) {
    let out = if pipeline.config.seeder == Seeder::Minimizer {
        let mut batches = Vec::new();
        let mut start_id = 0;
        for records in FastaBatches::new(fasta, pipeline.config.budget.batch_reads) {
            let seqs: Vec<Seq> = records
                .expect("generated FASTA parses")
                .into_iter()
                .map(|r| r.seq)
                .collect();
            let n = seqs.len();
            batches.push(ReadBatch { start_id, seqs });
            start_id += n;
        }
        pipeline.run_streaming(batches, backend)
    } else {
        let seqs: Vec<Seq> = read_fasta(fasta)
            .expect("generated FASTA parses")
            .into_iter()
            .map(|r| r.seq)
            .collect();
        pipeline.run(&seqs, backend)
    };
    let kept = out.kept_pairs();
    (out, kept)
}

fn counters(out: &BellaOutput) -> Vec<(&'static str, u64)> {
    let steps: u64 = out
        .overlaps
        .iter()
        .map(|o| o.result.left.iterations + o.result.right.iterations)
        .sum();
    let t = &out.backend.tiers;
    vec![
        ("cells", out.stats.total_cells),
        ("antidiag_steps", steps),
        ("tier_i8", t.lanes8),
        ("tier_i16", t.lanes16),
        ("tier_scalar", t.scalar),
        ("escalations", t.escalations),
        ("candidates", out.stats.candidates as u64),
        ("kept", out.stats.kept as u64),
        ("matrix_nnz", out.stats.matrix_nnz as u64),
    ]
}

/// Reads of a uniform random genome: lengths in [`READ_LEN`], PacBio-like
/// errors, a fixed read count for [`DEPTH`]. Unlike `ReadSimulator`,
/// lengths and starts are stratified (one jittered value per equal slice
/// of each range, shuffled), so the amount of overlap work varies little
/// from seed to seed and run-to-run spread measures the code, not the
/// luck of read placement.
fn simulate_reads(seed: u64) -> ReadSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let genome = random_seq(GENOME_LEN, &mut rng);
    let model = ErrorModel::new(ErrorProfile::pacbio(ERROR_RATE));
    let mean_len = (READ_LEN.0 + READ_LEN.1) as f64 / 2.0;
    let n = (GENOME_LEN as f64 * DEPTH / mean_len).round() as usize;
    let stratified = |rng: &mut StdRng| -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + rng.gen_range(0.0..1.0)) / n as f64)
            .collect();
        for i in (1..n).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    };
    let lens = stratified(&mut rng);
    let slots = stratified(&mut rng);
    let placed: Vec<(usize, usize)> = lens
        .iter()
        .zip(&slots)
        .map(|(l, slot)| {
            let len = READ_LEN.0 + (l * (READ_LEN.1 - READ_LEN.0) as f64) as usize;
            ((slot * (GENOME_LEN - len) as f64) as usize, len)
        })
        .collect();
    let reads = placed
        .into_iter()
        .enumerate()
        .map(|(id, (start, len))| SimulatedRead {
            id,
            seq: model
                .corrupt(&genome.subseq(start, start + len), &mut rng)
                .0,
            start,
            end: start + len,
            reverse: false,
        })
        .collect();
    ReadSet {
        genome,
        reads,
        error_rate: ERROR_RATE,
    }
}

pub fn run(args: &Args, streaming: bool) -> Outcome {
    // Untimed input generation: reads, their FASTA bytes, the truth.
    let reads = simulate_reads(args.seed);
    let records: Vec<Record> = reads
        .reads
        .iter()
        .map(|r| Record {
            id: format!("read{}", r.id),
            seq: r.seq.clone(),
        })
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &records, 80).expect("in-memory write");
    drop(records);
    let truth = reads.true_overlaps(MIN_OVERLAP);
    let seqs: Vec<Seq> = reads.reads.iter().map(|r| r.seq.clone()).collect();

    let mut o = Outcome::default();
    o.notes.push(format!(
        "input: {} reads, {} FASTA bytes, {} true overlaps",
        seqs.len(),
        fasta.len(),
        truth.len()
    ));
    let pipeline = BellaPipeline::new(config(streaming));
    let plain = backend(Engine::Adaptive);
    let traced = args
        .trace
        .then(|| TracedBackend::new(backend(Engine::Adaptive)));

    let mut layer_times: Vec<[f64; 2]> = Vec::new();
    let runs = drive(
        args,
        &mut o,
        |a: &BellaOutput, b| a.overlaps == b.overlaps,
        |traced_iter, meter| {
            let (out, spans) = match &traced {
                Some(tb) if traced_iter => {
                    let t0 = tb.now_s();
                    let (out, _kept) = meter.time(|| overlap(&pipeline, tb, &fasta));
                    let t1 = tb.now_s();
                    let spans = SpanTotals::of(&tb.take_spans());
                    layer_times.push([spans.first_start_s - t0, t1 - spans.last_end_s]);
                    (out, Some(spans))
                }
                _ => (meter.time(|| overlap(&pipeline, &plain, &fasta)).0, None),
            };
            Iteration {
                counters: counters(&out),
                ops: 1,
                failed: 0,
                spans,
                output: out,
            }
        },
    );
    runs.set_common(&mut o, args.trace, runs.first.stats.total_cells, 1);
    let out = runs.first;

    // Output checks, untimed: truth and the scalar oracle.
    let quality = out.metrics(&truth);
    if quality.recall < MIN_QUALITY || quality.precision < MIN_QUALITY {
        o.fail(
            o.attempted,
            format!(
                "recall {:.4} / precision {:.4} below {MIN_QUALITY}",
                quality.recall, quality.precision
            ),
        );
    }
    let sample: Vec<usize> = sample_indices(out.overlaps.len(), ORACLE_SAMPLE, args.seed);
    let pairs: Vec<ReadPair> = sample
        .iter()
        .map(|&i| {
            let ov = &out.overlaps[i];
            ReadPair {
                query: seqs[ov.r1].clone(),
                target: seqs[ov.r2].clone(),
                seed: ov.seed,
                template_len: ov.est_overlap,
            }
        })
        .collect();
    let (oracle, _) = backend(Engine::Scalar).align_block(&pairs);
    for (&i, want) in sample.iter().zip(&oracle) {
        if out.overlaps[i].result != *want {
            o.fail(
                o.attempted,
                format!("overlap {i} differs from the scalar oracle"),
            );
        }
    }
    o.notes.push(format!(
        "oracle: {} sampled overlaps re-aligned by the scalar engine",
        sample.len()
    ));

    if args.trace {
        let stage = stage_times(&seqs, &config(streaming));
        for (name, value) in stage {
            o.set(name, value);
        }
        let col = |c: usize| median(&layer_times.iter().map(|t| t[c]).collect::<Vec<_>>());
        o.set("bella.candidates.s", col(0));
        o.set("bella.threshold.s", col(1));
        o.set("bella.matrix.nnz", out.stats.matrix_nnz as f64);
        o.set("bella.candidates", out.stats.candidates as f64);
        o.set("bella.kept", out.stats.kept as f64);
        let bytes: usize = out
            .overlaps
            .iter()
            .map(|ov| seqs[ov.r1].len() + seqs[ov.r2].len())
            .sum();
        o.set("bella.materialise.bytes", bytes as f64);
    } else {
        o.set("overlap_recall", quality.recall);
        o.set("overlap_precision", quality.precision);
    }
    o
}

/// Time the public stage functions the pipeline is built from, called
/// one after another on the same reads; medians of three passes.
fn stage_times(reads: &[Seq], cfg: &BellaConfig) -> Vec<(&'static str, f64)> {
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for _ in 0..3 {
        let mut t = Vec::new();
        let mut lap = {
            let mut last = Instant::now();
            move || {
                let now = Instant::now();
                let s = (now - last).as_secs_f64();
                last = now;
                s
            }
        };
        let bounds = reliable_bounds(cfg.depth, cfg.error_rate, cfg.k, cfg.tail);
        lap();
        match cfg.seeder {
            Seeder::SpGemm => {
                let counts = count_kmers(reads, cfg.k);
                t.push(("bella.kmer_count.s", lap()));
                let reliable = reliable_kmers(&counts, bounds);
                t.push(("bella.prune.s", lap()));
                let matrix = KmerMatrix::build(reads, cfg.k, &reliable);
                t.push(("bella.matrix.s", lap()));
                std::hint::black_box(spgemm_candidates(&matrix));
                t.push(("bella.spgemm.s", lap()));
            }
            Seeder::Minimizer => {
                let budget = cfg.budget.clamped();
                let (_, reliable) = count_reliable_sharded(reads, cfg.k, budget.shards, bounds);
                t.push(("bella.kmer_count.s", lap()));
                let mut index = MinimizerIndex::new(cfg.minimizer_w, cfg.k);
                index.push_batch(reads, &reliable);
                t.push(("bella.matrix.s", lap()));
                std::hint::black_box(chain_candidates(&index, ChainConfig::default()));
                t.push(("bella.chain.s", lap()));
            }
        }
        passes.push(t);
    }
    (0..passes[0].len())
        .map(|i| {
            let name = passes[0][i].0;
            (
                name,
                median(&passes.iter().map(|p| p[i].1).collect::<Vec<_>>()),
            )
        })
        .collect()
}

//! `TracedBackend`: an [`AlignBackend`] decorator that records one span
//! per `align_block` / `align_block_on` call, so every workload (bulk
//! BELLA calls, the streaming consumer lane, the serve lanes, the
//! simulated GPU) attributes backend busy and idle time the same way.
//! Only traced runs wrap; the end-to-end figures come from bare backends.

use logan_align::{SeedExtendResult, TierTally};
use logan_core::{AlignBackend, BackendReport};
use logan_seq::readsim::ReadPair;
use logan_seq::ScoreProfile;
use std::sync::Mutex;
use std::time::Instant;

/// One backend call.
#[derive(Debug, Clone)]
pub struct Span {
    pub lane: usize,
    /// Seconds since the decorator's epoch.
    pub start_s: f64,
    pub end_s: f64,
    pub pairs: usize,
    pub cells: u64,
    /// Anti-diagonal steps: Σ `iterations` of both extensions.
    pub steps: u64,
    pub tiers: TierTally,
}

pub struct TracedBackend<B> {
    inner: B,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl<B: AlignBackend> TracedBackend<B> {
    pub fn new(inner: B) -> TracedBackend<B> {
        TracedBackend {
            inner,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Seconds since the epoch, on the spans' clock.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Remove and return the spans recorded so far, in start order.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap());
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        spans
    }

    fn traced(
        &self,
        lane: usize,
        call: impl FnOnce() -> (Vec<SeedExtendResult>, BackendReport),
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        let start_s = self.now_s();
        let (results, report) = call();
        let end_s = self.now_s();
        let steps = results
            .iter()
            .map(|r| r.left.iterations + r.right.iterations)
            .sum();
        self.spans.lock().unwrap().push(Span {
            lane,
            start_s,
            end_s,
            pairs: results.len(),
            cells: report.total_cells,
            steps,
            tiers: report.tiers,
        });
        (results, report)
    }
}

impl<B: AlignBackend> AlignBackend for TracedBackend<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn throughput_hint(&self) -> f64 {
        self.inner.throughput_hint()
    }

    fn max_block(&self) -> usize {
        self.inner.max_block()
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        self.traced(0, || self.inner.align_block(block))
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn profile_params(&self) -> Option<(ScoreProfile, i32)> {
        self.inner.profile_params()
    }

    fn throughput_hint_on(&self, lane: usize) -> f64 {
        self.inner.throughput_hint_on(lane)
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        self.traced(lane, || self.inner.align_block_on(lane, block))
    }
}

/// Totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    pub calls: usize,
    pub pairs: usize,
    pub cells: u64,
    pub steps: u64,
    pub busy_s: f64,
    pub tiers: TierTally,
    /// Distinct lanes that made calls.
    pub lanes: usize,
    /// Start of the first call and end of the last (0 when no calls).
    pub first_start_s: f64,
    pub last_end_s: f64,
}

impl SpanTotals {
    pub fn of(spans: &[Span]) -> SpanTotals {
        let mut t = SpanTotals {
            first_start_s: spans
                .iter()
                .map(|s| s.start_s)
                .fold(f64::INFINITY, f64::min),
            last_end_s: spans.iter().map(|s| s.end_s).fold(0.0, f64::max),
            ..SpanTotals::default()
        };
        if spans.is_empty() {
            t.first_start_s = 0.0;
        }
        for s in spans {
            t.calls += 1;
            t.pairs += s.pairs;
            t.cells += s.cells;
            t.steps += s.steps;
            t.busy_s += s.end_s - s.start_s;
            t.tiers.merge(&s.tiers);
        }
        let mut lanes: Vec<usize> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        t.lanes = lanes.len();
        t
    }
}

//! Reading the program's `sgnn-obs` snapshot from outside.
//!
//! The benchmark opens its own spans (`bench.*`) around every public call
//! it times; the program's spans nest under them on the calling thread.
//! Everything here reads an [`ObsReport`] the program already exports and
//! adds no instrumentation to the program.

use crate::metrics::median;
use crate::Outcome;
use sgnn_obs::span::SpanStats;
use sgnn_obs::ObsReport;
use std::collections::BTreeMap;

/// Prefix of the benchmark's own spans.
pub const BENCH_PREFIX: &str = "bench.";

fn walk<'a>(spans: &'a [SpanStats], f: &mut impl FnMut(&'a SpanStats)) {
    for s in spans {
        f(s);
        walk(&s.children, f);
    }
}

fn children_ns(s: &SpanStats) -> u64 {
    s.children.iter().map(|c| c.total_ns).sum()
}

/// Seconds spent in every span called `name`, wherever it sits.
pub fn span_s(rep: &ObsReport, name: &str) -> f64 {
    let mut ns = 0u64;
    walk(&rep.spans, &mut |s| {
        if s.name == name {
            ns += s.total_ns;
        }
    });
    ns as f64 * 1e-9
}

/// Self seconds of every span called `name`: its time minus the time of
/// its child spans.
pub fn self_s(rep: &ObsReport, name: &str) -> f64 {
    let mut ns = 0u64;
    walk(&rep.spans, &mut |s| {
        if s.name == name {
            ns += s.total_ns.saturating_sub(children_ns(s));
        }
    });
    ns as f64 * 1e-9
}

/// Self times and coverage summed over a run's traced snapshots, plus the
/// wall times of its traced passes.
#[derive(Debug, Default)]
pub struct TraceSum {
    self_times: BTreeMap<String, f64>,
    /// Time of the program's leaf spans under the benchmark's top-level
    /// spans, and the time of those spans: `trace.coverage` is their ratio.
    leaf_s: f64,
    bench_s: f64,
    /// Wall seconds of each traced pass.
    pub jobs: Vec<f64>,
}

impl TraceSum {
    /// Adds one snapshot, taken after the program's work and the
    /// benchmark's spans around it have closed.
    pub fn add(&mut self, rep: &ObsReport) {
        walk(&rep.spans, &mut |s| {
            let own = s.total_ns.saturating_sub(children_ns(s)) as f64 * 1e-9;
            *self.self_times.entry(s.name.clone()).or_default() += own;
        });
        for top in rep.spans.iter().filter(|s| s.name.starts_with(BENCH_PREFIX)) {
            self.bench_s += top.total_ns as f64 * 1e-9;
            walk(&top.children, &mut |s| {
                if s.children.is_empty() {
                    self.leaf_s += s.total_ns as f64 * 1e-9;
                }
            });
        }
    }

    /// Records `trace.overhead` (traced against untraced pass time),
    /// `trace.coverage` and the self-time table into `out`.
    pub fn finish(self, untraced_jobs: &[f64], out: &mut Outcome) {
        let overhead = median(&self.jobs) / median(untraced_jobs) - 1.0;
        let coverage = if self.bench_s > 0.0 { self.leaf_s / self.bench_s } else { 0.0 };
        out.values.insert("trace.overhead".into(), overhead);
        out.values.insert("trace.coverage".into(), coverage);
        out.self_times = self.self_times;
    }
}

/// Value of the counter `name` (0 when it never fired).
pub fn counter(rep: &ObsReport, name: &str) -> f64 {
    rep.counters.iter().find(|c| c.name == name).map_or(0.0, |c| c.value as f64)
}

/// `(p50, p90, p99, sum)` of histogram `name` in milliseconds (zeros when
/// it recorded nothing).
pub fn hist_ms(rep: &ObsReport, name: &str) -> (f64, f64, f64, f64) {
    rep.histograms
        .iter()
        .find(|h| h.name == name && h.count > 0)
        .map_or((0.0, 0.0, 0.0, 0.0), |h| {
            (h.p50 as f64 * 1e-6, h.p90 as f64 * 1e-6, h.p99 as f64 * 1e-6, h.sum as f64 * 1e-6)
        })
}

/// Mean sampled frontier at `hop` (0 when no sampler ran).
pub fn frontier(rep: &ObsReport, hop: usize) -> f64 {
    rep.frontier.iter().find(|f| f.hop == hop).map_or(0.0, |f| f.mean_nodes)
}

/// The `n` largest entries of a self-time table, with each one's share of
/// the table's total.
pub fn top_self(acc: &BTreeMap<String, f64>, n: usize) -> Vec<(String, f64, f64)> {
    let total: f64 = acc.values().sum();
    let mut rows: Vec<(String, f64)> = acc.iter().map(|(k, v)| (k.clone(), *v)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(n);
    rows.into_iter().map(|(k, v)| (k, v, if total > 0.0 { v / total } else { 0.0 })).collect()
}

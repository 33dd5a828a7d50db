//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's metric surface; `BENCHMARK.json`
//! at the repository root lists the same names and units (a test keeps the
//! two in step). Every workload emits every metric of the table its mode
//! selects: end-to-end metrics with tracing off, per-layer metrics with
//! tracing on. A per-layer metric of a layer the workload leaves idle reads
//! 0, which is the measured value.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Every workload reports each
/// of them, so they are defined per workload rather than per trainer or
/// serving phase; the workload-specific results (per-trainer time to the
/// accuracy floor, serving throughput and latency) are the first entries
/// of the per-layer table and of each run's report line.
pub const END_TO_END: &[(&str, &str)] = &[
    // Input generation, plus the partition (train-full) or the serving
    // engine build (serve-zipf); median of the set-ups made in one run.
    ("setup_s", "s"),
    // Wall time of one pass of the workload's fixed job, median of the
    // passes that fit in the run: both trainer calls (train-*), or
    // draining a pre-filled queue of 4096 Zipf requests (serve-zipf).
    ("job_s", "s"),
];

/// Per-family names of the four trainers the training workloads call.
pub const FAMILIES: [&str; 4] = ["gcn_full", "gcn_sharded", "sage", "appnp"];

/// Per-family `core.<family>.<suffix>` metrics.
pub const FAMILY_METRICS: [(&str, &str); 6] = [
    ("forward_s", "s"),
    ("backward_s", "s"),
    ("backward_self_s", "s"),
    ("step_s", "s"),
    ("sample_s", "s"),
    ("peak_mem_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric except the per-family block,
/// which [`per_layer`] inserts after the linalg entries.
const PER_LAYER_HEAD: &[(&str, &str)] = &[
    // Workload results as the trainers and the serving loop report them.
    ("gcn_full.train_s", "s"),
    ("gcn_sharded.train_s", "s"),
    ("sage.train_s", "s"),
    ("appnp.train_s", "s"),
    ("peak_mem_mb", "MB"),
    ("test_acc", "ratio"),
    ("sat_qps", "1/s"),
    ("lat_p50_ms.lo", "ms"),
    ("lat_p90_ms.lo", "ms"),
    ("lat_p50_ms.hi", "ms"),
    ("lat_p90_ms.hi", "ms"),
    ("max_qps", "1/s"),
    // sgnn-data
    ("data.generate_s", "s"),
    // sgnn-graph
    ("graph.spmm_s", "s"),
    ("graph.spmm.calls", "count"),
    ("graph.spmm.gbytes_per_s", "GB/s"),
    // sgnn-linalg
    ("linalg.matmul_s", "s"),
    ("linalg.matmul.gflops", "GFLOP/s"),
    ("linalg.pool.dispatches", "count"),
    ("linalg.pool.idle_s", "s"),
    ("linalg.pool.steals", "count"),
];

const PER_LAYER_TAIL: &[(&str, &str)] = &[
    // sgnn-core pipeline
    ("core.pipeline.stall_s", "s"),
    ("core.pipeline.overlap_s", "s"),
    ("core.pipeline.prefetch_hits", "count"),
    // sgnn-sample
    ("sample.blocks_s", "s"),
    ("sample.frontier_hop1", "nodes"),
    ("sample.frontier_hop2", "nodes"),
    // sgnn-partition
    ("partition.s", "s"),
    ("partition.edge_cut", "ratio"),
    ("partition.nnz_skew", "ratio"),
    // sgnn-core shard / comm
    ("comm.halo_bytes", "bytes"),
    ("comm.allreduce_bytes", "bytes"),
    ("comm.halo_exchange_s", "s"),
    // sgnn-prop
    ("prop.precompute_s", "s"),
    // sgnn-serve store, cache, planner
    ("serve.precompute_s", "s"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.plan.full", "count"),
    ("serve.plan.sampled", "count"),
    // sgnn-serve batching
    ("serve.batch_mean.lo", "queries"),
    ("serve.batch_mean.hi", "queries"),
    ("serve.batch_service_p50_ms", "ms"),
    ("serve.batch_service_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms.hi", "ms"),
    ("serve.queue_wait_p90_ms.hi", "ms"),
    // Validity of the run itself.
    ("serve.gen_lag_p99_ms.lo", "ms"),
    ("serve.gen_lag_p99_ms.hi", "ms"),
    ("serve.lat_p99_ms.lo", "ms"),
    ("serve.lat_p99_ms.hi", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// How per-layer metrics that cannot be taken exactly from outside the
/// program are measured instead; printed with every traced report.
pub const STAND_INS: &[(&str, &str)] = &[
    (
        "serve.queue_wait_*",
        "the program's serve.queue.wait_ns histogram, which spans enqueue to answer; \
         the wait before batch admission alone is not exported",
    ),
    (
        "core.*.backward_self_s",
        "trainer.backward span minus all of its child spans (linalg.spmm, linalg.matmul); \
         the gradient reduction has no span of its own",
    ),
    (
        "trace.coverage",
        "time in the program's leaf spans over the time of the benchmark's bench.* spans, \
         on the calling thread; pool-worker and prefetch-thread spans are not nested under them",
    ),
    (
        "serve.batch_service_*",
        "the program's serve.batch.ns histogram over an extra traced hi phase, at its bucket \
         resolution; the headline latencies come from the untraced phases",
    ),
];

/// `(name, unit)` of every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER_HEAD.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for f in FAMILIES {
        for (suffix, unit) in FAMILY_METRICS {
            out.push((format!("core.{f}.{suffix}"), unit));
        }
    }
    out.extend(PER_LAYER_TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The `(name, unit)` list one mode emits.
pub fn table(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }
}

/// Attempted/failed operation counts plus a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; a failed one is recorded with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(why());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 32 {
            self.notes.push(why());
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Per-metric samples; a metric's value is the median of its samples.
#[derive(Debug, Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), median(v))).collect()
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; a non-finite value (never produced by a healthy run) is
/// written as `null` so the line stays parseable.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The `"metrics"` object for `table`, taking values from `values`; a
/// metric with no value is left out and reported by name in `missing`.
pub fn metrics_object(
    table: &[(String, &'static str)],
    values: &BTreeMap<String, f64>,
    missing: &mut Vec<String>,
) -> String {
    let mut parts = Vec::with_capacity(table.len());
    for (name, unit) in table {
        match values.get(name) {
            Some(v) if v.is_finite() => parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(name),
                jnum(*v),
                jstr(unit)
            )),
            _ => missing.push(name.clone()),
        }
    }
    format!("{{{}}}", parts.join(", "))
}

/// The final result line; the caller counts at least one operation.
pub fn result_line(checks: &Checks, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics
    )
}

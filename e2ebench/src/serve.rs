//! `serve-zipf`: a `ServeEngine` under Zipf(0.9) popularity, driven first
//! closed-loop (queue pre-filled) and then open-loop (Poisson arrivals at
//! fixed absolute rates from one generator thread).

use crate::metrics::{median, quantile, Samples};
use crate::trace::{self, TraceSum};
use crate::{guarded, run_passes, Outcome, RunCfg};
use rand::RngExt;
use sgnn_graph::{generate, CsrGraph, NodeId};
use sgnn_linalg::{DenseMatrix, QuantMode};
use sgnn_nn::Mlp;
use sgnn_serve::{
    run_server, AdmissionQueue, BatchConfig, PlannerConfig, PrecomputePolicy, ServeConfig,
    ServeEngine, ServeStats, ServedQuery, Strategy,
};
use std::time::{Duration, Instant};

/// Offered rates of the two fixed open-loop phases, queries per second.
/// Absolute constants below the closed-loop saturation of a 2-core host
/// (~5k q/s); never derived from a measured saturation.
pub const RATE_LO: f64 = 1_000.0;
pub const RATE_HI: f64 = 2_500.0;
/// p90 latency limit (from the due time) of the `max_qps` ladder.
pub const LAT_LIMIT_MS: f64 = 5.0;
/// The generator counts as on schedule while its p99 lag stays below this.
pub const LAG_LIMIT_MS: f64 = 1.0;
/// `max_qps` ladder: `RATE_HI · LADDER_STEP^k`, `k ∈ LADDER_K`.
pub const LADDER_STEP: f64 = 1.1;
pub const LADDER_K: std::ops::RangeInclusive<i32> = -9..=12;
/// Zipf exponent of node popularity (rank 0 = highest degree).
pub const ZIPF_S: f64 = 0.9;

/// Input size, closed-loop pass length and how a run's seconds are split.
#[derive(Debug, Clone)]
pub struct Scale {
    pub nodes: usize,
    /// Requests per closed-loop pass.
    pub closed_requests: usize,
    /// Requests replayed batched and one at a time for the bitwise check.
    pub replay_requests: usize,
    /// Set-ups per run (at least 3: the serving engine and the two replay
    /// engines); `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// BA(20k, 4) with 16-dim features.
    pub fn full() -> Self {
        Scale { nodes: 20_000, closed_requests: 4_096, replay_requests: 512, setups: 5 }
    }

    /// Smoke-test size.
    pub fn tiny() -> Self {
        Scale { nodes: 1_000, closed_requests: 256, replay_requests: 64, setups: 3 }
    }
}

/// Shares of the run's seconds spent in the closed loop and in each of the
/// `lo` and `hi` phases.
const CLOSED_SHARE: f64 = 0.5;
const PHASE_SHARE: f64 = 0.1;
/// Seconds of each try at a ladder rate. At `--seconds 30` the whole
/// upward ladder (top rate `RATE_HI · 1.1^12` ≈ 7.8k q/s) fits in the
/// open-loop share with room for a few retries; the ladder stops when that
/// share is spent.
const STEP_S: f64 = 0.5;

fn engine_config(n: usize) -> ServeConfig {
    ServeConfig {
        alpha: 0.15,
        policy: PrecomputePolicy::Hot { count: n / 20, eps: 1e-5 },
        planner: PlannerConfig {
            hub_degree: 48,
            hub_frontier: 16_384,
            full_eps: 1e-5,
            sampled_eps: 1e-3,
            escalate_below: None,
        },
        cache_capacity: 4_096,
        quant: QuantMode::F32,
        ..Default::default()
    }
}

/// Nodes ordered by popularity rank: highest degree first.
fn by_degree(g: &CsrGraph) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    v.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    v
}

/// Zipf(`s`) over ranks by inverse-CDF search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn trace(&self, ranked: &[NodeId], len: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = sgnn_linalg::rng::seeded(seed);
        let total = self.cdf[self.cdf.len() - 1];
        (0..len)
            .map(|_| {
                let u: f64 = rng.random();
                let r = self.cdf.partition_point(|&c| c < u * total).min(self.cdf.len() - 1);
                ranked[r]
            })
            .collect()
    }
}

/// Poisson arrival offsets (ns from phase start) at `rate` q/s.
fn poisson_due_ns(len: usize, rate: f64, seed: u64) -> Vec<u64> {
    let mut rng = sgnn_linalg::rng::seeded(seed);
    let mut t = 0.0f64;
    (0..len)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Counts answers that are missing, duplicated, out of place or answered
/// at a shed or degraded tier. `run_server` answers in arrival order, so
/// answer `i` belongs to request `i`.
pub fn failed_answers(sent: &[NodeId], served: &[ServedQuery]) -> u64 {
    let ok = sent
        .iter()
        .zip(served)
        .filter(|(&u, s)| {
            s.node == u
                && matches!(s.strategy, Strategy::Cached | Strategy::FullProp | Strategy::Sampled)
        })
        .count();
    (sent.len().max(served.len()) - ok) as u64
}

/// One open-loop phase as measured.
struct OpenPhase {
    /// Due time → answer ready, ms, ascending.
    lat_ms: Vec<f64>,
    /// Send time − due time, ms, ascending.
    lag_ms: Vec<f64>,
    batch_mean: f64,
    failed: u64,
    requests: u64,
}

impl OpenPhase {
    fn within_limit(&self) -> bool {
        self.failed == 0
            && quantile(&self.lat_ms, 0.9) <= LAT_LIMIT_MS
            && quantile(&self.lag_ms, 0.99) <= LAG_LIMIT_MS
    }
}

/// Closes the queue when dropped, so a generator that panics still ends
/// the serving loop.
struct CloseOnDrop<'a>(&'a AdmissionQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Sleeps, then spins, until `target`.
fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `nodes` at their due offsets from one generator thread while this
/// thread runs the serving loop.
fn open_loop(engine: &mut ServeEngine, nodes: &[NodeId], due_ns: &[u64]) -> OpenPhase {
    let queue = AdmissionQueue::new();
    let (served, lag_ns) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let _close = CloseOnDrop(&queue);
            let start = Instant::now() + Duration::from_millis(2);
            let mut lag = Vec::with_capacity(nodes.len());
            for (&u, &d) in nodes.iter().zip(due_ns) {
                let due = start + Duration::from_nanos(d);
                wait_until(due);
                lag.push(Instant::now().duration_since(due).as_nanos() as u64);
                queue.push(u);
            }
            lag
        });
        let served = run_server(engine, &queue, &BatchConfig::default());
        (served, generator.join().unwrap_or_default())
    });
    let failed = failed_answers(nodes, &served)
        + if lag_ns.len() == nodes.len() { 0 } else { nodes.len() as u64 };
    let mut lat_ms: Vec<f64> =
        served.iter().zip(&lag_ns).map(|(s, &lag)| (s.latency_ns + lag) as f64 * 1e-6).collect();
    lat_ms.sort_by(f64::total_cmp);
    let mut lag_ms: Vec<f64> = lag_ns.iter().map(|&l| l as f64 * 1e-6).collect();
    lag_ms.sort_by(f64::total_cmp);
    let inv_batches: f64 = served.iter().map(|s| 1.0 / s.batch_size.max(1) as f64).sum();
    let batch_mean = if inv_batches > 0.0 { served.len() as f64 / inv_batches } else { 0.0 };
    OpenPhase { lat_ms, lag_ms, batch_mean, failed, requests: nodes.len() as u64 }
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs the serving workload.
pub fn run(scale: &Scale, cfg: &RunCfg) -> Outcome {
    // Generator thread + one serving thread = the host's 2 cores.
    sgnn_linalg::par::set_threads(1);
    let mut out = Outcome::default();
    let n = scale.nodes;
    let mut setup = Samples::default();
    let mut engines = Vec::new();
    let mut graph = None;
    for _ in 0..scale.setups.max(3) {
        let t = Instant::now();
        let g = generate::barabasi_albert(n, 4, cfg.seed);
        let x = DenseMatrix::gaussian(n, 16, 1.0, cfg.seed.wrapping_add(1));
        let head = Mlp::new(&[16, 32, 8], 0.0, cfg.seed.wrapping_add(2));
        setup.push("data.generate_s", t.elapsed().as_secs_f64());
        let te = Instant::now();
        let engine = ServeEngine::new(g.clone(), x, head, engine_config(n));
        setup.push("serve.precompute_s", te.elapsed().as_secs_f64());
        setup.push("setup_s", t.elapsed().as_secs_f64());
        engines.push(engine);
        graph = Some(g);
    }
    out.values.extend(setup.medians());
    let ranked = by_degree(graph.as_ref().expect("at least one set-up"));
    let zipf = Zipf::new(n, ZIPF_S);

    // Untimed replay: batched answers must equal one-at-a-time answers
    // bit for bit (DESIGN.md §12), on two engines built like the serving
    // one.
    let mut solo = engines.pop().expect("replay engine");
    let mut batched = engines.pop().expect("replay engine");
    let mut engine = engines.pop().expect("serving engine");
    let prefix = zipf.trace(&ranked, scale.replay_requests, cfg.seed ^ 0x5eed);
    let replay = guarded(|| {
        let mut failed = Vec::new();
        let mut i = 0usize;
        for chunk in prefix.chunks(64) {
            let logits = bits(&batched.serve_batch(chunk));
            let width = logits.len() / chunk.len().max(1);
            for (row, &u) in chunk.iter().enumerate() {
                let (one, _) = solo.serve_one(u);
                let one: Vec<u32> = one.iter().map(|v| v.to_bits()).collect();
                if one[..] != logits[row * width..(row + 1) * width] {
                    failed.push(i);
                }
                i += 1;
            }
        }
        failed
    });
    match replay {
        Ok(failed) => out.checks.ops(prefix.len() as u64, failed.len() as u64, || {
            format!("replay: batched logits differ from one-at-a-time at requests {failed:?}")
        }),
        Err(p) => out.checks.op(false, || format!("replay panicked: {p}")),
    }
    drop((solo, batched));

    // Closed loop: each pass pre-fills the queue with a fresh Zipf trace
    // and drains it. Pass 0 fills the LRU cache, which a long-running
    // server pays once, so it is checked but not timed.
    let mut untraced_jobs = Vec::new();
    let mut traced = TraceSum::default();
    let mut counts = Samples::default();
    let min_passes = if cfg.traced { 3 } else { 2 };
    run_passes(cfg.seconds * CLOSED_SHARE, min_passes, |i| {
        let tracing = cfg.traced && i % 2 == 1;
        let nodes =
            zipf.trace(&ranked, scale.closed_requests, cfg.seed.wrapping_add(1_000 + i as u64));
        let queue = AdmissionQueue::new();
        for &u in &nodes {
            queue.push(u);
        }
        queue.close();
        if tracing {
            sgnn_obs::enable();
            sgnn_obs::reset();
        }
        let before = engine.stats().clone();
        let t = Instant::now();
        let served = {
            let _sp = sgnn_obs::span::SpanGuard::enter("bench.closed_loop");
            guarded(|| run_server(&mut engine, &queue, &BatchConfig::default()))
        };
        let wall = t.elapsed().as_secs_f64();
        if tracing {
            sgnn_obs::disable();
            let rep = sgnn_obs::report();
            // The serving head is the only linalg work here.
            let matmul_s = trace::span_s(&rep, "linalg.matmul");
            let flops = trace::counter(&rep, "linalg.matmul.flops");
            counts.push("linalg.matmul_s", matmul_s);
            counts.push(
                "linalg.matmul.gflops",
                if matmul_s > 0.0 { flops / matmul_s * 1e-9 } else { 0.0 },
            );
            traced.add(&rep);
            traced.jobs.push(wall);
        } else if i > 0 {
            untraced_jobs.push(wall);
        }
        let served = served.unwrap_or_default();
        let failed = failed_answers(&nodes, &served);
        out.checks.ops(nodes.len() as u64, failed, || {
            format!("closed loop pass {i}: {failed} bad answers")
        });
        if i > 0 {
            pass_counts(&before, engine.stats(), &mut counts);
        }
        wall
    });
    out.values.insert("job_s".into(), median(&untraced_jobs));
    out.values.insert("sat_qps".into(), scale.closed_requests as f64 / median(&untraced_jobs));
    out.values.extend(counts.medians());

    // Open loop at the two fixed rates, then the max_qps ladder, all
    // untraced; a traced run adds one traced `hi` phase for the batching
    // histograms.
    let mut run_phase = |engine: &mut ServeEngine, rate: f64, secs: f64, tag: u64| {
        let len = ((rate * secs) as usize).max(16);
        let nodes = zipf.trace(&ranked, len, cfg.seed.wrapping_add(2_000 + tag));
        let due = poisson_due_ns(len, rate, cfg.seed.wrapping_add(3_000 + tag));
        let phase = {
            let _sp = sgnn_obs::span::SpanGuard::enter("bench.open_loop");
            guarded(|| open_loop(engine, &nodes, &due))
        };
        match &phase {
            Ok(p) => {
                eprintln!(
                    "open loop {rate:.0} q/s x {len}: p50 {:.3} ms, p90 {:.3} ms, \
                     lag p99 {:.3} ms, {} failed, within limit: {}",
                    quantile(&p.lat_ms, 0.5),
                    quantile(&p.lat_ms, 0.9),
                    quantile(&p.lag_ms, 0.99),
                    p.failed,
                    p.within_limit()
                );
                out.checks.ops(p.requests, p.failed, || {
                    format!("open loop {rate:.0} q/s: {} bad answers", p.failed)
                });
            }
            Err(e) => out.checks.op(false, || format!("open loop {rate:.0} q/s panicked: {e}")),
        }
        phase.ok()
    };
    let phase_s = cfg.seconds * PHASE_SHARE;
    let t_open = Instant::now();
    for (label, rate, tag) in [("lo", RATE_LO, 0), ("hi", RATE_HI, 1)] {
        if let Some(p) = run_phase(&mut engine, rate, phase_s, tag) {
            let v = &mut out.values;
            v.insert(format!("lat_p50_ms.{label}"), quantile(&p.lat_ms, 0.5));
            v.insert(format!("lat_p90_ms.{label}"), quantile(&p.lat_ms, 0.9));
            v.insert(format!("serve.lat_p99_ms.{label}"), quantile(&p.lat_ms, 0.99));
            v.insert(format!("serve.gen_lag_p99_ms.{label}"), quantile(&p.lag_ms, 0.99));
            v.insert(format!("serve.batch_mean.{label}"), p.batch_mean);
        }
    }
    // Walk the ladder from the `hi` rate: up while each step keeps p90
    // within the limit on schedule, down while it misses. A step misses
    // only when two tries at its rate miss, so that one stall of a shared
    // host does not end the walk.
    let mut max_qps = 0.0;
    let mut up = None;
    let mut k: i32 = 0;
    while LADDER_K.contains(&k)
        && t_open.elapsed().as_secs_f64() < cfg.seconds * (1.0 - CLOSED_SHARE)
    {
        let rate = RATE_HI * LADDER_STEP.powi(k);
        let ok = (0..2).any(|t| {
            run_phase(&mut engine, rate, STEP_S, 100 + 2 * (k + 20) as u64 + t)
                .is_some_and(|p| p.within_limit())
        });
        if ok {
            max_qps = rate;
        }
        let dir = *up.get_or_insert(ok);
        if ok != dir {
            break;
        }
        k += if dir { 1 } else { -1 };
    }
    if cfg.traced {
        sgnn_obs::enable();
        sgnn_obs::reset();
        let phase = run_phase(&mut engine, RATE_HI, phase_s, 2);
        sgnn_obs::disable();
        if phase.is_some() {
            let rep = sgnn_obs::report();
            let (svc50, _, svc99, _) = trace::hist_ms(&rep, "serve.batch.ns");
            let (w50, w90, _, _) = trace::hist_ms(&rep, "serve.queue.wait_ns");
            let v = &mut out.values;
            v.insert("serve.batch_service_p50_ms".into(), svc50);
            v.insert("serve.batch_service_p99_ms".into(), svc99);
            v.insert("serve.queue_wait_p50_ms.hi".into(), w50);
            v.insert("serve.queue_wait_p90_ms.hi".into(), w90);
            traced.add(&rep);
        }
    }
    out.values.insert("max_qps".into(), max_qps);
    let stats = engine.stats();
    out.checks.op(stats.shed == 0 && stats.degraded == 0, || {
        format!("engine shed {} and degraded {} requests", stats.shed, stats.degraded)
    });

    if cfg.traced {
        traced.finish(&untraced_jobs, &mut out);
    }
    out.headline = vec![
        "setup_s",
        "sat_qps",
        "lat_p50_ms.lo",
        "lat_p90_ms.lo",
        "lat_p50_ms.hi",
        "lat_p90_ms.hi",
        "max_qps",
    ];
    out
}

/// Store, cache and planner counts of one closed-loop pass.
fn pass_counts(before: &ServeStats, after: &ServeStats, counts: &mut Samples) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let requests = d(after.requests, before.requests);
    let hits = d(after.cache_hits, before.cache_hits);
    let probes = hits + d(after.cache_misses, before.cache_misses);
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    counts.push("serve.store.hit_ratio", ratio(d(after.store_hits, before.store_hits), requests));
    counts.push("serve.cache.hit_ratio", ratio(hits, probes));
    counts.push("serve.cache.evictions", d(after.cache_evictions, before.cache_evictions));
    counts.push("serve.plan.full", d(after.plan_full, before.plan_full));
    counts.push("serve.plan.sampled", d(after.plan_sampled, before.plan_sampled));
}

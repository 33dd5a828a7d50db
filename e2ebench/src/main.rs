//! `e2ebench` — the sgnn benchmark: three fixed workloads driven through
//! the public API of the `sgnn-*` crates, with end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train-full --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (`--workload`):
//!
//! - `train-full` — `train_full_gcn` and `train_sharded_gcn` (k=2
//!   multilevel partition, Exact regime) on the quickstart SBM graph.
//!   Whole-graph SpMM, the fixed-point gradient reduction on 20k-row
//!   matrices, partition and halo exchange work; sampling and serving idle.
//! - `train-minibatch` — `train_sampled` (GraphSAGE 10×10, batch 512,
//!   prefetch) and `train_decoupled` (APPNP α=0.15, k=10) on the same
//!   graph. Sampling, the prefetch pipeline and propagation precompute
//!   work; SpMM on small blocks, the reduction on 512-row batches.
//! - `serve-zipf` — a `ServeEngine` over BA(20k, 4) under Zipf(0.9)
//!   popularity: closed loop, then Poisson open loop at fixed rates and a
//!   `max_qps` ladder. Store, cache, planner, push and batching work;
//!   the training layers idle.
//!
//! Standard output ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! a report with the host stamp, the workload's headline results, failed
//! checks, and (traced) the top self-time spans.

mod metrics;
mod serve;
mod trace;
mod train;

use metrics::{jnum, jstr, Checks};
use rand::RngExt;
use std::collections::BTreeMap;
use std::time::Instant;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub values: BTreeMap<String, f64>,
    /// Self seconds by span name over the traced passes.
    pub self_times: BTreeMap<String, f64>,
    /// The workload's own results, named as users read them.
    pub headline: Vec<&'static str>,
}

pub const WORKLOADS: [&str; 3] = ["train-full", "train-minibatch", "serve-zipf"];

/// Runs `f`, turning a panic into an `Err` with its message, so one
/// failing call is counted as a failure instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Runs passes (`pass(i)` returns its seconds) while the next one is
/// expected to end within `budget_s`, judged by the longest pass so far;
/// always runs at least `min` passes.
pub fn run_passes(budget_s: f64, min: usize, mut pass: impl FnMut(usize) -> f64) {
    let t = Instant::now();
    let mut longest = 0.0f64;
    let mut i = 0;
    while i < min || t.elapsed().as_secs_f64() + longest <= budget_s {
        let secs = pass(i);
        eprintln!("pass {i}: {secs:.4} s");
        longest = longest.max(secs);
        i += 1;
    }
}

/// Runs one workload at the given scale.
pub fn run_workload(workload: &str, cfg: &RunCfg, tiny: bool) -> Option<Outcome> {
    let train_scale = if tiny { train::Scale::tiny() } else { train::Scale::full() };
    Some(match workload {
        "train-full" => train::run(train::Kind::Full, &train_scale, cfg),
        "train-minibatch" => train::run(train::Kind::Minibatch, &train_scale, cfg),
        "serve-zipf" => {
            serve::run(&if tiny { serve::Scale::tiny() } else { serve::Scale::full() }, cfg)
        }
        _ => return None,
    })
}

/// Commit of the checkout when it is a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| format!("unresolved {r}")),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// Host speed at memory-bound work: milliseconds of 1M dependent loads
/// along one random cycle over 8 MiB, median of three. It enters no
/// metric; the report line carries it from the start and the end of the
/// run, so a slow phase of a shared host shows apart from a slower program.
fn host_probe_ms() -> f64 {
    let n = 2usize << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = sgnn_linalg::rng::seeded(0x5eed);
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..n).rev() {
        let j = rng.random_range(0..i);
        next.swap(i, j);
    }
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut i = 0usize;
            for _ in 0..n / 2 {
                i = next[i] as usize;
            }
            std::hint::black_box(i);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics::median(&times)
}

/// Steal and total jiffies over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    Some((*f.get(7)?, f.iter().sum()))
}

/// How fast the host ran around one workload run.
struct HostSpeed {
    probe_ms: (f64, f64),
    /// Share of CPU time the hypervisor took from this machine.
    steal: Option<f64>,
}

/// Runs `f` between two host probes.
fn timed_host<T>(f: impl FnOnce() -> T) -> (T, HostSpeed) {
    let j0 = cpu_jiffies();
    let p0 = host_probe_ms();
    let v = f();
    let p1 = host_probe_ms();
    let steal = match (j0, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    (v, HostSpeed { probe_ms: (p0, p1), steal })
}

/// Host stamp: CPU model, cores, thread setting, SIMD backend, commit,
/// and how fast the host ran.
fn host_json(speed: &HostSpeed) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("SGNN_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"sgnn_threads\": {}, \"pool_threads\": {}, \"simd\": {}, \"commit\": {}, \
         \"probe_ms\": [{}, {}], \"steal_share\": {}}}",
        jstr(&cpu),
        jstr(&threads),
        sgnn_linalg::par::num_threads(),
        jstr(sgnn_linalg::simd::active_backend()),
        jstr(&commit()),
        jnum(speed.probe_ms.0),
        jnum(speed.probe_ms.1),
        speed.steal.map_or("null".into(), jnum)
    )
}

/// Fills the traced table's metrics the run left unmeasured with 0 and
/// returns their names: the layers the workload leaves idle, and the
/// results of any call that failed (listed under `failures`).
fn zero_idle(out: &mut Outcome, table: &[(String, &'static str)]) -> Vec<String> {
    let mut idle = Vec::new();
    for (name, _) in table {
        if !out.values.contains_key(name) {
            out.values.insert(name.clone(), 0.0);
            idle.push(name.clone());
        }
    }
    idle
}

/// The report line that precedes the result line.
fn report_line(
    workload: &str,
    cfg: &RunCfg,
    speed: &HostSpeed,
    out: &Outcome,
    idle: &[String],
    missing: &[String],
) -> String {
    let units: BTreeMap<String, &str> = metrics::per_layer()
        .into_iter()
        .chain(metrics::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect();
    let headline: Vec<String> = out
        .headline
        .iter()
        .filter_map(|&n| {
            let v = out.values.get(n)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                jnum(*v),
                jstr(units.get(n).copied().unwrap_or(""))
            ))
        })
        .collect();
    let list = |xs: &[String]| xs.iter().map(|x| jstr(x)).collect::<Vec<_>>().join(", ");
    let stand_ins: Vec<String> = if cfg.traced {
        metrics::STAND_INS.iter().map(|(m, how)| format!("{}: {}", jstr(m), jstr(how))).collect()
    } else {
        Vec::new()
    };
    let top: Vec<String> = trace::top_self(&out.self_times, 12)
        .into_iter()
        .map(|(name, s, share)| {
            format!(
                "{{\"span\": {}, \"self_s\": {}, \"share\": {}}}",
                jstr(&name),
                jnum(s),
                jnum(share)
            )
        })
        .collect();
    format!(
        "{{\"e2ebench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"headline\": {{{}}}, \"failures\": [{}], \"zeroed\": [{}], \"missing\": [{}], \"stand_ins\": {{{}}}, \"self_time_top\": [{}]}}}}",
        jstr(workload),
        cfg.seed,
        jnum(cfg.seconds),
        cfg.traced as u8,
        host_json(speed),
        headline.join(", "),
        list(&out.checks.notes),
        list(idle),
        list(missing),
        stand_ins.join(", "),
        top.join(", ")
    )
}

/// Runs a workload and returns `(report line, result line)`.
pub fn execute(workload: &str, cfg: &RunCfg, tiny: bool) -> Option<(String, String)> {
    let (out, speed) = timed_host(|| run_workload(workload, cfg, tiny));
    let mut out = out?;
    if out.checks.attempted == 0 {
        out.checks.op(false, || "no operation ran".into());
    }
    let table = metrics::table(cfg.traced);
    let idle = if cfg.traced { zero_idle(&mut out, &table) } else { Vec::new() };
    let mut missing = Vec::new();
    let metrics = metrics::metrics_object(&table, &out.values, &mut missing);
    if !missing.is_empty() {
        out.checks.op(false, || format!("metrics not measured: {missing:?}"));
    }
    Some((
        report_line(workload, cfg, &speed, &out, &idle, &missing),
        metrics::result_line(&out.checks, &metrics),
    ))
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunCfg { seed: 0, seconds: 30.0, traced: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {val}")) };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => cfg.seed = val.parse().unwrap_or_else(|_| bad()),
            "--seconds" => cfg.seconds = val.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                cfg.traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let (report, result) = execute(&workload, &cfg, false)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    println!("{report}");
    println!("{result}");
}

#[cfg(test)]
mod tests;

//! `train-full` and `train-minibatch`: trainer calls over the quickstart
//! SBM graph, timed as whole calls (time to the validation floor).

use crate::metrics::{median, Checks, Samples};
use crate::trace::{self, TraceSum};
use crate::{guarded, run_passes, Outcome, RunCfg};
use sgnn_core::models::decoupled::PrecomputeMethod;
use sgnn_core::shard::train_sharded_gcn;
use sgnn_core::trainer::{
    train_decoupled, train_full_gcn, train_sampled, SamplerKind, TrainConfig, TrainReport,
};
use sgnn_data::{sbm_dataset, Dataset};
use sgnn_obs::ObsReport;
use sgnn_partition::metrics::quality;
use sgnn_partition::multilevel::{multilevel_partition, MultilevelConfig};
use sgnn_partition::Partition;
use std::collections::BTreeMap;
use std::time::Instant;

/// Validation accuracy each trainer must reach within its epoch schedule
/// on every seed; the schedules clear these with a margin of at least 0.05
/// at full size.
pub const VAL_FLOOR_GCN: f64 = 0.85;
pub const VAL_FLOOR_SAGE: f64 = 0.75;
pub const VAL_FLOOR_APPNP: f64 = 0.85;

/// Epoch schedules, the same at every size.
pub const GCN_EPOCHS: usize = 16;
pub const SAGE_EPOCHS: usize = 4;
pub const APPNP_EPOCHS: usize = 10;

/// Input size.
#[derive(Debug, Clone)]
pub struct Scale {
    pub nodes: usize,
    pub sage_batch: usize,
    /// Set-ups before each pass; `setup_s` is the median of all of them.
    pub setups_per_pass: usize,
}

impl Scale {
    /// The quickstart graph: 20k nodes, 5 classes, degree 10, homophily
    /// 0.85, 32 features.
    pub fn full() -> Self {
        Scale { nodes: 20_000, sage_batch: 512, setups_per_pass: 5 }
    }

    /// Smoke-test size.
    pub fn tiny() -> Self {
        Scale { nodes: 2_000, sage_batch: 64, setups_per_pass: 1 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full-graph GCN, single process and k=2 sharded (Exact regime).
    Full,
    /// Node-wise GraphSAGE 10×10 with prefetch, and decoupled APPNP.
    Minibatch,
}

/// `Ok` when the sharded report equals the single-process one bit for
/// bit on every field the sharded≡single contract covers.
pub fn sharded_matches(full: &TrainReport, sharded: &TrainReport) -> Result<(), String> {
    let same = full.final_loss.to_bits() == sharded.final_loss.to_bits()
        && full.val_acc.to_bits() == sharded.val_acc.to_bits()
        && full.test_acc.to_bits() == sharded.test_acc.to_bits()
        && full.epochs_run == sharded.epochs_run;
    if same {
        Ok(())
    } else {
        Err(format!(
            "gcn_sharded diverged from gcn_full: loss {:?} vs {:?}, val {} vs {}, test {} vs {}, \
             epochs {} vs {}",
            sharded.final_loss,
            full.final_loss,
            sharded.val_acc,
            full.val_acc,
            sharded.test_acc,
            full.test_acc,
            sharded.epochs_run,
            full.epochs_run
        ))
    }
}

/// Runs one trainer workload.
pub fn run(kind: Kind, scale: &Scale, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Samples::default();
    let mut inputs: Option<(Dataset, Option<Partition>)> = None;
    let set_up = |setup: &mut Samples| {
        let t = Instant::now();
        let ds = sbm_dataset(scale.nodes, 5, 10.0, 0.85, 32, 1.0, 0, 0.5, 0.25, cfg.seed);
        let gen_s = t.elapsed().as_secs_f64();
        let mut part = None;
        if kind == Kind::Full {
            let tp = Instant::now();
            part = Some(multilevel_partition(&ds.graph, 2, &MultilevelConfig::default()));
            setup.push("partition.s", tp.elapsed().as_secs_f64());
        }
        let setup_s = t.elapsed().as_secs_f64();
        eprintln!("set-up: {setup_s:.4} s (generation {gen_s:.4} s)");
        setup.push("setup_s", setup_s);
        setup.push("data.generate_s", gen_s);
        (ds, part)
    };

    let base = TrainConfig { hidden: vec![32], seed: cfg.seed, ..Default::default() };
    let mut untraced_jobs = Vec::new();
    let mut traced = TraceSum::default();
    let mut layer = Samples::default();
    let mut results = Samples::default();
    // With tracing on, passes alternate untraced/traced so the run also
    // measures the tracing overhead; per-layer values come from the traced
    // passes only.
    let min_passes = if cfg.traced { 2 } else { 1 };
    // train-minibatch: the sampler's prefetch thread takes one core and the
    // pool the rest. Sharing cores, its thousands of small pool jobs per
    // pass stretch with every stall of the host.
    if kind == Kind::Minibatch {
        sgnn_linalg::par::set_threads(sgnn_linalg::par::num_threads().saturating_sub(1).max(1));
    }
    run_passes(cfg.seconds, min_passes, |i| {
        // The set-ups are spread over the run, a few before each pass, so
        // that `setup_s` samples the host across the whole run.
        let t_setup = Instant::now();
        for _ in 0..scale.setups_per_pass {
            inputs = Some(set_up(&mut setup));
        }
        let setup_s = t_setup.elapsed().as_secs_f64();
        let (ds, part) = inputs.as_ref().expect("at least one set-up");
        let tracing = cfg.traced && i % 2 == 1;
        if tracing {
            sgnn_obs::enable();
        }
        let mut pass = Pass { trace: tracing.then_some(&mut traced), ..Pass::default() };
        let t = Instant::now();
        match kind {
            Kind::Full => {
                let c = TrainConfig { epochs: GCN_EPOCHS, ..base.clone() };
                let full = pass.call("gcn_full", VAL_FLOOR_GCN, &mut out.checks, || {
                    train_full_gcn(ds, &c).map(|(_, r)| (r, None))
                });
                let p = part.as_ref().expect("train-full partitions in set-up");
                let sharded = pass.call("gcn_sharded", VAL_FLOOR_GCN, &mut out.checks, || {
                    train_sharded_gcn(ds, p, &c).map(|(_, r, s)| (r, Some(s.nnz_skew)))
                });
                if let (Some(f), Some(s)) = (&full, &sharded) {
                    let eq = sharded_matches(f, s);
                    out.checks.op(eq.is_ok(), || eq.unwrap_err());
                }
            }
            Kind::Minibatch => {
                let c = TrainConfig {
                    epochs: SAGE_EPOCHS,
                    batch_size: scale.sage_batch,
                    ..base.clone()
                };
                let sampler = SamplerKind::NodeWise(vec![10, 10]);
                pass.call("sage", VAL_FLOOR_SAGE, &mut out.checks, || {
                    train_sampled(ds, &sampler, &c).map(|(_, r)| (r, None))
                });
                let c = TrainConfig { epochs: APPNP_EPOCHS, ..base.clone() };
                let appnp = PrecomputeMethod::Appnp { alpha: 0.15, k: 10 };
                pass.call("appnp", VAL_FLOOR_APPNP, &mut out.checks, || {
                    train_decoupled(ds, &appnp, &c).map(|(_, r)| (r, None))
                });
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if let Some(sum) = pass.trace.take() {
            sgnn_obs::disable();
            sum.jobs.push(wall);
            pass.finish_layers();
            for (k, v) in pass.layer {
                layer.push(k, v);
            }
        } else {
            untraced_jobs.push(wall);
            for (k, v) in pass.results {
                results.push(k, v);
            }
        }
        setup_s + wall
    });

    out.values.extend(setup.medians());
    if let Some((ds, Some(p))) = &inputs {
        out.values.insert("partition.edge_cut".into(), quality(&ds.graph, p).edge_cut);
    }
    out.values.insert("job_s".into(), median(&untraced_jobs));
    // Per-family results, peak ledger memory and the lowest test accuracy
    // as the trainers report them; the report line carries them in every
    // mode, the traced result line as per-layer metrics.
    out.values.extend(results.medians());
    if cfg.traced {
        out.values.extend(layer.medians());
        traced.finish(&untraced_jobs, &mut out);
    }
    out.headline = match kind {
        Kind::Full => {
            vec!["setup_s", "gcn_full.train_s", "gcn_sharded.train_s", "peak_mem_mb", "test_acc"]
        }
        Kind::Minibatch => {
            vec!["setup_s", "sage.train_s", "appnp.train_s", "peak_mem_mb", "test_acc"]
        }
    };
    out
}

/// What one pass gathers.
#[derive(Default)]
struct Pass<'a> {
    results: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    /// Set on traced passes.
    trace: Option<&'a mut TraceSum>,
}

impl Pass<'_> {
    fn add(&mut self, key: &str, v: f64) {
        *self.layer.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Times one trainer call and checks it; returns its report when the
    /// call succeeded.
    fn call(
        &mut self,
        family: &'static str,
        floor: f64,
        checks: &mut Checks,
        f: impl FnOnce() -> Result<(TrainReport, Option<f64>), sgnn_core::TrainError>,
    ) -> Option<TrainReport> {
        if self.trace.is_some() {
            sgnn_obs::reset();
        }
        let t = Instant::now();
        let res = {
            let _sp = sgnn_obs::span::SpanGuard::enter(bench_span(family));
            guarded(f)
        };
        let wall = t.elapsed().as_secs_f64();
        let (r, skew) = match res {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => {
                checks.op(false, || format!("{family}: trainer error: {e}"));
                return None;
            }
            Err(panic) => {
                checks.op(false, || format!("{family}: trainer panicked: {panic}"));
                return None;
            }
        };
        checks.op(r.val_acc >= floor, || {
            format!(
                "{family}: val_acc {} below floor {floor} after {} epochs",
                r.val_acc, r.epochs_run
            )
        });
        self.results.insert(format!("{family}.train_s"), wall);
        let mem_mb = r.peak_mem_bytes as f64 / 1e6;
        let peak = self.results.entry("peak_mem_mb".into()).or_insert(0.0);
        *peak = peak.max(mem_mb);
        let acc = self.results.entry("test_acc".into()).or_insert(f64::INFINITY);
        *acc = acc.min(r.test_acc);
        if self.trace.is_some() {
            let rep = sgnn_obs::report();
            self.layers_of(&rep, family, &r);
            if let Some(s) = skew {
                self.add("partition.nnz_skew", s);
            }
        }
        Some(r)
    }

    fn layers_of(&mut self, rep: &ObsReport, family: &str, r: &TrainReport) {
        let p = &r.phases;
        for (suffix, v) in [
            ("forward_s", p.forward_secs),
            ("backward_s", p.backward_secs),
            ("backward_self_s", trace::self_s(rep, "trainer.backward")),
            ("step_s", p.step_secs),
            ("sample_s", p.sample_secs),
            ("peak_mem_mb", r.peak_mem_bytes as f64 / 1e6),
        ] {
            self.add(&format!("core.{family}.{suffix}"), v);
        }
        self.add("graph.spmm_s", trace::span_s(rep, "linalg.spmm"));
        self.add("graph.spmm.calls", trace::counter(rep, "linalg.spmm.calls"));
        self.add("raw.spmm_bytes", trace::counter(rep, "linalg.spmm.bytes_moved"));
        self.add("linalg.matmul_s", trace::span_s(rep, "linalg.matmul"));
        self.add("raw.matmul_flops", trace::counter(rep, "linalg.matmul.flops"));
        self.add("linalg.pool.dispatches", trace::counter(rep, "linalg.pool.dispatches"));
        self.add("linalg.pool.idle_s", trace::counter(rep, "linalg.pool.idle_ns") * 1e-9);
        self.add("linalg.pool.steals", trace::counter(rep, "linalg.pool.steals"));
        self.add("core.pipeline.stall_s", trace::counter(rep, "pipeline.stall_ns") * 1e-9);
        self.add("core.pipeline.overlap_s", trace::counter(rep, "pipeline.overlap_ns") * 1e-9);
        self.add("core.pipeline.prefetch_hits", trace::counter(rep, "pipeline.prefetch_hits"));
        self.add("sample.blocks_s", trace::span_s(rep, "sample.blocks"));
        self.add("sample.frontier_hop1", trace::frontier(rep, 1));
        self.add("sample.frontier_hop2", trace::frontier(rep, 2));
        self.add("comm.halo_bytes", trace::counter(rep, "comm.halo_bytes"));
        self.add("comm.allreduce_bytes", trace::counter(rep, "comm.allreduce_bytes"));
        self.add("comm.halo_exchange_s", trace::hist_ms(rep, "comm.halo_exchange.ns").3 * 1e-3);
        self.add("prop.precompute_s", if family == "appnp" { r.precompute_secs } else { 0.0 });
        if let Some(sum) = self.trace.as_deref_mut() {
            sum.add(rep);
        }
    }

    /// Turns the pass's raw byte and flop sums into rates.
    fn finish_layers(&mut self) {
        let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let spmm_s = get(&self.layer, "graph.spmm_s");
        let matmul_s = get(&self.layer, "linalg.matmul_s");
        let bytes = self.layer.remove("raw.spmm_bytes").unwrap_or(0.0);
        let flops = self.layer.remove("raw.matmul_flops").unwrap_or(0.0);
        let rate = |work: f64, s: f64| if s > 0.0 { work / s * 1e-9 } else { 0.0 };
        self.layer.insert("graph.spmm.gbytes_per_s".into(), rate(bytes, spmm_s));
        self.layer.insert("linalg.matmul.gflops".into(), rate(flops, matmul_s));
    }
}

fn bench_span(family: &str) -> &'static str {
    match family {
        "gcn_full" => "bench.gcn_full",
        "gcn_sharded" => "bench.gcn_sharded",
        "sage" => "bench.sage",
        _ => "bench.appnp",
    }
}

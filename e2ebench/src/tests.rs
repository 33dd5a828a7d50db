use super::*;
use sgnn_core::TrainReport;
use sgnn_serve::{ServedQuery, Strategy};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The workloads toggle process-wide state (observability, pool width),
/// so smoke runs go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, traced: bool) -> (String, String) {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunCfg { seed: 3, seconds: 1.0, traced };
    execute(workload, &cfg, true).expect("known workload")
}

fn assert_emits_every_metric(workload: &str, traced: bool) {
    let (report, result) = smoke(workload, traced);
    assert!(report.starts_with("{\"e2ebench\": {"), "{report}");
    assert!(result.starts_with("{\"correct\": true, "), "{report}\n{result}");
    assert!(result.contains("\"attempted\": "), "{result}");
    for (name, unit) in metrics::table(traced) {
        let want = format!("{}: {{\"value\": ", jstr(&name));
        let at =
            result.find(&want).unwrap_or_else(|| panic!("{workload}: {name} missing: {result}"));
        let rest = &result[at..];
        let end = rest.find('}').expect("metric object closes");
        assert!(
            rest[..end].contains(&format!("\"unit\": {}", jstr(unit))),
            "{workload}: {name} lacks unit {unit}: {}",
            &rest[..end]
        );
    }
}

#[test]
fn train_full_emits_every_metric() {
    assert_emits_every_metric("train-full", false);
    assert_emits_every_metric("train-full", true);
}

#[test]
fn train_minibatch_emits_every_metric() {
    assert_emits_every_metric("train-minibatch", false);
    assert_emits_every_metric("train-minibatch", true);
}

#[test]
fn serve_zipf_emits_every_metric() {
    assert_emits_every_metric("serve-zipf", false);
    assert_emits_every_metric("serve-zipf", true);
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = RunCfg { seed: 0, seconds: 1.0, traced: false };
    assert!(execute("no-such-workload", &cfg, true).is_none());
}

/// Every `"name"` in `BENCHMARK.json` names a workload or a metric of the
/// tables here, and every table entry appears there with its unit.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names = BTreeSet::new();
    let key = "\"name\": \"";
    let mut rest = json.as_str();
    while let Some(at) = rest.find(key) {
        rest = &rest[at + key.len()..];
        let end = rest.find('"').expect("name closes");
        assert!(names.insert(rest[..end].to_string()), "{} listed twice", &rest[..end]);
    }
    let mut want: BTreeSet<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    for (name, unit) in metrics::table(false).into_iter().chain(metrics::table(true)) {
        let entry = format!("\"name\": {}, \"unit\": {}", jstr(&name), jstr(unit));
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        want.insert(name);
    }
    assert_eq!(names, want);
}

fn report(loss: f32) -> TrainReport {
    TrainReport {
        name: "gcn".into(),
        test_acc: 0.9,
        val_acc: 0.91,
        final_loss: loss,
        precompute_secs: 0.0,
        train_secs: 1.0,
        peak_mem_bytes: 1,
        epochs_run: 16,
        phases: Default::default(),
    }
}

#[test]
fn perturbed_sharded_report_counts_as_failed() {
    let full = report(0.5);
    let mut checks = Checks::default();
    for sharded in [report(0.5), report(f32::from_bits(0.5f32.to_bits() + 1))] {
        let eq = train::sharded_matches(&full, &sharded);
        checks.op(eq.is_ok(), || eq.unwrap_err());
    }
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    let mut other_epochs = report(0.5);
    other_epochs.epochs_run = 15;
    assert!(train::sharded_matches(&full, &other_epochs).is_err());
}

fn answer(node: u32, strategy: Strategy) -> ServedQuery {
    ServedQuery { node, latency_ns: 1_000, batch_size: 1, strategy, deadline_missed: false }
}

#[test]
fn dropped_or_shed_answer_counts_as_failed() {
    let sent = [4, 7, 9];
    let all: Vec<ServedQuery> = sent.iter().map(|&u| answer(u, Strategy::Cached)).collect();
    assert_eq!(serve::failed_answers(&sent, &all), 0);
    let dropped = vec![all[0].clone(), all[2].clone()];
    assert!(serve::failed_answers(&sent, &dropped) >= 1);
    let mut shed = all.clone();
    shed[1].strategy = Strategy::Shed;
    assert_eq!(serve::failed_answers(&sent, &shed), 1);
    let mut duplicated = all.clone();
    duplicated.push(all[2].clone());
    assert_eq!(serve::failed_answers(&sent, &duplicated), 1);
}

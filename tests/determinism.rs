//! Whole-stack determinism: identical configurations and seeds must
//! produce byte-identical results — the property that makes every number
//! in EXPERIMENTS.md reproducible.

use seuss::core::SeussConfig;
use seuss::exec::{run_sharded, ExecConfig, ShardPlan};
use seuss::platform::{run_trial, BackendKind, ClusterConfig};
use seuss::workload::{records_csv, trial_artifacts, BurstParams, TrialParams};

fn seuss_cfg() -> ClusterConfig {
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ClusterConfig::seuss_paper()
    }
}

#[test]
fn seuss_trials_are_deterministic() {
    let run = || {
        let (reg, spec) = TrialParams {
            invocations: 256,
            set_size: 16,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed: 99,
        }
        .build();
        let out = run_trial(seuss_cfg(), reg, &spec);
        (records_csv(&out.records), out.finished_at, out.events)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "records differ between identical runs");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn linux_trials_are_deterministic_with_fixed_seed() {
    // The Linux backend uses randomness (bridge drops); with a fixed seed
    // it must still replay exactly.
    let run = || {
        let (reg, spec) = TrialParams {
            invocations: 200,
            set_size: 32,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed: 5,
        }
        .build();
        let out = run_trial(ClusterConfig::linux_paper(), reg, &spec);
        records_csv(&out.records)
    };
    assert_eq!(run(), run());
}

#[test]
fn burst_runs_are_deterministic() {
    let run = || {
        let mut p = BurstParams::paper(16);
        p.bursts = 2;
        p.burst_size = 32;
        let (reg, spec) = p.build();
        let out = run_trial(seuss_cfg(), reg, &spec);
        records_csv(&out.records)
    };
    assert_eq!(run(), run());
}

#[test]
fn cross_run_replay_is_byte_identical_for_both_backends() {
    // The replay contract, stated once for every backend: a fresh
    // `run_trial` with an identical seed must reproduce the full record
    // stream byte-for-byte — in both the CSV and the JSON-lines
    // renderings — with nothing shared between the two invocations.
    type CfgFn = fn() -> ClusterConfig;
    let backends: [(&str, CfgFn); 2] = [
        ("seuss", seuss_cfg as CfgFn),
        ("linux", ClusterConfig::linux_paper as CfgFn),
    ];
    for (name, cfg) in backends {
        let run = || {
            let (reg, spec) = TrialParams {
                invocations: 192,
                set_size: 24,
                workers: 8,
                kind: seuss::platform::FnKind::Nop,
                seed: 1234,
            }
            .build();
            let out = run_trial(cfg(), reg, &spec);
            (
                records_csv(&out.records),
                seuss::platform::records_jsonl(&out.records),
            )
        };
        let (csv_a, jsonl_a) = run();
        let (csv_b, jsonl_b) = run();
        assert_eq!(csv_a, csv_b, "{name}: records_csv differs across runs");
        assert_eq!(
            jsonl_a, jsonl_b,
            "{name}: records_jsonl differs across runs"
        );
        assert!(!csv_a.is_empty(), "{name}: trial produced no records");
    }
}

#[test]
fn sharded_executor_is_byte_identical_across_worker_counts() {
    // The parallel executor's contract: for a fixed shard count, the
    // worker-thread count is pure execution speed — a seeded fig4-style
    // trial renders byte-identical records CSV, records JSONL, trace
    // JSONL, and metrics JSON at workers ∈ {1, 2, 4}.
    let (reg, spec) = TrialParams::throughput(64, 7).build();
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let cfg = ExecConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ExecConfig::seuss_paper()
    }
    .traced();
    let run = |workers: usize| {
        let out = run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, workers));
        (trial_artifacts(&out), out.finished_at, out.events)
    };
    let (a1, fin1, ev1) = run(1);
    for workers in [2usize, 4] {
        let (a, fin, ev) = run(workers);
        assert_eq!(
            a.records_csv, a1.records_csv,
            "records CSV diverges at workers={workers}"
        );
        assert_eq!(
            a.records_jsonl, a1.records_jsonl,
            "records JSONL diverges at workers={workers}"
        );
        assert_eq!(
            a.trace_jsonl, a1.trace_jsonl,
            "trace JSONL diverges at workers={workers}"
        );
        assert_eq!(
            a.metrics_json, a1.metrics_json,
            "metrics report diverges at workers={workers}"
        );
        assert_eq!(fin, fin1, "finished_at diverges at workers={workers}");
        assert_eq!(ev, ev1, "event count diverges at workers={workers}");
    }
    assert!(!a1.records_csv.is_empty());
}

#[test]
fn one_shard_reproduces_the_legacy_single_threaded_trial() {
    // shards = 1 must degenerate to exactly the legacy `run_trial`
    // artifacts, even when executed through the parallel machinery.
    let (reg, spec) = TrialParams {
        invocations: 192,
        set_size: 24,
        workers: 8,
        kind: seuss::platform::FnKind::Nop,
        seed: 1234,
    }
    .build();
    let legacy = run_trial(seuss_cfg(), reg.clone(), &spec);

    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let cfg = ExecConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ExecConfig::seuss_paper()
    };
    for workers in [1usize, 4] {
        let sharded = run_sharded(&cfg, &reg, &spec, ShardPlan::new(1, workers));
        assert_eq!(
            records_csv(&sharded.records),
            records_csv(&legacy.records),
            "one-shard run diverges from legacy at workers={workers}"
        );
        assert_eq!(sharded.finished_at, legacy.finished_at);
        assert_eq!(sharded.events, legacy.events);
    }
}

#[test]
fn different_seeds_change_the_order_not_the_aggregates() {
    let run = |seed: u64| {
        let (reg, spec) = TrialParams {
            invocations: 256,
            set_size: 16,
            workers: 8,
            kind: seuss::platform::FnKind::Nop,
            seed,
        }
        .build();
        run_trial(seuss_cfg(), reg, &spec)
    };
    let a = run(1);
    let b = run(2);
    // Same totals and path mix (16 colds either way)…
    assert_eq!(a.analysis.completed, b.analysis.completed);
    assert_eq!(a.analysis.paths.0, b.analysis.paths.0);
    // …but a genuinely different interleaving.
    assert_ne!(records_csv(&a.records), records_csv(&b.records));
}

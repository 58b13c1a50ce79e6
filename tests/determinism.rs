//! Whole-stack determinism: identical configurations and seeds must
//! produce byte-identical results — the property that makes every number
//! in EXPERIMENTS.md reproducible.

use seuss::core::SeussConfig;
use seuss::exec::{run_sharded, ShardPlan};
use seuss::platform::{run_trial, BackendKind, ClusterConfig};
use seuss::trace::Tracer;
use seuss::workload::{BurstParams, TrialParams};

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

/// A Linux node whose container cache holds two thirds of the
/// 24-function set, a third of it stemcells: containers are evicted and
/// recreated throughout, and a function can hold several idle
/// containers, so which container or stemcell a request picks decides
/// the LRU order.
fn linux_small_cache() -> ClusterConfig {
    ClusterConfig {
        backend: BackendKind::Linux {
            cache_limit: 16,
            stemcell_target: 8,
        },
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
        (out.records_jsonl(), out.finished_at, out.events)
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
        out.records_jsonl()
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
        out.records_jsonl()
    };
    assert_eq!(run(), run());
}

#[test]
fn cross_run_replay_is_byte_identical_for_both_backends() {
    // The replay contract, stated once for every backend: a fresh
    // `run_trial` with an identical seed must reproduce the full record
    // stream byte-for-byte, with nothing shared between the two
    // invocations.
    type CfgFn = fn() -> ClusterConfig;
    let backends: [(&str, CfgFn); 3] = [
        ("seuss", seuss_cfg as CfgFn),
        ("linux", ClusterConfig::linux_paper as CfgFn),
        (
            "linux, cache smaller than the function set",
            linux_small_cache,
        ),
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
            run_trial(cfg(), reg, &spec).records_jsonl()
        };
        // Several replays: a pick that depends on a map's hash order
        // can agree with the first run by chance, but not every time.
        let a = run();
        for _ in 0..4 {
            assert_eq!(a, run(), "{name}: records_jsonl differs across runs");
        }
        assert!(!a.is_empty(), "{name}: trial produced no records");
    }
}

#[test]
fn sharded_executor_is_byte_identical_across_worker_counts() {
    // The parallel executor's contract: for a fixed shard count, the
    // worker-thread count is pure execution speed — a seeded fig4-style
    // trial renders byte-identical records JSONL, trace JSONL, and
    // metrics JSON at workers ∈ {1, 2, 4}.
    let (reg, spec) = TrialParams::throughput(64, 7).build();
    let node = SeussConfig::builder()
        .mem_mib(2048)
        .build()
        .expect("valid config");
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        tracer: Tracer::enabled(),
        ..ClusterConfig::seuss_paper()
    };
    let run = |workers: usize| run_sharded(&cfg, &reg, &spec, ShardPlan::new(4, workers));
    let a1 = run(1);
    for workers in [2usize, 4] {
        let a = run(workers);
        assert_eq!(
            a.records_jsonl(),
            a1.records_jsonl(),
            "records JSONL diverges at workers={workers}"
        );
        assert_eq!(
            a.trace_jsonl(),
            a1.trace_jsonl(),
            "trace JSONL diverges at workers={workers}"
        );
        assert_eq!(
            a.metrics_report().to_json(),
            a1.metrics_report().to_json(),
            "metrics report diverges at workers={workers}"
        );
        assert_eq!(
            a.finished_at, a1.finished_at,
            "finished_at diverges at workers={workers}"
        );
        assert_eq!(
            a.events, a1.events,
            "event count diverges at workers={workers}"
        );
    }
    assert!(!a1.records.is_empty());
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
    let cfg = ClusterConfig {
        backend: BackendKind::Seuss(Box::new(node)),
        ..ClusterConfig::seuss_paper()
    };
    for workers in [1usize, 4] {
        let sharded = run_sharded(&cfg, &reg, &spec, ShardPlan::new(1, workers));
        assert_eq!(
            sharded.records_jsonl(),
            legacy.records_jsonl(),
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
    assert_ne!(a.records_jsonl(), b.records_jsonl());
}

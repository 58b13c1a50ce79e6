//! Property suites for fault plans (driven by `seuss-check`):
//!
//! 1. compilation is a pure function of `(spec, seed)` — the same pair
//!    always yields the identical plan, whatever the spec shape;
//! 2. plans are shard-stable: for any plan, any shard count, and any
//!    function, the faults the function observes through its owning
//!    shard's view equal the faults it observes through the full plan;
//! 3. plans sort by instant;
//! 4. the generators shrink: a deliberately false property over plans
//!    minimizes to a single-event plan (the harness's shrinking reaches
//!    a locally-minimal counterexample).

use seuss_check::{check, ensure, ensure_eq, gen::Gen, replay_seed, run_check, Config};
use seuss_faults::{spec::compile, FaultEvent, FaultKind, FaultPlan};
use simcore::{SimDuration, SimTime};

/// Generates one structured spec entry plus its rendered text form.
/// Rendering then compiling must reproduce the structured event exactly
/// (for non-`?` instants), which doubles as a parser round-trip check.
fn entries(max_fns: u64) -> impl Gen<Value = Vec<(u8, u64, u64, u64)>> {
    // (kind selector, instant ms, span ms / reboot ms, arg)
    seuss_check::vecs(
        (
            seuss_check::range(0u8, 4),
            seuss_check::range(0u64, 120_000),
            seuss_check::range(1u64, 30_000),
            seuss_check::range(0u64, max_fns),
        ),
        0,
        12,
    )
}

fn render(entries: &[(u8, u64, u64, u64)]) -> String {
    entries
        .iter()
        .map(|&(kind, at_ms, span_ms, arg)| match kind {
            0 => format!("crash@{at_ms}ms+{span_ms}ms"),
            1 => format!("loss@{at_ms}ms+{span_ms}ms:0.{}", arg % 10),
            2 => format!("mem@{at_ms}ms+{span_ms}ms:{}", arg + 1),
            3 => format!(
                "straggler@{at_ms}ms+{span_ms}ms:{}x{}.5",
                arg % 16,
                1 + arg % 7
            ),
            _ => format!("corrupt@{at_ms}ms:{arg}"),
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn plan_of(entries: &[(u8, u64, u64, u64)], seed: u64) -> FaultPlan {
    compile(&render(entries), seed).expect("rendered spec always parses")
}

#[test]
fn same_seed_compiles_identical_plans() {
    check(
        "faults::compile_pure",
        &(entries(64), seuss_check::range(0u64, 1 << 40)),
        |(es, seed)| {
            let a = plan_of(es, *seed);
            let b = plan_of(es, *seed);
            ensure_eq!(a, b, "same (spec, seed) must compile identically");
            ensure_eq!(a.len(), es.len());
            Ok(())
        },
    );
}

#[test]
fn plans_are_shard_stable() {
    let gen = (
        entries(64),
        seuss_check::range(1u64, 8),
        seuss_check::range(0u64, 64),
    );
    check("faults::shard_stable", &gen, |(es, shards, fn_id)| {
        let plan = plan_of(es, 42);
        let owner = fn_id % shards;
        let via_shard = plan.shard_view(owner, *shards).observed_by(*fn_id);
        let via_full = plan.observed_by(*fn_id);
        ensure_eq!(
            via_shard,
            via_full,
            "partitioning changed what fn {fn_id} observes at {shards} shards"
        );
        // Non-owning shards never see the function's targeted faults.
        for s in 0..*shards {
            if s == owner {
                continue;
            }
            let foreign = plan.shard_view(s, *shards);
            ensure!(
                foreign
                    .events()
                    .iter()
                    .all(|e| e.kind != FaultKind::SnapshotCorruption { fn_id: *fn_id }),
                "non-owning shard {s} sees fn {fn_id}'s corruption"
            );
        }
        Ok(())
    });
}

#[test]
fn plans_sort_by_instant() {
    check("faults::sorted", &entries(64), |es| {
        let plan = plan_of(es, 7);
        let instants: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
        let mut sorted = instants.clone();
        sorted.sort();
        ensure_eq!(instants, sorted, "events must sort by instant");
        Ok(())
    });
}

#[test]
fn failing_plan_properties_shrink_to_minimal_plans() {
    // Deliberately false: "no plan contains a node crash". The minimized
    // counterexample must be a single crash event at the earliest
    // shrinkable instant — evidence the generator's shrink tree reaches
    // minimal fault plans, which is what makes real failures readable.
    let gen = entries(64);
    let failure = run_check(
        Config::with_cases(256),
        "faults::shrink_demo",
        &gen,
        &|es: &Vec<(u8, u64, u64, u64)>| {
            let plan = plan_of(es, 3);
            ensure!(
                !plan
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::NodeCrash { .. })),
                "plan contains a crash"
            );
            Ok(())
        },
    )
    .expect("property must fail: crashes are generatable");
    let plan = plan_of(&failure.minimized, 3);
    assert_eq!(plan.len(), 1, "not minimal: {:?}", failure.minimized);
    assert!(
        matches!(plan.events()[0].kind, FaultKind::NodeCrash { .. }),
        "minimal plan must be the single offending crash: {plan:?}"
    );
    assert_eq!(
        plan.events()[0].at,
        SimTime::ZERO,
        "crash instant should shrink to t=0: {plan:?}"
    );
    assert!(failure.shrink_steps > 0);
    // The reported seed replays the original counterexample.
    let replayed = replay_seed(&gen, failure.seed);
    assert_eq!(replayed, failure.original);
}

#[test]
fn observed_by_is_deterministic_union() {
    // Directed case: every global fault plus exactly this function's
    // corruption, in schedule order.
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            at: SimTime::from_secs(2),
            kind: FaultKind::SnapshotCorruption { fn_id: 11 },
        },
        FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::NodeCrash {
                reboot: SimDuration::from_millis(250),
            },
        },
        FaultEvent {
            at: SimTime::from_secs(3),
            kind: FaultKind::SnapshotCorruption { fn_id: 12 },
        },
    ]);
    let seen = plan.observed_by(11);
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0].at, SimTime::from_secs(1));
    assert_eq!(seen[1].at, SimTime::from_secs(2));
}

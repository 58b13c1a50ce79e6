//! Table 2: latency improvements across anticipatory-optimization levels.
//!
//! Cold and warm NOP starts under No AO / Network AO / Network +
//! Interpreter AO (paper: 42 → 16.8 → 7.5 ms cold; 7.6 → 5.5 → 3.5 ms
//! warm).

use std::fmt::Write;

use seuss_core::{AoLevel, Invocation, SeussConfig, SeussNode};

use crate::cli::Args;
use crate::render::{ratio, Table};
use crate::Artifact;

/// One AO level's cold/warm latencies, ms.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AoRow {
    /// Mean cold-start latency, ms.
    pub(crate) cold_ms: f64,
    /// Mean warm-start latency, ms.
    pub(crate) warm_ms: f64,
}

/// The 2×3 grid of Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Table2Results {
    /// No anticipatory optimization.
    pub(crate) none: AoRow,
    /// Network AO only.
    pub(crate) network: AoRow,
    /// Network + interpreter AO.
    pub(crate) full: AoRow,
}

const NOP: &str = "function main(args) { return 0; }";

fn measure(ao: AoLevel, iterations: u32) -> AoRow {
    let cfg = SeussConfig::builder()
        .mem_mib(8 * 1024)
        .ao_level(ao)
        .build()
        .expect("valid table2 config");
    let (mut node, _) = SeussNode::new(cfg).expect("node init");
    let mut row = AoRow::default();

    // Cold: a fresh function id per iteration (every invocation deploys
    // from the runtime snapshot and compiles).
    for i in 0..iterations {
        let f = 1_000 + i as u64;
        match node.invoke(f, NOP, &[]).expect("cold") {
            Invocation::Completed { costs, .. } => {
                row.cold_ms += costs.total().as_millis_f64();
            }
            other => panic!("{other:?}"),
        }
        while let Some(uc) = node.idle.take(f) {
            node.destroy_uc(uc);
        }
    }
    row.cold_ms /= iterations as f64;

    // Warm: repeatedly deploy from one function's snapshot, draining the
    // idle cache so the hot path never fires.
    node.invoke(1, NOP, &[]).expect("prime");
    while let Some(uc) = node.idle.take(1) {
        node.destroy_uc(uc);
    }
    for _ in 0..iterations {
        match node.invoke(1, NOP, &[]).expect("warm") {
            Invocation::Completed { costs, .. } => {
                row.warm_ms += costs.total().as_millis_f64();
            }
            other => panic!("{other:?}"),
        }
        while let Some(uc) = node.idle.take(1) {
            node.destroy_uc(uc);
        }
    }
    row.warm_ms /= iterations as f64;
    row
}

/// Runs the Table 2 ablation with `iterations` invocations per cell.
/// The three AO levels are independent nodes and run on `workers`
/// threads; results are identical at every worker count.
pub(crate) fn run_table2(iterations: u32, workers: usize) -> Table2Results {
    let rows = seuss_exec::ordered_parallel(
        vec![
            AoLevel::None,
            AoLevel::Network,
            AoLevel::NetworkAndInterpreter,
        ],
        workers,
        |_, ao| measure(ao, iterations),
    );
    Table2Results {
        none: rows[0],
        network: rows[1],
        full: rows[2],
    }
}

/// The `table2` experiment: Table 2 at `iterations` invocations per cell.
pub(crate) fn reproduce(a: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let r = run_table2(a.num(0), workers);
    let mut out = String::new();
    let mut t = Table::new(
        "Table 2: latency across anticipatory optimizations",
        &["", "No AO", "Network AO", "Network + Interpreter AO"],
    );
    t.row(&[
        "Cold start (measured ms)".into(),
        format!("{:.1}", r.none.cold_ms),
        format!("{:.1}", r.network.cold_ms),
        format!("{:.1}", r.full.cold_ms),
    ]);
    t.row(&[
        "Cold start (paper ms)".into(),
        "42".into(),
        "16.8".into(),
        "7.5".into(),
    ]);
    t.row(&[
        "Warm start (measured ms)".into(),
        format!("{:.1}", r.none.warm_ms),
        format!("{:.1}", r.network.warm_ms),
        format!("{:.1}", r.full.warm_ms),
    ]);
    t.row(&[
        "Warm start (paper ms)".into(),
        "7.6".into(),
        "5.5".into(),
        "3.5".into(),
    ]);
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "cold-start reduction from both AOs: {} (paper: {:.1}x)",
        ratio(r.none.cold_ms, r.full.cold_ms),
        42.0 / 7.5
    );
    Ok(vec![Artifact::Printed("results/table2.txt".into(), out)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run_table2(5, 3);
        // Cold: 42 → 16.8 → 7.5 (each AO level must cut the cold path).
        assert!((38.0..46.0).contains(&r.none.cold_ms), "{}", r.none.cold_ms);
        assert!(
            (14.0..20.0).contains(&r.network.cold_ms),
            "{}",
            r.network.cold_ms
        );
        assert!((6.5..8.5).contains(&r.full.cold_ms), "{}", r.full.cold_ms);
        // Warm: 7.6 → 5.5 → 3.5.
        assert!((6.8..8.6).contains(&r.none.warm_ms), "{}", r.none.warm_ms);
        assert!(
            (4.8..6.2).contains(&r.network.warm_ms),
            "{}",
            r.network.warm_ms
        );
        assert!((3.0..4.0).contains(&r.full.warm_ms), "{}", r.full.warm_ms);
    }
}

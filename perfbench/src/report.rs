//! Metric definitions and the one-line JSON result.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names, units and directions, and a
//! self-test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's fixed definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run. The simulated
/// (virtual-time) results are not among them: they are exact for a seed
/// and barely vary between seeds, so the pinned-statistics gate checks
/// them for equality instead of within a bound.
pub const END_TO_END: [MetricDef; 3] = [
    def("inv_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [MetricDef; 47] = [
    def("sim.events", "count", Lower),
    def("sim.events_per_inv", "count", Lower),
    def("sim.self_s", "s", Lower),
    def("sim.heap_peak", "count", Lower),
    def("platform.event_us.worker_issue", "us", Lower),
    def("platform.event_us.arrive", "us", Lower),
    def("platform.event_us.node_receive", "us", Lower),
    def("platform.event_us.segment_end", "us", Lower),
    def("platform.event_us.complete", "us", Lower),
    def("core.invoke_us.cold", "us", Lower),
    def("core.invoke_us.cold.p99", "us", Lower),
    def("core.invoke_us.warm", "us", Lower),
    def("core.invoke_us.warm.p99", "us", Lower),
    def("core.invoke_us.hot", "us", Lower),
    def("core.invoke_us.hot.p99", "us", Lower),
    def("core.invoke_us.warm_tier", "us", Lower),
    def("core.invoke_us.warm_tier.p99", "us", Lower),
    def("core.invokes.cold", "count", Lower),
    def("core.invokes.warm", "count", Lower),
    def("core.invokes.hot", "count", Higher),
    def("core.invokes.warm_tier", "count", Lower),
    def("core.idle_hits", "count", Higher),
    def("core.idle_reclaimed", "count", Lower),
    def("core.fn_cache_evictions", "count", Lower),
    def("core.oom_reclaims", "count", Lower),
    def("paging.cow_clones", "count", Lower),
    def("paging.shallow_clones", "count", Lower),
    def("paging.entries_copied", "count", Lower),
    def("paging.hard_faults", "count", Lower),
    def("paging.swap_ins", "count", Lower),
    def("paging.levels_walked", "count", Lower),
    def("mem.total_allocs", "count", Lower),
    def("mem.total_frees", "count", Lower),
    def("snapshot.capture_us", "us", Lower),
    def("snapshot.deploy_us", "us", Lower),
    def("interp.compile_us", "us", Lower),
    def("interp.exec_us", "us", Lower),
    def("store.demotions", "count", Lower),
    def("store.prefetches", "count", Higher),
    def("store.promotions", "count", Lower),
    def("store.device_reads", "count", Lower),
    def("store.device_mib_read", "MiB", Lower),
    def("store.device_mib_written", "MiB", Lower),
    def("trace.overhead_frac", "fraction", Lower),
    def("trace.spans", "count", Lower),
    def("exec.speedup_2w", "x", Higher),
    def("workload.build_s", "s", Lower),
];

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Whether `unit` is a valid unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Every value must be finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (d, v) in metrics {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!(
                "malformed metric name or unit: {} {}",
                d.name, d.unit
            ));
        }
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "extra metrics");
        assert!(json.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[(END_TO_END[0], 1.5), (END_TO_END[1], 2.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"inv_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert!(result_json(true, 1, 0, &[(END_TO_END[0], f64::NAN)]).is_err());
    }
}

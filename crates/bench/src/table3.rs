//! Table 3: cache density limit and 16-way parallel creation rate for
//! Node.js runtime environments under four isolation methods.
//!
//! Paper: Firecracker microVM 1.3/s & 450; Docker 5.3/s & 3000; Linux
//! process 45/s & 4200; SEUSS UC 128.6/s & 54 000 — on an 88 GB, 16-CPU
//! virtual machine.
//!
//! Density fills the node sequentially until memory saturates; the
//! creation-rate test deploys across all 16 cores in parallel (virtual
//! time) and reports instances per second. The SEUSS rate includes the
//! shim process's single-TCP-connection bottleneck, exactly as the paper
//! measures it ("the rate we present here includes the time for the SEUSS
//! OS shim process to communicate an invocation request over the network
//! to the VM").

use std::fmt::Write;

use seuss_baseline::{DockerEngine, FirecrackerEngine, ProcessEngine};
use seuss_core::{NodeError, SeussConfig, SeussNode, ShimProcess};
use simcore::SimTime;

use crate::cli::Args;
use crate::render::Table;
use crate::Artifact;

/// One isolation method's row.
#[derive(Clone, Debug)]
pub(crate) struct IsolationRow {
    /// Method name.
    pub(crate) method: &'static str,
    /// 16-way parallel creation rate, instances per second.
    pub(crate) creation_rate: f64,
    /// Maximum idle Node.js environments held in memory.
    pub(crate) cache_density: u64,
}

/// All four rows.
#[derive(Clone, Debug)]
pub(crate) struct Table3Results {
    /// Firecracker microVM (Kata backend).
    pub(crate) microvm: IsolationRow,
    /// Docker with overlay2.
    pub(crate) docker: IsolationRow,
    /// Plain Linux processes.
    pub(crate) process: IsolationRow,
    /// SEUSS unikernel contexts.
    pub(crate) seuss: IsolationRow,
}

/// Virtual 16-way-parallel fill: every core repeatedly creates instances,
/// with per-creation latency supplied by `latency(concurrent)`; returns
/// the aggregate rate once `target` instances exist.
fn parallel_fill_rate(
    cores: u64,
    target: u64,
    mut create: impl FnMut() -> simcore::SimDuration,
) -> f64 {
    // Event-free simulation: cores run independent creation loops; track
    // each core's next-free time and pop the earliest.
    let mut next_free: Vec<SimTime> = vec![SimTime::ZERO; cores as usize];
    let mut created = 0u64;
    let mut finished_at = SimTime::ZERO;
    while created < target {
        // Earliest-available core issues the next creation.
        let (idx, _) = next_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("nonempty");
        let lat = create();
        next_free[idx] += lat;
        created += 1;
        finished_at = finished_at.max(next_free[idx]);
    }
    created as f64 / finished_at.as_secs_f64()
}

/// Runs Table 3 on a node of `mem_mib` memory and 16 cores. The SEUSS
/// density comes from filling the whole node with real deploys.
/// The four isolation methods are independent simulations and run on
/// `workers` threads; results are identical at every worker count.
pub(crate) fn run_table3(mem_mib: u64, workers: usize) -> Table3Results {
    let mut rows =
        seuss_exec::ordered_parallel((0..4usize).collect(), workers, |_, method| match method {
            0 => firecracker_row(mem_mib),
            1 => docker_row(mem_mib),
            2 => process_row(mem_mib),
            _ => seuss_row(mem_mib),
        });
    let seuss = rows.pop().expect("seuss row");
    let process = rows.pop().expect("process row");
    let docker = rows.pop().expect("docker row");
    let microvm = rows.pop().expect("microvm row");
    Table3Results {
        microvm,
        docker,
        process,
        seuss,
    }
}

/// Firecracker baseline: density from footprint, rate from 16-way fill.
fn firecracker_row(mem_mib: u64) -> IsolationRow {
    let fc = FirecrackerEngine::paper();
    let fc_density = fc.density_limit(mem_mib);
    let fc_rate = parallel_fill_rate(16, fc_density.min(450), || fc.latency_with(16));
    IsolationRow {
        method: "Firecracker microVM",
        creation_rate: fc_rate,
        cache_density: fc_density,
    }
}

/// Docker baseline.
fn docker_row(mem_mib: u64) -> IsolationRow {
    let mut dk = DockerEngine::paper(1).with_cache_limit(usize::MAX >> 1);
    let dk_density = dk.density_limit(mem_mib);
    let dk_rate = parallel_fill_rate(16, dk_density.min(3_000), || {
        let lat = dk.latency_with(16);
        dk.start_create().expect("no cache limit");
        dk.finish_create(None).ok();
        lat
    });
    IsolationRow {
        method: "Docker w/ overlay2 fs",
        creation_rate: dk_rate,
        cache_density: dk_density,
    }
}

/// Plain Linux process baseline.
fn process_row(mem_mib: u64) -> IsolationRow {
    let pr = ProcessEngine::paper();
    let pr_density = pr.density_limit(mem_mib);
    let pr_rate = parallel_fill_rate(16, pr_density.min(4_200), || pr.latency_with(16));
    IsolationRow {
        method: "Linux process",
        creation_rate: pr_rate,
        cache_density: pr_density,
    }
}

/// SEUSS: real mechanism fill + shim-bottlenecked creation rate.
fn seuss_row(mem_mib: u64) -> IsolationRow {
    let cfg = SeussConfig::builder()
        .mem_mib(mem_mib)
        .idle_per_fn(usize::MAX >> 1)
        .idle_total(usize::MAX >> 1)
        .build()
        .expect("valid table3 config");
    let (mut node, _) = SeussNode::new(cfg).expect("node init");

    // Density: deploy idle UCs from the runtime snapshot until the pool
    // saturates (every UC is the Node.js driver sitting in listening
    // state, §7's methodology).
    let mut deployed = 0u64;
    let seuss_density = loop {
        match node.deploy_idle_uc(deployed) {
            Ok(_) => deployed += 1,
            Err(NodeError::OutOfMemory) => break deployed,
            Err(e) => panic!("unexpected density-fill error: {e}"),
        }
    };

    // Creation rate: 16 cores deploy in parallel, but every creation
    // command first crosses the shim's single TCP connection.
    let mut shim = ShimProcess::paper();
    let mechanism_cost = node.cost.uc_construct_fixed; // per-deploy CPU cost
    let mut next_free: Vec<SimTime> = vec![SimTime::ZERO; 16];
    let rate_target = 2_000u64;
    let mut finished_at = SimTime::ZERO;
    for _ in 0..rate_target {
        let (idx, &core_free) = next_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("nonempty");
        // The command is delivered when the shim channel frees up.
        let delivered = shim.admit_creation(core_free);
        let done = delivered + mechanism_cost;
        next_free[idx] = done;
        finished_at = finished_at.max(done);
    }
    let seuss_rate = rate_target as f64 / finished_at.as_secs_f64();

    IsolationRow {
        method: "SEUSS UC",
        creation_rate: seuss_rate,
        cache_density: seuss_density,
    }
}

/// The `table3` experiment: Table 3 on an 88 GiB node, the SEUSS density
/// from filling all of it.
pub(crate) fn reproduce(_: &Args, workers: usize) -> Result<Vec<Artifact>, String> {
    let r = run_table3(88 * 1024, workers);
    let mut out = String::new();
    let mut t = Table::new(
        "Table 3: creation rate and cache density (Node.js environments)",
        &[
            "Isolation method",
            "rate/s (paper)",
            "rate/s (measured)",
            "density (paper)",
            "density (measured)",
        ],
    );
    for (row, paper_rate, paper_density) in [
        (&r.microvm, 1.3, 450u64),
        (&r.docker, 5.3, 3_000),
        (&r.process, 45.0, 4_200),
        (&r.seuss, 128.6, 54_000),
    ] {
        t.row(&[
            row.method.into(),
            format!("{paper_rate}"),
            format!("{:.1}", row.creation_rate),
            format!("{paper_density}"),
            format!("{}", row.cache_density),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "SEUSS vs Linux processes creation rate: {:.1}x (paper: 2.4x)",
        r.seuss.creation_rate / r.process.creation_rate
    );
    let _ = writeln!(
        out,
        "SEUSS vs Docker cache density: {:.0}x (paper: 18x)",
        r.seuss.cache_density as f64 / r.docker.cache_density as f64
    );
    Ok(vec![Artifact::Printed("results/table3.txt".into(), out)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        // Full-size memory, the whole SEUSS fill.
        let r = run_table3(88 * 1024, 4);
        // Density ordering and magnitudes.
        assert!((400..500).contains(&r.microvm.cache_density));
        assert!((2_800..3_200).contains(&r.docker.cache_density));
        assert!((4_000..4_400).contains(&r.process.cache_density));
        assert!(
            (45_000..62_000).contains(&r.seuss.cache_density),
            "{}",
            r.seuss.cache_density
        );
        // Rate ordering and magnitudes.
        assert!(
            (1.0..1.8).contains(&r.microvm.creation_rate),
            "{}",
            r.microvm.creation_rate
        );
        assert!(
            (3.5..7.0).contains(&r.docker.creation_rate),
            "{}",
            r.docker.creation_rate
        );
        assert!(
            (40.0..50.0).contains(&r.process.creation_rate),
            "{}",
            r.process.creation_rate
        );
        assert!(
            (120.0..135.0).contains(&r.seuss.creation_rate),
            "{}",
            r.seuss.creation_rate
        );
        // SEUSS beats processes by ≈2.4× (the paper's headline).
        let speedup = r.seuss.creation_rate / r.process.creation_rate;
        assert!((2.0..3.2).contains(&speedup), "{speedup}");
    }
}

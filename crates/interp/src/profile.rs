//! Runtime sizing and cost profile.
//!
//! `miniscript` is a small interpreter standing in for Node.js/V8, so the
//! raw magnitude of its allocations and work would be orders of magnitude
//! below a real managed runtime. This profile carries the *calibrated
//! magnitudes* of the stand-in: how many bytes a compile commits, how much
//! lazily-initialized runtime state materializes on the first compile and
//! first execution, and how many virtual CPU cycles those steps cost.
//! All mechanism (which pages get dirtied, when lazy init fires, what AO
//! moves into the base snapshot) is real; only the constants are scaled to
//! the paper's Node.js measurements.
//!
//! Calibration targets (paper §7, Tables 1–2). Solving the six cells of
//! Table 2 for the latched one-time costs gives an exact decomposition:
//! cold = base(7.5) + net-first-use(N) + first-compile(C₁) + driver-first-
//! request(D) + first-exec(E); warm = base(3.5) + D + E, with network AO
//! latching N and D, and interpreter AO latching C₁ and E. The unique
//! solution is N = 23.1 ms, D = 2.1 ms, C₁ = 7.3 ms, E = 2.0 ms — C₁ and
//! E live here; N and D live in `seuss-unikernel::UcProfile`.
//!
//! Memory targets: the post-AO NOP snapshot is 2.0 MiB = driver-resume
//! dirt (≈1.36 MiB, in UcProfile) + per-compile commit (≈0.65 MiB here);
//! pre-AO it is 4.8 MiB, so first-compile state is ≈2.8 MiB. Both AOs
//! together grow the base snapshot by 4.9 MiB = 2.8 (first compile) +
//! 0.8 (first exec) + 0.65 (dummy compile) + ≈0.65 (net + driver, in
//! UcProfile).

/// Sizing/cost constants for the simulated managed runtime.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeProfile {
    /// First valid heap address handed to the bump allocator.
    pub heap_base: u64,
    /// Heap region size in bytes.
    pub heap_size: u64,
    /// Fixed bytes committed per compile (code space, IC tables, maps).
    pub per_compile_fixed_bytes: u64,
    /// Additional committed bytes per source byte.
    pub per_compile_bytes_per_src_byte: u64,
    /// One-time bytes committed on the very first compile (parser arenas,
    /// compiler scratch, builtin code stubs) — what interpreter AO hoists
    /// into the base snapshot.
    pub first_compile_extra_bytes: u64,
    /// One-time bytes committed on the very first execution (builtin
    /// objects, inline caches, hidden-class transitions).
    pub first_exec_extra_bytes: u64,
    /// Virtual cycles per compile, fixed part (1 cycle ≈ 1 ns).
    pub compile_cycles_fixed: u64,
    /// Virtual cycles per compiled source byte.
    pub compile_cycles_per_src_byte: u64,
    /// One-time cycles on first compile.
    pub first_compile_extra_cycles: u64,
    /// One-time cycles on first execution.
    pub first_exec_extra_cycles: u64,
}

impl RuntimeProfile {
    /// Profile calibrated to the paper's Node.js measurements.
    pub fn nodejs() -> Self {
        RuntimeProfile {
            heap_base: 0x1000,
            heap_size: 512 << 20,
            per_compile_fixed_bytes: 650_000,
            per_compile_bytes_per_src_byte: 48,
            first_compile_extra_bytes: 2_800_000,
            first_exec_extra_bytes: 800_000,
            compile_cycles_fixed: 3_600_000,
            compile_cycles_per_src_byte: 2_000,
            first_compile_extra_cycles: 7_300_000,
            first_exec_extra_cycles: 2_000_000,
        }
    }

    /// Minimal profile for unit tests: no lazy-init bloat, tiny costs.
    pub fn tiny() -> Self {
        RuntimeProfile {
            heap_base: 0x1000,
            heap_size: 4 << 20,
            per_compile_fixed_bytes: 256,
            per_compile_bytes_per_src_byte: 1,
            first_compile_extra_bytes: 512,
            first_exec_extra_bytes: 256,
            compile_cycles_fixed: 100,
            compile_cycles_per_src_byte: 1,
            first_compile_extra_cycles: 50,
            first_exec_extra_cycles: 50,
        }
    }
}

impl Default for RuntimeProfile {
    fn default() -> Self {
        RuntimeProfile::tiny()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodejs_calibration_matches_paper_deltas() {
        let p = RuntimeProfile::nodejs();
        // Per-compile commit ≈ 0.65 MiB; first-compile state ≈ 2.8 MiB,
        // so the pre-AO vs post-AO NOP-snapshot delta matches the paper.
        let per_compile = p.per_compile_fixed_bytes as f64 / (1024.0 * 1024.0);
        let first = p.first_compile_extra_bytes as f64 / (1024.0 * 1024.0);
        assert!((0.5..0.8).contains(&per_compile), "{per_compile}");
        assert!((2.6..3.0).contains(&first), "{first}");
        // The interpreter-AO cycle pools remove C₁ + E = 9.3 ms.
        let ao_ms = (p.first_compile_extra_cycles + p.first_exec_extra_cycles) as f64 / 1e6;
        assert!((9.0..9.6).contains(&ao_ms), "{ao_ms}");
        // Compile of a NOP ≈ 3.6 ms fixed + capture/deploy ≈ the 4 ms
        // cold-minus-warm gap of Table 1.
        assert!((3.0..4.2).contains(&(p.compile_cycles_fixed as f64 / 1e6)));
    }
}

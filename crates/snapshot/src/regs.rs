//! Captured CPU register state.
//!
//! Deploying from a snapshot "begins at the instruction where the snapshot
//! was triggered. Execution begins by triggering a breakpoint exception
//! and overwriting the exception frame with the register values contained
//! within the snapshot" (§6). In the simulation the register file is what
//! identifies *where* in the unikernel program the snapshot resumes — the
//! unikernel crate interprets `rip` as a resume point in its boot/driver
//! state machine.

use seuss_mem::VirtAddr;

/// A captured x86_64 general-purpose register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterState {
    /// Instruction pointer: the exact trigger instruction.
    pub rip: VirtAddr,
    /// Stack pointer.
    pub(crate) rsp: VirtAddr,
    /// Flags register.
    pub(crate) rflags: u64,
    /// The 15 remaining general-purpose registers (rax..r15, rbp).
    pub(crate) gpr: [u64; 15],
}

impl RegisterState {
    /// A zeroed register file with the given resume point.
    pub fn at(rip: VirtAddr, rsp: VirtAddr) -> Self {
        RegisterState {
            rip,
            rsp,
            rflags: 0x202, // IF set, reserved bit 1 — the usual post-boot value
            gpr: [0; 15],
        }
    }
}

impl Default for RegisterState {
    fn default() -> Self {
        RegisterState::at(VirtAddr::new(0), VirtAddr::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_point_round_trip() {
        let r = RegisterState::at(VirtAddr::new(0x40_1000), VirtAddr::new(0x7FFF_F000));
        assert_eq!(r.rip.as_u64(), 0x40_1000);
        assert_eq!(r.rsp.as_u64(), 0x7FFF_F000);
        assert_eq!(r.rflags & 0x200, 0x200, "interrupts enabled");
    }
}

//! The unikernel context: one isolated function-execution environment.
//!
//! A [`UcContext`] walks the invocation lifecycle of Figure 1: boot →
//! driver listening → code import + compile → ready → run (possibly
//! blocking on external IO) → done. Every step's memory traffic flows
//! through [`crate::memory::UcMemory`] into the UC's address space, and
//! every step returns its virtual-time cost so the SEUSS OS node can
//! schedule it. Interpreter cycles convert at 1 cycle = 1 ns.

use std::rc::Rc;

use miniscript::{HostCall, Interpreter, LoadError, ProgId, RuntimeError, RuntimeProfile, VmExit};
use seuss_mem::{FrameId, FrameKind, MemError, PhysMemory, VirtAddr, PAGE_SIZE};
use seuss_paging::{AddressSpace, EntryFlags, Mmu, PageFault};
use seuss_snapshot::RegisterState;
use simcore::SimDuration;

use crate::image::UcImage;
use crate::layout::Layout;
use crate::memory::UcMemory;
use crate::profile::UcProfile;

/// Lifecycle state of a UC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UcState {
    /// Driver listening, no function imported (fresh runtime deploy).
    Listening,
    /// Function code imported and compiled; ready for arguments.
    Ready,
    /// Executing an invocation.
    Running,
    /// Suspended on an external IO call.
    Blocked,
    /// Last invocation finished; UC is idle and cacheable ("hot").
    Done,
}

/// How an invocation step ended.
#[derive(Clone, Debug, PartialEq)]
pub enum InvocationOutcome {
    /// The function returned; rendered result attached.
    Completed {
        /// Rendered return value.
        result: String,
    },
    /// The function issued a blocking external call.
    BlockedOnIo {
        /// Requested URL.
        url: String,
    },
}

/// UC-level failures (these kill the UC, not the kernel).
#[derive(Clone, Debug, PartialEq)]
pub enum UcError {
    /// Out of physical memory.
    Mem(MemError),
    /// Unresolvable page fault inside the UC.
    Fault(PageFault),
    /// Function source failed to load/compile.
    Load(String),
    /// Script-level runtime error.
    Script(String),
    /// Operation illegal in the current state.
    BadState(&'static str),
}

impl core::fmt::Display for UcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UcError::Mem(e) => write!(f, "{e}"),
            UcError::Fault(e) => write!(f, "{e}"),
            UcError::Load(m) => write!(f, "load error: {m}"),
            UcError::Script(m) => write!(f, "script error: {m}"),
            UcError::BadState(m) => write!(f, "bad UC state: {m}"),
        }
    }
}

impl std::error::Error for UcError {}

impl From<MemError> for UcError {
    fn from(e: MemError) -> Self {
        UcError::Mem(e)
    }
}

impl From<LoadError> for UcError {
    fn from(e: LoadError) -> Self {
        UcError::Load(e.to_string())
    }
}

impl From<RuntimeError> for UcError {
    fn from(e: RuntimeError) -> Self {
        UcError::Script(e.to_string())
    }
}

/// One unikernel context.
pub struct UcContext {
    /// The flat guest address space.
    pub space: AddressSpace,
    /// Register file (resume point).
    pub(crate) regs: RegisterState,
    /// Interpreter state (shared with the source image until mutated).
    pub(crate) interp: Rc<Interpreter>,
    /// Lifecycle state.
    pub(crate) state: UcState,
    /// Whether the network path has been exercised in this lineage.
    pub(crate) net_warmed: bool,
    /// Whether the driver has served a request in this lineage.
    pub(crate) driver_warmed: bool,
    /// Region layout.
    pub(crate) layout: Layout,
    /// Sizing profile.
    pub(crate) profile: UcProfile,
    /// The snapshot this UC deployed from (for active-UC accounting).
    pub source_snapshot: Option<seuss_snapshot::SnapshotId>,
    pub(crate) main_prog: Option<ProgId>,
    kmeta: Vec<FrameId>,
    data_brk: u64,
    io_brk: u64,
}

impl UcContext {
    /// Cold-boots a fresh UC: builds the address space, loads the guest
    /// image, initializes the runtime, and starts the invocation driver.
    /// Returns the UC (driver listening) and the boot cost.
    ///
    /// In SEUSS this happens once per supported interpreter; everything
    /// else deploys from the runtime snapshot.
    pub fn boot(
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        layout: Layout,
        profile: UcProfile,
        runtime_profile: RuntimeProfile,
    ) -> Result<(UcContext, SimDuration), UcError> {
        let mut space = mmu.create_space(mem)?;
        for r in layout.regions() {
            space.add_region(r);
        }

        // Map the guest image text read-only (rumprun + libc + runtime).
        mmu.map_fresh_run(
            mem,
            &mut space,
            layout.text_base,
            layout.text_pages,
            EntryFlags::USER,
        )?;

        let mut uc = UcContext {
            space,
            regs: RegisterState::at(layout.driver_listen_rip(), layout.initial_rsp()),
            interp: Rc::new(Interpreter::new(RuntimeProfile {
                heap_base: layout.heap_base.as_u64(),
                heap_size: layout.heap_pages * PAGE_SIZE as u64,
                ..runtime_profile
            })),
            state: UcState::Listening,
            net_warmed: false,
            driver_warmed: false,
            layout,
            profile,
            source_snapshot: None,
            main_prog: None,
            kmeta: mem.alloc_many(FrameKind::KernelMeta, profile.kmeta_pages)?,
            data_brk: layout.data_base.as_u64(),
            io_brk: layout.io_base.as_u64(),
        };

        // Boot writes: rumprun/libc/fs init, then runtime init, then the
        // driver start — all into the data region.
        uc.commit_data(mmu, mem, profile.boot_data_bytes)?;
        uc.commit_data(mmu, mem, profile.runtime_init_bytes)?;
        uc.commit_data(mmu, mem, profile.driver_init_bytes)?;

        Ok((uc, profile.boot_time))
    }

    /// Assembles a UC deployed from `image` (used by
    /// [`crate::image::ImageStore`]). A function image lands `Ready`, a
    /// runtime image `Listening`.
    pub(crate) fn from_image(
        space: AddressSpace,
        regs: RegisterState,
        image: &UcImage,
        source_snapshot: seuss_snapshot::SnapshotId,
        kmeta: Vec<FrameId>,
    ) -> Self {
        UcContext {
            space,
            regs,
            interp: Rc::clone(&image.interp),
            state: if image.main_prog.is_some() {
                UcState::Ready
            } else {
                UcState::Listening
            },
            net_warmed: image.net_warmed,
            driver_warmed: image.driver_warmed,
            layout: image.layout,
            profile: image.profile,
            source_snapshot: Some(source_snapshot),
            main_prog: image.main_prog,
            data_brk: image.layout.data_base.as_u64(),
            io_brk: image.layout.io_base.as_u64(),
            kmeta,
        }
    }

    /// The semantic state a snapshot of this UC must carry beside its
    /// pages (the interpreter is shared, not copied).
    pub(crate) fn image(&self) -> UcImage {
        UcImage {
            interp: Rc::clone(&self.interp),
            net_warmed: self.net_warmed,
            driver_warmed: self.driver_warmed,
            main_prog: self.main_prog,
            layout: self.layout,
            profile: self.profile,
        }
    }

    fn commit_data(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        bytes: u64,
    ) -> Result<(), UcError> {
        commit(mmu, mem, &mut self.space, &mut self.data_brk, bytes)
    }

    fn commit_io(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        bytes: u64,
    ) -> Result<(), UcError> {
        commit(mmu, mem, &mut self.space, &mut self.io_brk, bytes)
    }

    /// Accepts a TCP connection into the driver, paying the lineage's
    /// first-network-use cost (the N term of the Table 2 decomposition)
    /// if it has not been exercised yet. Returns the connection cost.
    pub fn connect(&mut self, mmu: &mut Mmu, mem: &mut PhysMemory) -> Result<SimDuration, UcError> {
        let mut cost = self.profile.net_conn_time;
        if !self.net_warmed {
            self.net_warmed = true;
            self.commit_io(mmu, mem, self.profile.net_warm_bytes)?;
            cost += self.profile.net_first_use_time;
        }
        Ok(cost)
    }

    /// Pays the lineage's first request-dispatch cost (the D term): the
    /// driver's argument-parse/respond path materializes its state on the
    /// first invocation it serves. Called from invoke; also exercised
    /// directly by network AO's dummy HTTP request.
    fn warm_dispatch(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
    ) -> Result<SimDuration, UcError> {
        if self.driver_warmed {
            return Ok(SimDuration::ZERO);
        }
        self.driver_warmed = true;
        let bytes = self.profile.driver_first_request_bytes;
        self.commit_data(mmu, mem, bytes)?;
        Ok(self.profile.driver_first_request_time)
    }

    /// Sends a dummy HTTP request through the UC's network stack and
    /// driver — the network AO (§7): exercises the connection path (N)
    /// and the request-dispatch path (D) prior to capture.
    pub fn warm_network_request(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
    ) -> Result<SimDuration, UcError> {
        let mut cost = self.connect(mmu, mem)?;
        cost += self.warm_dispatch(mmu, mem)?;
        Ok(cost)
    }

    /// Imports and compiles function source through the driver.
    /// Transitions Listening → Ready. Returns the compile cost.
    pub fn import_function(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        src: &str,
    ) -> Result<SimDuration, UcError> {
        if self.state != UcState::Listening {
            return Err(UcError::BadState("import requires a listening UC"));
        }
        let interp = Rc::make_mut(&mut self.interp);
        let before = interp.cycles();
        let prog = {
            let mut ucm = UcMemory::new(mmu, mem, &mut self.space);
            interp.load_source(&mut ucm, src)?
        };
        // Run the top level (defines `main` and module state).
        let exit = {
            let mut ucm = UcMemory::new(mmu, mem, &mut self.space);
            interp.run_main(&mut ucm, prog, u64::MAX)?
        };
        if !matches!(exit, VmExit::Done(_)) {
            return Err(UcError::Script("function top level must not block".into()));
        }
        let cycles = interp.cycles() - before;
        self.main_prog = Some(prog);
        self.state = UcState::Ready;
        self.regs = RegisterState::at(self.layout.post_import_rip(), self.layout.initial_rsp());
        Ok(SimDuration::from_nanos(cycles))
    }

    /// Starts an invocation with string arguments. Transitions
    /// Ready/Done → Running → (Done | Blocked). Returns the outcome and
    /// the CPU cost of the executed segment.
    pub fn invoke(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        args: &[(&str, &str)],
    ) -> Result<(InvocationOutcome, SimDuration), UcError> {
        if !matches!(self.state, UcState::Ready | UcState::Done) {
            return Err(UcError::BadState("invoke requires a ready or idle UC"));
        }
        self.state = UcState::Running;
        let dispatch_warm = self.warm_dispatch(mmu, mem)?;
        let interp = Rc::make_mut(&mut self.interp);
        let before = interp.cycles();
        let exit = {
            let mut ucm = UcMemory::new(mmu, mem, &mut self.space);
            let arg = interp.make_arg_object(&mut ucm, args)?;
            interp.call_global(&mut ucm, "main", &[arg], self.profile.invocation_fuel)?
        };
        let cycles = interp.cycles() - before;
        self.finish_segment(exit, cycles)
            .map(|(o, c)| (o, c + dispatch_warm))
    }

    /// Delivers the response of a blocking external call and continues.
    pub fn resume_io(
        &mut self,
        mmu: &mut Mmu,
        mem: &mut PhysMemory,
        response: &str,
    ) -> Result<(InvocationOutcome, SimDuration), UcError> {
        if self.state != UcState::Blocked {
            return Err(UcError::BadState("resume_io requires a blocked UC"));
        }
        self.state = UcState::Running;
        let interp = Rc::make_mut(&mut self.interp);
        let before = interp.cycles();
        let exit = {
            let mut ucm = UcMemory::new(mmu, mem, &mut self.space);
            let v = interp.make_str(&mut ucm, response)?;
            interp.resume(&mut ucm, v, self.profile.invocation_fuel)?
        };
        let cycles = interp.cycles() - before;
        self.finish_segment(exit, cycles)
    }

    fn finish_segment(
        &mut self,
        exit: VmExit,
        cycles: u64,
    ) -> Result<(InvocationOutcome, SimDuration), UcError> {
        let cost = SimDuration::from_nanos(cycles);
        match exit {
            VmExit::Done(v) => {
                self.state = UcState::Done;
                let result = self.interp.display(v);
                Ok((InvocationOutcome::Completed { result }, cost))
            }
            VmExit::Blocked(HostCall::HttpGet(url)) => {
                self.state = UcState::Blocked;
                Ok((InvocationOutcome::BlockedOnIo { url }, cost))
            }
            VmExit::OutOfFuel => {
                self.state = UcState::Done; // the UC survives; the call failed
                Err(UcError::Script("invocation exceeded fuel budget".into()))
            }
        }
    }

    /// Runs the interpreter's moving garbage collector inside the UC.
    /// Returns the GC cost. After a snapshot, the relocation writes are
    /// all COW breaks — the mechanism behind the paper's closing §7
    /// observation that COW interacts poorly with page-rewriting
    /// runtimes (studied further in the `ablation_gc` bench).
    pub fn run_gc(&mut self, mmu: &mut Mmu, mem: &mut PhysMemory) -> Result<SimDuration, UcError> {
        let interp = Rc::make_mut(&mut self.interp);
        let before = interp.cycles();
        {
            let mut ucm = UcMemory::new(mmu, mem, &mut self.space);
            interp.run_gc(&mut ucm)?;
        }
        Ok(SimDuration::from_nanos(interp.cycles() - before))
    }

    /// Resets a Done UC back to a clean listening state (used after an
    /// anticipatory-optimization dummy run so the captured base image is a
    /// plain runtime snapshot: warmed, but with no function installed).
    pub fn reset_to_listening(&mut self) {
        self.state = UcState::Listening;
        self.main_prog = None;
        self.regs = RegisterState::at(self.layout.driver_listen_rip(), self.layout.initial_rsp());
    }

    /// Destroys the UC, releasing its address space and kernel metadata.
    /// The caller is responsible for snapshot active-UC accounting.
    pub fn destroy(self, mmu: &mut Mmu, mem: &mut PhysMemory) {
        for f in &self.kmeta {
            mem.dec_ref(*f);
        }
        mmu.destroy_space(mem, self.space);
        mmu.stats.tlb_flushes += 1;
    }
}

/// Commits `bytes` of a region at its break `brk`: writes the run of
/// whole pages from there and advances the break past every page
/// written, stopping at the page that faulted.
fn commit(
    mmu: &mut Mmu,
    mem: &mut PhysMemory,
    space: &mut AddressSpace,
    brk: &mut u64,
    bytes: u64,
) -> Result<(), UcError> {
    let pages = bytes.div_ceil(PAGE_SIZE as u64);
    let written = mmu.write_run(mem, space, VirtAddr::new(*brk), pages, &[]);
    *brk = match written {
        Ok(()) => *brk + pages * PAGE_SIZE as u64,
        Err(fault) => fault.addr().as_u64(),
    };
    written.map_err(UcError::Fault)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (PhysMemory, Mmu) {
        (PhysMemory::with_mib(512), Mmu::new())
    }

    fn boot_tiny(mem: &mut PhysMemory, mmu: &mut Mmu) -> UcContext {
        let (uc, _) = UcContext::boot(
            mmu,
            mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        uc
    }

    #[test]
    fn boot_reaches_listening_with_resident_image() {
        let (mut mem, mut mmu) = rig();
        let uc = boot_tiny(&mut mem, &mut mmu);
        assert_eq!(uc.state, UcState::Listening);
        let resident = mmu.collect_mapped(uc.space.root()).len() as u64;
        // Text plus the committed boot/runtime/driver pages.
        assert!(resident > Layout::nodejs().text_pages);
        assert_eq!(uc.regs.rip, Layout::nodejs().driver_listen_rip());
    }

    #[test]
    fn import_then_invoke_nop() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        let cost = uc
            .import_function(&mut mmu, &mut mem, "function main(args) { return 0; }")
            .unwrap();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(uc.state, UcState::Ready);
        let (outcome, _) = uc.invoke(&mut mmu, &mut mem, &[]).unwrap();
        assert_eq!(outcome, InvocationOutcome::Completed { result: "0".into() });
        assert_eq!(uc.state, UcState::Done);
    }

    #[test]
    fn idle_uc_reinvokes_hot() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function main(args) { return args.x + '!'; }",
        )
        .unwrap();
        let (o1, _) = uc.invoke(&mut mmu, &mut mem, &[("x", "a")]).unwrap();
        let (o2, _) = uc.invoke(&mut mmu, &mut mem, &[("x", "b")]).unwrap();
        assert_eq!(
            o1,
            InvocationOutcome::Completed {
                result: "a!".into()
            }
        );
        assert_eq!(
            o2,
            InvocationOutcome::Completed {
                result: "b!".into()
            }
        );
    }

    #[test]
    fn io_bound_function_blocks_and_resumes() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function main(args) { let r = http_get('http://ext/ep'); return r; }",
        )
        .unwrap();
        let (outcome, _) = uc.invoke(&mut mmu, &mut mem, &[]).unwrap();
        assert_eq!(
            outcome,
            InvocationOutcome::BlockedOnIo {
                url: "http://ext/ep".into()
            }
        );
        assert_eq!(uc.state, UcState::Blocked);
        let (outcome, _) = uc.resume_io(&mut mmu, &mut mem, "OK").unwrap();
        assert_eq!(
            outcome,
            InvocationOutcome::Completed {
                result: "OK".into()
            }
        );
    }

    #[test]
    fn first_connect_pays_latched_costs() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        let first = uc.connect(&mut mmu, &mut mem).unwrap();
        let second = uc.connect(&mut mmu, &mut mem).unwrap();
        assert!(first > second * 10, "first {first:?} vs second {second:?}");
        assert_eq!(second, UcProfile::tiny().net_conn_time);
    }

    #[test]
    fn invoke_in_wrong_state_rejected() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        assert!(matches!(
            uc.invoke(&mut mmu, &mut mem, &[]),
            Err(UcError::BadState(_))
        ));
        assert!(matches!(
            uc.resume_io(&mut mmu, &mut mem, "x"),
            Err(UcError::BadState(_))
        ));
    }

    #[test]
    fn script_errors_surface() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        assert!(matches!(
            uc.import_function(&mut mmu, &mut mem, "function main( {"),
            Err(UcError::Load(_))
        ));
    }

    #[test]
    fn destroy_releases_everything() {
        let (mut mem, mut mmu) = rig();
        let before = mem.stats().used_frames;
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(&mut mmu, &mut mem, "function main(a) { return 1; }")
            .unwrap();
        assert!(mem.stats().used_frames > before);
        uc.destroy(&mut mmu, &mut mem);
        assert_eq!(mem.stats().used_frames, before);
    }

    #[test]
    fn cpu_bound_function_costs_cycles() {
        let (mut mem, mut mmu) = rig();
        let mut uc = boot_tiny(&mut mem, &mut mmu);
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function main(args) { spin(150000000); return 'done'; }",
        )
        .unwrap();
        let (_, cost) = uc.invoke(&mut mmu, &mut mem, &[]).unwrap();
        assert!(cost >= SimDuration::from_millis(150));
        assert!(cost < SimDuration::from_millis(151));
    }
}

#[cfg(test)]
mod fuel_tests {
    use super::*;
    use crate::layout::Layout;
    use miniscript::RuntimeProfile;

    #[test]
    fn runaway_functions_are_killed_not_hung() {
        let mut mem = PhysMemory::with_mib(512);
        let mut mmu = Mmu::new();
        let (mut uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function main(args) { while (true) { let x = 1; } }",
        )
        .unwrap();
        match uc.invoke(&mut mmu, &mut mem, &[]) {
            Err(UcError::Script(msg)) => assert!(msg.contains("fuel"), "{msg}"),
            other => panic!("runaway survived: {other:?}"),
        }
        // The UC itself is still usable for a fresh (well-behaved) import?
        // No — it is Done with a bad function; but it can be destroyed
        // cleanly, which is what the node does.
        uc.destroy(&mut mmu, &mut mem);
    }

    #[test]
    fn unbounded_recursion_is_killed_too() {
        let mut mem = PhysMemory::with_mib(512);
        let mut mmu = Mmu::new();
        let (mut uc, _) = UcContext::boot(
            &mut mmu,
            &mut mem,
            Layout::nodejs(),
            UcProfile::tiny(),
            RuntimeProfile::tiny(),
        )
        .unwrap();
        uc.connect(&mut mmu, &mut mem).unwrap();
        uc.import_function(
            &mut mmu,
            &mut mem,
            "function f(n) { return f(n + 1); } function main(args) { return f(0); }",
        )
        .unwrap();
        assert!(matches!(
            uc.invoke(&mut mmu, &mut mem, &[]),
            Err(UcError::Script(_))
        ));
        uc.destroy(&mut mmu, &mut mem);
    }
}

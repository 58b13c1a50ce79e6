//! The SEUSS node: invocation paths, caches, and the OOM daemon.
//!
//! [`SeussNode::invoke`] is the heart of §4: one deployment pipeline
//! (deploy, connect, import, capture, exec) with a longer or shorter
//! prefix skipped. An idle UC (hot) goes straight to exec, the
//! function snapshot (warm) skips import and capture, and the base
//! runtime snapshot (cold) runs every phase, building the function
//! snapshot on the way. All mechanism work is real — the returned
//! [`PathCosts`] are assembled from measured operation counts plus the
//! fixed overheads of [`crate::cost::CostModel`].

use std::collections::HashMap;

use seuss_mem::PhysMemory;
use seuss_net::{NetProxy, UcEndpoint};
use seuss_paging::Mmu;
use seuss_snapshot::{SnapshotId, SnapshotKind, SnapshotStore};
use seuss_store::{ReclaimMode, RestorePolicy, StoreError, TieredStore};
use seuss_trace::{CacheKind, Phase, SpanName, TraceEvent, Tracer};
use seuss_unikernel::{ImageStore, InvocationOutcome, RuntimeKind, UcContext, UcError, UcImageId};
use simcore::SimDuration;

use crate::caches::{FnImageCache, IdleUcCache};
use crate::config::{AoLevel, SeussConfig};
use crate::cost::CostModel;

pub use seuss_trace::PathKind;

/// Function identity (1:1 with a client account's unique function).
pub type FnId = u64;

/// Per-phase virtual-time costs of one invocation segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathCosts {
    /// UC construction (shallow clone, kmeta, resume writes, fixed part).
    pub deploy: SimDuration,
    /// Storage-tier restore work (eager promotion or working-set
    /// prefetch); zero on untiered paths.
    pub restore: SimDuration,
    /// Connection setup into the UC (plus any first-use warming).
    pub connect: SimDuration,
    /// Code import + compile.
    pub import: SimDuration,
    /// Function-snapshot capture.
    pub capture: SimDuration,
    /// Argument import + driver dispatch + function execution.
    pub exec: SimDuration,
    /// Result return.
    pub respond: SimDuration,
}

impl PathCosts {
    /// The cost of one [`Phase`].
    pub fn get(&self, phase: Phase) -> SimDuration {
        match phase {
            Phase::Deploy => self.deploy,
            Phase::Restore => self.restore,
            Phase::Connect => self.connect,
            Phase::Import => self.import,
            Phase::Capture => self.capture,
            Phase::Exec => self.exec,
            Phase::Respond => self.respond,
        }
    }

    /// Sets the cost of one [`Phase`].
    pub fn set(&mut self, phase: Phase, d: SimDuration) {
        match phase {
            Phase::Deploy => self.deploy = d,
            Phase::Restore => self.restore = d,
            Phase::Connect => self.connect = d,
            Phase::Import => self.import = d,
            Phase::Capture => self.capture = d,
            Phase::Exec => self.exec = d,
            Phase::Respond => self.respond = d,
        }
    }

    /// All phases in segment order with their costs — the one enumeration
    /// behind [`PathCosts::total`], the trial reports, and the tracer.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, SimDuration)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Total CPU time of the segment.
    pub fn total(&self) -> SimDuration {
        self.phases().fold(SimDuration::ZERO, |acc, (_, d)| acc + d)
    }
}

/// Handle for an invocation blocked on external IO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IoToken(u64);

/// Result of starting or resuming an invocation.
#[derive(Debug)]
pub enum Invocation {
    /// Finished; result and the CPU cost of this segment.
    Completed {
        /// Deployment path taken (set on the first segment).
        path: PathKind,
        /// Rendered function result.
        result: String,
        /// Per-phase CPU costs of this segment.
        costs: PathCosts,
        /// Pages this invocation copied (COW breaks + demand-zero) — its
        /// marginal memory footprint, the paper's "pages copied" column.
        private_pages: u64,
    },
    /// Blocked on an external call; resume with
    /// [`SeussNode::resume_invocation`].
    Blocked {
        /// Deployment path taken.
        path: PathKind,
        /// Resume handle.
        token: IoToken,
        /// Requested URL.
        url: String,
        /// CPU cost of the segment up to the block.
        costs: PathCosts,
    },
}

/// Node-level failures.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeError {
    /// Physical memory exhausted and nothing reclaimable.
    OutOfMemory,
    /// The function itself failed (compile or runtime error).
    Function(String),
    /// Unknown IO token.
    UnknownToken,
    /// Node not initialized with a runtime snapshot.
    NotInitialized,
}

impl core::fmt::Display for NodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeError::OutOfMemory => write!(f, "node out of memory"),
            NodeError::Function(m) => write!(f, "function error: {m}"),
            NodeError::UnknownToken => write!(f, "unknown IO token"),
            NodeError::NotInitialized => write!(f, "node missing runtime snapshot"),
        }
    }
}

impl std::error::Error for NodeError {}

/// Where an invocation starts: how much of the deployment pipeline
/// (deploy, connect, import, capture) it skips.
#[derive(Clone, Copy)]
enum Start {
    /// An idle UC of the function, already in the segment's slot (hot):
    /// exec only.
    Idle,
    /// The function image, snapshot resident (warm): no import or capture.
    Function(UcImageId),
    /// The function image, snapshot diff on the storage tier (warm-tier).
    Demoted(UcImageId, SnapshotId),
    /// The runtime image (cold): every phase.
    Runtime(UcImageId),
}

impl Start {
    fn path(&self) -> PathKind {
        match self {
            Start::Idle => PathKind::Hot,
            Start::Function(_) => PathKind::Warm,
            Start::Demoted(..) => PathKind::WarmTier,
            Start::Runtime(_) => PathKind::Cold,
        }
    }
}

/// Aggregate node statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Cold invocations served.
    pub cold: u64,
    /// Warm invocations served.
    pub warm: u64,
    /// Hot invocations served.
    pub hot: u64,
    /// Warm invocations restored from the storage tier.
    pub warm_tier: u64,
    /// Invokes and resumes that returned an error.
    pub errors: u64,
    /// Idle UCs reclaimed by the OOM daemon.
    pub oom_reclaims: u64,
}

/// A SEUSS OS compute node.
pub struct SeussNode {
    /// The frame pool (public for experiment harnesses).
    pub mem: PhysMemory,
    /// The software MMU.
    pub mmu: Mmu,
    /// Mechanical snapshots.
    pub snaps: SnapshotStore,
    /// Deployable UC images.
    pub images: ImageStore,
    /// The function-snapshot cache.
    pub fn_cache: FnImageCache,
    /// The idle-UC cache.
    pub idle: IdleUcCache,
    /// Fixed-cost model.
    pub cost: CostModel,
    /// Statistics.
    pub stats: NodeStats,
    /// The per-core network proxy: every live UC holds a unique port
    /// mapping (all UCs share one IP/MAC, §6 "Networking").
    pub proxy: NetProxy,
    /// Tracing handle (disabled by default; see [`SeussNode::set_tracer`]).
    pub tracer: Tracer,
    /// The storage tier, when `SeussConfig::store` asks for one. `None`
    /// keeps every snapshot in DRAM — the pre-tier behavior, bit for bit.
    pub tier: Option<TieredStore>,
    /// Device time of OOM-daemon demotions, drained into the next
    /// deploy's cost (pressure work bills the request that triggers it).
    pending_demote_cost: SimDuration,
    config: SeussConfig,
    runtime_images: HashMap<RuntimeKind, UcImageId>,
    primary_runtime: RuntimeKind,
    pending: HashMap<u64, (FnId, PathKind, UcContext)>,
    next_token: u64,
}

/// Boots one runtime's base UC, applies the AO level, and captures the
/// base snapshot. Returns the image id and total cost.
#[allow(clippy::too_many_arguments)]
fn init_runtime(
    mmu: &mut Mmu,
    mem: &mut PhysMemory,
    snaps: &mut SnapshotStore,
    images: &mut ImageStore,
    kind: RuntimeKind,
    layout: seuss_unikernel::Layout,
    uc_profile: seuss_unikernel::UcProfile,
    runtime_profile: miniscript::RuntimeProfile,
    ao: AoLevel,
) -> Result<(UcImageId, SimDuration), NodeError> {
    let (mut base_uc, mut init_cost) =
        UcContext::boot(mmu, mem, layout, uc_profile, runtime_profile)?;

    // Anticipatory optimizations (§3, §7) run before the base capture.
    match ao {
        AoLevel::None => {}
        AoLevel::Network => {
            init_cost += base_uc.warm_network_request(mmu, mem)?;
        }
        AoLevel::NetworkAndInterpreter => {
            init_cost += base_uc.warm_network_request(mmu, mem)?;
            // Dummy function: interpreted and run pre-capture.
            init_cost += base_uc.connect(mmu, mem)?;
            init_cost +=
                base_uc.import_function(mmu, mem, "function main(args) { return 'warm'; }")?;
            let (_, run_cost) = base_uc.invoke(mmu, mem, &[])?;
            init_cost += run_cost;
            // The dummy leaves the UC in Done; reset to Listening so the
            // captured image is a clean runtime snapshot.
            base_uc.reset_to_listening();
        }
    }

    let (image, capture_cost) = images.capture(
        mmu,
        mem,
        snaps,
        &mut base_uc,
        SnapshotKind::Runtime,
        format!("{}-runtime", kind.name()),
        None,
    )?;
    init_cost += capture_cost;
    base_uc.destroy(mmu, mem);
    Ok((image, init_cost))
}

impl SeussNode {
    /// Builds and initializes a node: boots the base UC, applies the
    /// configured AO level, and captures the base runtime snapshot.
    /// Returns the node and the total initialization cost.
    pub fn new(config: SeussConfig) -> Result<(SeussNode, SimDuration), NodeError> {
        let mut mem = PhysMemory::with_mib(config.mem_mib);
        if let Some(t) = config.reclaim_threshold_frames {
            mem.set_reclaim_threshold_frames(t);
        }
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();

        // Boot and snapshot every configured runtime ("only one per
        // supported interpreter", §4). The first is the primary and uses
        // the config's explicit profiles; the rest use their defaults.
        let mut runtimes = config.runtimes.clone();
        if runtimes.is_empty() {
            runtimes.push(RuntimeKind::NodeJs);
        }
        let primary_runtime = runtimes[0];
        let mut runtime_images = HashMap::new();
        let mut init_cost = SimDuration::ZERO;
        for (i, kind) in runtimes.iter().enumerate() {
            let (layout, ucp, rp) = if i == 0 {
                (config.layout, config.uc_profile, config.runtime_profile)
            } else {
                (kind.layout(), kind.uc_profile(), kind.runtime_profile())
            };
            let (image, cost) = init_runtime(
                &mut mmu,
                &mut mem,
                &mut snaps,
                &mut images,
                *kind,
                layout,
                ucp,
                rp,
                config.ao,
            )?;
            runtime_images.insert(*kind, image);
            init_cost += cost;
        }

        // The storage tier and its pager come up after runtime init: the
        // base snapshots are captured all-DRAM either way.
        let tier = config.store.map(TieredStore::new);
        if let Some(t) = &tier {
            mmu.pager = Some(t.make_pager());
        }

        let node = SeussNode {
            mem,
            mmu,
            snaps,
            images,
            fn_cache: FnImageCache::default(),
            idle: IdleUcCache::new(config.idle_per_fn, config.idle_total),
            cost: CostModel::paper(),
            stats: NodeStats::default(),
            proxy: NetProxy::new(),
            tracer: Tracer::disabled(),
            tier,
            pending_demote_cost: SimDuration::ZERO,
            config,
            runtime_images,
            primary_runtime,
            pending: HashMap::new(),
            next_token: 0,
        };
        Ok((node, init_cost))
    }

    /// The primary runtime's base image id.
    pub fn runtime_image(&self) -> Option<UcImageId> {
        self.runtime_images.get(&self.primary_runtime).copied()
    }

    /// The base image for a specific runtime, if configured.
    pub fn runtime_image_for(&self, kind: RuntimeKind) -> Option<UcImageId> {
        self.runtime_images.get(&kind).copied()
    }

    /// Runtimes this node serves.
    pub fn runtimes(&self) -> Vec<RuntimeKind> {
        let mut v: Vec<RuntimeKind> = self.runtime_images.keys().copied().collect();
        v.sort();
        v
    }

    /// Node configuration.
    pub fn config(&self) -> &SeussConfig {
        &self.config
    }

    /// Installs a tracer, distributing clones of the shared handle into
    /// every mechanism layer (MMU, snapshot store, image store), so
    /// events emitted deep in the paging code parent to the node's spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mmu.tracer = tracer.clone();
        self.snaps.tracer = tracer.clone();
        self.images.tracer = tracer.clone();
        self.tracer = tracer;
    }

    /// Memory in use, in MiB.
    pub fn used_mib(&self) -> f64 {
        self.mem.stats().used_mib()
    }

    /// Runs the OOM daemon: reclaim idle UCs while free memory is below
    /// the threshold; then, with a [`ReclaimMode::DemoteColdest`] tier,
    /// demote the least-recently-deployed function snapshot to the device
    /// (pressure degrades hot → warm-from-SSD, not warm → cold); once
    /// nothing is demotable, evict LRU function snapshots outright (the
    /// §6 policy permits deleting function-specific snapshots with no
    /// active UCs). Returns reclaim actions taken.
    pub fn run_oom_daemon(&mut self) -> u64 {
        let mut n = 0;
        while self.mem.below_reclaim_threshold() {
            if let Some(uc) = self.idle.pop_lru() {
                self.destroy_uc(uc);
                n += 1;
                continue;
            }
            if self.try_demote_coldest() {
                n += 1;
                continue;
            }
            if let Some(sid) = self.fn_cache.evict_lru(
                &mut self.mmu,
                &mut self.mem,
                &mut self.snaps,
                &mut self.images,
            ) {
                if let Some(sid) = sid {
                    self.forget_tier(sid);
                }
                n += 1;
                continue;
            }
            break;
        }
        self.stats.oom_reclaims += n;
        n
    }

    /// One DemoteColdest reclaim step: demote the least-recently-deployed
    /// resident, idle, childless function snapshot's diff to the device.
    /// The batched write cost accrues to the next deploy.
    fn try_demote_coldest(&mut self) -> bool {
        let Some(tier) = self.tier.as_mut() else {
            return false;
        };
        if tier.reclaim_mode() != ReclaimMode::DemoteColdest {
            return false;
        }
        let Some((_, out)) = tier.demote_coldest(&mut self.mmu, &mut self.mem, &self.snaps) else {
            return false;
        };
        self.tracer
            .event(TraceEvent::TierDemote { pages: out.pages });
        self.pending_demote_cost += out.cost;
        true
    }

    /// Drops storage-tier state for a snapshot whose image left the
    /// function cache. A deleted snapshot releases its device blocks; one
    /// that outlives its image (UCs still deployed from it) keeps them
    /// for those UCs but stops being a demotion candidate.
    fn forget_tier(&mut self, sid: SnapshotId) {
        let Some(t) = self.tier.as_mut() else {
            return;
        };
        if self.snaps.get(sid).is_ok() {
            t.retire(sid);
        } else {
            t.forget(sid);
        }
    }

    /// Caches `img` as function `f`'s warm-path image — a cold-path
    /// capture, or a snapshot imported from a peer — and marks its
    /// snapshot as just used for the storage tier.
    pub fn install_fn_image(&mut self, f: FnId, img: UcImageId) {
        if let Some(sid) = self.fn_cache.insert(
            &mut self.mmu,
            &mut self.mem,
            &mut self.snaps,
            &mut self.images,
            f,
            img,
        ) {
            self.forget_tier(sid);
        }
        if let (Some(tier), Ok(sid)) = (self.tier.as_mut(), self.images.snapshot_of(img)) {
            tier.note_use(sid);
        }
    }

    /// Arms or clears the simulated device read-error window on the
    /// storage tier. Returns whether a tier exists to fault.
    pub fn set_device_read_fault(&mut self, active: bool) -> bool {
        match &self.tier {
            Some(t) => {
                t.set_read_fault(active);
                true
            }
            None => false,
        }
    }

    /// Serves one invocation of function `f` (source `src`, arguments
    /// `args`) on the primary runtime. Picks hot > warm > cold.
    pub fn invoke(
        &mut self,
        f: FnId,
        src: &str,
        args: &[(&str, &str)],
    ) -> Result<Invocation, NodeError> {
        self.invoke_on(f, self.primary_runtime, src, args)
    }

    /// Serves one invocation on an explicit runtime (functions are bound
    /// to the interpreter their account registered them for).
    pub fn invoke_on(
        &mut self,
        f: FnId,
        runtime: RuntimeKind,
        src: &str,
        args: &[(&str, &str)],
    ) -> Result<Invocation, NodeError> {
        let ops_before = self.mmu.stats;
        let span = self.tracer.span(SpanName::Invoke);
        span.annotate_fn(f);
        let mut uc = None;
        let result = self.resolve(f, runtime, &mut uc).and_then(|start| {
            span.annotate_path(start.path());
            self.run_phases(f, start, src, args, &mut uc, ops_before)
        });
        self.settle(uc, result)
    }

    /// Resolves where an invocation of `f` starts: an idle UC, which goes
    /// straight into `uc`, else the cached function image (its diff
    /// resident or on the storage tier), else the runtime image. Emits
    /// each lookup's cache event. A cached image whose snapshot fails its
    /// integrity check, or whose device blocks are unreadable, is
    /// discarded, and the start degrades to cold, whose re-capture
    /// repairs the cache.
    fn resolve(
        &mut self,
        f: FnId,
        runtime: RuntimeKind,
        uc: &mut Option<UcContext>,
    ) -> Result<Start, NodeError> {
        *uc = self.idle.take(f);
        if uc.is_some() {
            self.tracer.event(TraceEvent::CacheHit {
                cache: CacheKind::IdleUc,
            });
            return Ok(Start::Idle);
        }
        self.tracer.event(TraceEvent::CacheMiss {
            cache: CacheKind::IdleUc,
        });
        if let Some(img) = self.fn_cache.lookup(f) {
            let sid = self.images.snapshot_of(img).ok();
            let demoted = sid.filter(|&s| self.tier.as_ref().is_some_and(|t| t.is_demoted(s)));
            let device_faulted =
                demoted.is_some() && self.tier.as_ref().is_some_and(|t| t.read_fault_active());
            if self.snapshot_intact(img) && !device_faulted {
                self.tracer.event(TraceEvent::CacheHit {
                    cache: CacheKind::FnSnapshot,
                });
                return Ok(match demoted {
                    Some(s) => Start::Demoted(img, s),
                    None => Start::Function(img),
                });
            }
            if device_faulted {
                self.tracer.event(TraceEvent::TierReadError);
            } else {
                self.tracer.event(TraceEvent::FaultSnapshotCorrupt);
            }
            // Discard the unusable image; tier blocks are released only
            // once the snapshot itself is gone (a still-deployed UC may
            // yet page against them).
            if let Some(bad) = self.fn_cache.remove(f) {
                let _ = self
                    .images
                    .delete(&mut self.mmu, &mut self.mem, &mut self.snaps, bad);
                if let Some(s) = sid {
                    self.forget_tier(s);
                }
            }
        }
        self.tracer.event(TraceEvent::CacheMiss {
            cache: CacheKind::FnSnapshot,
        });
        self.runtime_images
            .get(&runtime)
            .map(|&base| Start::Runtime(base))
            .ok_or(NodeError::NotInitialized)
    }

    /// Runs the phases `start` does not skip: deploy and connect unless
    /// hot, import and capture only when cold, then exec and
    /// [`conclude`](Self::conclude). The UC goes into `uc` as soon as it
    /// exists, so a failure in any later phase leaves it to
    /// [`settle`](Self::settle).
    fn run_phases(
        &mut self,
        f: FnId,
        start: Start,
        src: &str,
        args: &[(&str, &str)],
        uc: &mut Option<UcContext>,
        ops_before: seuss_paging::OpStats,
    ) -> Result<Invocation, NodeError> {
        let path = start.path();
        let mut costs = PathCosts::default();
        let (ctx, cold_base) = match start {
            Start::Idle => (uc.as_mut().expect("resolve took the idle UC"), None),
            Start::Function(img) => (uc.insert(self.deploy(img, None, &mut costs)?), None),
            Start::Demoted(img, sid) => (uc.insert(self.deploy(img, Some(sid), &mut costs)?), None),
            Start::Runtime(base) => (uc.insert(self.deploy(base, None, &mut costs)?), Some(base)),
        };
        if path != PathKind::Hot {
            self.phase(Phase::Connect, &mut costs, |n| {
                Ok(((), ctx.connect(&mut n.mmu, &mut n.mem)?))
            })?;
        }
        if let Some(base) = cold_base {
            self.phase(Phase::Import, &mut costs, |n| {
                let compile = ctx.import_function(&mut n.mmu, &mut n.mem, src)?;
                Ok(((), compile + n.cost.import_per_byte * src.len() as u64))
            })?;
            let fn_img = self.phase(Phase::Capture, &mut costs, |n| {
                Ok(n.images.capture(
                    &mut n.mmu,
                    &mut n.mem,
                    &mut n.snaps,
                    ctx,
                    SnapshotKind::Function,
                    format!("fn-{f}"),
                    Some(base),
                )?)
            })?;
            self.install_fn_image(f, fn_img);
        }
        let outcome = self.phase(Phase::Exec, &mut costs, |n| {
            let (outcome, run) = ctx.invoke(&mut n.mmu, &mut n.mem, args)?;
            Ok((outcome, n.cost.arg_import + n.cost.dispatch_fixed + run))
        })?;
        self.conclude(f, path, uc, outcome, costs, ops_before)
    }

    /// Runs one phase of a segment under its span: `work` returns the
    /// phase's result and cost, and the cost is added to `costs` and
    /// advances the trace clock, so each phase span lasts exactly its
    /// booked cost. Every phase of every path is booked here.
    fn phase<T>(
        &mut self,
        phase: Phase,
        costs: &mut PathCosts,
        work: impl FnOnce(&mut Self) -> Result<(T, SimDuration), NodeError>,
    ) -> Result<T, NodeError> {
        let _span = self.tracer.span(SpanName::Phase(phase));
        let (out, cost) = work(self)?;
        costs.set(phase, costs.get(phase) + cost);
        self.tracer.advance(cost);
        Ok(out)
    }

    /// Builds a UC from `img`: the deploy phase of every start but hot.
    /// A snapshot whose diff lives on the storage tier (`demoted`) also
    /// takes the restore its policy asks for: eager promotion before the
    /// deploy, a recorded working-set prefetch into the UC's fresh root
    /// mid-deploy, or nothing up front (lazy: every later touch pages in
    /// one by one through the MMU's pager, and
    /// [`conclude`](Self::conclude) books the device time).
    fn deploy(
        &mut self,
        img: UcImageId,
        demoted: Option<SnapshotId>,
        costs: &mut PathCosts,
    ) -> Result<UcContext, NodeError> {
        let mut prefetch = None;
        if let (Some(sid), Some(tier)) = (demoted, &self.tier) {
            match tier.policy() {
                // Fully resident again: the rest is a plain warm deploy.
                RestorePolicy::EagerFull => self.phase(Phase::Restore, costs, |n| {
                    let tier = n.tier.as_mut().expect("a demoted snapshot has a tier");
                    let out = tier.promote(&mut n.mmu, &mut n.mem, &n.snaps, sid)?;
                    n.tracer.event(TraceEvent::TierPromote { pages: out.pages });
                    Ok(((), out.cost))
                })?,
                // Lazy and prefetch deploys run against the still-demoted
                // snapshot (that is what preserves cache density).
                RestorePolicy::WorkingSetPrefetch if tier.working_set(sid).is_some() => {
                    prefetch = Some(sid);
                }
                _ => {}
            }
        }
        let mut prefetched = None;
        let uc = self.phase(Phase::Deploy, costs, |n| {
            // Memory pressure is handled before construction, like the §6
            // daemon watching the free-frame watermark.
            n.run_oom_daemon();
            let (uc, mech_cost) = n.images.deploy_prepared(
                &mut n.mmu,
                &mut n.mem,
                &mut n.snaps,
                img,
                |mmu, mem, root| {
                    if let Some(sid) = prefetch {
                        let tier = n.tier.as_mut().expect("a demoted snapshot has a tier");
                        let out = tier
                            .prefetch_into(mmu, mem, root, sid)
                            .map_err(|_| UcError::BadState("working-set prefetch failed"))?;
                        prefetched = Some(out);
                    }
                    Ok(())
                },
            )?;
            n.register_port(&uc);
            if let (Some(tier), Ok(sid)) = (n.tier.as_mut(), n.images.snapshot_of(img)) {
                tier.note_use(sid);
            }
            // OOM-daemon demotions bill the deploy that triggered them.
            let demote_cost = std::mem::take(&mut n.pending_demote_cost);
            Ok((uc, mech_cost + n.cost.uc_construct_fixed + demote_cost))
        })?;
        if let Some(out) = prefetched {
            self.phase(Phase::Restore, costs, |n| {
                n.tracer
                    .event(TraceEvent::TierPrefetch { pages: out.pages });
                Ok(((), out.cost))
            })?;
        }
        Ok(uc)
    }

    /// Gives a fresh UC its unique proxy port (all UCs share one IP/MAC).
    fn register_port(&mut self, uc: &UcContext) {
        let _ = self.proxy.register(UcEndpoint {
            core: (uc.uc_id % self.config.cores as u32) as u16,
            uc: uc.uc_id,
        });
    }

    /// Destroys a UC, dropping its proxy mapping first.
    pub fn destroy_uc(&mut self, uc: UcContext) {
        self.proxy.unregister(uc.uc_id);
        self.images
            .destroy_uc(&mut self.mmu, &mut self.mem, &mut self.snaps, uc);
    }

    /// Ends a segment after exec: books the device time of its lazy
    /// page-ins, then takes the UC out of `uc` and caches it for hot
    /// starts (completed) or parks it until the IO reply (blocked).
    fn conclude(
        &mut self,
        f: FnId,
        path: PathKind,
        uc: &mut Option<UcContext>,
        outcome: InvocationOutcome,
        mut costs: PathCosts,
        ops_before: seuss_paging::OpStats,
    ) -> Result<Invocation, NodeError> {
        // Device time of lazy page-ins this segment performed (zero on
        // every untiered run) bills the restore phase, whichever phase
        // the faults actually landed in.
        let swap_nanos = self
            .mmu
            .stats
            .swap_in_nanos
            .saturating_sub(ops_before.swap_in_nanos);
        if swap_nanos > 0 {
            self.phase(Phase::Restore, &mut costs, |_| {
                Ok(((), SimDuration::from_nanos(swap_nanos)))
            })?;
        }
        if matches!(outcome, InvocationOutcome::Completed { .. }) {
            self.phase(Phase::Respond, &mut costs, |n| Ok(((), n.cost.respond)))?;
        }
        self.tracer.record_segment(path, costs.phases());
        let uc = uc.take().expect("a concluded segment has a UC");
        let result = match outcome {
            InvocationOutcome::Completed { result } => result,
            InvocationOutcome::BlockedOnIo { url } => {
                let token = IoToken(self.next_token);
                self.next_token += 1;
                self.pending.insert(token.0, (f, path, uc));
                return Ok(Invocation::Blocked {
                    path,
                    token,
                    url,
                    costs,
                });
            }
        };
        // REAP-style recording: the first completed run off a freshly
        // demoted snapshot harvests the pages it touched (hardware
        // accessed bits) as the restore working set.
        if let (Some(sid), Some(tier)) = (uc.source_snapshot, self.tier.as_mut()) {
            if tier.needs_recording(sid) {
                let accessed = self.mmu.harvest_and_clear_accessed(uc.space.root());
                tier.record_working_set(sid, &accessed);
            }
        }
        match path {
            PathKind::Cold => self.stats.cold += 1,
            PathKind::Warm => self.stats.warm += 1,
            PathKind::Hot => self.stats.hot += 1,
            PathKind::WarmTier => self.stats.warm_tier += 1,
        }
        let private_pages = self.mmu.stats.since(&ops_before).pages_copied();
        // Cache the UC for future hot starts; destroy any displaced.
        if let Some(victim) = self.idle.put(f, uc) {
            self.destroy_uc(victim);
        }
        Ok(Invocation::Completed {
            path,
            result,
            costs,
            private_pages,
        })
    }

    /// The one exit of every invoke and resume. A failed one destroys its
    /// UC, if it got that far, and counts the error; a successful one has
    /// already handed its UC to a cache or the pending table.
    fn settle(
        &mut self,
        uc: Option<UcContext>,
        result: Result<Invocation, NodeError>,
    ) -> Result<Invocation, NodeError> {
        if result.is_err() {
            if let Some(uc) = uc {
                self.destroy_uc(uc);
            }
            self.stats.errors += 1;
        }
        result
    }

    /// Delivers an external-IO response to a blocked invocation.
    pub fn resume_invocation(
        &mut self,
        token: IoToken,
        response: &str,
    ) -> Result<Invocation, NodeError> {
        let Some((f, path, parked)) = self.pending.remove(&token.0) else {
            return self.settle(None, Err(NodeError::UnknownToken));
        };
        let ops_before = self.mmu.stats;
        let span = self.tracer.span(SpanName::Resume);
        span.annotate_fn(f);
        span.annotate_path(path);
        let mut costs = PathCosts::default();
        let mut uc = None;
        let ctx = uc.insert(parked);
        let result = self
            .phase(Phase::Exec, &mut costs, |n| {
                Ok(ctx.resume_io(&mut n.mmu, &mut n.mem, response)?)
            })
            .and_then(|outcome| self.conclude(f, path, &mut uc, outcome, costs, ops_before));
        self.settle(uc, result)
    }

    /// Deploys one idle UC from the base runtime image into the idle pool
    /// of function `f` (Table 3's density/creation-rate harness).
    pub fn deploy_idle_uc(&mut self, f: FnId) -> Result<SimDuration, NodeError> {
        let base = self.runtime_image().ok_or(NodeError::NotInitialized)?;
        let (uc, mech) = self
            .images
            .deploy(&mut self.mmu, &mut self.mem, &mut self.snaps, base)?;
        self.register_port(&uc);
        if let Some(victim) = self.idle.put(f, uc) {
            self.destroy_uc(victim);
        }
        Ok(mech + self.cost.uc_construct_fixed)
    }

    /// Number of invocations currently blocked on external IO.
    pub fn blocked_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether the snapshot behind a deployable image passes its
    /// integrity check. Images without a resolvable snapshot count as
    /// intact (nothing to verify).
    fn snapshot_intact(&self, img: UcImageId) -> bool {
        self.images
            .snapshot_of(img)
            .ok()
            .and_then(|sid| self.snaps.verify(sid).ok())
            .unwrap_or(true)
    }

    /// Damages the cached function snapshot for `f` in place (fault
    /// injection). Returns whether a cached snapshot existed to corrupt;
    /// detection happens on the function's next warm-path lookup.
    pub fn corrupt_fn_snapshot(&mut self, f: FnId) -> bool {
        if let Some(img) = self.fn_cache.peek(f) {
            if let Ok(sid) = self.images.snapshot_of(img) {
                return self.snaps.corrupt(sid).is_ok();
            }
        }
        false
    }

    /// Crashes the node: every pending (IO-blocked) invocation, idle UC,
    /// and cached function snapshot is destroyed, exactly what a power
    /// cycle would take. The base runtime snapshots survive — the reboot
    /// cost the caller charges covers their re-initialization. Returns
    /// how many cached/in-flight items were lost.
    ///
    /// Destruction order is fixed (pending by token, idle LRU-first,
    /// snapshots LRU-first) so a crash at a given virtual instant leaves
    /// byte-identical node state on every run.
    pub fn crash(&mut self) -> u64 {
        let mut lost = 0u64;
        let mut tokens: Vec<u64> = self.pending.keys().copied().collect();
        tokens.sort_unstable();
        for t in tokens {
            let (_, _, uc) = self.pending.remove(&t).expect("token just listed");
            self.destroy_uc(uc);
            lost += 1;
        }
        while let Some(uc) = self.idle.pop_lru() {
            self.destroy_uc(uc);
            lost += 1;
        }
        while let Some(sid) = self.fn_cache.evict_lru(
            &mut self.mmu,
            &mut self.mem,
            &mut self.snaps,
            &mut self.images,
        ) {
            if let Some(sid) = sid {
                self.forget_tier(sid);
            }
            lost += 1;
        }
        self.tracer.event(TraceEvent::FaultNodeCrash);
        lost
    }
}

impl From<StoreError> for NodeError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Mem(_) => NodeError::OutOfMemory,
            other => NodeError::Function(other.to_string()),
        }
    }
}

impl From<UcError> for NodeError {
    fn from(e: UcError) -> Self {
        match e {
            UcError::Mem(_) | UcError::Fault(seuss_paging::PageFault::OutOfMemory(_)) => {
                NodeError::OutOfMemory
            }
            other => NodeError::Function(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOP: &str = "function main(args) { return 0; }";

    fn node() -> SeussNode {
        SeussNode::new(SeussConfig::test_node()).unwrap().0
    }

    fn expect_completed(inv: Invocation) -> (PathKind, String, PathCosts) {
        match inv {
            Invocation::Completed {
                path,
                result,
                costs,
                ..
            } => (path, result, costs),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn cold_then_warm_then_hot() {
        let mut n = node();
        let (p1, r1, c1) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
        assert_eq!(p1, PathKind::Cold);
        assert_eq!(r1, "0");
        assert!(c1.import > SimDuration::ZERO);
        assert!(c1.capture > SimDuration::ZERO);

        // Same function again: the idle UC serves it hot.
        let (p2, _, c2) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
        assert_eq!(p2, PathKind::Hot);
        assert_eq!(c2.deploy, SimDuration::ZERO);
        assert_eq!(c2.import, SimDuration::ZERO);

        // Drain the idle cache; the snapshot now serves it warm.
        while n
            .idle
            .take(1)
            .map(|uc| {
                n.images
                    .destroy_uc(&mut n.mmu, &mut n.mem, &mut n.snaps, uc)
            })
            .is_some()
        {}
        let (p3, _, c3) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
        assert_eq!(p3, PathKind::Warm);
        assert!(c3.deploy > SimDuration::ZERO);
        assert_eq!(c3.import, SimDuration::ZERO, "no recompile on warm path");
        assert_eq!(n.stats.cold, 1);
        assert_eq!(n.stats.hot, 1);
        assert_eq!(n.stats.warm, 1);
    }

    #[test]
    fn path_cost_ordering() {
        let mut n = node();
        let (_, _, cold) = expect_completed(n.invoke(7, NOP, &[]).unwrap());
        let (_, _, hot) = expect_completed(n.invoke(7, NOP, &[]).unwrap());
        while n
            .idle
            .take(7)
            .map(|uc| {
                n.images
                    .destroy_uc(&mut n.mmu, &mut n.mem, &mut n.snaps, uc)
            })
            .is_some()
        {}
        let (_, _, warm) = expect_completed(n.invoke(7, NOP, &[]).unwrap());
        assert!(cold.total() > warm.total());
        assert!(warm.total() > hot.total());
    }

    #[test]
    fn distinct_functions_get_distinct_snapshots() {
        let mut n = node();
        n.invoke(1, "function main(a) { return 'one'; }", &[])
            .unwrap();
        n.invoke(2, "function main(a) { return 'two'; }", &[])
            .unwrap();
        assert_eq!(n.fn_cache.len(), 2);
        let (_, r, _) = expect_completed(n.invoke(1, "", &[]).unwrap());
        assert_eq!(r, "one", "hot path runs the right function");
        let (_, r, _) = expect_completed(n.invoke(2, "", &[]).unwrap());
        assert_eq!(r, "two");
    }

    #[test]
    fn io_bound_invocation_blocks_and_resumes() {
        let mut n = node();
        let src = "function main(a) { let r = http_get('http://ext'); return r + '|done'; }";
        let inv = n.invoke(9, src, &[]).unwrap();
        let token = match inv {
            Invocation::Blocked { token, ref url, .. } => {
                assert_eq!(url, "http://ext");
                token
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(n.blocked_count(), 1);
        let (_, r, _) = expect_completed(n.resume_invocation(token, "OK").unwrap());
        assert_eq!(r, "OK|done");
        assert_eq!(n.blocked_count(), 0);
    }

    #[test]
    fn resume_with_bad_token_fails() {
        let mut n = node();
        assert_eq!(
            n.resume_invocation(IoToken(77), "x").err(),
            Some(NodeError::UnknownToken)
        );
    }

    #[test]
    fn compile_error_reported_and_uc_cleaned() {
        let mut n = node();
        let before = n.mem.stats().used_frames;
        let err = n.invoke(5, "function main( {", &[]).unwrap_err();
        assert!(matches!(err, NodeError::Function(_)));
        assert_eq!(n.stats.errors, 1);
        // The failed UC was destroyed (allow for the fn-cache being empty).
        assert!(n.mem.stats().used_frames <= before + 8);
    }

    #[test]
    fn arguments_flow_through() {
        let mut n = node();
        let src = "function main(args) { return args.name + '-' + args.op; }";
        let (_, r, _) = expect_completed(
            n.invoke(3, src, &[("name", "seuss"), ("op", "go")])
                .unwrap(),
        );
        assert_eq!(r, "seuss-go");
    }

    #[test]
    fn oom_daemon_reclaims_idle_ucs() {
        let cfg = SeussConfig::test_builder()
            .mem_mib(192)
            .idle_per_fn(8)
            .idle_total(10_000)
            .build()
            .unwrap();
        let (mut n, _) = SeussNode::new(cfg).unwrap();
        // Force pressure: tiny reclaim threshold relative to remaining room.
        let free = n.mem.stats().free_frames();
        n.mem.set_reclaim_threshold_frames(free - 600);
        // Build up idle UCs until the daemon starts reclaiming.
        for i in 0..64 {
            let _ = n.deploy_idle_uc(i);
        }
        n.run_oom_daemon();
        assert!(n.stats.oom_reclaims > 0 || n.idle.len() < 64);
    }

    #[test]
    fn deploy_idle_uc_populates_hot_cache() {
        let mut n = node();
        n.invoke(4, NOP, &[]).unwrap(); // builds fn snapshot + one idle UC
        assert!(n.idle.count_for(4) >= 1);
        let (p, _, _) = expect_completed(n.invoke(4, "", &[]).unwrap());
        assert_eq!(p, PathKind::Hot);
    }

    #[test]
    fn ao_levels_change_cold_cost() {
        let mk = |ao| {
            let cfg = SeussConfig::test_builder().ao_level(ao).build().unwrap();
            let (mut n, _) = SeussNode::new(cfg).unwrap();
            let (_, _, c) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
            c.total()
        };
        let no_ao = mk(AoLevel::None);
        let net = mk(AoLevel::Network);
        let full = mk(AoLevel::NetworkAndInterpreter);
        assert!(
            no_ao > net,
            "network AO must cut cold start ({no_ao:?} vs {net:?})"
        );
        assert!(
            net > full,
            "interpreter AO must cut further ({net:?} vs {full:?})"
        );
    }
}

#[cfg(test)]
mod proxy_tests {
    use super::*;
    use crate::config::SeussConfig;

    const NOP: &str = "function main(args) { return 0; }";

    #[test]
    fn live_ucs_hold_unique_proxy_ports() {
        let (mut n, _) = SeussNode::new(SeussConfig::test_node()).unwrap();
        for f in 0..6 {
            n.invoke(f, NOP, &[]).unwrap();
        }
        // Every idle UC holds a mapping.
        assert_eq!(n.proxy.active(), n.idle.len());
    }

    #[test]
    fn destroying_ucs_releases_ports() {
        let (mut n, _) = SeussNode::new(SeussConfig::test_node()).unwrap();
        for f in 0..4 {
            n.invoke(f, NOP, &[]).unwrap();
        }
        let before = n.proxy.active();
        assert!(before >= 4);
        while let Some(uc) = n.idle.pop_lru() {
            n.destroy_uc(uc);
        }
        assert_eq!(n.proxy.active(), 0);
    }

    #[test]
    fn blocked_ucs_keep_their_mapping() {
        let (mut n, _) = SeussNode::new(SeussConfig::test_node()).unwrap();
        let src = "function main(a) { let r = http_get('http://x'); return r; }";
        let token = match n.invoke(1, src, &[]).unwrap() {
            Invocation::Blocked { token, .. } => token,
            other => panic!("{other:?}"),
        };
        // The blocked UC's port stays mapped (external reply must route back).
        assert!(n.proxy.active() >= 1);
        n.resume_invocation(token, "ok").unwrap();
        assert_eq!(n.proxy.active(), n.idle.len());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    const NOP: &str = "function main(args) { return 0; }";

    fn node() -> SeussNode {
        SeussNode::new(SeussConfig::test_node()).unwrap().0
    }

    fn expect_completed(inv: Invocation) -> (PathKind, String, PathCosts) {
        match inv {
            Invocation::Completed {
                path,
                result,
                costs,
                ..
            } => (path, result, costs),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_degrades_warm_to_cold_and_repairs() {
        let mut n = node();
        expect_completed(n.invoke(9, NOP, &[]).unwrap());
        // Drop the idle UC so the next invoke consults the fn cache.
        while let Some(uc) = n.idle.pop_lru() {
            n.destroy_uc(uc);
        }
        assert!(n.corrupt_fn_snapshot(9));
        let (p, r, _) = expect_completed(n.invoke(9, NOP, &[]).unwrap());
        assert_eq!(p, PathKind::Cold, "corrupted snapshot must not serve warm");
        assert_eq!(r, "0");
        assert_eq!(n.stats.cold, 2);

        // The cold-path re-capture repaired the cache: with the idle UC
        // drained again, the function serves warm once more.
        while let Some(uc) = n.idle.pop_lru() {
            n.destroy_uc(uc);
        }
        let (p, _, _) = expect_completed(n.invoke(9, NOP, &[]).unwrap());
        assert_eq!(p, PathKind::Warm);
    }

    /// Checks the conservation invariants after one failed invoke or
    /// resume of `f`: the failed UC gave back its proxy port and its
    /// snapshot reference, and the failure was counted once.
    fn assert_failure_cleaned_up(n: &SeussNode, f: FnId, errors_before: u64) {
        assert_eq!(n.stats.errors, errors_before + 1, "one error per failure");
        assert_eq!(
            n.proxy.active(),
            n.idle.len() + n.blocked_count(),
            "only idle and blocked UCs hold proxy ports"
        );
        let img = n.fn_cache.peek(f).expect("fn snapshot cached");
        let sid = n.images.snapshot_of(img).unwrap();
        assert_eq!(n.snaps.get(sid).unwrap().active_ucs(), 0);
    }

    #[test]
    fn failed_invokes_release_their_uc_on_every_path() {
        let mut n = node();
        let spin = "function main(args) { while (true) {} return 0; }";

        // Cold: import and capture succeed, exec runs out of fuel.
        let errors = n.stats.errors;
        assert!(n.invoke(1, spin, &[]).is_err());
        assert_failure_cleaned_up(&n, 1, errors);

        // Warm: the failure left no idle UC, so the snapshot deploys.
        for _ in 0..3 {
            let frames = n.mem.stats().used_frames;
            let errors = n.stats.errors;
            assert!(n.invoke(1, spin, &[]).is_err());
            assert_failure_cleaned_up(&n, 1, errors);
            assert_eq!(
                n.mem.stats().used_frames,
                frames,
                "warm failure frees its frames"
            );
        }
        assert_eq!((n.stats.cold, n.stats.warm), (0, 0));

        // Hot: a successful call leaves an idle UC; the spinning call
        // fails on it.
        let maybe_spin =
            "function main(args) { if (args.spin == '1') { while (true) {} } return 0; }";
        expect_completed(n.invoke(2, maybe_spin, &[]).unwrap());
        assert_eq!(n.idle.count_for(2), 1);
        let errors = n.stats.errors;
        assert!(n.invoke(2, maybe_spin, &[("spin", "1")]).is_err());
        assert_eq!(n.stats.hot, 0);
        assert_eq!(n.idle.count_for(2), 0);
        assert_failure_cleaned_up(&n, 2, errors);

        // Resume: the segment after the external reply runs out of fuel.
        let io_spin =
            "function main(a) { let r = http_get('http://ext'); while (true) {} return r; }";
        let token = match n.invoke(3, io_spin, &[]).unwrap() {
            Invocation::Blocked { token, .. } => token,
            other => panic!("{other:?}"),
        };
        let errors = n.stats.errors;
        assert!(n.resume_invocation(token, "OK").is_err());
        assert_eq!(n.blocked_count(), 0);
        assert_failure_cleaned_up(&n, 3, errors);
    }

    #[test]
    fn corrupting_an_uncached_function_reports_false() {
        let mut n = node();
        assert!(!n.corrupt_fn_snapshot(42));
    }

    #[test]
    fn crash_loses_caches_and_pending_work() {
        let mut n = node();
        expect_completed(n.invoke(1, NOP, &[]).unwrap());
        expect_completed(n.invoke(2, NOP, &[]).unwrap());
        let src = "function main(a) { let r = http_get('http://ext'); return r; }";
        let token = match n.invoke(3, src, &[]).unwrap() {
            Invocation::Blocked { token, .. } => token,
            other => panic!("{other:?}"),
        };
        assert!(n.idle.len() >= 2);
        assert_eq!(n.fn_cache.len(), 3);
        assert_eq!(n.blocked_count(), 1);

        let lost = n.crash();
        assert!(lost >= 6, "pending + idle UCs + snapshots all lost: {lost}");
        assert_eq!(n.idle.len(), 0);
        assert_eq!(n.fn_cache.len(), 0);
        assert_eq!(n.blocked_count(), 0);
        assert_eq!(n.proxy.active(), 0, "every UC port was released");
        assert_eq!(
            n.resume_invocation(token, "late").err(),
            Some(NodeError::UnknownToken),
            "replies to pre-crash invocations are orphaned"
        );

        // The rebooted node still serves requests — from a cold start.
        let (p, _, _) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
        assert_eq!(p, PathKind::Cold);
    }
}

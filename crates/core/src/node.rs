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
use seuss_paging::Mmu;
use seuss_snapshot::{SnapshotError, SnapshotId, SnapshotKind, SnapshotStore};
use seuss_store::{ReclaimMode, RestorePolicy, StoreError, TieredStore};
use seuss_trace::{CacheKind, Phase, SpanName, TraceEvent, Tracer};
use seuss_unikernel::{ImageStore, InvocationOutcome, Layout, UcContext, UcError};
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
    pub(crate) deploy: SimDuration,
    /// Storage-tier restore work (eager promotion or working-set
    /// prefetch); zero on untiered paths.
    pub restore: SimDuration,
    /// Connection setup into the UC (plus any first-use warming).
    pub(crate) connect: SimDuration,
    /// Code import + compile.
    pub(crate) import: SimDuration,
    /// Function-snapshot capture.
    pub(crate) capture: SimDuration,
    /// Argument import + driver dispatch + function execution.
    pub(crate) exec: SimDuration,
    /// Result return.
    pub(crate) respond: SimDuration,
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
}

impl core::fmt::Display for NodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeError::OutOfMemory => write!(f, "node out of memory"),
            NodeError::Function(m) => write!(f, "function error: {m}"),
            NodeError::UnknownToken => write!(f, "unknown IO token"),
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
    Function(SnapshotId),
    /// The function image, snapshot diff on the storage tier (warm-tier).
    Demoted(SnapshotId),
    /// The runtime image (cold): every phase.
    Runtime(SnapshotId),
}

impl Start {
    fn path(&self) -> PathKind {
        match self {
            Start::Idle => PathKind::Hot,
            Start::Function(_) => PathKind::Warm,
            Start::Demoted(_) => PathKind::WarmTier,
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
    /// Deployable UC images, one per snapshot and named by its id.
    pub images: ImageStore,
    /// The function-snapshot cache.
    pub fn_cache: FnImageCache,
    /// The idle-UC cache.
    pub idle: IdleUcCache,
    /// Fixed-cost model.
    pub cost: CostModel,
    /// Statistics.
    pub stats: NodeStats,
    /// Tracing handle (disabled by default; see [`SeussNode::set_tracer`]).
    pub tracer: Tracer,
    /// The storage tier, when `SeussConfig::store` asks for one. `None`
    /// keeps every snapshot in DRAM — the pre-tier behavior, bit for bit.
    pub tier: Option<TieredStore>,
    /// Device time of OOM-daemon demotions, drained into the next
    /// deploy's cost (pressure work bills the request that triggers it).
    pending_demote_cost: SimDuration,
    /// The base runtime image every cold start deploys from.
    runtime_image: SnapshotId,
    /// Function images dropped while UCs still ran from them; each is
    /// deleted when [`destroy_uc`](SeussNode::destroy_uc) releases its
    /// last UC (the §6 policy).
    retired: Vec<SnapshotId>,
    pending: HashMap<u64, (FnId, PathKind, UcContext)>,
    next_token: u64,
}

/// Boots the Node.js base UC, applies the AO level, and captures the
/// base snapshot. Returns the image's snapshot id and total cost.
fn init_runtime(
    mmu: &mut Mmu,
    mem: &mut PhysMemory,
    snaps: &mut SnapshotStore,
    images: &mut ImageStore,
    uc_profile: seuss_unikernel::UcProfile,
    runtime_profile: miniscript::RuntimeProfile,
    ao: AoLevel,
) -> Result<(SnapshotId, SimDuration), NodeError> {
    let (mut base_uc, mut init_cost) =
        UcContext::boot(mmu, mem, Layout::nodejs(), uc_profile, runtime_profile)?;

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
        "nodejs-runtime".to_string(),
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
        let mut mmu = Mmu::new();
        let mut snaps = SnapshotStore::new();
        let mut images = ImageStore::new();

        let (runtime_image, init_cost) = init_runtime(
            &mut mmu,
            &mut mem,
            &mut snaps,
            &mut images,
            config.uc_profile,
            config.runtime_profile,
            config.ao,
        )?;

        // The storage tier and its pager come up after runtime init: the
        // base snapshot is captured all-DRAM either way.
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
            tracer: Tracer::disabled(),
            tier,
            pending_demote_cost: SimDuration::ZERO,
            runtime_image,
            retired: Vec::new(),
            pending: HashMap::new(),
            next_token: 0,
        };
        Ok((node, init_cost))
    }

    /// The base runtime image id. Always `Some`: a node is built with
    /// its runtime snapshot.
    pub fn runtime_image(&self) -> Option<SnapshotId> {
        Some(self.runtime_image)
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
    /// demote the least-recently-used function image to the device
    /// (pressure degrades hot → warm-from-SSD, not warm → cold); once
    /// nothing is demotable, evict LRU function images outright (the §6
    /// policy permits deleting function-specific snapshots with no
    /// active UCs). Demotion and eviction walk the same order, the
    /// function cache's, and both pass over `spare`: a deploy spares the
    /// image it is about to build a UC from, which has no UC yet.
    /// Returns reclaim actions taken.
    pub fn run_oom_daemon(&mut self, spare: Option<SnapshotId>) -> u64 {
        let mut n = 0;
        while self.mem.below_reclaim_threshold() {
            if let Some(uc) = self.idle.pop_lru() {
                self.destroy_uc(uc);
                n += 1;
                continue;
            }
            if self.try_demote_coldest(spare) {
                n += 1;
                continue;
            }
            let idle =
                |sid| Some(sid) != spare && self.snaps.get(sid).is_ok_and(|s| s.active_ucs() == 0);
            if let Some(sid) = self.fn_cache.evict_lru(idle) {
                self.drop_fn_image(sid);
                n += 1;
                continue;
            }
            break;
        }
        self.stats.oom_reclaims += n;
        n
    }

    /// One DemoteColdest reclaim step: walk the function cache from its
    /// cold end and demote the first image other than `spare` that the
    /// tier accepts (resident, no live UCs, a private diff, device room).
    /// The batched write cost accrues to the next deploy.
    fn try_demote_coldest(&mut self, spare: Option<SnapshotId>) -> bool {
        let Some(tier) = self
            .tier
            .as_mut()
            .filter(|t| t.reclaim_mode() == ReclaimMode::DemoteColdest)
        else {
            return false;
        };
        let mut candidates = self.fn_cache.images().filter(|&img| Some(img) != spare);
        let Some(out) = candidates.find_map(|img| {
            tier.demote(&mut self.mmu, &mut self.mem, &self.snaps, img)
                .ok()
        }) else {
            return false;
        };
        self.tracer
            .event(TraceEvent::TierDemote { pages: out.pages });
        self.pending_demote_cost += out.cost;
        true
    }

    /// The one way a function image leaves the node, once the function
    /// cache has given it up. An image no UC runs from is deleted with
    /// its snapshot, and its device blocks are freed. One that UCs still
    /// run from is retired: having left the cache it is no demotion
    /// candidate, but it keeps its blocks, which those UCs may yet page
    /// against, and [`destroy_uc`](Self::destroy_uc) deletes it with its
    /// last UC.
    fn drop_fn_image(&mut self, sid: SnapshotId) {
        match self
            .images
            .delete(&mut self.mmu, &mut self.mem, &mut self.snaps, sid)
        {
            Ok(()) => {
                if let Some(t) = self.tier.as_mut() {
                    t.forget(sid);
                }
            }
            Err(SnapshotError::ActiveUcs(_)) => self.retired.push(sid),
            // Function snapshots have no children, and a dangling id has
            // nothing left to drop.
            Err(_) => {}
        }
    }

    /// Caches `img` as function `f`'s warm-path image — a cold-path
    /// capture, or a snapshot imported from a peer — at the hot end of
    /// the one LRU order that both demotion and eviction walk.
    pub fn install_fn_image(&mut self, f: FnId, img: SnapshotId) {
        if let Some(old) = self.fn_cache.insert(f, img) {
            self.drop_fn_image(old);
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
    /// `args`). Picks hot > warm > cold.
    pub fn invoke(
        &mut self,
        f: FnId,
        src: &str,
        args: &[(&str, &str)],
    ) -> Result<Invocation, NodeError> {
        let ops_before = self.mmu.stats;
        let span = self.tracer.span(SpanName::Invoke);
        span.annotate_fn(f);
        let mut uc = None;
        let result = self.resolve(f, &mut uc).and_then(|start| {
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
    fn resolve(&mut self, f: FnId, uc: &mut Option<UcContext>) -> Result<Start, NodeError> {
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
            let demoted = self.tier.as_ref().is_some_and(|t| t.is_demoted(img));
            let device_faulted =
                demoted && self.tier.as_ref().is_some_and(|t| t.read_fault_active());
            if self.snaps.verify(img).unwrap_or(true) && !device_faulted {
                self.tracer.event(TraceEvent::CacheHit {
                    cache: CacheKind::FnSnapshot,
                });
                return Ok(if demoted {
                    Start::Demoted(img)
                } else {
                    Start::Function(img)
                });
            }
            if device_faulted {
                self.tracer.event(TraceEvent::TierReadError);
            } else {
                self.tracer.event(TraceEvent::FaultSnapshotCorrupt);
            }
            // Discard the unusable image (deferred while a UC still runs
            // from it).
            self.fn_cache.remove(f);
            self.drop_fn_image(img);
        }
        self.tracer.event(TraceEvent::CacheMiss {
            cache: CacheKind::FnSnapshot,
        });
        Ok(Start::Runtime(self.runtime_image))
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
            Start::Function(img) => (uc.insert(self.deploy(img, false, &mut costs)?), None),
            Start::Demoted(img) => (uc.insert(self.deploy(img, true, &mut costs)?), None),
            Start::Runtime(base) => (uc.insert(self.deploy(base, false, &mut costs)?), Some(base)),
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
    /// An image whose diff lives on the storage tier (`demoted`) also
    /// takes the restore its policy asks for: eager promotion before the
    /// deploy, a recorded working-set prefetch into the UC's fresh root
    /// mid-deploy, or nothing up front (lazy: every later touch pages in
    /// one by one through the MMU's pager, and
    /// [`conclude`](Self::conclude) books the device time).
    fn deploy(
        &mut self,
        img: SnapshotId,
        demoted: bool,
        costs: &mut PathCosts,
    ) -> Result<UcContext, NodeError> {
        let mut prefetch = false;
        if let Some(tier) = self.tier.as_ref().filter(|_| demoted) {
            match tier.policy() {
                // Fully resident again: the rest is a plain warm deploy.
                RestorePolicy::EagerFull => self.phase(Phase::Restore, costs, |n| {
                    let tier = n.tier.as_mut().expect("a demoted snapshot has a tier");
                    let out = tier.promote(&mut n.mmu, &mut n.mem, &n.snaps, img)?;
                    n.tracer.event(TraceEvent::TierPromote { pages: out.pages });
                    Ok(((), out.cost))
                })?,
                // Lazy and prefetch deploys run against the still-demoted
                // snapshot (that is what preserves cache density).
                RestorePolicy::WorkingSetPrefetch if tier.working_set(img).is_some() => {
                    prefetch = true;
                }
                _ => {}
            }
        }
        let mut prefetched = None;
        let uc = self.phase(Phase::Deploy, costs, |n| {
            // Memory pressure is handled before construction, like the §6
            // daemon watching the free-frame watermark.
            n.run_oom_daemon(Some(img));
            let (uc, mech_cost) = n.images.deploy_prepared(
                &mut n.mmu,
                &mut n.mem,
                &mut n.snaps,
                img,
                |mmu, mem, root| {
                    if prefetch {
                        let tier = n.tier.as_mut().expect("a demoted snapshot has a tier");
                        let out = tier
                            .prefetch_into(mmu, mem, root, img)
                            .map_err(|_| UcError::BadState("working-set prefetch failed"))?;
                        prefetched = Some(out);
                    }
                    Ok(())
                },
            )?;
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

    /// Destroys a UC. The last UC of a retired image takes the image
    /// with it.
    pub fn destroy_uc(&mut self, uc: UcContext) {
        let source = uc.source_snapshot;
        self.images
            .destroy_uc(&mut self.mmu, &mut self.mem, &mut self.snaps, uc);
        if let Some(i) = source.and_then(|s| self.retired.iter().position(|&r| r == s)) {
            // Deletes the image, or retires it again while UCs remain.
            let sid = self.retired.swap_remove(i);
            self.drop_fn_image(sid);
        }
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
        let (uc, mech) = self.images.deploy(
            &mut self.mmu,
            &mut self.mem,
            &mut self.snaps,
            self.runtime_image,
        )?;
        if let Some(victim) = self.idle.put(f, uc) {
            self.destroy_uc(victim);
        }
        Ok(mech + self.cost.uc_construct_fixed)
    }

    /// Damages the cached function snapshot for `f` in place (fault
    /// injection). Returns whether a cached snapshot existed to corrupt;
    /// detection happens on the function's next warm-path lookup.
    pub fn corrupt_fn_snapshot(&mut self, f: FnId) -> bool {
        self.fn_cache
            .peek(f)
            .is_some_and(|img| self.snaps.corrupt(img).is_ok())
    }

    /// Crashes the node: every pending (IO-blocked) invocation, idle UC,
    /// and cached function snapshot is destroyed, exactly what a power
    /// cycle would take. The base runtime snapshot survives — the reboot
    /// cost the caller charges covers its re-initialization. Returns
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
        while let Some(sid) = self.fn_cache.evict_lru(|_| true) {
            self.drop_fn_image(sid);
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
        while let Some(uc) = n.idle.take(1) {
            n.destroy_uc(uc);
        }
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
        while let Some(uc) = n.idle.take(7) {
            n.destroy_uc(uc);
        }
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
        assert!(n.fn_cache.peek(1).is_some());
        assert_ne!(n.fn_cache.peek(1), n.fn_cache.peek(2));
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
        assert_eq!(n.pending.len(), 1);
        let (_, r, _) = expect_completed(n.resume_invocation(token, "OK").unwrap());
        assert_eq!(r, "OK|done");
        assert_eq!(n.pending.len(), 0);
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
        n.run_oom_daemon(None);
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
mod fault_tests {
    use super::*;
    use seuss_mem::MemStats;
    use seuss_store::{DeviceConfig, StoreConfig};

    const NOP: &str = "function main(args) { return 0; }";
    const IO: &str = "function main(a) { let r = http_get('http://ext'); return r; }";

    fn node() -> SeussNode {
        SeussNode::new(SeussConfig::test_node()).unwrap().0
    }

    /// A test node on `mem_mib` of DRAM with a demote-coldest NVMe tier.
    fn tiered_node(policy: RestorePolicy, mem_mib: u64) -> SeussNode {
        let store = StoreConfig {
            device: DeviceConfig::nvme(),
            policy,
            reclaim: ReclaimMode::DemoteColdest,
        };
        let cfg = SeussConfig::test_builder()
            .mem_mib(mem_mib)
            .store(Some(store));
        SeussNode::new(cfg.build().unwrap()).unwrap().0
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

    /// Destroys `f`'s idle UCs, so its next invoke deploys from the
    /// function cache.
    fn drain_idle(n: &mut SeussNode, f: FnId) {
        while let Some(uc) = n.idle.take(f) {
            n.destroy_uc(uc);
        }
    }

    /// Invokes `f` to completion, then [`drain_idle`]s it.
    fn invoke_drained(n: &mut SeussNode, f: FnId, src: &str) -> PathKind {
        let (path, _, _) = expect_completed(n.invoke(f, src, &[]).unwrap());
        drain_idle(n, f);
        path
    }

    fn expect_blocked(inv: Invocation, want: PathKind) -> IoToken {
        match inv {
            Invocation::Blocked { path, token, .. } => {
                assert_eq!(path, want);
                token
            }
            other => panic!("expected a {want:?} block, got {other:?}"),
        }
    }

    /// The frame counts of `m`, without its lifetime counters.
    fn live_frames(m: MemStats) -> MemStats {
        MemStats {
            total_allocs: 0,
            total_frees: 0,
            ..m
        }
    }

    /// UCs still running from the node's images (runtime, cached and
    /// retired): the count the §6 delete policy reads.
    fn live_ucs(n: &SeussNode) -> usize {
        let active = |sid| n.snaps.get(sid).map_or(0, |s| s.active_ucs() as usize);
        std::iter::once(n.runtime_image)
            .chain(n.fn_cache.images())
            .chain(n.retired.iter().copied())
            .map(active)
            .sum()
    }

    /// Destroys every idle UC and empties the function cache through the
    /// node's one exit, then checks that only the runtime image is
    /// left: no UC, snapshot, image, frame or device block outlives the
    /// functions that used it. `boot` is `mem.stats()` right after the
    /// node came up.
    fn drain_and_count(n: &mut SeussNode, boot: MemStats) {
        assert_eq!(n.pending.len(), 0, "resume every blocked invoke first");
        while let Some(uc) = n.idle.pop_lru() {
            n.destroy_uc(uc);
        }
        while let Some(img) = n.fn_cache.evict_lru(|_| true) {
            n.drop_fn_image(img);
        }
        assert_eq!(n.snaps.len(), 1, "only the runtime snapshot remains");
        assert_eq!(n.images.len(), 1, "only the runtime image remains");
        assert_eq!(live_frames(n.mem.stats()), live_frames(boot), "frames");
        assert_eq!(live_ucs(n), 0, "every UC is destroyed");
        if let Some(t) = &n.tier {
            assert_eq!(t.used_blocks(), 0, "every device block is freed");
        }
    }

    #[test]
    fn discarded_image_goes_with_its_last_uc() {
        let mut n = node();
        let boot = n.mem.stats();
        // Cold, then warm twice: no UC is idle while the others are
        // blocked, so each later invoke deploys from the function image.
        let cold = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Cold);
        let warm = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Warm);
        let warm2 = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Warm);
        // The corrupt image is discarded while the warm UCs run from it,
        // so its delete waits for the last of them.
        assert!(n.corrupt_fn_snapshot(1));
        let again = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Cold);
        assert_eq!(n.images.len(), 3, "runtime, retired and fresh image");
        for token in [cold, warm, again, warm2] {
            let (_, r, _) = expect_completed(n.resume_invocation(token, "OK").unwrap());
            assert_eq!(r, "OK");
        }
        drain_and_count(&mut n, boot);
    }

    #[test]
    fn unreadable_demoted_image_frees_its_blocks_with_its_last_uc() {
        let mut n = tiered_node(RestorePolicy::LazyPaging, 2048);
        let boot = n.mem.stats();
        let cold = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Cold);
        expect_completed(n.resume_invocation(cold, "OK").unwrap());
        while let Some(uc) = n.idle.pop_lru() {
            n.destroy_uc(uc);
        }
        let img = n.fn_cache.peek(1).unwrap();
        let tier = n.tier.as_mut().unwrap();
        tier.demote(&mut n.mmu, &mut n.mem, &n.snaps, img).unwrap();
        // A warm-tier UC blocks while it pages against the device; then
        // the device fails, and the next invoke discards the image.
        let warm = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::WarmTier);
        assert!(n.set_device_read_fault(true));
        let again = expect_blocked(n.invoke(1, IO, &[]).unwrap(), PathKind::Cold);
        assert!(
            n.tier.as_ref().unwrap().used_blocks() > 0,
            "the UC keeps them"
        );
        assert!(n.set_device_read_fault(false));
        for token in [warm, again] {
            expect_completed(n.resume_invocation(token, "OK").unwrap());
        }
        drain_and_count(&mut n, boot);
    }

    #[test]
    fn oom_eviction_deletes_whole_images() {
        let mut n = node();
        let boot = n.mem.stats();
        for f in 0..6 {
            expect_completed(n.invoke(f, NOP, &[]).unwrap());
        }
        // A threshold nothing can meet: the daemon reclaims every idle UC
        // and evicts every function image.
        let capacity = n.mem.stats().capacity_frames;
        n.mem.set_reclaim_threshold_frames(capacity);
        n.run_oom_daemon(None);
        assert_eq!(n.fn_cache.evictions, 6);
        assert!((0..6).all(|f| n.fn_cache.peek(f).is_none()));
        assert!(n.idle.is_empty());
        drain_and_count(&mut n, boot);
    }

    #[test]
    fn demotion_walks_the_function_cache_past_pinned_and_demoted_images() {
        let mut n = tiered_node(RestorePolicy::WorkingSetPrefetch, 2048);
        let boot = n.mem.stats();
        invoke_drained(&mut n, 1, NOP);
        let cold = expect_blocked(n.invoke(2, IO, &[]).unwrap(), PathKind::Cold);
        expect_completed(n.resume_invocation(cold, "OK").unwrap());
        drain_idle(&mut n, 2);
        invoke_drained(&mut n, 3, NOP);
        invoke_drained(&mut n, 4, NOP);
        let img = |n: &SeussNode, f: FnId| n.fn_cache.peek(f).unwrap();
        let demoted = |n: &SeussNode| -> Vec<FnId> {
            let tier = n.tier.as_ref().unwrap();
            (1..=4).filter(|&f| tier.is_demoted(img(n, f))).collect()
        };
        // A warm deploy of 1 refreshes it past 2, 3 and 4; a warm
        // deploy of 2 blocks on IO, pinning 2's image with its UC.
        assert_eq!(invoke_drained(&mut n, 1, NOP), PathKind::Warm);
        let pinned = expect_blocked(n.invoke(2, IO, &[]).unwrap(), PathKind::Warm);
        // 3 is the coldest image, but already demoted.
        let three = img(&n, 3);
        let tier = n.tier.as_mut().unwrap();
        tier.demote(&mut n.mmu, &mut n.mem, &n.snaps, three)
            .unwrap();
        let order: Vec<SnapshotId> = [3, 4, 1, 2].iter().map(|&f| img(&n, f)).collect();
        assert_eq!(n.fn_cache.images().collect::<Vec<_>>(), order);

        // One frame short: 4's warm deploy runs the daemon, which steps
        // over the demoted 3 and, 4 having just been looked up, takes 1.
        let free = n.mem.stats().free_frames();
        n.mem.set_reclaim_threshold_frames(free + 1);
        assert_eq!(invoke_drained(&mut n, 4, NOP), PathKind::Warm);
        n.mem.set_reclaim_threshold_frames(0);
        assert_eq!(demoted(&n), [1, 3], "not the image being deployed");
        assert!(n.try_demote_coldest(None));
        assert_eq!(demoted(&n), [1, 3, 4]);
        assert!(!n.try_demote_coldest(None), "2 is pinned, the rest demoted");

        // Once its UC is gone, 2 is the last candidate.
        expect_completed(n.resume_invocation(pinned, "OK").unwrap());
        drain_idle(&mut n, 2);
        assert!(n.try_demote_coldest(None));
        assert_eq!(demoted(&n), [1, 2, 3, 4]);
        assert_eq!(n.tier.as_ref().unwrap().stats().demotions, 4);
        drain_and_count(&mut n, boot);
    }

    #[test]
    fn eager_restore_survives_its_own_deploys_reclaim() {
        // 96 functions with page-sized literals overrun 48 MiB, so the
        // re-deploys below restore from the device, and each promotion
        // makes its room by demoting other images.
        let mut n = tiered_node(RestorePolicy::EagerFull, 48);
        let src = |f: FnId| {
            let cells: Vec<String> = (0..192).map(|i| (f * 1000 + i).to_string()).collect();
            format!(
                "let t = [{}];\nfunction main(a) {{ return t[0]; }}",
                cells.join(",")
            )
        };
        for f in 0..96 {
            invoke_drained(&mut n, f, &src(f));
        }
        let (mut restores, mut pressured) = (0, 0);
        for f in 0..96 {
            let img = n.fn_cache.peek(f).unwrap();
            let tier = n.tier.as_ref().unwrap();
            if !tier.is_demoted(img) {
                continue;
            }
            let was_demoted: Vec<SnapshotId> = n
                .fn_cache
                .images()
                .filter(|&i| tier.is_demoted(i))
                .collect();
            let demotions = tier.stats().demotions;
            assert_eq!(invoke_drained(&mut n, f, &src(f)), PathKind::WarmTier);

            let tier = n.tier.as_ref().unwrap();
            assert!(
                !tier.is_demoted(img),
                "fn {f}: promoted image demoted again"
            );
            let newly = n.fn_cache.images();
            let newly = newly.filter(|i| tier.is_demoted(*i) && !was_demoted.contains(i));
            let during = tier.stats().demotions - demotions;
            assert_eq!(
                during,
                newly.count() as u64,
                "fn {f}: a demotion went to the image this deploy promoted"
            );
            restores += 1;
            pressured += u64::from(during > 0);
        }
        assert!(restores > 0, "pressure never demoted a function");
        assert!(pressured > 0, "no restore ran the daemon under pressure");
    }

    /// A deploy's own reclaim pass spares the image it deploys: with a
    /// threshold nothing can meet and nothing else to give up, the warm
    /// invoke still completes warm, whether the daemon would evict the
    /// image (untiered, lazy) or demote it first (eager).
    #[test]
    fn deploy_reclaim_spares_the_image_it_deploys() {
        let nodes = [
            node(),
            tiered_node(RestorePolicy::LazyPaging, 768),
            tiered_node(RestorePolicy::EagerFull, 768),
        ];
        for mut n in nodes {
            assert_eq!(invoke_drained(&mut n, 1, NOP), PathKind::Cold);
            let capacity = n.mem.stats().capacity_frames;
            n.mem.set_reclaim_threshold_frames(capacity);
            let (path, r, _) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
            assert_eq!((path, r.as_str()), (PathKind::Warm, "0"));
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
    /// resume of `f`: the failed UC was destroyed and gave back its
    /// snapshot reference, and the failure was counted once.
    fn assert_failure_cleaned_up(n: &SeussNode, f: FnId, errors_before: u64) {
        assert_eq!(n.stats.errors, errors_before + 1, "one error per failure");
        assert_eq!(
            live_ucs(n),
            n.idle.len() + n.pending.len(),
            "only idle and blocked UCs are live"
        );
        let img = n.fn_cache.peek(f).expect("fn snapshot cached");
        assert_eq!(n.snaps.get(img).unwrap().active_ucs(), 0);
    }

    #[test]
    fn failed_invokes_release_their_uc_on_every_path() {
        let mut n = node();
        let boot = n.mem.stats();
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
        assert_eq!(n.pending.len(), 0);
        assert_failure_cleaned_up(&n, 3, errors);

        // No failure left anything behind.
        drain_and_count(&mut n, boot);
    }

    #[test]
    fn corrupting_an_uncached_function_reports_false() {
        let mut n = node();
        assert!(!n.corrupt_fn_snapshot(42));
    }

    #[test]
    fn crash_loses_caches_and_pending_work() {
        let mut n = node();
        let boot = n.mem.stats();
        expect_completed(n.invoke(1, NOP, &[]).unwrap());
        expect_completed(n.invoke(2, NOP, &[]).unwrap());
        let src = "function main(a) { let r = http_get('http://ext'); return r; }";
        let token = match n.invoke(3, src, &[]).unwrap() {
            Invocation::Blocked { token, .. } => token,
            other => panic!("{other:?}"),
        };
        assert!(n.idle.len() >= 2);
        assert!((1..=3).all(|f| n.fn_cache.peek(f).is_some()));
        assert_eq!(n.pending.len(), 1);

        let lost = n.crash();
        assert!(lost >= 6, "pending + idle UCs + snapshots all lost: {lost}");
        assert_eq!(n.idle.len(), 0);
        assert!((1..=3).all(|f| n.fn_cache.peek(f).is_none()));
        assert_eq!(n.pending.len(), 0);
        assert_eq!(live_ucs(&n), 0, "every UC was destroyed");
        assert_eq!(
            n.resume_invocation(token, "late").err(),
            Some(NodeError::UnknownToken),
            "replies to pre-crash invocations are orphaned"
        );
        drain_and_count(&mut n, boot);

        // The rebooted node still serves requests — from a cold start.
        let (p, _, _) = expect_completed(n.invoke(1, NOP, &[]).unwrap());
        assert_eq!(p, PathKind::Cold);
    }
}

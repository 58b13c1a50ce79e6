//! The cluster simulation: OpenWhisk control plane + compute backend.
//!
//! One [`Cluster`] is a `simcore::World` reproducing the §7 testbed in
//! virtual time. The control plane adds a fixed round-trip overhead; the
//! SEUSS backend additionally pays the shim's 8 ms hop (§6). Requests
//! arrive from closed-loop workers pulling a shared precomputed order
//! (optionally rate-throttled) and/or from open-loop burst schedules; the
//! compute node serves them on a 16-core non-preemptive pool; IO-bound
//! functions release their core while the external server holds their
//! request; the platform times out requests after 60 s (errors, like the
//! ✗ marks of Figures 6–8).
//!
//! The Linux backend implements OpenWhisk container behaviour: hot
//! dispatch to an idle bound container, stemcell bind (/init), fresh
//! container creation under the two Docker scaling laws, LRU eviction
//! when the cache is full, background stemcell replenishment, and bridge
//! connection failures once the endpoint count saturates the bridge.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use seuss_baseline::{ContainerId, DockerEngine, DockerError};
use seuss_core::{Invocation, IoToken, PathKind, SeussConfig, SeussNode};
use seuss_faults::{FaultKind, FaultPlan, RetryPolicy, FAULT_EXEC_STREAM};
use seuss_trace::{
    merge_jsonl, merge_metrics, MetricsReport, SpanName, TraceDump, TraceEvent, Tracer,
};
use simcore::{stream_seed, Scheduler, SimDuration, SimRng, SimTime, Simulation, World};

use crate::cores::CorePool;
use crate::record::{record, records_jsonl, RequestRecord, RequestStatus, ServedBy, TrialAnalysis};
use crate::spec::{FnId, FnKind, Registry, WorkloadSpec};

/// Which compute backend the cluster runs.
#[derive(Clone, Debug)]
pub enum BackendKind {
    /// SEUSS OS node (with the shim process in front).
    Seuss(Box<SeussConfig>),
    /// Linux node with Docker containers.
    Linux {
        /// OpenWhisk container cache limit (paper: 1024).
        cache_limit: usize,
        /// Stemcell pool target (0 disables; paper: 256 for bursts).
        stemcell_target: usize,
    },
}

/// One direction of the OpenWhisk control plane (API server,
/// controller, Kafka): half of a 36 ms round trip. §7 names these hops
/// but not their cost, so 36 ms is this model's calibration (see
/// EXPERIMENTS.md, "Known deviations").
const CP_ONEWAY: SimDuration = SimDuration::from_millis(18);

/// One direction of the SEUSS shim's extra hop: half of the "about 8 ms
/// to the round-trip latency" §6 reports. Invocation messages pipeline
/// through the shim, so the hop is a fixed latency on each side.
const SHIM_ONEWAY: SimDuration = SimDuration::from_millis(4);

/// From an IO function's external call to its reply: §7's remote HTTP
/// server "blocks for 250 ms before sending an OK reply", over the
/// testbed's 10 GbE link (200 µs RTT, 30 µs per message, 1 ns per byte):
/// the TCP handshake (1.5 RTT + 2 messages = 360 µs), the 200-byte
/// request (RTT/2 + 1 message + 200 ns = 130.2 µs), the 250 ms block,
/// and the 100-byte reply (130.1 µs).
const IO_REPLY: SimDuration = SimDuration::from_nanos(250_620_300);

/// The platform's invocation timeout: OpenWhisk's 60 s default, which
/// §7's burst experiments count as errors (the ✗ marks of Figures 6–8).
/// Every request arms exactly one, so it is a request's only timeout.
const TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Worker cores on the compute node (§7's testbed).
const CORES: u16 = 16;

/// CPU a Linux container spends on a NOP function, and on each side of
/// an IO function's external call (§7's functions do no other work).
const LINUX_EXEC_NOP: SimDuration = SimDuration::from_millis(1);

/// Cluster-level configuration: only what a trial varies. The §7
/// testbed's fixed costs (control plane, shim hop, timeout, external
/// endpoint, Linux NOP) and its core count are constants of this module.
pub struct ClusterConfig {
    /// Compute backend.
    pub backend: BackendKind,
    /// RNG seed: the Linux bridge's packet drops, the fault stream and
    /// the retry backoff jitter.
    pub seed: u64,
    /// Tracing handle; [`Tracer::disabled`] (the default) records nothing.
    /// Pass [`Tracer::enabled`] to capture spans, events, and metrics for
    /// the whole trial.
    pub tracer: Tracer,
    /// Fault schedule injected into the trial. [`FaultPlan::none`] (the
    /// default) draws nothing from the fault RNG streams, so fault-free
    /// trials stay byte-identical to pre-fault builds.
    pub faults: FaultPlan,
    /// How the platform retries requests that an injected fault killed.
    /// Only consulted when a fault interferes with a request; with
    /// [`RetryPolicy::none`] faulted requests error immediately.
    pub retry: RetryPolicy,
}

impl ClusterConfig {
    /// The paper's cluster with a SEUSS backend.
    pub fn seuss_paper() -> Self {
        ClusterConfig {
            backend: BackendKind::Seuss(Box::new(SeussConfig::paper_node())),
            seed: 42,
            tracer: Tracer::disabled(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::resilient(),
        }
    }

    /// The paper's cluster with the Linux backend (throughput config:
    /// stemcells disabled, 1024-container cache).
    pub fn linux_paper() -> Self {
        ClusterConfig {
            backend: BackendKind::Linux {
                cache_limit: 1024,
                stemcell_target: 0,
            },
            ..Self::seuss_paper()
        }
    }
}

/// Events of the cluster world.
pub enum Ev {
    /// A closed-loop worker issues its next request.
    WorkerIssue(u32),
    /// A request reaches the platform front door.
    Arrive(usize),
    /// The request reaches the compute node.
    NodeReceive(usize),
    /// A core finishes an invocation segment.
    SegmentEnd {
        /// The core that ran it.
        core: u16,
        /// The request.
        req: usize,
    },
    /// External server reply lands.
    IoReply(usize),
    /// Linux: container creation for a request finished.
    CreationDone(usize),
    /// Linux: stemcell background creation finished.
    StemcellDone,
    /// Linux: /init (code import) into a container finished.
    BindDone {
        /// Request being served.
        req: usize,
        /// The bound container.
        container: ContainerId,
    },
    /// Linux: LRU eviction finished; retry serving the request.
    DeleteDone(usize),
    /// Final completion bookkeeping (after response network hops).
    Complete {
        /// Request index.
        req: usize,
        /// Outcome.
        status: RequestStatus,
    },
    /// Platform timeout check.
    Timeout(usize),
    /// An injected fault (index into the plan) begins.
    FaultBegin(usize),
    /// A windowed fault (index into the plan) ends.
    FaultEnd(usize),
    /// A faulted request re-enters the platform after backoff.
    Retry(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqStatus {
    InFlight,
    Done,
    Error,
}

struct Req {
    fn_id: FnId,
    kind: FnKind,
    burst: bool,
    worker: Option<u32>,
    sent_at: SimTime,
    status: ReqStatus,
    served_by: ServedBy,
    io_token: Option<IoToken>,
    container: Option<ContainerId>,
    outcome_done: bool, // segment outcome: finished vs blocked
    timeout_ev: Option<simcore::EventId>,
    attempts: u32,    // dispatch attempts so far (1 = first try)
    crash_epoch: u64, // cluster crash epoch when its segment started
}

/// A core task: run or resume one request's segment.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Task {
    /// First (or only) segment of a request.
    Run(usize),
    /// Post-IO continuation segment.
    Resume(usize),
}

enum Backend {
    Seuss {
        node: Box<SeussNode>,
    },
    Linux {
        docker: Box<DockerEngine>,
        stemcell_target: usize,
        stemcells_building: usize,
        wait_queue: VecDeque<usize>,
    },
}

/// The simulation world.
pub struct Cluster {
    backend: Backend,
    cores: CorePool<Task>,
    registry: Registry,
    reqs: Vec<Req>,
    /// Finished-request records.
    pub records: Vec<RequestRecord>,
    // Closed-loop machinery.
    order: Vec<FnId>,
    next_order: usize,
    throttle_interval: Option<SimDuration>,
    next_allowed: SimTime,
    /// The trial's tracing handle (shared with the backend layers).
    pub tracer: Tracer,
    // Fault injection + resilience (see DESIGN.md "Fault injection").
    faults: FaultPlan,
    retry: RetryPolicy,
    retry_budget_left: u64,
    fault_rng: SimRng, // only drawn inside active loss windows
    loss: Option<(f64, SimTime)>,
    node_down_until: Option<SimTime>,
    straggler: Vec<f64>, // per-core slowdown factor (1.0 = healthy)
    crash_epoch: u64,
    seed: u64,
}

impl Cluster {
    /// Builds a cluster from config, registry and workload.
    pub fn new(config: ClusterConfig, registry: Registry, spec: &WorkloadSpec) -> Cluster {
        let tracer = config.tracer.clone();
        let backend = match config.backend {
            BackendKind::Seuss(cfg) => {
                let (mut node, _init) = SeussNode::new(*cfg).expect("node init");
                node.set_tracer(tracer.clone());
                Backend::Seuss {
                    node: Box::new(node),
                }
            }
            BackendKind::Linux {
                cache_limit,
                stemcell_target,
            } => {
                let mut docker = DockerEngine::paper(config.seed).with_cache_limit(cache_limit);
                docker.tracer = tracer.clone();
                Backend::Linux {
                    docker: Box::new(docker),
                    stemcell_target,
                    stemcells_building: 0,
                    wait_queue: VecDeque::new(),
                }
            }
        };
        let straggler = vec![1.0; CORES as usize];
        Cluster {
            backend,
            cores: CorePool::new(CORES),
            registry,
            reqs: Vec::new(),
            records: Vec::new(),
            order: spec.order.clone(),
            next_order: 0,
            throttle_interval: spec
                .throttle_rps
                .map(|rps| SimDuration::from_secs_f64(1.0 / rps)),
            next_allowed: SimTime::ZERO,
            tracer,
            faults: config.faults,
            retry: config.retry,
            retry_budget_left: config.retry.budget,
            fault_rng: SimRng::new(stream_seed(config.seed, FAULT_EXEC_STREAM)),
            loss: None,
            node_down_until: None,
            straggler,
            crash_epoch: 0,
            seed: config.seed,
        }
    }

    /// Immutable access to the SEUSS node, if this is a SEUSS cluster.
    pub fn seuss_node(&self) -> Option<&SeussNode> {
        match &self.backend {
            Backend::Seuss { node } => Some(node),
            Backend::Linux { .. } => None,
        }
    }

    fn new_request(&mut self, fn_id: FnId, burst: bool, worker: Option<u32>) -> usize {
        let kind = self
            .registry
            .get(fn_id)
            .map(|s| s.kind)
            .unwrap_or(FnKind::Nop);
        self.reqs.push(Req {
            fn_id,
            kind,
            burst,
            worker,
            sent_at: SimTime::ZERO,
            status: ReqStatus::InFlight,
            served_by: ServedBy::None,
            io_token: None,
            container: None,
            outcome_done: false,
            timeout_ev: None,
            attempts: 1,
            crash_epoch: 0,
        });
        self.reqs.len() - 1
    }

    fn shim_oneway(&self) -> SimDuration {
        match &self.backend {
            Backend::Seuss { .. } => {
                self.tracer.event(TraceEvent::ShimHop);
                SHIM_ONEWAY
            }
            Backend::Linux { .. } => SimDuration::ZERO,
        }
    }

    fn finish(
        &mut self,
        now: SimTime,
        req: usize,
        status: RequestStatus,
        sched: &mut Scheduler<Ev>,
    ) {
        let r = &mut self.reqs[req];
        if r.status != ReqStatus::InFlight {
            return; // already concluded (e.g. timeout raced completion)
        }
        if let Some(ev) = r.timeout_ev.take() {
            sched.cancel(ev);
        }
        r.status = if status == RequestStatus::Ok {
            ReqStatus::Done
        } else {
            ReqStatus::Error
        };
        self.records.push(record(
            r.fn_id,
            r.sent_at,
            now,
            status,
            if status == RequestStatus::Ok {
                r.served_by
            } else {
                ServedBy::None
            },
            r.burst,
        ));
        // The closed-loop worker that owns this request issues its next.
        if let Some(w) = r.worker {
            sched.schedule_at(now, Ev::WorkerIssue(w));
        }
    }

    /// Starts `task` on `core` at `now`: runs the mechanism and schedules
    /// the segment end. A task that ends without running frees the core
    /// for the next queued one.
    fn start_task(&mut self, now: SimTime, core: u16, task: Task, sched: &mut Scheduler<Ev>) {
        let req = match task {
            Task::Run(r) | Task::Resume(r) => r,
        };
        let Some(duration) = self.run_task(now, req, task, sched) else {
            if let Some((core, task)) = self.cores.release(core) {
                self.start_task(now, core, task, sched);
            }
            return;
        };
        // A straggling core stretches every segment it runs.
        let factor = self.straggler.get(core as usize).copied().unwrap_or(1.0);
        let duration = if factor > 1.0 {
            SimDuration::from_nanos((duration.as_nanos() as f64 * factor).round() as u64)
        } else {
            duration
        };
        sched.schedule_at(now + duration, Ev::SegmentEnd { core, req });
    }

    /// Runs `task` (a segment of request `req`) and returns how long it
    /// occupies the core, or `None` when it ends without running: it
    /// timed out while queued, the node is down, its UC died in a crash,
    /// or the node failed it.
    fn run_task(
        &mut self,
        now: SimTime,
        req: usize,
        task: Task,
        sched: &mut Scheduler<Ev>,
    ) -> Option<SimDuration> {
        if self.reqs[req].status != ReqStatus::InFlight {
            // Timed out while queued.
            return None;
        }
        if self.node_down(now) {
            // Crash landed while the task was queued: re-deliver the
            // request once the node has rebooted.
            self.shed_to_reboot(now, req, sched);
            return None;
        }
        if matches!(task, Task::Resume(_)) && self.reqs[req].crash_epoch != self.crash_epoch {
            // The UC this continuation would resume died with the node.
            self.fault_retry(now, req, sched);
            return None;
        }
        self.reqs[req].crash_epoch = self.crash_epoch;
        match &mut self.backend {
            Backend::Seuss { node } => {
                let r = &mut self.reqs[req];
                let result = match task {
                    Task::Run(_) => {
                        let src = self.registry.get(r.fn_id).map_or("", |s| s.src.as_str());
                        node.invoke(r.fn_id, src, &[])
                    }
                    Task::Resume(_) => {
                        let token = r.io_token.take().expect("resume without token");
                        node.resume_invocation(token, "OK")
                    }
                };
                match result {
                    Ok(Invocation::Completed { path, costs, .. }) => {
                        r.served_by = path_to_served(path, r.served_by);
                        r.outcome_done = true;
                        Some(costs.total())
                    }
                    Ok(Invocation::Blocked {
                        path, token, costs, ..
                    }) => {
                        r.served_by = path_to_served(path, r.served_by);
                        r.io_token = Some(token);
                        r.outcome_done = false;
                        Some(costs.total())
                    }
                    Err(_) => {
                        // Fail fast: error the request.
                        self.finish(now, req, RequestStatus::Error, sched);
                        None
                    }
                }
            }
            Backend::Linux { .. } => {
                // Linux exec: dispatch already done; occupy the core for
                // the function's CPU share of this segment.
                let r = &self.reqs[req];
                let d = match (task, r.kind) {
                    (Task::Run(_), FnKind::Cpu(d)) => d,
                    // A NOP, or an IO function's brief CPU before issuing
                    // the external call and after the reply.
                    _ => LINUX_EXEC_NOP,
                };
                let span = self.tracer.span(SpanName::Dispatch);
                span.annotate_fn(r.fn_id);
                self.tracer.advance(d);
                Some(d)
            }
        }
    }

    fn submit(&mut self, now: SimTime, task: Task, sched: &mut Scheduler<Ev>) {
        if let Some((core, task)) = self.cores.submit(task) {
            self.start_task(now, core, task, sched);
        } else {
            self.tracer.event(TraceEvent::CoreQueued);
        }
    }

    /// Linux: attempt to serve `req` with the container machinery.
    fn linux_serve(&mut self, now: SimTime, req: usize, sched: &mut Scheduler<Ev>) {
        let fn_id = self.reqs[req].fn_id;
        let tracer = self.tracer.clone();
        let Backend::Linux {
            docker, wait_queue, ..
        } = &mut self.backend
        else {
            unreachable!("linux_serve on SEUSS backend");
        };
        // Hot: idle container bound to this function.
        if let Some(c) = docker.idle_for(fn_id) {
            tracer.event(TraceEvent::CacheHit {
                cache: seuss_trace::CacheKind::Container,
            });
            match docker.dispatch(c) {
                Ok(_lat) => {
                    // Dispatch latency is sub-millisecond; it is folded
                    // into the exec segment.
                    let r = &mut self.reqs[req];
                    r.container = Some(c);
                    if r.served_by == ServedBy::None {
                        r.served_by = ServedBy::Hot;
                    }
                    self.submit(now, Task::Run(req), sched);
                    return;
                }
                // TCP connect into the container timed out (§7): the
                // request hangs until the platform timer errors it.
                Err(DockerError::Bridge) => return,
                Err(_) => {}
            }
        } else {
            tracer.event(TraceEvent::CacheMiss {
                cache: seuss_trace::CacheKind::Container,
            });
        }
        // Stemcell: bind (code import) then dispatch.
        if let Some(c) = docker.any_stemcell() {
            tracer.event(TraceEvent::CacheHit {
                cache: seuss_trace::CacheKind::Stemcell,
            });
            if let Ok(init) = docker.bind(c, fn_id) {
                self.reqs[req].served_by = ServedBy::Stemcell;
                sched.schedule_at(now + init, Ev::BindDone { req, container: c });
                return;
            }
        } else {
            tracer.event(TraceEvent::CacheMiss {
                cache: seuss_trace::CacheKind::Stemcell,
            });
        }
        // Fresh container.
        match docker.start_create() {
            Ok(lat) => {
                self.reqs[req].served_by = ServedBy::Cold;
                sched.schedule_at(now + lat, Ev::CreationDone(req));
            }
            Err(DockerError::CacheFull) => {
                // Evict the LRU idle/stemcell container, then retry.
                if let Some(victim) = docker.lru_evictable() {
                    if let Ok(del) = docker.delete(victim) {
                        sched.schedule_at(now + del, Ev::DeleteDone(req));
                        return;
                    }
                }
                // Everything is busy: wait for a release (or time out).
                wait_queue.push_back(req);
            }
            Err(_) => {
                wait_queue.push_back(req);
            }
        }
    }

    /// Linux: serve the wait queue after a container freed up.
    fn linux_pump(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        loop {
            let next = {
                let Backend::Linux { wait_queue, .. } = &mut self.backend else {
                    return;
                };
                let Some(&head) = wait_queue.front() else {
                    return;
                };
                wait_queue.pop_front();
                head
            };
            if self.reqs[next].status != ReqStatus::InFlight {
                continue; // timed out while waiting
            }
            self.linux_serve(now, next, sched);
            return;
        }
    }

    /// Linux: keep the stemcell pool at its target size.
    fn linux_replenish_stemcells(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Backend::Linux {
            docker,
            stemcell_target,
            stemcells_building,
            ..
        } = &mut self.backend
        else {
            return;
        };
        let current = docker.stemcell_count() + *stemcells_building;
        if current >= *stemcell_target {
            return;
        }
        if let Ok(lat) = docker.start_create() {
            *stemcells_building += 1;
            sched.schedule_at(now + lat, Ev::StemcellDone);
        }
    }

    /// Whether the compute node is inside a crash/reboot window.
    fn node_down(&self, now: SimTime) -> bool {
        self.node_down_until.is_some_and(|t| now < t)
    }

    /// The packet-loss probability active at `now`, if any.
    fn active_loss(&self, now: SimTime) -> Option<f64> {
        self.loss.and_then(|(p, until)| (now < until).then_some(p))
    }

    /// A fault killed this request's current attempt: retry it after
    /// backoff if the policy and budget allow, error it otherwise.
    fn fault_retry(&mut self, now: SimTime, req: usize, sched: &mut Scheduler<Ev>) {
        if self.reqs[req].status != ReqStatus::InFlight {
            return;
        }
        let attempts = self.reqs[req].attempts;
        if !self.retry.allows(attempts) || self.retry_budget_left == 0 {
            self.finish(now, req, RequestStatus::Error, sched);
            return;
        }
        self.retry_budget_left -= 1;
        self.reqs[req].attempts = attempts + 1;
        let backoff = self.retry.backoff(self.seed, req as u64, attempts);
        self.tracer.event(TraceEvent::FaultRetry);
        sched.schedule_at(now + backoff, Ev::Retry(req));
    }

    /// Applies fault `i` of the plan and schedules its end, if windowed.
    fn fault_begin(&mut self, now: SimTime, i: usize, sched: &mut Scheduler<Ev>) {
        let kind = self.faults.events()[i].kind;
        match kind {
            FaultKind::NodeCrash { reboot } => {
                self.crash_epoch += 1;
                self.node_down_until = Some(now + reboot);
                match &mut self.backend {
                    Backend::Seuss { node } => {
                        // The node's tracer emits FaultNodeCrash.
                        node.crash();
                    }
                    Backend::Linux { docker, .. } => {
                        self.tracer.event(TraceEvent::FaultNodeCrash);
                        docker.crash();
                    }
                }
                sched.schedule_at(now + reboot, Ev::FaultEnd(i));
            }
            FaultKind::PacketLoss { prob, span } => {
                self.loss = Some((prob, now + span));
                sched.schedule_at(now + span, Ev::FaultEnd(i));
            }
            FaultKind::MemPressure { frames, span } => {
                self.tracer.event(TraceEvent::FaultMemPressure { frames });
                if let Backend::Seuss { node } = &mut self.backend {
                    node.mem.apply_pressure(frames);
                    node.run_oom_daemon(None);
                }
                sched.schedule_at(now + span, Ev::FaultEnd(i));
            }
            FaultKind::StragglerCore { core, factor, span } => {
                if let Some(slot) = self.straggler.get_mut(core as usize) {
                    *slot = factor;
                    self.tracer.event(TraceEvent::FaultStraggler);
                    sched.schedule_at(now + span, Ev::FaultEnd(i));
                }
            }
            FaultKind::SnapshotCorruption { fn_id } => {
                // Silent data damage: detection (and the trace event)
                // happens on the function's next warm-path lookup.
                if let Backend::Seuss { node } = &mut self.backend {
                    node.corrupt_fn_snapshot(fn_id);
                }
            }
            FaultKind::DeviceReadError { span } => {
                // Silent until a deploy needs the device: the node emits
                // TierReadError when it degrades a tiered warm start.
                if let Backend::Seuss { node } = &mut self.backend {
                    if node.set_device_read_fault(true) {
                        sched.schedule_at(now + span, Ev::FaultEnd(i));
                    }
                }
            }
        }
    }

    /// Lifts windowed fault `i` of the plan.
    fn fault_end(&mut self, now: SimTime, i: usize) {
        let kind = self.faults.events()[i].kind;
        match kind {
            FaultKind::NodeCrash { .. } => {
                if self.node_down_until.is_some_and(|t| t <= now) {
                    self.node_down_until = None;
                    self.tracer.event(TraceEvent::FaultNodeRestart);
                }
            }
            FaultKind::PacketLoss { .. } => {
                // Only clear a window that has actually elapsed (a later
                // overlapping window may have replaced this one).
                if self.loss.is_some_and(|(_, until)| until <= now) {
                    self.loss = None;
                }
            }
            FaultKind::MemPressure { .. } => {
                if let Backend::Seuss { node } = &mut self.backend {
                    node.mem.release_pressure();
                }
            }
            FaultKind::StragglerCore { core, .. } => {
                if let Some(slot) = self.straggler.get_mut(core as usize) {
                    *slot = 1.0;
                }
            }
            FaultKind::SnapshotCorruption { .. } => {}
            FaultKind::DeviceReadError { .. } => {
                if let Backend::Seuss { node } = &mut self.backend {
                    node.set_device_read_fault(false);
                }
            }
        }
    }

    /// The node is down: shed the request to re-arrive once the node has
    /// rebooted (its platform timeout stays armed, so a long outage still
    /// surfaces as errors).
    fn shed_to_reboot(&mut self, now: SimTime, req: usize, sched: &mut Scheduler<Ev>) {
        self.tracer.event(TraceEvent::FaultShed);
        let resume = self.node_down_until.unwrap_or(now);
        sched.schedule_at(resume, Ev::NodeReceive(req));
    }
}

fn path_to_served(p: PathKind, prior: ServedBy) -> ServedBy {
    if prior != ServedBy::None {
        return prior; // keep the first segment's classification
    }
    match p {
        PathKind::Cold => ServedBy::Cold,
        PathKind::Warm | PathKind::WarmTier => ServedBy::Warm,
        PathKind::Hot => ServedBy::Hot,
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        // Anchor the trace clock at the simulation's now; mechanism phases
        // advance it eagerly within this event.
        self.tracer.set_clock(now);
        match ev {
            Ev::WorkerIssue(w) => {
                if self.next_order >= self.order.len() {
                    return; // order drained; worker retires
                }
                let fn_id = self.order[self.next_order];
                self.next_order += 1;
                let req = self.new_request(fn_id, false, Some(w));
                // Rate throttle: push the arrival to the next allowed slot.
                let at = match self.throttle_interval {
                    Some(gap) => {
                        let at = if self.next_allowed > now {
                            self.next_allowed
                        } else {
                            now
                        };
                        self.next_allowed = at + gap;
                        at
                    }
                    None => now,
                };
                sched.schedule_at(at, Ev::Arrive(req));
            }
            Ev::Arrive(req) => {
                self.reqs[req].sent_at = now;
                // The timeout is a constant, so deadlines arrive in order
                // and fit the scheduler's FIFO timer lane.
                let ev = sched.arm_timer(now + TIMEOUT, Ev::Timeout(req));
                self.reqs[req].timeout_ev = Some(ev);
                let hop = CP_ONEWAY + self.shim_oneway();
                sched.schedule_at(now + hop, Ev::NodeReceive(req));
            }
            Ev::NodeReceive(req) => {
                if self.reqs[req].status != ReqStatus::InFlight {
                    return;
                }
                // An active loss window may eat the request's packet on
                // the way in. The fault RNG is only consulted inside a
                // window, so plans without loss draw nothing from it.
                if let Some(p) = self.active_loss(now) {
                    if self.fault_rng.chance(p) {
                        self.tracer.event(TraceEvent::FaultPacketDrop);
                        self.fault_retry(now, req, sched);
                        return;
                    }
                }
                if self.node_down(now) {
                    self.shed_to_reboot(now, req, sched);
                    return;
                }
                match &self.backend {
                    Backend::Seuss { .. } => self.submit(now, Task::Run(req), sched),
                    Backend::Linux { .. } => self.linux_serve(now, req, sched),
                }
            }
            Ev::SegmentEnd { core, req } => {
                // Free the core first; start any queued task.
                if let Some((core, task)) = self.cores.release(core) {
                    self.start_task(now, core, task, sched);
                }
                if self.reqs[req].status != ReqStatus::InFlight {
                    // The requester gave up (timeout); still return the
                    // container to the pool.
                    if let Backend::Linux { docker, .. } = &mut self.backend {
                        if let Some(c) = self.reqs[req].container.take() {
                            let _ = docker.release(c);
                        }
                        self.linux_pump(now, sched);
                    }
                    return;
                }
                if self.reqs[req].crash_epoch != self.crash_epoch {
                    // The node crashed while this segment ran: its result
                    // (and any UC it produced) died with the node.
                    self.fault_retry(now, req, sched);
                    return;
                }
                match &mut self.backend {
                    Backend::Seuss { .. } => {
                        if self.reqs[req].outcome_done {
                            let hop = CP_ONEWAY + self.shim_oneway();
                            sched.schedule_at(
                                now + hop,
                                Ev::Complete {
                                    req,
                                    status: RequestStatus::Ok,
                                },
                            );
                        } else {
                            // Blocked on external IO.
                            sched.schedule_at(now + IO_REPLY, Ev::IoReply(req));
                        }
                    }
                    Backend::Linux { docker, .. } => {
                        let r = &self.reqs[req];
                        let io_pending = r.kind == FnKind::Io && !r.outcome_done;
                        if io_pending {
                            self.reqs[req].outcome_done = true;
                            sched.schedule_at(now + IO_REPLY, Ev::IoReply(req));
                        } else {
                            if let Some(c) = self.reqs[req].container {
                                let _ = docker.release(c);
                            }
                            let hop = CP_ONEWAY;
                            sched.schedule_at(
                                now + hop,
                                Ev::Complete {
                                    req,
                                    status: RequestStatus::Ok,
                                },
                            );
                            self.linux_pump(now, sched);
                        }
                    }
                }
            }
            Ev::IoReply(req) => {
                if self.reqs[req].status != ReqStatus::InFlight {
                    if let Backend::Linux { docker, .. } = &mut self.backend {
                        if let Some(c) = self.reqs[req].container.take() {
                            let _ = docker.release(c);
                        }
                        self.linux_pump(now, sched);
                    }
                    return;
                }
                if self.reqs[req].crash_epoch != self.crash_epoch {
                    // The blocked UC awaiting this reply died with the node.
                    self.fault_retry(now, req, sched);
                    return;
                }
                self.submit(now, Task::Resume(req), sched);
            }
            Ev::CreationDone(req) => {
                let fn_id = self.reqs[req].fn_id;
                let Backend::Linux { docker, .. } = &mut self.backend else {
                    return;
                };
                match docker.finish_create(Some(fn_id)) {
                    Ok(c) => {
                        if self.reqs[req].status != ReqStatus::InFlight {
                            // Requester gave up; the container stays as an
                            // idle bound container for future hits.
                            self.linux_pump(now, sched);
                            return;
                        }
                        // A failed connect leaves the request to the
                        // platform timer, which errors it.
                        if docker.dispatch(c).is_ok() {
                            self.reqs[req].container = Some(c);
                            self.submit(now, Task::Run(req), sched);
                        }
                    }
                    Err(_) => {
                        self.finish(now, req, RequestStatus::Error, sched);
                    }
                }
            }
            Ev::StemcellDone => {
                let Backend::Linux {
                    docker,
                    stemcells_building,
                    ..
                } = &mut self.backend
                else {
                    return;
                };
                *stemcells_building = stemcells_building.saturating_sub(1);
                let _ = docker.finish_create(None);
                self.linux_pump(now, sched);
            }
            Ev::BindDone { req, container } => {
                let Backend::Linux { docker, .. } = &mut self.backend else {
                    return;
                };
                let _ = docker.finish_bind(container);
                if self.reqs[req].status != ReqStatus::InFlight {
                    self.linux_pump(now, sched);
                    return;
                }
                // A failed connect leaves the request to the platform
                // timer, which errors it.
                if docker.dispatch(container).is_ok() {
                    self.reqs[req].container = Some(container);
                    self.submit(now, Task::Run(req), sched);
                }
                // Consuming the stemcell may trigger replenishment.
                self.linux_replenish_stemcells(now, sched);
            }
            Ev::DeleteDone(req) => {
                if self.reqs[req].status != ReqStatus::InFlight {
                    self.linux_pump(now, sched);
                    return;
                }
                self.linux_serve(now, req, sched);
            }
            Ev::Complete { req, status } => {
                self.finish(now, req, status, sched);
            }
            Ev::Timeout(req) => {
                // This timeout is being delivered, so it is no longer
                // pending: `finish` must not cancel it.
                self.reqs[req].timeout_ev = None;
                if self.reqs[req].status == ReqStatus::InFlight {
                    self.tracer.event(TraceEvent::Timeout);
                    // A Linux request may still sit in the wait queue:
                    // `linux_pump` skips it once it is no longer in flight.
                    self.finish(now, req, RequestStatus::Error, sched);
                }
            }
            Ev::FaultBegin(i) => self.fault_begin(now, i, sched),
            Ev::FaultEnd(i) => self.fault_end(now, i),
            Ev::Retry(req) => {
                if self.reqs[req].status != ReqStatus::InFlight {
                    return;
                }
                // The retried request re-traverses the control plane.
                let hop = CP_ONEWAY + self.shim_oneway();
                sched.schedule_at(now + hop, Ev::NodeReceive(req));
            }
        }
    }
}

/// Output of one trial — of [`run_trial`], and of every sharded run
/// (which merges one of these per shard).
pub struct TrialOutput {
    /// Raw per-request records, in virtual completion order.
    pub records: Vec<RequestRecord>,
    /// Aggregates.
    pub analysis: TrialAnalysis,
    /// Virtual time at which the trial finished.
    pub finished_at: SimTime,
    /// Events processed.
    pub events: u64,
    /// Trace dumps, one per traced simulation: none when the
    /// [`ClusterConfig`] carried a disabled tracer, one from
    /// [`run_trial`] with an enabled one, one per shard after a merge.
    pub trace_dumps: Vec<TraceDump>,
    /// Real time the run took. **Not** part of the deterministic
    /// artifact set.
    pub wall: Duration,
}

impl TrialOutput {
    /// The trace as validated JSONL (empty string when untraced).
    pub fn trace_jsonl(&self) -> String {
        merge_jsonl(&self.trace_dumps)
    }

    /// The aggregated metrics report (empty when untraced).
    pub fn metrics_report(&self) -> MetricsReport {
        merge_metrics(&self.trace_dumps)
    }

    /// The records rendered with [`records_jsonl`] — the canonical
    /// byte-string for determinism comparisons.
    pub fn records_jsonl(&self) -> String {
        records_jsonl(&self.records)
    }
}

/// Runs one trial to completion and analyzes it.
pub fn run_trial(config: ClusterConfig, registry: Registry, spec: &WorkloadSpec) -> TrialOutput {
    let started = Instant::now();
    let workers = spec.workers;
    let open = spec.open_arrivals.clone();
    let cluster = Cluster::new(config, registry, spec);
    let fault_starts: Vec<SimTime> = cluster.faults.events().iter().map(|e| e.at).collect();
    let mut sim = Simulation::new(cluster);
    for w in 0..workers {
        sim.schedule_at(SimTime::ZERO, Ev::WorkerIssue(w));
    }
    for (i, at) in fault_starts.into_iter().enumerate() {
        sim.schedule_at(at, Ev::FaultBegin(i));
    }
    for (at, fn_id) in open {
        let req = sim.world_mut().new_request(fn_id, true, None);
        sim.schedule_at(at, Ev::Arrive(req));
    }
    // Stemcell pre-provisioning happens lazily on first consumption; kick
    // it once at t=0 so the pool is warm like a provisioned deployment.
    {
        // Pre-create the initial stemcell pool instantly (deployment-time
        // provisioning, not part of the measured trial).
        let world = sim.world_mut();
        if let Backend::Linux {
            docker,
            stemcell_target,
            ..
        } = &mut world.backend
        {
            for _ in 0..*stemcell_target {
                if docker.start_create().is_ok() {
                    let _ = docker.finish_create(None);
                }
            }
        }
    }
    let events = sim.run();
    let finished_at = sim.now();
    let world = sim.world_mut();
    let records = std::mem::take(&mut world.records);
    let analysis = TrialAnalysis::from_records(&records);
    TrialOutput {
        records,
        analysis,
        finished_at,
        events,
        trace_dumps: world.tracer.dump().into_iter().collect(),
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seuss_core::AoLevel;

    fn small_seuss() -> ClusterConfig {
        let cfg = SeussConfig::builder()
            .mem_mib(2048)
            .ao_level(AoLevel::NetworkAndInterpreter)
            .build()
            .expect("valid test config");
        ClusterConfig {
            backend: BackendKind::Seuss(Box::new(cfg)),
            ..ClusterConfig::seuss_paper()
        }
    }

    fn nop_registry(m: u64) -> Registry {
        let mut r = Registry::new();
        r.register_many(0, m, FnKind::Nop);
        r
    }

    #[test]
    fn seuss_trial_completes_all_requests() {
        let reg = nop_registry(4);
        let order: Vec<FnId> = (0..64).map(|i| i % 4).collect();
        let spec = WorkloadSpec::closed_loop(order, 8);
        let out = run_trial(small_seuss(), reg, &spec);
        assert_eq!(out.analysis.completed, 64);
        assert_eq!(out.analysis.errors, 0);
        // 4 unique functions → exactly 4 cold paths; rest warm/hot.
        assert_eq!(out.analysis.paths.0, 4);
        assert!(out.analysis.paths.2 > 0, "hot paths served");
    }

    #[test]
    fn seuss_latency_includes_cp_and_shim() {
        let reg = nop_registry(1);
        let spec = WorkloadSpec::closed_loop(vec![0, 0, 0, 0], 1);
        let out = run_trial(small_seuss(), reg, &spec);
        // Hot-path latency ≈ control plane 36 + shim 8 + exec ~0.8 ≈ 45 ms.
        let p50 = out.analysis.latency.p50;
        assert!((40.0..55.0).contains(&p50), "{p50}");
    }

    #[test]
    fn linux_trial_hot_path_faster_than_seuss() {
        let reg = nop_registry(1);
        let order = vec![0u64; 32];
        let spec = WorkloadSpec::closed_loop(order.clone(), 1);
        let linux = run_trial(ClusterConfig::linux_paper(), reg.clone(), &spec);
        let seuss = run_trial(small_seuss(), reg, &spec);
        assert_eq!(linux.analysis.errors, 0);
        // Skip each side's cold start: compare medians.
        assert!(
            linux.analysis.latency.p50 < seuss.analysis.latency.p50,
            "linux {} vs seuss {} (shim hop)",
            linux.analysis.latency.p50,
            seuss.analysis.latency.p50
        );
    }

    #[test]
    fn linux_cold_start_is_container_creation() {
        let reg = nop_registry(1);
        let spec = WorkloadSpec::closed_loop(vec![0], 1);
        let out = run_trial(ClusterConfig::linux_paper(), reg, &spec);
        assert_eq!(out.analysis.completed, 1);
        // 541 ms create + cp ≈ 0.58 s.
        assert!(
            (500.0..700.0).contains(&out.analysis.latency.p50),
            "{}",
            out.analysis.latency.p50
        );
    }

    #[test]
    fn io_functions_release_cores() {
        // 32 concurrent IO functions on the 16 cores finish in ~1 block
        // time, not 2, because blocked invocations do not hold cores.
        let mut reg = Registry::new();
        reg.register_many(0, 32, FnKind::Io);
        let order: Vec<FnId> = (0..32).collect();
        let spec = WorkloadSpec::closed_loop(order, 32);
        let out = run_trial(small_seuss(), reg, &spec);
        assert_eq!(out.analysis.completed, 32);
        // All 32 overlap their 250 ms blocks.
        assert!(
            out.finished_at < SimTime::from_millis(700),
            "{:?}",
            out.finished_at
        );
    }

    #[test]
    fn throttle_caps_rate() {
        let reg = nop_registry(1);
        let order = vec![0u64; 50];
        let mut spec = WorkloadSpec::closed_loop(order, 16);
        spec.throttle_rps = Some(100.0);
        let out = run_trial(small_seuss(), reg, &spec);
        // 50 requests at 100 rps take ≥ 0.49 s.
        assert!(out.finished_at >= SimTime::from_millis(490));
        assert!(out.analysis.steady_throughput_rps <= 115.0);
    }

    #[test]
    fn bursts_arrive_open_loop() {
        let reg = nop_registry(2);
        let mut spec = WorkloadSpec::closed_loop(Vec::new(), 0);
        for i in 0..16 {
            spec.open_arrivals
                .push((SimTime::from_millis(100 + i % 3), 1));
        }
        let out = run_trial(small_seuss(), reg, &spec);
        assert_eq!(out.analysis.completed, 16);
        assert!(out.records.iter().all(|r| r.burst));
    }

    #[test]
    fn starved_requests_time_out_with_errors() {
        // One-container cache, long-running function, several workers:
        // later requests can neither dispatch (container busy) nor create
        // (cache full, nothing evictable) and hit the 60 s platform
        // timeout — the error mechanism of Figures 6–8.
        let mut reg = Registry::new();
        reg.register_many(0, 1, FnKind::Cpu(SimDuration::from_secs(45)));
        let cfg = ClusterConfig {
            backend: BackendKind::Linux {
                cache_limit: 1,
                stemcell_target: 0,
            },
            ..ClusterConfig::seuss_paper()
        };
        let spec = WorkloadSpec::closed_loop(vec![0; 4], 3);
        let out = run_trial(cfg, reg, &spec);
        assert!(out.analysis.errors > 0, "starvation must produce timeouts");
        let timed_out: Vec<f64> = out
            .records
            .iter()
            .filter(|r| r.status == crate::record::RequestStatus::Error)
            .map(|r| r.latency_ms)
            .collect();
        assert!(
            timed_out.iter().all(|&l| (59_000.0..61_500.0).contains(&l)),
            "timeout latencies: {timed_out:?}"
        );
        // Requests that actually got the container complete (45 s run is
        // inside the 60 s budget).
        assert!(out.analysis.completed >= 1);
    }

    #[test]
    fn cpu_functions_serialize_on_cores() {
        // 64 CPU-bound (100 ms) invocations on the 16 cores need ≥ 400 ms.
        let mut reg = Registry::new();
        reg.register_many(0, 1, FnKind::Cpu(SimDuration::from_millis(100)));
        let spec = WorkloadSpec::closed_loop(vec![0; 64], 64);
        let out = run_trial(small_seuss(), reg, &spec);
        assert_eq!(out.analysis.completed, 64);
        assert!(out.finished_at >= SimTime::from_millis(400));
    }

    /// Regression pin for the "already concluded (e.g. timeout raced
    /// completion)" branch of [`Cluster::finish`]: when the timeout and
    /// the completion land at the same virtual instant, whichever was
    /// scheduled first wins (the engine tie-breaks equal times by
    /// schedule order) and the request concludes exactly once.
    #[test]
    fn timeout_racing_completion_at_one_instant_concludes_once() {
        for timeout_first in [true, false] {
            let reg = nop_registry(1);
            let spec = WorkloadSpec::closed_loop(Vec::new(), 0);
            let cluster = Cluster::new(small_seuss(), reg, &spec);
            let mut sim = Simulation::new(cluster);
            let req = sim.world_mut().new_request(0, false, None);
            let t = SimTime::from_millis(500);
            let ok = Ev::Complete {
                req,
                status: RequestStatus::Ok,
            };
            if timeout_first {
                sim.schedule_at(t, Ev::Timeout(req));
                sim.schedule_at(t, ok);
            } else {
                sim.schedule_at(t, ok);
                sim.schedule_at(t, Ev::Timeout(req));
            }
            sim.run();
            let world = sim.world_mut();
            assert_eq!(
                world.records.len(),
                1,
                "exactly one record (timeout_first={timeout_first})"
            );
            let expect = if timeout_first {
                RequestStatus::Error
            } else {
                RequestStatus::Ok
            };
            assert_eq!(
                world.records[0].status, expect,
                "the first-scheduled event wins the race (timeout_first={timeout_first})"
            );
        }
    }

    #[test]
    fn empty_fault_plan_and_retry_policy_change_nothing() {
        let reg = nop_registry(4);
        let order: Vec<FnId> = (0..64).map(|i| i % 4).collect();
        let spec = WorkloadSpec::closed_loop(order, 8);
        let base = run_trial(small_seuss(), reg.clone(), &spec);
        // Without faults, the retry policy must never be consulted, so
        // even the no-retry ablation is bit-for-bit identical.
        let mut cfg = small_seuss();
        cfg.retry = RetryPolicy::none();
        cfg.faults = FaultPlan::none();
        let again = run_trial(cfg, reg, &spec);
        assert_eq!(base.records.len(), again.records.len());
        for (a, b) in base.records.iter().zip(&again.records) {
            assert_eq!(a.latency_ms, b.latency_ms);
            assert_eq!(a.status, b.status);
            assert_eq!(a.served_by, b.served_by);
        }
        assert_eq!(base.events, again.events);
        assert_eq!(base.finished_at, again.finished_at);
    }

    #[test]
    fn node_crash_recovers_with_retry_but_errors_without() {
        // 100 ms segments guarantee work is in flight when the crash
        // lands at t = 250 ms.
        let mk = || {
            let mut reg = Registry::new();
            reg.register_many(0, 2, FnKind::Cpu(SimDuration::from_millis(100)));
            let order: Vec<FnId> = (0..24).map(|i| i % 2).collect();
            (reg, WorkloadSpec::closed_loop(order, 4))
        };
        let mut plan = FaultPlan::none();
        plan.push(
            SimTime::from_millis(250),
            FaultKind::NodeCrash {
                reboot: SimDuration::from_millis(400),
            },
        );

        let (reg, spec) = mk();
        let mut resilient = small_seuss();
        resilient.faults = plan.clone();
        resilient.retry = RetryPolicy::resilient();
        resilient.tracer = Tracer::enabled();
        let out = run_trial(resilient, reg, &spec);
        assert_eq!(out.analysis.errors, 0, "retry + reboot recovers everyone");
        assert_eq!(out.analysis.completed, 24);
        let events = &out.trace_dumps[0].events;
        let count = |ev: TraceEvent| events.iter().filter(|e| e.event == ev).count();
        assert_eq!(count(TraceEvent::FaultNodeCrash), 1);
        assert_eq!(count(TraceEvent::FaultNodeRestart), 1);
        assert!(
            count(TraceEvent::FaultRetry) > 0,
            "segments in flight at the crash instant were retried"
        );

        let (reg, spec) = mk();
        let mut fragile = small_seuss();
        fragile.faults = plan;
        fragile.retry = RetryPolicy::none();
        let out = run_trial(fragile, reg, &spec);
        assert!(
            out.analysis.errors > 0,
            "without retry, segments lost in the crash surface as errors"
        );
        assert_eq!(out.analysis.completed + out.analysis.errors, 24);
    }

    #[test]
    fn packet_loss_is_retried_until_delivered() {
        let reg = nop_registry(1);
        let order = vec![0u64; 30];
        let spec = WorkloadSpec::closed_loop(order, 2);
        let mut cfg = small_seuss();
        cfg.faults = FaultPlan::from_events(vec![seuss_faults::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::PacketLoss {
                prob: 0.5,
                span: SimDuration::from_secs(30),
            },
        }]);
        cfg.tracer = Tracer::enabled();
        let out = run_trial(cfg, reg, &spec);
        assert_eq!(out.analysis.completed + out.analysis.errors, 30);
        assert!(
            out.analysis.completed > 20,
            "4 attempts beat 50% loss almost always: {:?}",
            out.analysis
        );
        let dropped = out.trace_dumps[0]
            .events
            .iter()
            .filter(|e| e.event == TraceEvent::FaultPacketDrop)
            .count();
        let retried = out.trace_dumps[0]
            .events
            .iter()
            .filter(|e| e.event == TraceEvent::FaultRetry)
            .count();
        assert!(
            dropped > 0,
            "a 50% window over the whole trial drops packets"
        );
        assert!(retried > 0 && retried <= dropped);
    }

    #[test]
    fn straggler_core_stretches_segments() {
        let mut reg = Registry::new();
        reg.register_many(0, 1, FnKind::Cpu(SimDuration::from_millis(100)));
        // One worker: every segment runs on core 0, the lowest free core.
        let spec = WorkloadSpec::closed_loop(vec![0; 6], 1);
        let base = run_trial(small_seuss(), reg.clone(), &spec);

        let mut slow_cfg = small_seuss();
        slow_cfg.faults = FaultPlan::from_events(vec![seuss_faults::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::StragglerCore {
                core: 0,
                factor: 3.0,
                span: SimDuration::from_secs(60),
            },
        }]);
        let slow = run_trial(slow_cfg, reg, &spec);
        assert_eq!(slow.analysis.completed, 6);
        assert!(
            slow.finished_at.as_nanos() > base.finished_at.as_nanos() * 2,
            "3x straggler on the one busy core: {:?} vs {:?}",
            slow.finished_at,
            base.finished_at
        );
    }

    #[test]
    fn mem_pressure_reclaims_caches_without_errors() {
        let reg = nop_registry(4);
        let order: Vec<FnId> = (0..48).map(|i| i % 4).collect();
        let spec = WorkloadSpec::closed_loop(order, 2);
        let mut cfg = small_seuss();
        // Withhold most of the 2 GiB pool mid-trial; the OOM daemon sheds
        // idle UCs and snapshots instead of failing requests.
        cfg.faults = FaultPlan::from_events(vec![seuss_faults::FaultEvent {
            at: SimTime::from_millis(300),
            kind: FaultKind::MemPressure {
                frames: 400_000,
                span: SimDuration::from_secs(2),
            },
        }]);
        cfg.tracer = Tracer::enabled();
        let out = run_trial(cfg, reg, &spec);
        assert_eq!(out.analysis.completed, 48, "{:?}", out.analysis);
        let pressured = out.trace_dumps[0]
            .events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::FaultMemPressure { .. }));
        assert!(pressured);
    }

    #[test]
    fn corrupted_snapshot_detected_and_repaired_mid_trial() {
        let reg = nop_registry(2);
        // Alternating functions with a single-slot idle cache: each
        // invocation evicts the other function's idle UC, so every
        // request after the two colds exercises the snapshot (warm) path.
        let order: Vec<FnId> = (0..16).map(|i| i % 2).collect();
        let spec = WorkloadSpec::closed_loop(order, 1);
        let mut cfg = small_seuss();
        if let BackendKind::Seuss(ref mut node_cfg) = cfg.backend {
            **node_cfg = SeussConfig::builder()
                .mem_mib(2048)
                .idle_per_fn(1)
                .idle_total(1)
                .build()
                .expect("valid test config");
        }
        cfg.faults = FaultPlan::from_events(vec![seuss_faults::FaultEvent {
            at: SimTime::from_millis(400),
            kind: FaultKind::SnapshotCorruption { fn_id: 0 },
        }]);
        cfg.tracer = Tracer::enabled();
        let out = run_trial(cfg, reg, &spec);
        assert_eq!(out.analysis.completed, 16);
        assert_eq!(out.analysis.errors, 0);
        // One extra cold start: the two originals plus the repair.
        assert_eq!(out.analysis.paths.0, 3, "paths: {:?}", out.analysis.paths);
        let detected = out.trace_dumps[0]
            .events
            .iter()
            .filter(|e| e.event == TraceEvent::FaultSnapshotCorrupt)
            .count();
        assert_eq!(detected, 1, "detected exactly once, then repaired");
    }

    #[test]
    fn linux_backend_crash_loses_containers_and_recovers() {
        let reg = nop_registry(2);
        let order: Vec<FnId> = (0..24).map(|i| i % 2).collect();
        let spec = WorkloadSpec::closed_loop(order, 2);
        let mut cfg = ClusterConfig::linux_paper();
        cfg.faults = FaultPlan::from_events(vec![seuss_faults::FaultEvent {
            at: SimTime::from_millis(900),
            kind: FaultKind::NodeCrash {
                reboot: SimDuration::from_millis(500),
            },
        }]);
        cfg.tracer = Tracer::enabled();
        let out = run_trial(cfg, reg, &spec);
        assert_eq!(out.analysis.completed + out.analysis.errors, 24);
        assert!(
            out.analysis.completed >= 20,
            "most requests survive the crash: {:?}",
            out.analysis
        );
        // Containers were recreated after the crash (cold starts resume).
        let crashes = out.trace_dumps[0]
            .events
            .iter()
            .filter(|e| e.event == TraceEvent::FaultNodeCrash)
            .count();
        assert_eq!(crashes, 1);
    }
}

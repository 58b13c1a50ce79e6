//! The tracer: a clonable handle over one shared trace buffer.

use std::cell::RefCell;
use std::rc::Rc;

use simcore::{SimDuration, SimTime};

use crate::event::{EventRecord, TraceEvent};
use crate::export;
use crate::metrics::{Metrics, MetricsReport};
use crate::span::{PathKind, Phase, SpanId, SpanName, SpanRecord};

/// The shared trace buffer behind an enabled tracer.
struct TraceBuf {
    clock: SimTime,
    seq: u64,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    open: Vec<SpanId>,
    metrics: Metrics,
}

impl TraceBuf {
    fn new() -> Self {
        TraceBuf {
            clock: SimTime::ZERO,
            seq: 0,
            spans: Vec::new(),
            events: Vec::new(),
            open: Vec::new(),
            metrics: Metrics::new(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

/// A clonable tracing handle.
///
/// Every mechanism layer (MMU, snapshot store, image store, node,
/// cluster, Docker engine) holds a clone; all clones share one buffer,
/// so events emitted deep in the MMU parent correctly to the phase span
/// the node has open. The default is [`Tracer::disabled`], whose methods
/// return immediately and allocate nothing (the disabled-mode cost
/// contract in the crate docs).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuf>>>,
}

impl Tracer {
    /// A no-op tracer: no buffer, no allocations, every call returns
    /// immediately.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer with a fresh buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuf::new()))),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the virtual clock (the cluster calls this with the simulation
    /// `now` before dispatching each event).
    pub fn set_clock(&self, t: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().clock = t;
        }
    }

    /// Advances the virtual clock by `d` — called once per phase with the
    /// phase's cost, so span durations equal `PathCosts` entries exactly.
    pub fn advance(&self, d: SimDuration) {
        if let Some(inner) = &self.inner {
            let mut b = inner.borrow_mut();
            b.clock += d;
        }
    }

    /// Current virtual clock ([`SimTime::ZERO`] when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(inner) => inner.borrow().clock,
            None => SimTime::ZERO,
        }
    }

    /// Opens a span; it closes (records its exit) when the guard drops.
    pub fn span(&self, name: SpanName) -> SpanGuard {
        let id = self.inner.as_ref().map(|inner| {
            let mut b = inner.borrow_mut();
            let id = SpanId(b.spans.len() as u32);
            let parent = b.open.last().copied();
            let start = b.clock;
            let enter_seq = b.next_seq();
            b.spans.push(SpanRecord {
                id,
                parent,
                name,
                start,
                end: None,
                fn_id: None,
                path: None,
                enter_seq,
                exit_seq: 0,
            });
            b.open.push(id);
            id
        });
        SpanGuard {
            tracer: self.clone(),
            id,
        }
    }

    fn exit(&self, id: SpanId) {
        if let Some(inner) = &self.inner {
            let mut b = inner.borrow_mut();
            let end = b.clock;
            let exit_seq = b.next_seq();
            if let Some(pos) = b.open.iter().rposition(|&s| s == id) {
                b.open.remove(pos);
            }
            let rec = &mut b.spans[id.index()];
            rec.end = Some(end);
            rec.exit_seq = exit_seq;
        }
    }

    /// Records a typed event at the current clock, parented to the
    /// innermost open span. Inlined so that a disabled tracer costs the
    /// page loops that call it one branch.
    #[inline]
    pub fn event(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            Self::push_event(inner, event);
        }
    }

    fn push_event(inner: &RefCell<TraceBuf>, event: TraceEvent) {
        let mut b = inner.borrow_mut();
        let at = b.clock;
        let parent = b.open.last().copied();
        let seq = b.next_seq();
        b.events.push(EventRecord {
            at,
            parent,
            event,
            seq,
        });
        b.metrics.record_event(&event);
    }

    /// Feeds one finished segment's per-phase costs into the metrics —
    /// the node calls this from `conclude` with `costs.phases()`, making
    /// the tracer a consumer of the one `Phase` enumeration.
    pub fn record_segment<I>(&self, path: PathKind, phases: I)
    where
        I: IntoIterator<Item = (Phase, SimDuration)>,
    {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().metrics.record_segment(path, phases);
        }
    }

    /// Snapshot of all recorded spans (empty when disabled).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.borrow().spans.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all recorded events (empty when disabled).
    pub fn events(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(inner) => inner.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of spans still open (should be zero between sim events).
    pub fn open_spans(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().open.len(),
            None => 0,
        }
    }

    /// Aggregated counters + per-phase / per-path quantiles.
    pub fn metrics_report(&self) -> MetricsReport {
        match &self.inner {
            Some(inner) => inner.borrow().metrics.report(),
            None => MetricsReport::empty(),
        }
    }

    /// Exports the trace as JSON lines (one line per span enter/exit and
    /// per event), sorted so timestamps are monotone. Empty string when
    /// disabled.
    pub fn export_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => {
                let b = inner.borrow();
                export::export_jsonl(&b.spans, &b.events)
            }
            None => String::new(),
        }
    }

    /// Takes an owned snapshot of everything this tracer recorded.
    ///
    /// Unlike the tracer itself (which shares one `Rc` buffer and is
    /// confined to its thread), a [`TraceDump`] is plain data — `Send` —
    /// so per-shard worker threads can hand their traces back to the
    /// executor for merging. `None` when the tracer is disabled.
    pub fn dump(&self) -> Option<TraceDump> {
        self.inner.as_ref().map(|inner| {
            let b = inner.borrow();
            TraceDump {
                spans: b.spans.clone(),
                events: b.events.clone(),
                metrics: b.metrics.clone(),
            }
        })
    }

    /// Drops all recorded spans/events/metrics, keeping the clock.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut b = inner.borrow_mut();
            b.spans.clear();
            b.events.clear();
            b.open.clear();
            b.metrics = Metrics::new();
            b.seq = 0;
        }
    }

    fn annotate(&self, id: Option<SpanId>, f: impl FnOnce(&mut SpanRecord)) {
        if let (Some(inner), Some(id)) = (&self.inner, id) {
            f(&mut inner.borrow_mut().spans[id.index()]);
        }
    }
}

/// An owned snapshot of one tracer's buffer: spans, events, and metric
/// state. Plain data (no `Rc`), so it crosses threads — the unit a
/// trial's output carries and renders via [`crate::merge_jsonl`] /
/// [`crate::merge_metrics`] (which, for one dump, give the same bytes as
/// the tracer it came from).
#[derive(Clone)]
pub struct TraceDump {
    /// All recorded spans, in creation order.
    pub spans: Vec<SpanRecord>,
    /// All recorded events, in emission order.
    pub events: Vec<EventRecord>,
    pub(crate) metrics: Metrics,
}

/// RAII guard for an open span; the span exits when this drops (also on
/// early `?` returns, so error paths leave well-formed trees).
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<SpanId>,
}

impl SpanGuard {
    /// Attaches a function id to the span.
    pub fn annotate_fn(&self, fn_id: u64) {
        self.tracer.annotate(self.id, |r| r.fn_id = Some(fn_id));
    }

    /// Attaches the deployment path to the span.
    pub fn annotate_path(&self, path: PathKind) {
        self.tracer.annotate(self.id, |r| r.path = Some(path));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.exit(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheKind;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.set_clock(SimTime::from_millis(5));
        t.advance(SimDuration::from_millis(1));
        let g = t.span(SpanName::Invoke);
        g.annotate_fn(1);
        g.annotate_path(PathKind::Hot);
        t.event(TraceEvent::CowBreak);
        drop(g);
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        assert_eq!(t.now(), SimTime::ZERO);
        assert!(t.export_jsonl().is_empty());
        assert_eq!(t.metrics_report().segments, 0);
    }

    #[test]
    fn spans_nest_and_time_advances() {
        let t = Tracer::enabled();
        t.set_clock(SimTime::from_micros(100));
        let outer = t.span(SpanName::Invoke);
        outer.annotate_path(PathKind::Cold);
        {
            let _inner = t.span(SpanName::Phase(Phase::Deploy));
            t.advance(SimDuration::from_micros(50));
        }
        t.event(TraceEvent::CacheMiss {
            cache: CacheKind::IdleUc,
        });
        drop(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].duration(), Some(SimDuration::from_micros(50)));
        assert_eq!(spans[0].duration(), Some(SimDuration::from_micros(50)));
        assert_eq!(spans[0].path, Some(PathKind::Cold));
        // The event fired after the deploy span closed → parents to outer.
        assert_eq!(t.events()[0].parent, Some(spans[0].id));
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn shared_clones_share_one_buffer() {
        let t = Tracer::enabled();
        let clone = t.clone();
        let _g = t.span(SpanName::Invoke);
        clone.event(TraceEvent::PageFault);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].parent, Some(SpanId(0)));
    }

    #[test]
    fn clear_resets_everything() {
        let t = Tracer::enabled();
        {
            let _g = t.span(SpanName::Invoke);
            t.event(TraceEvent::TlbFlush);
        }
        t.clear();
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
        assert_eq!(t.metrics_report().segments, 0);
    }
}

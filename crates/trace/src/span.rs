//! Span identities, names, and records.

use simcore::{SimDuration, SimTime};

/// Which deployment path served an invocation (§4).
///
/// Defined here (rather than in `seuss-core`, which re-exports it) so the
/// tracer's metrics can bucket by path without depending on the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// No cached state: runtime snapshot + import + capture.
    Cold,
    /// Function snapshot cached: deploy + run.
    Warm,
    /// Idle UC cached: run in place.
    Hot,
    /// Function snapshot cached but demoted to the storage tier:
    /// deploy + tier restore + run. Appended after the original three so
    /// tier-free metrics output stays byte-identical.
    WarmTier,
}

impl PathKind {
    /// All paths, in cold→hot order (the tiered warm path appended).
    pub const ALL: [PathKind; 4] = [
        PathKind::Cold,
        PathKind::Warm,
        PathKind::Hot,
        PathKind::WarmTier,
    ];

    /// Lowercase name used in trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            PathKind::Cold => "cold",
            PathKind::Warm => "warm",
            PathKind::Hot => "hot",
            PathKind::WarmTier => "warm_tier",
        }
    }

    /// Dense index (position in [`PathKind::ALL`]).
    pub(crate) const fn index(self) -> usize {
        match self {
            PathKind::Cold => 0,
            PathKind::Warm => 1,
            PathKind::Hot => 2,
            PathKind::WarmTier => 3,
        }
    }
}

/// One phase of an invocation segment — the single enumeration behind
/// `PathCosts::phases()`, `PathCosts::total()`, the trial reports, and
/// the tracer's per-phase histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// UC construction (shallow clone, kmeta, resume writes, fixed part).
    Deploy,
    /// Storage-tier restore work (eager promotion or working-set
    /// prefetch) for a deploy from a demoted snapshot. Zero — and its
    /// span never opened — on untiered paths.
    Restore,
    /// Connection setup into the UC (plus any first-use warming).
    Connect,
    /// Code import + compile.
    Import,
    /// Function-snapshot capture.
    Capture,
    /// Argument import + driver dispatch + function execution.
    Exec,
    /// Result return.
    Respond,
}

impl Phase {
    /// All phases, in segment order.
    pub const ALL: [Phase; 7] = [
        Phase::Deploy,
        Phase::Restore,
        Phase::Connect,
        Phase::Import,
        Phase::Capture,
        Phase::Exec,
        Phase::Respond,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Lowercase name used in trace output.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Phase::Deploy => "deploy",
            Phase::Restore => "restore",
            Phase::Connect => "connect",
            Phase::Import => "import",
            Phase::Capture => "capture",
            Phase::Exec => "exec",
            Phase::Respond => "respond",
        }
    }

    /// Dense index (position in [`Phase::ALL`]).
    pub const fn index(self) -> usize {
        match self {
            Phase::Deploy => 0,
            Phase::Restore => 1,
            Phase::Connect => 2,
            Phase::Import => 3,
            Phase::Capture => 4,
            Phase::Exec => 5,
            Phase::Respond => 6,
        }
    }
}

/// Identifier of a span within one tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// Raw index into the tracer's span table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw numeric value (used by the JSONL exporter).
    pub(crate) fn as_u32(self) -> u32 {
        self.0
    }
}

/// What a span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanName {
    /// A first invocation segment (`SeussNode::invoke`).
    Invoke,
    /// A post-IO continuation segment (`SeussNode::resume_invocation`).
    Resume,
    /// A Linux-backend exec segment (container already dispatched).
    Dispatch,
    /// One `PathCosts` phase inside a segment.
    Phase(Phase),
}

impl SpanName {
    /// Name used in trace output (`"invoke"`, `"phase:deploy"`, …).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanName::Invoke => "invoke",
            SpanName::Resume => "resume",
            SpanName::Dispatch => "dispatch",
            SpanName::Phase(Phase::Deploy) => "phase:deploy",
            SpanName::Phase(Phase::Restore) => "phase:restore",
            SpanName::Phase(Phase::Connect) => "phase:connect",
            SpanName::Phase(Phase::Import) => "phase:import",
            SpanName::Phase(Phase::Capture) => "phase:capture",
            SpanName::Phase(Phase::Exec) => "phase:exec",
            SpanName::Phase(Phase::Respond) => "phase:respond",
        }
    }
}

/// One recorded span: an interval in virtual time with a parent link.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The span open when this one was entered, if any.
    pub parent: Option<SpanId>,
    /// What the span measures.
    pub name: SpanName,
    /// Virtual time at enter.
    pub start: SimTime,
    /// Virtual time at exit (`None` while still open).
    pub end: Option<SimTime>,
    /// Annotated function id, if any.
    pub fn_id: Option<u64>,
    /// Annotated deployment path, if any.
    pub path: Option<PathKind>,
    pub(crate) enter_seq: u64,
    pub(crate) exit_seq: u64,
}

impl SpanRecord {
    /// Span duration; `None` while the span is open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.start))
    }

    /// Global sequence number of the enter. Sequence numbers totally
    /// order enters, exits, and events, so they disambiguate ordering
    /// when the virtual clock does not move between records.
    pub fn enter_seq(&self) -> u64 {
        self.enter_seq
    }

    /// Global sequence number of the exit (0 while the span is open).
    pub fn exit_seq(&self) -> u64 {
        self.exit_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, p) in PathKind::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
    }
}

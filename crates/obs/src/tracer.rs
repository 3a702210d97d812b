//! The tracer and the zero-cost handle threaded through the runtime.
//!
//! A [`Tracer`] owns one [`Ring`], which the traced run appends to
//! without taking a lock. The ring's capacity only bounds it: record storage grows in chunks as
//! events arrive, so a tracer costs about what it records.
//!
//! A tracer belongs to the run that records into it, not to that run's
//! results: the chase engine reads its handle from the options of each
//! run and keeps none in the chase it returns, so a chase kept resident
//! after its request never holds the request's tracer alive.
//!
//! [`TraceHandle`] is the type instrumentation sites see. `Disabled` (the
//! default) makes [`TraceHandle::emit`] a single enum-discriminant branch:
//! the payload closure is never called and no clock is read, which is the
//! crate's zero-cost contract.

use std::sync::Arc;
use std::time::Instant;

use crate::event::{ChaseEvent, Recorded, SpanKind};
use crate::ring::Ring;

/// Default ring capacity in records: a cap, not an allocation. The ring
/// allocates storage in chunks of [`CHUNK_RECORDS`](crate::CHUNK_RECORDS)
/// records as events arrive, so a run that records a few events holds one
/// 8 KiB chunk, and only a run that fills the ring reaches the cap's 1 MiB
/// of payload (32 bytes/record) — ample for every workload in the bench
/// suite while still bounding memory on runaway chases.
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

/// The shared event sink: one bounded ring.
pub struct Tracer {
    ring: Ring,
}

impl Tracer {
    /// Creates a tracer whose ring holds up to `ring_capacity` records.
    pub fn new(ring_capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            ring: Ring::new(ring_capacity),
        })
    }

    /// Creates a tracer with [`DEFAULT_RING_CAPACITY`].
    pub fn with_default_capacity() -> Arc<Tracer> {
        Tracer::new(DEFAULT_RING_CAPACITY)
    }

    /// Decodes the ring into one event sequence in `seq` order. Call when
    /// the writer is quiescent (e.g. after the traced run returned).
    pub fn snapshot(self: &Arc<Tracer>) -> TraceSnapshot {
        let events = self
            .ring
            .snapshot()
            .into_iter()
            // Torn or foreign records decode to None and are skipped.
            .filter_map(|(seq, record)| {
                ChaseEvent::decode(&record).map(|event| Recorded { seq, event })
            })
            .collect();
        TraceSnapshot {
            events,
            dropped: self.ring.dropped(),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("ring_capacity", &self.ring.capacity())
            .finish()
    }
}

/// A deterministic view of everything the tracer recorded.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// All decoded events in `seq` order.
    pub events: Vec<Recorded>,
    /// Records overwritten in the ring (newest were kept).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// An empty snapshot (what a disabled run exports).
    pub fn empty() -> TraceSnapshot {
        TraceSnapshot {
            events: Vec::new(),
            dropped: 0,
        }
    }
}

/// The handle instrumentation sites hold. Cheap to clone; `Disabled` is
/// the default and reduces [`TraceHandle::emit`] to one branch.
#[derive(Clone, Debug, Default)]
pub enum TraceHandle {
    /// Tracing off: `emit` never evaluates its payload closure.
    #[default]
    Disabled,
    /// Tracing on: events append to the tracer's ring.
    Enabled {
        /// The shared tracer (for snapshots).
        tracer: Arc<Tracer>,
    },
}

impl TraceHandle {
    /// An enabled handle recording into `tracer`.
    pub fn enabled(tracer: &Arc<Tracer>) -> TraceHandle {
        TraceHandle::Enabled {
            tracer: Arc::clone(tracer),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TraceHandle::Enabled { .. })
    }

    /// Records the event built by `f` — or does nothing, without calling
    /// `f`, when disabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> ChaseEvent) {
        if let TraceHandle::Enabled { tracer } = self {
            tracer.ring.append(f().encode());
        }
    }

    /// The shared tracer, if enabled (for taking snapshots).
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        match self {
            TraceHandle::Disabled => None,
            TraceHandle::Enabled { tracer, .. } => Some(tracer),
        }
    }

    /// Starts a timed span. Emits `SpanStart` now and `SpanEnd` (with the
    /// elapsed nanoseconds) when the guard drops. When disabled, no clock
    /// is read and nothing is recorded.
    pub fn span(&self, kind: SpanKind) -> SpanGuard {
        match self {
            TraceHandle::Disabled => SpanGuard {
                handle: TraceHandle::Disabled,
                kind,
                start: None,
            },
            TraceHandle::Enabled { .. } => {
                self.emit(|| ChaseEvent::SpanStart { span: kind });
                SpanGuard {
                    handle: self.clone(),
                    kind,
                    start: Some(Instant::now()),
                }
            }
        }
    }
}

/// RAII guard for a timed span; emits `SpanEnd` on drop.
#[derive(Debug)]
pub struct SpanGuard {
    handle: TraceHandle,
    kind: SpanKind,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let kind = self.kind;
            self.handle
                .emit(|| ChaseEvent::SpanEnd { span: kind, nanos });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_evaluates_payload() {
        let handle = TraceHandle::default();
        assert!(!handle.is_enabled());
        handle.emit(|| unreachable!("payload closure must not run when disabled"));
        // Spans on a disabled handle record nothing either.
        drop(handle.span(SpanKind::Decide));
    }

    #[test]
    fn events_record_in_append_order() {
        let tracer = Tracer::new(16);
        let handle = TraceHandle::enabled(&tracer);
        handle.emit(|| ChaseEvent::CacheLookup { hit: true });
        // A clone shares the ring and its seq stream.
        handle.clone().emit(|| ChaseEvent::HomPrune { depth: 1 });
        handle.emit(|| ChaseEvent::CacheLookup { hit: false });

        let snap = tracer.snapshot();
        assert_eq!(snap.dropped, 0);
        let got: Vec<(u64, ChaseEvent)> = snap.events.iter().map(|r| (r.seq, r.event)).collect();
        assert_eq!(
            got,
            vec![
                (0, ChaseEvent::CacheLookup { hit: true }),
                (1, ChaseEvent::HomPrune { depth: 1 }),
                (2, ChaseEvent::CacheLookup { hit: false }),
            ]
        );
    }

    #[test]
    fn overflow_is_surfaced_in_the_snapshot() {
        let tracer = Tracer::new(2);
        let handle = TraceHandle::enabled(&tracer);
        for depth in 0..5 {
            handle.emit(|| ChaseEvent::HomExpand { depth });
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.dropped, 3);
        let got: Vec<ChaseEvent> = snap.events.iter().map(|r| r.event).collect();
        assert_eq!(
            got,
            vec![
                ChaseEvent::HomExpand { depth: 3 },
                ChaseEvent::HomExpand { depth: 4 },
            ],
            "newest events survive overflow"
        );
        // Seq numbers keep their pre-overflow values.
        assert_eq!(snap.events[0].seq, 3);
        assert_eq!(snap.events[1].seq, 4);
    }

    #[test]
    fn span_guard_emits_matched_start_end_pair() {
        let tracer = Tracer::new(16);
        let handle = TraceHandle::enabled(&tracer);
        {
            let _g = handle.span(SpanKind::HomSearch);
            handle.emit(|| ChaseEvent::HomExpand { depth: 0 });
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(
            snap.events[0].event,
            ChaseEvent::SpanStart {
                span: SpanKind::HomSearch
            }
        );
        match snap.events[2].event {
            ChaseEvent::SpanEnd { span, .. } => assert_eq!(span, SpanKind::HomSearch),
            other => panic!("expected SpanEnd, got {other:?}"),
        }
    }
}

//! The thread-aware tracer and the zero-cost handle threaded through the
//! runtime.
//!
//! A [`Tracer`] owns one [`Ring`] per worker slot. The coordinating thread
//! records under worker 0; each parallel discovery worker gets its own
//! slot via [`TraceHandle::worker`]. Rings are created lazily under a
//! mutex (worker counts aren't known up front), but *appending* is
//! lock-free: an enabled handle caches the `Arc<Ring>` it writes to.
//! A ring's capacity only bounds it: record storage grows in chunks as
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

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{ChaseEvent, Recorded, SpanKind};
use crate::ring::Ring;

/// Default per-worker ring capacity in records: a cap, not an
/// allocation. Rings allocate storage in chunks of
/// [`CHUNK_RECORDS`](crate::CHUNK_RECORDS) records as events arrive, so a
/// run that records a few events holds one 8 KiB chunk, and only a run
/// that fills the ring reaches the cap's 1 MiB of payload per worker
/// (32 bytes/record) — ample for every workload in the bench suite while
/// still bounding memory on runaway chases.
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

/// The shared event sink: one bounded ring per worker slot.
pub struct Tracer {
    /// Per-worker rings, indexed by worker id; grown lazily.
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Capacity of each per-worker ring, fixed at construction.
    ring_capacity: usize,
}

impl Tracer {
    /// Creates a tracer whose per-worker rings hold `ring_capacity`
    /// records each.
    pub fn new(ring_capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            rings: Mutex::new(Vec::new()),
            ring_capacity: ring_capacity.max(1),
        })
    }

    /// Creates a tracer with [`DEFAULT_RING_CAPACITY`].
    pub fn with_default_capacity() -> Arc<Tracer> {
        Tracer::new(DEFAULT_RING_CAPACITY)
    }

    /// Returns worker `id`'s ring, creating any missing slots up to `id`.
    fn ring(&self, id: u32) -> Arc<Ring> {
        let mut rings = self.rings.lock().expect("tracer ring registry poisoned");
        let idx = id as usize;
        while rings.len() <= idx {
            rings.push(Arc::new(Ring::new(self.ring_capacity)));
        }
        Arc::clone(&rings[idx])
    }

    /// Merges all per-worker rings into one deterministic event sequence,
    /// ordered by `(worker, seq)`. Call when writers are quiescent (e.g.
    /// after worker threads are joined).
    pub fn snapshot(self: &Arc<Tracer>) -> TraceSnapshot {
        let rings = self.rings.lock().expect("tracer ring registry poisoned");
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for (worker, ring) in rings.iter().enumerate() {
            dropped = dropped.saturating_add(ring.dropped());
            for (seq, record) in ring.snapshot() {
                // Torn or foreign records decode to None and are skipped.
                if let Some(event) = ChaseEvent::decode(&record) {
                    events.push(Recorded {
                        worker: worker as u32,
                        seq,
                        event,
                    });
                }
            }
        }
        // Rings were visited in worker order and each ring yields seqs
        // ascending, so `events` is already (worker, seq)-sorted.
        TraceSnapshot { events, dropped }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = self.rings.lock().map(|r| r.len()).unwrap_or(0);
        f.debug_struct("Tracer")
            .field("workers", &workers)
            .field("ring_capacity", &self.ring_capacity)
            .finish()
    }
}

/// A merged, deterministic view of everything the tracer recorded.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// All decoded events in `(worker, seq)` order.
    pub events: Vec<Recorded>,
    /// Total records overwritten across all rings (newest were kept).
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
    /// Tracing on: events append to `ring` (this handle's worker slot).
    Enabled {
        /// The shared tracer (for snapshots and sibling worker handles).
        tracer: Arc<Tracer>,
        /// This handle's cached ring — appends take no lock.
        ring: Arc<Ring>,
        /// This handle's worker slot (0 = coordinating thread).
        worker: u32,
    },
}

impl TraceHandle {
    /// An enabled handle recording under worker 0 of `tracer`.
    pub fn enabled(tracer: &Arc<Tracer>) -> TraceHandle {
        TraceHandle::Enabled {
            ring: tracer.ring(0),
            tracer: Arc::clone(tracer),
            worker: 0,
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
        if let TraceHandle::Enabled { ring, .. } = self {
            ring.append(f().encode());
        }
    }

    /// A handle recording under worker slot `id` of the same tracer.
    /// Disabled handles return disabled handles, so call sites never
    /// branch.
    pub fn worker(&self, id: u32) -> TraceHandle {
        match self {
            TraceHandle::Disabled => TraceHandle::Disabled,
            TraceHandle::Enabled { tracer, .. } => TraceHandle::Enabled {
                ring: tracer.ring(id),
                tracer: Arc::clone(tracer),
                worker: id,
            },
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
        // Worker derivation stays disabled, and spans record nothing.
        let w = handle.worker(3);
        assert!(!w.is_enabled());
        drop(w.span(SpanKind::Decide));
    }

    #[test]
    fn events_record_under_the_right_worker() {
        let tracer = Tracer::new(16);
        let handle = TraceHandle::enabled(&tracer);
        handle.emit(|| ChaseEvent::CacheLookup { hit: true });
        let w2 = handle.worker(2);
        w2.emit(|| ChaseEvent::HomPrune { depth: 1 });
        handle.emit(|| ChaseEvent::CacheLookup { hit: false });

        let snap = tracer.snapshot();
        assert_eq!(snap.dropped, 0);
        let got: Vec<(u32, u64, ChaseEvent)> = snap
            .events
            .iter()
            .map(|r| (r.worker, r.seq, r.event))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0, ChaseEvent::CacheLookup { hit: true }),
                (0, 1, ChaseEvent::CacheLookup { hit: false }),
                (2, 0, ChaseEvent::HomPrune { depth: 1 }),
            ]
        );
    }

    #[test]
    fn snapshot_merges_workers_in_worker_then_seq_order() {
        let tracer = Tracer::new(16);
        let handle = TraceHandle::enabled(&tracer);
        // Interleave appends across workers in a scrambled order; the
        // snapshot must still come out (worker, seq)-sorted.
        let w1 = handle.worker(1);
        let w2 = handle.worker(2);
        w2.emit(|| ChaseEvent::HomExpand { depth: 0 });
        handle.emit(|| ChaseEvent::HomExpand { depth: 1 });
        w1.emit(|| ChaseEvent::HomExpand { depth: 2 });
        w2.emit(|| ChaseEvent::HomExpand { depth: 3 });
        handle.emit(|| ChaseEvent::HomExpand { depth: 4 });

        let snap = tracer.snapshot();
        let keys: Vec<(u32, u64)> = snap.events.iter().map(|r| (r.worker, r.seq)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(
            keys,
            vec![(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
            "one seq stream per worker, merged in worker order"
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

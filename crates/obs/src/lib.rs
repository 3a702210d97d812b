//! Structured chase tracing: typed events, a bounded ring buffer, and
//! profile rollups.
//!
//! The paper's central quantitative claim is the *bounded* chase:
//! containment is decided inside the first `2·|q1|·|q2|` levels of
//! `chase_ΣFL(q1)` (Theorems 4, 12, 13). Aggregate wall-clock totals
//! (`flogic_term::Metrics`) cannot show *which* of the twelve `Σ_FL` rules
//! fired, how the frontier grew per level, or how far below the theoretical
//! bound real workloads stop. This crate records exactly that:
//!
//! * [`ChaseEvent`] — the typed event vocabulary: rule firings per `Σ_FL`
//!   rule, ρ4 merges with union-find depth, ρ5 value inventions with the
//!   invented-null level, per-round frontier/atom counts, governor stops,
//!   homomorphism-search node expansions/backtracks/prunes, and
//!   containment-cache lookups, plus span start/end pairs for phase timing;
//! * [`Tracer`] / [`TraceHandle`] — the sink: the traced run appends to
//!   one bounded [`Ring`] without locks (single-writer discipline), and a
//!   snapshot decodes it in `seq` order;
//! * [`ChaseProfile`] — the rollup: per-rule firing histogram, per-level
//!   growth curve, observed chase depth vs. the Theorem 12 bound, and
//!   per-phase timing;
//! * [`export`] — JSONL and CSV renderings of traces and profiles, plus a
//!   line-oriented JSONL parser for external validators;
//! * [`Histogram`] / [`RequestSpan`] — the request-level layer `flqd`
//!   builds on: a lock-free log2-bucketed latency histogram with
//!   mergeable, Prometheus-renderable snapshots, and an allocation-free
//!   per-request span that ids a request and times its named stages.
//!
//! **Overhead contract.** Tracing is opt-in per run. The disabled handle
//! ([`TraceHandle::Disabled`], the default) reduces every instrumentation
//! site to one enum-discriminant branch; event payloads are built inside
//! closures that are never called when disabled, and no clock is read.
//!
//! **Determinism contract.** Recording only *observes*: no instrumentation
//! site influences rule matching, application order, or verdicts. Enabling
//! tracing leaves chase results bit-identical (this is enforced by
//! `tests/chase_determinism.rs` in the workspace root).
//!
//! This crate is dependency-free (std only) so that every other crate in
//! the workspace can sit on top of it.

mod event;
mod profile;
mod ring;
mod tracer;

pub mod export;
pub mod hist;
pub mod span;

pub use event::{ChaseEvent, Recorded, SpanKind, SPAN_KIND_COUNT};
pub use hist::{
    bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKET_COUNT,
};
pub use profile::{ChaseProfile, LevelGrowth, RoundGrowth};
pub use ring::{Ring, CHUNK_RECORDS, RECORD_WORDS};
pub use span::{RequestSpan, MAX_STAGES};
pub use tracer::{SpanGuard, TraceHandle, TraceSnapshot, Tracer, DEFAULT_RING_CAPACITY};

/// Number of rules in `Σ_FL` (the paper's ρ1…ρ12). Mirrors
/// `flogic_model::SIGMA_RULE_COUNT`, restated here because this crate is
/// dependency-free.
pub const RULE_COUNT: usize = 12;

//! The typed event vocabulary and its fixed-width binary encoding.
//!
//! Every event encodes into exactly [`RECORD_WORDS`](crate::RECORD_WORDS)
//! `u64` words (tag + three payload words) so the tracer's ring buffer
//! can store them in place without allocation. Encoding and decoding are
//! exact inverses for every constructible event (see the round-trip test).

use std::fmt;

use crate::ring::RECORD_WORDS;

/// Number of span kinds (the length of per-kind timing arrays).
pub const SPAN_KIND_COUNT: usize = 4;

/// A timed phase of the decision procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The preliminary chase `chase⁻ = chase_{Σ_FL − ρ5}` (level 0).
    ChaseMinus,
    /// The level-bounded phase with all twelve rules (ρ5 may invent).
    ChaseBounded,
    /// The backtracking homomorphism search `body(q2) → chase(q1)`.
    HomSearch,
    /// One whole containment decision (chase + hom + bookkeeping).
    Decide,
}

impl SpanKind {
    /// All kinds, in dense-index order.
    pub const ALL: [SpanKind; SPAN_KIND_COUNT] = [
        SpanKind::ChaseMinus,
        SpanKind::ChaseBounded,
        SpanKind::HomSearch,
        SpanKind::Decide,
    ];

    /// Dense index in `0..SPAN_KIND_COUNT`.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable machine-readable name (used in the JSONL export).
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::ChaseMinus => "chase_minus",
            SpanKind::ChaseBounded => "chase_bounded",
            SpanKind::HomSearch => "hom_search",
            SpanKind::Decide => "decide",
        }
    }

    fn from_index(i: u64) -> Option<SpanKind> {
        SpanKind::ALL.get(usize::try_from(i).ok()?).copied()
    }

    /// Parses a [`SpanKind::name`] back.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured observation from the chase runtime.
///
/// `rule` fields are dense `Σ_FL` rule indexes (`0 ↦ ρ1 … 11 ↦ ρ12`) and
/// `reason` fields are the governor's exhaust-reason index — plain integers
/// because this crate sits below `flogic-model` and `flogic-chase`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseEvent {
    /// A TGD application succeeded: `rule` fired and created a conjunct at
    /// `level`.
    RuleFired {
        /// Dense rule index (`0 ↦ ρ1 … 11 ↦ ρ12`).
        rule: u8,
        /// Level of the created conjunct (Definition 3(3)).
        level: u32,
    },
    /// One ρ4 (EGD) merge round: `merged` terms were rewritten into their
    /// representatives; `depth` is the longest union-find chain walked
    /// while computing those representatives.
    EgdMerge {
        /// Terms rewritten in this round.
        merged: u32,
        /// Longest union-find parent chain observed.
        depth: u32,
    },
    /// ρ5 invented a fresh labelled null.
    NullInvented {
        /// The invented null's id.
        null: u64,
        /// Level of the conjunct carrying the fresh value.
        level: u32,
    },
    /// A frontier round is about to run: the chase currently has `atoms`
    /// live conjuncts, `frontier` of them are new since the last round, and
    /// the deepest live conjunct sits at `max_level`.
    Frontier {
        /// Round counter within one engine run (0-based).
        round: u32,
        /// Deepest live conjunct level when the round started.
        max_level: u32,
        /// Conjuncts in this round's frontier.
        frontier: u64,
        /// Total live conjuncts when the round started.
        atoms: u64,
    },
    /// The resource governor stopped the run.
    GovernorStop {
        /// Exhaust-reason index (`flogic_chase::ExhaustReason` order:
        /// 0 conjuncts, 1 deadline, 2 steps, 3 bytes, 4 cancelled).
        reason: u8,
    },
    /// The homomorphism search descended into a deeper node.
    HomExpand {
        /// Source atoms already mapped when the expansion happened.
        depth: u32,
    },
    /// The homomorphism search exhausted a node's candidates and unwound.
    HomBacktrack {
        /// Source atoms mapped at the abandoned node.
        depth: u32,
    },
    /// A candidate conjunct failed unification and was pruned.
    HomPrune {
        /// Source atoms mapped when the candidate was rejected.
        depth: u32,
    },
    /// A containment-decision cache lookup.
    CacheLookup {
        /// Whether the canonical pair was already memoized.
        hit: bool,
    },
    /// A timed phase began.
    SpanStart {
        /// Which phase.
        span: SpanKind,
    },
    /// A timed phase ended after `nanos` wall-clock nanoseconds.
    SpanEnd {
        /// Which phase.
        span: SpanKind,
        /// Wall-clock duration of the span in nanoseconds (saturating).
        nanos: u64,
    },
    /// The level bounds governing a containment decision, emitted once at
    /// the start so a trace is self-describing: validators can check
    /// observed depth against the Theorem 12 bound without re-deriving it.
    Bound {
        /// The effective level bound the chase ran with.
        level_bound: u64,
        /// The Theorem 12 bound `2·|q1|·|q2|`.
        theorem_bound: u64,
    },
}

/// Event tags of the binary encoding (word 0 of a record).
mod tag {
    pub const RULE_FIRED: u64 = 0;
    pub const EGD_MERGE: u64 = 1;
    pub const NULL_INVENTED: u64 = 2;
    pub const FRONTIER: u64 = 3;
    pub const GOVERNOR_STOP: u64 = 4;
    pub const HOM_EXPAND: u64 = 5;
    pub const HOM_BACKTRACK: u64 = 6;
    pub const HOM_PRUNE: u64 = 7;
    pub const CACHE_LOOKUP: u64 = 8;
    pub const SPAN_START: u64 = 9;
    pub const SPAN_END: u64 = 10;
    pub const BOUND: u64 = 11;
}

/// Packs two `u32`s into one word (`lo` in the low half).
fn pack(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// Splits a packed word back into `(lo, hi)`.
fn unpack(w: u64) -> (u32, u32) {
    (w as u32, (w >> 32) as u32)
}

impl ChaseEvent {
    /// Encodes the event into one fixed-width record.
    pub fn encode(&self) -> [u64; RECORD_WORDS] {
        match *self {
            ChaseEvent::RuleFired { rule, level } => {
                [tag::RULE_FIRED, u64::from(rule), u64::from(level), 0]
            }
            ChaseEvent::EgdMerge { merged, depth } => {
                [tag::EGD_MERGE, u64::from(merged), u64::from(depth), 0]
            }
            ChaseEvent::NullInvented { null, level } => {
                [tag::NULL_INVENTED, null, u64::from(level), 0]
            }
            ChaseEvent::Frontier {
                round,
                max_level,
                frontier,
                atoms,
            } => [tag::FRONTIER, pack(round, max_level), frontier, atoms],
            ChaseEvent::GovernorStop { reason } => [tag::GOVERNOR_STOP, u64::from(reason), 0, 0],
            ChaseEvent::HomExpand { depth } => [tag::HOM_EXPAND, u64::from(depth), 0, 0],
            ChaseEvent::HomBacktrack { depth } => [tag::HOM_BACKTRACK, u64::from(depth), 0, 0],
            ChaseEvent::HomPrune { depth } => [tag::HOM_PRUNE, u64::from(depth), 0, 0],
            ChaseEvent::CacheLookup { hit } => [tag::CACHE_LOOKUP, u64::from(hit), 0, 0],
            ChaseEvent::SpanStart { span } => [tag::SPAN_START, span.index() as u64, 0, 0],
            ChaseEvent::SpanEnd { span, nanos } => [tag::SPAN_END, span.index() as u64, nanos, 0],
            ChaseEvent::Bound {
                level_bound,
                theorem_bound,
            } => [tag::BOUND, level_bound, theorem_bound, 0],
        }
    }

    /// Decodes a record; `None` for an unknown tag or out-of-range payload
    /// (a torn or foreign record — skipped rather than trusted).
    pub fn decode(words: &[u64; RECORD_WORDS]) -> Option<ChaseEvent> {
        let ev = match words[0] {
            tag::RULE_FIRED => ChaseEvent::RuleFired {
                rule: u8::try_from(words[1]).ok().filter(|&r| r < 12)?,
                level: u32::try_from(words[2]).ok()?,
            },
            tag::EGD_MERGE => ChaseEvent::EgdMerge {
                merged: u32::try_from(words[1]).ok()?,
                depth: u32::try_from(words[2]).ok()?,
            },
            tag::NULL_INVENTED => ChaseEvent::NullInvented {
                null: words[1],
                level: u32::try_from(words[2]).ok()?,
            },
            tag::FRONTIER => {
                let (round, max_level) = unpack(words[1]);
                ChaseEvent::Frontier {
                    round,
                    max_level,
                    frontier: words[2],
                    atoms: words[3],
                }
            }
            tag::GOVERNOR_STOP => ChaseEvent::GovernorStop {
                reason: u8::try_from(words[1]).ok()?,
            },
            tag::HOM_EXPAND => ChaseEvent::HomExpand {
                depth: u32::try_from(words[1]).ok()?,
            },
            tag::HOM_BACKTRACK => ChaseEvent::HomBacktrack {
                depth: u32::try_from(words[1]).ok()?,
            },
            tag::HOM_PRUNE => ChaseEvent::HomPrune {
                depth: u32::try_from(words[1]).ok()?,
            },
            tag::CACHE_LOOKUP => ChaseEvent::CacheLookup { hit: words[1] != 0 },
            tag::SPAN_START => ChaseEvent::SpanStart {
                span: SpanKind::from_index(words[1])?,
            },
            tag::SPAN_END => ChaseEvent::SpanEnd {
                span: SpanKind::from_index(words[1])?,
                nanos: words[2],
            },
            tag::BOUND => ChaseEvent::Bound {
                level_bound: words[1],
                theorem_bound: words[2],
            },
            _ => return None,
        };
        Some(ev)
    }

    /// Stable machine-readable event-type name (used in the JSONL export).
    pub const fn type_name(&self) -> &'static str {
        match self {
            ChaseEvent::RuleFired { .. } => "rule_fired",
            ChaseEvent::EgdMerge { .. } => "egd_merge",
            ChaseEvent::NullInvented { .. } => "null_invented",
            ChaseEvent::Frontier { .. } => "frontier",
            ChaseEvent::GovernorStop { .. } => "governor_stop",
            ChaseEvent::HomExpand { .. } => "hom_expand",
            ChaseEvent::HomBacktrack { .. } => "hom_backtrack",
            ChaseEvent::HomPrune { .. } => "hom_prune",
            ChaseEvent::CacheLookup { .. } => "cache_lookup",
            ChaseEvent::SpanStart { .. } => "span_start",
            ChaseEvent::SpanEnd { .. } => "span_end",
            ChaseEvent::Bound { .. } => "bound",
        }
    }
}

/// An event as it came out of a tracer snapshot, with its sequence
/// number. Snapshots are ordered by `seq`, which is a pure function of
/// what the run appended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recorded {
    /// Append sequence number (monotone, gap-free unless the ring
    /// dropped old events).
    pub seq: u64,
    /// The event.
    pub event: ChaseEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ChaseEvent> {
        vec![
            ChaseEvent::RuleFired { rule: 4, level: 3 },
            ChaseEvent::EgdMerge {
                merged: 2,
                depth: 5,
            },
            ChaseEvent::NullInvented { null: 77, level: 1 },
            ChaseEvent::Frontier {
                round: 9,
                max_level: 4,
                frontier: 12,
                atoms: 40,
            },
            ChaseEvent::GovernorStop { reason: 2 },
            ChaseEvent::HomExpand { depth: 2 },
            ChaseEvent::HomBacktrack { depth: 1 },
            ChaseEvent::HomPrune { depth: 3 },
            ChaseEvent::CacheLookup { hit: true },
            ChaseEvent::CacheLookup { hit: false },
            ChaseEvent::SpanStart {
                span: SpanKind::ChaseMinus,
            },
            ChaseEvent::SpanEnd {
                span: SpanKind::Decide,
                nanos: 123_456,
            },
            ChaseEvent::Bound {
                level_bound: 9,
                theorem_bound: 24,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for ev in samples() {
            let words = ev.encode();
            assert_eq!(ChaseEvent::decode(&words), Some(ev), "{ev:?}");
        }
    }

    #[test]
    fn unknown_tag_and_bad_payload_decode_to_none() {
        assert_eq!(ChaseEvent::decode(&[999, 0, 0, 0]), None);
        // Rule index out of range.
        assert_eq!(ChaseEvent::decode(&[0, 12, 0, 0]), None);
        // Span index out of range.
        assert_eq!(ChaseEvent::decode(&[9, 99, 0, 0]), None);
    }

    #[test]
    fn span_kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }
}

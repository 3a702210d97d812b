//! The `ChaseProfile` rollup: aggregate a trace snapshot into the tables
//! `flq profile` prints and the bench harness exports.

use std::fmt;

use crate::event::{ChaseEvent, SpanKind, SPAN_KIND_COUNT};
use crate::tracer::TraceSnapshot;
use crate::RULE_COUNT;

/// Conjuncts created at one chase level (the per-level growth curve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelGrowth {
    /// Chase level (Definition 3(3)); level 0 is the initial query body.
    pub level: u32,
    /// Conjuncts created at this level by rule firings.
    pub created: u64,
    /// ρ5 value inventions at this level.
    pub inventions: u64,
}

/// One engine frontier round, as observed at its start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundGrowth {
    /// Round counter (0-based).
    pub round: u32,
    /// Deepest live conjunct level when the round started.
    pub max_level: u32,
    /// Conjuncts in the round's frontier.
    pub frontier: u64,
    /// Total live conjuncts when the round started.
    pub atoms: u64,
}

/// Aggregated view of one traced run.
#[derive(Clone, Debug, Default)]
pub struct ChaseProfile {
    /// Firings per `Σ_FL` rule, dense-indexed (`0 ↦ ρ1 … 11 ↦ ρ12`).
    /// ρ4's slot counts EGD merge rounds (the EGD "fires" by merging).
    pub rule_firings: [u64; RULE_COUNT],
    /// Conjuncts created per level, ascending by level.
    pub level_growth: Vec<LevelGrowth>,
    /// Frontier rounds in order.
    pub rounds: Vec<RoundGrowth>,
    /// Deepest level any event observed.
    pub observed_depth: u32,
    /// The Theorem 12 bound `2·|q1|·|q2|` (0 when no `Bound` event).
    pub theorem_bound: u64,
    /// The effective level bound the chase ran with (0 when untraced).
    pub level_bound: u64,
    /// Terms rewritten across all ρ4 merge rounds.
    pub egd_terms_merged: u64,
    /// Deepest union-find chain walked during ρ4 merging.
    pub egd_max_depth: u32,
    /// ρ5 labelled nulls invented.
    pub nulls_invented: u64,
    /// Homomorphism-search node expansions.
    pub hom_expansions: u64,
    /// Homomorphism-search backtracks.
    pub hom_backtracks: u64,
    /// Homomorphism-search candidate prunes.
    pub hom_prunes: u64,
    /// Containment-cache hits.
    pub cache_hits: u64,
    /// Containment-cache misses.
    pub cache_misses: u64,
    /// Governor interventions.
    pub governor_stops: u64,
    /// Total span nanoseconds per [`SpanKind`], dense-indexed.
    pub span_nanos: [u64; SPAN_KIND_COUNT],
    /// Completed spans per [`SpanKind`], dense-indexed.
    pub span_counts: [u64; SPAN_KIND_COUNT],
    /// Events the ring overwrote (profile may undercount if nonzero).
    pub dropped: u64,
}

impl ChaseProfile {
    /// Rolls a snapshot up into a profile.
    pub fn from_snapshot(snapshot: &TraceSnapshot) -> ChaseProfile {
        let mut p = ChaseProfile {
            dropped: snapshot.dropped,
            ..ChaseProfile::default()
        };
        // Level → (created, inventions); levels are small (bounded by the
        // theorem bound), so a dense Vec keyed by level is fine.
        let mut levels: Vec<(u64, u64)> = Vec::new();
        let bump_level = |levels: &mut Vec<(u64, u64)>, level: u32, invention: bool| {
            let idx = level as usize;
            if levels.len() <= idx {
                levels.resize(idx + 1, (0, 0));
            }
            if invention {
                levels[idx].1 += 1;
            } else {
                levels[idx].0 += 1;
            }
        };
        for rec in &snapshot.events {
            match rec.event {
                ChaseEvent::RuleFired { rule, level } => {
                    if let Some(slot) = p.rule_firings.get_mut(rule as usize) {
                        *slot += 1;
                    }
                    bump_level(&mut levels, level, false);
                    p.observed_depth = p.observed_depth.max(level);
                }
                ChaseEvent::EgdMerge { merged, depth } => {
                    // ρ4 is the EGD: its histogram slot counts merge rounds.
                    p.rule_firings[3] += 1;
                    p.egd_terms_merged += u64::from(merged);
                    p.egd_max_depth = p.egd_max_depth.max(depth);
                }
                ChaseEvent::NullInvented { level, .. } => {
                    p.nulls_invented += 1;
                    bump_level(&mut levels, level, true);
                    p.observed_depth = p.observed_depth.max(level);
                }
                ChaseEvent::Frontier {
                    round,
                    max_level,
                    frontier,
                    atoms,
                } => {
                    p.rounds.push(RoundGrowth {
                        round,
                        max_level,
                        frontier,
                        atoms,
                    });
                    p.observed_depth = p.observed_depth.max(max_level);
                }
                ChaseEvent::GovernorStop { .. } => p.governor_stops += 1,
                ChaseEvent::HomExpand { .. } => p.hom_expansions += 1,
                ChaseEvent::HomBacktrack { .. } => p.hom_backtracks += 1,
                ChaseEvent::HomPrune { .. } => p.hom_prunes += 1,
                ChaseEvent::CacheLookup { hit } => {
                    if hit {
                        p.cache_hits += 1;
                    } else {
                        p.cache_misses += 1;
                    }
                }
                ChaseEvent::SpanStart { .. } => {}
                ChaseEvent::SpanEnd { span, nanos } => {
                    p.span_nanos[span.index()] = p.span_nanos[span.index()].saturating_add(nanos);
                    p.span_counts[span.index()] += 1;
                }
                ChaseEvent::Bound {
                    level_bound,
                    theorem_bound,
                } => {
                    p.level_bound = level_bound;
                    p.theorem_bound = theorem_bound;
                }
            }
        }
        p.level_growth = levels
            .into_iter()
            .enumerate()
            .map(|(level, (created, inventions))| LevelGrowth {
                level: level as u32,
                created,
                inventions,
            })
            .collect();
        p
    }

    /// Observed depth as a fraction of the theorem bound; `None` when no
    /// bound was recorded.
    pub fn depth_ratio(&self) -> Option<f64> {
        if self.theorem_bound == 0 {
            None
        } else {
            Some(f64::from(self.observed_depth) / self.theorem_bound as f64)
        }
    }

    /// Total rule firings across the histogram.
    pub fn total_firings(&self) -> u64 {
        self.rule_firings.iter().sum()
    }

    /// Total nanoseconds recorded for a span kind.
    pub fn span_total(&self, kind: SpanKind) -> u64 {
        self.span_nanos[kind.index()]
    }

    /// Merges another profile into this one (for aggregating a batch of
    /// runs in the bench harness). Rounds and level curves are summed
    /// pointwise; bounds keep the maximum seen.
    pub fn absorb(&mut self, other: &ChaseProfile) {
        for (a, b) in self.rule_firings.iter_mut().zip(other.rule_firings) {
            *a += b;
        }
        for lg in &other.level_growth {
            let idx = lg.level as usize;
            if self.level_growth.len() <= idx {
                for level in self.level_growth.len()..=idx {
                    self.level_growth.push(LevelGrowth {
                        level: level as u32,
                        created: 0,
                        inventions: 0,
                    });
                }
            }
            self.level_growth[idx].created += lg.created;
            self.level_growth[idx].inventions += lg.inventions;
        }
        self.observed_depth = self.observed_depth.max(other.observed_depth);
        self.theorem_bound = self.theorem_bound.max(other.theorem_bound);
        self.level_bound = self.level_bound.max(other.level_bound);
        self.egd_terms_merged += other.egd_terms_merged;
        self.egd_max_depth = self.egd_max_depth.max(other.egd_max_depth);
        self.nulls_invented += other.nulls_invented;
        self.hom_expansions += other.hom_expansions;
        self.hom_backtracks += other.hom_backtracks;
        self.hom_prunes += other.hom_prunes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.governor_stops += other.governor_stops;
        for (a, b) in self.span_nanos.iter_mut().zip(other.span_nanos) {
            *a = a.saturating_add(b);
        }
        for (a, b) in self.span_counts.iter_mut().zip(other.span_counts) {
            *a += b;
        }
        self.dropped += other.dropped;
    }
}

impl fmt::Display for ChaseProfile {
    /// The human-readable rendering `flq profile` prints: rule histogram
    /// (all twelve rows, so ρ4/ρ5 coverage is visible even at zero),
    /// level-growth table, phase timings, and the depth-vs-bound line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule firings (Σ_FL):")?;
        for (i, &count) in self.rule_firings.iter().enumerate() {
            let note = match i {
                3 => "  (EGD merge rounds)",
                4 => "  (value invention)",
                _ => "",
            };
            writeln!(f, "  rho{:<2} {:>8}{}", i + 1, count, note)?;
        }
        writeln!(f, "  total {:>8}", self.total_firings())?;

        writeln!(f, "level growth:")?;
        writeln!(f, "  {:>5} {:>10} {:>10}", "level", "created", "invented")?;
        for lg in &self.level_growth {
            writeln!(
                f,
                "  {:>5} {:>10} {:>10}",
                lg.level, lg.created, lg.inventions
            )?;
        }
        if !self.rounds.is_empty() {
            writeln!(f, "frontier rounds:")?;
            writeln!(
                f,
                "  {:>5} {:>9} {:>10} {:>10}",
                "round", "max_lvl", "frontier", "atoms"
            )?;
            for r in &self.rounds {
                writeln!(
                    f,
                    "  {:>5} {:>9} {:>10} {:>10}",
                    r.round, r.max_level, r.frontier, r.atoms
                )?;
            }
        }

        writeln!(f, "phase timing:")?;
        for kind in SpanKind::ALL {
            let i = kind.index();
            if self.span_counts[i] > 0 {
                writeln!(
                    f,
                    "  {:<13} {:>10.3} ms  ({} span{})",
                    kind.name(),
                    self.span_nanos[i] as f64 / 1e6,
                    self.span_counts[i],
                    if self.span_counts[i] == 1 { "" } else { "s" }
                )?;
            }
        }

        writeln!(
            f,
            "egd: {} merge rounds, {} terms merged, max union-find depth {}",
            self.rule_firings[3], self.egd_terms_merged, self.egd_max_depth
        )?;
        writeln!(f, "nulls invented (rho5): {}", self.nulls_invented)?;
        writeln!(
            f,
            "hom search: {} expansions, {} backtracks, {} prunes",
            self.hom_expansions, self.hom_backtracks, self.hom_prunes
        )?;
        writeln!(
            f,
            "cache: {} hits, {} misses",
            self.cache_hits, self.cache_misses
        )?;
        if self.governor_stops > 0 {
            writeln!(f, "governor stops: {}", self.governor_stops)?;
        }
        match self.depth_ratio() {
            Some(ratio) => writeln!(
                f,
                "observed depth {} / theorem bound {} = {:.3} (level bound {})",
                self.observed_depth, self.theorem_bound, ratio, self.level_bound
            )?,
            None => writeln!(
                f,
                "observed depth {} (no bound recorded)",
                self.observed_depth
            )?,
        }
        if self.dropped > 0 {
            writeln!(
                f,
                "warning: {} events dropped (ring overflow); counts undercount",
                self.dropped
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Recorded;

    fn rec(event: ChaseEvent) -> Recorded {
        Recorded { seq: 0, event }
    }

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            events: vec![
                rec(ChaseEvent::Bound {
                    level_bound: 6,
                    theorem_bound: 24,
                }),
                rec(ChaseEvent::SpanStart {
                    span: SpanKind::ChaseBounded,
                }),
                rec(ChaseEvent::Frontier {
                    round: 0,
                    max_level: 0,
                    frontier: 3,
                    atoms: 3,
                }),
                rec(ChaseEvent::RuleFired { rule: 0, level: 1 }),
                rec(ChaseEvent::RuleFired { rule: 4, level: 1 }),
                rec(ChaseEvent::NullInvented { null: 9, level: 1 }),
                rec(ChaseEvent::EgdMerge {
                    merged: 2,
                    depth: 3,
                }),
                rec(ChaseEvent::RuleFired { rule: 0, level: 2 }),
                rec(ChaseEvent::SpanEnd {
                    span: SpanKind::ChaseBounded,
                    nanos: 500,
                }),
                rec(ChaseEvent::HomExpand { depth: 0 }),
                rec(ChaseEvent::HomPrune { depth: 1 }),
                rec(ChaseEvent::HomBacktrack { depth: 0 }),
                rec(ChaseEvent::CacheLookup { hit: false }),
                rec(ChaseEvent::CacheLookup { hit: true }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn rollup_aggregates_every_event_kind() {
        let p = ChaseProfile::from_snapshot(&sample_snapshot());
        assert_eq!(p.rule_firings[0], 2, "rho1 fired twice");
        assert_eq!(p.rule_firings[3], 1, "rho4 slot counts EGD merge rounds");
        assert_eq!(p.rule_firings[4], 1, "rho5 fired once");
        assert_eq!(p.total_firings(), 4);
        assert_eq!(p.nulls_invented, 1);
        assert_eq!(p.egd_terms_merged, 2);
        assert_eq!(p.egd_max_depth, 3);
        assert_eq!(p.observed_depth, 2);
        assert_eq!(p.theorem_bound, 24);
        assert_eq!(p.level_bound, 6);
        assert_eq!(p.depth_ratio(), Some(2.0 / 24.0));
        assert_eq!(p.hom_expansions, 1);
        assert_eq!(p.hom_prunes, 1);
        assert_eq!(p.hom_backtracks, 1);
        assert_eq!(p.cache_hits, 1);
        assert_eq!(p.cache_misses, 1);
        assert_eq!(p.span_total(SpanKind::ChaseBounded), 500);
        assert_eq!(p.span_counts[SpanKind::ChaseBounded.index()], 1);
        assert_eq!(p.rounds.len(), 1);
        // Level curve: level 0 untouched, level 1 has 2 created + 1 invented,
        // level 2 has 1 created.
        assert_eq!(
            p.level_growth,
            vec![
                LevelGrowth {
                    level: 0,
                    created: 0,
                    inventions: 0
                },
                LevelGrowth {
                    level: 1,
                    created: 2,
                    inventions: 1
                },
                LevelGrowth {
                    level: 2,
                    created: 1,
                    inventions: 0
                },
            ]
        );
    }

    #[test]
    fn empty_snapshot_profiles_to_zeroes() {
        let p = ChaseProfile::from_snapshot(&TraceSnapshot::empty());
        assert_eq!(p.total_firings(), 0);
        assert_eq!(p.observed_depth, 0);
        assert_eq!(p.depth_ratio(), None);
        assert!(p.level_growth.is_empty());
        // Display must not panic on the empty profile.
        let _ = p.to_string();
    }

    #[test]
    fn absorb_sums_histograms_and_keeps_max_depth() {
        let mut a = ChaseProfile::from_snapshot(&sample_snapshot());
        let b = ChaseProfile::from_snapshot(&sample_snapshot());
        a.absorb(&b);
        assert_eq!(a.rule_firings[0], 4);
        assert_eq!(a.total_firings(), 8);
        assert_eq!(a.observed_depth, 2);
        assert_eq!(a.theorem_bound, 24);
        assert_eq!(a.nulls_invented, 2);
        assert_eq!(a.level_growth[1].created, 4);
        assert_eq!(a.span_total(SpanKind::ChaseBounded), 1000);
    }

    #[test]
    fn display_mentions_rho4_and_rho5_even_at_zero() {
        let text = ChaseProfile::from_snapshot(&TraceSnapshot::empty()).to_string();
        assert!(text.contains("rho4"), "rho4 row always printed:\n{text}");
        assert!(text.contains("rho5"), "rho5 row always printed:\n{text}");
        assert!(text.contains("rho12"), "all twelve rows printed:\n{text}");
    }
}

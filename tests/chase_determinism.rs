//! The chase is a deterministic, frontier-ordered process: two runs of the
//! same query in one process produce the same conjuncts, arcs, stats and
//! verdicts. Rule instances are discovered and applied in frontier order,
//! so the chase graph depends on the query and the options alone.
//!
//! Conjunct ids are assigned in insertion order and must agree across runs;
//! the only run-to-run difference is the *global* labelled-null counter, so
//! fingerprints rename nulls by first appearance before comparing.

use std::collections::HashMap;

use flogic_lite::chase::{chase_bounded, chase_minus_with, Chase, ChaseOptions};
use flogic_lite::core::{contains_with, ContainmentOptions, DecisionCache};
use flogic_lite::gen::rng::SplitMix64;
use flogic_lite::gen::{generalize, random_query, GeneralizeConfig, QueryGenConfig};
use flogic_lite::prelude::*;
use flogic_lite::term::Term;

/// Run-independent rendering of a chase: conjuncts (id, atom, level),
/// arcs (from, to, rule, cross) and summary stats, with labelled nulls
/// renamed to their first-appearance index.
fn fingerprint(chase: &Chase) -> Vec<String> {
    let mut null_names: HashMap<Term, usize> = HashMap::new();
    let mut rename = |t: Term| -> String {
        if let Term::Null(_) = t {
            let next = null_names.len();
            let idx = *null_names.entry(t).or_insert(next);
            format!("#null{idx}")
        } else {
            t.to_string()
        }
    };
    let mut out = Vec::new();
    for (id, atom, level) in chase.conjuncts() {
        let args: Vec<String> = atom.args().iter().map(|&t| rename(t)).collect();
        out.push(format!(
            "conjunct {}: {:?}({}) @{level}",
            id.index(),
            atom.pred(),
            args.join(", ")
        ));
    }
    for arc in chase.arcs() {
        out.push(format!(
            "arc {} -> {} [{:?}{}]",
            arc.from.index(),
            arc.to.index(),
            arc.rule,
            if arc.cross { ", cross" } else { "" }
        ));
    }
    let head: Vec<String> = chase.head().iter().map(|&t| rename(t)).collect();
    out.push(format!("head ({})", head.join(", ")));
    out.push(format!("outcome {:?}", chase.outcome()));
    out.push(format!("stats {:?}", chase.stats()));
    out
}

fn assert_identical_chases(label: &str, mut run: impl FnMut() -> Chase) {
    let first = fingerprint(&run());
    let second = fingerprint(&run());
    assert_eq!(first, second, "{label}: the second run diverged");
}

#[test]
fn example_1_chase_minus_is_run_to_run_identical() {
    // Example 1: rho12 + rho4 rewrite the head; chase⁻ terminates at level 0.
    let q = parse_query("q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C).")
        .unwrap();
    assert_identical_chases("example 1", || {
        chase_minus_with(&q, &ChaseOptions::default()).unwrap()
    });
}

#[test]
fn example_2_bounded_chase_is_run_to_run_identical() {
    // Example 2: the infinite chase (Figure 1), cut at level 9 as in E3.
    let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
    assert_identical_chases("example 2", || {
        chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 9,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap()
    });
}

#[test]
fn generated_chases_are_run_to_run_identical() {
    let cfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    for seed in 0..24u64 {
        let q = random_query(&cfg, &mut SplitMix64::seed_from_u64(seed));
        assert_identical_chases(&format!("seed {seed}"), || {
            chase_bounded(
                &q,
                &ChaseOptions {
                    level_bound: 4,
                    max_conjuncts: 50_000,
                    ..Default::default()
                },
            )
            .unwrap()
        });
    }
}

#[test]
fn truncated_chases_are_run_to_run_identical() {
    // Hitting the conjunct cap must also happen at the same point.
    let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
    assert_identical_chases("example 2 truncated", || {
        chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 40,
                max_conjuncts: 60,
                ..Default::default()
            },
        )
        .unwrap()
    });
}

#[test]
fn containment_verdicts_are_run_to_run_identical() {
    let cfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    let mut compared = 0usize;
    for seed in 0..20u64 {
        let q1 = random_query(&cfg, &mut SplitMix64::seed_from_u64(seed));
        let q2 = generalize(
            &q1,
            &GeneralizeConfig::default(),
            &mut SplitMix64::seed_from_u64(seed + 1000),
        );
        let decide = || {
            contains_with(
                &q1,
                &q2,
                &ContainmentOptions {
                    max_conjuncts: 50_000,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let base = decide();
        if base.is_exhausted() {
            continue; // resource-capped pair
        }
        compared += 1;
        let r = decide();
        assert_eq!(base.verdict(), r.verdict(), "seed {seed}");
        assert_eq!(base.is_vacuous(), r.is_vacuous());
        assert_eq!(base.chase_conjuncts(), r.chase_conjuncts());
        assert_eq!(base.max_chase_level(), r.max_chase_level());
    }
    assert!(compared >= 10, "workload mostly within the resource cap");
}

#[test]
fn generous_budget_verdicts_are_run_to_run_identical() {
    // A budget that is never hit must be invisible: the governed runs are
    // bit-identical to each other (its checks are pure reads at
    // deterministic points).
    use flogic_lite::chase::Budget;
    let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
    assert_identical_chases("example 2 under a generous budget", || {
        chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 9,
                max_conjuncts: 100_000,
                budget: Budget::with_timeout(std::time::Duration::from_secs(600))
                    .steps(u64::MAX)
                    .bytes(usize::MAX),
                ..Default::default()
            },
        )
        .unwrap()
    });
}

#[test]
fn step_capped_chases_are_run_to_run_identical() {
    // The step cap counts candidate rule instances in the deterministic
    // application order, so even an *exhausted* run stops at the same
    // point on every run.
    use flogic_lite::chase::Budget;
    let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
    assert_identical_chases("example 2 step-capped", || {
        chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 40,
                max_conjuncts: 100_000,
                budget: Budget::unlimited().steps(300),
                ..Default::default()
            },
        )
        .unwrap()
    });
}

#[test]
fn tracing_leaves_chases_bit_identical() {
    // Tracing only observes: with a tracer attached the chase graph,
    // head, outcome and stats are bit-identical to an untraced run — and
    // the tracer did record something.
    use flogic_lite::obs::{TraceHandle, Tracer};
    let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
    let run = |trace: TraceHandle| {
        chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 9,
                max_conjuncts: 100_000,
                trace,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let off = fingerprint(&run(TraceHandle::Disabled));
    let tracer = Tracer::with_default_capacity();
    let on = fingerprint(&run(TraceHandle::enabled(&tracer)));
    assert_eq!(off, on, "tracing changed the chase");
    let snap = tracer.snapshot();
    assert!(!snap.events.is_empty(), "tracer saw the traced run");
    assert_eq!(snap.dropped, 0, "default ring holds Example 2 easily");
}

#[test]
fn tracing_leaves_verdicts_bit_identical() {
    // Same for full containment decisions: verdict, vacuity, witness and
    // chase statistics are unchanged by an attached tracer.
    use flogic_lite::obs::{TraceHandle, Tracer};
    let cfg = QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..Default::default()
    };
    for seed in 0..8u64 {
        let q1 = random_query(&cfg, &mut SplitMix64::seed_from_u64(seed));
        let q2 = generalize(
            &q1,
            &GeneralizeConfig::default(),
            &mut SplitMix64::seed_from_u64(seed + 2000),
        );
        let decide = |trace: TraceHandle| {
            contains_with(
                &q1,
                &q2,
                &ContainmentOptions {
                    max_conjuncts: 50_000,
                    trace,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let off = decide(TraceHandle::Disabled);
        let tracer = Tracer::with_default_capacity();
        let on = decide(TraceHandle::enabled(&tracer));
        assert_eq!(
            off.verdict(),
            on.verdict(),
            "seed {seed}: tracing changed the verdict"
        );
        assert_eq!(off.is_vacuous(), on.is_vacuous());
        assert_eq!(off.witness(), on.witness());
        assert_eq!(off.chase_conjuncts(), on.chase_conjuncts());
        assert_eq!(off.max_chase_level(), on.max_chase_level());
        assert_eq!(off.level_bound(), on.level_bound());
    }
}

#[test]
fn renamed_apart_copy_hits_the_decision_cache() {
    // The paper's joinable-attributes pair, re-asked under fresh variable
    // names and a shuffled body: one cache entry answers both.
    let q1 = parse_query("q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].").unwrap();
    let q2 = parse_query("qq(A,B) :- T1[A*=>T2], T2[B*=>_].").unwrap();
    let cache = DecisionCache::new();
    let first = cache.contains(&q1, &q2).unwrap();
    assert!(first.holds());
    assert_eq!(cache.len(), 1);

    let renamed = q2.rename_apart(&q2);
    let second = cache.contains(&q1, &renamed).unwrap();
    assert!(second.holds());
    assert_eq!(cache.len(), 1, "renamed copy must not add an entry");
    // Hits are answered from the memo table: no fresh witness is computed.
    assert!(first.witness().is_some());
    assert!(second.witness().is_none());
}

//! Randomized property tests: the paper's lemmas and the library's
//! invariants, asserted over seeded workloads.
//!
//! Gated behind the off-by-default `fuzz` feature so the default test run
//! stays fast; run with `cargo test --features fuzz`. The randomness comes
//! from the vendored [`SplitMix64`] generator, so every case is
//! reproducible from the printed seed and no registry dependency (such as
//! `proptest`) is needed.

#![cfg(feature = "fuzz")]

use flogic_lite::chase::{
    chase_bounded, chase_minus, locality_violations, ChaseOptions, ChaseOutcome,
};
use flogic_lite::core::{classic_contains, contains, equivalent, minimize};
use flogic_lite::gen::rng::{Rng, SplitMix64};
use flogic_lite::gen::{generalize, random_query, GeneralizeConfig, QueryGenConfig};
use flogic_lite::hom::classic_core;
use flogic_lite::model::ConjunctiveQuery;
use flogic_lite::syntax::{parse_query, query_to_flogic};

const CASES: u64 = 64;

/// Samples a query-generator configuration (the strategy the old proptest
/// suite used, driven by the seeded PRNG instead).
fn arb_query_config(r: &mut SplitMix64) -> QueryGenConfig {
    let n_atoms = r.random_range(1..6);
    QueryGenConfig {
        n_atoms,
        n_vars: r.random_range(1..5),
        n_consts: r.random_range(0..3),
        const_prob: 0.3,
        head_arity: r.random_range(0..3),
        pred_weights: [3, 3, 2, 3, 2, 1],
        cycle: if r.random_bool(0.5) {
            Some(1 + n_atoms % 3)
        } else {
            None
        },
    }
}

fn arb_query(seed: u64) -> ConjunctiveQuery {
    let mut r = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0xA5A5);
    let cfg = arb_query_config(&mut r);
    random_query(&cfg, &mut r)
}

/// Smaller queries for the expensive properties.
fn arb_small_query(seed: u64) -> ConjunctiveQuery {
    let mut r = SplitMix64::seed_from_u64(seed.wrapping_mul(0x517C_C1B7) ^ 0x5A5A);
    let cfg = QueryGenConfig {
        n_atoms: r.random_range(1..4),
        n_vars: 3,
        n_consts: 2,
        ..Default::default()
    };
    random_query(&cfg, &mut r)
}

/// Containment is reflexive (Theorem 4: the identity homomorphism).
#[test]
fn containment_is_reflexive() {
    for seed in 0..CASES {
        let q = arb_small_query(seed);
        assert!(contains(&q, &q).unwrap().holds(), "seed {seed}: {q}");
    }
}

/// Classic containment implies containment under Σ_FL.
#[test]
fn classic_implies_sigma() {
    for seed in 0..CASES {
        let q1 = arb_small_query(seed);
        let q2 = arb_small_query(seed + 7_000);
        if q1.arity() == q2.arity() && classic_contains(&q1, &q2).unwrap() {
            assert!(
                contains(&q1, &q2).unwrap().holds(),
                "seed {seed}: {q1} vs {q2}"
            );
        }
    }
}

/// Generalization produces a container, and generalizing further
/// preserves containment (transitivity along the chain).
#[test]
fn generalization_chain_is_monotone() {
    let gcfg = GeneralizeConfig::default();
    for seed in 0..CASES {
        let q = arb_small_query(seed);
        let g1 = generalize(&q, &gcfg, &mut SplitMix64::seed_from_u64(seed + 100_000));
        let g2 = generalize(&g1, &gcfg, &mut SplitMix64::seed_from_u64(seed + 200_000));
        assert!(contains(&q, &g1).unwrap().holds(), "seed {seed}");
        assert!(contains(&g1, &g2).unwrap().holds(), "seed {seed}");
        assert!(
            contains(&q, &g2).unwrap().holds(),
            "transitivity failed: {q} vs {g2}"
        );
    }
}

/// Lemma 5 (locality) holds on the chase graph of arbitrary queries,
/// including ones with injected mandatory cycles.
#[test]
fn locality_lemma_holds() {
    for seed in 0..CASES {
        let q = arb_query(seed);
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 8,
                max_conjuncts: 60_000,
                ..Default::default()
            },
        )
        .unwrap();
        if !chase.is_failed() && !chase.is_exhausted() {
            let violations = locality_violations(&chase);
            assert!(
                violations.is_empty(),
                "locality violated on {q}: {violations:?}"
            );
        }
    }
}

/// chase⁻ always terminates with every conjunct at level 0 and never
/// invents values (ρ5 is excluded).
#[test]
fn chase_minus_is_level_zero_and_null_free() {
    for seed in 0..CASES {
        let q = arb_query(seed);
        let chase = chase_minus(&q);
        if !chase.is_failed() {
            assert_eq!(chase.outcome(), ChaseOutcome::Completed, "seed {seed}");
            for (_, atom, level) in chase.conjuncts() {
                assert_eq!(level, 0, "seed {seed}");
                assert!(atom.args().iter().all(|t| !t.is_null()), "seed {seed}");
            }
            assert_eq!(chase.stats().nulls_invented, 0, "seed {seed}");
        }
    }
}

/// The chase contains the (merge-rewritten) body of the chased query.
#[test]
fn chase_contains_query_body() {
    for seed in 0..CASES {
        let q = arb_query(seed);
        let chase = chase_minus(&q);
        if !chase.is_failed() {
            let merge = chase.merge_map();
            for atom in q.body() {
                let image = atom.apply(merge);
                assert!(
                    chase.find(&image).is_some(),
                    "body atom {atom} (image {image}) missing from chase of {q}"
                );
            }
        }
    }
}

/// The bounded chase respects its level bound.
#[test]
fn bounded_chase_respects_bound() {
    for seed in 0..CASES {
        let q = arb_query(seed);
        let bound = (seed % 6) as u32;
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: bound,
                max_conjuncts: 60_000,
                ..Default::default()
            },
        )
        .unwrap();
        if !chase.is_exhausted() {
            assert!(chase.max_level() <= bound, "seed {seed}: {q}");
        }
    }
}

/// Σ_FL-minimisation preserves Σ_FL-equivalence and never grows.
#[test]
fn minimize_preserves_equivalence() {
    for seed in 0..CASES {
        let q = arb_small_query(seed);
        let m = minimize(&q).unwrap();
        assert!(m.size() <= q.size(), "seed {seed}");
        assert!(
            equivalent(&m, &q).unwrap(),
            "minimize broke equivalence: {q} vs {m}"
        );
    }
}

/// The classic core preserves classic equivalence in both directions.
#[test]
fn classic_core_preserves_classic_equivalence() {
    for seed in 0..CASES {
        let q = arb_small_query(seed);
        let c = classic_core(&q);
        assert!(c.size() <= q.size(), "seed {seed}");
        assert!(classic_contains(&q, &c).unwrap(), "seed {seed}: {q} vs {c}");
        assert!(classic_contains(&c, &q).unwrap(), "seed {seed}: {c} vs {q}");
    }
}

/// Display → parse round trip: predicate notation is lossless.
#[test]
fn predicate_notation_round_trips() {
    for seed in 0..CASES {
        let q = arb_query(seed);
        let text = q.to_string();
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(q.head(), reparsed.head(), "seed {seed}: {text}");
        assert_eq!(q.body(), reparsed.body(), "seed {seed}: {text}");
    }
}

/// F-logic rendering re-parses to a Σ_FL-equivalent query.
#[test]
fn flogic_rendering_is_equivalent() {
    for seed in 0..CASES {
        let q = arb_small_query(seed);
        let text = query_to_flogic(&q);
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(q.arity(), reparsed.arity(), "seed {seed}");
        assert!(
            equivalent(&q, &reparsed).unwrap(),
            "F-logic round trip broke equivalence:\n  {q}\n  {text}\n  {reparsed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Never-panic loops for the byte decoders that face untrusted input: the
// HTTP request parser, the JSON request bodies, and the persisted-decision
// codec. Each loop mutates valid seed inputs and requires every call to
// return; the persist loop also requires a decoded value to round-trip.
// ---------------------------------------------------------------------------

const DECODER_CASES: u64 = 20_000;

/// Byte strings spliced into mutated inputs: framing and syntax tokens the
/// decoders branch on, plus oversized numbers and broken escapes.
const TOKENS: &[&[u8]] = &[
    b"\r\n",
    b"\r\n\r\n",
    b": ",
    b"content-length: ",
    b"18446744073709551616",
    b"-1",
    b"connection: close",
    b"transfer-encoding: chunked",
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud800",
    b"\\uDFFF",
    b",",
    b":",
    b"null",
    b"1e999",
    b"\xff\xfe",
    b"\xe2\x82",
    b"\0",
];

/// Applies one to four random edits to `seed`: byte flips, insertions,
/// deletions, truncation, token splices and slice duplication.
fn mutate(seed: &[u8], r: &mut SplitMix64) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..r.random_range(1..5) {
        let at = r.random_range(0..out.len() + 1);
        match r.random_range(0..6) {
            0 if at < out.len() => out[at] ^= 1 << r.random_range(0..8),
            1 => out.insert(at, r.next_u64() as u8),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            4 => {
                let token = TOKENS[r.random_range(0..TOKENS.len())];
                out.splice(at..at, token.iter().copied());
            }
            _ => {
                let end = r.random_range(at..out.len() + 1);
                let copy = out[at..end].to_vec();
                out.splice(end..end, copy);
            }
        }
    }
    out
}

/// `parse_request` never panics, and a complete parse consumes a
/// non-empty prefix of the buffer.
#[test]
fn http_request_parser_never_panics() {
    use flogic_lite::serve::http::{parse_request, Parse};
    let body = br#"{"q1":"q(X) :- sub(X, Y).","q2":"p(X) :- sub(X, Z)."}"#;
    let post = [
        b"POST /v1/contains HTTP/1.1\r\nhost: t\r\ncontent-length: ".as_slice(),
        body.len().to_string().as_bytes(),
        b"\r\n\r\n",
        body,
    ]
    .concat();
    let seeds: [&[u8]; 4] = [
        b"GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n",
        b"GET /v1/status HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
        &post,
        b"GET /metrics HTTP/1.1\r\n\r\nPOST /v1/contains HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi",
    ];
    let mut r = SplitMix64::seed_from_u64(0x4854_5450);
    for case in 0..DECODER_CASES {
        let input = mutate(seeds[r.random_range(0..seeds.len())], &mut r);
        if let Parse::Complete { consumed, .. } = parse_request(&input, 1 << 10) {
            assert!(
                consumed > 0 && consumed <= input.len(),
                "case {case}: consumed {consumed} of {input:?}"
            );
        }
    }
}

/// `parse_contains` / `parse_batch` (and the JSON parser under them)
/// never panic on mutated request bodies.
#[test]
fn json_request_bodies_never_panic() {
    use flogic_lite::serve::api::{parse_batch, parse_contains};
    let seeds: [&[u8]; 4] = [
        br#"{"q1":"q(X, Z) :- sub(X, Y), sub(Y, Z).","q2":"p(X, Z) :- sub(X, Z)."}"#,
        br#"{"q1":"q() :- member(a, b).","q2":"p() :- sub(a, b).","timeout_ms":50,"max_conjuncts":1000,"analysis":false}"#,
        br#"{"pairs":[["q(X) :- sub(X, Y).","p(X) :- sub(X, Z)."],["q() :- member(a, b).","p() :- member(a, b)."]]}"#,
        br#"{"pairs":[],"timeout_ms":0,"analysis":true}"#,
    ];
    let mut r = SplitMix64::seed_from_u64(0x4A53_4F4E);
    for _ in 0..DECODER_CASES {
        let input = mutate(seeds[r.random_range(0..seeds.len())], &mut r);
        let _ = parse_contains(&input);
        let _ = parse_batch(&input);
    }
}

/// `decode_decision` never panics; whatever it accepts re-encodes to
/// bytes that decode to the same decision, so a corrupt entry can only
/// read as a miss or as a value the encoder itself would write.
#[test]
fn persisted_decisions_never_panic_and_round_trip() {
    use flogic_lite::chase::ChaseOutcome;
    use flogic_lite::core::{
        contains_with, decode_decision, encode_decision, ContainmentOptions, ContainmentResult,
    };
    let fields = |d: &ContainmentResult| {
        (
            d.verdict(),
            d.is_vacuous(),
            d.witness().is_none(),
            d.chase_conjuncts(),
            d.chase_outcome(),
            d.level_bound(),
            d.max_chase_level(),
            d.decided_by_analysis(),
        )
    };
    let no_analysis = ContainmentOptions {
        analysis: false,
        ..ContainmentOptions::default()
    };
    let seeds: Vec<Vec<u8>> = [
        ("q(X, Z) :- sub(X, Y), sub(Y, Z).", "p(X, Z) :- sub(X, Z)."),
        ("p(X, Z) :- sub(X, Z).", "q(X, Z) :- sub(X, Y), sub(Y, Z)."),
        (
            "q() :- data(o, a, 1), data(o, a, 2), funct(a, o).",
            "p() :- sub(X, Y).",
        ),
        (
            "q() :- mandatory(A, T), type(T, A, T), sub(T, U).",
            "qq() :- data(T, A, V), member(V, T).",
        ),
    ]
    .iter()
    .map(|(q1, q2)| {
        let r = contains_with(
            &parse_query(q1).unwrap(),
            &parse_query(q2).unwrap(),
            &no_analysis,
        )
        .unwrap();
        encode_decision(&r).expect("decided results encode")
    })
    .collect();
    assert!(
        seeds.iter().any(|s| matches!(
            decode_decision(s).map(|d| d.chase_outcome()),
            Some(ChaseOutcome::Failed { .. })
        )),
        "the seeds cover the clash-term encoding"
    );
    let mut r = SplitMix64::seed_from_u64(0x5045_5253);
    let mut accepted = 0u64;
    for case in 0..DECODER_CASES {
        let input = mutate(&seeds[r.random_range(0..seeds.len())], &mut r);
        let Some(decoded) = decode_decision(&input) else {
            continue;
        };
        accepted += 1;
        let bytes = encode_decision(&decoded)
            .unwrap_or_else(|| panic!("case {case}: decoded {input:?} does not re-encode"));
        let again = decode_decision(&bytes)
            .unwrap_or_else(|| panic!("case {case}: re-encoding of {input:?} does not decode"));
        assert_eq!(fields(&again), fields(&decoded), "case {case}: {input:?}");
    }
    assert!(accepted > 0, "some mutations stay decodable");
}

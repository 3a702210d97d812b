//! Seeded workload generation and local verdict computation.
//!
//! Every workload is a set of distinct `(q1, q2)` pairs plus request
//! streams that index into it. Inputs depend only on the workload and
//! the seed; flqd receives nothing but the generated texts. Each pair's
//! expected verdict is computed here with `contains_with` under the same
//! options flqd uses at default flags, before flqd starts.

use std::collections::HashSet;

use flogic_chase::{chase_bounded, ChaseOptions};
use flogic_core::{canonical_query, contains_with, theorem_bound, ContainmentOptions, QueryKey};
use flogic_gen::rng::{Rng, SplitMix64};
use flogic_gen::{
    generalize, generalize_from_chase, mutate_variant, random_query, GeneralizeConfig,
    QueryGenConfig,
};
use flogic_model::{Atom, ConjunctiveQuery};
use flogic_term::{Symbol, Term};

/// The four named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
    Restart,
    Pipelined,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "warm" => Some(Kind::Warm),
            "cold" => Some(Kind::Cold),
            "restart" => Some(Kind::Restart),
            "pipelined" => Some(Kind::Pipelined),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Cold => "cold",
            Kind::Restart => "restart",
            Kind::Pipelined => "pipelined",
        }
    }
}

/// A decided verdict; generation rejects pairs that would exhaust.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Holds,
    NotHolds,
}

impl Verdict {
    pub fn wire(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::NotHolds => "not_holds",
        }
    }
}

/// One containment question as sent on the wire: each query in its
/// `Display` form, which is the surface syntax flqd parses.
#[derive(Clone, Debug)]
pub struct Pair {
    pub q1: String,
    pub q2: String,
    pub expect: Verdict,
    /// True for the mandatory/type pump family.
    pub pump: bool,
}

/// One request: a single pair, or a batch of pairs sharing one `q1`.
#[derive(Clone, Debug)]
pub enum Req {
    Contains(usize),
    Batch(Vec<usize>),
}

/// A fully generated workload.
pub struct Workload {
    pub kind: Kind,
    /// Descriptive name carrying seed and sizes.
    pub label: String,
    pub pairs: Vec<Pair>,
    /// Sent during set-up, unmeasured (warm-up, or the pre-restart load).
    pub setup: Vec<Req>,
    /// The measured stream, one per client connection.
    pub streams: Vec<Vec<Req>>,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// True when a measured round runs for a fixed time (the stream is
    /// long enough never to run out); false when it ends with the stream.
    pub timed: bool,
}

/// Share of `warm` requests that are byte-identical repeats; the rest
/// are fresh respellings.
const WARM_REPEAT_SHARE: f64 = 0.9;
/// Share of `pipelined` requests that are 8-pair batches.
const PIPELINED_BATCH_SHARE: f64 = 0.1;
/// Pairs per batch request.
const BATCH_PAIRS: usize = 8;
/// Length of one measured round of a timed workload.
pub const TIMED_ROUND_SECONDS: f64 = 0.5;
/// Highest request rate a timed stream is sized for; a faster program
/// ends the round early when its stream runs out.
const MAX_RATE_PER_S: usize = 40_000;
/// Generation rejects pairs whose chase exceeds this many conjuncts, so
/// that no E4 pair comes near flqd's `max_conjuncts` budget.
const MAX_E4_CONJUNCTS: usize = 5_000;

/// The pump ladder: `(label, cycle length, probe depth)`. The label is
/// the conjunct count of the bounded chase of the rung's pair on the seed
/// commit. Rungs grow the cycle rather than the probe: flqd canonicalizes
/// every query, and canonicalizing a probe chain costs time exponential
/// in its depth (about 0.1 s at 12 steps, 24 s at 16).
pub const PUMP_RUNGS: [(usize, usize, usize); 4] =
    [(57, 2, 2), (393, 4, 4), (1261, 6, 6), (3381, 10, 6)];

/// Mixes seed, stream and index into an RNG seed.
fn rng_for(seed: u64, stream: u64, i: u64) -> SplitMix64 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i);
    SplitMix64::seed_from_u64(x)
}

fn e4_query_config() -> QueryGenConfig {
    QueryGenConfig {
        n_atoms: 4,
        n_vars: 4,
        n_consts: 2,
        ..QueryGenConfig::default()
    }
}

/// The options flqd decides with at default flags.
pub fn decide_options() -> ContainmentOptions {
    ContainmentOptions::default()
}

/// Decides a pair locally; `None` when the verdict is not decided or the
/// chase is larger than generation allows.
fn decide(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, max_conjuncts: usize) -> Option<Verdict> {
    let opts = ContainmentOptions {
        max_conjuncts,
        ..decide_options()
    };
    let r = contains_with(q1, q2, &opts).ok()?;
    if r.is_exhausted() {
        return None;
    }
    Some(if r.holds() {
        Verdict::Holds
    } else {
        Verdict::NotHolds
    })
}

/// A candidate pair whose verdict still has to be computed.
type Pending = (ConjunctiveQuery, ConjunctiveQuery);

/// Computes every pending verdict on two threads, in order. Pairs that
/// do not decide within `cap` conjuncts come back `None`.
fn decide_all(pending: &[Pending], cap: usize) -> Vec<Option<Verdict>> {
    let mut out = vec![None; pending.len()];
    let mid = pending.len() / 2;
    let (left, right) = out.split_at_mut(mid);
    std::thread::scope(|s| {
        let run = |chunk: &[Pending], slots: &mut [Option<Verdict>]| {
            for ((q1, q2), slot) in chunk.iter().zip(slots) {
                *slot = decide(q1, q2, cap);
            }
        };
        let h = s.spawn(move || run(&pending[..mid], left));
        run(&pending[mid..], right);
        h.join().expect("verification thread panicked");
    });
    out
}

/// Draws E4-generator groups: a random 4-atom `q1` (distinct under
/// semantic keys from every `q1` drawn before) and `n_q2` semantically
/// distinct `q2`s, each a body generalization, a chase generalization or
/// an unrelated random query of the same arity, in equal shares.
struct E4Source {
    seed: u64,
    stream: u64,
    next: u64,
    seen: HashSet<QueryKey>,
}

impl E4Source {
    fn new(seed: u64, stream: u64) -> E4Source {
        E4Source {
            seed,
            stream,
            next: 0,
            seen: HashSet::new(),
        }
    }

    /// The next `q1` with the `q2`s it is asked with, ordered so that each
    /// ask needs a chase no deeper than the one before (so later asks find
    /// the first ask's snapshot resident).
    fn group(&mut self, n_q2: usize) -> (ConjunctiveQuery, Vec<ConjunctiveQuery>) {
        let qcfg = e4_query_config();
        let gcfg = GeneralizeConfig::default();
        loop {
            let i = self.next;
            self.next += 1;
            let mut rng = rng_for(self.seed, self.stream, i);
            let q1 = random_query(&qcfg, &mut rng);
            let key = QueryKey::of(&q1);
            if self.seen.contains(&key) {
                continue;
            }
            let mut q2s: Vec<ConjunctiveQuery> = Vec::new();
            let mut keys: Vec<QueryKey> = Vec::new();
            for _ in 0..n_q2 * 8 {
                if q2s.len() == n_q2 {
                    break;
                }
                let q2 = match rng.random_range(0..3) {
                    0 => generalize(&q1, &gcfg, &mut rng),
                    1 => match generalize_from_chase(&q1, &gcfg, &mut rng) {
                        Some(q) => q,
                        None => continue,
                    },
                    _ => random_query(&qcfg, &mut rng),
                };
                if q2.arity() != q1.arity() {
                    continue;
                }
                let k = QueryKey::of(&q2);
                if keys.contains(&k) {
                    continue;
                }
                keys.push(k);
                q2s.push(q2);
            }
            if q2s.len() < n_q2 {
                continue;
            }
            // Deeper bound first: flqd bounds the chase by the canonical
            // sizes, and a resident snapshot serves any shallower bound.
            let c1 = canonical_query(&q1);
            let mut bounds: Vec<(u32, ConjunctiveQuery)> = q2s
                .into_iter()
                .map(|q2| (theorem_bound(&c1, &canonical_query(&q2)), q2))
                .collect();
            bounds.sort_by_key(|(b, _)| std::cmp::Reverse(*b));
            // flqd chases q1 to that bound even when the analysis fast
            // path decides the pair, so the chase itself must stay small.
            let chase = chase_bounded(
                &c1,
                &ChaseOptions {
                    level_bound: bounds[0].0,
                    max_conjuncts: MAX_E4_CONJUNCTS,
                    ..ChaseOptions::default()
                },
            );
            if !chase.is_ok_and(|c| !c.is_exhausted()) {
                continue;
            }
            self.seen.insert(key);
            let q2s = bounds.into_iter().map(|(_, q2)| q2).collect();
            return (q1, q2s);
        }
    }
}

/// Collects candidate pairs, verifies them, and keeps the decided ones.
struct PairSet {
    pairs: Vec<Pair>,
}

impl PairSet {
    fn new() -> PairSet {
        PairSet { pairs: Vec::new() }
    }

    /// Verifies `groups` and appends the pairs of every group whose pairs
    /// all decide; returns, per kept group, the indices of its pairs.
    fn add_groups(
        &mut self,
        groups: Vec<(ConjunctiveQuery, Vec<ConjunctiveQuery>)>,
        cap: usize,
        pump: bool,
    ) -> Vec<Vec<usize>> {
        let pending: Vec<Pending> = groups
            .iter()
            .flat_map(|(q1, q2s)| q2s.iter().map(|q2| (q1.clone(), q2.clone())))
            .collect();
        let verdicts = decide_all(&pending, cap);
        let mut out = Vec::new();
        let mut at = 0;
        for (q1, q2s) in &groups {
            let vs = &verdicts[at..at + q2s.len()];
            at += q2s.len();
            if vs.iter().any(Option::is_none) {
                continue;
            }
            let t1 = q1.to_string();
            let mut idx = Vec::new();
            for (q2, v) in q2s.iter().zip(vs) {
                idx.push(self.pairs.len());
                self.pairs.push(Pair {
                    q1: t1.clone(),
                    q2: q2.to_string(),
                    expect: v.expect("checked above"),
                    pump,
                });
            }
            out.push(idx);
        }
        out
    }

    /// `n` E4 groups of `n_q2` pairs each, all decided.
    fn e4_groups(&mut self, src: &mut E4Source, n: usize, n_q2: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        while out.len() < n {
            let want = n - out.len();
            let groups = (0..want).map(|_| src.group(n_q2)).collect();
            out.extend(self.add_groups(groups, MAX_E4_CONJUNCTS, false));
        }
        out
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
}

/// The Section 4 pump query: a mandatory/type cycle of length `k` over
/// constants carrying `tag`, so every instance is semantically new while
/// its chase has the same shape.
pub fn pump_query(tag: &str, k: usize) -> ConjunctiveQuery {
    let class = |i: usize| Term::constant(&format!("{tag}_t{}", i % k));
    let attr = |i: usize| Term::constant(&format!("{tag}_a{i}"));
    let mut body = vec![Atom::member(Term::var("V0"), Term::var("V0"))];
    for i in 0..k {
        body.push(Atom::mandatory(attr(i), class(i)));
        body.push(Atom::typ(class(i), attr(i), class(i + 1)));
    }
    ConjunctiveQuery::new(Symbol::intern("q"), vec![], body).expect("pump query is valid")
}

/// A probe of `d` pump steps into [`pump_query`]`(tag, k)`'s chase.
pub fn pump_probe(tag: &str, k: usize, d: usize) -> ConjunctiveQuery {
    let v = |i: usize| Term::var(&format!("P{i}"));
    let attr = |i: usize| Term::constant(&format!("{tag}_a{}", i % k));
    let mut body = vec![Atom::data(
        Term::constant(&format!("{tag}_t0")),
        attr(0),
        v(1),
    )];
    for i in 1..d {
        body.push(Atom::data(v(i), attr(i), v(i + 1)));
    }
    ConjunctiveQuery::new(Symbol::intern("probe"), vec![], body).expect("probe is valid")
}

/// Generates workload `kind` for `seed`.
pub fn generate(kind: Kind, seed: u64) -> Workload {
    match kind {
        Kind::Warm => warm(seed),
        Kind::Cold => cold(seed),
        Kind::Restart => restart(seed),
        Kind::Pipelined => pipelined(seed),
    }
}

/// `warm`: 128 `q1`s × 2 `q2`s, all decided in the warm-up; the measured
/// stream is 90% byte-identical repeats and 10% fresh `mutate_variant`
/// respellings of a random base pair.
fn warm(seed: u64) -> Workload {
    let mut b = PairSet::new();
    let mut src = E4Source::new(seed, 1);
    let groups = b.e4_groups(&mut src, 128, 2);
    let base: Vec<usize> = groups.iter().flatten().copied().collect();
    let setup: Vec<Req> = base.iter().map(|&i| Req::Contains(i)).collect();

    let len = (MAX_RATE_PER_S as f64 * TIMED_ROUND_SECONDS) as usize;
    let mut rng = rng_for(seed, 2, 0);
    let mut plan: Vec<Option<usize>> = Vec::with_capacity(len);
    let mut n_variants = 0;
    for _ in 0..len {
        let pick = base[rng.random_range(0..base.len())];
        if rng.random_bool(WARM_REPEAT_SHARE) {
            plan.push(Some(pick));
        } else {
            plan.push(None);
            n_variants += 1;
        }
    }
    // Fresh respellings: never byte-identical to anything sent before.
    let mut seen: HashSet<(String, String)> = b
        .pairs
        .iter()
        .map(|p| (p.q1.clone(), p.q2.clone()))
        .collect();
    let parsed: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = base
        .iter()
        .map(|&i| {
            let p = &b.pairs[i];
            (
                flogic_syntax::parse_query(&p.q1).expect("generated text parses"),
                flogic_syntax::parse_query(&p.q2).expect("generated text parses"),
            )
        })
        .collect();
    let mut pending = Vec::with_capacity(n_variants);
    let mut vrng = rng_for(seed, 3, 0);
    while pending.len() < n_variants {
        let (q1, q2) = &parsed[vrng.random_range(0..parsed.len())];
        let (v1, v2) = match vrng.random_range(0..3) {
            0 => (mutate_variant(q1, &mut vrng), q2.clone()),
            1 => (q1.clone(), mutate_variant(q2, &mut vrng)),
            _ => (mutate_variant(q1, &mut vrng), mutate_variant(q2, &mut vrng)),
        };
        if seen.insert((v1.to_string(), v2.to_string())) {
            pending.push((v1, v2));
        }
    }
    let verdicts = decide_all(&pending, decide_options().max_conjuncts);
    let first_variant = b.pairs.len();
    for ((q1, q2), v) in pending.iter().zip(verdicts) {
        b.pairs.push(Pair {
            q1: q1.to_string(),
            q2: q2.to_string(),
            expect: v.expect("respellings decide like their base pair"),
            pump: false,
        });
    }
    let mut next_variant = first_variant;
    let stream = plan
        .into_iter()
        .map(|slot| match slot {
            Some(i) => Req::Contains(i),
            None => {
                next_variant += 1;
                Req::Contains(next_variant - 1)
            }
        })
        .collect();
    Workload {
        kind: Kind::Warm,
        label: format!(
            "warm_s={seed}_n={}_rep={WARM_REPEAT_SHARE}_conns=1_inflight=1",
            base.len()
        ),
        pairs: b.pairs,
        setup,
        streams: vec![stream],
        window: 1,
        timed: true,
    }
}

/// `cold`: 480 new E4 `q1`s asked with three `q2`s each (deepest bound
/// first, so two thirds of these decisions find the chase resident: a
/// 50/50 mix would put p50 between the build and the hit mode) and 61
/// pump instances asked with two probes each, shuffled; every pair is new.
fn cold(seed: u64) -> Workload {
    let mut b = PairSet::new();
    let mut src = E4Source::new(seed, 4);
    let e4 = b.e4_groups(&mut src, 480, 3);
    // Pump instances per rung (each instance is two requests).
    let per_rung = [18, 18, 24, 1];
    let mut pump_groups = Vec::new();
    for (r, &(_, k, d)) in PUMP_RUNGS.iter().enumerate() {
        for j in 0..per_rung[r] {
            let tag = format!("s{seed}r{r}j{j}");
            let q1 = pump_query(&tag, k);
            let q2s = vec![pump_probe(&tag, k, d), pump_probe(&tag, k, d.div_ceil(2))];
            pump_groups.push((q1, q2s));
        }
    }
    let pumps = b.add_groups(pump_groups, decide_options().max_conjuncts, true);
    assert_eq!(
        pumps.len(),
        per_rung.iter().sum::<usize>(),
        "every pump pair decides"
    );
    let mut groups: Vec<Vec<usize>> = e4.into_iter().chain(pumps).collect();
    let mut rng = rng_for(seed, 5, 0);
    shuffle(&mut groups, &mut rng);
    // Blocks of 8 groups: all first asks, then all second asks, and so
    // on, so the later asks of a q1 come a few requests after its first.
    let mut stream = Vec::new();
    for block in groups.chunks(8) {
        for ask in 0..3 {
            stream.extend(
                block
                    .iter()
                    .filter_map(|g| g.get(ask))
                    .map(|&i| Req::Contains(i)),
            );
        }
    }
    Workload {
        kind: Kind::Cold,
        label: format!(
            "cold_s={seed}_n={}_pump={}_conns=1_inflight=1",
            stream.len(),
            2 * per_rung.iter().sum::<usize>()
        ),
        pairs: b.pairs,
        setup: Vec::new(),
        streams: vec![stream],
        window: 1,
        timed: false,
    }
}

/// `restart`: set-up decides 800 `q1`s × 4 `q2`s against a fresh data
/// dir and restarts; the measured stream asks each of them once more (a
/// disk hit each) mixed with 400 new `q1`s × 2 (20% new, written through).
fn restart(seed: u64) -> Workload {
    let mut b = PairSet::new();
    let mut src = E4Source::new(seed, 6);
    let old = b.e4_groups(&mut src, 800, 4);
    let new = b.e4_groups(&mut src, 400, 2);
    let setup: Vec<Req> = old.iter().flatten().map(|&i| Req::Contains(i)).collect();
    let mut rng = rng_for(seed, 7, 0);
    let mut old_reqs: Vec<usize> = old.iter().flatten().copied().collect();
    shuffle(&mut old_reqs, &mut rng);
    let mut new_groups = new;
    shuffle(&mut new_groups, &mut rng);
    // Interleave: every fifth request is new; a new q1's second ask
    // follows its first a few requests later.
    let mut stream = Vec::new();
    let mut old_it = old_reqs.into_iter();
    for block in new_groups.chunks(4) {
        for ask in 0..2 {
            for g in block {
                stream.push(Req::Contains(g[ask]));
                stream.extend(old_it.by_ref().take(4).map(Req::Contains));
            }
        }
    }
    stream.extend(old_it.map(Req::Contains));
    Workload {
        kind: Kind::Restart,
        label: format!(
            "restart_s={seed}_n={}_stored={}_new=0.2_conns=1_inflight=1",
            stream.len(),
            setup.len()
        ),
        pairs: b.pairs,
        setup,
        streams: vec![stream],
        window: 1,
        timed: false,
    }
}

/// `pipelined`: 128 single pairs and 32 batch groups of 8 pairs sharing
/// one `q1`, all decided in the warm-up; two connections each keep 8
/// requests in flight over repeats, 10% of them batches.
fn pipelined(seed: u64) -> Workload {
    let mut b = PairSet::new();
    let mut src = E4Source::new(seed, 8);
    let singles: Vec<usize> = b.e4_groups(&mut src, 64, 2).into_iter().flatten().collect();
    let batches = b.e4_groups(&mut src, 32, BATCH_PAIRS);
    let mut setup: Vec<Req> = singles.iter().map(|&i| Req::Contains(i)).collect();
    setup.extend(batches.iter().map(|g| Req::Batch(g.clone())));
    let len = (MAX_RATE_PER_S as f64 * TIMED_ROUND_SECONDS) as usize;
    let streams = (0..2u64)
        .map(|conn| {
            let mut rng = rng_for(seed, 9, conn);
            (0..len)
                .map(|_| {
                    if rng.random_bool(PIPELINED_BATCH_SHARE) {
                        Req::Batch(batches[rng.random_range(0..batches.len())].clone())
                    } else {
                        Req::Contains(singles[rng.random_range(0..singles.len())])
                    }
                })
                .collect()
        })
        .collect();
    Workload {
        kind: Kind::Pipelined,
        label: format!(
            "pipelined_s={seed}_n={}_batches={}x{BATCH_PAIRS}_batch_share={PIPELINED_BATCH_SHARE}_conns=2_inflight=8",
            singles.len(),
            batches.len()
        ),
        pairs: b.pairs,
        setup,
        streams,
        window: 8,
        timed: true,
    }
}

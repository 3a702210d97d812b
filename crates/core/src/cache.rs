//! Containment-decision caching keyed by canonical query pairs.
//!
//! Deciding `q1 ⊆_ΣFL q2` is expensive (a bounded chase plus a
//! backtracking homomorphism search), while real workloads — query
//! minimisation, union checks, many users asking about syntactic variants
//! of the same schema queries — keep asking *semantically identical*
//! questions. Each query therefore gets **one canonical representative**,
//! [`canonical_query`]: the classic core ([`flogic_hom::classic_core`])
//! under a deterministic total variable/atom ordering. Renamed variables,
//! permuted conjuncts and redundant (core-foldable) atoms all map to the
//! same representative, because classically equivalent queries answer
//! every Σ-containment question alike (equivalent queries have identical
//! answers on every database, hence on every model of Σ).
//!
//! The total ordering replaces an earlier greedy pass whose tie-breaking
//! fell back to input order, so isomorphic queries could get distinct
//! representatives. The pass backtracks over tied choices and emits the
//! lexicographically least complete encoding; for any two isomorphic
//! queries within the (deterministic) search budget the encodings are
//! equal, so equal representatives always mean equivalent queries, and
//! equivalent queries get equal representatives unless a pathologically
//! symmetric body exhausts [`CANON_NODE_BUDGET`], in which case the pass
//! degrades to the greedy choice and the only cost is a possible extra
//! recomputation, never a wrong answer.
//!
//! `canonical_query` is the only code that runs that search. Every key
//! is a linear read of a query **as written** ([`QueryKey::as_written`]:
//! variables numbered by first occurrence, atoms in written order), so
//! spellings are unified once, upstream, and no cache re-runs the search.
//! [`DecisionCache`] keys a pair by its representatives when
//! [`canonical_pair`] applies — [`ContainmentOptions::canon`] on and the
//! run exact — and keys the pair as written otherwise. With canon off
//! (`flqd --no-canon`, or a caller that already substituted the
//! representatives), renamed spellings still share an entry; permuted and
//! redundant-atom spellings do not. Truncated runs (an explicit level
//! bound *below* the Theorem 12 bound) always key as written with their
//! effective bound — their verdicts answer a bound-dependent question
//! about the literal query, not its core, and must never be replayed
//! across bounds.
//!
//! Cache hits/misses and canonicalization passes are reported to the
//! process-global [`flogic_term::Metrics`], which `flq --metrics` and the
//! benchmark harness print and flqd exposes as
//! `flqd_canon_{keys,reduced,nanoseconds}_total`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use flogic_chase::ChaseOutcome;
use flogic_hom::classic_core;
use flogic_model::{Atom, ConjunctiveQuery, Pred};
use flogic_term::{Metrics, Symbol, Term};

use crate::decide::{
    contains_batch, contains_with, derived_bound, ContainmentOptions, ContainmentResult, Verdict,
};
use crate::CoreError;

/// A term of a [`QueryKey`]: variables are replaced by their
/// first-occurrence index, everything else is kept verbatim.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum CanonTerm {
    /// A rigid constant, by name.
    Const(Symbol),
    /// A labelled null (cannot appear in well-formed queries, but the
    /// key is total anyway), by id.
    Null(u64),
    /// A variable, by first-occurrence index.
    Var(u32),
}

/// Ordering key for an atom *under a partial variable numbering*:
/// constants sort by name, numbered variables by their number, and
/// not-yet-numbered variables by their first-occurrence pattern within
/// the atom (so `sub(U, U)` and `sub(U, V)` stay distinguishable).
/// Derived `Ord` puts `Const < Null < Var < Fresh`, which mirrors how the
/// terms compare once the fresh variables are numbered: freshly numbered
/// variables always receive indices above every already-numbered one, so
/// minimising `atom_key`s is the same as minimising emitted encodings.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum KeyTerm {
    Const(&'static str),
    Null(u64),
    Var(u32),
    Fresh(u32),
}

/// An atom encoded under a *complete* numbering (no `Fresh` inside):
/// one entry of the canonical encoding the search minimises.
type EncodedAtom = (usize, Vec<KeyTerm>);

fn atom_key(atom: &Atom, numbering: &HashMap<Symbol, u32>) -> EncodedAtom {
    let mut local: HashMap<Symbol, u32> = HashMap::new();
    let args = atom
        .args()
        .iter()
        .map(|t| match t {
            Term::Const(s) => KeyTerm::Const(s.as_str()),
            Term::Null(n) => KeyTerm::Null(n.0),
            Term::Var(v) => match numbering.get(v) {
                Some(&n) => KeyTerm::Var(n),
                None => {
                    let next = local.len() as u32;
                    KeyTerm::Fresh(*local.entry(*v).or_insert(next))
                }
            },
        })
        .collect();
    (atom.pred().index(), args)
}

/// Numbers an atom's variables into `numbering` (extending it with fresh
/// indices in argument order) and returns the fully-numbered encoding.
fn number_atom(atom: &Atom, numbering: &mut HashMap<Symbol, u32>) -> EncodedAtom {
    let args = atom
        .args()
        .iter()
        .map(|t| match t {
            Term::Const(s) => KeyTerm::Const(s.as_str()),
            Term::Null(n) => KeyTerm::Null(n.0),
            Term::Var(v) => KeyTerm::Var(number(*v, numbering)),
        })
        .collect();
    (atom.pred().index(), args)
}

/// `v`'s first-occurrence index in `numbering`, assigning the next free
/// one on first sight.
fn number(v: Symbol, numbering: &mut HashMap<Symbol, u32>) -> u32 {
    let next = numbering.len() as u32;
    *numbering.entry(v).or_insert(next)
}

/// Cap on the number of *extra* branches (beyond the greedy first choice)
/// the tie-backtracking search may explore per query. Real queries hit a
/// handful of ties at most; the cap only bites on pathologically
/// symmetric bodies, where the pass deterministically degrades to the
/// greedy choice for the branches it cannot afford — costing at worst a
/// cache miss, never a wrong hit.
const CANON_NODE_BUDGET: usize = 512;

/// Backtracking search for the lexicographically least body encoding.
///
/// Each round computes every remaining atom's [`atom_key`] **once**
/// (the earlier greedy pass rebuilt both sides' keys inside every
/// `min_by` comparison — O(n³) key builds on wide bodies; this is O(n²)
/// plus whatever tie branches the budget admits). Because `atom_key`
/// ordering agrees with emitted-encoding ordering (see [`KeyTerm`]), the
/// minimal-key atoms are exactly the candidates for the least encoding's
/// next entry, so restricting branching to them loses nothing.
struct CanonSearch<'a> {
    atoms: &'a [Atom],
    budget: usize,
}

impl CanonSearch<'_> {
    /// The emission order (indices into `self.atoms`) of the least
    /// encoding reachable within budget, starting from `numbering`.
    fn emission_order(mut self, numbering: &HashMap<Symbol, u32>) -> Vec<usize> {
        let remaining: Vec<usize> = (0..self.atoms.len()).collect();
        self.search(&remaining, numbering).1
    }

    fn search(
        &mut self,
        remaining: &[usize],
        numbering: &HashMap<Symbol, u32>,
    ) -> (Vec<EncodedAtom>, Vec<usize>) {
        if remaining.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let keys: Vec<EncodedAtom> = remaining
            .iter()
            .map(|&i| atom_key(&self.atoms[i], numbering))
            .collect();
        let min = keys.iter().min().expect("remaining is non-empty");
        // Tied positions, deduplicated: literally identical atoms lead to
        // identical states, so exploring one of them suffices.
        let mut tied: Vec<usize> = Vec::new();
        for (pos, key) in keys.iter().enumerate() {
            if key == min
                && !tied
                    .iter()
                    .any(|&p| self.atoms[remaining[p]] == self.atoms[remaining[pos]])
            {
                tied.push(pos);
            }
        }
        let take = tied.len().min(self.budget + 1);
        self.budget -= take - 1;
        let mut best: Option<(Vec<EncodedAtom>, Vec<usize>)> = None;
        for &pos in &tied[..take] {
            let idx = remaining[pos];
            let mut extended = numbering.clone();
            let entry = number_atom(&self.atoms[idx], &mut extended);
            let rest: Vec<usize> = remaining.iter().copied().filter(|&j| j != idx).collect();
            let (tail, order) = self.search(&rest, &extended);
            let mut enc = Vec::with_capacity(tail.len() + 1);
            enc.push(entry);
            enc.extend(tail);
            let better = match &best {
                None => true,
                Some((b, _)) => enc < *b,
            };
            if better {
                let mut ord = Vec::with_capacity(order.len() + 1);
                ord.push(idx);
                ord.extend(order);
                best = Some((enc, ord));
            }
        }
        best.expect("at least one branch explored")
    }
}

/// The semantic canonical representative of `q` as a real query: the
/// classic core with canonical variable names (`C0`, `C1`, … in canonical
/// numbering order) and body atoms in canonical emission order. The query
/// name is preserved (containment ignores it).
///
/// The head is numbered first, in head order (the one part of a query
/// whose order is semantically fixed); the body atoms follow in the order
/// the ordering search finds, each extending the numbering with its fresh
/// variables. So the representative, read as written, *is* the canonical
/// encoding: `QueryKey::of(q) == QueryKey::as_written(&canonical_query(q))`.
///
/// Every query in an equivalence class maps to the *same* representative
/// (up to the search budget, see the module docs), so deciding on the
/// representative instead of the original makes *everything* downstream —
/// decision-cache keys, chase-snapshot keys, derived level bounds —
/// agree across syntactic variants. This is how `flqd` unifies variant
/// traffic: it substitutes the representatives up front and runs the
/// whole decision stack on them.
///
/// The pass is recorded on the process-global [`Metrics`]
/// (exposed by flqd as `flqd_canon_keys_total`,
/// `flqd_canon_reduced_total` and `flqd_canon_nanoseconds_total`).
///
/// ```
/// use flogic_core::canonical_query;
/// use flogic_syntax::parse_query;
/// let a = parse_query("q(X) :- member(X, C), sub(C, D).").unwrap();
/// // Renamed, reordered, and with a redundant (core-foldable) copy.
/// let b = parse_query("q(U) :- sub(K, L), member(U, K), member(U, M), sub(M, N).").unwrap();
/// assert_eq!(canonical_query(&a), canonical_query(&b));
/// ```
pub fn canonical_query(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let start = Instant::now();
    let core = classic_core(q);
    let reduced = core.size() < q.size();
    let mut numbering: HashMap<Symbol, u32> = HashMap::new();
    for t in core.head() {
        if let Term::Var(v) = t {
            number(*v, &mut numbering);
        }
    }
    let order = CanonSearch {
        atoms: core.body(),
        budget: CANON_NODE_BUDGET,
    }
    .emission_order(&numbering);
    let mut rename = |t: &Term| match t {
        Term::Var(v) => Term::var(&format!("C{}", number(*v, &mut numbering))),
        other => *other,
    };
    let head: Vec<Term> = core.head().iter().map(&mut rename).collect();
    let body: Vec<Atom> = order
        .iter()
        .map(|&i| {
            let a = &core.body()[i];
            let args: Vec<Term> = a.args().iter().map(&mut rename).collect();
            Atom::new(a.pred(), &args).expect("renaming preserves arity")
        })
        .collect();
    let out = ConjunctiveQuery::new(core.name(), head, body)
        .expect("canonical renaming preserves well-formedness");
    Metrics::global().record_canon(start.elapsed(), reduced);
    out
}

/// Whether substituting canonical representatives is sound for the run
/// `opts` describes: [`ContainmentOptions::canon`] must be on and the run
/// must be *exact* (no explicit level bound below the bound derived from
/// the original sizes). Truncated runs answer a bound-dependent question
/// about the literal queries, so their inputs must be left alone. A pair
/// whose head arities differ is an error, not a question, so it is left
/// alone too (the error then names the original queries).
///
/// This is the one statement of that rule: [`canonical_pair`], the
/// [`DecisionCache`] key and `flqd`'s request path all ask it.
pub fn canon_applies(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> bool {
    opts.canon
        && q1.arity() == q2.arity()
        && !opts
            .level_bound
            .is_some_and(|b| b < derived_bound(opts, q1.size(), q2.size()))
}

/// The canonical representatives of a pair, when [`canon_applies`] says
/// substituting them is sound; `None` otherwise.
///
/// On `Some((c1, c2))`, deciding `c1 ⊆ c2` under the bound derived from
/// the *core* sizes gives the same verdict as the original pair under its
/// own derived bound: classically equivalent queries have identical
/// answers on every model of Σ, and Theorem 12 applied to the core pair
/// is complete for that question.
pub fn canonical_pair(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    canon_applies(q1, q2, opts).then(|| (canonical_query(q1), canonical_query(q2)))
}

/// An opaque, hashable key for a single query.
///
/// [`QueryKey::as_written`] reads the query as written, in one linear
/// pass: equal keys mean identical up to variable renaming. A permuted or
/// padded spelling gets a different key. [`QueryKey::of`] is the
/// *semantic* key, the as-written key of the [`canonical_query`]
/// representative: equal keys mean classically equivalent queries, which
/// answer every `Σ`-containment question alike.
///
/// This is the per-query half of the [`DecisionCache`] key, exported so
/// resident services can key *their own* caches with the same discipline
/// (the `flqd` snapshot cache keys chase snapshots as written, because
/// the server substitutes [`canonical_query`] representatives up front).
///
/// ```
/// use flogic_core::{canonical_query, QueryKey};
/// use flogic_syntax::parse_query;
/// let a = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let b = parse_query("p(A, C) :- sub(B, C), sub(A, B).").unwrap();
/// assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
/// // A redundant atom folds into the core, so the semantic keys agree …
/// let c = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z), sub(X, W), sub(W, Z).").unwrap();
/// assert_eq!(QueryKey::of(&a), QueryKey::of(&c));
/// // … while as written, only a renaming shares a key.
/// let r = parse_query("r(U, W) :- sub(U, V), sub(V, W).").unwrap();
/// assert_eq!(QueryKey::as_written(&a), QueryKey::as_written(&r));
/// assert_ne!(QueryKey::as_written(&a), QueryKey::as_written(&b));
/// assert_ne!(QueryKey::as_written(&a), QueryKey::as_written(&c));
/// assert_eq!(QueryKey::of(&b), QueryKey::as_written(&canonical_query(&b)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryKey {
    pub(crate) head: Vec<CanonTerm>,
    pub(crate) body: Vec<(Pred, Vec<CanonTerm>)>,
}

impl QueryKey {
    /// The semantic key of `q`: the as-written key of its
    /// [`canonical_query`] representative. Invariant under renaming, body
    /// permutation, and redundant-atom insertion. Records the pass on
    /// the global canon metrics (`flqd_canon_*_total`).
    pub fn of(q: &ConjunctiveQuery) -> QueryKey {
        QueryKey::as_written(&canonical_query(q))
    }

    /// The key of `q` as written: variables numbered by first occurrence
    /// (head first, then the body in written order), atoms in written
    /// order. Linear in the query's size; runs no search and no core.
    pub fn as_written(q: &ConjunctiveQuery) -> QueryKey {
        let mut numbering: HashMap<Symbol, u32> = HashMap::new();
        let mut key_term = |t: &Term| match t {
            Term::Const(s) => CanonTerm::Const(*s),
            Term::Null(n) => CanonTerm::Null(n.0),
            Term::Var(v) => CanonTerm::Var(number(*v, &mut numbering)),
        };
        let head = q.head().iter().map(&mut key_term).collect();
        let body = q
            .body()
            .iter()
            .map(|a| (a.pred(), a.args().iter().map(&mut key_term).collect()))
            .collect();
        QueryKey { head, body }
    }
}

/// Cache key: a pair of query keys plus a level bound, the analysis
/// toggle and the rule-set fingerprint.
///
/// Every key reads its pair as written under the *effective* bound
/// `min(requested, derived)`; what it reads depends on [`canon_applies`]:
///
/// * **Canonical** (canon on, exact run): the [`canonical_query`]
///   representatives, whose effective bound is the one derived from the
///   **core** sizes — so every variant with the same cores lands on one
///   key even though the variants' own sizes (hence their own Theorem 12
///   bounds) differ. The canon-on key of a pair is therefore the canon-off
///   key of its representatives, which is what `flqd` (it substitutes the
///   representatives itself) files its decisions under.
/// * **As written** (canon off, or an explicit bound below the derived
///   one): the literal queries. An explicit bound below the derived one
///   makes the procedure sound but incomplete, so its verdicts answer a
///   *different question* and must never be replayed for an exact call.
///   Clamping at the derived bound also makes all *sufficient* bounds
///   share one entry.
///
/// Equal keys mean renamings of one written pair under one bound, so
/// entries cannot collide wrongly.
///
/// The analysis toggle is in the key because the fast path, while
/// verdict-identical, reports different run metadata
/// (`decided_by_analysis`, zero chase conjuncts) — replaying one mode's
/// entry for the other would misreport how the decision was made.
///
/// `max_conjuncts` and the budget are deliberately *not* in the key: they
/// never change a decided verdict (exhausted results are never cached, so
/// a tight budget cannot poison later generous calls).
///
/// The active rule set *is* in the key, by its canonical (renaming- and
/// name-invariant) fingerprint: verdicts under different Σ are answers to
/// different questions. A structurally-`Σ_FL` custom set shares the
/// built-in set's fingerprint, so it also shares its cache entries —
/// consistent with it sharing the built-in code paths everywhere else.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CacheKey {
    pub(crate) q1: QueryKey,
    pub(crate) q2: QueryKey,
    pub(crate) bound: u32,
    pub(crate) analysis: bool,
    pub(crate) sigma: u64,
}

impl CacheKey {
    /// Keys `(q1, q2)` as written, under the effective bound
    /// `min(requested, derived)`. For the representatives of a pair
    /// [`canon_applies`] to, that is their own core-derived bound: derived
    /// bounds never shrink as bodies grow, a core is no larger than its
    /// query, and the gate admits no explicit bound below the query's.
    fn new(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, opts: &ContainmentOptions) -> CacheKey {
        let derived = derived_bound(opts, q1.size(), q2.size());
        CacheKey {
            q1: QueryKey::as_written(q1),
            q2: QueryKey::as_written(q2),
            bound: opts.level_bound.map_or(derived, |b| b.min(derived)),
            analysis: opts.analysis,
            sigma: opts.sigma.fingerprint(),
        }
    }
}

/// The cache key a [`DecisionCache`] lookup uses for `(q1, q2)` under
/// `opts` — exposed crate-internally so the persistence codec
/// ([`crate::decision_key_bytes`]) serializes *exactly* the key the
/// in-RAM tier hashes, shapes and all.
pub(crate) fn pair_cache_key(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> CacheKey {
    match canonical_pair(q1, q2, opts) {
        Some((c1, c2)) => CacheKey::new(&c1, &c2, opts),
        None => CacheKey::new(q1, q2, opts),
    }
}

/// A cached verdict: everything in a [`ContainmentResult`] except the
/// witnessing homomorphism, which is expressed in the original queries'
/// variables and does not survive canonical renaming.
#[derive(Clone, Debug)]
struct CachedDecision {
    verdict: Verdict,
    vacuous: bool,
    chase_conjuncts: usize,
    chase_outcome: ChaseOutcome,
    level_bound: u32,
    max_chase_level: u32,
    decided_by_analysis: bool,
}

impl CachedDecision {
    fn strip(r: &ContainmentResult) -> CachedDecision {
        CachedDecision {
            verdict: r.verdict,
            vacuous: r.vacuous,
            chase_conjuncts: r.chase_conjuncts,
            chase_outcome: r.chase_outcome,
            level_bound: r.level_bound,
            max_chase_level: r.max_chase_level,
            decided_by_analysis: r.decided_by_analysis,
        }
    }

    fn restore(&self) -> ContainmentResult {
        ContainmentResult {
            verdict: self.verdict,
            vacuous: self.vacuous,
            witness: None,
            chase_conjuncts: self.chase_conjuncts,
            chase_outcome: self.chase_outcome,
            level_bound: self.level_bound,
            max_chase_level: self.max_chase_level,
            decided_by_analysis: self.decided_by_analysis,
        }
    }
}

/// A memo table for containment decisions (see the module docs).
///
/// Thread-safe (a mutex around a hash map — lookups are far cheaper than
/// the decisions they save, so contention is not a concern). Cached
/// results carry no [`ContainmentResult::witness`]; ask the uncached
/// [`crate::contains_with`] when the homomorphism itself is needed. A
/// miss is always computed on the *original* pair, so the first caller
/// does get its witness in its own variable names.
///
/// ```
/// use flogic_core::DecisionCache;
/// use flogic_syntax::parse_query;
/// let cache = DecisionCache::new();
/// let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
/// let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
/// assert!(cache.contains(&q1, &q2).unwrap().holds());
/// // A renamed-apart copy of the same pair is answered from the cache.
/// let q1r = parse_query("q(A, C) :- sub(B, C), sub(A, B).").unwrap();
/// assert!(cache.contains(&q1r, &q2).unwrap().holds());
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DecisionCache {
    inner: Mutex<HashMap<CacheKey, CachedDecision>>,
}

impl DecisionCache {
    /// Creates an empty cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("decision cache poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached decision.
    pub fn clear(&self) {
        self.inner.lock().expect("decision cache poisoned").clear();
    }

    fn lookup(&self, key: &CacheKey) -> Option<CachedDecision> {
        let hit = self
            .inner
            .lock()
            .expect("decision cache poisoned")
            .get(key)
            .cloned();
        match hit {
            Some(d) => {
                Metrics::global().record_cache_hit();
                Some(d)
            }
            None => {
                Metrics::global().record_cache_miss();
                None
            }
        }
    }

    fn store(&self, key: CacheKey, result: &ContainmentResult) {
        // An exhausted verdict is a statement about the budget that
        // happened to govern this run, not about the pair; caching it
        // would replay "undecided" for callers with generous budgets.
        if result.is_exhausted() {
            return;
        }
        self.inner
            .lock()
            .expect("decision cache poisoned")
            .insert(key, CachedDecision::strip(result));
    }

    /// [`crate::contains`] through the cache.
    pub fn contains(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with(q1, q2, &ContainmentOptions::default())
    }

    /// [`crate::contains_with`] through the cache. Errors (arity mismatch,
    /// resource exhaustion) are never cached.
    pub fn contains_with(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
    ) -> Result<ContainmentResult, CoreError> {
        self.contains_with_compute(q1, q2, opts, || contains_with(q1, q2, opts))
    }

    /// Like [`contains_with`](DecisionCache::contains_with), but a miss is
    /// filled by `compute` instead of a fresh [`crate::contains_with`].
    ///
    /// This is the seam that lets a resident service stack its own reuse
    /// layer *under* the memo table: the `flqd` server passes a closure
    /// that decides through its byte-capped
    /// [`ChaseSnapshot`](crate::ChaseSnapshot) cache, so a canonical-pair
    /// hit skips everything and a miss still skips the chase when the
    /// snapshot is warm.
    ///
    /// `compute` must answer exactly the question `(q1, q2, opts)` poses —
    /// same verdict as [`crate::contains_with`] — or the table gets
    /// poisoned for every later caller. The usual store rules apply:
    /// errors and exhausted verdicts are never cached.
    pub fn contains_with_compute(
        &self,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        opts: &ContainmentOptions,
        compute: impl FnOnce() -> Result<ContainmentResult, CoreError>,
    ) -> Result<ContainmentResult, CoreError> {
        let key = pair_cache_key(q1, q2, opts);
        let hit = self.lookup(&key);
        let was_hit = hit.is_some();
        opts.trace
            .emit(|| flogic_obs::ChaseEvent::CacheLookup { hit: was_hit });
        if let Some(hit) = hit {
            return Ok(hit.restore());
        }
        let result = compute()?;
        self.store(key, &result);
        Ok(result)
    }

    /// [`crate::contains_batch`] through the cache: pairs already decided
    /// (up to semantic equivalence) are answered from the memo table,
    /// within-batch repeats of the same canonical pair are decided once
    /// and fanned out, and the single shared chase of `q1` is built only
    /// when at least one pair misses. `q1`'s canonical representative is
    /// computed once for the whole batch.
    pub fn contains_batch(
        &self,
        q1: &ConjunctiveQuery,
        q2s: &[ConjunctiveQuery],
        opts: &ContainmentOptions,
    ) -> Vec<Result<ContainmentResult, CoreError>> {
        // Per-pair bound, even though the shared chase is built to the
        // batch maximum: a verdict computed at a bound ≥ the pair's own
        // effective bound answers exactly the per-pair question
        // (Theorem 12 completeness). `q1`'s representative is computed
        // at most once for the whole batch.
        let mut c1: Option<ConjunctiveQuery> = None;
        let keys: Vec<CacheKey> = q2s
            .iter()
            .map(|q2| {
                if canon_applies(q1, q2, opts) {
                    let c1 = c1.get_or_insert_with(|| canonical_query(q1));
                    CacheKey::new(c1, &canonical_query(q2), opts)
                } else {
                    CacheKey::new(q1, q2, opts)
                }
            })
            .collect();

        // One representative slot per canonical pair that misses the memo
        // table; later occurrences of the same key are served from the
        // representative's computation and count as hits.
        let mut rep: HashMap<&CacheKey, usize> = HashMap::new();
        let mut dup_of: Vec<Option<usize>> = vec![None; q2s.len()];
        let mut out: Vec<Option<Result<ContainmentResult, CoreError>>> =
            Vec::with_capacity(q2s.len());
        for (i, key) in keys.iter().enumerate() {
            let was_hit;
            if let Some(&r) = rep.get(key) {
                Metrics::global().record_cache_hit();
                dup_of[i] = Some(r);
                out.push(None);
                was_hit = true;
            } else if let Some(d) = self.lookup(key) {
                out.push(Some(Ok(d.restore())));
                was_hit = true;
            } else {
                rep.insert(key, i);
                out.push(None);
                was_hit = false;
            }
            opts.trace
                .emit(|| flogic_obs::ChaseEvent::CacheLookup { hit: was_hit });
        }

        let missed: Vec<usize> = (0..q2s.len())
            .filter(|&i| out[i].is_none() && dup_of[i].is_none())
            .collect();
        if !missed.is_empty() {
            let missed_qs: Vec<ConjunctiveQuery> = missed.iter().map(|&i| q2s[i].clone()).collect();
            let computed = contains_batch(q1, &missed_qs, opts);
            for (&i, result) in missed.iter().zip(computed) {
                if let Ok(r) = &result {
                    self.store(keys[i].clone(), r);
                }
                out[i] = Some(result);
            }
        }
        for i in 0..q2s.len() {
            if let Some(r) = dup_of[i] {
                // The representative's witness is keyed by *its* q2's
                // variables, not this occurrence's; strip it like any
                // other cache hit.
                out[i] = Some(match out[r].as_ref().expect("representative filled") {
                    Ok(res) => Ok(CachedDecision::strip(res).restore()),
                    Err(e) => Err(e.clone()),
                });
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::theorem_bound;
    use flogic_syntax::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn canonical_form_ignores_variable_names_and_atom_order() {
        let a = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let b = q("p(A, C) :- sub(B, C), sub(A, B).");
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
    }

    #[test]
    fn canonical_form_distinguishes_different_shapes() {
        let a = q("q(X) :- member(X, c1).");
        let b = q("q(X) :- member(X, c2).");
        assert_ne!(QueryKey::of(&a), QueryKey::of(&b));
        let c = q("q(X) :- member(X, Y).");
        assert_ne!(QueryKey::of(&a), QueryKey::of(&c));
    }

    #[test]
    fn canonical_form_respects_variable_sharing() {
        // sub(X, X) is not sub(X, Y): the numbering tells them apart.
        let a = q("q() :- sub(X, X).");
        let b = q("q() :- sub(X, Y).");
        assert_ne!(QueryKey::of(&a), QueryKey::of(&b));
    }

    #[test]
    fn symmetric_ties_are_resolved_canonically() {
        // Before any variable is numbered, both body atoms key as
        // (sub, [fresh0, fresh1]) — a symmetric tie. The old greedy pass
        // fell back to input order here, so these two renamings of the
        // same path query got distinct keys; the backtracking search
        // picks the least complete encoding for both.
        let a = q("q() :- sub(X, Y), sub(Y, Z).");
        let b = q("q() :- sub(B, C), sub(A, B).");
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
        // Deeper tie: two interleaved chains, emitted from whichever end
        // minimises the encoding regardless of input order.
        let c = q("r() :- sub(X, Y), sub(Y, Z), member(M, Y).");
        let d = q("r() :- sub(V2, V3), member(V4, V2), sub(V1, V2).");
        assert_eq!(QueryKey::of(&c), QueryKey::of(&d));
    }

    #[test]
    fn canonical_query_unifies_variants() {
        let a = q("q(X) :- member(X, C), sub(C, D).");
        let b = q("p(U) :- sub(K2, L2), member(U, K2), member(U, K1), sub(K1, L1).");
        let ca = canonical_query(&a);
        let cb = canonical_query(&b);
        assert_eq!(ca.head(), cb.head());
        assert_eq!(ca.body(), cb.body());
        assert_eq!(ca.size(), 2, "redundant pair folded into the core");
    }

    #[test]
    fn semantic_keys_fold_redundant_atoms() {
        let a = q("q(X) :- member(X, C), sub(C, D).");
        let b = q("p(U) :- member(U, C1), sub(C1, D1), member(U, C2), sub(C2, D2).");
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
        assert_ne!(QueryKey::as_written(&a), QueryKey::as_written(&b));
    }

    #[test]
    fn renamed_pair_hits_the_cache() {
        let cache = DecisionCache::new();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        let before = Metrics::global().snapshot();
        let first = cache.contains(&q1, &q2).unwrap();
        assert!(first.holds());
        assert_eq!(cache.len(), 1);

        // Rename everything apart and shuffle the body: still one entry.
        let q1r = q("qq(U, W) :- sub(V, W), sub(U, V).");
        let q2r = q("pp(A, B) :- sub(A, B).");
        let second = cache.contains(&q1r, &q2r).unwrap();
        assert!(second.holds());
        assert!(second.witness().is_none(), "cache hits carry no witness");
        assert_eq!(cache.len(), 1);
        let delta = Metrics::global().snapshot().since(&before);
        assert!(delta.cache_hits >= 1);
        assert!(delta.cache_misses >= 1);
        assert!(delta.canon_keys >= 4, "semantic keys record canon passes");
    }

    #[test]
    fn core_equivalent_pair_hits_the_cache() {
        let cache = DecisionCache::new();
        let q1 = q("q(X) :- member(X, C), sub(C, D).");
        let q2 = q("r(O) :- member(O, C).");
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        assert_eq!(cache.len(), 1);
        // A variant with a redundant copy of the member/sub pair reduces
        // to the same core, so it must be answered from the cache.
        let q1v = q("qq(U) :- member(U, K1), sub(K1, L1), member(U, K2), sub(K2, L2).");
        let before = Metrics::global().snapshot();
        assert!(cache.contains(&q1v, &q2).unwrap().holds());
        let delta = Metrics::global().snapshot().since(&before);
        assert!(delta.cache_hits >= 1);
        assert_eq!(cache.len(), 1, "one semantic class, one entry");
    }

    #[test]
    fn canon_off_keys_as_written() {
        let cache = DecisionCache::new();
        let off = ContainmentOptions {
            canon: false,
            ..Default::default()
        };
        let q1 = q("q(X) :- member(X, C), sub(C, D).");
        let q1v = q("qq(U) :- member(U, K1), sub(K1, L1), member(U, K2), sub(K2, L2).");
        let q2 = q("r(O) :- member(O, C).");
        assert!(cache.contains_with(&q1, &q2, &off).unwrap().holds());
        assert!(cache.contains_with(&q1v, &q2, &off).unwrap().holds());
        assert_eq!(cache.len(), 2, "canon off: variants key separately");
        // A renaming of the written query still hits …
        let q1r = q("z(A) :- member(A, B), sub(B, C).");
        assert!(cache.contains_with(&q1r, &q2, &off).unwrap().holds());
        assert_eq!(cache.len(), 2);
        // … a permutation does not: spellings are unified upstream, by
        // `canonical_query`, never by the cache.
        let q1p = q("z(A) :- sub(B, C), member(A, B).");
        assert!(cache.contains_with(&q1p, &q2, &off).unwrap().holds());
        assert_eq!(cache.len(), 3);
        // Representatives keyed as written share one entry, and it is the
        // entry a canon-on lookup of any spelling lands on.
        let canonical = DecisionCache::new();
        for spelling in [&q1, &q1v, &q1r, &q1p] {
            let c1 = canonical_query(spelling);
            let c2 = canonical_query(&q2);
            assert!(canonical.contains_with(&c1, &c2, &off).unwrap().holds());
        }
        assert_eq!(canonical.len(), 1);
        let before = Metrics::global().snapshot();
        assert!(canonical.contains(&q1p, &q2).unwrap().holds());
        assert!(Metrics::global().snapshot().since(&before).cache_hits >= 1);
        assert_eq!(canonical.len(), 1);
    }

    #[test]
    fn different_bounds_are_different_questions() {
        let cache = DecisionCache::new();
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let tight = ContainmentOptions {
            level_bound: Some(0),
            ..Default::default()
        };
        assert!(!cache.contains_with(&q1, &q2, &tight).unwrap().holds());
        // The exact (Theorem 12) bound is a separate entry, not a stale hit.
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounds_at_or_above_theorem_share_one_entry() {
        let cache = DecisionCache::new();
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- sub(X, Z).");
        assert!(cache.contains(&q1, &q2).unwrap().holds());
        // Any explicit bound ≥ the theorem bound asks the same exact
        // question as the default and must hit the same entry.
        let generous = ContainmentOptions {
            level_bound: Some(theorem_bound(&q1, &q2) + 100),
            ..Default::default()
        };
        let before = Metrics::global().snapshot();
        assert!(cache.contains_with(&q1, &q2, &generous).unwrap().holds());
        let delta = Metrics::global().snapshot().since(&before);
        assert!(delta.cache_hits >= 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn analysis_toggle_is_part_of_the_key() {
        let cache = DecisionCache::new();
        // Decided by the analyzer when analysis is on, by the chase when
        // off: a cross-toggle hit would misreport how the run was decided.
        let q1 = q("q(X, Z) :- sub(X, Y), sub(Y, Z).");
        let q2 = q("p(X, Z) :- member(X, Z).");
        let on = cache.contains(&q1, &q2).unwrap();
        assert!(on.decided_by_analysis());
        let off = cache
            .contains_with(
                &q1,
                &q2,
                &ContainmentOptions {
                    analysis: false,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!off.decided_by_analysis(), "stale cross-toggle hit");
        assert_eq!(on.holds(), off.holds());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exhausted_verdicts_are_never_cached() {
        let cache = DecisionCache::new();
        let q1 = q("q() :- mandatory(A, T), type(T, A, T).");
        let q2 = q("qq() :- data(T, A, V), member(V, T).");
        let tight = ContainmentOptions {
            max_conjuncts: 5,
            analysis: false,
            ..Default::default()
        };
        let r = cache.contains_with(&q1, &q2, &tight).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(cache.len(), 0, "undecided runs must not occupy the table");
        // The budget is not part of the key, so a generous rerun lands on
        // the *same* key — and must recompute, decide, and cache.
        let generous = ContainmentOptions {
            analysis: false,
            ..Default::default()
        };
        assert!(cache.contains_with(&q1, &q2, &generous).unwrap().holds());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn batch_mixes_hits_misses_and_errors() {
        let cache = DecisionCache::new();
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let contained = q("qq(O, D) :- member(O, D).");
        // Pre-seed one pair.
        assert!(cache.contains(&q1, &contained).unwrap().holds());

        let batch = vec![
            q("a(O, D) :- member(O, D)."), // renamed copy: hit
            q("b(O, D) :- sub(O, D)."),    // distinct pair: miss
            q("c(X) :- member(X, Y)."),    // arity mismatch: error
        ];
        let results = cache.contains_batch(&q1, &batch, &ContainmentOptions::default());
        assert!(results[0].as_ref().unwrap().holds());
        assert!(
            !results[1].as_ref().unwrap().holds(),
            "sub(O,D) is not implied"
        );
        assert!(matches!(results[2], Err(CoreError::ArityMismatch { .. })));
        // Hit + two computed entries (errors are not cached).
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn batch_dedupes_within_batch_repeats() {
        let cache = DecisionCache::new();
        let q1 = q("q(O, D) :- member(O, C), sub(C, D).");
        let a = q("a(O, D) :- member(O, D).");
        let renamed = a.rename_apart(&a);
        let results = cache.contains_batch(&q1, &[a, renamed], &ContainmentOptions::default());
        assert!(results[0].as_ref().unwrap().holds());
        assert!(results[1].as_ref().unwrap().holds());
        // The repeat is served from the representative's computation; like
        // any hit it carries no witness (the representative's substitution
        // is keyed by different variable names).
        assert!(results[0].as_ref().unwrap().witness().is_some());
        assert!(results[1].as_ref().unwrap().witness().is_none());
        assert_eq!(cache.len(), 1, "one canonical pair, one entry");
    }
}

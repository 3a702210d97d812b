//! The traced run: replays the generated requests in-process through
//! the public functions flqd composes for each endpoint, with one
//! benchmark-side span around every call, plus probe spans that split
//! what `ChaseSnapshot::build` bundles.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use flogic_chase::{chase_bounded, chase_minus, ChaseOptions};
use flogic_core::{
    canonical_pair, canonical_query, decision_key_bytes, decode_decision, encode_decision,
    theorem_bound, ChaseSnapshot, ContainmentOptions, ContainmentResult, CoreError, DecisionCache,
    QueryKey, Verdict as CoreVerdict,
};
use flogic_hom::Target;
use flogic_model::ConjunctiveQuery;
use flogic_obs::{ChaseProfile, TraceHandle, Tracer};
use flogic_serve::api;
use flogic_serve::http::{encode_response, parse_request, Parse, Response};
use flogic_serve::snapshots::SnapshotCache;
use flogic_store::{Store, StoreOptions};
use flogic_syntax::parse_query;
use flogic_term::Metrics;

use crate::client::{dir_bytes, Wire};
use crate::workload::{
    decide_options, pump_probe, pump_query, Kind, Pair, Req, Workload, PUMP_RUNGS,
};

/// flqd's default `--cache-bytes` and `--max-body-bytes`.
const CACHE_BYTES: usize = 64 << 20;
const MAX_BODY_BYTES: usize = 1 << 20;
/// Measured requests replayed for a timed workload.
const TIMED_REPLAY: usize = 10_000;

/// One benchmark-side span. `parent` is the parent's index plus one (0
/// for a root); `rid` is the request id (0 for probes).
struct Span {
    name: &'static str,
    rid: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends. When off, `span` only runs
/// its body, so the untraced replay executes the same calls.
struct Spans {
    on: bool,
    epoch: Instant,
    rid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    last: usize,
}

impl Spans {
    fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            rid: 0,
            spans: Vec::new(),
            open: Vec::new(),
            last: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| p + 1);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            rid: self.rid,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx as u32);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        self.last = idx;
        out
    }

    /// Renames the span that closed last (outcome known only afterwards).
    fn relabel_last(&mut self, name: &'static str) {
        if self.on {
            self.spans[self.last].name = name;
        }
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    canon_queries: u64,
    canon_reduced: u64,
    decided: u64,
    by_analysis: u64,
    store_puts: u64,
}

/// flqd's per-process state, rebuilt for each replay.
struct State {
    base: ContainmentOptions,
    decisions: DecisionCache,
    snapshots: SnapshotCache,
    profile: Mutex<ChaseProfile>,
    store: Option<Store>,
    counts: Counts,
    /// Final result per pair index, for the store probe.
    results: HashMap<usize, ContainmentResult>,
}

impl State {
    fn new(store: Option<Store>) -> State {
        State {
            base: decide_options(),
            decisions: DecisionCache::new(),
            snapshots: SnapshotCache::new(CACHE_BYTES),
            profile: Mutex::new(ChaseProfile::default()),
            store,
            counts: Counts::default(),
            results: HashMap::new(),
        }
    }
}

fn verdict_name(r: &ContainmentResult) -> &'static str {
    match r.verdict() {
        CoreVerdict::Holds => "holds",
        CoreVerdict::NotHolds => "not_holds",
        CoreVerdict::Exhausted(_) => "exhausted",
    }
}

/// The snapshot-cache compute path of a decision-cache miss.
fn compute(
    st: &State,
    tr: &mut Spans,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<ContainmentResult, CoreError> {
    let snapshot = tr.span("serve.snapshots.get_or_build", |_| {
        st.snapshots.get_or_build(q1, theorem_bound(q1, q2), opts)
    })?;
    tr.span("hom.search", |_| snapshot.contains(q2, opts))
}

/// `--data-dir` mode: the disk tier between the RAM lookup and compute,
/// composed the way `DurableDecisionCache` composes it.
fn durable(
    st: &State,
    store: &Store,
    tr: &mut Spans,
    puts: &mut u64,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<ContainmentResult, CoreError> {
    let key = tr.span("core.persist.key", |_| decision_key_bytes(q1, q2, opts));
    let got = tr.span("store.get", |_| store.get(&key));
    match got {
        Ok(Some(bytes)) => {
            tr.relabel_last("store.get.hit");
            if let Some(d) = tr.span("core.persist.decode", |_| decode_decision(&bytes)) {
                return Ok(d);
            }
        }
        Ok(None) => tr.relabel_last("store.get.miss"),
        Err(_) => {}
    }
    let result = compute(st, tr, q1, q2, opts)?;
    if let Some(bytes) = tr.span("core.persist.encode", |_| encode_decision(&result)) {
        if tr.span("store.put", |_| store.put(&key, &bytes)).is_ok() {
            *puts += 1;
        }
    }
    Ok(result)
}

/// flqd's `decide_canonical`: decision cache over snapshot cache (over
/// the store in `--data-dir` mode).
fn decide(
    st: &mut State,
    tr: &mut Spans,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<ContainmentResult, CoreError> {
    let mut computed = false;
    let mut puts = 0;
    let shared = &*st;
    let out = tr.span("core.cache.lookup", |tr| {
        shared.decisions.contains_with_compute(q1, q2, opts, || {
            computed = true;
            match &shared.store {
                Some(store) => durable(shared, store, tr, &mut puts, q1, q2, opts),
                None => compute(shared, tr, q1, q2, opts),
            }
        })
    });
    tr.relabel_last(if computed {
        "core.cache.miss"
    } else {
        "core.cache.hit"
    });
    st.counts.store_puts += puts;
    out
}

/// flqd's `decide_pair`: canonical representatives, then the caches.
fn decide_pair(
    st: &mut State,
    tr: &mut Spans,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    opts: &ContainmentOptions,
) -> Result<ContainmentResult, CoreError> {
    let canonical = tr.span("core.canon.pair", |_| {
        (q1.arity() == q2.arity())
            .then(|| canonical_pair(q1, q2, opts))
            .flatten()
    });
    match canonical {
        Some((c1, c2)) => {
            st.counts.canon_queries += 2;
            st.counts.canon_reduced +=
                u64::from(c1.size() < q1.size()) + u64::from(c2.size() < q2.size());
            let mut o = opts.clone();
            o.canon = false;
            decide(st, tr, &c1, &c2, &o)
        }
        None => decide(st, tr, q1, q2, opts),
    }
}

fn parse(tr: &mut Spans, text: &str) -> Result<ConjunctiveQuery, String> {
    tr.span("syntax.parse_query", |_| parse_query(text))
        .map_err(|e| format!("parse_query: {e}"))
}

fn tracer_setup(
    tr: &mut Spans,
    base: &ContainmentOptions,
    req: &api::RequestOpts,
) -> (std::sync::Arc<Tracer>, ContainmentOptions) {
    tr.span("obs.tracer_setup", |_| {
        let tracer = Tracer::with_default_capacity();
        let mut opts = req.apply(base);
        opts.trace = TraceHandle::enabled(&tracer);
        (tracer, opts)
    })
}

fn profile_fold(st: &State, tr: &mut Spans, tracer: &std::sync::Arc<Tracer>) {
    tr.span("obs.profile_fold", |_| {
        let request_profile = ChaseProfile::from_snapshot(&tracer.snapshot());
        st.profile
            .lock()
            .expect("profile lock")
            .absorb(&request_profile);
    });
}

fn encode(tr: &mut Spans, body: impl FnOnce() -> String) {
    tr.span("serve.api.encode", |_| {
        let resp = Response::json(200, body());
        let mut out = Vec::with_capacity(256);
        encode_response(&mut out, &resp, false);
        std::hint::black_box(out);
    });
}

/// `POST /v1/contains`, as `contains_endpoint` composes it.
fn contains(st: &mut State, tr: &mut Spans, body: &[u8]) -> Result<Vec<ContainmentResult>, String> {
    let req = tr
        .span("serve.api.decode", |_| api::parse_contains(body))
        .map_err(|e| e.message)?;
    let q1 = parse(tr, &req.q1)?;
    let q2 = parse(tr, &req.q2)?;
    let (tracer, opts) = tracer_setup(tr, &st.base, &req.opts);
    let result = decide_pair(st, tr, &q1, &q2, &opts).map_err(|e| e.to_string())?;
    profile_fold(st, tr, &tracer);
    encode(tr, || api::verdict_json(&result));
    Ok(vec![result])
}

/// `POST /v1/contains_batch`, as `batch_endpoint` composes it: pairs
/// sharing a `q1` (by text, then by semantic key) share one canonical
/// representative.
fn batch(st: &mut State, tr: &mut Spans, body: &[u8]) -> Result<Vec<ContainmentResult>, String> {
    let req = tr
        .span("serve.api.decode", |_| api::parse_batch(body))
        .map_err(|e| e.message)?;
    let mut parsed = Vec::with_capacity(req.pairs.len());
    for (q1, q2) in &req.pairs {
        parsed.push((parse(tr, q1)?, parse(tr, q2)?));
    }
    let (tracer, opts) = tracer_setup(tr, &st.base, &req.opts);
    let dedup_ok = opts.canon && opts.level_bound.is_none();
    let mut rep_of_text: HashMap<&str, usize> = HashMap::new();
    let mut rep_of_key: HashMap<QueryKey, usize> = HashMap::new();
    let mut reps: Vec<ConjunctiveQuery> = Vec::new();
    let mut results = Vec::with_capacity(parsed.len());
    for (i, (q1, q2)) in parsed.iter().enumerate() {
        let out = if dedup_ok && q1.arity() == q2.arity() {
            let raw = req.pairs[i].0.as_str();
            let idx = if let Some(&idx) = rep_of_text.get(raw) {
                idx
            } else {
                let key = tr.span("core.canon.key", |_| QueryKey::of(q1));
                match rep_of_key.entry(key) {
                    Entry::Occupied(e) => {
                        rep_of_text.insert(raw, *e.get());
                        *e.get()
                    }
                    Entry::Vacant(v) => {
                        reps.push(tr.span("core.canon.query", |_| canonical_query(q1)));
                        v.insert(reps.len() - 1);
                        rep_of_text.insert(raw, reps.len() - 1);
                        reps.len() - 1
                    }
                }
            };
            let c2 = tr.span("core.canon.query", |_| canonical_query(q2));
            let mut o = opts.clone();
            o.canon = false;
            decide(st, tr, &reps[idx], &c2, &o)
        } else {
            decide_pair(st, tr, q1, q2, &opts)
        };
        results.push(out.map_err(|e| e.to_string())?);
    }
    profile_fold(st, tr, &tracer);
    encode(tr, || api::batch_json(&results));
    Ok(results)
}

/// Replays one request from its wire bytes and checks every verdict.
fn request(
    st: &mut State,
    tr: &mut Spans,
    pairs: &[Pair],
    req: &Req,
    bytes: &[u8],
) -> Result<(), String> {
    let results = tr.span("request", |tr| {
        let parsed = tr.span("serve.http.parse_request", |_| {
            parse_request(bytes, MAX_BODY_BYTES)
        });
        let Parse::Complete { request, .. } = parsed else {
            return Err("request bytes do not parse".to_string());
        };
        match request.path.as_str() {
            "/v1/contains" => contains(st, tr, &request.body),
            _ => batch(st, tr, &request.body),
        }
    })?;
    let idx: Vec<usize> = match req {
        Req::Contains(i) => vec![*i],
        Req::Batch(v) => v.clone(),
    };
    for (i, r) in idx.iter().zip(&results) {
        let expect = pairs[*i].expect.wire();
        if verdict_name(r) != expect {
            return Err(format!(
                "replay: {} ⊆ {} gave {}, expected {expect}",
                pairs[*i].q1,
                pairs[*i].q2,
                verdict_name(r)
            ));
        }
        st.counts.decided += 1;
        st.counts.by_analysis += u64::from(r.decided_by_analysis());
        st.results.insert(*i, r.clone());
    }
    Ok(())
}

/// The requests a replay sends: set-up, then the measured streams (the
/// first [`TIMED_REPLAY`] of them for a timed workload).
fn replay_plan(w: &Workload) -> (Vec<&Req>, Vec<&Req>) {
    let setup: Vec<&Req> = w.setup.iter().collect();
    let mut measured: Vec<&Req> = Vec::new();
    let longest = w.streams.iter().map(Vec::len).max().unwrap_or(0);
    'outer: for i in 0..longest {
        for s in &w.streams {
            if let Some(r) = s.get(i) {
                measured.push(r);
                if w.timed && measured.len() >= TIMED_REPLAY {
                    break 'outer;
                }
            }
        }
    }
    (setup, measured)
}

/// One replay lane: flqd's state plus its spans. The traced and the
/// untraced lane replay the same requests side by side.
struct Lane {
    tr: Spans,
    st: State,
    dir: std::path::PathBuf,
    /// Wall time of each measured request, ns.
    request_ns: Vec<u64>,
}

/// On-disk figures of a store that has been written and flushed.
struct StoreFigures {
    wal_bytes_per_put: f64,
    disk_bytes_per_pair: f64,
}

impl Lane {
    fn new(traced: bool, dir: std::path::PathBuf, kind: Kind) -> Result<Lane, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Spans::new(traced);
        let store = if kind == Kind::Restart {
            Some(open_store(&mut tr, "store.create", &dir)?)
        } else {
            None
        };
        Ok(Lane {
            tr,
            st: State::new(store),
            dir,
            request_ns: Vec::new(),
        })
    }

    fn send(&mut self, pairs: &[Pair], req: &Req, bytes: &[u8]) -> Result<u64, String> {
        self.tr.rid += 1;
        let t0 = Instant::now();
        request(&mut self.st, &mut self.tr, pairs, req, bytes)?;
        Ok(t0.elapsed().as_nanos() as u64)
    }

    /// Drain and restart in `--data-dir` mode: flush, reopen the same
    /// directory with empty RAM caches. Returns the WAL bytes per put of
    /// the load.
    fn restart(&mut self) -> Result<f64, String> {
        let store = self.st.store.take().expect("restart lane has a store");
        let wal = store.stats().wal_bytes as f64;
        self.tr
            .span("store.flush", |_| store.flush())
            .map_err(|e| format!("store flush: {e}"))?;
        drop(store);
        let mut next = State::new(Some(open_store(&mut self.tr, "store.open", &self.dir)?));
        next.counts = std::mem::take(&mut self.st.counts);
        next.results = std::mem::take(&mut self.st.results);
        let puts = next.counts.store_puts;
        self.st = next;
        Ok(wal / puts.max(1) as f64)
    }

    /// Final flush in `--data-dir` mode; on-disk bytes per stored pair.
    fn disk_bytes_per_pair(&mut self) -> Result<f64, String> {
        let store = self.st.store.as_ref().expect("restart lane has a store");
        self.tr
            .span("store.flush", |_| store.flush())
            .map_err(|e| format!("store flush: {e}"))?;
        Ok(dir_bytes(&self.dir) as f64 / self.st.counts.store_puts.max(1) as f64)
    }
}

fn open_store(tr: &mut Spans, name: &'static str, dir: &Path) -> Result<Store, String> {
    tr.span(name, |_| Store::open(dir, StoreOptions::default()))
        .map_err(|e| format!("store open: {e}"))
}

/// Replays the workload through an untraced and a traced lane,
/// alternating which lane goes first on each request so that neither
/// lane is favoured by first-touch costs or drift. Returns both lanes,
/// the hom searches one lane performed, and the `restart` store figures.
fn run_replays(
    w: &Workload,
    wire: &Wire,
    work: &Path,
) -> Result<(Lane, Lane, u64, Option<StoreFigures>), String> {
    let (setup, measured) = replay_plan(w);
    let mut lanes = [
        Lane::new(false, work.join("replay-plain"), w.kind)?,
        Lane::new(true, work.join("replay-traced"), w.kind)?,
    ];
    let hom0 = Metrics::global().snapshot().hom_searches;
    let mut scratch = Vec::new();
    let mut n = 0usize;
    let mut step = |lanes: &mut [Lane; 2], req: &Req, timed: bool| -> Result<(), String> {
        let bytes = wire.bytes(&w.pairs, req, &mut scratch).to_vec();
        n += 1;
        for l in [n % 2, 1 - n % 2] {
            let ns = lanes[l].send(&w.pairs, req, &bytes)?;
            if timed {
                lanes[l].request_ns.push(ns);
            }
        }
        Ok(())
    };
    for req in &setup {
        step(&mut lanes, req, false)?;
    }
    let mut wal_per_put = None;
    if w.kind == Kind::Restart {
        lanes[0].restart()?;
        wal_per_put = Some(lanes[1].restart()?);
    }
    for req in &measured {
        step(&mut lanes, req, true)?;
    }
    // Both lanes did identical work.
    let hom_searches = (Metrics::global().snapshot().hom_searches - hom0) / 2;
    let store = match wal_per_put {
        Some(wal_bytes_per_put) => Some(StoreFigures {
            wal_bytes_per_put,
            disk_bytes_per_pair: lanes[1].disk_bytes_per_pair()?,
        }),
        None => None,
    };
    let [plain, traced] = lanes;
    Ok((plain, traced, hom_searches, store))
}

/// Re-asks every decided pair once more through the decision cache (a
/// hit for each), so that every workload times the hit probe.
fn probe_hits(st: &State, tr: &mut Spans, w: &Workload) -> Result<(), String> {
    let mut idx: Vec<&usize> = st.results.keys().collect();
    idx.sort();
    for &i in idx {
        let p = &w.pairs[i];
        let (q1, q2) = (
            parse_query(&p.q1).map_err(|e| e.to_string())?,
            parse_query(&p.q2).map_err(|e| e.to_string())?,
        );
        let Some((c1, c2)) = canonical_pair(&q1, &q2, &st.base) else {
            continue;
        };
        let mut o = st.base.clone();
        o.canon = false;
        let mut computed = false;
        let r = tr.span("core.cache.hit", |_| {
            st.decisions.contains_with_compute(&c1, &c2, &o, || {
                computed = true;
                Err(CoreError::Syntax("not resident".into()))
            })
        });
        match r {
            Ok(r) if !computed && verdict_name(&r) == p.expect.wire() => {}
            _ => return Err(format!("decision cache lost {} ⊆ {}", p.q1, p.q2)),
        }
    }
    Ok(())
}

/// Splits `ChaseSnapshot::build` into chase⁻, bounded chase and hom
/// indexing on each distinct non-pump `q1`, at the deepest bound it is
/// asked with.
fn probe_chase(
    tr: &mut Spans,
    w: &Workload,
    sizes: &mut BTreeMap<&'static str, Vec<u64>>,
) -> Result<(), String> {
    let mut bound_of: BTreeMap<String, (ConjunctiveQuery, u32)> = BTreeMap::new();
    for p in w.pairs.iter().filter(|p| !p.pump) {
        let c1 = canonical_query(&parse_query(&p.q1).map_err(|e| e.to_string())?);
        let c2 = canonical_query(&parse_query(&p.q2).map_err(|e| e.to_string())?);
        let b = theorem_bound(&c1, &c2);
        let e = bound_of.entry(p.q1.clone()).or_insert((c1, b));
        e.1 = e.1.max(b);
    }
    let opts = decide_options();
    for (c1, bound) in bound_of.values() {
        let minus = tr.span("chase.minus", |_| chase_minus(c1));
        sizes
            .entry("chase.minus_conjuncts")
            .or_default()
            .push(minus.len() as u64);
        let chase = tr
            .span("chase.bounded", |_| {
                chase_bounded(
                    c1,
                    &ChaseOptions {
                        level_bound: *bound,
                        max_conjuncts: opts.max_conjuncts,
                        ..ChaseOptions::default()
                    },
                )
            })
            .map_err(|e| e.to_string())?;
        sizes
            .entry("chase.bounded_conjuncts")
            .or_default()
            .push(chase.len() as u64);
        if !chase.is_failed() && !chase.is_exhausted() {
            std::hint::black_box(tr.span("hom.target_build", |_| Target::from_chase(&chase)));
        }
        let snap = tr.span("core.snapshot.build", |_| {
            ChaseSnapshot::build(c1, *bound, &opts)
        });
        std::hint::black_box(snap.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// The Theorem 13 scaling ladder: ns per materialized conjunct of the
/// bounded chase of each pump rung (median of three runs).
fn probe_ladder(out: &mut BTreeMap<String, f64>) {
    for &(label, k, d) in &PUMP_RUNGS {
        let c1 = canonical_query(&pump_query("ladder", k));
        let c2 = canonical_query(&pump_probe("ladder", k, d));
        let opts = ChaseOptions {
            level_bound: theorem_bound(&c1, &c2),
            max_conjuncts: decide_options().max_conjuncts,
            ..ChaseOptions::default()
        };
        let mut runs: Vec<(u64, usize)> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let chase = chase_bounded(&c1, &opts).expect("sequential chase cannot fail");
                (t0.elapsed().as_nanos() as u64, chase.len())
            })
            .collect();
        runs.sort();
        let (ns, conjuncts) = runs[1];
        if conjuncts != label {
            eprintln!("flqbench: ladder rung c{label} now materializes {conjuncts} conjuncts");
        }
        out.insert(
            format!("chase.ns_per_conjunct.c{label}"),
            ns as f64 / conjuncts as f64,
        );
    }
}

/// Writes the decided pairs into a fresh store, flushes, reopens and
/// reads them back (hits) along with pairs never written (misses).
fn probe_store(
    st: &State,
    tr: &mut Spans,
    w: &Workload,
    dir: &Path,
) -> Result<StoreFigures, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = tr
        .span("store.create", |_| {
            Store::open(dir, StoreOptions::default())
        })
        .map_err(|e| format!("store open: {e}"))?;
    let mut idx: Vec<&usize> = st.results.keys().collect();
    idx.sort();
    // Respellings of one pair share its key: keep each key once.
    let mut keys = Vec::with_capacity(idx.len());
    let mut seen = std::collections::HashSet::new();
    for &i in &idx {
        let p = &w.pairs[*i];
        let (q1, q2) = (
            parse_query(&p.q1).map_err(|e| e.to_string())?,
            parse_query(&p.q2).map_err(|e| e.to_string())?,
        );
        // flqd keys the store with the canonical pair, canonicalization off.
        let (c1, c2) = canonical_pair(&q1, &q2, &st.base).ok_or("pair has no canonical form")?;
        let mut o = st.base.clone();
        o.canon = false;
        let key = tr.span("core.persist.key", |_| decision_key_bytes(&c1, &c2, &o));
        if seen.insert(key.clone()) {
            keys.push((*i, key));
        }
    }
    let half = keys.len().div_ceil(2);
    for (i, key) in &keys[..half] {
        let bytes = tr
            .span("core.persist.encode", |_| encode_decision(&st.results[i]))
            .ok_or("decided result does not encode")?;
        tr.span("store.put", |_| store.put(key, &bytes))
            .map_err(|e| format!("store put: {e}"))?;
    }
    let wal = store.stats().wal_bytes as f64;
    tr.span("store.flush", |_| store.flush())
        .map_err(|e| format!("store flush: {e}"))?;
    drop(store);
    let figures = StoreFigures {
        wal_bytes_per_put: wal / half.max(1) as f64,
        disk_bytes_per_pair: dir_bytes(dir) as f64 / half.max(1) as f64,
    };
    let store = tr
        .span("store.open", |_| Store::open(dir, StoreOptions::default()))
        .map_err(|e| format!("store reopen: {e}"))?;
    for (n, (i, key)) in keys.iter().enumerate() {
        let got = tr
            .span("store.get", |_| store.get(key))
            .map_err(|e| format!("store get: {e}"))?;
        match got {
            Some(bytes) => {
                tr.relabel_last("store.get.hit");
                let d = tr.span("core.persist.decode", |_| decode_decision(&bytes));
                let right = d.is_some_and(|d| verdict_name(&d) == w.pairs[*i].expect.wire());
                if n >= half || !right {
                    return Err("store probe read back a wrong record".into());
                }
            }
            None if n >= half => tr.relabel_last("store.get.miss"),
            None => return Err("store probe lost a record".into()),
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(figures)
}

fn median_f(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

fn median(v: &mut [u64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    Some(v[(v.len() - 1) / 2] as f64)
}

/// Inputs from the wire run that the per-layer metrics need.
pub struct WireFacts {
    pub lat_p50_ns: f64,
    pub rss_peak_mb: f64,
    pub counters: crate::client::Counters,
}

/// Runs the untraced and the traced replay plus the probes, writes the
/// span dump, and returns every per-layer metric.
pub fn traced_run(
    w: &Workload,
    wire: &Wire,
    facts: &WireFacts,
    work: &Path,
    dump: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let (plain, traced, hom_searches, store) = run_replays(w, wire, work)?;
    // Tracing overhead: the median over measured requests of the traced
    // lane's time over the untraced lane's time for the same request.
    let mut ratios: Vec<f64> = traced
        .request_ns
        .iter()
        .zip(&plain.request_ns)
        .map(|(&t, &p)| t as f64 / p.max(1) as f64)
        .collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median_f(&mut ratios) - 1.0
    };
    let mut plain_req = plain.request_ns;
    let plain_p50 = median(&mut plain_req).unwrap_or(0.0);
    drop(plain.st);
    let Lane { mut tr, st, .. } = traced;
    probe_hits(&st, &mut tr, w)?;
    let mut sizes: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    probe_chase(&mut tr, w, &mut sizes)?;
    let store = match store {
        Some(s) => s,
        None => probe_store(&st, &mut tr, w, &work.join("store-probe"))?,
    };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    probe_ladder(&mut m);
    let counts = st.counts;

    let self_ns = tr.self_ns();
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, ns) in tr.spans.iter().zip(&self_ns) {
        by_name.entry(s.name).or_default().push(*ns);
    }
    let mut med = |name: &str| -> f64 {
        match by_name.get_mut(name).and_then(|v| median(v)) {
            Some(x) => x,
            None => {
                eprintln!("flqbench: no {name} spans in this run; reporting 0");
                0.0
            }
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let c = &counts;
    let wire_c = &facts.counters;
    let entries = wire_c.snapshot_resident_entries;
    let pairs: [(&str, f64); 34] = [
        (
            "serve.http.parse_request_ns",
            med("serve.http.parse_request"),
        ),
        ("serve.api.decode_ns", med("serve.api.decode")),
        ("serve.api.encode_ns", med("serve.api.encode")),
        (
            "serve.snapshots.get_or_build_ns",
            med("serve.snapshots.get_or_build"),
        ),
        (
            "serve.snapshots.hit_ratio",
            ratio(
                wire_c.snapshot_hits,
                wire_c.snapshot_hits + wire_c.snapshot_misses,
            ),
        ),
        ("serve.snapshots.evictions", wire_c.snapshot_evictions),
        (
            "serve.snapshots.accounted_bytes",
            wire_c.snapshot_resident_bytes,
        ),
        (
            "serve.snapshots.rss_kib_per_entry",
            ratio(facts.rss_peak_mb * 1024.0, entries),
        ),
        ("serve.queue_high_water", wire_c.queue_high_water),
        ("serve.batch_dedup_hits", wire_c.batch_dedup_hits),
        ("serve.unattributed_ns", facts.lat_p50_ns - plain_p50),
        ("syntax.parse_query_ns", med("syntax.parse_query")),
        ("obs.tracer_setup_ns", med("obs.tracer_setup")),
        ("obs.profile_fold_ns", med("obs.profile_fold")),
        ("core.canon.pair_ns", med("core.canon.pair")),
        (
            "core.canon.reduced_frac",
            ratio(c.canon_reduced as f64, c.canon_queries as f64),
        ),
        ("core.cache.hit_probe_ns", med("core.cache.hit")),
        (
            "core.cache.hit_ratio",
            ratio(
                wire_c.decision_hits,
                wire_c.decision_hits + wire_c.decision_misses,
            ),
        ),
        ("core.snapshot.build_ns", med("core.snapshot.build")),
        ("core.persist.key_ns", med("core.persist.key")),
        ("core.persist.encode_ns", med("core.persist.encode")),
        ("core.persist.decode_ns", med("core.persist.decode")),
        (
            "analysis.fastpath_frac",
            ratio(c.by_analysis as f64, c.decided as f64),
        ),
        ("chase.minus_ns", med("chase.minus")),
        ("chase.bounded_ns", med("chase.bounded")),
        ("hom.target_build_ns", med("hom.target_build")),
        ("hom.search_ns", med("hom.search")),
        ("hom.searches", hom_searches as f64),
        ("store.open_ms", med("store.open") / 1e6),
        ("store.flush_ms", med("store.flush") / 1e6),
        ("store.get_hit_ns", med("store.get.hit")),
        ("store.get_miss_ns", med("store.get.miss")),
        ("store.put_ns", med("store.put")),
        ("trace.overhead_frac", overhead),
    ];
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    for (k, v) in sizes.iter_mut() {
        m.insert(k.to_string(), median(v).unwrap_or(0.0));
    }
    m.insert("store.wal_bytes_per_put".into(), store.wal_bytes_per_put);
    m.insert(
        "store.disk_bytes_per_pair".into(),
        store.disk_bytes_per_pair,
    );

    write_dump(dump, w, &tr, &self_ns, &m)?;
    Ok(m)
}

/// One JSON line per span after a header line naming the workload and
/// the per-layer metrics.
fn write_dump(
    path: &Path,
    w: &Workload,
    tr: &Spans,
    self_ns: &[u64],
    m: &BTreeMap<String, f64>,
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let metrics: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    writeln!(
        out,
        "{{\"workload\":\"{}\",\"spans\":{},\"metrics\":{{{}}}}}",
        w.label,
        tr.spans.len(),
        metrics.join(",")
    )
    .map_err(io)?;
    for (i, (s, own)) in tr.spans.iter().zip(self_ns).enumerate() {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"rid\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            i + 1,
            s.name,
            s.rid,
            s.parent,
            s.start_ns,
            s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

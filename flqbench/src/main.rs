//! flqbench — the end-to-end and per-layer benchmark of `flqd`.
//!
//! ```text
//! flqbench --flqd PATH --workload warm|cold|restart|pipelined
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload from the seed and computes every expected
//! verdict locally, starts the release `flqd` as a child process, drives
//! the workload over the wire, checks every verdict, and prints one JSON
//! result as the last line of stdout. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the wire run is followed by an
//! in-process replay of the same inputs through each layer's public
//! functions, the metrics are the per-layer ones, and the span dump is
//! written under OUT_DIR. See `README.md` next to this package.

mod client;
mod replay;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Conn, Counters, Flqd, Tally, Wire};
use workload::{Kind, Workload, TIMED_ROUND_SECONDS};

/// The default workload seed. Seed 7 is held out: a gain claimed on the
/// default seed must also hold there.
const DEFAULT_SEED: u64 = 1;
/// Span dumps and scratch data directories go here, relative to the
/// working directory.
const OUT_DIR: &str = ".flqbench";
/// A measured phase that is not timed still stops here.
const SAFETY_SECONDS: f64 = 120.0;

struct Args {
    flqd: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flqd = None;
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--flqd" => flqd = Some(PathBuf::from(value()?)),
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        flqd: flqd.ok_or("--flqd is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median_f(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What one round measured.
struct Round {
    setup_s: f64,
    p50_ns: f64,
    p99_ns: f64,
    pairs_per_s: f64,
    rss_peak_mb: f64,
}

/// What the wire run measured.
struct WireRun {
    tally: Tally,
    rounds: Vec<Round>,
    samples: usize,
    counters: Counters,
}

impl WireRun {
    /// The median over rounds of one figure.
    fn median(&self, f: fn(&Round) -> f64) -> f64 {
        median_f(&mut self.rounds.iter().map(f).collect::<Vec<_>>())
    }
}

/// One set-up: spawn flqd, connect, send the set-up traffic (for
/// `restart`: load, SIGTERM, respawn on the same data dir).
fn set_up(
    args: &Args,
    w: &Workload,
    wire: &Wire,
    data_dir: Option<&Path>,
    tally: &mut Tally,
) -> Result<(Flqd, Vec<Conn>), String> {
    let mut flqd = Flqd::spawn(&args.flqd, data_dir)?;
    let mut conn = Conn::connect(&flqd.addr)?;
    tally.merge(client::run_untimed(&mut conn, wire, &w.pairs, &w.setup));
    if w.kind == Kind::Restart {
        drop(conn);
        flqd.terminate()?;
        flqd = Flqd::spawn(&args.flqd, data_dir)?;
        conn = Conn::connect(&flqd.addr)?;
    }
    let mut conns = vec![conn];
    for _ in 1..w.streams.len() {
        conns.push(Conn::connect(&flqd.addr)?);
    }
    Ok((flqd, conns))
}

/// Runs the workload against flqd, round after round, until `--seconds`
/// have passed since the first round started: a timed workload measures
/// TIMED_ROUND_SECONDS per round, one that ends with its stream sends it
/// whole. Each round has a fresh flqd, its set-up and a measured phase,
/// so that process-level variation (thread placement, allocator state)
/// and the host's changing speed average out in the medians over rounds.
/// A traced run has one round.
fn wire_run(args: &Args, w: &Workload, wire: &Wire, work: &Path) -> Result<WireRun, String> {
    let run_start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut stats = Vec::new();
    let mut samples = 0;
    let mut counters = Counters::default();
    for round in 0.. {
        if round > 0 && (args.trace || run_start.elapsed() >= budget) {
            break;
        }
        let dir = (w.kind == Kind::Restart).then(|| work.join(format!("data-{round}")));
        let t0 = Instant::now();
        let (flqd, mut conns) = set_up(args, w, wire, dir.as_deref(), &mut tally)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let start = Instant::now();
        let limit = if w.timed {
            TIMED_ROUND_SECONDS
        } else {
            SAFETY_SECONDS
        };
        let mut phase = measure_phase(w, wire, &mut conns, start + Duration::from_secs_f64(limit));
        let seconds = start.elapsed().as_secs_f64();
        let rss_peak_mb = flqd.peak_rss_mb()?;
        counters = client::scrape(&mut conns[0])?;
        drop(conns);
        flqd.terminate()?;
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut lat: Vec<u64> = phase.samples.iter().map(|s| s.lat_ns).collect();
        if lat.is_empty() {
            return Err("no request completed in a measured round".into());
        }
        lat.sort_unstable();
        let pairs: u64 = phase.samples.iter().map(|s| u64::from(s.pairs)).sum();
        stats.push(Round {
            setup_s,
            p50_ns: percentile(&lat, 0.5),
            p99_ns: percentile(&lat, 0.99),
            pairs_per_s: pairs as f64 / seconds,
            rss_peak_mb,
        });
        samples += lat.len();
        phase.samples.clear();
        tally.merge(phase);
    }
    Ok(WireRun {
        tally,
        rounds: stats,
        samples,
        counters,
    })
}

/// One measured phase: every stream on its own connection (and thread),
/// closed loop.
fn measure_phase(w: &Workload, wire: &Wire, conns: &mut [Conn], deadline: Instant) -> Tally {
    let (first, rest) = conns.split_at_mut(1);
    let (lead, others) = w.streams.split_at(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .zip(others)
            .map(|(conn, stream)| {
                scope.spawn(move || {
                    client::run_closed_loop(conn, wire, &w.pairs, stream, w.window, deadline)
                })
            })
            .collect();
        let mut t =
            client::run_closed_loop(&mut first[0], wire, &w.pairs, &lead[0], w.window, deadline);
        for h in handles {
            t.merge(h.join().expect("client thread panicked"));
        }
        t
    })
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    out.push(format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
    ));
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_frac") || name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_per_put") {
        "bytes/put"
    } else if name.ends_with("_per_pair") {
        "bytes/pair"
    } else if name.ends_with("_per_entry") {
        "KiB/entry"
    } else if name.starts_with("chase.ns_per_conjunct") {
        "ns/conjunct"
    } else {
        "count"
    }
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let t_gen = Instant::now();
    let w = workload::generate(args.kind, args.seed);
    let wire = Wire::new(&w.pairs);
    eprintln!(
        "flqbench: {} ({} pairs generated and verified locally in {:.2} s)",
        w.label,
        w.pairs.len(),
        t_gen.elapsed().as_secs_f64()
    );
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(args, &w, &wire, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, w: &Workload, wire: &Wire, work: &Path) -> Result<(bool, String), String> {
    let r = wire_run(args, w, wire, work)?;
    let mut correct = r.tally.mismatch.is_none();
    if let Some(m) = &r.tally.mismatch {
        eprintln!("flqbench: WRONG VERDICT: {m}");
    }
    let lat_p50_ns = r.median(|x| x.p50_ns);
    let lat_p99_ns = r.median(|x| x.p99_ns);
    eprintln!(
        "flqbench: {} samples over {} rounds; medians over rounds: p50 {:.1} us, p99 {:.1} us, {:.1} pairs/s, set-up {:.3} s, VmHWM {:.1} MiB; failed {}; last /metrics {:?}",
        r.samples,
        r.rounds.len(),
        lat_p50_ns / 1e3,
        lat_p99_ns / 1e3,
        r.median(|x| x.pairs_per_s),
        r.median(|x| x.setup_s),
        r.median(|x| x.rss_peak_mb),
        r.tally.failed,
        r.counters
    );
    let mut metrics = Vec::new();
    if args.trace {
        let facts = replay::WireFacts {
            lat_p50_ns,
            rss_peak_mb: r.median(|x| x.rss_peak_mb),
            counters: r.counters,
        };
        let dump = Path::new(OUT_DIR).join(format!("spans_{}_s{}.jsonl", w.kind.name(), args.seed));
        match replay::traced_run(w, wire, &facts, work, &dump) {
            Ok(layers) => {
                eprintln!("flqbench: span dump written to {}", dump.display());
                for (name, value) in &layers {
                    metric(&mut metrics, name, *value, unit_of(name));
                }
            }
            Err(e) => {
                eprintln!("flqbench: traced replay failed: {e}");
                correct = false;
            }
        }
    } else {
        metric(&mut metrics, "lat_p50_us", lat_p50_ns / 1e3, "us");
        metric(&mut metrics, "lat_p99_us", lat_p99_ns / 1e3, "us");
        metric(
            &mut metrics,
            "pairs_per_s",
            r.median(|x| x.pairs_per_s),
            "1/s",
        );
        metric(
            &mut metrics,
            "rss_peak_mb",
            r.median(|x| x.rss_peak_mb),
            "MiB",
        );
        metric(&mut metrics, "setup_s", r.median(|x| x.setup_s), "s");
    }
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.tally.attempted,
        r.tally.failed,
        metrics.join(",")
    );
    Ok((correct, line))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flqbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.flqd.is_file() {
        eprintln!("flqbench: no flqd binary at {}", args.flqd.display());
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("flqbench: {e}");
            ExitCode::from(1)
        }
    }
}

//! The wire side: starting and stopping the real `flqd`, a minimal
//! keep-alive HTTP/1.1 client, and `/metrics` scrapes.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::{Pair, Req};

/// A running flqd child. Dropping it kills and reaps the process.
pub struct Flqd {
    child: Child,
    /// Kept open so flqd never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Flqd {
    /// Spawns `bin` at default flags plus `--workers 2` (and `--data-dir`
    /// when given) on an ephemeral port and waits for its listen line.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<Flqd, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("flqd listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("flqd did not report its address (got {line:?})"));
        };
        Ok(Flqd {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// flqd's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kb / 1024.0)
    }

    /// Sends SIGTERM (graceful drain, store flush) and waits for a clean
    /// exit.
    pub fn terminate(mut self) -> Result<(), String> {
        let status = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if !status.success() {
            return Err("kill -TERM failed".into());
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) if st.success() => return Ok(()),
                Ok(Some(st)) => return Err(format!("flqd exited with {st} after SIGTERM")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("flqd did not drain within 60 s".into()),
                Err(e) => return Err(format!("waiting for flqd: {e}")),
            }
        }
    }
}

impl Drop for Flqd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Renders every distinct request body once; repeats share the bytes.
pub struct Wire {
    contains: Vec<Vec<u8>>,
}

fn json_quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn frame(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: flqbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Wire {
    pub fn new(pairs: &[Pair]) -> Wire {
        let contains = pairs
            .iter()
            .map(|p| {
                let mut body = String::from("{\"q1\":");
                json_quote(&mut body, &p.q1);
                body.push_str(",\"q2\":");
                json_quote(&mut body, &p.q2);
                body.push('}');
                frame("/v1/contains", &body)
            })
            .collect();
        Wire { contains }
    }

    /// The full request bytes of `req`.
    pub fn bytes<'a>(&'a self, pairs: &[Pair], req: &Req, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        match req {
            Req::Contains(i) => &self.contains[*i],
            Req::Batch(idx) => {
                let mut body = String::from("{\"pairs\":[");
                for (n, &i) in idx.iter().enumerate() {
                    if n > 0 {
                        body.push(',');
                    }
                    body.push('[');
                    json_quote(&mut body, &pairs[i].q1);
                    body.push(',');
                    json_quote(&mut body, &pairs[i].q2);
                    body.push(']');
                }
                body.push_str("]}");
                *scratch = frame("/v1/contains_batch", &body);
                scratch
            }
        }
    }
}

/// A keep-alive connection with `content-length`-framed reads.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads the next complete response.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head"))?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("status line"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .ok_or_else(|| bad("no content-length"))?;
                let total = head_end + 4 + len;
                if self.buf.len() >= total {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
                    self.buf.drain(..total);
                    return Ok(Response { status, body });
                }
            }
            let mut chunk = [0u8; 16384];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send(format!("GET {path} HTTP/1.1\r\nhost: flqbench\r\n\r\n").as_bytes())?;
        self.recv()
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The verdict strings of a response body, in order.
pub fn verdicts(body: &str) -> Vec<&str> {
    const KEY: &str = "\"verdict\":\"";
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        rest = &rest[at + KEY.len()..];
        let end = rest.find('"').unwrap_or(rest.len());
        out.push(&rest[..end]);
        rest = &rest[end..];
    }
    out
}

/// One completed request of a measured phase.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Send-to-response latency, ns.
    pub lat_ns: u64,
    /// Pairs the response decided.
    pub pairs: u32,
}

/// What the measured phase of one connection saw.
#[derive(Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// First wrong verdict, if any: a wrong verdict fails the run.
    pub mismatch: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.mismatch.is_none() {
            self.mismatch = other.mismatch;
        }
    }

    /// Checks one response against the expected verdicts of `req`;
    /// returns the pairs it decided.
    fn check(&mut self, pairs: &[Pair], req: &Req, resp: std::io::Result<Response>) -> u32 {
        self.attempted += 1;
        let resp = match resp {
            Ok(r) if r.status == 200 => r,
            _ => {
                self.failed += 1;
                return 0;
            }
        };
        let got = verdicts(&resp.body);
        let expect: Vec<&str> = match req {
            Req::Contains(i) => vec![pairs[*i].expect.wire()],
            Req::Batch(idx) => idx.iter().map(|&i| pairs[i].expect.wire()).collect(),
        };
        if got.len() != expect.len() {
            self.failed += 1;
            return 0;
        }
        for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
            if g != e && self.mismatch.is_none() {
                let i = match req {
                    Req::Contains(i) => *i,
                    Req::Batch(idx) => idx[k],
                };
                self.mismatch = Some(format!(
                    "{} ⊆ {}: flqd said {g}, expected {e}",
                    pairs[i].q1, pairs[i].q2
                ));
            }
        }
        got.len() as u32
    }
}

/// Sends `reqs` one at a time over `conn`, checking every verdict and not
/// timing anything (set-up traffic).
pub fn run_untimed(conn: &mut Conn, wire: &Wire, pairs: &[Pair], reqs: &[Req]) -> Tally {
    let mut tally = Tally::default();
    let mut scratch = Vec::new();
    for req in reqs {
        let resp = conn
            .send(wire.bytes(pairs, req, &mut scratch))
            .and_then(|()| conn.recv());
        let _ = tally.check(pairs, req, resp);
    }
    tally
}

/// Closed loop over one connection with `window` requests in flight:
/// each completed response releases the next request, until the stream
/// ends or `deadline` passes (then the in-flight tail drains). Latency
/// runs from a request's send to its full response.
pub fn run_closed_loop(
    conn: &mut Conn,
    wire: &Wire,
    pairs: &[Pair],
    stream: &[Req],
    window: usize,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut scratch = Vec::new();
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut next = 0;
    let expired = |now: Instant| now >= deadline;
    loop {
        while in_flight.len() < window && next < stream.len() && !expired(Instant::now()) {
            let bytes = wire.bytes(pairs, &stream[next], &mut scratch);
            let sent = Instant::now();
            if conn.send(bytes).is_err() {
                tally.attempted += 1;
                tally.failed += 1;
                return tally;
            }
            in_flight.push_back((next, sent));
            next += 1;
        }
        let Some((i, sent)) = in_flight.pop_front() else {
            return tally;
        };
        let resp = conn.recv();
        let done = Instant::now();
        let transport_failed = resp.is_err();
        let decided = tally.check(pairs, &stream[i], resp);
        tally.samples.push(Sample {
            lat_ns: (done - sent).as_nanos() as u64,
            pairs: decided,
        });
        if transport_failed {
            // The connection is unusable; everything still in flight is lost.
            tally.attempted += in_flight.len() as u64;
            tally.failed += in_flight.len() as u64;
            return tally;
        }
    }
}

/// The counters the benchmark reads from `/metrics` (never its stage
/// histograms, which mis-assign decode, parse and tracer cost).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub decision_hits: f64,
    pub decision_misses: f64,
    pub snapshot_hits: f64,
    pub snapshot_misses: f64,
    pub snapshot_evictions: f64,
    pub snapshot_resident_entries: f64,
    pub snapshot_resident_bytes: f64,
    pub batch_dedup_hits: f64,
    pub queue_high_water: f64,
}

pub fn scrape(conn: &mut Conn) -> Result<Counters, String> {
    let resp = conn
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /metrics: status {}", resp.status));
    }
    let value = |name: &str| -> f64 {
        resp.body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (k, v) = l.split_once(' ')?;
                (k == name).then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0.0)
    };
    Ok(Counters {
        decision_hits: value("flqd_decision_cache_hits_total"),
        decision_misses: value("flqd_decision_cache_misses_total"),
        snapshot_hits: value("flqd_snapshot_cache_hits_total"),
        snapshot_misses: value("flqd_snapshot_cache_misses_total"),
        snapshot_evictions: value("flqd_snapshot_cache_evictions_total"),
        snapshot_resident_entries: value("flqd_snapshot_resident_entries"),
        snapshot_resident_bytes: value("flqd_snapshot_resident_bytes"),
        batch_dedup_hits: value("flqd_batch_dedup_hits_total"),
        queue_high_water: value("flqd_queue_depth_highwater"),
    })
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

//! An in-process `flqd` canonicalizes each query once per request: the
//! ordering search runs in `canonical_query` and nowhere else, and every
//! cache below it keys the representatives as written.
//!
//! One `#[test]` only: `flqd_canon_keys_total` mirrors the process-global
//! engine counters, which a concurrently running test would disturb.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use flogic_serve::{Server, ServerConfig};

const Q1: &str = "q(X, Z) :- sub(X, Y), sub(Y, Z).";
/// `Q1` permuted and renamed: a distinct text with the same core.
const Q1_RESPELLED: &str = "r(A, C) :- sub(B, C), sub(A, B).";
const Q2: &str = "p(X, Z) :- sub(X, Z).";
const Q3: &str = "s(X, Z) :- member(X, Y), sub(Y, Z).";
const Q4: &str = "t(X) :- member(X, Y).";

/// One request on a fresh `connection: close` connection; returns
/// `(status, body)`.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header block");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, body.to_string())
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, metrics) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let prefix = format!("{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {metrics}"))
}

fn contains(addr: SocketAddr, q1: &str, q2: &str) -> (u16, String) {
    let body = format!("{{\"q1\":\"{q1}\",\"q2\":\"{q2}\"}}");
    exchange(addr, "POST", "/v1/contains", &body)
}

fn batch(addr: SocketAddr, pairs: &[(&str, &str)]) {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|(q1, q2)| format!("[\"{q1}\",\"{q2}\"]"))
        .collect();
    let body = format!("{{\"pairs\":[{}]}}", pairs.join(","));
    let (status, body) = exchange(addr, "POST", "/v1/contains_batch", &body);
    assert_eq!(status, 200, "{body}");
}

/// Runs `f` against a fresh in-process server and returns its result.
fn with_server<T>(canon: bool, f: impl FnOnce(SocketAddr) -> T) -> T {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        canon,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let out = f(addr);
    handle.shutdown();
    join.join().expect("join").expect("clean drain");
    out
}

#[test]
fn each_query_is_canonicalized_once_per_request() {
    const KEYS: &str = "flqd_canon_keys_total";
    // n = 6 pairs over m = 3 distinct q1 texts: Q1 three times, Q3
    // twice, and one respelling of Q1.
    let pairs = [
        (Q1, Q2),
        (Q3, Q2),
        (Q1, Q3),
        (Q1_RESPELLED, Q2),
        (Q3, Q3),
        (Q1, Q1),
    ];
    let (n, m) = (pairs.len() as u64, 3);

    with_server(true, |addr| {
        // Cold, warm, and a respelled warm pair: two passes each.
        for (q1, q2) in [(Q1, Q2), (Q1, Q2), (Q1_RESPELLED, Q2)] {
            let before = counter(addr, KEYS);
            let (status, body) = contains(addr, q1, q2);
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"verdict\":\"holds\""), "{body}");
            assert_eq!(counter(addr, KEYS) - before, 2, "{q1} vs {q2}");
        }
        // An arity mismatch is rejected as written: no pass at all.
        let before = counter(addr, KEYS);
        let (status, body) = contains(addr, Q4, Q2);
        assert!(body.contains("arity_mismatch"), "{status} {body}");
        assert_eq!(counter(addr, KEYS) - before, 0, "arity mismatch");

        let before = counter(addr, KEYS);
        let dedup_before = counter(addr, "flqd_batch_dedup_hits_total");
        batch(addr, &pairs);
        assert_eq!(
            counter(addr, KEYS) - before,
            m + n,
            "one pass per q1 text and per q2"
        );
        // Q1 and Q3 repeat by text (3 reuses), the respelling by key (1).
        assert_eq!(
            counter(addr, "flqd_batch_dedup_hits_total") - dedup_before,
            4
        );
    });

    with_server(false, |addr| {
        let before = counter(addr, KEYS);
        for q1 in [Q1, Q1_RESPELLED] {
            let (status, body) = contains(addr, q1, Q2);
            assert_eq!(status, 200, "{body}");
        }
        batch(addr, &pairs);
        assert_eq!(counter(addr, KEYS) - before, 0, "--no-canon runs no pass");
    });
}

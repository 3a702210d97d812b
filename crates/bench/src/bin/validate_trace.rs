//! `validate_trace` — structural validator for `flq --trace-out` JSONL files.
//!
//! Usage: `cargo run -p flogic-bench --bin validate_trace -- <trace.jsonl>...`
//!
//! For each file, the validator re-parses every line with the strict
//! parser from `flogic_obs::export` and checks the invariants the tracer
//! promises:
//!
//! * every line is a well-formed flat JSON event object;
//! * sequence numbers are strictly increasing over the whole file (the
//!   tracer's ring is single-writer, so a snapshot lists the events in
//!   emission order);
//! * every `rule_fired` names a `Σ_FL` rule in `rho1..rho12`;
//! * when a `bound` event is present, the observed chase depth (the
//!   maximum level any event mentions) stays within the Theorem 12 bound
//!   `2·|q1|·|q2|`.
//!
//! An empty file is a valid (empty) trace. Exit codes: `0` all files
//! valid, `1` any violation, `2` usage error.

use std::process::ExitCode;

use flogic_obs::{export, ChaseEvent, Recorded};

/// The largest chase level an event mentions, if it mentions one.
fn event_level(event: &ChaseEvent) -> Option<u64> {
    match event {
        ChaseEvent::RuleFired { level, .. } | ChaseEvent::NullInvented { level, .. } => {
            Some(u64::from(*level))
        }
        ChaseEvent::Frontier { max_level, .. } => Some(u64::from(*max_level)),
        _ => None,
    }
}

/// Validates one parsed trace; returns a list of violations.
fn validate(events: &[Recorded]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut observed_depth: u64 = 0;
    let mut theorem_bound: Option<u64> = None;
    for (i, rec) in events.iter().enumerate() {
        if let Some(prev) = last_seq.replace(rec.seq) {
            if rec.seq <= prev {
                problems.push(format!("event {}: seq {} not after {prev}", i + 1, rec.seq));
            }
        }
        if let Some(level) = event_level(&rec.event) {
            observed_depth = observed_depth.max(level);
        }
        if let ChaseEvent::Bound {
            theorem_bound: t, ..
        } = rec.event
        {
            theorem_bound = Some(theorem_bound.map_or(t, |prev: u64| prev.max(t)));
        }
    }
    if let Some(bound) = theorem_bound {
        if observed_depth > bound {
            problems.push(format!(
                "observed chase depth {observed_depth} exceeds the Theorem 12 bound {bound}"
            ));
        }
    }
    problems
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_trace <trace.jsonl>...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let events = match export::parse_jsonl(&text) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                failed = true;
                continue;
            }
        };
        let problems = validate(&events);
        if problems.is_empty() {
            println!("{path}: ok — {} events", events.len());
        } else {
            for p in &problems {
                eprintln!("{path}: {p}");
            }
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

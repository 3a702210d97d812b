//! End-to-end tests of the `flq` command-line tool.

use std::process::Command;

fn flq(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_flq"))
        .args(args)
        .output()
        .expect("flq binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`flq`] but returns the raw exit code (0 ok, 1 failure, 2 usage).
fn flq_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_flq"))
        .args(args)
        .output()
        .expect("flq binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("flq exits normally"),
    )
}

#[test]
fn contains_reports_paper_example() {
    let (stdout, _, ok) = flq(&[
        "contains",
        "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].",
        "qq(A,B) :- T1[A*=>T2], T2[B*=>_].",
    ]);
    assert!(ok);
    assert!(stdout.contains("q1 ⊆_ΣFL q2:  true"), "{stdout}");
    assert!(stdout.contains("q2 ⊆_ΣFL q1:  false"), "{stdout}");
    assert!(stdout.contains("classically (no Σ_FL):  false"), "{stdout}");
}

#[test]
fn contains_reports_vacuous() {
    let (stdout, _, ok) = flq(&[
        "contains",
        "q() :- data(o, a, 1), data(o, a, 2), funct(a, o).",
        "qq() :- sub(X, Y).",
    ]);
    assert!(ok);
    assert!(stdout.contains("vacuous"), "{stdout}");
}

#[test]
fn chase_prints_levels_and_dot() {
    let (stdout, _, ok) = flq(&[
        "chase",
        "q() :- mandatory(A, T), type(T, A, T).",
        "--bound",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("level 0:"), "{stdout}");
    assert!(stdout.contains("level 1:"), "{stdout}");
    let (dot, _, ok) = flq(&[
        "chase",
        "q() :- mandatory(A, T), type(T, A, T).",
        "--bound",
        "5",
        "--dot",
    ]);
    assert!(ok);
    assert!(dot.starts_with("digraph chase {"), "{dot}");
}

#[test]
fn minimize_shrinks_redundant_query() {
    let (stdout, _, ok) = flq(&["minimize", "q(X) :- X:C, C::D, X:D."]);
    assert!(ok);
    assert!(stdout.contains("input    (3 conjuncts)"), "{stdout}");
    assert!(stdout.contains("minimal  (2 conjuncts)"), "{stdout}");
}

#[test]
fn eval_runs_the_university_program() {
    let (stdout, stderr, ok) = flq(&["eval", "examples/university.fl"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Sigma_FL closure"), "{stdout}");
    // ?- X::person. finds at least student and employee.
    assert!(stdout.contains("(student)"), "{stdout}");
    assert!(stdout.contains("(employee)"), "{stdout}");
    // rho5 invented a name for mary: she appears in the person/name query.
    assert!(stdout.contains("(mary, "), "{stdout}");
    // inherited mandatory attribute for professor (rho9)
    assert!(stdout.contains("(name)"), "{stdout}");
}

#[test]
fn explain_prints_derivation() {
    let (stdout, _, ok) = flq(&[
        "explain",
        "q(X,Z) :- sub(X,Y), sub(Y,Z).",
        "p(X,Z) :- sub(X,Z).",
    ]);
    assert!(ok);
    assert!(stdout.contains("containment holds"), "{stdout}");
    assert!(stdout.contains("rho2"), "{stdout}");
    assert!(stdout.contains("==>"), "{stdout}");
}

#[test]
fn explain_reports_non_containment() {
    let (stdout, _, ok) = flq(&["explain", "q(X) :- member(X, c).", "p(X) :- sub(X, c)."]);
    assert!(ok);
    assert!(stdout.contains("does not hold"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let (_, _, ok) = flq(&["frobnicate"]);
    assert!(!ok);
    let (_, stderr, ok) = flq(&["contains", "not a query", "q() :- sub(X,Y)."]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        &[
            "contains",
            "q() :- sub(X,Y).",
            "p() :- sub(A,B).",
            "--bogus",
        ][..],
        &["explain", "q() :- sub(X,Y).", "p() :- sub(A,B).", "--frob"][..],
        &["chase", "q() :- sub(X,Y).", "--parallel"][..],
        &["lint", "--bogus"][..],
    ] {
        let (_, stderr, code) = flq_code(args);
        assert_eq!(code, 2, "args {args:?}: {stderr}");
        assert!(stderr.contains("unknown"), "args {args:?}: {stderr}");
    }
}

#[test]
fn no_analysis_accepted_and_threads_rejected() {
    let q1 = "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].";
    let q2 = "qq(A,B) :- T1[A*=>T2], T2[B*=>_].";
    let (with, _, ok) = flq(&["contains", q1, q2]);
    assert!(ok);
    let (without, _, ok) = flq(&["contains", q1, q2, "--no-analysis"]);
    assert!(ok);
    // Same verdicts either way (the analysis toggle never changes them).
    for line in ["q1 ⊆_ΣFL q2:  true", "q2 ⊆_ΣFL q1:  false"] {
        assert!(with.contains(line), "{with}");
        assert!(without.contains(line), "{without}");
    }
    // Chase discovery is sequential: `--threads` is gone, not ignored.
    for args in [
        &["contains", q1, q2, "--threads", "2"][..],
        &["chase", "q() :- sub(X,Y).", "--threads", "2"][..],
    ] {
        let (_, stderr, code) = flq_code(args);
        assert_eq!(code, 2, "args {args:?}: {stderr}");
        assert!(stderr.contains("unknown"), "args {args:?}: {stderr}");
    }
}

#[test]
fn exhaustion_exits_with_code_three() {
    // A pair whose chase pumps past 5 conjuncts: the cap makes the run
    // exhausted, which is a distinct exit code (3), not failure (1).
    let q1 = "q() :- mandatory(A, T), type(T, A, T).";
    let q2 = "qq() :- data(T, A, V), member(V, T).";
    let (stdout, _, code) =
        flq_code(&["contains", q1, q2, "--max-conjuncts", "5", "--no-analysis"]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("EXHAUSTED"), "{stdout}");
    assert!(stdout.contains("conjunct cap"), "{stdout}");

    // An already-elapsed deadline exhausts before the first chase round.
    let (stdout, _, code) = flq_code(&["contains", q1, q2, "--timeout", "0", "--no-analysis"]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("deadline"), "{stdout}");

    // Same on the chase subcommand: a prefix is printed, exit is 3.
    let (stdout, stderr, code) = flq_code(&["chase", q1, "--timeout", "0"]);
    assert_eq!(code, 3, "{stdout}{stderr}");
    assert!(stderr.contains("EXHAUSTED"), "{stderr}");

    // A generous budget decides normally: flags alone don't change exits.
    let (_, _, code) = flq_code(&["contains", q1, q2, "--timeout", "60000"]);
    assert_eq!(code, 0);
}

#[test]
fn budget_flags_reject_garbage() {
    let q = "q() :- sub(X,Y).";
    let (_, stderr, code) = flq_code(&["contains", q, q, "--timeout", "soon"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--timeout"), "{stderr}");
    let (_, stderr, code) = flq_code(&["contains", q, q, "--max-conjuncts"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--max-conjuncts"), "{stderr}");
}

#[test]
fn contains_reports_static_decision() {
    // q1 only reaches sub; q2 needs data: decided without a chase.
    let (stdout, _, ok) = flq(&["contains", "q(X) :- sub(X, Y).", "p(X) :- data(X, a, V)."]);
    assert!(ok);
    assert!(stdout.contains("decided statically"), "{stdout}");
    let (stdout, _, ok) = flq(&[
        "contains",
        "q(X) :- sub(X, Y).",
        "p(X) :- data(X, a, V).",
        "--no-analysis",
    ]);
    assert!(ok);
    assert!(!stdout.contains("decided statically"), "{stdout}");
}

#[test]
fn explain_mentions_invention_cycle_and_bound() {
    let (stdout, _, ok) = flq(&["explain", "q(X) :- member(X, c).", "p(X) :- sub(X, c)."]);
    assert!(ok);
    assert!(stdout.contains("value-invention cycle"), "{stdout}");
    assert!(
        stdout.contains("data[2] -> member[0] -> mandatory[1]"),
        "{stdout}"
    );
    assert!(stdout.contains("Theorem 12"), "{stdout}");
}

#[test]
fn lint_clean_file_exits_zero() {
    let (stdout, stderr, code) = flq_code(&["lint", "examples/university.fl"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn lint_dirty_file_lists_coded_diagnostics() {
    let dir = std::env::temp_dir().join("flq_lint_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dirty.fl");
    std::fs::write(
        &path,
        "john:student.\nq(A) :- member(A, student), sub(S, ghost).\n",
    )
    .unwrap();
    let path = path.to_str().unwrap().to_owned();
    let (stdout, stderr, code) = flq_code(&["lint", &path]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    // Singleton S and the undeclared constant `ghost`, with line:col spans.
    assert!(stdout.contains("FL001"), "{stdout}");
    assert!(stdout.contains("FL005"), "{stdout}");
    assert!(stdout.contains(":2:"), "{stdout}");
    assert!(stderr.contains("warning(s)"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_missing_file_fails() {
    let (_, stderr, code) = flq_code(&["lint", "/nonexistent/nope.fl"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error reading"), "{stderr}");
}

#[test]
fn profile_reports_rule_histogram_and_depth_bound() {
    // Example 2 of the paper: the pumping chase exercises rho5 (value
    // invention); the profile must list every Sigma_FL rule including
    // rho4/rho5 and report observed depth against the Theorem 12 bound.
    let (stdout, stderr, ok) = flq(&[
        "profile",
        "q() :- mandatory(A, T), type(T, A, T), sub(T, U).",
        "qq() :- data(T, A, V), member(V, T).",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("q1 ⊆_ΣFL q2:  true"), "{stdout}");
    assert!(stdout.contains("rule firings"), "{stdout}");
    for rule in ["rho1", "rho4", "rho5", "rho12"] {
        assert!(stdout.contains(rule), "missing {rule} row: {stdout}");
    }
    assert!(stdout.contains("(value invention)"), "{stdout}");
    assert!(stdout.contains("level growth:"), "{stdout}");
    assert!(stdout.contains("phase timing:"), "{stdout}");
    assert!(stdout.contains("theorem bound 12"), "{stdout}");
}

#[test]
fn trace_out_writes_parseable_jsonl() {
    let dir = std::env::temp_dir().join("flq_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let path_s = path.to_str().unwrap().to_owned();
    let (_, stderr, ok) = flq(&[
        "contains",
        "q(X,Z) :- sub(X,Y), sub(Y,Z).",
        "p(X,Z) :- sub(X,Z).",
        "--no-analysis",
        "--trace-out",
        &path_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let events = flogic_lite::obs::export::parse_jsonl(&text).expect("trace parses");
    assert!(!events.is_empty(), "a chased containment records events");
    // Sequence numbers are strictly increasing over the whole file.
    for pair in events.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "seq went backwards: {pair:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_on_eval_writes_valid_empty_trace() {
    // `flq eval` never chases a query, so its trace is empty — which must
    // still be a well-formed (zero-line) JSONL file.
    let dir = std::env::temp_dir().join("flq_trace_eval_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.jsonl");
    let path_s = path.to_str().unwrap().to_owned();
    let (_, stderr, ok) = flq(&["eval", "examples/university.fl", "--trace-out", &path_s]);
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let events = flogic_lite::obs::export::parse_jsonl(&text).expect("empty trace parses");
    assert!(events.is_empty(), "eval records no chase events");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_prints_delta_on_stderr() {
    let (_, stderr, ok) = flq(&[
        "contains",
        "q(X,Z) :- sub(X,Y), sub(Y,Z).",
        "p(X,Z) :- sub(X,Z).",
        "--metrics",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("metrics: chase:"), "{stderr}");
    assert!(stderr.contains("hom:"), "{stderr}");
    // Accepted (and inert) on the file-oriented subcommands too.
    let (_, stderr, ok) = flq(&["lint", "examples/university.fl", "--metrics"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("metrics:"), "{stderr}");
}

#[test]
fn trace_out_without_path_is_usage_error() {
    let (_, stderr, code) = flq_code(&["contains", "q() :- sub(X,Y).", "--trace-out"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
}

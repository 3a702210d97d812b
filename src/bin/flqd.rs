//! `flqd` — the resident batched containment service as a standalone
//! daemon.
//!
//! ```text
//! flqd [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-bytes N]
//!      [--max-body-bytes N] [--timeout MS]
//!      [--max-conjuncts N] [--read-timeout MS] [--ready-fd FD]
//!      [--no-canon] [--access-log FILE|-] [--slow-us N] [--log-sample 1/N]
//!      [--data-dir DIR]
//! ```
//!
//! Prints `flqd listening on HOST:PORT` on stdout once bound (with the
//! real port when `--addr` asked for `:0`), serves until SIGTERM or
//! ctrl-c, drains in-flight requests, and exits `0`. See `docs/CLI.md`
//! for the flags and `docs/ARCHITECTURE.md` for the request lifecycle;
//! `flq serve` is the same server behind the `flq` front end.

use std::process::ExitCode;

fn main() -> ExitCode {
    ExitCode::from(flogic_lite::serve::run_cli(std::env::args().skip(1)))
}

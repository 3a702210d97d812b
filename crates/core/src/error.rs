//! Errors of the containment layer.

use std::fmt;

use flogic_chase::ExhaustReason;

/// Errors raised by the containment procedures.
///
/// Budget exhaustion is **not** an error for the core three-valued APIs
/// ([`contains_with`](crate::contains_with) /
/// [`contains_batch`](crate::contains_batch) report it through
/// [`Verdict::Exhausted`](crate::Verdict::Exhausted) with partial stats);
/// the [`DecideError::Exhausted`] variant is raised only by the APIs whose
/// answer is meaningless on a partial chase (`explain`, the union checks,
/// the naive baseline, `equivalent`/`minimize`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecideError {
    /// Containment is only defined between queries of the same arity
    /// (Theorem 4).
    ArityMismatch {
        /// Arity of `q1`.
        q1: usize,
        /// Arity of `q2`.
        q2: usize,
    },
    /// A resource limit stopped the chase before the Theorem 12 bound was
    /// reached, and the caller's question cannot be answered from a
    /// partial chase. Records how far the chase got.
    Exhausted {
        /// Which limit fired.
        reason: ExhaustReason,
        /// Conjuncts materialized when the run stopped.
        conjuncts: usize,
        /// Deepest chase level completed when the run stopped.
        levels: u32,
    },
    /// A query failed to parse (only from the string-level API).
    Syntax(String),
}

/// The pre-governor name of [`DecideError`], kept as an alias for
/// downstream code.
pub type CoreError = DecideError;

impl fmt::Display for DecideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecideError::ArityMismatch { q1, q2 } => {
                write!(f, "containment needs equal arities, got {q1} vs {q2}")
            }
            DecideError::Exhausted {
                reason,
                conjuncts,
                levels,
            } => {
                write!(
                    f,
                    "chase stopped by {reason} at {conjuncts} conjuncts / level {levels}, \
                     before reaching the Theorem 12 bound; raise the budget"
                )
            }
            DecideError::Syntax(e) => write!(f, "syntax error: {e}"),
        }
    }
}

impl std::error::Error for DecideError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        assert!(DecideError::ArityMismatch { q1: 1, q2: 2 }
            .to_string()
            .contains("1 vs 2"));
        let e = DecideError::Exhausted {
            reason: ExhaustReason::Deadline,
            conjuncts: 9,
            levels: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("deadline"));
    }
}

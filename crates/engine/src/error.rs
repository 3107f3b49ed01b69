//! Engine error type.

use std::error::Error;
use std::fmt;

use stencil_core::PlanError;

/// Errors produced while preparing or running a session.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Tiling or domain analysis failed.
    Plan(PlanError),
    /// The input value buffer does not match the plan's input domain.
    InputSizeMismatch {
        /// Points in the plan's input domain.
        expected: u64,
        /// Values supplied.
        got: u64,
    },
    /// A window tap reads a point outside the supplied input domain.
    MissingInput {
        /// Display form of the out-of-domain point.
        point: String,
    },
    /// A worker thread panicked; the run produced no usable output.
    WorkerPanic,
    /// The domain holds more points than this target can address — the
    /// in-core paths need one `usize`-indexed slot per point. Stream the
    /// run instead ([`crate::ExecMode::Streaming`]) or use a 64-bit
    /// target.
    DomainTooLarge {
        /// Points the failing allocation or index would need to address.
        points: u64,
    },
    /// A domain index produced rank arithmetic that contradicts itself
    /// (e.g. hand-built rows with non-contiguous bases, or a resident
    /// window that does not cover an in-domain tap).
    InconsistentIndex {
        /// What the index got wrong.
        detail: String,
    },
    /// A kernel expression could not be lowered to bytecode (tap out of
    /// range, or the expression exceeds the evaluator's fixed stack or
    /// slot capacity).
    KernelCompile {
        /// What the compiler rejected.
        detail: String,
    },
    /// The compiled bytecode disagreed with the reference closure during
    /// construction-time validation — the expression does not mirror the
    /// closure's arithmetic.
    KernelMismatch {
        /// The diverging window and values.
        detail: String,
    },
    /// The input row source failed to produce a requested row.
    Source {
        /// The source's failure message.
        detail: String,
    },
    /// The output row sink rejected a finished row.
    Sink {
        /// The sink's failure message.
        detail: String,
    },
    /// A [`crate::Session`] was configured inconsistently (a stage with
    /// no kernel, a chained stage whose input domain does not match its
    /// upstream stage's iteration domain, ...).
    Config {
        /// What the configuration got wrong.
        detail: String,
    },
    /// An `.sgrid` grid file is malformed or does not match the run.
    GridFormat(crate::format::GridFormatError),
    /// A byte stream ended before yielding the requested values — the
    /// input was truncated, possibly mid-value.
    TruncatedInput {
        /// Values the caller asked for.
        values_expected: usize,
        /// Whole values actually decoded before the stream ended.
        values_got: usize,
        /// Leftover bytes of a final partial value (0..=7).
        trailing_bytes: usize,
    },
    /// A job's grid geometry overflows shard/admission arithmetic — the
    /// requested domain cannot be sized, let alone admitted.
    JobTooLarge {
        /// The extents whose element or byte count overflowed.
        extents: Vec<i64>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "tiling failed: {e}"),
            EngineError::InputSizeMismatch { expected, got } => write!(
                f,
                "input grid has {got} values but the plan's input domain has {expected} points"
            ),
            EngineError::MissingInput { point } => {
                write!(f, "window tap reads {point}, outside the input domain")
            }
            EngineError::WorkerPanic => write!(f, "a worker thread panicked"),
            EngineError::DomainTooLarge { points } => write!(
                f,
                "domain has {points} points, more than this target can address in memory"
            ),
            EngineError::InconsistentIndex { detail } => {
                write!(f, "inconsistent domain index: {detail}")
            }
            EngineError::KernelCompile { detail } => {
                write!(f, "kernel compilation failed: {detail}")
            }
            EngineError::KernelMismatch { detail } => {
                write!(f, "compiled kernel diverges from its closure: {detail}")
            }
            EngineError::Source { detail } => write!(f, "input row source failed: {detail}"),
            EngineError::Sink { detail } => write!(f, "output row sink failed: {detail}"),
            EngineError::Config { detail } => {
                write!(f, "invalid session configuration: {detail}")
            }
            EngineError::GridFormat(e) => write!(f, "grid file rejected: {e}"),
            EngineError::TruncatedInput {
                values_expected,
                values_got,
                trailing_bytes,
            } => write!(
                f,
                "input truncated: {values_got} of {values_expected} values read, \
                 {trailing_bytes} trailing bytes of a partial value"
            ),
            EngineError::JobTooLarge { extents } => write!(
                f,
                "job too large: grid extents {extents:?} overflow size arithmetic"
            ),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Plan(e) => Some(e),
            EngineError::GridFormat(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<crate::format::GridFormatError> for EngineError {
    fn from(e: crate::format::GridFormatError) -> Self {
        EngineError::GridFormat(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::from(PlanError::NoReferences);
        assert!(e.to_string().contains("tiling failed"));
        assert!(e.source().is_some());
        assert!(EngineError::WorkerPanic.source().is_none());
        assert_eq!(
            EngineError::InputSizeMismatch {
                expected: 10,
                got: 4
            }
            .to_string(),
            "input grid has 4 values but the plan's input domain has 10 points"
        );
        assert!(EngineError::MissingInput {
            point: "(9, 9)".into()
        }
        .to_string()
        .contains("(9, 9)"));
        assert!(EngineError::DomainTooLarge { points: u64::MAX }
            .to_string()
            .contains(&u64::MAX.to_string()));
        assert!(EngineError::InconsistentIndex {
            detail: "bases invert".into()
        }
        .to_string()
        .contains("bases invert"));
        assert!(EngineError::KernelCompile {
            detail: "stack too deep".into()
        }
        .to_string()
        .contains("compilation failed"));
        assert!(EngineError::KernelMismatch {
            detail: "window [0, 1]".into()
        }
        .to_string()
        .contains("diverges"));
        assert!(EngineError::Source {
            detail: "exhausted".into()
        }
        .to_string()
        .contains("source"));
        assert!(EngineError::Sink {
            detail: "full".into()
        }
        .to_string()
        .contains("sink"));
        assert!(EngineError::Config {
            detail: "stage has no kernel".into()
        }
        .to_string()
        .contains("invalid session configuration"));
        let g = EngineError::from(crate::format::GridFormatError::BadMagic);
        assert!(g.to_string().contains("grid file rejected"));
        assert!(g.source().is_some());
        assert_eq!(
            EngineError::TruncatedInput {
                values_expected: 8,
                values_got: 3,
                trailing_bytes: 5
            }
            .to_string(),
            "input truncated: 3 of 8 values read, 5 trailing bytes of a partial value"
        );
        assert!(EngineError::JobTooLarge {
            extents: vec![i64::MAX, 2]
        }
        .to_string()
        .contains("overflow"));
    }
}

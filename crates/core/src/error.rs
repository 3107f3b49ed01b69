//! Error types for microarchitecture planning.

use std::error::Error;
use std::fmt;

use stencil_polyhedral::PolyError;

/// Errors produced while analyzing a stencil specification or planning a
/// memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The underlying polyhedral analysis failed.
    Poly(PolyError),
    /// The specification declares no array references.
    NoReferences,
    /// Two array references have identical offsets; a well-formed stencil
    /// window lists each point once.
    DuplicateOffset {
        /// Display form of the duplicated offset.
        offset: String,
    },
    /// An offset's dimensionality does not match the iteration domain's.
    DimensionMismatch {
        /// Dimensions of the iteration domain.
        domain: usize,
        /// Dimensions of the offending offset.
        offset: usize,
    },
    /// The iteration domain contains no points, so there is nothing to
    /// accelerate.
    EmptyIterationDomain,
    /// A bandwidth/memory tradeoff requested more off-chip streams than
    /// the design supports (at most `n` for an `n`-reference window).
    TooManyStreams {
        /// Streams requested.
        requested: usize,
        /// Maximum supported (number of references).
        max: usize,
    },
    /// The kernel's reuse distances change at run time (skewed grid), so
    /// a statically modulo-scheduled design is impossible; only the
    /// streaming microarchitecture handles it (§3.4.2 of the paper).
    NonConstantReuse {
        /// The kernel whose schedule cannot be static.
        kernel: String,
    },
    /// A box domain has more than `u64::MAX` points, or a row-major
    /// stride over it does not fit in 64 bits, so its ranks and reuse
    /// distances cannot be represented.
    DomainTooLarge {
        /// The box's inclusive per-dimension bounds.
        bounds: Vec<(i64, i64)>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Poly(e) => write!(f, "polyhedral analysis failed: {e}"),
            PlanError::NoReferences => write!(f, "stencil window has no array references"),
            PlanError::DuplicateOffset { offset } => {
                write!(f, "duplicate array reference offset {offset}")
            }
            PlanError::DimensionMismatch { domain, offset } => write!(
                f,
                "offset has {offset} dimensions but the iteration domain has {domain}"
            ),
            PlanError::EmptyIterationDomain => {
                write!(f, "iteration domain contains no points")
            }
            PlanError::TooManyStreams { requested, max } => write!(
                f,
                "requested {requested} off-chip streams but the window supports at most {max}"
            ),
            PlanError::NonConstantReuse { kernel } => write!(
                f,
                "kernel `{kernel}` has run-time-varying reuse distances; \
                 a static modulo schedule is impossible"
            ),
            PlanError::DomainTooLarge { bounds } => {
                let dims: Vec<String> = bounds
                    .iter()
                    .map(|(lo, hi)| format!("[{lo}, {hi}]"))
                    .collect();
                write!(
                    f,
                    "domain {} has more than 2^64 points; its ranks and reuse distances \
                     do not fit in 64 bits",
                    dims.join(" x ")
                )
            }
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Poly(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolyError> for PlanError {
    fn from(e: PolyError) -> Self {
        PlanError::Poly(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PlanError::from(PolyError::EmptyDomain);
        assert!(e.to_string().contains("polyhedral analysis failed"));
        assert!(e.source().is_some());
        assert!(PlanError::NoReferences.source().is_none());
        assert_eq!(
            PlanError::TooManyStreams {
                requested: 9,
                max: 5
            }
            .to_string(),
            "requested 9 off-chip streams but the window supports at most 5"
        );
        assert!(PlanError::DuplicateOffset {
            offset: "(0, 0)".into()
        }
        .to_string()
        .contains("(0, 0)"));
        assert_eq!(
            PlanError::DimensionMismatch {
                domain: 2,
                offset: 3
            }
            .to_string(),
            "offset has 3 dimensions but the iteration domain has 2"
        );
        assert_eq!(
            PlanError::DomainTooLarge {
                bounds: vec![(0, i64::MAX - 1), (0, 9)]
            }
            .to_string(),
            "domain [0, 9223372036854775806] x [0, 9] has more than 2^64 points; \
             its ranks and reuse distances do not fit in 64 bits"
        );
    }
}

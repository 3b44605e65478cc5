//! Error type of the exploration engine.

use std::error::Error;
use std::fmt;

/// Errors returned by grid expansion and the exploration engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// A grid axis has no values.
    EmptyAxis(&'static str),
    /// The grid expands to more points than the engine is willing to queue.
    TooManyPoints {
        /// Number of points the grid expands to, saturated at `usize::MAX`.
        points: usize,
        /// The engine's ceiling.
        max: usize,
    },
    /// A filesystem operation on the output or checkpoint failed; the
    /// message names the path and the OS error.
    Io(String),
    /// The checkpoint on disk does not belong to this grid (the grid
    /// definition changed since the interrupted run), or it is corrupt.
    Checkpoint(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::EmptyAxis(axis) => {
                write!(f, "grid axis {axis:?} has no values")
            }
            ExploreError::TooManyPoints { points, max } => {
                write!(f, "grid expands to {points} points (engine cap {max})")
            }
            ExploreError::Io(msg) => write!(f, "explore i/o error: {msg}"),
            ExploreError::Checkpoint(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl Error for ExploreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(ExploreError::EmptyAxis("capacities")
            .to_string()
            .contains("capacities"));
        let e = ExploreError::TooManyPoints {
            points: 2_000_000,
            max: 1_048_576,
        };
        assert!(e.to_string().contains("2000000"));
        assert!(ExploreError::Checkpoint("grid changed".into())
            .to_string()
            .contains("grid changed"));
    }
}

//! Core allocation errors.

use std::error::Error;
use std::fmt;

use crate::Preprocessed;

/// Errors produced while building or solving an FBB allocation problem.
#[derive(Debug)]
#[non_exhaustive]
pub enum FbbError {
    /// Invalid problem parameters (β, cluster budget, ...).
    InvalidProblem(String),
    /// The netlist/placement pair is inconsistent.
    Placement(fbb_placement::PlacementError),
    /// Timing-graph construction failed.
    Netlist(fbb_netlist::NetlistError),
    /// The ILP solver failed numerically.
    Solver(fbb_lp::LpError),
    /// No uniform bias voltage can compensate the requested slowdown
    /// (PassOne failed): the design cannot be rescued by FBB at this β.
    Uncompensable {
        /// The requested slowdown coefficient.
        beta: f64,
        /// Index ([`Preprocessed::path`]) of the *worst* constraint —
        /// the path with the largest residual shortfall when every row sits
        /// at the top of the bias ladder. `None` only for degenerate
        /// problems with an empty path set.
        worst_path: Option<usize>,
        /// That path's residual shortfall (ps) at the top of the ladder:
        /// how far it still misses `Dcrit` under maximal compensation.
        shortfall_ps: f64,
    },
}

impl FbbError {
    /// Builds the [`FbbError::Uncompensable`] diagnosis for a problem whose
    /// `PassOne` failed: identifies the path that misses `Dcrit` by the
    /// widest margin with every row at the top ladder level.
    pub(crate) fn uncompensable(pre: &Preprocessed) -> Self {
        let top = pre.levels().saturating_sub(1);
        let mut worst_path = None;
        let mut shortfall_ps = 0.0f64;
        for (k, path) in pre.paths().enumerate() {
            let reduction: f64 = path.rows().map(|(_, reds)| reds[top]).sum();
            let shortfall = path.required_reduction_ps() - reduction;
            if shortfall > shortfall_ps {
                shortfall_ps = shortfall;
                worst_path = Some(k);
            }
        }
        FbbError::Uncompensable { beta: pre.beta, worst_path, shortfall_ps }
    }
}

impl fmt::Display for FbbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FbbError::InvalidProblem(msg) => write!(f, "invalid FBB problem: {msg}"),
            FbbError::Placement(e) => write!(f, "placement error: {e}"),
            FbbError::Netlist(e) => write!(f, "netlist error: {e}"),
            FbbError::Solver(e) => write!(f, "solver error: {e}"),
            FbbError::Uncompensable { beta, worst_path, shortfall_ps } => {
                write!(
                    f,
                    "no bias voltage on the ladder compensates a slowdown of {:.1}%",
                    beta * 100.0
                )?;
                if let Some(k) = worst_path {
                    write!(
                        f,
                        " (path {k} still misses Dcrit by {shortfall_ps:.1} ps at the top of \
                         the ladder)"
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl Error for FbbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FbbError::Placement(e) => Some(e),
            FbbError::Netlist(e) => Some(e),
            FbbError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fbb_placement::PlacementError> for FbbError {
    fn from(e: fbb_placement::PlacementError) -> Self {
        FbbError::Placement(e)
    }
}

impl From<fbb_netlist::NetlistError> for FbbError {
    fn from(e: fbb_netlist::NetlistError) -> Self {
        FbbError::Netlist(e)
    }
}

impl From<fbb_lp::LpError> for FbbError {
    fn from(e: fbb_lp::LpError) -> Self {
        FbbError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e =
            FbbError::Uncompensable { beta: 0.25, worst_path: Some(4), shortfall_ps: 12.34 };
        assert!(e.to_string().contains("25.0%"));
        assert!(e.to_string().contains("path 4"));
        assert!(e.to_string().contains("12.3 ps"));
        assert!(e.source().is_none());
        let e: FbbError = fbb_lp::LpError::IterationLimit.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn display_without_path_diagnosis() {
        let e = FbbError::Uncompensable { beta: 0.25, worst_path: None, shortfall_ps: 0.0 };
        assert!(e.to_string().contains("25.0%"));
        assert!(!e.to_string().contains("path"));
    }

    #[test]
    fn uncompensable_diagnosis_picks_the_worst_path() {
        // Two paths; at the top level (index 1) path 0 recovers 4 of 10 ps
        // (shortfall 6) and path 1 recovers 8 of 9 ps (shortfall 1).
        let mut builder = Preprocessed::builder(2, vec![1.0, 2.0], vec![1.0]).unwrap();
        builder.push_path(110.0, 10.0, 91.0, &[0], &[0.0, 4.0]).unwrap();
        builder.push_path(109.0, 9.0, 90.0, &[0], &[0.0, 8.0]).unwrap();
        let pre = builder.into_problem(0.2, 1, 100.0);
        match FbbError::uncompensable(&pre) {
            FbbError::Uncompensable { worst_path, shortfall_ps, .. } => {
                assert_eq!(worst_path, Some(0));
                assert!((shortfall_ps - 6.0).abs() < 1e-9);
            }
            other => panic!("wrong variant: {other}"),
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FbbError>();
    }
}

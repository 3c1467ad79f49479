//! The block-level single-voltage baseline ("Single BB" in Table 1).

use crate::{pass_one, ClusterSolution, FbbError, Preprocessed};

/// Block-level FBB as applied by prior work ([Tschanz'02] and friends): the
/// whole block receives one bias voltage, found by `PassOne`. Table 1's
/// `Single BB` column is this solution's leakage; every savings number in
/// the paper is measured against it.
///
/// # Errors
///
/// Returns [`FbbError::Uncompensable`] when no ladder voltage compensates β.
pub fn single_bb(pre: &Preprocessed) -> Result<ClusterSolution, FbbError> {
    let jopt = pass_one(pre).ok_or_else(|| FbbError::uncompensable(pre))?;
    Ok(ClusterSolution::from_assignment(pre, vec![jopt; pre.n_rows()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FbbProblem;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn pre(beta: f64) -> Preprocessed {
        let nl = generators::ripple_adder("a32", 32, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(8)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, beta, 3).unwrap().preprocess().unwrap()
    }

    #[test]
    fn single_bb_is_uniform_and_feasible() {
        let s = single_bb(&pre(0.05)).unwrap();
        assert_eq!(s.clusters, 1);
        assert!(s.meets_timing);
        assert!(s.assignment.iter().all(|&l| l == s.assignment[0]));
    }

    #[test]
    fn higher_beta_needs_higher_voltage_and_leaks_more() {
        let s5 = single_bb(&pre(0.05)).unwrap();
        let s10 = single_bb(&pre(0.10)).unwrap();
        assert!(s10.assignment[0] > s5.assignment[0]);
        assert!(s10.leakage_nw > s5.leakage_nw);
    }
}

//! The multi-block tuning architecture of paper Fig. 2.
//!
//! A central body-bias generator serves several circuit blocks. Each block
//! raises a timing-violation flag `Tc_i` (from its sensors) with its own
//! measured slowdown; the tuner runs the clustered allocation per block and
//! reports which voltages the generator must distribute to each one.

use crate::{ClusterSolution, FbbError, Preprocessed, TwoPassHeuristic};

/// One block's tuning request: its pre-processed problem and the sensed
/// slowdown flag.
#[derive(Debug, Clone)]
pub struct BlockRequest {
    /// Block name (for reports).
    pub name: String,
    /// Pre-processed problem (already built at the block's measured β).
    pub pre: Preprocessed,
    /// Whether the block's timing sensor raised `Tc` (blocks without a
    /// violation are left at NBB and cost nothing).
    pub tc_flag: bool,
}

/// Per-block outcome of a tuning pass.
#[derive(Debug, Clone)]
pub struct BlockTuning {
    /// Block name.
    pub name: String,
    /// The allocation (all-NBB when `Tc` was not raised).
    pub solution: ClusterSolution,
    /// Distinct nonzero voltages the central generator must route to this
    /// block (the paper's `vbs_i1`, `vbs_i2`).
    pub bias_levels: Vec<usize>,
}

/// Runs the Fig. 2 tuning loop over all blocks with the two-pass heuristic.
///
/// # Errors
///
/// Returns [`FbbError::Uncompensable`] if a flagged block cannot be rescued
/// at its measured β.
pub fn tune_blocks(blocks: &[BlockRequest]) -> Result<Vec<BlockTuning>, FbbError> {
    let heuristic = TwoPassHeuristic;
    blocks
        .iter()
        .map(|b| {
            let solution = if b.tc_flag {
                heuristic.solve(&b.pre)?
            } else {
                ClusterSolution::from_assignment(
                    &b.pre,
                    vec![0; b.pre.n_rows()],
                    "nbb",
                    std::time::Duration::ZERO,
                )
            };
            let mut bias_levels: Vec<usize> =
                solution.assignment.iter().copied().filter(|&l| l > 0).collect();
            bias_levels.sort_unstable();
            bias_levels.dedup();
            Ok(BlockTuning { name: b.name.clone(), solution, bias_levels })
        })
        .collect()
}

/// Result of a shared-ladder tuning pass: the global voltage menu plus the
/// per-block outcomes.
#[derive(Debug, Clone)]
pub struct SharedTuning {
    /// Nonzero ladder levels the central generator must produce (≤ the
    /// requested channel count).
    pub global_levels: Vec<usize>,
    /// Per-block results.
    pub blocks: Vec<BlockTuning>,
    /// Total leakage across flagged blocks.
    pub total_leakage_nw: f64,
}

/// Tunes all blocks against a **shared** central generator that can produce
/// at most `max_global_voltages` distinct nonzero levels for the whole chip
/// (Fig. 2's generator has a fixed number of output channels; per-block
/// routing still limits each block to its own `C`).
///
/// Greedy menu selection: start from the union of the levels the blocks
/// would pick independently, then while over budget drop the level whose
/// removal costs the least total leakage (re-solving affected blocks
/// restricted to the shrunken menu).
///
/// # Errors
///
/// Returns [`FbbError::Uncompensable`] if some flagged block cannot be
/// rescued even with the full ladder.
pub fn tune_blocks_shared(
    blocks: &[BlockRequest],
    max_global_voltages: usize,
) -> Result<SharedTuning, FbbError> {
    let heuristic = TwoPassHeuristic;
    // Start from independent solutions to harvest candidate levels.
    let independent = tune_blocks(blocks)?;
    let mut menu: Vec<usize> = independent
        .iter()
        .flat_map(|t| t.bias_levels.iter().copied())
        .collect();
    menu.sort_unstable();
    menu.dedup();

    let solve_all = |menu: &[usize]| -> Result<(Vec<BlockTuning>, f64), FbbError> {
        let mut allowed: Vec<usize> = menu.to_vec();
        allowed.push(0); // NBB is always available
        let mut tuned = Vec::with_capacity(blocks.len());
        let mut total = 0.0;
        for b in blocks {
            let solution = if b.tc_flag {
                heuristic.solve_restricted(&b.pre, &allowed)?
            } else {
                ClusterSolution::from_assignment(
                    &b.pre,
                    vec![0; b.pre.n_rows()],
                    "nbb",
                    std::time::Duration::ZERO,
                )
            };
            total += solution.leakage_nw;
            let mut levels: Vec<usize> =
                solution.assignment.iter().copied().filter(|&l| l > 0).collect();
            levels.sort_unstable();
            levels.dedup();
            tuned.push(BlockTuning { name: b.name.clone(), solution, bias_levels: levels });
        }
        Ok((tuned, total))
    };

    while menu.len() > max_global_voltages {
        // Drop the cheapest-to-lose level; removals that make a block
        // uncompensable are not eligible.
        let mut best: Option<(usize, f64, Vec<BlockTuning>)> = None;
        for (i, _) in menu.iter().enumerate() {
            let mut candidate = menu.clone();
            candidate.remove(i);
            if let Ok((tuned, total)) = solve_all(&candidate) {
                if best.as_ref().is_none_or(|&(_, t, _)| total < t) {
                    best = Some((i, total, tuned));
                }
            }
        }
        let Some((drop_idx, _, _)) = best else {
            // No level can be removed without losing a block: the menu is
            // already as small as feasibility allows.
            break;
        };
        menu.remove(drop_idx);
    }

    let (tuned, total) = solve_all(&menu)?;
    // Recompute the actually used levels (some menu entries may go unused).
    let mut used: Vec<usize> = tuned.iter().flat_map(|t| t.bias_levels.iter().copied()).collect();
    used.sort_unstable();
    used.dedup();
    Ok(SharedTuning { global_levels: used, blocks: tuned, total_leakage_nw: total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FbbProblem;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn pre(beta: f64) -> Preprocessed {
        let nl = generators::ripple_adder("a16", 16, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(4)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, beta, 3).unwrap().preprocess().unwrap()
    }

    #[test]
    fn unflagged_blocks_stay_at_nbb() {
        let blocks = vec![
            BlockRequest { name: "fast".into(), pre: pre(0.05), tc_flag: false },
            BlockRequest { name: "slow".into(), pre: pre(0.05), tc_flag: true },
        ];
        let tuned = tune_blocks(&blocks).unwrap();
        assert!(tuned[0].bias_levels.is_empty());
        assert!(tuned[0].solution.assignment.iter().all(|&l| l == 0));
        assert!(!tuned[1].bias_levels.is_empty());
        assert!(tuned[1].solution.meets_timing);
    }

    #[test]
    fn per_block_voltage_count_fits_generator() {
        let blocks: Vec<BlockRequest> = (0..4)
            .map(|i| BlockRequest {
                name: format!("block{i}"),
                pre: pre(if i % 2 == 0 { 0.05 } else { 0.10 }),
                tc_flag: true,
            })
            .collect();
        let tuned = tune_blocks(&blocks).unwrap();
        for t in &tuned {
            // The layout style routes at most two nonzero voltages per block.
            assert!(t.bias_levels.len() <= 2, "{}: {:?}", t.name, t.bias_levels);
        }
    }

    #[test]
    fn shared_menu_respects_the_channel_budget() {
        let blocks: Vec<BlockRequest> = [(0.04, 1u64), (0.06, 2), (0.08, 3), (0.05, 4)]
            .iter()
            .map(|&(beta, i)| BlockRequest {
                name: format!("b{i}"),
                pre: pre(beta),
                tc_flag: true,
            })
            .collect();
        let independent = tune_blocks(&blocks).unwrap();
        let independent_levels: std::collections::BTreeSet<usize> =
            independent.iter().flat_map(|t| t.bias_levels.iter().copied()).collect();
        let independent_total: f64 =
            independent.iter().map(|t| t.solution.leakage_nw).sum();

        let budget = 2;
        let shared = tune_blocks_shared(&blocks, budget).unwrap();
        assert!(shared.global_levels.len() <= budget.max(independent_levels.len().min(budget)));
        assert!(shared.global_levels.len() <= independent_levels.len());
        for t in &shared.blocks {
            assert!(t.solution.meets_timing, "{}", t.name);
            for l in &t.bias_levels {
                assert!(shared.global_levels.contains(l), "{} uses off-menu level {l}", t.name);
            }
        }
        // Restricting the menu can only cost leakage.
        assert!(shared.total_leakage_nw + 1e-9 >= independent_total);
    }

    #[test]
    fn generous_budget_matches_independent_tuning() {
        let blocks: Vec<BlockRequest> = [(0.05, 7u64), (0.08, 8)]
            .iter()
            .map(|&(beta, i)| BlockRequest {
                name: format!("b{i}"),
                pre: pre(beta),
                tc_flag: true,
            })
            .collect();
        let independent = tune_blocks(&blocks).unwrap();
        let independent_total: f64 = independent.iter().map(|t| t.solution.leakage_nw).sum();
        let shared = tune_blocks_shared(&blocks, 11).unwrap();
        assert!((shared.total_leakage_nw - independent_total).abs() < 1e-6);
    }

    #[test]
    fn uncompensable_block_is_an_error() {
        let blocks =
            vec![BlockRequest { name: "dead".into(), pre: pre(0.30), tc_flag: true }];
        assert!(matches!(tune_blocks(&blocks), Err(FbbError::Uncompensable { .. })));
    }
}

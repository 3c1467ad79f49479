//! Property tests: placement legality and layout-model invariants over
//! random circuits and options.

use fbb_device::{BiasLadder, Library};
use fbb_netlist::generators::{random_logic, RandomLogicOptions};
use fbb_placement::layout::{self, MAX_BIAS_VOLTAGES};
use fbb_placement::{PlacementOrder, Placer, PlacerOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn placements_are_always_legal(
        seed in 0u64..10_000,
        gates in 60usize..400,
        rows in 2u32..16,
        anneal in prop_oneof![Just(0usize), Just(2_000usize)],
        timing_driven in any::<bool>(),
        natural in any::<bool>(),
    ) {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: gates,
                n_inputs: 8,
                seed,
                registered: false,
                locality_window: 16,
            },
        )
        .expect("valid generator");
        let placer = Placer::new(PlacerOptions {
            target_rows: Some(rows),
            anneal_moves: anneal,
            timing_driven,
            order: if natural { PlacementOrder::Natural } else { PlacementOrder::Cone },
        });
        let placement = placer.place(&nl, &Library::date09_45nm()).expect("placeable");
        placement.validate(&nl).expect("legal placement");
        prop_assert_eq!(placement.row_count(), rows as usize);
        // Every gate has in-bounds coordinates.
        for (id, _) in nl.iter_gates() {
            let (x, y) = placement.position_um(id);
            prop_assert!(x >= 0.0 && x <= placement.die().width_um() + 1e-9);
            prop_assert!(y >= 0.0 && y <= placement.die().height_um() + 1e-9);
        }
    }

    #[test]
    fn layout_analysis_invariants(
        seed in 0u64..5_000,
        levels in proptest::collection::vec(0usize..11, 6),
    ) {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: 150,
                n_inputs: 8,
                seed,
                registered: false,
                locality_window: 16,
            },
        )
        .expect("valid generator");
        let placement = Placer::new(PlacerOptions::with_target_rows(6))
            .place(&nl, &Library::date09_45nm())
            .expect("placeable");
        let ladder = BiasLadder::date09().expect("valid ladder");

        let mut distinct: Vec<usize> = levels.iter().copied().filter(|&l| l > 0).collect();
        distinct.sort_unstable();
        distinct.dedup();

        match layout::analyze(&placement, &ladder, &levels) {
            Ok(analysis) => {
                prop_assert!(distinct.len() <= MAX_BIAS_VOLTAGES);
                prop_assert_eq!(analysis.bias_voltages, distinct.len());
                prop_assert_eq!(analysis.bias_lines, 2 * distinct.len());
                // Separation count is bounded by row boundaries.
                prop_assert!(analysis.well_separations < placement.row_count());
                prop_assert!(analysis.added_area_um2 >= 0.0);
                // Contact cells appear exactly on biased rows.
                for (r, &level) in levels.iter().enumerate() {
                    prop_assert_eq!(analysis.contact_sites[r] > 0, level > 0);
                }
            }
            Err(_) => {
                // Only the voltage-count limit may reject a well-formed query.
                prop_assert!(distinct.len() > MAX_BIAS_VOLTAGES);
            }
        }
    }

    #[test]
    fn gate_level_layout_costs_at_least_as_much_as_row_level(
        seed in 0u64..5_000,
        row_levels in proptest::collection::vec(prop_oneof![Just(0usize), Just(5usize)], 6),
    ) {
        let nl = random_logic(
            "p",
            &RandomLogicOptions {
                target_gates: 150,
                n_inputs: 8,
                seed,
                registered: false,
                locality_window: 16,
            },
        )
        .expect("valid generator");
        let placement = Placer::new(PlacerOptions::with_target_rows(6))
            .place(&nl, &Library::date09_45nm())
            .expect("placeable");
        let ladder = BiasLadder::date09().expect("valid ladder");

        // A row-uniform gate assignment must cost the same as the row view:
        // no intra-row separations can appear.
        let gate_assignment: Vec<usize> = (0..nl.gate_count())
            .map(|i| {
                let row = placement.row_of(fbb_netlist::GateId::from_index(i)).index();
                row_levels[row]
            })
            .collect();
        let row_view = layout::analyze(&placement, &ladder, &row_levels).expect("<=1 voltage");
        let gate_view =
            layout::analyze_gate_level(&placement, &ladder, &gate_assignment).expect("covers gates");
        prop_assert_eq!(gate_view.intra_row_separations, 0);
        prop_assert_eq!(gate_view.bias_voltages, row_view.bias_voltages);
        prop_assert!(gate_view.row_separations >= row_view.well_separations);
    }
}

//! Design preparation, one layer call at a time so each can be traced:
//! netlist generation, placement, device characterization, and (for the
//! daemon) the compiled `.fbb` image.

use fbb_core::Granularity;
use fbb_db::DesignDb;
use fbb_device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb_netlist::{compose, suite, ComposeOptions, Netlist};
use fbb_placement::{tile, Placement, PlacementOrder, Placer, PlacerOptions};

use crate::trace::Tracer;

/// A placed, characterized design.
pub struct Design {
    /// Design name.
    pub name: &'static str,
    /// Gate-level netlist.
    pub netlist: Netlist,
    /// Row placement.
    pub placement: Placement,
    /// Cell characterization at every bias level.
    pub chara: Characterization,
}

fn characterize(library: &Library, tr: &mut Tracer) -> Characterization {
    tr.time("device.characterize", 0, || {
        library.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().expect("the paper's ladder is valid"),
        )
    })
}

/// A Table 1 design at its paper row count, prepared exactly as
/// `fbb_bench::prepare_design` does (pinned by a test), but with the
/// netlist, placement and device layers timed separately.
pub fn table1(name: &'static str, tr: &mut Tracer) -> Design {
    let stats = suite::PAPER_TABLE1
        .iter()
        .find(|s| s.name == name)
        .expect("a Table 1 design");
    let netlist = tr.time("netlist.build", 0, || {
        suite::generate(name).expect("a suite design")
    });
    let library = Library::date09_45nm();
    let gridlike = matches!(name, "c6288" | "adder_128bits");
    let options = PlacerOptions {
        target_rows: Some(stats.rows as u32),
        anneal_moves: 40_000.min(netlist.gate_count() * 4),
        timing_driven: !gridlike,
        order: if gridlike {
            PlacementOrder::Natural
        } else {
            PlacementOrder::Cone
        },
        ..PlacerOptions::default()
    };
    let placement = tr.time("placement.place", 0, || {
        Placer::new(options)
            .place(&netlist, &library)
            .expect("paper row counts are placeable")
    });
    let chara = characterize(&library, tr);
    Design {
        name,
        netlist,
        placement,
        chara,
    }
}

/// The hierarchical composition of `target` gates, tiled into `rows` rows,
/// as `fbb sweep --compose` builds it.
pub fn composed(target: usize, rows: u32, tr: &mut Tracer) -> Design {
    let netlist = tr.time("netlist.build", 0, || {
        compose("composed", &ComposeOptions::with_target(target))
            .expect("composition succeeds")
            .netlist
    });
    let library = Library::date09_45nm();
    let placement = tr.time("placement.place", 0, || {
        tile(&netlist, &library, rows).expect("tiling succeeds")
    });
    let chara = characterize(&library, tr);
    Design {
        name: "composed",
        netlist,
        placement,
        chara,
    }
}

/// Compiles `design` at `betas` (row granularity, C = 3) to its `.fbb`
/// bytes, as `fbb compile` does.
pub fn compile(design: &Design, betas: &[f64], tr: &mut Tracer) -> Vec<u8> {
    tr.time("db.build", 0, || {
        DesignDb::build(
            &format!("generated {}", design.name),
            &design.netlist,
            &design.placement,
            &design.chara,
            betas,
            &[Granularity::Row],
            3,
        )
        .expect("suite designs compile")
        .encode_to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_preparation_matches_the_bench_harness() {
        for name in ["c1355", "c6288", "Industrial1"] {
            let mine = table1(name, &mut Tracer::new(false));
            let theirs = fbb_bench::prepare_design(name);
            assert!(mine.netlist == theirs.netlist, "{name}: netlist");
            assert!(mine.placement == theirs.placement, "{name}: placement");
            assert!(
                mine.chara == theirs.characterization,
                "{name}: characterization"
            );
        }
    }

    #[test]
    fn layer_spans_are_recorded_when_tracing() {
        let mut tr = Tracer::new(true);
        let d = table1("c1355", &mut tr);
        assert!(d.netlist.gate_count() > 0);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["netlist.build", "placement.place", "device.characterize"]
        );
    }
}

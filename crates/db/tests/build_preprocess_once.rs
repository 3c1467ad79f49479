//! Pins how much of the pre-LP pipeline `DesignDb::build` shares: one
//! timing graph and one nominal analysis for the whole database, and one
//! pre-process pass per granularity that builds every β's entry on shared
//! β-independent tables.
//!
//! Its own test binary, because the telemetry sink is process-global.

use fbb_core::Granularity;
use fbb_db::DesignDb;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};

#[test]
fn build_shares_the_analysis_and_preprocesses_once_per_granularity() {
    let netlist = generators::ripple_adder("a24", 24, false).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(6))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    let betas = [0.03, 0.05, 0.10];
    let granularities = [Granularity::Row, Granularity::Block];

    fbb_telemetry::enable();
    fbb_telemetry::reset();
    let db = DesignDb::build("t", &netlist, &placement, &chara, &betas, &granularities, 3)
        .expect("a valid design builds");
    let snap = fbb_telemetry::snapshot();
    fbb_telemetry::disable();
    fbb_telemetry::reset();

    assert_eq!(db.entries.len(), betas.len() * granularities.len());
    let spans = |name: &str| snap.spans.get(name).map_or(0, |s| s.count);
    assert_eq!(spans("sta_graph_build"), 1);
    assert_eq!(snap.counter("sta_full_analyses"), Some(1));
    assert_eq!(spans("core_preprocess"), granularities.len() as u64);
}

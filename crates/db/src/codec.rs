//! Per-type wire codecs: how each domain structure maps to section bytes.
//!
//! Encoders walk the public accessors of each type; decoders rebuild
//! through the validating `from_parts`-style constructors the domain crates
//! expose, so a decoded value always satisfies the same invariants as a
//! freshly built one. Field order within each structure is fixed by
//! `docs/FORMAT.md` §4–6 and must never change within a format version.

use fbb_core::{FbbError, Granularity, Preprocessed};
use fbb_device::{
    BiasLadder, BiasVoltage, BodyBiasModel, BodyBiasParams, Cell, CellData, CellKind,
    Characterization, DriveStrength, Library,
};
use fbb_netlist::{Gate, GateId, Net, NetId, Netlist};
use fbb_placement::{Die, PlacedGate, Placement, Row, RowId};
use fbb_sta::TimingPath;

use crate::wire::{Decoder, Encoder};
use crate::DbError;

fn malformed(msg: String) -> DbError {
    DbError::Malformed(msg)
}

// ---------------------------------------------------------------------------
// Cells

fn encode_cell(e: &mut Encoder, cell: Cell) {
    e.u8(u8::try_from(cell.kind.index()).expect("cell kind tables hold fewer than 256 entries"));
    e.u8(u8::try_from(cell.drive.index()).expect("drive tables hold fewer than 256 entries"));
}

fn decode_cell(d: &mut Decoder<'_>) -> Result<Cell, DbError> {
    let kind = d.u8("cell kind")?;
    let drive = d.u8("cell drive")?;
    let kind = *CellKind::ALL
        .get(usize::from(kind))
        .ok_or_else(|| malformed(format!("cell kind {kind} out of range")))?;
    let drive = *DriveStrength::ALL
        .get(usize::from(drive))
        .ok_or_else(|| malformed(format!("drive strength {drive} out of range")))?;
    Ok(Cell::new(kind, drive))
}

// ---------------------------------------------------------------------------
// META

/// Encodes the metadata section: design name and a free-form source string.
pub fn encode_meta(name: &str, source: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(name);
    e.str(source);
    e.into_vec()
}

/// Decodes the metadata section.
pub fn decode_meta(bytes: &[u8]) -> Result<(String, String), DbError> {
    let mut d = Decoder::new(bytes);
    let name = d.str("design name")?;
    let source = d.str("design source")?;
    d.expect_end("META")?;
    Ok((name, source))
}

// ---------------------------------------------------------------------------
// NETL

/// Encodes the netlist section.
pub fn encode_netlist(nl: &Netlist) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(nl.name());
    e.length(nl.gate_count());
    for gate in nl.gates() {
        encode_cell(&mut e, gate.cell);
        for &input in &gate.inputs {
            e.varint(input.index() as u64);
        }
        e.varint(gate.output.index() as u64);
    }
    e.length(nl.net_count());
    for net in nl.nets() {
        e.str(&net.name);
        // 0 = primary input, otherwise driver gate id + 1.
        e.varint(net.driver.map_or(0, |g| g.index() as u64 + 1));
        e.length(net.sinks.len());
        for &sink in &net.sinks {
            e.varint(sink.index() as u64);
        }
    }
    e.length(nl.inputs().len());
    for &pi in nl.inputs() {
        e.varint(pi.index() as u64);
    }
    e.length(nl.outputs().len());
    for &po in nl.outputs() {
        e.varint(po.index() as u64);
    }
    e.into_vec()
}

fn id_u32(raw: u64, what: &str) -> Result<u32, DbError> {
    u32::try_from(raw).map_err(|_| malformed(format!("{what} {raw} exceeds the u32 id space")))
}

/// Reads a varint that is an id or a budget, not an element count, so it
/// gets none of [`Decoder::length`]'s byte-count plausibility check; its
/// reader checks it against its own limit.
fn varint_usize(d: &mut Decoder<'_>, context: &'static str) -> Result<usize, DbError> {
    let raw = d.varint(context)?;
    usize::try_from(raw).map_err(|_| malformed(format!("{context} {raw} overflows usize")))
}

/// Decodes the netlist section, rebuilding through
/// [`Netlist::from_parts`]'s full cross-reference validation.
pub fn decode_netlist(bytes: &[u8]) -> Result<Netlist, DbError> {
    let mut d = Decoder::new(bytes);
    let name = d.str("netlist name")?;
    let n_gates = d.length(3, "gate table")?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let cell = decode_cell(&mut d)?;
        let arity = cell.kind.input_count();
        let mut inputs = Vec::with_capacity(arity);
        for _ in 0..arity {
            inputs.push(NetId::from_u32(id_u32(d.varint("gate input net")?, "net id")?));
        }
        let output = NetId::from_u32(id_u32(d.varint("gate output net")?, "net id")?);
        gates.push(Gate { cell, inputs, output });
    }
    let n_nets = d.length(3, "net table")?;
    let mut nets = Vec::with_capacity(n_nets);
    for _ in 0..n_nets {
        let net_name = d.str("net name")?;
        let driver_raw = d.varint("net driver")?;
        let driver = if driver_raw == 0 {
            None
        } else {
            Some(GateId::from_u32(id_u32(driver_raw - 1, "gate id")?))
        };
        let n_sinks = d.length(1, "net sink list")?;
        let mut sinks = Vec::with_capacity(n_sinks);
        for _ in 0..n_sinks {
            sinks.push(GateId::from_u32(id_u32(d.varint("net sink")?, "gate id")?));
        }
        nets.push(Net { name: net_name, driver, sinks });
    }
    let n_inputs = d.length(1, "primary inputs")?;
    let mut inputs = Vec::with_capacity(n_inputs);
    for _ in 0..n_inputs {
        inputs.push(NetId::from_u32(id_u32(d.varint("primary input")?, "net id")?));
    }
    let n_outputs = d.length(1, "primary outputs")?;
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        outputs.push(NetId::from_u32(id_u32(d.varint("primary output")?, "net id")?));
    }
    d.expect_end("NETL")?;
    Netlist::from_parts(name, gates, nets, inputs, outputs)
        .map_err(|e| malformed(format!("netlist: {e}")))
}

// ---------------------------------------------------------------------------
// PLAC

/// Encodes the placement section.
pub fn encode_placement(p: &Placement) -> Vec<u8> {
    let mut e = Encoder::new();
    let die = p.die();
    e.f64(die.site_width_um);
    e.f64(die.row_height_um);
    e.u32(die.sites_per_row);
    e.u32(die.rows);
    e.length(p.rows().len());
    for row in p.rows() {
        e.length(row.gates.len());
        for &g in &row.gates {
            e.varint(g.index() as u64);
        }
        e.u32(row.used_sites);
    }
    // Per-gate records, indexed by GateId.
    let n_gates: usize = p.rows().iter().map(|r| r.gates.len()).sum();
    e.length(n_gates);
    for i in 0..n_gates {
        let pg = p.placed_gate(GateId::from_index(i));
        e.varint(pg.row.index() as u64);
        e.u32(pg.site);
        e.u32(pg.width_sites);
    }
    e.into_vec()
}

/// Decodes the placement section through [`Placement::from_parts`].
/// Cross-validation against the netlist happens at the database level.
pub fn decode_placement(bytes: &[u8]) -> Result<Placement, DbError> {
    let mut d = Decoder::new(bytes);
    let die = Die {
        site_width_um: d.f64("die site width")?,
        row_height_um: d.f64("die row height")?,
        sites_per_row: d.u32("die sites per row")?,
        rows: d.u32("die row count")?,
    };
    if die.site_width_um <= 0.0 || die.row_height_um <= 0.0 || die.sites_per_row == 0 {
        return Err(malformed("die geometry is not physical".into()));
    }
    let n_rows = d.length(5, "row table")?;
    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let n_in_row = d.length(1, "row gate list")?;
        let mut row_gates = Vec::with_capacity(n_in_row);
        for _ in 0..n_in_row {
            row_gates.push(GateId::from_u32(id_u32(d.varint("row gate")?, "gate id")?));
        }
        let used_sites = d.u32("row used sites")?;
        let row_id = id_u32(u64::try_from(i).unwrap_or(u64::MAX), "row id")?;
        rows.push(Row { id: RowId::from_u32(row_id), gates: row_gates, used_sites });
    }
    let n_gates = d.length(9, "placed gate table")?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let row = RowId::from_u32(id_u32(d.varint("gate row")?, "row id")?);
        let site = d.u32("gate site")?;
        let width_sites = d.u32("gate width")?;
        gates.push(PlacedGate { row, site, width_sites });
    }
    d.expect_end("PLAC")?;
    Placement::from_parts(die, rows, gates).map_err(|e| malformed(format!("placement: {e}")))
}

// ---------------------------------------------------------------------------
// CHAR

/// Encodes the characterization inputs: nominal library, bias-model
/// parameters, and the bias ladder. The derived delay/leakage tables are
/// *not* stored — [`decode_characterization`] re-runs
/// [`Library::characterize`], which is deterministic IEEE-754 arithmetic,
/// so the rebuilt tables are bit-identical at a fraction of the bytes.
pub fn encode_characterization(c: &Characterization) -> Vec<u8> {
    let mut e = Encoder::new();
    let table = c.library().cell_table();
    e.length(table.len());
    for data in table {
        e.f64(data.delay_ps);
        e.f64(data.leakage_nw);
        e.u32(data.width_sites);
    }
    let p = c.model().params();
    e.f64(p.speedup_per_volt);
    e.f64(p.leakage_alpha);
    e.f64(p.vdd);
    e.u32(p.usable_max_mv);
    e.f64(p.junction_knee);
    e.f64(p.junction_slope);
    e.length(c.ladder().len());
    for (_, v) in c.ladder().iter() {
        e.varint(u64::from(v.millivolts()));
    }
    e.into_vec()
}

/// Decodes the characterization section and rebuilds the full table.
pub fn decode_characterization(bytes: &[u8]) -> Result<Characterization, DbError> {
    let mut d = Decoder::new(bytes);
    let n_cells = d.length(20, "cell table")?;
    let mut table = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        table.push(CellData {
            delay_ps: d.f64("cell delay")?,
            leakage_nw: d.f64("cell leakage")?,
            width_sites: d.u32("cell width")?,
        });
    }
    let library = Library::from_cell_table(table).map_err(|e| malformed(format!("library: {e}")))?;
    let params = BodyBiasParams {
        speedup_per_volt: d.f64("model speedup slope")?,
        leakage_alpha: d.f64("model leakage alpha")?,
        vdd: d.f64("model vdd")?,
        usable_max_mv: d.u32("model usable max")?,
        junction_knee: d.f64("model junction knee")?,
        junction_slope: d.f64("model junction slope")?,
    };
    let model =
        BodyBiasModel::from_params(params).map_err(|e| malformed(format!("bias model: {e}")))?;
    let n_levels = d.length(1, "bias ladder")?;
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let mv = id_u32(d.varint("ladder level")?, "bias millivolts")?;
        levels.push(BiasVoltage::from_millivolts(mv));
    }
    d.expect_end("CHAR")?;
    let ladder = BiasLadder::from_levels(levels).map_err(|e| malformed(format!("ladder: {e}")))?;
    Ok(library.characterize(&model, &ladder))
}

// ---------------------------------------------------------------------------
// TIMG

/// Encodes the timing section: the exact per-gate STA input delays, the
/// resulting critical delay, and the extracted critical path set.
pub fn encode_timing(delays_ps: &[f64], dcrit_ps: f64, paths: &[TimingPath]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.length(delays_ps.len());
    for &dly in delays_ps {
        e.f64(dly);
    }
    e.f64(dcrit_ps);
    e.length(paths.len());
    for path in paths {
        e.f64(path.delay_ps);
        e.length(path.gates.len());
        for &g in &path.gates {
            e.varint(g.index() as u64);
        }
    }
    e.into_vec()
}

/// Decodes the timing section. `gate_count` comes from the already-decoded
/// netlist; every stored gate id is checked against it, and every stored
/// path delay is checked against the sum of its gates' delays
/// ([`TimingPath::delay_from`]), so the three tables cannot drift apart
/// undetected.
pub fn decode_timing(
    bytes: &[u8],
    gate_count: usize,
) -> Result<(Vec<f64>, f64, Vec<TimingPath>), DbError> {
    let mut d = Decoder::new(bytes);
    let n_delays = d.length(8, "delay table")?;
    if n_delays != gate_count {
        return Err(malformed(format!(
            "delay table covers {n_delays} gates, netlist has {gate_count}"
        )));
    }
    let mut delays = Vec::with_capacity(n_delays);
    for _ in 0..n_delays {
        let dly = d.f64("gate delay")?;
        if dly <= 0.0 {
            return Err(malformed(format!("gate delay {dly} ps is not physical")));
        }
        delays.push(dly);
    }
    let dcrit_ps = d.f64("critical delay")?;
    if dcrit_ps <= 0.0 {
        return Err(malformed(format!("critical delay {dcrit_ps} ps is not physical")));
    }
    let n_paths = d.length(9, "path table")?;
    let mut paths = Vec::with_capacity(n_paths);
    for k in 0..n_paths {
        let delay_ps = d.f64("path delay")?;
        let n_gates = d.length(1, "path gate list")?;
        let mut gates = Vec::with_capacity(n_gates);
        for _ in 0..n_gates {
            let id = id_u32(d.varint("path gate")?, "gate id")?;
            let g = usize::try_from(id)
                .map_err(|_| malformed(format!("gate id {id} exceeds the platform index space")))?;
            if g >= gate_count {
                return Err(malformed(format!(
                    "path {k} references gate g{g}, netlist has {gate_count}"
                )));
            }
            gates.push(GateId::from_u32(id));
        }
        let path = TimingPath { gates, delay_ps };
        if path.is_empty() {
            return Err(malformed(format!("path {k} has no gates")));
        }
        let derived = path.delay_from(&delays);
        if (derived - delay_ps).abs() > 1e-6 * delay_ps.abs().max(1.0) {
            return Err(malformed(format!(
                "path {k} stores {delay_ps} ps but its gates sum to {derived} ps"
            )));
        }
        paths.push(path);
    }
    d.expect_end("TIMG")?;
    Ok((delays, dcrit_ps, paths))
}

// ---------------------------------------------------------------------------
// PREP

fn granularity_tag(g: Granularity) -> u8 {
    match g {
        Granularity::Block => 0,
        Granularity::Row => 1,
        Granularity::Gate => 2,
    }
}

fn granularity_from_tag(tag: u8) -> Result<Granularity, DbError> {
    match tag {
        0 => Ok(Granularity::Block),
        1 => Ok(Granularity::Row),
        2 => Ok(Granularity::Gate),
        other => Err(malformed(format!("granularity tag {other} out of range"))),
    }
}

fn encode_preprocessed(e: &mut Encoder, granularity: Granularity, pre: &Preprocessed) {
    e.u8(granularity_tag(granularity));
    e.length(pre.n_rows());
    e.length(pre.levels());
    e.f64(pre.beta);
    e.length(pre.max_clusters);
    e.f64(pre.dcrit_ps);
    for row in 0..pre.n_rows() {
        for &l in pre.row_leakage(row) {
            e.f64(l);
        }
    }
    for &ct in pre.row_criticality() {
        e.f64(ct);
    }
    e.length(pre.constraint_count());
    for path in pre.paths() {
        e.f64(path.degraded_delay_ps());
        e.f64(path.required_reduction_ps());
        e.f64(path.nominal_delay_ps());
        e.length(path.rows().len());
        for (row, reds) in path.rows() {
            e.varint(row as u64);
            for &r in reds {
                e.f64(r);
            }
        }
    }
}

fn decode_preprocessed(d: &mut Decoder<'_>) -> Result<(Granularity, Preprocessed), DbError> {
    let granularity = granularity_from_tag(d.u8("granularity")?)?;
    let n_rows = d.length(0, "row count")?;
    let levels = d.length(0, "level count")?;
    if n_rows == 0 || levels == 0 {
        return Err(malformed(format!("degenerate shape: {n_rows} rows x {levels} levels")));
    }
    // The leakage table ahead occupies 8 bytes per (row, level) cell; refuse
    // shapes the remaining bytes cannot possibly hold before allocating.
    let cells = n_rows
        .checked_mul(levels)
        .filter(|&c| c.saturating_mul(8) <= d.remaining())
        .ok_or_else(|| malformed(format!("{n_rows} x {levels} tables exceed the section")))?;
    let beta = d.f64("beta")?;
    let max_clusters = varint_usize(d, "cluster budget")?;
    let dcrit_ps = d.f64("preprocessed dcrit")?;
    let mut row_leakage_nw = Vec::with_capacity(cells);
    for _ in 0..cells {
        row_leakage_nw.push(d.f64("row leakage")?);
    }
    let mut row_criticality = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        row_criticality.push(d.f64("row criticality")?);
    }
    let prep = |e: FbbError| malformed(format!("preprocessed: {e}"));
    let mut builder = Preprocessed::builder(levels, row_leakage_nw, row_criticality).map_err(prep)?;
    let n_paths = d.length(25, "constraint table")?;
    // `last_path[row]` is 1 + the last path that listed `row`, so a row a
    // path lists twice shows up as already stamped with that path.
    let mut last_path = vec![0usize; n_rows];
    let (mut rows, mut reductions) = (Vec::new(), Vec::new());
    for k in 1..=n_paths {
        let degraded = d.f64("degraded delay")?;
        let required = d.f64("required reduction")?;
        let nominal = d.f64("nominal delay")?;
        let n_path_rows = d.length(1 + 8 * levels, "constraint row list")?;
        rows.clear();
        reductions.clear();
        for _ in 0..n_path_rows {
            let row = varint_usize(d, "constraint row id")?;
            let stamp = last_path.get_mut(row).ok_or_else(|| {
                malformed(format!("constraint references row {row}, but only {n_rows} exist"))
            })?;
            if *stamp == k {
                return Err(malformed(format!("constraint lists row {row} twice")));
            }
            *stamp = k;
            rows.push(row);
            for _ in 0..levels {
                reductions.push(d.f64("reduction")?);
            }
        }
        builder
            .push_path(degraded, required, nominal, &rows, &reductions)
            .map_err(prep)?;
    }
    let pre = builder.into_problem(beta, max_clusters, dcrit_ps);
    pre.validate().map_err(prep)?;
    Ok((granularity, pre))
}

/// Encodes the PREP section: every persisted `(granularity, Preprocessed)`
/// entry, in the canonical order enforced by the database builder.
pub fn encode_prep(entries: &[(Granularity, Preprocessed)]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.length(entries.len());
    for (granularity, pre) in entries {
        encode_preprocessed(&mut e, *granularity, pre);
    }
    e.into_vec()
}

/// Decodes the PREP section. Per-entry validation runs here
/// ([`Preprocessed::validate`]); cross-section checks (row and level counts
/// against placement and characterization) happen at the database level.
pub fn decode_prep(bytes: &[u8]) -> Result<Vec<(Granularity, Preprocessed)>, DbError> {
    let mut d = Decoder::new(bytes);
    let n_entries = d.length(35, "prep entries")?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        entries.push(decode_preprocessed(&mut d)?);
    }
    d.expect_end("PREP")?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn small_design() -> (Netlist, Placement, Characterization) {
        let nl = generators::ripple_adder("adder:8", 8, false).unwrap();
        let lib = Library::date09_45nm();
        let placement = Placer::new(PlacerOptions::with_target_rows(4)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().unwrap(),
        );
        (nl, placement, chara)
    }

    #[test]
    fn netlist_roundtrip() {
        let (nl, _, _) = small_design();
        let bytes = encode_netlist(&nl);
        let back = decode_netlist(&bytes).unwrap();
        assert_eq!(back, nl);
    }

    #[test]
    fn placement_roundtrip() {
        let (nl, p, _) = small_design();
        let bytes = encode_placement(&p);
        let back = decode_placement(&bytes).unwrap();
        assert_eq!(back, p);
        back.validate(&nl).unwrap();
    }

    #[test]
    fn characterization_roundtrip_is_bit_identical() {
        let (_, _, c) = small_design();
        let bytes = encode_characterization(&c);
        let back = decode_characterization(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn timing_roundtrip() {
        use fbb_core::FbbProblem;
        use fbb_sta::TimingGraph;
        let (nl, p, c) = small_design();
        let problem = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap();
        let delays = problem.nominal_delays();
        let graph = TimingGraph::new(&nl).unwrap();
        let analysis = graph.analyze(&delays);
        let paths = analysis.critical_path_set();
        let bytes = encode_timing(&delays, analysis.dcrit_ps(), &paths);
        let (d2, dcrit2, p2) = decode_timing(&bytes, nl.gate_count()).unwrap();
        assert_eq!(d2, delays);
        assert_eq!(dcrit2, analysis.dcrit_ps());
        assert_eq!(p2, paths);
    }

    #[test]
    fn timing_rejects_inconsistent_path_delay() {
        let (nl, p, c) = small_design();
        let problem = fbb_core::FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap();
        let delays = problem.nominal_delays();
        let graph = fbb_sta::TimingGraph::new(&nl).unwrap();
        let analysis = graph.analyze(&delays);
        let mut paths = analysis.critical_path_set();
        paths[0].delay_ps *= 1.5;
        let bytes = encode_timing(&delays, analysis.dcrit_ps(), &paths);
        assert!(matches!(
            decode_timing(&bytes, nl.gate_count()),
            Err(DbError::Malformed(_))
        ));
    }

    #[test]
    fn prep_roundtrip() {
        let (nl, p, c) = small_design();
        let pre = fbb_core::FbbProblem::new(&nl, &p, &c, 0.05, 3)
            .unwrap()
            .preprocess()
            .unwrap();
        let entries = vec![(Granularity::Row, pre)];
        let bytes = encode_prep(&entries);
        let back = decode_prep(&bytes).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn prep_rejects_bad_granularity_tag() {
        let (nl, p, c) = small_design();
        let pre = fbb_core::FbbProblem::new(&nl, &p, &c, 0.05, 3)
            .unwrap()
            .preprocess()
            .unwrap();
        let mut bytes = encode_prep(&[(Granularity::Row, pre)]);
        // Byte 0 is the entry count varint; byte 1 is the granularity tag.
        bytes[1] = 3; // no such granularity
        assert!(matches!(decode_prep(&bytes), Err(DbError::Malformed(_))));
    }

    /// A one-entry PREP section whose single path lists `rows`, each with
    /// reductions `[0, 4]`: the builder accepts any in-range list, so the
    /// encoder writes exactly what a crafted file would carry.
    fn crafted_prep(rows: &[usize]) -> Vec<u8> {
        let mut builder =
            Preprocessed::builder(2, vec![1.0, 2.0, 1.0, 2.0], vec![1.0, 1.0]).unwrap();
        let reductions = [0.0, 4.0].repeat(rows.len());
        builder.push_path(110.0, 10.0, 100.0, rows, &reductions).unwrap();
        encode_prep(&[(Granularity::Row, builder.into_problem(0.1, 2, 100.0))])
    }

    #[test]
    fn prep_rejects_a_path_listing_a_row_twice() {
        assert!(decode_prep(&crafted_prep(&[1, 0])).is_ok());
        match decode_prep(&crafted_prep(&[1, 0, 1])) {
            Err(DbError::Malformed(msg)) => assert!(msg.contains("lists row 1 twice"), "{msg}"),
            other => panic!("duplicate row accepted: {other:?}"),
        }
    }

    #[test]
    fn prep_rejects_an_out_of_range_row() {
        let mut bytes = crafted_prep(&[1]);
        // The last path's one row id is the varint just before its two
        // 8-byte reductions at the end of the section.
        let at = bytes.len() - 17;
        assert_eq!(bytes[at], 1);
        bytes[at] = 2;
        match decode_prep(&bytes) {
            Err(DbError::Malformed(msg)) => assert!(msg.contains("references row 2"), "{msg}"),
            other => panic!("out-of-range row accepted: {other:?}"),
        }
    }

    #[test]
    fn meta_roundtrip() {
        let bytes = encode_meta("c1355", "iscas85 equivalent");
        let (name, source) = decode_meta(&bytes).unwrap();
        assert_eq!(name, "c1355");
        assert_eq!(source, "iscas85 equivalent");
    }

    #[test]
    fn cell_decode_rejects_out_of_range() {
        let mut e = Encoder::new();
        e.u8(12); // CellKind::ALL has 12 entries, so index 12 is invalid
        e.u8(0);
        let bytes = e.into_vec();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(decode_cell(&mut d), Err(DbError::Malformed(_))));
    }
}

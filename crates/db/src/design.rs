//! The design database: one `.fbb` file holding everything the allocation
//! phase needs, so the generate → place → characterize → STA → extract
//! pipeline runs once per design instead of once per invocation.

use fbb_core::{FbbError, FbbProblem, Granularity, Preprocessed};
use fbb_device::Characterization;
use fbb_netlist::Netlist;
use fbb_placement::Placement;
use fbb_sta::{TimingGraph, TimingPath};

use crate::codec;
use crate::container::{read_container, write_container, MAGIC};
use crate::DbError;

/// The persisted timing artifacts: the exact STA input and its results.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingTables {
    /// Per-gate nominal (NBB) delays — the exact input the STA analyzed,
    /// jitter included, indexed by `GateId::index()`.
    pub delays_ps: Vec<f64>,
    /// The nominal critical delay `Dcrit`.
    pub dcrit_ps: f64,
    /// The extracted critical path set Π.
    pub paths: Vec<TimingPath>,
}

/// One persisted pre-processed allocation problem.
///
/// Entries are keyed by `(granularity, β)`; the cluster budget is *not*
/// part of the key because pre-processing never reads it — solvers set
/// `max_clusters` on a view at load time ([`DesignDb::preprocessed_for`]),
/// which shares the entry's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedEntry {
    /// The clustering granularity this entry was pre-processed at.
    pub granularity: Granularity,
    /// The pre-processed problem (its `beta` field is the key's β).
    pub pre: Preprocessed,
}

/// A complete compiled design: the in-memory form of one `.fbb` file.
///
/// Byte-for-byte deterministic: the same design compiles to the same bytes
/// on every run and platform (the pipeline is seeded and all arithmetic is
/// IEEE 754), which is what makes golden-fixture testing of the format
/// possible.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignDb {
    /// Design name (always equal to the netlist's name).
    pub name: String,
    /// Free-form provenance string, e.g. the generator invocation.
    pub source: String,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The row-based placement.
    pub placement: Placement,
    /// Characterization inputs; tables are rebuilt deterministically on
    /// decode rather than stored.
    pub characterization: Characterization,
    /// The STA input and results.
    pub timing: TimingTables,
    /// Pre-processed problems, sorted by `(granularity tag, β bits)`.
    pub entries: Vec<PreparedEntry>,
}

fn entry_key(granularity: Granularity, pre: &Preprocessed) -> (u8, u64) {
    let tag = match granularity {
        Granularity::Block => 0u8,
        Granularity::Row => 1,
        Granularity::Gate => 2,
    };
    (tag, pre.beta.to_bits())
}

impl DesignDb {
    /// Runs the pre-LP pipeline once and captures every artifact: nominal
    /// STA over the exact jittered delay vector, critical-path extraction,
    /// and one pre-processed problem per `(granularity, β)` pair.
    ///
    /// Entries are sorted and deduplicated into the canonical order the
    /// format requires, so build inputs in any order produce identical
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError`] when the inputs are inconsistent (placement not
    /// covering the netlist, β outside `[0, 1]`, no β/granularity given,
    /// combinational cycles).
    pub fn build(
        source: &str,
        netlist: &Netlist,
        placement: &Placement,
        characterization: &Characterization,
        betas: &[f64],
        granularities: &[Granularity],
        max_clusters: usize,
    ) -> Result<Self, FbbError> {
        let Some(&first_beta) = betas.first() else {
            return Err(FbbError::InvalidProblem("at least one beta is required".into()));
        };
        if granularities.is_empty() {
            return Err(FbbError::InvalidProblem("at least one granularity is required".into()));
        }
        // The nominal analysis is β-independent: run it once, after the
        // first problem has checked β and the placement, and pre-process
        // every entry on it, all β of a granularity in one pass.
        let problem =
            FbbProblem::new(netlist, placement, characterization, first_beta, max_clusters)?;
        let delays = problem.nominal_delays();
        let graph = TimingGraph::new(netlist).map_err(FbbError::Netlist)?;
        let analysis = graph.analyze(&delays);
        let mut entries = Vec::with_capacity(betas.len() * granularities.len());
        for &granularity in granularities {
            for pre in problem.preprocess_betas_on(&analysis, granularity, betas)? {
                entries.push(PreparedEntry { granularity, pre });
            }
        }
        let timing = TimingTables {
            dcrit_ps: analysis.dcrit_ps(),
            paths: analysis.critical_path_set(),
            delays_ps: delays,
        };
        entries.sort_by_key(|e| entry_key(e.granularity, &e.pre));
        entries.dedup_by_key(|e| entry_key(e.granularity, &e.pre));
        Ok(DesignDb {
            name: netlist.name().to_owned(),
            source: source.to_owned(),
            netlist: netlist.clone(),
            placement: placement.clone(),
            characterization: characterization.clone(),
            timing,
            entries,
        })
    }

    /// Encodes the database to its canonical `.fbb` byte image.
    ///
    /// Records `db_encode_ns` and `db_bytes` telemetry counters.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        fbb_telemetry::time_counter_ns("db_encode_ns", || {
            let entries: Vec<(Granularity, Preprocessed)> =
                self.entries.iter().map(|e| (e.granularity, e.pre.clone())).collect();
            let bytes = write_container(&[
                codec::encode_meta(&self.name, &self.source),
                codec::encode_netlist(&self.netlist),
                codec::encode_placement(&self.placement),
                codec::encode_characterization(&self.characterization),
                codec::encode_timing(&self.timing.delays_ps, self.timing.dcrit_ps, &self.timing.paths),
                codec::encode_prep(&entries),
            ]);
            fbb_telemetry::counter("db_bytes", bytes.len() as u64);
            bytes
        })
    }

    /// Decodes and fully validates a `.fbb` byte image. This is the one
    /// decoder: the CLI, the daemon (LOAD and LOAD_PATH alike), difftest
    /// and the golden tests all read `.fbb` bytes through it.
    ///
    /// Validation is layered: container integrity (magic, version, CRCs),
    /// per-structure invariants (the domain `from_parts` constructors), and
    /// cross-section consistency (placement covers the netlist, timing
    /// tables match the gate count, path delays re-derive from the delay
    /// vector, every PREP entry's shape matches the placement and bias
    /// ladder). Arbitrarily corrupted input produces [`DbError`], never a
    /// panic.
    ///
    /// Records the `db_decode_ns` and `db_decode_verified` counters.
    ///
    /// # Errors
    ///
    /// See [`DbError`]; the variant identifies the failing layer.
    pub fn decode(bytes: &[u8]) -> Result<Self, DbError> {
        fbb_telemetry::counter("db_decode_verified", 1);
        fbb_telemetry::time_counter_ns("db_decode_ns", || Self::decode_sections(bytes))
    }

    /// [`DesignDb::decode`] under the name that says it verifies.
    ///
    /// # Errors
    ///
    /// As [`DesignDb::decode`].
    pub fn decode_verified(bytes: &[u8]) -> Result<Self, DbError> {
        Self::decode(bytes)
    }

    fn decode_sections(bytes: &[u8]) -> Result<Self, DbError> {
        let [meta, netl, plac, chrs, timg, prep] = read_container(bytes)?;
        let (name, source) = codec::decode_meta(meta)?;
        let netlist = codec::decode_netlist(netl)?;
        if name != netlist.name() {
            return Err(DbError::Malformed(format!(
                "META names design {name:?}, netlist is {:?}",
                netlist.name()
            )));
        }
        let placement = codec::decode_placement(plac)?;
        placement
            .validate(&netlist)
            .map_err(|e| DbError::Malformed(format!("placement: {e}")))?;
        let characterization = codec::decode_characterization(chrs)?;
        let (delays_ps, dcrit_ps, paths) = codec::decode_timing(timg, netlist.gate_count())?;
        let entries = codec::decode_prep(prep)?;
        let mut prev_key: Option<(u8, u64)> = None;
        for (i, (granularity, pre)) in entries.iter().enumerate() {
            let expected_rows = match granularity {
                Granularity::Block => 1,
                Granularity::Row => placement.row_count(),
                Granularity::Gate => netlist.gate_count(),
            };
            if pre.n_rows() != expected_rows {
                return Err(DbError::Malformed(format!(
                    "prep entry {i} has {} rows, {granularity:?} granularity implies {expected_rows}",
                    pre.n_rows()
                )));
            }
            if pre.levels() != characterization.level_count() {
                return Err(DbError::Malformed(format!(
                    "prep entry {i} has {} levels, ladder has {}",
                    pre.levels(),
                    characterization.level_count()
                )));
            }
            let key = entry_key(*granularity, pre);
            if prev_key.is_some_and(|p| p >= key) {
                return Err(DbError::Malformed(format!(
                    "prep entry {i} out of canonical (granularity, beta) order"
                )));
            }
            prev_key = Some(key);
        }
        let entries = entries
            .into_iter()
            .map(|(granularity, pre)| PreparedEntry { granularity, pre })
            .collect();
        Ok(DesignDb {
            name,
            source,
            netlist,
            placement,
            characterization,
            timing: TimingTables { delays_ps, dcrit_ps, paths },
            entries,
        })
    }

    /// Looks up the persisted entry for `(granularity, beta)` (exact f64
    /// bit match — β comes from the same CLI parse on both sides).
    pub fn entry(&self, granularity: Granularity, beta: f64) -> Option<&PreparedEntry> {
        self.entries
            .iter()
            .find(|e| e.granularity == granularity && e.pre.beta.to_bits() == beta.to_bits())
    }

    /// Returns a ready-to-solve [`Preprocessed`] for `(granularity, beta)`
    /// with the cluster budget overridden to `max_clusters`, or `None` when
    /// no entry matches or `max_clusters` is zero. Pre-processing never
    /// reads the cluster budget, so the override is exact, not an
    /// approximation. The result is a view sharing the entry's tables, so
    /// the lookup copies no table, whatever the design's size.
    ///
    /// Records `db_cache_hits` / `db_cache_misses` telemetry counters.
    pub fn preprocessed_for(
        &self,
        granularity: Granularity,
        beta: f64,
        max_clusters: usize,
    ) -> Option<Preprocessed> {
        match self.entry(granularity, beta) {
            Some(entry) if max_clusters >= 1 => {
                fbb_telemetry::counter("db_cache_hits", 1);
                let mut pre = entry.pre.clone();
                pre.max_clusters = max_clusters;
                Some(pre)
            }
            _ => {
                fbb_telemetry::counter("db_cache_misses", 1);
                None
            }
        }
    }

    /// The β values persisted at `granularity`, in ascending order.
    pub fn betas(&self, granularity: Granularity) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| e.granularity == granularity)
            .map(|e| e.pre.beta)
            .collect()
    }

    /// One-line summary for CLI output and experiment logs.
    pub fn stats(&self) -> String {
        format!(
            "{}: {} gates, {} rows, {} paths, {} prep entries",
            self.name,
            self.netlist.gate_count(),
            self.placement.row_count(),
            self.timing.paths.len(),
            self.entries.len()
        )
    }
}

/// Whether `bytes` starts with the `.fbb` magic — a cheap sniff to route
/// CLI inputs between the text netlist parser and the database decoder
/// without relying on file extensions.
pub fn is_design_db(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn build_small(betas: &[f64]) -> DesignDb {
        let nl = generators::ripple_adder("adder:8", 8, false).unwrap();
        let lib = Library::date09_45nm();
        let placement = Placer::new(PlacerOptions::with_target_rows(4)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().unwrap(),
        );
        DesignDb::build("test generator", &nl, &placement, &chara, betas, &[Granularity::Row], 3)
            .unwrap()
    }

    #[test]
    fn roundtrip_is_equal_and_deterministic() {
        let db = build_small(&[0.05, 0.10]);
        let bytes = db.encode_to_vec();
        let back = DesignDb::decode(&bytes).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.encode_to_vec(), bytes, "re-encoding must be byte-identical");
    }

    #[test]
    fn build_sorts_and_dedups_entries() {
        let db = build_small(&[0.10, 0.05, 0.10]);
        let betas = db.betas(Granularity::Row);
        assert_eq!(betas, vec![0.05, 0.10]);
    }

    #[test]
    fn preprocessed_for_overrides_clusters() {
        let db = build_small(&[0.05]);
        let pre = db.preprocessed_for(Granularity::Row, 0.05, 2).unwrap();
        assert_eq!(pre.max_clusters, 2);
        assert_eq!(pre.beta, 0.05);
        assert!(db.preprocessed_for(Granularity::Row, 0.05, 0).is_none());
        assert!(db.preprocessed_for(Granularity::Row, 0.07, 2).is_none());
        assert!(db.preprocessed_for(Granularity::Block, 0.05, 2).is_none());
    }

    #[test]
    fn cached_preprocess_equals_fresh() {
        let nl = generators::ripple_adder("adder:8", 8, false).unwrap();
        let lib = Library::date09_45nm();
        let placement = Placer::new(PlacerOptions::with_target_rows(4)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(
            &BodyBiasModel::date09_45nm(),
            &BiasLadder::date09().unwrap(),
        );
        let db = DesignDb::build("t", &nl, &placement, &chara, &[0.05], &[Granularity::Row], 3)
            .unwrap();
        let bytes = db.encode_to_vec();
        let loaded = DesignDb::decode(&bytes).unwrap();
        let cached = loaded.preprocessed_for(Granularity::Row, 0.05, 3).unwrap();
        let fresh = FbbProblem::new(&nl, &placement, &chara, 0.05, 3)
            .unwrap()
            .preprocess()
            .unwrap();
        assert_eq!(cached, fresh, "decoded prep must be bit-identical to a cold run");
    }

    #[test]
    fn decode_rejects_container_damage() {
        let db = build_small(&[0.05]);
        let bytes = db.encode_to_vec();
        // Truncation anywhere must error.
        assert!(DesignDb::decode(&bytes[..bytes.len() / 2]).is_err());
        // A bit flip in a payload fails that section's CRC.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(DesignDb::decode(&flipped).is_err());
    }

    #[test]
    fn decode_rejects_a_path_delay_its_gates_do_not_sum_to() {
        // A semantically inconsistent file whose CRCs are nevertheless
        // correct (the encoder recomputes them): the stored path delay no
        // longer re-derives from the delay vector.
        let mut db = build_small(&[0.05]);
        db.timing.paths[0].delay_ps *= 1.5;
        let bytes = db.encode_to_vec();
        match DesignDb::decode(&bytes) {
            Err(DbError::Malformed(msg)) => assert!(msg.contains("path 0 stores"), "{msg}"),
            other => panic!("inconsistent path delay accepted: {other:?}"),
        }
    }

    #[test]
    fn sniffing_detects_magic() {
        let db = build_small(&[0.05]);
        assert!(is_design_db(&db.encode_to_vec()));
        assert!(!is_design_db(b"# a bench netlist\n"));
        assert!(!is_design_db(b""));
    }

    #[test]
    fn decode_rejects_meta_netlist_name_mismatch() {
        let mut db = build_small(&[0.05]);
        db.name = "someone else".into();
        let bytes = db.encode_to_vec();
        assert!(matches!(DesignDb::decode(&bytes), Err(DbError::Malformed(_))));
    }

    #[test]
    fn decode_rejects_unsorted_entries() {
        let mut db = build_small(&[0.05, 0.10]);
        db.entries.swap(0, 1);
        let bytes = db.encode_to_vec();
        assert!(matches!(DesignDb::decode(&bytes), Err(DbError::Malformed(_))));
    }

    #[test]
    fn stats_mentions_name_and_counts() {
        let db = build_small(&[0.05]);
        let s = db.stats();
        assert!(s.contains("adder:8"));
        assert!(s.contains("prep entries"));
    }
}

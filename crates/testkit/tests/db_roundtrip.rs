//! Property tests for the `.fbb` design database: round-trip identity on
//! randomly generated instances, and never-panic robustness against
//! corrupted and outright hostile inputs.
//!
//! The corpus leans on the testkit generators — `gen::random_cluster`
//! produces `Preprocessed` shapes the hand-written fixtures in `fbb-db`
//! never reach (uncompensable paths, single-row instances, 4-level
//! ladders) — while the corruption properties drive the full container
//! decoder: every single-bit flip and every truncation must come back as a
//! clean [`fbb_db::DbError`], and arbitrary byte soup must never panic or
//! blow up an allocation.

use fbb_core::Granularity;
use fbb_db::{codec, DesignDb};
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};
use fbb_testkit::gen::{self, case_rng};
use proptest::prelude::*;

/// A small compiled design shared by the corruption properties.
fn compiled_adder() -> Vec<u8> {
    let netlist = generators::ripple_adder("adder:8", 8, false).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(4))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    DesignDb::build("testkit adder:8", &netlist, &placement, &chara, &[0.05], &[Granularity::Row], 3)
        .expect("compilable")
        .encode_to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(encode(x)) == x` for generator-shaped `Preprocessed`
    /// instances — including uncompensable ones, which the database must
    /// carry faithfully (solvers, not codecs, decide feasibility).
    #[test]
    fn prep_section_roundtrips_random_clusters(seed in 0u64..1u64 << 48, case in 0u64..64) {
        let pre = gen::random_cluster(&mut case_rng(seed, case));
        let entries = vec![(Granularity::Row, pre)];
        let bytes = codec::encode_prep(&entries);
        let decoded = codec::decode_prep(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded, entries);
    }

    /// Canonical encoding: encoding the decoded value reproduces the exact
    /// byte sequence, so fixtures and cache keys can compare bytes.
    #[test]
    fn prep_section_encoding_is_canonical(seed in 0u64..1u64 << 48) {
        let pre = gen::random_cluster(&mut case_rng(seed, 0));
        let bytes = codec::encode_prep(&[(Granularity::Row, pre)]);
        let decoded = codec::decode_prep(&bytes).expect("own encoding decodes");
        prop_assert_eq!(codec::encode_prep(&decoded), bytes);
    }

    /// Arbitrary byte soup through every section decoder: any outcome but a
    /// panic or an allocation blow-up is acceptable.
    #[test]
    fn hostile_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = DesignDb::decode(&bytes);
        let _ = codec::decode_meta(&bytes);
        let _ = codec::decode_netlist(&bytes);
        let _ = codec::decode_placement(&bytes);
        let _ = codec::decode_characterization(&bytes);
        let _ = codec::decode_timing(&bytes, 16);
        let _ = codec::decode_prep(&bytes);
    }
}

/// A gate-granularity database round-trips through the decoder. Its
/// constraint row ids are gate indices, so many exceed the bytes left in
/// the PREP section after them; the decoder must read them as ids checked
/// against the row count, not as element counts checked against the bytes.
#[test]
fn gate_granularity_database_roundtrips() {
    let netlist = generators::ripple_adder("adder:32", 32, false).expect("valid generator");
    let library = Library::date09_45nm();
    let placement = Placer::new(PlacerOptions::with_target_rows(4))
        .place(&netlist, &library)
        .expect("placeable");
    let chara = library
        .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().expect("valid ladder"));
    let gate = [Granularity::Gate];
    let db = DesignDb::build("testkit adder:32", &netlist, &placement, &chara, &[0.05], &gate, 3)
        .expect("compilable");
    let bytes = db.encode_to_vec();
    let decoded =
        DesignDb::decode(&bytes).unwrap_or_else(|e| panic!("decode rejected its own encoding: {e}"));
    assert_eq!(decoded, db, "decode changed the database");
    assert_eq!(decoded.encode_to_vec(), bytes, "decode broke the canonical encoding");
}

/// Every single-bit flip anywhere in a compiled database is rejected — the
/// header CRC covers the header and table, the section CRCs cover every
/// payload byte, and a one-bit change always changes a CRC-32.
#[test]
fn every_bit_flip_is_rejected() {
    let good = compiled_adder();
    assert!(DesignDb::decode(&good).is_ok(), "baseline must decode");
    // Exhaustive over the header + section table, sampled (prime stride)
    // over the payload — full exhaustion is minutes of CRC work for no
    // extra coverage, since every payload byte is guarded the same way.
    let positions: Vec<usize> =
        (0..164.min(good.len())).chain((164..good.len()).step_by(97)).collect();
    for byte in positions {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                DesignDb::decode(&bad).is_err(),
                "flip of byte {byte} bit {bit} went undetected"
            );
        }
    }
}

/// Every proper prefix of a compiled database fails to decode; no
/// truncation length panics.
#[test]
fn every_truncation_is_rejected() {
    let good = compiled_adder();
    for len in 0..good.len() {
        assert!(
            DesignDb::decode(&good[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
}

//! The error type shared by every `.fbb` read/write path.

use std::fmt;

/// Everything that can go wrong while encoding or decoding a design
/// database.
///
/// Decoders return an error for **every** malformed input — truncation at
/// any byte offset, arbitrary bit flips, stale format versions, semantic
/// inconsistencies — and never panic. The variants mirror the failure-mode
/// table in `docs/FORMAT.md` §8.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// The input does not start with the 8-byte `.fbb` magic.
    BadMagic,
    /// The header declares a format version this reader does not implement.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u16,
    },
    /// The header flags word has bits set that version 1 reserves as zero.
    ReservedFlags(u16),
    /// The input ended before a required field was complete.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A CRC-32 check failed: the covered bytes were altered after encoding.
    CrcMismatch {
        /// `"header"` or the four-character section id (e.g. `"NETL"`).
        region: String,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the bytes actually present.
        computed: u32,
    },
    /// The section table violates the fixed layout: wrong section count,
    /// unknown or reordered ids, or payload offsets that are not contiguous.
    Layout(String),
    /// Bytes remain after the structure that owns them was fully decoded.
    TrailingBytes {
        /// The structure that should have consumed its slice exactly.
        region: String,
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A decoded value violates the format's semantic rules: a non-minimal
    /// or overlong varint, a non-finite float, invalid UTF-8, an
    /// out-of-range id, or a cross-table inconsistency.
    Malformed(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::BadMagic => write!(f, "not a design database (bad magic)"),
            DbError::UnsupportedVersion { found } => {
                write!(f, "unsupported design-database format version {found}")
            }
            DbError::ReservedFlags(flags) => {
                write!(f, "reserved header flag bits set: {flags:#06x}")
            }
            DbError::Truncated { context, needed, available } => write!(
                f,
                "truncated while reading {context}: needed {needed} bytes, {available} available"
            ),
            DbError::CrcMismatch { region, stored, computed } => write!(
                f,
                "CRC mismatch in {region}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DbError::Layout(msg) => write!(f, "invalid section layout: {msg}"),
            DbError::TrailingBytes { region, extra } => {
                write!(f, "{extra} trailing bytes after {region}")
            }
            DbError::Malformed(msg) => write!(f, "malformed design database: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(DbError, &str)> = vec![
            (DbError::BadMagic, "bad magic"),
            (DbError::UnsupportedVersion { found: 9 }, "version 9"),
            (DbError::ReservedFlags(0x0002), "0x0002"),
            (
                DbError::Truncated { context: "header", needed: 16, available: 3 },
                "needed 16 bytes, 3 available",
            ),
            (
                DbError::CrcMismatch { region: "NETL".into(), stored: 1, computed: 2 },
                "CRC mismatch in NETL",
            ),
            (DbError::Layout("bad order".into()), "bad order"),
            (DbError::TrailingBytes { region: "PLAC".into(), extra: 4 }, "4 trailing bytes"),
            (DbError::Malformed("net id out of range".into()), "net id"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} should contain {needle:?}");
        }
    }
}

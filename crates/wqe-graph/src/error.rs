//! The structured error type shared by every durable-input path of the
//! graph layer: the JSON-lines/TSV loaders, [`crate::Graph::from_parts`]
//! reconstitution, and the `wqe-store` binary snapshot reader.
//!
//! Malformed input — a truncated file, a garbage line, a corrupt snapshot
//! section — must surface as a [`LoadError`], never a panic: these paths
//! face untrusted bytes on every replica restart.

use std::fmt;

/// Why a graph (or snapshot) could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse as JSON.
    Json {
        /// 1-based source line.
        line: usize,
        /// Parser error.
        source: serde_json::Error,
    },
    /// An edge referenced an id with no preceding node record.
    UnknownNode {
        /// 1-based source line.
        line: usize,
        /// Unresolved node id.
        id: String,
    },
    /// A node id occurred twice.
    DuplicateNode {
        /// 1-based source line.
        line: usize,
        /// Repeated node id.
        id: String,
    },
    /// A structurally malformed record (missing fields, bad field shape)
    /// in a line-oriented text format.
    Malformed {
        /// 1-based source line.
        line: usize,
        /// What was wrong with the record.
        detail: String,
    },
    /// A binary snapshot did not start with the expected magic bytes —
    /// the file is not a WQE snapshot at all.
    BadMagic,
    /// A binary snapshot declared a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// A snapshot section's checksum did not match its bytes.
    ChecksumMismatch {
        /// Name of the corrupt section.
        section: &'static str,
    },
    /// A snapshot (or one of its sections) ended before its declared
    /// length — the file was cut short.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
        /// Bytes the reader needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// Decoded snapshot content violated a structural invariant (an id out
    /// of range, a non-monotonic offset array, a bad value tag, …).
    Corrupt {
        /// Name of the offending section or structure.
        section: &'static str,
        /// What invariant failed.
        detail: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Json { line, source } => write!(f, "line {line}: invalid json: {source}"),
            LoadError::UnknownNode { line, id } => {
                write!(f, "line {line}: edge references unknown node id {id:?}")
            }
            LoadError::DuplicateNode { line, id } => {
                write!(f, "line {line}: duplicate node id {id:?}")
            }
            LoadError::Malformed { line, detail } => {
                write!(f, "line {line}: malformed record: {detail}")
            }
            LoadError::BadMagic => write!(f, "not a WQE snapshot (bad magic bytes)"),
            LoadError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads version \
                 {supported}; rebuild the snapshot with `wqe-cli index build`)"
            ),
            LoadError::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section:?} failed its checksum")
            }
            LoadError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated input while reading {what}: needed {needed} bytes, have {available}"
            ),
            LoadError::Corrupt { section, detail } => {
                write!(f, "corrupt snapshot section {section:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Json { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(LoadError::BadMagic.to_string().contains("magic"));
        let e = LoadError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('1'));
        let e = LoadError::ChecksumMismatch { section: "schema" };
        assert!(e.to_string().contains("schema"));
        let e = LoadError::Truncated {
            what: "header",
            needed: 64,
            available: 3,
        };
        assert!(e.to_string().contains("64") && e.to_string().contains("header"));
        let e = LoadError::Corrupt {
            section: "out_csr",
            detail: "offsets not monotonic".into(),
        };
        assert!(e.to_string().contains("monotonic"));
        let e = LoadError::Malformed {
            line: 4,
            detail: "node line needs `id<TAB>label`".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: LoadError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, LoadError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}

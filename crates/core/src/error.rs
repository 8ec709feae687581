//! Error type of the core engine.

use std::fmt;
use std::time::Duration;

use lidardb_geom::GeomError;
use lidardb_las::LasError;
use lidardb_storage::StorageError;

/// Why a query was cancelled (see `core::governor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The statement deadline expired.
    Deadline,
    /// An operator (or SQL `KILL <id>`) stopped the query.
    Killed,
    /// The query's memory budget was exceeded.
    MemBudget,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Killed => "killed",
            CancelReason::MemBudget => "memory budget",
        })
    }
}

/// Errors produced by the point-cloud engine.
#[derive(Debug)]
pub enum CoreError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// File-format failure.
    Las(LasError),
    /// Geometry failure.
    Geom(GeomError),
    /// A query referenced something that does not exist.
    InvalidQuery(String),
    /// On-disk state failed an integrity check (bad checksum, malformed
    /// manifest, impossible sizes).
    Corrupt(String),
    /// A loader worker thread panicked; the panic was contained and
    /// converted to this error instead of tearing down the process.
    WorkerPanic(String),
    /// A specific input file failed during bulk load (fail-fast path);
    /// names the file so a 50 000-tile ingest is debuggable.
    FileLoad {
        /// The file that failed.
        path: std::path::PathBuf,
        /// Why it failed.
        source: Box<CoreError>,
    },
    /// The query was cooperatively cancelled before completing: its
    /// deadline expired, it was killed, or it exceeded its memory
    /// budget. `Display` deliberately omits `elapsed` so a serial and a
    /// parallel cancellation of the same query render identically.
    Cancelled {
        /// What tripped the cancellation token.
        reason: CancelReason,
        /// Wall time the query ran before noticing the trip.
        elapsed: Duration,
        /// Result rows materialised before cancellation (discarded).
        partial_rows: usize,
    },
    /// The admission queue was full (or the wait deadline expired): the
    /// query was shed without starting. Retryable by definition.
    Overloaded,
    /// The underlying device rejected a write with `ENOSPC`/`EIO` (or a
    /// table is in read-only degraded mode after such a failure). Not
    /// transient: retrying without operator intervention (freeing space,
    /// replacing the device, `seal()`) cannot succeed.
    StorageExhausted(String),
}

impl CoreError {
    /// Whether retrying the failed operation could plausibly succeed
    /// (transient I/O conditions, as opposed to corrupt data).
    pub fn is_transient(&self) -> bool {
        match self {
            CoreError::Las(e) => e.is_transient(),
            CoreError::FileLoad { source, .. } => source.is_transient(),
            // A shed query never started; retrying once load drains is
            // exactly what the admission queue is for.
            CoreError::Overloaded => true,
            // A full or failing disk does not heal on retry: the caller
            // must stop resending and surface the condition.
            CoreError::StorageExhausted(_) => false,
            _ => false,
        }
    }
}

/// Whether an I/O error is a device-exhaustion condition (`ENOSPC`, or
/// `EIO` from a failing device) that should flip the owning table into
/// read-only degraded mode rather than surface as a generic I/O error.
pub fn is_storage_exhausted_io(e: &std::io::Error) -> bool {
    // ENOSPC = 28, EDQUOT = 122, EIO = 5 on Linux; `StorageFull` also
    // covers the portable kind mapping.
    matches!(e.kind(), std::io::ErrorKind::StorageFull)
        || matches!(e.raw_os_error(), Some(28) | Some(122) | Some(5))
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Las(e) => write!(f, "las: {e}"),
            CoreError::Geom(e) => write!(f, "geometry: {e}"),
            CoreError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            CoreError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            CoreError::WorkerPanic(msg) => write!(f, "loader worker panicked: {msg}"),
            CoreError::FileLoad { path, source } => {
                write!(f, "load of {} failed: {source}", path.display())
            }
            CoreError::Cancelled {
                reason,
                partial_rows,
                ..
            } => {
                write!(
                    f,
                    "query cancelled ({reason}) after {partial_rows} partial rows"
                )
            }
            CoreError::Overloaded => f.write_str("overloaded: admission queue full, query shed"),
            CoreError::StorageExhausted(msg) => {
                write!(f, "storage exhausted: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Las(e) => Some(e),
            CoreError::Geom(e) => Some(e),
            CoreError::FileLoad { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}
impl From<LasError> for CoreError {
    fn from(e: LasError) -> Self {
        CoreError::Las(e)
    }
}
impl From<GeomError> for CoreError {
    fn from(e: GeomError) -> Self {
        CoreError::Geom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = StorageError::UnknownColumn("q".into()).into();
        assert!(e.to_string().contains("storage"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::InvalidQuery("no such column".into());
        assert!(e.to_string().contains("no such column"));
        let e = CoreError::Corrupt("checksum mismatch".into());
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(!e.is_transient());
        let e = CoreError::WorkerPanic("index out of bounds".into());
        assert!(e.to_string().contains("panicked"));
        let e = CoreError::FileLoad {
            path: "tiles/t07.las".into(),
            source: Box::new(CoreError::Corrupt("bad point size".into())),
        };
        assert!(e.to_string().contains("t07.las"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transient_classification() {
        let t: CoreError = LasError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "try again",
        ))
        .into();
        assert!(t.is_transient());
        let wrapped = CoreError::FileLoad {
            path: "a.las".into(),
            source: Box::new(t),
        };
        assert!(wrapped.is_transient(), "transience passes through FileLoad");
        let p: CoreError = LasError::Io(std::io::Error::other("disk on fire")).into();
        assert!(!p.is_transient());
        assert!(!CoreError::InvalidQuery("x".into()).is_transient());
        assert!(CoreError::Overloaded.is_transient(), "shed queries retry");
        let c = CoreError::Cancelled {
            reason: CancelReason::Deadline,
            elapsed: Duration::from_millis(7),
            partial_rows: 0,
        };
        assert!(!c.is_transient(), "a timed-out query times out again");
        let e = CoreError::StorageExhausted("wal append: ENOSPC".into());
        assert!(
            !e.is_transient(),
            "a full disk does not heal on retry: clients must stop resending"
        );
        assert!(e.to_string().contains("storage exhausted"), "{e}");
        assert!(e.to_string().contains("ENOSPC"), "{e}");
    }

    #[test]
    fn storage_exhausted_io_classification() {
        for code in [28, 5, 122] {
            let e = std::io::Error::from_raw_os_error(code);
            assert!(is_storage_exhausted_io(&e), "errno {code} is exhaustion");
        }
        assert!(!is_storage_exhausted_io(&std::io::Error::other("boom")));
        assert!(!is_storage_exhausted_io(&std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "try again"
        )));
    }

    #[test]
    fn cancelled_display_is_elapsed_free() {
        // The differential suite compares serial and parallel cancellation
        // errors by their Display strings; elapsed wall time must not leak
        // into the rendering or they could never match.
        let mk = |ms: u64| CoreError::Cancelled {
            reason: CancelReason::Killed,
            elapsed: Duration::from_millis(ms),
            partial_rows: 12,
        };
        assert_eq!(mk(1).to_string(), mk(999).to_string());
        assert!(mk(1).to_string().contains("killed"), "{}", mk(1));
        assert!(mk(1).to_string().contains("12"), "{}", mk(1));
        for reason in [
            CancelReason::Deadline,
            CancelReason::Killed,
            CancelReason::MemBudget,
        ] {
            let e = CoreError::Cancelled {
                reason,
                elapsed: Duration::ZERO,
                partial_rows: 0,
            };
            assert!(e.to_string().contains(&reason.to_string()), "{e}");
        }
        assert!(CoreError::Overloaded.to_string().contains("overloaded"));
    }
}

//! Typed failure surface of the parameter-server crate.
//!
//! Every serving-path operation returns `Result<_, PsError>`: bad inputs
//! (rows outside the table, mismatched gradient width) and communication
//! failures are data, not panics — the same contract the collectives layer
//! follows with [`CommError`]. The only panics left in the crate are
//! construction-time `assert!`s on impossible configurations.

use embrace_collectives::CommError;
use std::fmt;

/// Why a parameter-server operation could not complete.
#[derive(Clone, Debug, PartialEq)]
pub enum PsError {
    /// A requested or pushed row id addresses past the end of the table.
    RowOutOfRange {
        /// The offending global row id.
        row: u32,
        /// The table's row count; valid ids are `0..vocab`.
        vocab: usize,
    },
    /// A gradient or update carried the wrong embedding width.
    DimMismatch {
        /// The table's column count.
        expected: usize,
        /// The width the caller supplied.
        got: usize,
    },
    /// The group's partition books disagree (a deployment bug, not a data
    /// race): `rank`'s book, received at registration, is not this rank's.
    BookMismatch { rank: usize },
    /// A shard's region was in use where the serving protocol's fences
    /// rule that out: a protocol bug, reported instead of waited out.
    RegionBusy { shard: usize },
    /// The underlying collective failed; the group is poisoned and must
    /// be rebuilt before further serving traffic (see `embrace-collectives`'
    /// abort-broadcast contract).
    Comm(CommError),
}

impl fmt::Display for PsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsError::RowOutOfRange { row, vocab } => {
                write!(f, "row {row} outside table of {vocab} rows")
            }
            PsError::DimMismatch { expected, got } => {
                write!(f, "embedding dim mismatch: table has {expected} columns, caller sent {got}")
            }
            PsError::BookMismatch { rank } => {
                write!(f, "rank {rank}'s partition book differs from this rank's")
            }
            PsError::RegionBusy { shard } => write!(f, "shard {shard}'s region is in use"),
            PsError::Comm(e) => write!(f, "communication failure: {e}"),
        }
    }
}

impl std::error::Error for PsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PsError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for PsError {
    fn from(e: CommError) -> Self {
        PsError::Comm(e)
    }
}

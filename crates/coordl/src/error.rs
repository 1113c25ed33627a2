//! Error types.

use std::fmt;

/// Errors surfaced by the CoorDL loaders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordlError {
    /// A configuration value was invalid (empty dataset, zero batch size, …).
    InvalidConfig(String),
    /// A consumer timed out waiting for a minibatch and the responsible
    /// producer job was found dead and could not be recovered.
    ProducerFailed {
        /// The job that should have produced the minibatch.
        job: usize,
        /// The minibatch index that was never produced.
        batch: usize,
    },
    /// The staging area was shut down while a consumer was waiting.
    Shutdown,
    /// A loader worker thread panicked.  The session that owned it fails
    /// with this error; other sessions are unaffected.
    WorkerPanicked {
        /// Which executor stage the thread belonged to (`"fetch"` or
        /// `"prep"`), in a coordinated recovery sweep as in any other, or
        /// `"spill"` for a persistent cache tier's writer thread (reported
        /// by [`CacheTier::flush`](crate::CacheTier::flush)).
        stage: &'static str,
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A fetch backend failed to produce an item's bytes: the item is out
    /// of range, its file is missing, or the read came back truncated.
    /// Surfaced through the batch stream instead of panicking the fetch
    /// thread, so a consumer sees *which* read failed and why.
    BackendIo {
        /// The backend's reported name (`"direct"`, `"fs"`, a profile name).
        backend: String,
        /// The item whose read failed.
        item: u64,
        /// What went wrong.
        detail: String,
    },
    /// A remote peer's cache tier failed mid-lookup (a poisoned tier, a
    /// panicking policy, an injected fault).  The degraded-mode signal of
    /// the partitioned fetch path: the caller marks the peer dead and
    /// retries through the surviving cluster, so a consumer stream never
    /// loses the sample.
    PeerFailed {
        /// The server whose tier failed.
        peer: usize,
        /// The failure payload, when it was a string.
        detail: String,
    },
    /// A persistent cache level failed writing through its spill store
    /// (disk full, a failed barrier).  The level stopped mirroring to disk at
    /// that point — the in-memory tier keeps serving, so streams are
    /// unaffected and what was committed before stays recoverable — and
    /// [`CacheTier::flush`](crate::CacheTier::flush) reports this from then
    /// on.
    SpillIo {
        /// The spill directory of the level (and shard) that failed.
        dir: String,
        /// The VFS error.
        detail: String,
    },
}

impl fmt::Display for CoordlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordlError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoordlError::ProducerFailed { job, batch } => {
                write!(
                    f,
                    "producer job {job} failed before producing batch {batch}"
                )
            }
            CoordlError::Shutdown => write!(f, "staging area shut down"),
            CoordlError::WorkerPanicked { stage, detail } => {
                write!(f, "loader {stage} worker panicked: {detail}")
            }
            CoordlError::BackendIo {
                backend,
                item,
                detail,
            } => {
                write!(f, "backend {backend} failed reading item {item}: {detail}")
            }
            CoordlError::PeerFailed { peer, detail } => {
                write!(f, "remote peer {peer} failed during lookup: {detail}")
            }
            CoordlError::SpillIo { dir, detail } => {
                write!(f, "persistent tier stopped spilling to {dir}: {detail}")
            }
        }
    }
}

impl std::error::Error for CoordlError {}

/// The printable detail of a caught panic: the payload when it was a string,
/// as `panic!` payloads are.
pub(crate) fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CoordlError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
        let e = CoordlError::ProducerFailed { job: 3, batch: 7 };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7'));
        assert!(!CoordlError::Shutdown.to_string().is_empty());
        let p = CoordlError::WorkerPanicked {
            stage: "prep",
            detail: "boom".into(),
        };
        let s = p.to_string();
        assert!(s.contains("prep") && s.contains("boom") && s.contains("panicked"));
        let io = CoordlError::BackendIo {
            backend: "fs".into(),
            item: 42,
            detail: "truncated".into(),
        };
        let s = io.to_string();
        assert!(s.contains("fs") && s.contains("42") && s.contains("truncated"));
        let pf = CoordlError::PeerFailed {
            peer: 2,
            detail: "tier poisoned".into(),
        };
        let s = pf.to_string();
        assert!(s.contains("peer 2") && s.contains("tier poisoned"));
        let spill = CoordlError::SpillIo {
            dir: "ssd/shard-1".into(),
            detail: "no space left".into(),
        };
        let s = spill.to_string();
        assert!(s.contains("ssd/shard-1") && s.contains("no space left"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(CoordlError::Shutdown);
        assert_eq!(e.to_string(), "staging area shut down");
    }
}

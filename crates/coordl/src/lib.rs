//! CoorDL: a coordinated data-loading library for DNN training.
//!
//! This crate is the functional (really multi-threaded, really moving bytes)
//! implementation of the paper's three techniques, unified behind one
//! [`Session`] builder that mirrors the simulator's `pipeline::Experiment`:
//!
//! * the **MinIO cache** (`PolicyKind::MinIo` in a [`TieredByteCache`]) — a
//!   DNN-aware software cache that admits raw items until full and never
//!   evicts them, so every epoch after warm-up performs only capacity misses
//!   (§4.1),
//! * **coordinated prep** ([`Mode::Coordinated`], [`StagingArea`]) — when
//!   several hyper-parameter-search jobs train on the same dataset on one
//!   server, the dataset is fetched and pre-processed exactly once per epoch
//!   and every prepared minibatch is shared through an in-memory staging area
//!   with per-batch use counters and failure detection (§4.3),
//! * **partitioned caching** ([`Mode::Partitioned`],
//!   [`PartitionedCacheCluster`]) — in distributed training each server's
//!   cache tier holds a shard of the dataset and local misses are served from
//!   the remote cache instead of storage (§4.2).
//!
//! A session composes a pluggable [`CacheTier`] (a [`TieredByteCache`] under
//! MinIO or any other `coordl-cache` policy) over a pluggable
//! [`FetchBackend`] ([`DirectBackend`], optionally timed by a
//! `storage::DeviceProfile`), hands out per-job [`BatchStream`] iterators
//! from [`Session::epoch`] and produces a [`LoaderReport`] whose JSON is
//! structurally comparable to the simulator's reports — the contract
//! the `validate` figure row exploits to diff predicted against empirical
//! behaviour.
//!
//! Every mode runs on one **prefetching executor** (the paper's overlap
//! prescription, §2/§5): `fetch_threads(f)` >= 1 share-nothing fetch threads
//! sweep the epoch plan in training order — each cache shard's transactions
//! on the one thread that owns it, so they are sequential and deterministic
//! — each sending its share of every plan position down its own bounded
//! lane of `prefetch_depth(d)` positions, while the process's one prep pool
//! assembles the positions in order and pre-processes them in parallel, at
//! most `n + f` of one sweep at once for `workers(n)`.  A
//! coordinated session's failure recovery is one more such executor over
//! the same plan.  Parallelism changes *when* work happens (reported as
//! per-stage busy/stall seconds in the [`LoaderReport`]), never *what* a job
//! observes: for a fixed shard count, streams and counters are bit-identical
//! across fetch-thread and worker counts, pinned by
//! `tests/parallel_session_equivalence.rs` and
//! `tests/parallel_fetch_equivalence.rs`.
//!
//! Device timing is *not* simulated here (that is `coordl-pipeline`'s job);
//! this crate is about the coordination semantics: exactly-once delivery,
//! fresh per-epoch randomness, sharing, and fault handling.

pub mod backend;
pub(crate) mod coordinator;
pub mod error;
pub(crate) mod executor;
pub mod fault;
pub mod fsbackend;
pub mod minibatch;
pub mod partition;
pub(crate) mod pool;
pub mod report;
pub mod server;
pub mod session;
pub(crate) mod spares;
pub(crate) mod stack;
pub mod staging;
pub mod stats;
pub mod tier;

pub use backend::{DirectBackend, FetchBackend};
pub use error::CoordlError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fsbackend::FsBackend;
pub use minibatch::Minibatch;
pub use partition::{FetchOrigin, PartitionStats, PartitionedCacheCluster, RemoteHit};
pub use report::{EpochTrajectory, LoaderReport, TenantReport};
pub use server::{Server, ServerConfig, TenantHandle, TenantSpec, TenantView};
pub use session::{
    BatchStream, EpochRun, Mode, Session, SessionBuilder, SessionConfig, DEFAULT_FETCH_SHARDS,
};
pub use staging::{PublishOutcome, StagingArea, StagingStats, TakeError};
pub use stats::LoaderStats;
pub use tier::{ByteTierSpec, CacheTier, TierBacking, TierSnapshot, TieredByteCache};

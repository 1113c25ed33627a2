//! The seven workloads: what each one builds and why it is in the suite.
//!
//! Every workload reads a synthetic dataset of equally sized items in
//! minibatches of [`BATCH_SIZE`] with a prefetch depth of [`PREFETCH_DEPTH`].
//! Sizes are chosen so that one epoch takes a few tenths of a second on a
//! 2-core host: a run then sees tens of epochs, and the median of their
//! rates is steady.

/// Samples per minibatch, in every workload.
pub const BATCH_SIZE: usize = 32;

/// Raw minibatches the fetch stage runs ahead of prep, in every workload.
pub const PREFETCH_DEPTH: usize = 4;

/// Lock shards of the multi-tenant server's hierarchy.
pub const SERVER_SHARDS: usize = 4;

/// Shared server DRAM as a percentage of all tenants' datasets together.
/// Above the sum of the quotas, so the quotas bind and capacity never does —
/// which is what makes the tenants' hit counts repeat exactly.
pub const SERVER_CAPACITY_PCT: u64 = 75;

/// The decode factor of the pipeline `Server::submit` gives every tenant;
/// `TenantSpec` has no way to choose another.
pub const SERVER_DECODE: usize = 6;

/// How a workload's streams are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One job, one stream (`Mode::Single`).
    Single,
    /// `jobs` jobs share one fetch and prep sweep (`Mode::Coordinated`).
    Coordinated { jobs: usize },
    /// `nodes` nodes each sweep a shard and serve peers' misses
    /// (`Mode::Partitioned`).
    Partitioned { nodes: usize },
    /// `tenants` independent sessions over one `Server`'s shared hierarchy,
    /// each with a dataset of its own.
    Server { tenants: usize },
}

impl Shape {
    /// Consumer threads (one per stream).
    pub fn streams(self) -> usize {
        match self {
            Shape::Single => 1,
            Shape::Coordinated { jobs } => jobs,
            Shape::Partitioned { nodes } => nodes,
            Shape::Server { tenants } => tenants,
        }
    }

    /// Fetch-and-prep executors running at once: coordinated jobs share one.
    pub fn executors(self) -> usize {
        match self {
            Shape::Single | Shape::Coordinated { .. } => 1,
            Shape::Partitioned { nodes } => nodes,
            Shape::Server { tenants } => tenants,
        }
    }
}

/// Where a cache miss reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `DirectBackend`: the synthetic source generates the bytes in memory.
    Direct,
    /// `FsBackend` over `OsVfs`: a packed file, read with this readahead.
    Fs { readahead_pages: u32 },
    /// `FsBackend` over `MemVfs`: the same code path with no device under
    /// it.
    MemFs { readahead_pages: u32 },
}

/// The cache in front of the store.  Percentages are of one dataset's
/// bytes; a partitioned node and a server tenant each get that much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// One MinIO DRAM level (for a server tenant: its DRAM quota).
    MinIo { pct: u64 },
    /// An LRU DRAM level over an LRU SSD level that persists through the
    /// same `Vfs` the store reads from.
    LruDramOverSsd { dram_pct: u64, ssd_pct: u64 },
}

/// The prep pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prep {
    /// `RandomResizedCrop` alone: one copy of half to all of the item.
    CropOnly,
    /// `PrepPipeline::image_classification()` with this decode factor.
    Image { decode: usize },
    /// No transform at all (the `nullprep` ceiling).
    Null,
}

/// The stage of the loader that limits a workload's delivered rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading, copying and caching items.
    Fetch,
    /// Transforming them.
    Prep,
}

/// One workload of the suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the suite (one line, copied to
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// The stage the workload is built to be bound by (the committed trace
    /// confirms it); the host's speed is judged by the reference kernel that
    /// resembles it.
    pub bound_by: Stage,
    pub shape: Shape,
    /// Items per dataset.
    pub items: u64,
    /// Bytes per raw item.
    pub item_bytes: u64,
    pub store: Store,
    pub cache: Cache,
    pub prep: Prep,
    /// Prep workers per executor.
    pub workers: usize,
    /// Fetch threads per executor.
    pub fetch_threads: usize,
    /// Cache shards per tier (0 = the session's own choice).
    pub fetch_shards: usize,
}

impl Workload {
    /// Bytes of one dataset.
    pub fn dataset_bytes(&self) -> u64 {
        self.items * self.item_bytes
    }

    /// Samples all streams together deliver per epoch.
    pub fn samples_per_epoch(&self) -> u64 {
        match self.shape {
            Shape::Single | Shape::Partitioned { .. } => self.items,
            Shape::Coordinated { jobs } => self.items * jobs as u64,
            Shape::Server { tenants } => self.items * tenants as u64,
        }
    }
}

const KIB: u64 = 1024;

/// The fetch-bound pair differs in `fetch_threads` alone.
const FETCH_FS: Workload = Workload {
    name: "fetch_serial_fs",
    why: "fetch-bound: file reads + MinIO tier transactions on one fetch thread with a cheap prep; the default path",
    bound_by: Stage::Fetch,
    shape: Shape::Single,
    items: 4096,
    item_bytes: 64 * KIB,
    store: Store::Fs { readahead_pages: 8 },
    cache: Cache::MinIo { pct: 35 },
    prep: Prep::CropOnly,
    workers: 1,
    fetch_threads: 1,
    fetch_shards: 8,
};

/// The suite, in the order the driver interleaves it.
pub const WORKLOADS: [Workload; 7] = [
    FETCH_FS,
    Workload {
        name: "fetch_pool_fs",
        why: "same bytes and same stream as fetch_serial_fs through a 2-thread fetch pool: isolates the pool and shard locks",
        fetch_threads: 2,
        ..FETCH_FS
    },
    Workload {
        name: "prep_cached",
        why: "prep-bound: 95 % DRAM hits feed image decode x16 on one worker; a fetch-side change must not move it",
        bound_by: Stage::Prep,
        shape: Shape::Single,
        items: 8192,
        item_bytes: 8 * KIB,
        store: Store::Direct,
        // Not fully resident: the benchmark contract wants no metric that
        // reads zero, and 5 % misses keep storage_bytes_per_sample above it
        // while the fetch stage stays under a tenth of the prep time.
        cache: Cache::MinIo { pct: 95 },
        // x16, not more: a prepared batch then weighs 4 MiB, and how many of
        // them are in flight at the peak no longer decides peak_rss_mb.
        prep: Prep::Image { decode: 16 },
        workers: 1,
        fetch_threads: 1,
        fetch_shards: 0,
    },
    Workload {
        name: "hp_coordinated",
        why: "coordinated prep: one fetch+prep sweep feeds two jobs through the staging area, halving CPU per delivered sample",
        bound_by: Stage::Prep,
        shape: Shape::Coordinated { jobs: 2 },
        items: 4096,
        item_bytes: 8 * KIB,
        store: Store::Direct,
        cache: Cache::MinIo { pct: 65 },
        prep: Prep::Image { decode: 32 },
        workers: 2,
        fetch_threads: 1,
        fetch_shards: 0,
    },
    Workload {
        name: "tier_spill_churn",
        why: "writes beside reads: LRU DRAM over a persistent LRU SSD tier, so spill writes, syncs and removes share the VFS with reads",
        bound_by: Stage::Fetch,
        shape: Shape::Single,
        items: 2048,
        item_bytes: 32 * KIB,
        // MemVfs: with three fdatasyncs per miss on the sandbox's shared
        // disk, ten runs of this workload on OsVfs spread by 25 % in
        // samples_per_s and 35 % in cpu_ms_per_ksample (quartiles over the
        // median), past the widest bound the manifest allows.  What the
        // spill path issues — writes and barriers — is gated exactly by
        // storage_ops_per_ksample instead.
        store: Store::MemFs { readahead_pages: 0 },
        cache: Cache::LruDramOverSsd {
            dram_pct: 15,
            ssd_pct: 35,
        },
        prep: Prep::CropOnly,
        workers: 1,
        fetch_threads: 1,
        fetch_shards: 0,
    },
    Workload {
        name: "partitioned_peers",
        why: "partitioned caching: two nodes, peer-cache fetches through the directory replace storage reads; the slower node sets the step",
        bound_by: Stage::Prep,
        shape: Shape::Partitioned { nodes: 2 },
        items: 8192,
        item_bytes: 16 * KIB,
        store: Store::Direct,
        cache: Cache::MinIo { pct: 40 },
        prep: Prep::Image { decode: 8 },
        workers: 1,
        fetch_threads: 1,
        fetch_shards: 0,
    },
    Workload {
        name: "server_tenants",
        why: "multi-tenant server: two tenants with binding DRAM quotas over one ShardedChain, the other sharded hierarchy",
        bound_by: Stage::Prep,
        shape: Shape::Server { tenants: 2 },
        items: 4096,
        item_bytes: 16 * KIB,
        store: Store::Direct,
        cache: Cache::MinIo { pct: 50 },
        prep: Prep::Image {
            decode: SERVER_DECODE,
        },
        workers: 1,
        fetch_threads: 1,
        fetch_shards: 0,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_the_fetch_pair_differs_in_threads_only() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.why.len() <= 200 && !a.why.contains('\n'));
            assert_eq!(a.items % BATCH_SIZE as u64, 0, "{}: whole batches", a.name);
        }
        let (serial, pool) = (
            by_name("fetch_serial_fs").unwrap(),
            by_name("fetch_pool_fs").unwrap(),
        );
        assert_eq!(
            Workload {
                name: serial.name,
                why: serial.why,
                fetch_threads: serial.fetch_threads,
                ..*pool
            },
            *serial
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn server_quotas_bind_before_capacity_does() {
        let w = by_name("server_tenants").unwrap();
        let Cache::MinIo { pct } = w.cache else {
            panic!("server tenants hold a MinIO quota");
        };
        assert!(pct < SERVER_CAPACITY_PCT);
    }
}

//! Building a workload on the public runtime API, driving its epochs in a
//! closed loop, and checking what it delivers.
//!
//! A [`Rig`] is one built workload: a `Session` or a `Server` with its
//! tenants, over a scratch directory of its own.  [`Rig::run_epoch`] starts
//! one consumer thread per stream, each of which takes its next minibatch
//! as soon as the previous one arrived and does nothing with it, so the
//! delivered rate is the loader's capacity.
//!
//! **The stream oracle.**  A stream is a pure function of the seeds, so the
//! harness recomputes it from the public primitives the runtime is built
//! from (`EpochSampler`, `DataSource::read`, `ExecutablePipeline::prepare`).
//! A *full* check (epoch 0 and the check epoch, both outside the timed
//! window) compares every batch's epoch, index, item order and augmentation
//! seeds with the plan, rebuilds every [`REFERENCE_STRIDE`]-th batch from
//! scratch and compares it byte for byte, and folds everything delivered
//! into an FNV digest.  A *light* check (timed epochs) counts errors and
//! verifies that every item arrived exactly once.

use crate::tempdir::TempRoot;
use crate::trace::{Layer, Op, Recorder, TracedBackend, TracedSource, TracedTier, TracedVfs};
use crate::workloads::{
    Cache, Prep, Shape, Store, Workload, BATCH_SIZE, PREFETCH_DEPTH, SERVER_CAPACITY_PCT,
    SERVER_SHARDS,
};
use coordl::{
    BatchStream, ByteTierSpec, DirectBackend, FetchBackend, FsBackend, Minibatch, Mode, Server,
    ServerConfig, Session, SessionConfig, TenantHandle, TenantSpec, TieredByteCache,
};
use dataset::{minibatches, DataSource, DatasetSpec, EpochSampler, ItemId, SyntheticItemStore};
use dcache::PolicyKind;
use prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfs::{MemVfs, OsVfs, Vfs, VfsStats};

/// The epoch run after the timed window for the second full check.  A fixed
/// index, so its digest does not depend on how many epochs the window held.
pub const CHECK_EPOCH: u64 = 1 << 32;

/// A full check rebuilds every this-many-th batch from the primitives.
pub const REFERENCE_STRIDE: usize = 16;

/// splitmix64: derives the independent seeds of one run from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: one multiply per eight payload bytes, so
/// digesting a whole epoch stays cheap next to preparing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Length, then the bytes as little-endian words (tail zero-padded).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    pub fn minibatch(&mut self, mb: &Minibatch) {
        self.word(mb.epoch);
        self.word(mb.index as u64);
        for s in &mb.samples {
            self.word(s.item);
            self.word(s.augmentation_seed);
            self.bytes(&s.data);
        }
    }
}

/// What one stream must deliver, recomputed from the runtime's primitives.
struct StreamOracle {
    store: Arc<dyn DataSource>,
    pipeline: ExecutablePipeline,
    sampler: EpochSampler,
    /// `(node, nodes)` for a partitioned node's shard of the permutation.
    shard: Option<(usize, usize)>,
}

impl StreamOracle {
    fn plan(&self, epoch: u64) -> Vec<Vec<ItemId>> {
        let order = match self.shard {
            None => self.sampler.permutation(epoch),
            Some((node, nodes)) => self.sampler.distributed_shard(epoch, node, nodes),
        };
        minibatches(&order, BATCH_SIZE)
    }
}

/// How the streams of an epoch must cover the dataset(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coverage {
    /// Every stream delivers every item of its dataset once.
    EachStream,
    /// The streams together deliver every item once.
    Union,
}

/// How closely an epoch's streams are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Light,
    Full,
}

/// What one consumer thread saw of its stream.
struct StreamOutcome {
    items: Vec<ItemId>,
    batches: u64,
    failed: u64,
    digest: Digest,
    /// Seconds from the epoch's start until the stream ended.
    drained_s: f64,
}

/// One epoch of a rig, as the harness saw it.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Digest over all streams in stream order (full checks only).
    pub digest: u64,
    /// Samples per second of the slowest stream over the fastest.
    pub stream_rate_ratio: f64,
}

/// The runtime's own cumulative counters, summed over a rig's sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub bytes_from_storage: u64,
    pub samples_prepared: u64,
    pub samples_delivered: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub lower_tier_hits: u64,
    pub evictions: u64,
    pub demotions: u64,
    pub fetch_busy_s: f64,
    pub fetch_stall_s: f64,
    pub prep_busy_s: f64,
    pub prep_stall_s: f64,
    pub consumer_wait_s: f64,
    /// Busy seconds per fetch-pool slot (summed across executors).
    pub fetch_slot_busy_s: Vec<f64>,
    /// Partitioned fetches by where they were served: the node's own tier,
    /// a peer's tier, the store.
    pub local_hits: u64,
    pub remote_hits: u64,
    pub storage_reads: u64,
    /// Hits the server's shared hierarchy counts for all its tenants: its
    /// cumulative hit ratio times the lookups the tenants issued so far.
    pub server_hits: f64,
    pub vfs: VfsStats,
    pub span_hits: u64,
    pub span_misses: u64,
    pub backend_errors: u64,
}

impl Counters {
    /// Operations issued to storage: the VFS's reads, writes and durability
    /// barriers, or the store's reads where the store has no VFS under it.
    pub fn storage_ops(&self, store: Store) -> u64 {
        match store {
            Store::Direct => self.cache_misses,
            Store::Fs { .. } | Store::MemFs { .. } => {
                self.vfs.reads + self.vfs.writes + self.vfs.syncs
            }
        }
    }

    /// What was added since `earlier` was taken.  The VFS counters count
    /// for the whole rig; the readahead and error counters likewise.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            bytes_from_storage: self.bytes_from_storage - earlier.bytes_from_storage,
            samples_prepared: self.samples_prepared - earlier.samples_prepared,
            samples_delivered: self.samples_delivered - earlier.samples_delivered,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            lower_tier_hits: self.lower_tier_hits - earlier.lower_tier_hits,
            evictions: self.evictions - earlier.evictions,
            demotions: self.demotions - earlier.demotions,
            fetch_busy_s: self.fetch_busy_s - earlier.fetch_busy_s,
            fetch_stall_s: self.fetch_stall_s - earlier.fetch_stall_s,
            prep_busy_s: self.prep_busy_s - earlier.prep_busy_s,
            prep_stall_s: self.prep_stall_s - earlier.prep_stall_s,
            consumer_wait_s: self.consumer_wait_s - earlier.consumer_wait_s,
            fetch_slot_busy_s: self
                .fetch_slot_busy_s
                .iter()
                .enumerate()
                .map(|(slot, busy)| {
                    busy - earlier.fetch_slot_busy_s.get(slot).copied().unwrap_or(0.0)
                })
                .collect(),
            local_hits: self.local_hits - earlier.local_hits,
            remote_hits: self.remote_hits - earlier.remote_hits,
            storage_reads: self.storage_reads - earlier.storage_reads,
            server_hits: self.server_hits - earlier.server_hits,
            vfs: VfsStats {
                reads: self.vfs.reads - earlier.vfs.reads,
                bytes_read: self.vfs.bytes_read - earlier.vfs.bytes_read,
                writes: self.vfs.writes - earlier.vfs.writes,
                bytes_written: self.vfs.bytes_written - earlier.vfs.bytes_written,
                syncs: self.vfs.syncs - earlier.vfs.syncs,
            },
            span_hits: self.span_hits - earlier.span_hits,
            span_misses: self.span_misses - earlier.span_misses,
            backend_errors: self.backend_errors - earlier.backend_errors,
        }
    }
}

enum Engine {
    Session(Box<Session>),
    Server {
        server: Server,
        tenants: Vec<TenantHandle>,
    },
}

/// One built workload.  Dropping it tears the runtime down and removes its
/// scratch directory.
pub struct Rig {
    pub workload: Workload,
    engine: Engine,
    oracles: Vec<StreamOracle>,
    coverage: Coverage,
    recorder: Option<Arc<Recorder>>,
    /// The undecorated VFS under the store and the persistent tier.
    vfs: Option<Arc<dyn Vfs>>,
    fs_backend: Option<Arc<FsBackend>>,
    traced_backend: Option<Arc<TracedBackend>>,
    // Declared last: the runtime above closes its files before the
    // directory goes.
    _root: TempRoot,
}

pub(crate) fn executable(prep: Prep, seed: u64) -> ExecutablePipeline {
    let (pipeline, decode) = match prep {
        Prep::CropOnly => (
            PrepPipeline {
                name: "crop-only".into(),
                transforms: vec![TransformKind::RandomResizedCrop],
            },
            1,
        ),
        Prep::Image { decode } => (PrepPipeline::image_classification(), decode),
        Prep::Null => (
            PrepPipeline {
                name: "null".into(),
                transforms: Vec::new(),
            },
            1,
        ),
    };
    ExecutablePipeline::new(pipeline, decode, seed)
}

fn pct_of(bytes: u64, pct: u64) -> u64 {
    bytes * pct / 100
}

impl Rig {
    /// Build `workload` from `seed` in a fresh directory under `base`.
    /// With a `recorder`, every hook the public API offers is wrapped in its
    /// tracing decorator; without one, none is.
    pub fn build(
        workload: &Workload,
        seed: u64,
        base: &Path,
        recorder: Option<&Arc<Recorder>>,
    ) -> Result<Rig, String> {
        let w = *workload;
        let root = TempRoot::new(base, w.name).map_err(|e| format!("scratch dir: {e}"))?;
        let err = |e: coordl::CoordlError| format!("{}: {e}", w.name);
        let session_seed = |tenant: u64| mix(seed, 1 + 16 * tenant);
        let store = |tenant: u64| -> Arc<dyn DataSource> {
            let spec = DatasetSpec::new(w.name, w.items, w.item_bytes, 0.0, 1.0);
            Arc::new(SyntheticItemStore::new(spec, mix(seed, 16 * tenant)))
        };
        let traced_source = |inner: Arc<dyn DataSource>| -> Arc<dyn DataSource> {
            match recorder {
                Some(rec) => Arc::new(TracedSource::new(inner, Arc::clone(rec))),
                None => inner,
            }
        };
        let config = |tenant: u64, cache_capacity_bytes: u64| SessionConfig {
            batch_size: BATCH_SIZE,
            num_workers: w.workers,
            prefetch_depth: PREFETCH_DEPTH,
            seed: session_seed(tenant),
            cache_capacity_bytes,
            fetch_threads: w.fetch_threads,
            fetch_shards: w.fetch_shards,
            // A starved consumer is a slow one here, never a dead job.
            take_timeout: Duration::from_secs(60),
            ..SessionConfig::default()
        };

        if let Shape::Server { tenants } = w.shape {
            let Cache::MinIo { pct } = w.cache else {
                return Err(format!("{}: a server takes MinIO tiers only", w.name));
            };
            let capacity = pct_of(w.dataset_bytes() * tenants as u64, SERVER_CAPACITY_PCT);
            let server = Server::new(ServerConfig::minio(capacity, SERVER_SHARDS)).map_err(err)?;
            let mut handles = Vec::new();
            let mut oracles = Vec::new();
            for t in 0..tenants as u64 {
                let plain = store(t);
                handles.push(
                    server
                        .submit(TenantSpec {
                            name: format!("tenant-{t}"),
                            dataset: traced_source(Arc::clone(&plain)),
                            quota_bytes: pct_of(w.dataset_bytes(), pct),
                            session: config(t, 0),
                            profile: None,
                        })
                        .map_err(err)?,
                );
                oracles.push(StreamOracle {
                    store: plain,
                    // `Server::submit` leaves the session's default
                    // pipeline in place: image classification, seeded from
                    // the session seed.
                    pipeline: executable(w.prep, session_seed(t)),
                    sampler: EpochSampler::new(w.items, session_seed(t)),
                    shard: None,
                });
            }
            return Ok(Rig {
                workload: w,
                engine: Engine::Server {
                    server,
                    tenants: handles,
                },
                oracles,
                coverage: Coverage::EachStream,
                recorder: recorder.cloned(),
                vfs: None,
                fs_backend: None,
                traced_backend: None,
                _root: root,
            });
        }

        let plain = store(0);
        let source = traced_source(Arc::clone(&plain));
        let pipeline = executable(w.prep, mix(seed, 2));
        let plain_vfs: Option<Arc<dyn Vfs>> = match w.store {
            Store::Fs { .. } => Some(Arc::new(
                OsVfs::new(root.path()).map_err(|e| format!("{}: {e}", w.name))?,
            )),
            Store::MemFs { .. } => Some(Arc::new(MemVfs::new())),
            Store::Direct => None,
        };
        let vfs: Option<Arc<dyn Vfs>> = plain_vfs.as_ref().map(|plain| -> Arc<dyn Vfs> {
            match recorder {
                Some(rec) => Arc::new(TracedVfs::new(Arc::clone(plain), Arc::clone(rec))),
                None => Arc::clone(plain),
            }
        });

        let capacity = match w.cache {
            Cache::MinIo { pct } => pct_of(w.dataset_bytes(), pct),
            Cache::LruDramOverSsd { .. } => 0, // the level specs carry the sizes
        };
        let cfg = config(0, capacity);
        let mode = match w.shape {
            Shape::Single => Mode::Single,
            Shape::Coordinated { jobs } => Mode::Coordinated { jobs },
            Shape::Partitioned { nodes } => Mode::Partitioned { nodes },
            Shape::Server { .. } => unreachable!("handled above"),
        };
        let mut builder = Session::builder(Arc::clone(&source), cfg.clone())
            .mode(mode)
            .pipeline(pipeline.clone());

        let mut fs_backend = None;
        let mut traced_backend = None;
        let backend: Option<Arc<dyn FetchBackend>> = match w.store {
            Store::Fs { readahead_pages } | Store::MemFs { readahead_pages } => {
                let vfs = Arc::clone(vfs.as_ref().expect("fs store has a vfs"));
                let fs = Arc::new(
                    FsBackend::new(vfs, "data", source.as_ref(), readahead_pages).map_err(err)?,
                );
                fs_backend = Some(Arc::clone(&fs));
                Some(fs)
            }
            // Untraced sessions build their own DirectBackend.
            Store::Direct => recorder.map(|_| -> Arc<dyn FetchBackend> {
                Arc::new(DirectBackend::new(Arc::clone(&source)))
            }),
        };
        if let Some(backend) = backend {
            builder = builder.fetch_backend(match recorder {
                Some(rec) => {
                    let traced = Arc::new(TracedBackend::new(backend, Arc::clone(rec)));
                    traced_backend = Some(Arc::clone(&traced));
                    traced
                }
                None => backend,
            });
        }

        let tier_specs = match w.cache {
            Cache::MinIo { .. } => vec![ByteTierSpec::dram(PolicyKind::MinIo, capacity)],
            Cache::LruDramOverSsd { dram_pct, ssd_pct } => {
                let vfs = vfs
                    .as_ref()
                    .ok_or_else(|| format!("{}: a persistent tier needs a VFS store", w.name))?;
                vec![
                    ByteTierSpec::dram(PolicyKind::Lru, pct_of(w.dataset_bytes(), dram_pct)),
                    ByteTierSpec::sata_ssd(PolicyKind::Lru, pct_of(w.dataset_bytes(), ssd_pct))
                        .persistent(Arc::clone(vfs), "ssd"),
                ]
            }
        };
        builder = match (recorder, w.shape) {
            // A partitioned session builds one tier per node itself and
            // takes no custom tier, so its tiers cannot be decorated.
            (Some(rec), Shape::Single | Shape::Coordinated { .. }) => {
                let tier =
                    TieredByteCache::try_new_sharded(tier_specs, cfg.resolved_fetch_shards())
                        .map_err(err)?;
                builder.cache_tier(Arc::new(TracedTier::new(Arc::new(tier), Arc::clone(rec))))
            }
            _ => match w.cache {
                Cache::MinIo { .. } => builder.cache_policy(PolicyKind::MinIo),
                Cache::LruDramOverSsd { .. } => builder.cache_tiers(tier_specs),
            },
        };
        let session = builder.build().map_err(err)?;

        let streams = w.shape.streams();
        let oracles = (0..streams)
            .map(|s| StreamOracle {
                store: Arc::clone(&plain),
                pipeline: pipeline.clone(),
                sampler: EpochSampler::new(w.items, cfg.seed),
                shard: matches!(w.shape, Shape::Partitioned { .. }).then_some((s, streams)),
            })
            .collect();
        Ok(Rig {
            workload: w,
            engine: Engine::Session(Box::new(session)),
            oracles,
            coverage: match w.shape {
                Shape::Partitioned { .. } => Coverage::Union,
                _ => Coverage::EachStream,
            },
            recorder: recorder.cloned(),
            vfs: plain_vfs,
            fs_backend,
            traced_backend,
            _root: root,
        })
    }

    /// The sessions of the rig: one, or one per tenant.
    fn sessions(&self) -> Vec<&Session> {
        match &self.engine {
            Engine::Session(s) => vec![s],
            Engine::Server { tenants, .. } => tenants.iter().map(TenantHandle::session).collect(),
        }
    }

    /// The server, for the workload that has one.
    pub fn server(&self) -> Option<&Server> {
        match &self.engine {
            Engine::Server { server, .. } => Some(server),
            Engine::Session(_) => None,
        }
    }

    /// The runtime's per-epoch trajectories (of the first session).
    pub fn epochs(&self) -> Vec<coordl::EpochTrajectory> {
        self.sessions()[0].report().epochs
    }

    /// Cumulative counters of everything the rig has done so far.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for session in self.sessions() {
            let report = session.report();
            c.bytes_from_storage += report.bytes_from_storage;
            c.samples_prepared += report.samples_prepared;
            c.samples_delivered += report.samples_delivered;
            c.cache_hits += report.cache_hits;
            c.cache_misses += report.cache_misses;
            c.lower_tier_hits += report.lower_tier_hits;
            c.fetch_busy_s += report.fetch_busy_seconds;
            c.fetch_stall_s += report.fetch_stall_seconds;
            c.prep_busy_s += report.prep_busy_seconds;
            c.prep_stall_s += report.prep_stall_seconds;
            c.consumer_wait_s += report.consumer_wait_seconds;
            for (slot, busy) in report.fetch_thread_busy_seconds.iter().enumerate() {
                if c.fetch_slot_busy_s.len() <= slot {
                    c.fetch_slot_busy_s.resize(slot + 1, 0.0);
                }
                c.fetch_slot_busy_s[slot] += busy;
            }
            let levels = session.tier_levels();
            c.evictions += levels.iter().map(|l| l.evictions).sum::<u64>();
            c.demotions += levels.iter().map(|l| l.demoted_in).sum::<u64>();
            if let Some(cluster) = session.partitioned_cluster() {
                let served = cluster.aggregate_stats();
                c.local_hits += served.local_hits;
                c.remote_hits += served.remote_hits;
                c.storage_reads += served.storage_reads;
            }
        }
        if let Some(server) = self.server() {
            c.server_hits = server.aggregate_hit_ratio() * (c.cache_hits + c.cache_misses) as f64;
        }
        if let Some(vfs) = &self.vfs {
            c.vfs = vfs.stats();
        }
        if let Some(fs) = &self.fs_backend {
            c.span_hits = fs.span_hits();
            c.span_misses = fs.span_misses();
        }
        if let Some(backend) = &self.traced_backend {
            c.backend_errors = backend.errors();
        }
        c
    }

    /// Run one epoch: every stream on a consumer thread of its own, the
    /// clock stopped once all of them have drained and the runtime has
    /// joined the epoch's stage threads.
    pub fn run_epoch(&self, epoch: u64, check: Check) -> EpochOutcome {
        let start = Instant::now();
        let consume = |stream: BatchStream, s: usize| {
            let out = consume(
                stream,
                epoch,
                &self.oracles[s],
                check,
                self.recorder.as_ref(),
                start,
            );
            if let Some(rec) = &self.recorder {
                rec.flush_current_thread();
            }
            out
        };
        let outcomes: Vec<StreamOutcome> = match &self.engine {
            Engine::Session(session) => {
                let run = session.epoch(epoch);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..session.num_jobs())
                        .map(|s| {
                            let stream = run.stream(s);
                            scope.spawn(move || consume(stream, s))
                        })
                        .collect();
                    handles.into_iter().map(join_consumer).collect()
                })
                // `run` drops here: the epoch's threads are joined.
            }
            Engine::Server { tenants, .. } => std::thread::scope(|scope| {
                let handles: Vec<_> = tenants
                    .iter()
                    .enumerate()
                    .map(|(s, tenant)| {
                        scope.spawn(move || {
                            let run = tenant.session().epoch(epoch);
                            consume(run.stream(0), s)
                        })
                    })
                    .collect();
                handles.into_iter().map(join_consumer).collect()
            }),
        };
        let wall_s = start.elapsed().as_secs_f64();

        let mut out = EpochOutcome {
            samples: 0,
            attempted: 0,
            failed: 0,
            wall_s,
            digest: 0,
            stream_rate_ratio: 1.0,
        };
        let mut digest = Digest::new();
        let mut rates = Vec::new();
        for (oracle, stream) in self.oracles.iter().zip(&outcomes) {
            let expected = match oracle.shard {
                None => self.workload.items,
                Some((node, nodes)) => {
                    oracle.sampler.distributed_shard(epoch, node, nodes).len() as u64
                }
            }
            .div_ceil(BATCH_SIZE as u64);
            out.attempted += expected;
            // A stream that ended early failed every batch it still owed.
            out.failed += stream.failed + expected.saturating_sub(stream.batches);
            out.samples += stream.items.len() as u64;
            digest.word(stream.digest.0);
            rates.push(stream.items.len() as f64 / stream.drained_s.max(1e-9));
        }
        out.failed += self.coverage_failures(&outcomes);
        out.digest = digest.0;
        let fastest = rates.iter().copied().fold(f64::MIN, f64::max);
        let slowest = rates.iter().copied().fold(f64::MAX, f64::min);
        if fastest > 0.0 {
            out.stream_rate_ratio = slowest / fastest;
        }
        out
    }

    /// Streams (or, for a union, epochs) in which some item did not arrive
    /// exactly once.
    fn coverage_failures(&self, outcomes: &[StreamOutcome]) -> u64 {
        let items = self.workload.items as usize;
        let exactly_once = |delivered: &mut dyn Iterator<Item = ItemId>| {
            let mut seen = vec![false; items];
            let mut count = 0usize;
            for item in delivered {
                match seen.get_mut(item as usize) {
                    Some(slot) if !*slot => *slot = true,
                    _ => return false, // duplicate or out of range
                }
                count += 1;
            }
            count == items
        };
        match self.coverage {
            Coverage::EachStream => outcomes
                .iter()
                .filter(|o| !exactly_once(&mut o.items.iter().copied()))
                .count() as u64,
            Coverage::Union => {
                let mut all = outcomes.iter().flat_map(|o| o.items.iter().copied());
                u64::from(!exactly_once(&mut all))
            }
        }
    }
}

fn join_consumer(handle: std::thread::ScopedJoinHandle<'_, StreamOutcome>) -> StreamOutcome {
    // The consumer runs benchmark code only; a panic there is a bug here.
    handle.join().expect("consumer thread panicked")
}

/// Drain one stream, checking it as `check` asks.
fn consume(
    stream: BatchStream,
    epoch: u64,
    oracle: &StreamOracle,
    check: Check,
    recorder: Option<&Arc<Recorder>>,
    epoch_start: Instant,
) -> StreamOutcome {
    let plan = match check {
        Check::Full => oracle.plan(epoch),
        Check::Light => Vec::new(),
    };
    let mut out = StreamOutcome {
        items: Vec::with_capacity(stream.total_batches() * BATCH_SIZE),
        batches: 0,
        failed: 0,
        digest: Digest::new(),
        drained_s: 0.0,
    };
    let mut stream = stream;
    loop {
        let span = recorder.map(|rec| rec.begin(Layer::Consumer, Op::BatchWait, Some(out.batches)));
        let next = stream.next();
        drop(span);
        let Some(next) = next else { break };
        let index = out.batches as usize;
        out.batches += 1;
        let mb = match next {
            Ok(mb) => mb,
            Err(_) => {
                out.failed += 1;
                continue;
            }
        };
        out.items.extend(mb.samples.iter().map(|s| s.item));
        let mut ok = mb.epoch == epoch && mb.index == index;
        if check == Check::Full {
            out.digest.minibatch(&mb);
            ok &= plan.get(index).is_some_and(|want| {
                want.len() == mb.samples.len()
                    && want.iter().zip(&mb.samples).all(|(&item, s)| {
                        s.item == item
                            && s.epoch == epoch
                            && s.augmentation_seed == oracle.pipeline.augmentation_seed(epoch, item)
                    })
                    && (!index.is_multiple_of(REFERENCE_STRIDE)
                        || want.iter().zip(&mb.samples).all(|(&item, s)| {
                            *s == oracle
                                .pipeline
                                .prepare(epoch, item, &oracle.store.read(item))
                        }))
            });
        }
        out.failed += u64::from(!ok);
    }
    out.drained_s = epoch_start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::default_base;
    use crate::workloads::WORKLOADS;

    /// Every workload shrunk to a few batches, so the whole suite builds
    /// and runs in a unit test.
    fn tiny(w: &Workload) -> Workload {
        Workload {
            items: 128,
            item_bytes: 512,
            ..*w
        }
    }

    #[test]
    fn digest_depends_on_every_field_and_on_length() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.0
        };
        assert_ne!(d(&|d| d.bytes(&[1, 2, 3])), d(&|d| d.bytes(&[1, 2, 3, 0])));
        assert_ne!(d(&|d| d.bytes(&[0; 8])), d(&|d| d.bytes(&[0; 16])));
        assert_eq!(
            d(&|d| d.bytes(b"abcdefghij")),
            d(&|d| d.bytes(b"abcdefghij"))
        );
        assert_ne!(
            d(&|d| {
                d.word(1);
                d.word(2)
            }),
            d(&|d| {
                d.word(2);
                d.word(1)
            })
        );
    }

    #[test]
    fn every_workload_passes_its_oracle_and_repeats_its_digest() {
        for w in WORKLOADS.iter().map(tiny) {
            let run = |seed| {
                let rig = Rig::build(&w, seed, &default_base(), None).unwrap();
                let first = rig.run_epoch(0, Check::Full);
                let light = rig.run_epoch(1, Check::Light);
                let last = rig.run_epoch(CHECK_EPOCH, Check::Full);
                for e in [&first, &light, &last] {
                    assert_eq!(e.failed, 0, "{}", w.name);
                    assert_eq!(e.samples, w.samples_per_epoch(), "{}", w.name);
                    assert_eq!(e.attempted, e.samples / BATCH_SIZE as u64, "{}", w.name);
                }
                let c = rig.counters();
                assert_eq!(c.samples_delivered, 3 * w.samples_per_epoch(), "{}", w.name);
                (first.digest, last.digest)
            };
            let a = run(7);
            assert_eq!(a, run(7), "{}: same seed, same stream", w.name);
            assert_ne!(a, run(8), "{}: the seed reaches the stream", w.name);
            assert_ne!(a.0, a.1, "{}: epochs differ", w.name);
        }
    }

    #[test]
    fn serial_and_pool_fetch_deliver_the_same_stream() {
        let digests: Vec<u64> = ["fetch_serial_fs", "fetch_pool_fs"]
            .iter()
            .map(|name| {
                let w = tiny(crate::workloads::by_name(name).unwrap());
                let rig = Rig::build(&w, 3, &default_base(), None).unwrap();
                rig.run_epoch(0, Check::Full).digest
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn the_oracle_notices_a_stream_that_is_not_the_plan() {
        let w = tiny(&WORKLOADS[0]);
        let mut rig = Rig::build(&w, 5, &default_base(), None).unwrap();
        // Expect another seed's shuffle: order, seeds and payloads all
        // disagree with what the session delivers.
        rig.oracles[0].sampler = EpochSampler::new(w.items, 999);
        let e = rig.run_epoch(0, Check::Full);
        assert_eq!(e.failed, e.attempted, "every batch is out of plan");
        // Expect the right order but another augmentation seed: only the
        // rebuilt batches and the seed comparison can tell.
        let mut rig = Rig::build(&w, 5, &default_base(), None).unwrap();
        rig.oracles[0].pipeline = executable(w.prep, 12345);
        assert!(rig.run_epoch(0, Check::Full).failed > 0);
        // A light check still catches a dataset that is not covered once.
        let mut rig = Rig::build(&w, 5, &default_base(), None).unwrap();
        rig.workload.items += 1;
        assert!(rig.run_epoch(0, Check::Light).failed > 0);
    }

    #[test]
    fn scratch_directories_go_with_the_rig() {
        let base = TempRoot::new(&default_base(), "rig-cleanup").unwrap();
        let w = tiny(crate::workloads::by_name("tier_spill_churn").unwrap());
        {
            let rig = Rig::build(&w, 1, base.path(), None).unwrap();
            rig.run_epoch(0, Check::Light);
            assert!(rig.counters().vfs.syncs > 0, "the ssd tier spilled");
            assert_eq!(std::fs::read_dir(base.path()).unwrap().count(), 1);
        }
        assert_eq!(std::fs::read_dir(base.path()).unwrap().count(), 0);
    }

    #[test]
    fn traced_rigs_deliver_the_same_stream_and_record_every_layer() {
        let w = tiny(crate::workloads::by_name("tier_spill_churn").unwrap());
        let plain = Rig::build(&w, 2, &default_base(), None).unwrap();
        let rec = Recorder::new();
        let traced = Rig::build(&w, 2, &default_base(), Some(&rec)).unwrap();
        assert_eq!(
            plain.run_epoch(0, Check::Full).digest,
            traced.run_epoch(0, Check::Full).digest
        );
        let mut layers: Vec<Layer> = rec.drain().iter().flatten().map(|s| s.layer).collect();
        layers.sort();
        layers.dedup();
        assert_eq!(
            layers,
            vec![
                Layer::Consumer,
                Layer::Tier,
                Layer::Backend,
                Layer::Vfs,
                Layer::Dataset
            ]
        );
    }
}

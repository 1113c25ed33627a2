//! Deferred reads: a miss the tier will not keep is a *hole*, read off the
//! ordered fetch path by whichever stage thread reaches it first.  That may
//! move a read to another thread and another moment, and nothing else.
//!
//! The equivalence half runs every session twice: once over the tier a
//! session builds, which records a bypass before the read, and once over
//! the same `TieredByteCache` behind a forwarding tier that keeps
//! `CacheTier::try_bypass`'s default, so every miss is read inline.  The
//! streams, every counted `LoaderReport` field, each level's
//! `TierSnapshot` and the backend's reads — per item — must be equal.
//!
//! The robustness half fails the N-th file read of a two-epoch MinIO
//! session over `FsBackend`, for every N: epoch 0 fills the cache (inline
//! reads, then holes once it is full) and epoch 1 reads only holes.  Each
//! failure must surface as exactly one typed `BackendIo`, after exactly the
//! batches the fault-free stream delivers first, with `bytes_from_storage`
//! counting only the reads that succeeded.

use benchkit::runtime::StreamDigest;
use datastalls::cache::PolicyKind;
use datastalls::coordl::{
    ByteTierSpec, CacheTier, CoordlError, DirectBackend, FetchBackend, FsBackend, LoaderReport,
    Mode, Session, SessionConfig, TierSnapshot, TieredByteCache,
};
use datastalls::dataset::ItemId;
use datastalls::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use vfs::{FileHandle, MemVfs, Vfs, VfsError, VfsStats};

const SHARDS: usize = 8;
const EPOCHS: u64 = 3;

fn store(items: u64, avg: u64, spread: f64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("deferred-reads", items, avg, spread, 4.0),
        17,
    ))
}

fn config(batch_size: usize, cache_capacity_bytes: u64) -> SessionConfig {
    SessionConfig {
        batch_size,
        seed: 23,
        cache_capacity_bytes,
        staging_window: 4,
        take_timeout: Duration::from_secs(20),
        ..SessionConfig::default()
    }
}

/// A `TieredByteCache` that keeps `try_bypass`'s default: every miss it
/// sees is read inline and offered to `admit`.
struct Inline(TieredByteCache);

impl CacheTier for Inline {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.0.lookup(item)
    }
    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.0.lookup_traced(item)
    }
    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        self.0.admit(item, bytes)
    }
    fn contains(&self, item: ItemId) -> bool {
        self.0.contains(item)
    }
    fn used_bytes(&self) -> u64 {
        self.0.used_bytes()
    }
    fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes()
    }
    fn resident_items(&self) -> usize {
        self.0.resident_items()
    }
    fn hits(&self) -> u64 {
        self.0.hits()
    }
    fn misses(&self) -> u64 {
        self.0.misses()
    }
    fn policy_name(&self) -> &'static str {
        self.0.policy_name()
    }
    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        self.0.tier_snapshots()
    }
    fn flush(&self) -> Result<(), CoordlError> {
        self.0.flush()
    }
}

/// A `DirectBackend` that counts the reads of every item.
struct Counting {
    inner: DirectBackend,
    reads: Vec<AtomicU64>,
}

impl Counting {
    fn new(source: &Arc<dyn DataSource>) -> Self {
        Counting {
            inner: DirectBackend::new(Arc::clone(source)),
            reads: (0..source.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn reads(&self) -> Vec<u64> {
        self.reads
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .collect()
    }
}

impl FetchBackend for Counting {
    fn num_items(&self) -> u64 {
        self.inner.num_items()
    }
    fn item_bytes(&self, item: ItemId) -> u64 {
        self.inner.item_bytes(item)
    }
    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        self.reads[item as usize].fetch_add(1, Ordering::SeqCst);
        self.inner.read(item)
    }
    fn recycle(&self, buf: Vec<u8>) {
        self.inner.recycle(buf);
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// Drain every epoch's streams, coordinated jobs concurrently, into one
/// digest per job (epochs concatenated).
fn drain(session: &Session, epochs: u64) -> Vec<u64> {
    let jobs = session.num_jobs();
    let mut digests: Vec<StreamDigest> = (0..jobs).map(|_| StreamDigest::default()).collect();
    for epoch in 0..epochs {
        let run = session.epoch(epoch);
        let handles: Vec<_> = (0..jobs)
            .map(|job| {
                let stream = run.stream(job);
                std::thread::spawn(move || {
                    stream
                        .map(|mb| mb.expect("no read fails here"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (digest, handle) in digests.iter_mut().zip(handles) {
            for mb in handle.join().expect("consumer") {
                digest.absorb(&mb);
            }
        }
    }
    digests.iter().map(StreamDigest::finish).collect()
}

/// Every counted field of a report: all but the wall-clock seconds and the
/// staging peak, which depend on timing.
fn counted(report: &LoaderReport) -> Vec<String> {
    let totals = format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        report.mode,
        report.jobs,
        report.cache_policy,
        report.backend,
        report.cache_capacity_bytes,
        report.cache_used_bytes,
        report.cache_resident_items,
        report.bytes_from_storage,
        report.bytes_from_cache,
        report.bytes_from_lower_tiers,
        report.bytes_from_remote,
        report.samples_prepared,
        report.samples_delivered,
        report.cache_hits,
        report.cache_misses,
        report.lower_tier_hits,
        report.device_seconds,
    );
    let epochs = report.epochs.iter().map(|e| {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {}",
            e.epoch,
            e.counts.bytes_from_storage,
            e.counts.bytes_from_cache,
            e.counts.bytes_from_lower_tiers,
            e.counts.bytes_from_remote,
            e.samples_prepared,
            e.counts.samples,
            e.counts.cache_hits,
            e.counts.cache_misses,
            e.counts.lower_tier_hits,
            e.device_seconds,
            e.staging_published,
            e.staging_evicted,
        )
    });
    std::iter::once(totals).chain(epochs).collect()
}

/// What a run observed: digests, counted report, per-level snapshots and
/// per-item backend reads; and how many reads were deferred.
type Observed = (Vec<u64>, Vec<String>, Vec<TierSnapshot>, Vec<u64>);

fn run(
    mode: Mode,
    policy: PolicyKind,
    workers: usize,
    fetch_threads: usize,
    inline: bool,
) -> (Observed, u64) {
    let source = store(240, 1024, 0.3);
    let dataset: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let capacity = dataset * 2 / 5;
    let backend = Arc::new(Counting::new(&source));
    let builder = Session::builder(Arc::clone(&source), config(8, capacity))
        .mode(mode)
        .workers(workers)
        .prefetch_depth(2)
        .fetch_threads(fetch_threads)
        .fetch_shards(SHARDS)
        .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
        .pipeline(ExecutablePipeline::new(
            PrepPipeline::image_classification(),
            2,
            5,
        ));
    let session = if inline {
        let specs = vec![ByteTierSpec::dram(policy, capacity)];
        let tier = TieredByteCache::try_new_sharded(specs, SHARDS).expect("a DRAM tier");
        builder.cache_tier(Arc::new(Inline(tier)))
    } else {
        builder.cache_policy(policy)
    }
    .build()
    .expect("valid session");
    let digests = drain(&session, EPOCHS);
    let observed = (
        digests,
        counted(&session.report()),
        session.tier_levels(),
        backend.reads(),
    );
    (observed, session.stats().deferred_reads())
}

#[test]
fn deferred_reads_change_no_stream_counter_snapshot_or_read() {
    let modes = [Mode::Single, Mode::Coordinated { jobs: 3 }];
    for (mode, policy) in modes
        .iter()
        .map(|&mode| (mode, PolicyKind::MinIo))
        .chain([(Mode::Single, PolicyKind::Lru)])
    {
        for fetch_threads in [1, 2, 4] {
            for workers in [1, 2] {
                let what = format!("{mode:?} {policy:?} f={fetch_threads} w={workers}");
                let (inline, none) = run(mode, policy, workers, fetch_threads, true);
                let (deferred, holes) = run(mode, policy, workers, fetch_threads, false);
                assert_eq!(deferred, inline, "{what}");
                assert_eq!(none, 0, "{what}: the forwarding tier reads inline");
                let reads = &deferred.3;
                assert!(reads.iter().all(|&r| r <= EPOCHS), "{what}: read twice");
                let misses: u64 = reads.iter().sum();
                match policy {
                    // MinIO fills during epoch 0, then bypasses every miss.
                    PolicyKind::MinIo => {
                        assert!(holes > 0 && holes < misses, "{what}: both paths ran")
                    }
                    // LRU never bypasses an item that fits.
                    _ => assert_eq!(holes, 0, "{what}"),
                }
            }
        }
    }
}

/// A `MemVfs` whose N-th `read_into` fails (counting from 1), once.
struct FailingVfs {
    inner: MemVfs,
    fail_at: u64,
    reads: AtomicU64,
    /// Bytes the reads that succeeded returned.
    read_bytes: AtomicU64,
}

impl Vfs for FailingVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        self.inner.open(path, create)
    }
    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.inner.read_at(file, offset, len)
    }
    fn read_into(&self, file: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, VfsError> {
        if self.reads.fetch_add(1, Ordering::SeqCst) + 1 == self.fail_at {
            return Err(VfsError::Io {
                path: "DATA".into(),
                detail: format!("injected failure of read {}", self.fail_at),
            });
        }
        let got = self.inner.read_into(file, offset, buf)?;
        self.read_bytes.fetch_add(got as u64, Ordering::SeqCst);
        Ok(got)
    }
    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.inner.write_at(file, offset, data)
    }
    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        self.inner.sync(file)
    }
    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        self.inner.len(file)
    }
    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        self.inner.close(file)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &str) -> Result<(), VfsError> {
        self.inner.remove(path)
    }
    fn name(&self) -> &'static str {
        "failing"
    }
    fn stats(&self) -> VfsStats {
        self.inner.stats()
    }
}

/// One stream's outcome: the digest of each batch it delivered, then its
/// error, if it ended with one.
type Outcome = (Vec<u64>, Option<CoordlError>);

/// Run two epochs of a MinIO session over `FsBackend` on a VFS failing its
/// `fail_at`-th read (never, for 0); returns each epoch's outcome, the
/// session's `bytes_from_storage` and the bytes of the reads that
/// succeeded.
fn faulty(fail_at: u64, workers: usize, fetch_threads: usize) -> (Vec<Outcome>, u64, u64) {
    let source = store(64, 2048, 0.0);
    let vfs = Arc::new(FailingVfs {
        inner: MemVfs::new(),
        fail_at,
        reads: AtomicU64::new(0),
        read_bytes: AtomicU64::new(0),
    });
    let backend = FsBackend::new(Arc::clone(&vfs) as Arc<dyn Vfs>, "data", &*source, 0)
        .expect("materialized");
    let session = Session::builder(Arc::clone(&source), config(4, 64 * 2048 * 2 / 5))
        .workers(workers)
        .prefetch_depth(2)
        .fetch_threads(fetch_threads)
        .fetch_shards(SHARDS)
        .fetch_backend(Arc::new(backend))
        .cache_policy(PolicyKind::MinIo)
        .pipeline(ExecutablePipeline::new(
            PrepPipeline::image_classification(),
            2,
            5,
        ))
        .build()
        .expect("valid session");
    let outcomes = (0..2)
        .map(|epoch| {
            let run = session.epoch(epoch);
            let mut stream = run.stream(0);
            let mut batches = Vec::new();
            for outcome in stream.by_ref() {
                match outcome {
                    Ok(mb) => {
                        let mut digest = StreamDigest::default();
                        digest.absorb(&mb);
                        batches.push(digest.finish());
                    }
                    Err(err) => {
                        assert!(stream.next().is_none(), "the error ends the stream");
                        return (batches, Some(err));
                    }
                }
            }
            (batches, None)
        })
        .collect();
    let storage = session.stats().bytes_from_storage();
    drop(session);
    (outcomes, storage, vfs.read_bytes.load(Ordering::SeqCst))
}

#[test]
fn a_failed_read_on_either_path_surfaces_once_typed() {
    let (clean, storage, read) = faulty(0, 1, 1);
    assert!(clean.iter().all(|(_, err)| err.is_none()));
    assert_eq!(storage, read);
    let reads = read / 2048;
    assert!(reads > 64, "epoch 1 reads its misses too");
    for fetch_threads in [1, 2] {
        for workers in [1, 2] {
            for fail_at in 1..=reads {
                let what = format!("f={fetch_threads} w={workers} read {fail_at}");
                // A hang fails the test instead of stalling it.
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let _ = tx.send(faulty(fail_at, workers, fetch_threads));
                });
                let (outcomes, storage, read) = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{what}: hung or panicked"));
                assert_eq!(storage, read, "{what}: only successful reads count");
                let failed: Vec<&CoordlError> = outcomes
                    .iter()
                    .filter_map(|(_, err)| err.as_ref())
                    .collect();
                assert_eq!(failed.len(), 1, "{what}: exactly one error");
                assert!(
                    matches!(failed[0], CoordlError::BackendIo { .. }),
                    "{what}: typed, got {}",
                    failed[0]
                );
                for ((batches, err), (want, _)) in outcomes.iter().zip(&clean) {
                    match err {
                        // The batches before the error are the fault-free
                        // stream's first ones: a failed buffer is never
                        // served.
                        Some(_) => assert_eq!(batches[..], want[..batches.len()], "{what}"),
                        None => assert_eq!(batches, want, "{what}"),
                    }
                }
            }
        }
    }
}

#[test]
fn a_read_shorter_than_item_bytes_is_a_typed_error() {
    // A backend whose `item_bytes` overstates what its reads return: the
    // hole's read is refused, and its buffer is handed back, not served.
    // It counts the buffers with bytes in them that come back: not the
    // empty ones the session hands over at the tier's first bypass.
    struct Short(Counting, Mutex<usize>);
    impl FetchBackend for Short {
        fn num_items(&self) -> u64 {
            self.0.num_items()
        }
        fn item_bytes(&self, item: ItemId) -> u64 {
            self.0.item_bytes(item) + 1
        }
        fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
            self.0.read(item)
        }
        fn recycle(&self, buf: Vec<u8>) {
            *self.1.lock().unwrap() += usize::from(!buf.is_empty());
            self.0.recycle(buf);
        }
        fn name(&self) -> &'static str {
            "short"
        }
    }
    let source = store(64, 512, 0.0);
    let backend = Arc::new(Short(Counting::new(&source), Mutex::new(0)));
    let session = Session::builder(Arc::clone(&source), config(4, 0))
        .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
        .cache_policy(PolicyKind::MinIo)
        .build()
        .expect("valid session");
    let outcomes: Vec<_> = session.epoch(0).stream(0).collect();
    match outcomes.last() {
        Some(Err(CoordlError::BackendIo { detail, .. })) => {
            assert!(detail.contains("item_bytes"), "{detail}")
        }
        other => panic!("expected a BackendIo, got {other:?}"),
    }
    assert!(outcomes.iter().rev().skip(1).all(Result::is_ok));
    assert_eq!(session.stats().bytes_from_storage(), 0);
    assert!(
        *backend.1.lock().unwrap() >= 1,
        "the short read's buffer went back"
    );
}

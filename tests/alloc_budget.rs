//! Allocation budget of the runtime's data path (ISSUEs 15 and 17): a
//! delivered sample's bytes are allocated once — the buffer prep returns; the
//! payload a miss reads is a recycled one — not two to four times.  The gate
//! is a count, not a timing, so it runs on every host: bytes requested from
//! the allocator per delivered sample, over steady epochs of two
//! `dsbench`-shaped sessions.

use datastalls::cache::PolicyKind;
use datastalls::coordl::{FsBackend, Session, SessionConfig};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use datastalls::prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use vfs::MemVfs;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the bytes of every request (the counter
/// `dsbench` reports as `alloc_bytes_per_sample`).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: shrinking in place asks for nothing.
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STEADY_EPOCHS: u64 = 3;

fn source(items: u64, item_bytes: u64) -> Arc<dyn DataSource> {
    let spec = DatasetSpec::new("alloc-budget", items, item_bytes, 0.0, 1.0);
    Arc::new(SyntheticItemStore::new(spec, 11))
}

fn config(cache_capacity_bytes: u64) -> SessionConfig {
    SessionConfig {
        batch_size: 32,
        num_workers: 1,
        prefetch_depth: 4,
        cache_capacity_bytes,
        fetch_shards: 8,
        ..SessionConfig::default()
    }
}

/// Stream one epoch; returns the samples delivered.
fn run_epoch(session: &Session, epoch: u64) -> u64 {
    let run = session.epoch(epoch);
    run.stream(0)
        .map(|batch| batch.expect("no fetch fails here").samples.len() as u64)
        .sum()
}

/// Bytes requested per delivered sample over the steady epochs that follow
/// one warm epoch (which fills the cache and grows every recycled buffer).
fn steady_bytes_per_sample(session: &Session) -> u64 {
    run_epoch(session, 0);
    let before = REQUESTED.load(Relaxed);
    let delivered: u64 = (1..=STEADY_EPOCHS).map(|e| run_epoch(session, e)).sum();
    (REQUESTED.load(Relaxed) - before) / delivered
}

// One test, so that nothing else allocates while a window is counted.
#[test]
fn a_delivered_sample_is_allocated_once_per_stage() {
    // `fetch_serial_fs`: 64 KiB items read from a packed file, 35 % of them
    // cached, the crop as the only transform.  Per sample: one crop window
    // of half to all of the item (0.75 of it on average); the 0.65 miss
    // payloads are read into buffers prep handed back.  The backend's free
    // list grows to the most payloads that were ever between fetch and prep
    // at once, in whichever epoch a stage first runs that far ahead; with at
    // most three batches of 8 there, what it can still grow by in the
    // counted epochs is 0.03 of an item per sample (`dsbench`'s window of
    // six batches of 32 is most of this 256-item dataset: 0.79 to 0.82 x).
    let (items, item_bytes) = (256u64, 64 * 1024u64);
    let dataset = source(items, item_bytes);
    let backend = FsBackend::new(Arc::new(MemVfs::new()), "data", dataset.as_ref(), 8)
        .expect("materialise on a MemVfs");
    let crop_only = PrepPipeline {
        name: "crop-only".to_string(),
        transforms: vec![TransformKind::RandomResizedCrop],
    };
    let small_window = SessionConfig {
        batch_size: 8,
        prefetch_depth: 1,
        ..config(items * item_bytes * 35 / 100)
    };
    let session = Session::builder(dataset, small_window)
        .cache_policy(PolicyKind::MinIo)
        .fetch_backend(Arc::new(backend))
        .pipeline(ExecutablePipeline::new(crop_only, 1, 3))
        .build()
        .expect("valid session");
    let per_sample = steady_bytes_per_sample(&session);
    assert!(
        per_sample <= item_bytes * 8 / 10,
        "fetch-bound session requests {per_sample} bytes per {item_bytes}-byte sample"
    );

    // `prep_cached`: 8 KiB items, 95 % cached, the image pipeline at decode
    // x16.  Per sample: the window of the decoded item the crop keeps, made
    // once and transformed in place.
    let (items, item_bytes, decode) = (512u64, 8 * 1024u64, 16u64);
    let session = Session::builder(
        source(items, item_bytes),
        config(items * item_bytes * 95 / 100),
    )
    .cache_policy(PolicyKind::MinIo)
    .pipeline(ExecutablePipeline::new(
        PrepPipeline::image_classification(),
        decode as usize,
        3,
    ))
    .build()
    .expect("valid session");
    let per_sample = steady_bytes_per_sample(&session);
    let decoded_bytes = item_bytes * decode;
    assert!(
        per_sample <= decoded_bytes * 8 / 10 + 1024,
        "prep-bound session requests {per_sample} bytes per {decoded_bytes}-byte decoded sample"
    );
}

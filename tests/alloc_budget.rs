//! Allocation budget of the runtime's data path: in steady state a delivered
//! sample costs the allocator a few bytes of batch bookkeeping and nothing
//! else.  Prep writes each sample into a buffer the consumer let go of (the
//! stream takes every batch back once nothing else holds it), and every
//! backend reads each miss into a payload that came back: from prep, when no
//! tier kept it, or from the session's cache tier, when the tier drops it —
//! an LRU tier evicting on nearly every miss included.  The gate is a count,
//! not a timing, so it runs on every host: bytes requested from the
//! allocator per delivered sample, over steady epochs of four
//! `dsbench`-shaped sessions, against a flat 1 KiB.

use datastalls::cache::PolicyKind;
use datastalls::coordl::{BatchStream, FsBackend, Mode, Session, SessionConfig};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use datastalls::prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};
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

/// Drain `stream`, dropping each batch before asking for the next; returns
/// the samples delivered.  With `stall`, after the first batch it waits
/// until prep has prepared that many samples in all: one full
/// prepared-side window, where every stage is parked.
fn drain(session: &Session, stream: BatchStream, mut stall: Option<u64>) -> u64 {
    let mut delivered = 0;
    for mb in stream {
        delivered += mb.expect("no fetch fails here").samples.len() as u64;
        if let Some(parked) = stall.take() {
            let deadline = Instant::now() + Duration::from_secs(120);
            while session.stats().samples_prepared() < parked {
                assert!(Instant::now() < deadline, "prep never filled its window");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    delivered
}

/// Stream one epoch, every job on a thread of its own; returns the samples
/// delivered.  A `stall`ed epoch fills the executor's windows once: the
/// batch lent to the consumer and the staging window, all the prep pool
/// prepares for a stalled consumer.  The lane makes every sample buffer at
/// its first batch anyway, and the session hands the backend buffers for
/// every hole it can hold in flight at its tier's first bypass; the stall
/// is for the other raw payloads, which the backend makes only as many of
/// as were ever in flight together.
fn run_epoch(session: &Session, epoch: u64, stall: bool) -> u64 {
    let config = session.config();
    let queued = match session.mode() {
        Mode::Coordinated { .. } => config.staging_window,
        _ => config.prefetch_depth,
    };
    let window = (queued + 1) as u64;
    let parked = session.stats().samples_prepared()
        + window.min(session.batches_per_epoch() as u64) * config.batch_size as u64;
    let stall = stall.then_some(parked);
    let run = session.epoch(epoch);
    std::thread::scope(|scope| {
        let jobs: Vec<_> = (0..session.num_jobs())
            .map(|job| {
                let stream = run.stream(job);
                scope.spawn(move || drain(session, stream, stall))
            })
            .collect();
        jobs.into_iter().map(|job| job.join().unwrap()).sum()
    })
}

/// Bytes requested from the allocator per delivered sample over the steady
/// epochs that follow one stalled warm epoch.
fn steady_bytes_per_sample(session: &Session) -> u64 {
    run_epoch(session, 0, true);
    let before = REQUESTED.load(Relaxed);
    let delivered: u64 = (1..=STEADY_EPOCHS)
        .map(|e| run_epoch(session, e, false))
        .sum();
    (REQUESTED.load(Relaxed) - before) / delivered
}

fn assert_within_budget(what: &str, session: &Session) {
    let allocated = steady_bytes_per_sample(session);
    assert!(
        allocated <= 1024,
        "{what}: {allocated} bytes requested per delivered sample, budget 1024"
    );
}

// One test, so that nothing else allocates while a window is counted.
#[test]
fn a_delivered_sample_costs_at_most_its_miss_payload() {
    // `fetch_serial_fs`: 64 KiB items read from a packed file, 35 % of them
    // cached, the crop as the only transform.  The miss payloads are read
    // into buffers prep handed back, the crop's window into one the stream
    // took back.
    let (items, item_bytes) = (256u64, 64 * 1024u64);
    let crop_only = || {
        let crop = PrepPipeline {
            name: "crop-only".to_string(),
            transforms: vec![TransformKind::RandomResizedCrop],
        };
        ExecutablePipeline::new(crop, 1, 3)
    };
    let fetch_bound = |policy| {
        let dataset = source(items, item_bytes);
        let backend = FsBackend::new(Arc::new(MemVfs::new()), "data", dataset.as_ref(), 8)
            .expect("materialise on a MemVfs");
        let small_window = SessionConfig {
            batch_size: 8,
            prefetch_depth: 1,
            ..config(items * item_bytes * 35 / 100)
        };
        Session::builder(dataset, small_window)
            .cache_policy(policy)
            .fetch_backend(Arc::new(backend))
            .pipeline(crop_only())
            .build()
            .expect("valid session")
    };
    assert_within_budget("fetch-bound", &fetch_bound(PolicyKind::MinIo));

    // The same session under LRU: a shuffled epoch makes it evict on nearly
    // every miss (the paper's Fig. 3), and each miss is read into the
    // payload the tier dropped.
    assert_within_budget("evicting", &fetch_bound(PolicyKind::Lru));

    // `prep_cached`: 8 KiB items, 95 % cached, the image pipeline at decode
    // x16.  Each sample is decoded, cropped and transformed in a buffer of
    // the decoded item's size that the stream took back; each miss is
    // generated into a payload prep handed back.
    let (items, item_bytes) = (512u64, 8 * 1024u64);
    let image = || ExecutablePipeline::new(PrepPipeline::image_classification(), 16, 3);
    let session = Session::builder(
        source(items, item_bytes),
        config(items * item_bytes * 95 / 100),
    )
    .cache_policy(PolicyKind::MinIo)
    .pipeline(image())
    .build()
    .expect("valid session");
    assert_within_budget("prep-bound", &session);

    // `hp_coordinated`: two jobs share one sweep, 65 % cached.  A batch's
    // buffers go back through whichever job lets go of it last.
    let session = Session::builder(
        source(items, item_bytes),
        SessionConfig {
            staging_window: 4,
            ..config(items * item_bytes * 65 / 100)
        },
    )
    .mode(Mode::Coordinated { jobs: 2 })
    .cache_policy(PolicyKind::MinIo)
    .pipeline(image())
    .build()
    .expect("valid session");
    assert_within_budget("coordinated", &session);
}

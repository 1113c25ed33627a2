//! `AlignedReader` against a reference model of its single-span policy, on
//! both VFS implementations, through a `Vfs` that provides only the required
//! methods, and from several threads at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use vfs::{AlignedReader, FileHandle, MemVfs, OsVfs, Vfs, VfsError, VfsStats, PAGE_SIZE};

/// Eight pages and a ragged tail, so the last span is short.
const FILE_LEN: u64 = 8 * PAGE_SIZE + 123;

fn content() -> Vec<u8> {
    (0..FILE_LEN)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect()
}

/// Run `test` on a `MemVfs` and on an `OsVfs` under a scratch directory named
/// after the calling test (tests run in parallel and must not share one).
fn with_both(name: &str, test: impl Fn(Arc<dyn Vfs>, FileHandle)) {
    let dir = std::env::temp_dir().join(format!("coordl-reader-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let both: [Arc<dyn Vfs>; 2] = [Arc::new(MemVfs::new()), Arc::new(OsVfs::new(&dir).unwrap())];
    for vfs in both {
        let file = vfs.open("data.bin", true).unwrap();
        vfs.write_at(file, 0, &content()).unwrap();
        test(vfs, file);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single-span policy, on offsets alone: one buffered span; a request it
/// covers entirely is a hit; any other request reads the page-aligned span
/// around it plus the readahead window, clamped at end of file, and that
/// span — short or not — replaces the buffered one.
#[derive(Default)]
struct ModelReader {
    readahead_pages: u64,
    span: Option<(u64, u64)>,
    reads: u64,
    bytes_read: u64,
}

impl ModelReader {
    /// Whether the request hits, and the file range it returns.
    fn read(&mut self, offset: u64, len: u64) -> (bool, std::ops::Range<usize>) {
        let end = offset + len;
        if matches!(self.span, Some((s, e)) if s <= offset && end <= e) {
            return (true, offset as usize..end as usize);
        }
        let start = offset / PAGE_SIZE * PAGE_SIZE;
        let span_end = (end.div_ceil(PAGE_SIZE) + self.readahead_pages) * PAGE_SIZE;
        // Past end of file the read comes back empty: `valid_end < start`.
        let valid_end = span_end.min(FILE_LEN);
        self.span = Some((start, valid_end.max(start)));
        self.reads += 1;
        self.bytes_read += valid_end.saturating_sub(start);
        (
            false,
            offset.min(valid_end) as usize..end.min(valid_end) as usize,
        )
    }
}

/// A recorded `(offset, len)` trace: sequential, shuffled, repeated,
/// sub-page and end-of-file-crossing requests.
fn trace() -> Vec<(u64, u64)> {
    let mut trace = Vec::new();
    // Sequential 1 KiB reads over the first five pages.
    trace.extend((0..20).map(|i| (i * 1024, 1024)));
    // Page-sized items in a fixed shuffle, some of them twice in a row.
    for page in [5u64, 2, 7, 7, 0, 3, 3, 3, 6, 1, 4, 0] {
        trace.push((page * PAGE_SIZE, PAGE_SIZE));
    }
    // Sub-page and page-straddling requests.
    trace.extend([
        (100, 10),
        (105, 1),
        (4090, 12),
        (4096, 1),
        (3 * PAGE_SIZE - 1, 2),
    ]);
    // Multi-page items, backwards.
    trace.extend((0..3).rev().map(|i| (i * 2 * PAGE_SIZE, 2 * PAGE_SIZE + 7)));
    // Up to, across and past end of file, then back inside.
    trace.extend([
        (FILE_LEN - 50, 50),
        (FILE_LEN - 50, 51),
        (8 * PAGE_SIZE, 4096),
        (FILE_LEN, 16),
        (FILE_LEN + PAGE_SIZE, 16),
        (7 * PAGE_SIZE + 5, 100),
        (0, 1),
    ]);
    trace
}

fn delta(after: VfsStats, before: VfsStats) -> (u64, u64) {
    (
        after.reads - before.reads,
        after.bytes_read - before.bytes_read,
    )
}

#[test]
fn recorded_trace_replays_exactly_like_the_single_span_model() {
    let content = content();
    with_both("trace", |vfs, file| {
        for readahead_pages in [0u32, 3, 8] {
            let before = vfs.stats();
            let reader = AlignedReader::new(Arc::clone(&vfs), file, readahead_pages);
            let mut model = ModelReader {
                readahead_pages: u64::from(readahead_pages),
                ..ModelReader::default()
            };
            for (step, (offset, len)) in trace().into_iter().enumerate() {
                let hits_before = reader.span_hits();
                let got = reader.read(offset, len as usize).unwrap();
                let (hit, range) = model.read(offset, len);
                let at = format!(
                    "{} readahead {readahead_pages} step {step}: ({offset}, {len})",
                    vfs.name()
                );
                assert_eq!(reader.span_hits() - hits_before, u64::from(hit), "{at}");
                assert_eq!(got, content[range], "{at}");
                assert_eq!(got.capacity(), got.len(), "{at}: exact-length payload");
                assert_eq!(
                    delta(vfs.stats(), before),
                    (model.reads, model.bytes_read),
                    "{at}"
                );
            }
            assert_eq!(reader.span_misses(), model.reads);
            assert_eq!(
                reader.span_hits() + reader.span_misses(),
                trace().len() as u64
            );
        }
    });
}

/// Every required `Vfs` method except `read_at`, forwarded to `self.inner`.
macro_rules! delegate_to_inner {
    () => {
        fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
            self.inner.open(path, create)
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
            self.inner.name()
        }
        fn stats(&self) -> VfsStats {
            self.inner.stats()
        }
    };
}

/// A `Vfs` that provides only the required methods, as a decorator outside
/// this crate would, and counts the reads it is shown.
struct RequiredOnly {
    inner: Arc<dyn Vfs>,
    reads_seen: AtomicU64,
}

impl Vfs for RequiredOnly {
    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.reads_seen.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(file, offset, len)
    }
    delegate_to_inner!();
}

#[test]
fn default_read_into_serves_identical_bytes_and_counts_one_read() {
    let content = content();
    with_both("default", |vfs, file| {
        let wrapped = Arc::new(RequiredOnly {
            inner: Arc::clone(&vfs),
            reads_seen: AtomicU64::new(0),
        });
        // `read_into` itself: a full read, a read short at end of file (the
        // tail of the buffer untouched), and one past it.
        let cases = [
            (10u64, 300usize),
            (FILE_LEN - 5, 64),
            (FILE_LEN + 1, 8),
            (0, 0),
        ];
        for (offset, len) in cases {
            let before = vfs.stats();
            let mut native = vec![0xAAu8; len];
            let mut defaulted = vec![0xAAu8; len];
            let n = vfs.read_into(file, offset, &mut native).unwrap();
            assert_eq!(delta(vfs.stats(), before), (1, n as u64), "one native read");
            let before = vfs.stats();
            assert_eq!(wrapped.read_into(file, offset, &mut defaulted).unwrap(), n);
            assert_eq!(
                delta(vfs.stats(), before),
                (1, n as u64),
                "one defaulted read"
            );
            assert_eq!(native, defaulted);
            let start = (offset.min(FILE_LEN)) as usize;
            assert_eq!(native[..n], content[start..start + n]);
            assert!(
                native[n..].iter().all(|&b| b == 0xAA),
                "bytes past the count stay"
            );
        }
        // The reader over the wrapper: same bytes and the same physical reads
        // as over the VFS itself, and the wrapper saw every one of them.
        let seen_before = wrapped.reads_seen.load(Ordering::Relaxed);
        let direct = AlignedReader::new(Arc::clone(&vfs), file, 3);
        let through = AlignedReader::new(Arc::clone(&wrapped) as Arc<dyn Vfs>, file, 3);
        for (offset, len) in trace() {
            assert_eq!(
                through.read(offset, len as usize).unwrap(),
                direct.read(offset, len as usize).unwrap()
            );
        }
        assert_eq!(through.span_misses(), direct.span_misses());
        assert_eq!(through.span_hits(), direct.span_hits());
        assert_eq!(
            wrapped.reads_seen.load(Ordering::Relaxed) - seen_before,
            through.span_misses()
        );
    });
}

#[test]
fn concurrent_readers_get_correct_bytes_and_every_read_is_a_hit_or_a_miss() {
    let content = content();
    with_both("threads", |vfs, file| {
        let reader = AlignedReader::new(Arc::clone(&vfs), file, 3);
        let before = vfs.stats();
        let threads = 4u64;
        let rounds = 200u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let (reader, content) = (&reader, &content);
                s.spawn(move || {
                    for i in 0..rounds {
                        // Even rounds: pages of this thread's own stripe;
                        // odd rounds: the same few offsets on every thread.
                        let offset = if i % 2 == 0 {
                            (2 * t + i / 2 % 2) * PAGE_SIZE + i % 7
                        } else {
                            (i % 5) * PAGE_SIZE + 11
                        };
                        let len = 900 + (i % 3) as usize * 1500;
                        let got = reader.read(offset, len).unwrap();
                        let start = offset as usize;
                        assert_eq!(got, content[start..start + len], "thread {t} round {i}");
                    }
                });
            }
        });
        assert_eq!(reader.span_hits() + reader.span_misses(), threads * rounds);
        assert_eq!(
            delta(vfs.stats(), before).0,
            reader.span_misses(),
            "one physical read per miss"
        );
    });
}

/// A `Vfs` whose `read_into` does not return until two reads are inside it
/// at once (or a timeout passes, so that a reader that serialises its misses
/// fails the test instead of hanging it).
struct Rendezvous {
    inner: Arc<dyn Vfs>,
    inside: Mutex<u32>,
    changed: Condvar,
    met: AtomicU64,
}

impl Vfs for Rendezvous {
    fn read_into(&self, file: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, VfsError> {
        let mut inside = self.inside.lock().unwrap();
        *inside += 1;
        self.changed.notify_all();
        let (inside, timeout) = self
            .changed
            .wait_timeout_while(inside, Duration::from_secs(10), |n| *n < 2)
            .unwrap();
        if !timeout.timed_out() {
            self.met.fetch_add(1, Ordering::Relaxed);
        }
        drop(inside);
        self.inner.read_into(file, offset, buf)
    }
    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.inner.read_at(file, offset, len)
    }
    delegate_to_inner!();
}

#[test]
fn two_misses_are_in_flight_at_once_because_the_lock_is_not_held_across_io() {
    let content = content();
    let inner: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let file = inner.open("data.bin", true).unwrap();
    inner.write_at(file, 0, &content).unwrap();
    let vfs = Arc::new(Rendezvous {
        inner,
        inside: Mutex::new(0),
        changed: Condvar::new(),
        met: AtomicU64::new(0),
    });
    let reader = AlignedReader::new(Arc::clone(&vfs) as Arc<dyn Vfs>, file, 0);
    std::thread::scope(|s| {
        for page in [1u64, 5] {
            let (reader, content) = (&reader, &content);
            s.spawn(move || {
                let offset = (page * PAGE_SIZE) as usize;
                let got = reader.read(offset as u64, 1000).unwrap();
                assert_eq!(got, content[offset..offset + 1000]);
            });
        }
    });
    assert_eq!(reader.span_misses(), 2);
    assert_eq!(
        vfs.met.load(Ordering::Relaxed),
        2,
        "both physical reads were inside the VFS at the same time"
    );
}

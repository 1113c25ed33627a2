//! Tracing from outside the program: a span recorder and decorators for the
//! four extension points the public builder API offers — [`Vfs`],
//! [`FetchBackend`], [`CacheTier`] and [`DataSource`].
//!
//! Every decorator records one [`Span`] per call into a buffer owned by the
//! calling thread; a span's parent is whatever span that thread had open
//! when it began (`tier.admit` → `vfs.write` → ...), and a span that does
//! not know which item it works for inherits its parent's.  Buffers move to
//! the shared [`Recorder`] when their thread exits — the runtime spawns its
//! stage threads per epoch and joins them before an epoch run ends — so
//! nothing is shared on the hot path.  Untraced rigs are built without the
//! decorators, which is why tracing costs them nothing.

use coordl::{CacheTier, CoordlError, FetchBackend, TierSnapshot};
use dataset::{DataSource, ItemId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use vfs::{FileHandle, Vfs, VfsError, VfsStats};

/// The layer a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Consumer,
    Tier,
    Backend,
    Vfs,
    Dataset,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Consumer => "consumer",
            Layer::Tier => "tier",
            Layer::Backend => "backend",
            Layer::Vfs => "vfs",
            Layer::Dataset => "dataset",
        }
    }
}

/// The operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    BatchWait,
    Lookup,
    Admit,
    Read,
    Write,
    Sync,
    /// Namespace operations of the VFS: open, close, len, remove.
    Meta,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::BatchWait => "batch_wait",
            Op::Lookup => "lookup",
            Op::Admit => "admit",
            Op::Read => "read",
            Op::Write => "write",
            Op::Sync => "sync",
            Op::Meta => "meta",
        }
    }
}

/// `parent` of a span that was opened with no other span open on its thread.
pub const NO_PARENT: u32 = u32::MAX;

/// `id` of a span that neither knows its request nor has a parent to ask.
pub const NO_ID: u64 = u64::MAX;

/// One call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub op: Op,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    /// Index of the causing span in the same thread's buffer, or
    /// [`NO_PARENT`].
    pub parent: u32,
    /// What the spans of one request share: the item id on the fetch path,
    /// the batch index for consumer waits.
    pub id: u64,
    /// Payload bytes the call moved (0 where that has no meaning).
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one thread's buffer: its duration minus the
/// part its child spans cover.  Children run on their parent's thread,
/// strictly inside it, so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = own.get_mut(span.parent as usize) {
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Collects the span buffers of every thread that recorded through it.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    finished: Mutex<Vec<Vec<Span>>>,
}

struct Local {
    recorder: Arc<Recorder>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Drop for Local {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        if !spans.is_empty() {
            self.recorder
                .finished
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(spans);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// An open span; ends when [`SpanGuard::finish`] is called or, with zero
/// bytes, when it is dropped (a panicking callee must not leave it open).
pub struct SpanGuard {
    index: Option<u32>,
}

impl SpanGuard {
    pub fn finish(mut self, bytes: u64) {
        self.close(bytes);
    }

    fn close(&mut self, bytes: u64) {
        let Some(index) = self.index.take() else {
            return;
        };
        LOCAL.with(|local| {
            if let Some(local) = local.borrow_mut().as_mut() {
                let now = local.recorder.now_ns();
                // The buffer is gone if the thread flushed mid-span.
                if let Some(span) = local.spans.get_mut(index as usize) {
                    span.end_ns = now.max(span.start_ns + 1);
                    span.bytes = bytes;
                }
                local.open.retain(|&i| i != index);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(0);
    }
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            finished: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span on the calling thread.  `id` is the request the call
    /// works for, when the layer knows it.
    pub fn begin(self: &Arc<Self>, layer: Layer, op: Op, id: Option<u64>) -> SpanGuard {
        LOCAL.with(|cell| {
            let mut cell = cell.borrow_mut();
            if cell
                .as_ref()
                .is_some_and(|l| !Arc::ptr_eq(&l.recorder, self))
            {
                *cell = None; // flushes the other recorder's buffer
            }
            let local = cell.get_or_insert_with(|| Local {
                recorder: Arc::clone(self),
                spans: Vec::with_capacity(1 << 12),
                open: Vec::new(),
            });
            let parent = local.open.last().copied().unwrap_or(NO_PARENT);
            let inherited = local.spans.get(parent as usize).map_or(NO_ID, |p| p.id);
            let index = local.spans.len() as u32;
            local.spans.push(Span {
                layer,
                op,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id: id.unwrap_or(inherited),
                bytes: 0,
            });
            local.open.push(index);
            SpanGuard { index: Some(index) }
        })
    }

    /// Move the calling thread's buffer to the recorder now instead of at
    /// thread exit: for threads that outlive the measurement, like `main`,
    /// and for scoped threads, whose scope may end before their
    /// thread-local destructors have run.
    pub fn flush_current_thread(&self) {
        LOCAL.with(|cell| {
            let mut cell = cell.borrow_mut();
            if cell
                .as_ref()
                .is_some_and(|l| std::ptr::eq(Arc::as_ptr(&l.recorder), self))
            {
                *cell = None;
            }
        });
    }

    /// Take every finished buffer, one per thread that exited or flushed
    /// since the last call.
    pub fn drain(&self) -> Vec<Vec<Span>> {
        self.flush_current_thread();
        std::mem::take(&mut *self.finished.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// [`Vfs`] decorator: one span per positional read, write, sync and
/// namespace operation.
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
    recorder: Arc<Recorder>,
}

impl TracedVfs {
    pub fn new(inner: Arc<dyn Vfs>, recorder: Arc<Recorder>) -> Self {
        TracedVfs { inner, recorder }
    }

    fn meta<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.recorder.begin(Layer::Vfs, Op::Meta, None);
        f()
    }
}

impl Vfs for TracedVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        self.meta(|| self.inner.open(path, create))
    }

    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        let span = self.recorder.begin(Layer::Vfs, Op::Read, None);
        let out = self.inner.read_at(file, offset, len);
        span.finish(out.as_ref().map_or(0, |b| b.len() as u64));
        out
    }

    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let span = self.recorder.begin(Layer::Vfs, Op::Write, None);
        let out = self.inner.write_at(file, offset, data);
        span.finish(data.len() as u64);
        out
    }

    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        let _span = self.recorder.begin(Layer::Vfs, Op::Sync, None);
        self.inner.sync(file)
    }

    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        self.meta(|| self.inner.len(file))
    }

    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        self.meta(|| self.inner.close(file))
    }

    fn exists(&self, path: &str) -> bool {
        self.meta(|| self.inner.exists(path))
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        self.meta(|| self.inner.remove(path))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> VfsStats {
        self.inner.stats()
    }
}

/// [`FetchBackend`] decorator: one span per read, plus a count of reads
/// that returned an error.
pub struct TracedBackend {
    inner: Arc<dyn FetchBackend>,
    recorder: Arc<Recorder>,
    errors: AtomicU64,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn FetchBackend>, recorder: Arc<Recorder>) -> Self {
        TracedBackend {
            inner,
            recorder,
            errors: AtomicU64::new(0),
        }
    }

    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl FetchBackend for TracedBackend {
    fn num_items(&self) -> u64 {
        self.inner.num_items()
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.inner.item_bytes(item)
    }

    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        let span = self.recorder.begin(Layer::Backend, Op::Read, Some(item));
        let out = self.inner.read(item);
        match &out {
            Ok(bytes) => span.finish(bytes.len() as u64),
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                span.finish(0);
            }
        }
        out
    }

    fn profile(&self) -> Option<&storage::DeviceProfile> {
        self.inner.profile()
    }

    fn device_seconds(&self) -> f64 {
        self.inner.device_seconds()
    }

    fn measured_seconds(&self) -> f64 {
        self.inner.measured_seconds()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// [`CacheTier`] decorator: one span per lookup and per admission.
pub struct TracedTier {
    inner: Arc<dyn CacheTier>,
    recorder: Arc<Recorder>,
}

impl TracedTier {
    pub fn new(inner: Arc<dyn CacheTier>, recorder: Arc<Recorder>) -> Self {
        TracedTier { inner, recorder }
    }
}

impl CacheTier for TracedTier {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.lookup_traced(item).map(|(bytes, _)| bytes)
    }

    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        let span = self.recorder.begin(Layer::Tier, Op::Lookup, Some(item));
        let out = self.inner.lookup_traced(item);
        span.finish(out.as_ref().map_or(0, |(b, _)| b.len() as u64));
        out
    }

    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let span = self.recorder.begin(Layer::Tier, Op::Admit, Some(item));
        let len = bytes.len() as u64;
        let out = self.inner.admit(item, bytes);
        span.finish(len);
        out
    }

    fn contains(&self, item: ItemId) -> bool {
        self.inner.contains(item)
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn resident_items(&self) -> usize {
        self.inner.resident_items()
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn policy_name(&self) -> &'static str {
        self.inner.policy_name()
    }

    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        self.inner.tier_snapshots()
    }
}

/// [`DataSource`] decorator: one span per item read.
pub struct TracedSource {
    inner: Arc<dyn DataSource>,
    recorder: Arc<Recorder>,
}

impl TracedSource {
    pub fn new(inner: Arc<dyn DataSource>, recorder: Arc<Recorder>) -> Self {
        TracedSource { inner, recorder }
    }
}

impl DataSource for TracedSource {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.inner.item_bytes(item)
    }

    fn read(&self, item: ItemId) -> Vec<u8> {
        let span = self.recorder.begin(Layer::Dataset, Op::Read, Some(item));
        let out = self.inner.read(item);
        span.finish(out.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer: Layer::Tier,
            op: Op::Admit,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // admit [0,100) → write [10,40) → (nothing); admit → sync [50,90)
        // and the sync has a child [60,70) of its own.
        let spans = vec![
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(50, 90, 0),
            span(60, 70, 2),
            span(200, 230, NO_PARENT),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10, 30]);
        // Self times of a tree sum back to the durations of its roots.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100 + 30);
    }

    #[test]
    fn open_spans_count_for_nothing() {
        let spans = vec![span(0, 50, NO_PARENT), span(10, 0, 0)];
        assert_eq!(self_times_ns(&spans), vec![50, 0]);
    }

    #[test]
    fn nested_calls_link_to_their_parent_and_inherit_its_id() {
        let rec = Recorder::new();
        // A spawned (not scoped) thread: `join` returns only after the
        // thread-local buffer's destructor has run.
        let worker = Arc::clone(&rec);
        std::thread::spawn(move || {
            let outer = worker.begin(Layer::Tier, Op::Admit, Some(42));
            let inner = worker.begin(Layer::Vfs, Op::Write, None);
            inner.finish(4096);
            outer.finish(4096);
            let lone = worker.begin(Layer::Vfs, Op::Sync, None);
            drop(lone);
        })
        .join()
        .unwrap();
        let buffers = rec.drain();
        assert_eq!(buffers.len(), 1, "the thread's exit flushed its buffer");
        let spans = &buffers[0];
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].id), (NO_PARENT, 42));
        assert_eq!((spans[1].parent, spans[1].id), (0, 42), "inherited");
        assert_eq!(spans[1].bytes, 4096);
        assert_eq!((spans[2].parent, spans[2].id), (NO_PARENT, NO_ID));
        assert!(spans.iter().all(|s| s.end_ns > s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn a_panicking_callee_still_closes_its_span() {
        let rec = Recorder::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = rec.begin(Layer::Backend, Op::Read, Some(1));
            panic!("read failed");
        }));
        assert!(outcome.is_err());
        let after = rec.begin(Layer::Backend, Op::Read, Some(2));
        after.finish(0);
        let spans = rec.drain().remove(0);
        assert!(spans[0].end_ns > 0);
        assert_eq!(spans[1].parent, NO_PARENT, "the stack was unwound too");
    }

    #[test]
    fn decorators_record_what_passes_through_them() {
        let rec = Recorder::new();
        let mem: Arc<dyn Vfs> = Arc::new(vfs::MemVfs::new());
        let traced = TracedVfs::new(mem, Arc::clone(&rec));
        let f = traced.open("a/b", true).unwrap();
        traced.write_at(f, 0, b"hello").unwrap();
        traced.sync(f).unwrap();
        assert_eq!(traced.read_at(f, 0, 5).unwrap(), b"hello");
        assert_eq!(traced.stats().writes, 1, "the inner counters still count");
        let spans = rec.drain().remove(0);
        let ops: Vec<(Op, u64)> = spans.iter().map(|s| (s.op, s.bytes)).collect();
        assert_eq!(
            ops,
            vec![(Op::Meta, 0), (Op::Write, 5), (Op::Sync, 0), (Op::Read, 5)]
        );
    }
}

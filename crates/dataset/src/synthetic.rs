//! Functional data sources.
//!
//! The simulator only needs item *sizes*, but the real (multi-threaded)
//! CoorDL loader and the mini-DNN training substrate need actual bytes.  The
//! sources here generate content deterministically from `(seed, item)` so
//! tests can assert exact equality of samples across loaders, which is how we
//! demonstrate that CoorDL's coordination does not change what the model sees.

use crate::{DatasetSpec, ItemId};

/// A source of raw (encoded) data items.
///
/// Implementations must be cheap to share across loader worker threads.
pub trait DataSource: Send + Sync {
    /// Number of items.
    fn len(&self) -> u64;

    /// True when the source has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw size of item `item` in bytes (without reading it).
    fn item_bytes(&self, item: ItemId) -> u64;

    /// Read the raw bytes of item `item`.
    fn read(&self, item: ItemId) -> Vec<u8>;

    /// Read the raw bytes of item `item` into `buf`, replacing what it held:
    /// a caller that recycles payload buffers passes one in to spare an
    /// allocation.  The bytes are exactly [`read`](DataSource::read)'s; the
    /// default is `read` into a fresh buffer.
    fn read_into(&self, item: ItemId, buf: &mut Vec<u8>) {
        *buf = self.read(item);
    }
}

/// Deterministic pseudo-random item bytes shaped by a [`DatasetSpec`].
///
/// Item `i` is a buffer of `spec.item_size(i)` bytes whose content is a
/// xorshift stream seeded by `(seed, i)`; the first 8 bytes encode the item id
/// so tests can verify end-to-end identity through decode/augment stages.
#[derive(Debug, Clone)]
pub struct SyntheticItemStore {
    spec: DatasetSpec,
    seed: u64,
}

impl SyntheticItemStore {
    /// Create a store for `spec` with generation seed `seed`.
    pub fn new(spec: DatasetSpec, seed: u64) -> Self {
        SyntheticItemStore { spec, seed }
    }

    /// The dataset specification backing this store.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Recover the item id embedded in a raw buffer produced by [`read`].
    ///
    /// [`read`]: DataSource::read
    pub fn embedded_item_id(buf: &[u8]) -> Option<ItemId> {
        if buf.len() < 8 {
            return None;
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[..8]);
        Some(u64::from_le_bytes(b))
    }

    /// Generate item `item` into `buf`, replacing what it held.  The buffer
    /// is taken by value: the same loop extending a `Vec` behind `&mut` ran
    /// 10–20 % slower (32 KiB items on a 2-core x86-64 host).
    fn generate(&self, item: ItemId, mut buf: Vec<u8>) -> Vec<u8> {
        assert!(item < self.len(), "item {item} out of range");
        let size = self.spec.item_size(item) as usize;
        buf.clear();
        buf.reserve_exact(size);
        buf.extend_from_slice(&item.to_le_bytes());
        let mut state = self.seed ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF;
        while buf.len() < size {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let bytes = word.to_le_bytes();
            let take = (size - buf.len()).min(8);
            buf.extend_from_slice(&bytes[..take]);
        }
        buf
    }
}

impl DataSource for SyntheticItemStore {
    fn len(&self) -> u64 {
        self.spec.num_items
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.spec.item_size(item)
    }

    fn read(&self, item: ItemId) -> Vec<u8> {
        self.generate(item, Vec::new())
    }

    fn read_into(&self, item: ItemId, buf: &mut Vec<u8>) {
        *buf = self.generate(item, std::mem::take(buf));
    }
}

/// A data source that holds all items in memory (useful for tests and for the
/// staging/cache layers of the functional loader).
#[derive(Debug, Clone)]
pub struct InMemoryStore {
    items: Vec<Vec<u8>>,
}

impl InMemoryStore {
    /// Build a store from explicit item buffers.
    pub fn new(items: Vec<Vec<u8>>) -> Self {
        InMemoryStore { items }
    }

    /// Materialise every item of `source` into memory.
    pub fn materialize(source: &dyn DataSource) -> Self {
        InMemoryStore {
            items: (0..source.len()).map(|i| source.read(i)).collect(),
        }
    }
}

impl DataSource for InMemoryStore {
    fn len(&self) -> u64 {
        self.items.len() as u64
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.items[item as usize].len() as u64
    }

    fn read(&self, item: ItemId) -> Vec<u8> {
        self.items[item as usize].clone()
    }

    fn read_into(&self, item: ItemId, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.items[item as usize]);
    }
}

/// A labelled synthetic classification dataset (Gaussian-ish class blobs),
/// encoded as raw bytes so it can flow through the same fetch → decode →
/// augment pipeline as images.
///
/// Layout of each item: `label: u32 LE` followed by `dims` little-endian
/// `f32` features.  Used by the `coordl-dnn` crate for the training-to-accuracy
/// experiment (paper Figure 10).
#[derive(Debug, Clone)]
pub struct LabeledVectorStore {
    num_items: u64,
    dims: usize,
    classes: u32,
    seed: u64,
}

impl LabeledVectorStore {
    /// Create a dataset of `num_items` vectors with `dims` features spread
    /// over `classes` classes.
    pub fn new(num_items: u64, dims: usize, classes: u32, seed: u64) -> Self {
        assert!(num_items > 0 && dims > 0 && classes > 1);
        LabeledVectorStore {
            num_items,
            dims,
            classes,
            seed,
        }
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of classes.
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// The ground-truth label of item `item`.
    pub fn label_of(&self, item: ItemId) -> u32 {
        (item % self.classes as u64) as u32
    }

    /// Decode a raw buffer produced by [`read`] into `(label, features)`.
    ///
    /// [`read`]: DataSource::read
    pub fn decode(buf: &[u8]) -> (u32, Vec<f32>) {
        assert!(
            buf.len() >= 4 && (buf.len() - 4).is_multiple_of(4),
            "malformed item"
        );
        let label = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
        let features = buf[4..]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        (label, features)
    }

    fn feature(&self, item: ItemId, d: usize) -> f32 {
        // Class centroid + deterministic per-item jitter.
        let label = self.label_of(item) as f32;
        let sign = if d.is_multiple_of(2) { 1.0 } else { -1.0 };
        let centroid = (label + 1.0) * ((d % 7) as f32 + 1.0) / 8.0 * sign;
        let h = (self.seed ^ item.wrapping_mul(31).wrapping_add(d as u64 * 7919))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let jitter = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        centroid + 0.3 * jitter
    }
}

impl DataSource for LabeledVectorStore {
    fn len(&self) -> u64 {
        self.num_items
    }

    fn item_bytes(&self, _item: ItemId) -> u64 {
        4 + 4 * self.dims as u64
    }

    fn read(&self, item: ItemId) -> Vec<u8> {
        assert!(item < self.num_items, "item {item} out of range");
        let mut buf = Vec::with_capacity(4 + 4 * self.dims);
        buf.extend_from_slice(&self.label_of(item).to_le_bytes());
        for d in 0..self.dims {
            buf.extend_from_slice(&self.feature(item, d).to_le_bytes());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_items_are_deterministic_and_sized() {
        let spec = DatasetSpec::new("t", 100, 4096, 0.4, 6.0);
        let store = SyntheticItemStore::new(spec.clone(), 7);
        for i in [0u64, 13, 99] {
            let a = store.read(i);
            let b = store.read(i);
            assert_eq!(a, b, "reads must be deterministic");
            assert_eq!(a.len() as u64, spec.item_size(i));
            assert_eq!(SyntheticItemStore::embedded_item_id(&a), Some(i));
        }
    }

    #[test]
    fn different_items_have_different_content() {
        let spec = DatasetSpec::new("t", 10, 1024, 0.0, 6.0);
        let store = SyntheticItemStore::new(spec, 7);
        assert_ne!(store.read(1), store.read(2));
    }

    #[test]
    fn different_seeds_give_different_content() {
        let spec = DatasetSpec::new("t", 10, 1024, 0.0, 6.0);
        let a = SyntheticItemStore::new(spec.clone(), 1).read(3);
        let b = SyntheticItemStore::new(spec, 2).read(3);
        // The embedded id prefix is equal, but the payload differs.
        assert_eq!(&a[..8], &b[..8]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let spec = DatasetSpec::new("t", 5, 64, 0.0, 6.0);
        SyntheticItemStore::new(spec, 0).read(5);
    }

    #[test]
    fn in_memory_store_round_trips() {
        let spec = DatasetSpec::new("t", 20, 256, 0.2, 6.0);
        let synth = SyntheticItemStore::new(spec, 3);
        let mem = InMemoryStore::materialize(&synth);
        assert_eq!(mem.len(), 20);
        for i in 0..20 {
            assert_eq!(mem.read(i), synth.read(i));
            assert_eq!(mem.item_bytes(i), synth.item_bytes(i));
        }
    }

    #[test]
    fn read_into_a_used_buffer_reads_exactly_the_item() {
        let spec = DatasetSpec::new("t", 20, 256, 0.2, 6.0);
        let synth = SyntheticItemStore::new(spec, 3);
        let mem = InMemoryStore::materialize(&synth);
        let sources: [&dyn DataSource; 2] = [&synth, &mem];
        for source in sources {
            // Longer and shorter leftovers both end up replaced.
            for leftover in [vec![0xAA; 1024], vec![0x55; 3]] {
                for i in [0u64, 7, 19] {
                    let mut buf = leftover.clone();
                    source.read_into(i, &mut buf);
                    assert_eq!(buf, synth.read(i), "item {i}");
                }
            }
        }
    }

    #[test]
    fn labeled_store_encodes_and_decodes() {
        let store = LabeledVectorStore::new(50, 8, 5, 11);
        for i in 0..50 {
            let buf = store.read(i);
            assert_eq!(buf.len() as u64, store.item_bytes(i));
            let (label, feats) = LabeledVectorStore::decode(&buf);
            assert_eq!(label, store.label_of(i));
            assert_eq!(feats.len(), 8);
            assert!(feats.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn labeled_store_classes_are_separable_on_average() {
        // Items of different classes should have distinct mean feature
        // vectors — the mini-DNN experiments rely on the task being learnable.
        let store = LabeledVectorStore::new(200, 4, 2, 3);
        let mut mean = [[0.0f64; 4]; 2];
        let mut counts = [0usize; 2];
        for i in 0..200 {
            let (label, feats) = LabeledVectorStore::decode(&store.read(i));
            counts[label as usize] += 1;
            for (d, f) in feats.iter().enumerate() {
                mean[label as usize][d] += *f as f64;
            }
        }
        for (m, c) in mean.iter_mut().zip(counts) {
            for v in m.iter_mut() {
                *v /= c as f64;
            }
        }
        let dist: f64 = (0..4)
            .map(|d| (mean[0][d] - mean[1][d]).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "class centroids too close: {dist}");
    }
}

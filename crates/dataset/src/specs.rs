//! Dataset specifications calibrated from the paper (Table 1 and §5).

use crate::ItemId;

const KIB: u64 = 1024;
const GIB: u64 = 1024 * 1024 * 1024;

/// A dataset described by its item count and per-item size statistics.
///
/// Per-item sizes are deterministic pseudo-random values uniformly spread
/// around the average (`avg_item_bytes ± spread`), so that two simulation runs
/// and the functional loader all agree on the size of item `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name, e.g. `"imagenet-1k"`.
    pub name: String,
    /// Number of items (images / audio clips) in the dataset.
    pub num_items: u64,
    /// Average raw (encoded) item size in bytes.
    pub avg_item_bytes: u64,
    /// Relative half-width of the per-item size distribution in `[0, 1)`:
    /// sizes are uniform in `avg * (1 ± spread)`.
    pub size_spread: f64,
    /// Multiplicative blow-up of an item once decoded and pre-processed
    /// (the paper reports pre-processed items are 5–7× larger than raw).
    pub decoded_multiplier: f64,
}

impl DatasetSpec {
    /// Build a custom spec.
    ///
    /// # Panics
    /// Panics if `num_items` or `avg_item_bytes` is zero, or the spread is not
    /// in `[0, 1)`.
    pub fn new(
        name: impl Into<String>,
        num_items: u64,
        avg_item_bytes: u64,
        size_spread: f64,
        decoded_multiplier: f64,
    ) -> Self {
        assert!(num_items > 0, "dataset must have at least one item");
        assert!(avg_item_bytes > 0, "items must have non-zero size");
        assert!(
            (0.0..1.0).contains(&size_spread),
            "size spread must be in [0,1)"
        );
        assert!(decoded_multiplier >= 1.0, "decoding cannot shrink items");
        DatasetSpec {
            name: name.into(),
            num_items,
            avg_item_bytes,
            size_spread,
            decoded_multiplier,
        }
    }

    /// ImageNet-1k (ILSVRC 2012): ~1.28 M images, 146 GiB total
    /// (Table 1 of the paper), ≈120 KiB per JPEG on average.
    pub fn imagenet_1k() -> Self {
        DatasetSpec::new("imagenet-1k", 1_281_167, 146 * GIB / 1_281_167, 0.6, 6.0)
    }

    /// ImageNet-22k: ~14.2 M images, 1.3 TiB total; the appendix notes the
    /// average image is ≈90 KiB, noticeably smaller than OpenImages.
    pub fn imagenet_22k() -> Self {
        DatasetSpec::new("imagenet-22k", 14_200_000, 90 * KIB, 0.6, 6.0)
    }

    /// OpenImages (object-detection subset used for SSD-Res18): 561 GiB.
    pub fn openimages() -> Self {
        DatasetSpec::new("openimages", 1_900_000, 561 * GIB / 1_900_000, 0.5, 6.0)
    }

    /// OpenImages-Extended used for image classification: 645 GiB, the
    /// appendix cites ≈300 KiB per image.
    pub fn openimages_extended() -> Self {
        DatasetSpec::new("openimages-ext", 2_150_000, 300 * KIB, 0.5, 6.0)
    }

    /// Free Music Archive (FMA) audio dataset: 950 GiB of clips used by the
    /// M5 audio-classification model.
    pub fn fma() -> Self {
        DatasetSpec::new("fma", 106_574, 950 * GIB / 106_574, 0.3, 5.0)
    }

    /// Total raw size of the dataset in bytes.
    pub fn total_bytes(&self) -> u64 {
        // Per-item sizes average to `avg_item_bytes` by construction.
        self.num_items * self.avg_item_bytes
    }

    /// Total size in GiB (convenience for reports).
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / GIB as f64
    }

    /// Deterministic size of item `item` in bytes.
    ///
    /// Uses a splitmix64-style hash of the item id so every component of the
    /// system (simulator, caches, functional loader) agrees on item sizes
    /// without storing them.
    pub fn item_size(&self, item: ItemId) -> u64 {
        debug_assert!(item < self.num_items, "item {item} out of range");
        if self.size_spread == 0.0 {
            return self.avg_item_bytes;
        }
        let h = splitmix64(item.wrapping_add(0x9E37_79B9_7F4A_7C15));
        // Uniform in [0,1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.size_spread * (2.0 * u - 1.0);
        ((self.avg_item_bytes as f64) * factor).round().max(1.0) as u64
    }

    /// Size of item `item` once decoded and pre-processed, in bytes.
    pub fn decoded_size(&self, item: ItemId) -> u64 {
        (self.item_size(item) as f64 * self.decoded_multiplier).round() as u64
    }

    /// A scaled-down copy of this dataset with approximately
    /// `num_items / factor` items and identical size statistics.
    ///
    /// Simulation *shapes* (stall fractions, hit ratios, relative speedups)
    /// are invariant to this scaling as long as the cache size is expressed as
    /// a fraction of the dataset; only absolute epoch times shrink.  The
    /// benches use scaled datasets so every figure regenerates in seconds.
    pub fn scaled(&self, factor: u64) -> DatasetSpec {
        assert!(factor > 0, "scale factor must be positive");
        DatasetSpec {
            name: format!("{}/{}x", self.name, factor),
            num_items: (self.num_items / factor).max(1),
            ..self.clone()
        }
    }

    /// The number of bytes needed to cache `fraction` of the dataset.
    pub fn cache_bytes_for_fraction(&self, fraction: f64) -> u64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        (self.total_bytes() as f64 * fraction) as u64
    }
}

/// splitmix64 hash step (public-domain constant mixing).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_scale() {
        // Table 1: ImageNet-22k 1.3 TB, OpenImages-Extended 645 GB,
        // ImageNet-1k 146 GB, OpenImages 561 GB, FMA 950 GB.
        assert!((DatasetSpec::imagenet_1k().total_gib() - 146.0).abs() < 2.0);
        assert!((DatasetSpec::openimages().total_gib() - 561.0).abs() < 2.0);
        assert!((DatasetSpec::fma().total_gib() - 950.0).abs() < 2.0);
        let in22k = DatasetSpec::imagenet_22k().total_gib();
        assert!(
            in22k > 1100.0 && in22k < 1400.0,
            "ImageNet-22k = {in22k} GiB"
        );
        let oie = DatasetSpec::openimages_extended().total_gib();
        assert!(oie > 600.0 && oie < 680.0, "OpenImages-Ext = {oie} GiB");
    }

    #[test]
    fn item_sizes_are_deterministic_and_near_average() {
        let spec = DatasetSpec::imagenet_1k().scaled(1000);
        let s1 = spec.item_size(42);
        let s2 = spec.item_size(42);
        assert_eq!(s1, s2);
        let mean: f64 = (0..spec.num_items)
            .map(|i| spec.item_size(i) as f64)
            .sum::<f64>()
            / spec.num_items as f64;
        let avg = spec.avg_item_bytes as f64;
        assert!(
            (mean - avg).abs() / avg < 0.05,
            "mean {mean} deviates from avg {avg}"
        );
    }

    #[test]
    fn item_sizes_respect_spread_bounds() {
        let spec = DatasetSpec::new("t", 10_000, 1000, 0.5, 6.0);
        for i in 0..spec.num_items {
            let s = spec.item_size(i);
            assert!((500..=1500).contains(&s), "item {i} size {s} out of bounds");
        }
    }

    #[test]
    fn zero_spread_gives_constant_sizes() {
        let spec = DatasetSpec::new("t", 100, 1234, 0.0, 6.0);
        assert!((0..100).all(|i| spec.item_size(i) == 1234));
    }

    #[test]
    fn decoded_size_applies_multiplier() {
        let spec = DatasetSpec::new("t", 10, 1000, 0.0, 6.0);
        assert_eq!(spec.decoded_size(0), 6000);
    }

    #[test]
    fn scaling_preserves_item_size_statistics() {
        let full = DatasetSpec::openimages_extended();
        let small = full.scaled(10_000);
        assert_eq!(small.avg_item_bytes, full.avg_item_bytes);
        assert!(small.num_items >= 1);
        assert!(small.num_items <= full.num_items / 10_000 + 1);
    }

    #[test]
    fn cache_fraction_math() {
        let spec = DatasetSpec::new("t", 1000, 1000, 0.0, 6.0);
        assert_eq!(spec.cache_bytes_for_fraction(0.35), 350_000);
        assert_eq!(spec.cache_bytes_for_fraction(1.0), 1_000_000);
        assert_eq!(spec.cache_bytes_for_fraction(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_dataset_rejected() {
        let _ = DatasetSpec::new("t", 0, 1, 0.0, 6.0);
    }
}

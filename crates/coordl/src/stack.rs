//! What a fetch *does* in single and coordinated sessions: one cache tier
//! over one fetch backend.  (A partitioned node fetches through its
//! [`PartitionedCacheCluster`](crate::PartitionedCacheCluster) instead; the
//! multi-threaded epoch engine that calls either lives in
//! [`executor`](crate::executor).)
//!
//! A miss has two halves.  The tier transactions — the lookup that missed
//! and the admit — decide what every later fetch of the item's shard sees,
//! so the fetch thread runs them in plan order.  The backend read decides
//! nothing: when the tier will not keep the item (a full MinIO tier, §4.1),
//! its admit needs only the item's size, and the read becomes a *hole* in
//! the plan position, filled by [`read_hole`] on whichever stage thread
//! reaches it first.  A miss the tier keeps is read inline, because the
//! admit needs its bytes.

use crate::error::CoordlError;
use crate::executor::{FetchFn, Fetched};
use crate::stats::LoaderStats;
use crate::{CacheTier, FetchBackend};
use dataset::ItemId;
use std::sync::{Arc, Once};

/// The fetch path of `tier` over `backend`: serve `item` from the tier; on
/// a miss, record the bypass and leave a hole when the tier will not keep
/// it, else read it from the backend and offer it for admission.  Byte
/// provenance goes to `stats` (a hole's storage bytes once it is read).  A
/// failed backend read surfaces as [`CoordlError::BackendIo`].
///
/// The tier's first bypass hands `window` new buffers of the item's size to
/// the backend's free list — the most holes the executor holds between read
/// and prep — and each payload the tier still keeps after it one more, so
/// from then on the list never runs dry (a sharded tier fills shard by
/// shard), and how many buffers it made does not depend on how far the
/// stages happened to run ahead of each other.
pub(crate) fn tier_over_backend(
    tier: Arc<dyn CacheTier>,
    backend: Arc<dyn FetchBackend>,
    stats: Arc<LoaderStats>,
    window: usize,
) -> Arc<FetchFn> {
    let full = Once::new();
    Arc::new(move |item| {
        if let Some((bytes, level)) = tier.lookup_traced(item) {
            stats.record_cache_read(bytes.len() as u64);
            if level > 0 {
                stats.record_lower_tier_read(bytes.len() as u64);
            }
            return Ok(Fetched::Bytes(bytes));
        }
        // An item past the end has no size: its read fails inline, typed.
        if item < backend.num_items() {
            let size = backend.item_bytes(item);
            if tier.try_bypass(item, size) {
                full.call_once(|| {
                    for _ in 0..window {
                        backend.recycle(Vec::with_capacity(size as usize));
                    }
                });
                return Ok(Fetched::Hole(size));
            }
        }
        let bytes = Arc::new(backend.read(item)?);
        stats.record_storage_read(bytes.len() as u64);
        let bytes = tier.admit(item, bytes);
        if full.is_completed() && Arc::strong_count(&bytes) > 1 {
            backend.recycle(Vec::with_capacity(bytes.len()));
        }
        Ok(Fetched::Bytes(bytes))
    })
}

/// Read the hole `item` left by [`tier_over_backend`]: `size` bytes from
/// `backend`, counted in `stats` once the read succeeds.  A read of any
/// other length is a [`CoordlError::BackendIo`], and its buffer goes back
/// to the backend unserved.
pub(crate) fn read_hole(
    backend: &dyn FetchBackend,
    stats: &LoaderStats,
    item: ItemId,
    size: u64,
) -> Result<Arc<Vec<u8>>, CoordlError> {
    let bytes = backend.read(item)?;
    let got = bytes.len() as u64;
    if got != size {
        backend.recycle(bytes);
        return Err(CoordlError::BackendIo {
            backend: backend.name().to_string(),
            item,
            detail: format!("read {got} bytes where item_bytes said {size}"),
        });
    }
    stats.record_storage_read(size);
    Ok(Arc::new(bytes))
}

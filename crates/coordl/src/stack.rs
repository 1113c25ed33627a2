//! What a fetch *does* in single and coordinated sessions: one cache tier
//! over one fetch backend.  (A partitioned node fetches through its
//! [`PartitionedCacheCluster`](crate::PartitionedCacheCluster) instead; the
//! multi-threaded epoch engine that calls either lives in
//! [`executor`](crate::executor).)

use crate::executor::FetchFn;
use crate::stats::LoaderStats;
use crate::{CacheTier, FetchBackend};
use std::sync::Arc;

/// The fetch path of `tier` over `backend`: serve `item` from the tier, or
/// read it from the backend on a miss and offer it for admission, recording
/// the byte provenance in `stats`.  A failed backend read surfaces as
/// [`CoordlError::BackendIo`](crate::CoordlError::BackendIo).
pub(crate) fn tier_over_backend(
    tier: Arc<dyn CacheTier>,
    backend: Arc<dyn FetchBackend>,
    stats: Arc<LoaderStats>,
) -> Arc<FetchFn> {
    Arc::new(move |item| {
        if let Some((bytes, level)) = tier.lookup_traced(item) {
            stats.record_cache_read(bytes.len() as u64);
            if level > 0 {
                stats.record_lower_tier_read(bytes.len() as u64);
            }
            return Ok(bytes);
        }
        let bytes = Arc::new(backend.read(item)?);
        stats.record_storage_read(bytes.len() as u64);
        Ok(tier.admit(item, bytes))
    })
}

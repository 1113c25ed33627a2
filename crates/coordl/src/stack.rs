//! The loader stack shared by every [`Session`](crate::Session) mode: one
//! cache tier over one fetch backend, plus the executable prep pipeline and
//! the shared statistics.
//!
//! The multi-threaded epoch engine itself lives in
//! [`executor`](crate::executor); this module provides the stack — what a
//! fetch *does* in single and coordinated sessions.

use crate::backend::recycle_if_last;
use crate::error::CoordlError;
use crate::executor::FetchFn;
use crate::stats::LoaderStats;
use crate::{CacheTier, FetchBackend};
use dataset::ItemId;
use prep::{ExecutablePipeline, PreparedSample};
use std::sync::Arc;

/// One cache tier over one fetch backend, with shared statistics and the
/// prep pipeline: everything a worker needs to turn item ids into prepared
/// samples.
#[derive(Clone)]
pub(crate) struct LoaderStack {
    pub tier: Arc<dyn CacheTier>,
    pub backend: Arc<dyn FetchBackend>,
    pub stats: Arc<LoaderStats>,
    pub pipeline: Arc<ExecutablePipeline>,
}

impl LoaderStack {
    /// Fetch `item` through the tier, reading from the backend on a miss.
    /// A failed backend read surfaces as [`CoordlError::BackendIo`].
    pub(crate) fn fetch(&self, item: ItemId) -> Result<Arc<Vec<u8>>, CoordlError> {
        if let Some((bytes, level)) = self.tier.lookup_traced(item) {
            self.stats.record_cache_read(bytes.len() as u64);
            if level > 0 {
                self.stats.record_lower_tier_read(bytes.len() as u64);
            }
            return Ok(bytes);
        }
        let bytes = Arc::new(self.backend.read(item)?);
        self.stats.record_storage_read(bytes.len() as u64);
        Ok(self.tier.admit(item, bytes))
    }

    /// Fetch and pre-process one minibatch's items in order (the sequential
    /// path used by coordinated recovery producers).
    pub(crate) fn prepare(
        &self,
        epoch: u64,
        items: &[ItemId],
    ) -> Result<Vec<PreparedSample>, CoordlError> {
        items
            .iter()
            .map(|&item| {
                let raw = self.fetch(item)?;
                self.stats.record_prepared(1);
                let sample = self.pipeline.prepare(epoch, item, &raw);
                recycle_if_last(&*self.backend, raw);
                Ok(sample)
            })
            .collect()
    }

    /// The stack's fetch path as an executor fetch function.
    pub(crate) fn fetch_fn(&self) -> Arc<FetchFn> {
        let stack = self.clone();
        Arc::new(move |item| stack.fetch(item))
    }
}

//! The vectorized MinIO epoch engine: the single-server fast path.
//!
//! DS-Analyzer's what-if sweeps re-simulate the same job across ≥10⁵ grid
//! points, and almost every point is CoorDL's MinIO configuration (§4.1).
//! MinIO never evicts and never demotes, so an all-MinIO [`dcache::TierChain`]
//! collapses to flat arrays: per fetch unit the topmost tier holding it, and
//! per tier the bytes admitted so far.  This module replays exactly the
//! chain's placement rules over those arrays — provenance serves the access,
//! the first tier above provenance with room admits (spill-down on a store
//! miss, promotion on a lower-tier hit), at most one admission per access —
//! without hash maps, policy objects or a [`storage::StorageNode`].
//!
//! The contract is **bit-identity**: for a [`Scenario::SingleServer`] run
//! whose loader uses [`PolicyKind::MinIo`](dcache::PolicyKind), the
//! [`EpochMetrics`] produced here equal the exact engine's
//! (`crate::engine::SharedNodeSim` with one job) in every field, warm-up
//! epochs included.
//! `tests/fast_engine_equivalence.rs` cross-checks the two engines over
//! random configurations; [`Experiment`](crate::Experiment) selects this path
//! automatically and falls back to the exact engine everywhere else.

use crate::config::ServerConfig;
use crate::engine::{
    access_pattern, compute_secs_for_batch, local_fetch_secs, prep_secs_for_batch, BatchFetch,
    EngineScratch, SweepOrder, IO_BINS,
};
use crate::experiment::CacheSpec;
use crate::job::JobSpec;
use crate::loader::FetchOrder;
use crate::metrics::EpochMetrics;
use dataset::{EpochSampler, ItemId};
use dcache::TierCost;
use prep::PrepCostModel;
use storage::{AccessPattern, DeviceProfile};

/// Sentinel for "resident in no tier".
pub(crate) const NO_TIER: u32 = u32::MAX;

/// Per-item metadata the replay needs, packed so a shuffled epoch loads one
/// cache line per item instead of three.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ItemMeta {
    /// Fetch-unit key (`StorageFormat::unit_of`).
    pub(crate) key: u64,
    /// Fetch-unit size in bytes.
    pub(crate) unit_bytes: u64,
    /// Raw (encoded) item size (`DatasetSpec::item_size`).
    pub(crate) raw_bytes: u64,
}

/// The capacities and hit costs of the cache chain [`crate::engine::build_node`]
/// would build, fastest tier first — everything the flat-array replay needs.
pub(crate) struct TierPlan {
    caps: Vec<u64>,
    costs: Vec<TierCost>,
}

impl TierPlan {
    /// Mirror of [`crate::engine::build_node`]'s tier specs for `cache`.
    pub(crate) fn new(server: &ServerConfig, cache: CacheSpec) -> Self {
        match cache {
            CacheSpec::DramOnly => TierPlan {
                caps: vec![server.dram_cache_bytes],
                costs: vec![storage::dram_tier_cost()],
            },
            CacheSpec::Tiered {
                dram_bytes,
                ssd_bytes,
            } => TierPlan {
                caps: vec![dram_bytes, ssd_bytes],
                costs: vec![
                    storage::dram_tier_cost(),
                    // Same random-read SSD cost the exact chain charges.
                    DeviceProfile::sata_ssd().tier_cost(AccessPattern::Random),
                ],
            },
        }
    }
}

/// Initialise `scratch` for one fast single-server run: per-item fetch-unit
/// keys/sizes and a cold cache state.  Must be called once per run (the cache
/// stays warm across that run's epochs, like the exact engine's node).
pub(crate) fn init_run(job: &JobSpec, plan: &TierPlan, scratch: &mut EngineScratch) {
    let n = job.dataset.num_items as usize;
    // The metadata arrays depend only on the dataset's size distribution and
    // the storage format — both constant across a sweep's grid points — so
    // rebuild them (size-jitter hashing included) only when those change.
    let meta_key = (
        job.dataset.num_items,
        job.dataset.avg_item_bytes,
        job.dataset.size_spread.to_bits(),
        job.loader.format,
    );
    if scratch.meta_key != Some(meta_key) {
        scratch.items_meta.clear();
        scratch.item_sizes.clear();
        for item in 0..job.dataset.num_items {
            let unit = job.loader.format.unit_of(item, &job.dataset);
            let raw_bytes = job.dataset.item_size(item);
            scratch.items_meta.push(ItemMeta {
                key: unit.key,
                unit_bytes: unit.bytes,
                raw_bytes,
            });
            scratch.item_sizes.push(raw_bytes);
        }
        scratch.meta_key = Some(meta_key);
    }
    debug_assert_eq!(scratch.items_meta.len(), n);
    // The cache state, by contrast, is cold at the start of every run.
    let num_units = job.loader.format.num_units(&job.dataset);
    scratch.unit_tier.clear();
    scratch.unit_tier.resize(num_units as usize, NO_TIER);
    scratch.tier_used.clear();
    scratch.tier_used.resize(plan.caps.len(), 0);
}

/// One epoch of the fast engine: identical batch structure and cost formulas
/// to the exact engine's one-job epoch, with the cache chain replayed over
/// the flat arrays in `scratch`.
pub(crate) fn single_epoch_fast(
    server: &ServerConfig,
    job: &JobSpec,
    plan: &TierPlan,
    epoch: u64,
    scratch: &mut EngineScratch,
) -> EpochMetrics {
    let num_items_u64 = job.dataset.num_items;
    // Memoize the consume permutation: it depends only on (item count, seed,
    // epoch), all of which a sweep holds constant across grid points, so the
    // Fisher–Yates shuffle runs once per epoch index instead of once per
    // point.  Epochs past the memo cap fall back to shuffling in place.
    const PERM_MEMO_EPOCHS: usize = 64;
    if scratch.perm_items != num_items_u64 || scratch.perm_seed != job.seed {
        scratch.perms.clear();
        scratch.perm_items = num_items_u64;
        scratch.perm_seed = job.seed;
    }
    let sampler = EpochSampler::new(num_items_u64, job.seed);
    scratch.reserve(1, 1);
    let SweepOrder {
        consume: consume_buf,
        fetch: fetch_buf,
    } = &mut scratch.sweeps[0];
    let e = epoch as usize;
    let memoized = e < PERM_MEMO_EPOCHS;
    if memoized {
        if scratch.perms.len() <= e {
            scratch.perms.resize_with(e + 1, Vec::new);
        }
        if scratch.perms[e].is_empty() {
            let mut perm = std::mem::take(&mut scratch.perms[e]);
            sampler.permutation_into(epoch, &mut perm);
            scratch.perms[e] = perm;
        }
    } else {
        sampler.permutation_into(epoch, consume_buf);
    }
    let consume: &[ItemId] = if memoized {
        &scratch.perms[e]
    } else {
        consume_buf
    };
    // The storage read order: a *sorted full permutation* is the identity,
    // so the sequential stream is 0..n with no sort; the shuffled stream is
    // the consume order itself (`fetch_stream_into` produces exactly these).
    let fetch: &[ItemId] = if job.loader.fetch_order == FetchOrder::Sequential {
        fetch_buf.clear();
        fetch_buf.extend(0..num_items_u64);
        fetch_buf
    } else {
        consume
    };
    let pattern = access_pattern(job);
    let global_batch = job.global_batch();

    let cost = PrepCostModel::for_pipeline(&job.pipeline, job.loader.prep_backend);
    let cores = cost.effective_cores(server.cpu_cores as f64, server.cpu_cores as f64);
    let latency = server.device.request_latency_s;
    let bandwidth = server.device.bandwidth(pattern);
    // Every full batch has the same sample count, so its compute time is one
    // number — hoist it out of the loop (the trailing partial batch, if any,
    // is computed on demand with the identical formula).
    let compute_full = compute_secs_for_batch(job, server.gpu, global_batch);

    let EngineScratch {
        items_meta,
        item_sizes,
        unit_tier,
        tier_used,
        accs,
        ..
    } = scratch;
    let acc = &mut accs[0];
    acc.reset(epoch, job.loader.prefetch_depth);
    let num_tiers = tier_used.len() as u32;
    let num_items = consume.len();
    let fused = job.loader.fetch_order != FetchOrder::Sequential;
    // For file-per-item formats the fetch unit is the item itself (key = id,
    // unit bytes = raw bytes), so the replay can index the dense size array
    // directly and skip the packed metadata entirely.
    let per_item = matches!(job.loader.format, dataset::StorageFormat::FilePerItem);
    for (i, batch) in consume.chunks(global_batch).enumerate() {
        let start = i * global_batch;
        let end = (start + batch.len()).min(num_items);

        let mut bf = BatchFetch::default();
        let mut lower_secs = 0.0;
        let mut raw_bytes = 0u64;
        match (fused, per_item) {
            // Shuffled: the fetch slice *is* the consume batch, so one pass
            // serves both the cache replay and the raw-size sum.
            (true, true) => {
                for &item in batch {
                    let bytes = item_sizes[item as usize];
                    raw_bytes += bytes;
                    replay_access(
                        plan,
                        unit_tier,
                        tier_used,
                        num_tiers,
                        item as usize,
                        bytes,
                        &mut bf,
                        &mut lower_secs,
                    );
                }
            }
            (true, false) => {
                for &item in batch {
                    let m = items_meta[item as usize];
                    raw_bytes += m.raw_bytes;
                    replay_access(
                        plan,
                        unit_tier,
                        tier_used,
                        num_tiers,
                        m.key as usize,
                        m.unit_bytes,
                        &mut bf,
                        &mut lower_secs,
                    );
                }
            }
            (false, true) => {
                for &item in &fetch[start..end] {
                    let bytes = item_sizes[item as usize];
                    replay_access(
                        plan,
                        unit_tier,
                        tier_used,
                        num_tiers,
                        item as usize,
                        bytes,
                        &mut bf,
                        &mut lower_secs,
                    );
                }
                raw_bytes = batch.iter().map(|&it| item_sizes[it as usize]).sum();
            }
            (false, false) => {
                for &item in &fetch[start..end] {
                    let m = items_meta[item as usize];
                    replay_access(
                        plan,
                        unit_tier,
                        tier_used,
                        num_tiers,
                        m.key as usize,
                        m.unit_bytes,
                        &mut bf,
                        &mut lower_secs,
                    );
                }
                raw_bytes = batch
                    .iter()
                    .map(|&it| items_meta[it as usize].raw_bytes)
                    .sum();
            }
        }
        bf.counts.samples = batch.len() as u64;
        bf.fetch_secs = local_fetch_secs(&bf, lower_secs, latency, bandwidth, 1.0);

        let prep = prep_secs_for_batch(job, raw_bytes, cores);
        let compute = if batch.len() == global_batch {
            compute_full
        } else {
            compute_secs_for_batch(job, server.gpu, batch.len())
        };
        acc.push_batch(&bf, prep, compute);
    }
    acc.finish(IO_BINS)
}

/// Replay one access against the flat cache state: provenance serves it,
/// then the first tier above provenance with room admits (spill-down on a
/// store miss, promotion on a lower-tier hit), exactly like the chain.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn replay_access(
    plan: &TierPlan,
    unit_tier: &mut [u32],
    tier_used: &mut [u64],
    num_tiers: u32,
    key: usize,
    bytes: u64,
    bf: &mut BatchFetch,
    lower_secs: &mut f64,
) {
    let tier = unit_tier[key];
    let c = &mut bf.counts;
    if num_tiers == 1 {
        // Single-tier (DramOnly) chain, the common sweep shape: `tier` is 0
        // or `NO_TIER`, no lower tiers exist, and the whole access reduces
        // to masked integer updates.  Branchless on the data-dependent
        // hit/miss outcome, which the predictor cannot learn.
        let miss = (tier != 0) as u64;
        let hit = 1 - miss;
        c.bytes_from_cache += bytes * hit;
        c.cache_hits += hit;
        c.bytes_from_storage += bytes * miss;
        c.cache_misses += miss;
        let admit = miss & (tier_used[0] + bytes <= plan.caps[0]) as u64;
        tier_used[0] += bytes * admit;
        unit_tier[key] = if admit == 1 { 0 } else { tier };
        return;
    }
    if tier == 0 {
        // Hit at the top tier: served, nothing to admit.
        c.bytes_from_cache += bytes;
        c.cache_hits += 1;
        return;
    }
    let probe_until = if tier == NO_TIER {
        // Store miss: every tier may admit.
        c.bytes_from_storage += bytes;
        c.cache_misses += 1;
        num_tiers
    } else {
        // Lower-tier hit, charged at that tier's cost; the tiers above it
        // may promote.
        c.bytes_from_cache += bytes;
        c.cache_hits += 1;
        c.bytes_from_lower_tiers += bytes;
        c.lower_tier_hits += 1;
        *lower_secs += plan.costs[tier as usize].access_seconds(bytes);
        tier
    };
    // MinIO admission, top down: the first tier with room takes the unit
    // (at most one admission per access, like the chain).
    for (k, used) in tier_used.iter_mut().enumerate().take(probe_until as usize) {
        if *used + bytes <= plan.caps[k] {
            *used += bytes;
            unit_tier[key] = k as u32;
            break;
        }
    }
}

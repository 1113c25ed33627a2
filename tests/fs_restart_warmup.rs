//! Integration test for the persistent SSD tier (ISSUE 8): a tenant is
//! killed mid-run, the `Server` process "restarts" (a new instance over the
//! same VFS root), and the warmed SSD tier must (a) repopulate itself from
//! the on-disk spill manifest and (b) serve byte-identical content — the
//! aggregate stream digest of the restarted run matches an uninterrupted
//! run on a fresh hierarchy.  A restart over a *shrunk* SSD level retires
//! the entries that no longer fit instead of keeping dead files forever —
//! including, under an evicting policy, the entries the replay itself
//! evicts.

use benchkit::runtime::StreamDigest;
use datastalls::cache::PolicyKind;
use datastalls::coordl::{
    ByteTierSpec, CacheTier, Server, ServerConfig, SessionConfig, TenantHandle, TenantSpec,
    TieredByteCache,
};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use std::sync::Arc;
use vfs::{MemVfs, SpillStore, Vfs};

const ITEMS: u64 = 96;
const AVG_ITEM_BYTES: u64 = 1024;
const EPOCHS: u64 = 3;
const SEED: u64 = 0xD15C;

fn dataset() -> Arc<dyn DataSource> {
    let spec = DatasetSpec::new("restart-warmup", ITEMS, AVG_ITEM_BYTES, 0.2, 2.0);
    Arc::new(SyntheticItemStore::new(spec, 7))
}

/// DRAM too small for the working set, SSD big enough for all of it, spilled
/// to `ssd/` on the given VFS so a restarted server can warm from it.
fn tiers(fs: &Arc<dyn Vfs>) -> Vec<ByteTierSpec> {
    let total = ITEMS * AVG_ITEM_BYTES;
    vec![
        ByteTierSpec::dram(PolicyKind::MinIo, total / 4),
        ByteTierSpec::sata_ssd(PolicyKind::MinIo, total * 2).persistent(Arc::clone(fs), "ssd"),
    ]
}

fn server_over(fs: &Arc<dyn Vfs>) -> Server {
    Server::new(ServerConfig {
        tiers: tiers(fs),
        shards: 2,
    })
    .expect("valid server config")
}

fn submit(server: &Server) -> TenantHandle {
    server
        .submit(TenantSpec {
            name: "trainer".to_string(),
            dataset: dataset(),
            quota_bytes: ITEMS * AVG_ITEM_BYTES,
            session: SessionConfig {
                batch_size: 8,
                num_workers: 1,
                seed: SEED,
                ..SessionConfig::default()
            },
            profile: None,
        })
        .expect("valid tenant spec")
}

/// Stream `epochs` full epochs into the digest; returns delivered samples.
fn stream_epochs(tenant: &TenantHandle, epochs: u64, digest: &mut StreamDigest) -> u64 {
    let mut samples = 0u64;
    for epoch in 0..epochs {
        let run = tenant.session().epoch(epoch);
        for batch in run.stream(0) {
            let mb = batch.expect("restart-warmup epochs do not fail");
            digest.absorb(&mb);
            samples += mb.samples.len() as u64;
        }
    }
    samples
}

#[test]
fn restarted_server_warms_its_ssd_tier_and_replays_an_identical_stream() {
    // Uninterrupted reference run on its own fresh hierarchy.
    let reference_fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let reference_server = server_over(&reference_fs);
    let reference_tenant = submit(&reference_server);
    let mut reference_digest = StreamDigest::default();
    let reference_samples = stream_epochs(&reference_tenant, EPOCHS, &mut reference_digest);
    assert!(reference_samples > 0);

    // Interrupted run over a VFS root that survives the "process".
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let server = server_over(&fs);
    let tenant = submit(&server);
    // One full epoch fills DRAM and spills the overflow to the SSD files...
    let mut partial = StreamDigest::default();
    stream_epochs(&tenant, 1, &mut partial);
    // ...then the tenant dies mid-epoch: a few batches into epoch 1 the
    // handle is leaked (no departure cleanup) and the server is dropped.
    {
        let run = tenant.session().epoch(1);
        for batch in run.stream(0).take(3) {
            batch.expect("pre-crash batches succeed");
        }
    }
    assert!(
        fs.exists("ssd/shard-0/MANIFEST") && fs.exists("ssd/shard-1/MANIFEST"),
        "the persistent tier keeps one manifest per shard on the VFS"
    );
    std::mem::forget(tenant);
    drop(server);

    // "Restart": a new Server over the same VFS root. The SSD tier must
    // repopulate from the manifest before any tenant arrives.
    let server = server_over(&fs);
    let warmed = server.resident_items();
    assert!(warmed > 0, "SSD tier repopulated from the on-disk manifest");
    assert_eq!(
        server.dram_used_bytes(),
        0,
        "warm-up restores the SSD level, not DRAM"
    );

    // Tenant ids restart from zero, so resubmitting the same workload lands
    // in its old key window: the warmed entries are *its* items.
    let tenant = submit(&server);
    let mut restart_digest = StreamDigest::default();
    let restart_samples = stream_epochs(&tenant, EPOCHS, &mut restart_digest);

    assert_eq!(restart_samples, reference_samples);
    assert_eq!(
        restart_digest.finish(),
        reference_digest.finish(),
        "the warmed tier serves byte-identical content: the restarted run's \
         stream digest must match the uninterrupted run"
    );
    // The warm start did real work: the restarted run re-read less from
    // storage than one full dataset (a cold run reads every byte once).
    let cold_bytes: u64 = reference_tenant.session().stats().bytes_from_storage();
    let warm_bytes = tenant.session().stats().bytes_from_storage();
    assert!(
        warm_bytes < cold_bytes,
        "warmed SSD tier absorbed fetches: {warm_bytes} storage bytes after \
         restart vs {cold_bytes} cold"
    );

    // A clean departure retires the persisted copies: the next restart
    // starts cold again.
    tenant.depart();
    drop(server);
    let server = server_over(&fs);
    assert_eq!(
        server.resident_items(),
        0,
        "departure removed the spilled entries from the manifest"
    );
}

#[test]
fn shrunk_ssd_tier_retires_its_misfit_spill_entries_on_restart() {
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let total = ITEMS * AVG_ITEM_BYTES;
    let server = |ssd_bytes: u64| {
        let mut tiers = tiers(&fs);
        tiers[1].capacity_bytes = ssd_bytes;
        Server::new(ServerConfig { tiers, shards: 2 }).expect("valid server config")
    };
    let spilled = || -> Vec<u64> {
        let keys = |dir: &str| {
            let spill = SpillStore::open(Arc::clone(&fs), dir).expect("spill dir opens");
            spill.entries().map(|(key, _)| key).collect::<Vec<_>>()
        };
        [keys("ssd/shard-0"), keys("ssd/shard-1")].concat()
    };
    // DRAM takes a quarter of the dataset, the SSD level the rest; crash.
    let full = server(total * 2);
    let tenant = submit(&full);
    stream_epochs(&tenant, 1, &mut StreamDigest::default());
    let filled = spilled().len();
    assert!(filled > 0, "the SSD level spilled to disk");
    std::mem::forget(tenant);
    drop(full);

    // Restart over a much smaller SSD level: the misfits are retired from
    // disk, so the store lists exactly what the level holds.
    let small = server(total / 4);
    assert!(small.used_bytes() <= total / 4);
    let on_disk = spilled();
    assert!(
        on_disk.len() < filled,
        "dead files and manifest lines are gone"
    );
    assert_eq!(on_disk.len(), small.resident_items());
    let tenant = submit(&small);
    let view = tenant.session().cache_tier().expect("tenant view");
    assert!(
        on_disk.iter().all(|&key| view.contains(key)),
        "tenant 0's keys are its item ids"
    );
    std::mem::forget(tenant);
    drop(small);

    // A third start replays no misfits.
    let again = server(total / 4);
    assert_eq!(again.resident_items(), on_disk.len());
    assert_eq!(spilled(), on_disk);
}

#[test]
fn shrunk_evicting_ssd_tier_retires_its_replay_victims_on_restart() {
    // DRAM LRU 2 B over a persistent SSD LRU level; ten 1-byte items leave
    // 8 and 9 in DRAM and demote 0..=7 onto the SSD files.
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let cache = |ssd_bytes: u64| {
        TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::Lru, 2),
            ByteTierSpec::sata_ssd(PolicyKind::Lru, ssd_bytes).persistent(Arc::clone(&fs), "ssd"),
        ])
    };
    let original = |item: u64| vec![item as u8 ^ 0xA5];
    let spilled = || -> Vec<u64> {
        let spill = SpillStore::open(Arc::clone(&fs), "ssd").expect("spill dir opens");
        spill.entries().map(|(key, _)| key).collect()
    };
    let full = cache(8);
    for item in 0..10u64 {
        full.admit(item, Arc::new(original(item)));
    }
    full.flush().expect("the spill store commits");
    drop(full);
    assert_eq!(spilled(), (0..8).collect::<Vec<_>>());

    // Restart over a 3-byte SSD level: replaying eight entries in key order
    // through LRU evicts the first five.  Those victims lose their payload
    // and their files before the cache serves anything.
    let small = cache(3);
    let resident = small.resident_items();
    let mut hits = Vec::new();
    for item in 0..10u64 {
        let held = small.contains(item);
        match small.lookup(item) {
            Some(bytes) => {
                assert_eq!(*bytes, original(item), "item {item} served its own bytes");
                hits.push(item);
            }
            None => assert!(!held, "item {item}: resident without a payload"),
        }
    }
    assert_eq!(hits.len(), resident, "a payload for every resident key");
    let on_disk = spilled();
    assert_eq!(
        on_disk, hits,
        "the store lists exactly the served survivors"
    );
    drop(small);

    // A second restart replays only the survivors.
    let again = cache(3);
    assert_eq!(again.resident_items(), resident);
    assert_eq!(spilled(), on_disk);
    for &item in &on_disk {
        assert_eq!(
            *again.lookup(item).expect("survivor replayed"),
            original(item)
        );
    }
}

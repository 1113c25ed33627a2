//! Criterion microbenchmark: the functional CoorDL machinery — MinIO byte
//! cache fetches, executable prep, and a full coordinated epoch with
//! concurrent consumers.

use coordl::{CacheTier, Mode, Session, SessionConfig, TieredByteCache};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use prep::{ExecutablePipeline, PrepPipeline};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_byte_cache(c: &mut Criterion) {
    let spec = DatasetSpec::new("micro", 4_096, 4_096, 0.0, 4.0);
    let store = SyntheticItemStore::new(spec.clone(), 1);
    let cache = TieredByteCache::single(dcache::PolicyKind::MinIo, spec.total_bytes());
    for item in 0..spec.num_items {
        cache.admit(item, Arc::new(store.read(item)));
    }
    let mut group = c.benchmark_group("minio_byte_cache");
    group.throughput(Throughput::Elements(spec.num_items));
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            for item in 0..spec.num_items {
                black_box(cache.lookup(item));
            }
        });
    });
    group.finish();
}

fn bench_executable_prep(c: &mut Criterion) {
    let pipeline = ExecutablePipeline::new(PrepPipeline::image_classification(), 4, 7);
    let raw = vec![0xABu8; 64 * 1024];
    let mut group = c.benchmark_group("executable_prep");
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("prepare_64KiB_item", |b| {
        let mut item = 0u64;
        b.iter(|| {
            item += 1;
            black_box(pipeline.prepare(0, item, &raw))
        });
    });
    group.finish();
}

fn bench_coordinated_epoch(c: &mut Criterion) {
    let spec = DatasetSpec::new("micro", 1_024, 2_048, 0.0, 4.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 1));
    let mut group = c.benchmark_group("coordinated_epoch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(spec.num_items));
    for jobs in [2usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
            let session = Session::builder(
                Arc::clone(&store),
                SessionConfig {
                    batch_size: 64,
                    staging_window: 8,
                    seed: 5,
                    cache_capacity_bytes: 64 << 20,
                    take_timeout: Duration::from_secs(10),
                    ..SessionConfig::default()
                },
            )
            .mode(Mode::Coordinated { jobs })
            .pipeline(ExecutablePipeline::new(
                PrepPipeline::image_classification(),
                4,
                3,
            ))
            .build()
            .expect("coordinated config");
            let mut epoch = 0u64;
            b.iter(|| {
                epoch += 1;
                let run = session.epoch(epoch);
                let handles: Vec<_> = (0..jobs)
                    .map(|job| {
                        let stream = run.stream(job);
                        std::thread::spawn(move || {
                            stream.map(|b| b.expect("batch").len()).sum::<usize>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_byte_cache,
    bench_executable_prep,
    bench_coordinated_epoch
);
criterion_main!(benches);

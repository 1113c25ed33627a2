//! Stress tests for the prefetching executor's bounded queues, the staging
//! area, and session teardown: shutdown mid-epoch while workers are blocked
//! on full queues must drain cleanly (no deadlock), a panicking worker must
//! fail only its own session with a descriptive [`CoordlError`], and
//! repeated sessions must not leak worker threads.

use datastalls::coordl::{
    CoordlError, FetchBackend, Mode, PublishOutcome, Session, SessionConfig, StagingArea,
};
use datastalls::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store(items: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("stress", items, 512, 0.2, 4.0),
        7,
    ))
}

fn pipeline() -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 4, 9)
}

/// Run `f` on its own thread and panic if it does not finish in `limit` —
/// turns a would-be deadlock into a clear test failure instead of a hang.
fn with_deadline<F: FnOnce() + Send + 'static>(limit: Duration, what: &str, f: F) {
    let handle = std::thread::spawn(f);
    let start = Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < limit,
            "{what} did not finish within {limit:?} — deadlock?"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("deadline-guarded body");
}

#[test]
fn dropping_a_single_mode_stream_with_saturated_queues_drains_cleanly() {
    with_deadline(Duration::from_secs(60), "single-mode shutdown loop", || {
        for round in 0..15 {
            let session = Session::builder(
                store(400),
                SessionConfig {
                    batch_size: 4,
                    cache_capacity_bytes: 32 << 20,
                    ..SessionConfig::default()
                },
            )
            .workers(4)
            .prefetch_depth(1) // smallest window: maximum backpressure
            .pipeline(pipeline())
            .build()
            .expect("valid session");
            let run = session.epoch(0);
            let mut stream = run.stream(0);
            // Consume a prefix (round-dependent, including zero batches) so
            // workers are parked at every possible stage when we bail out.
            for _ in 0..(round % 4) {
                let _ = stream.next();
            }
            drop(stream);
            drop(run);
        }
    });
}

#[test]
fn dropping_a_coordinated_run_with_a_full_staging_window_drains_cleanly() {
    with_deadline(Duration::from_secs(60), "coordinated shutdown loop", || {
        for _ in 0..10 {
            let session = Session::builder(
                store(600),
                SessionConfig {
                    batch_size: 8,
                    staging_window: 1, // producers block almost immediately
                    cache_capacity_bytes: 32 << 20,
                    take_timeout: Duration::from_secs(5),
                    ..SessionConfig::default()
                },
            )
            .mode(Mode::Coordinated { jobs: 2 })
            .workers(4)
            .prefetch_depth(1)
            .pipeline(pipeline())
            .build()
            .expect("valid session");
            let run = session.epoch(0);
            let mut stream = run.stream(0);
            let first = stream.next().expect("epoch has batches");
            assert!(first.is_ok());
            // Job 1 never consumes: the window stays full, the prep pool
            // takes no more of the epoch's positions and the fetch threads
            // park on their full lanes.  Dropping the run must still shut
            // down and join everything.
            drop(run);
            // The surviving stream observes the typed shutdown.
            for outcome in stream {
                match outcome {
                    Ok(_) => continue,
                    Err(CoordlError::Shutdown) => break,
                    Err(other) => panic!("expected Shutdown, got {other}"),
                }
            }
        }
    });
}

#[test]
fn staging_shutdown_wakes_a_crowd_of_blocked_producers_with_typed_outcomes() {
    let area = Arc::new(StagingArea::new(1, 1));
    assert_eq!(
        area.publish(datastalls::coordl::Minibatch {
            epoch: 0,
            index: 0,
            samples: vec![],
        }),
        PublishOutcome::Published
    );
    // Eight producers all blocked on the full window.
    let producers: Vec<_> = (1..9)
        .map(|index| {
            let area = Arc::clone(&area);
            std::thread::spawn(move || {
                area.publish(datastalls::coordl::Minibatch {
                    epoch: 0,
                    index,
                    samples: vec![],
                })
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(area.stats().published, 1, "window holds them all back");
    area.shutdown();
    for p in producers {
        let outcome = p.join().expect("producer thread");
        assert_eq!(outcome, PublishOutcome::Shutdown, "typed, not dropped");
        assert!(!outcome.is_live());
    }
}

/// A fetch backend that panics on one item — the injectable fault used to
/// prove a panicking worker fails only its session.
struct PanickingBackend {
    source: Arc<dyn DataSource>,
    panic_at: u64,
}

impl FetchBackend for PanickingBackend {
    fn num_items(&self) -> u64 {
        self.source.len()
    }

    fn item_bytes(&self, item: u64) -> u64 {
        self.source.item_bytes(item)
    }

    fn read(&self, item: u64) -> Result<Vec<u8>, CoordlError> {
        assert!(
            item != self.panic_at,
            "injected backend fault reading item {item}"
        );
        Ok(self.source.read(item))
    }

    fn name(&self) -> &'static str {
        "panicking"
    }
}

#[test]
fn panicking_worker_fails_only_its_session_with_a_descriptive_error() {
    let source = store(120);
    let faulty = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 10,
            cache_capacity_bytes: 32 << 20,
            ..SessionConfig::default()
        },
    )
    .workers(3)
    .fetch_backend(Arc::new(PanickingBackend {
        source: Arc::clone(&source),
        panic_at: 60,
    }))
    .pipeline(pipeline())
    .build()
    .expect("valid session");

    with_deadline(Duration::from_secs(30), "faulty session drain", move || {
        let run = faulty.epoch(0);
        let outcomes: Vec<_> = run.stream(0).collect();
        let err = outcomes
            .last()
            .expect("the failure surfaces as a final item")
            .as_ref()
            .expect_err("the epoch cannot complete");
        match err {
            CoordlError::WorkerPanicked { stage, detail } => {
                assert_eq!(*stage, "fetch");
                assert!(
                    detail.contains("injected backend fault"),
                    "panic payload is carried through: {detail}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other}"),
        }
        assert!(
            err.to_string().contains("panicked"),
            "descriptive Display: {err}"
        );
        // Everything before the fault was delivered intact.
        for b in &outcomes[..outcomes.len() - 1] {
            assert!(b.is_ok());
        }
    });

    // A healthy session in the same process is completely unaffected.
    let healthy = Session::builder(
        store(120),
        SessionConfig {
            batch_size: 10,
            cache_capacity_bytes: 32 << 20,
            ..SessionConfig::default()
        },
    )
    .workers(3)
    .pipeline(pipeline())
    .build()
    .expect("valid session");
    let delivered: usize = healthy
        .epoch(0)
        .stream(0)
        .map(|b| b.expect("healthy epoch completes").len())
        .sum();
    assert_eq!(delivered, 120);
}

#[test]
fn panicking_worker_surfaces_as_a_typed_error_in_coordinated_mode() {
    let source = store(100);
    let session = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 10,
            cache_capacity_bytes: 32 << 20,
            take_timeout: Duration::from_millis(500), // fast failure detection
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Coordinated { jobs: 2 })
    .workers(2)
    .fetch_backend(Arc::new(PanickingBackend {
        source: Arc::clone(&source),
        panic_at: 50,
    }))
    .pipeline(pipeline())
    .build()
    .expect("valid session");

    with_deadline(
        Duration::from_secs(30),
        "coordinated fault drain",
        move || {
            let run = session.epoch(0);
            let mut saw_panic_error = false;
            for outcome in run.stream(0) {
                match outcome {
                    Ok(_) => continue,
                    Err(CoordlError::WorkerPanicked { detail, .. }) => {
                        assert!(detail.contains("injected backend fault"));
                        saw_panic_error = true;
                        break;
                    }
                    Err(other) => panic!("expected WorkerPanicked, got {other}"),
                }
            }
            assert!(saw_panic_error, "the panic reaches the consumer, typed");
        },
    );
}

/// Threads of this process, from /proc (Linux-only, like CI and the dev
/// container).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn repeated_sessions_join_all_worker_threads_and_leak_none() {
    let Some(_) = thread_count() else {
        eprintln!("skipping: /proc/self/status not available on this platform");
        return;
    };
    let run_batch = |rounds: usize| {
        for round in 0..rounds {
            // Mix the modes and tear some epochs down mid-stream: every
            // worker must be joined either way.
            let session = Session::builder(
                store(160),
                SessionConfig {
                    batch_size: 8,
                    cache_capacity_bytes: 32 << 20,
                    staging_window: 4,
                    take_timeout: Duration::from_secs(5),
                    ..SessionConfig::default()
                },
            )
            .mode(if round % 2 == 0 {
                Mode::Single
            } else {
                Mode::Coordinated { jobs: 2 }
            })
            .workers(3)
            .prefetch_depth(2)
            .pipeline(pipeline())
            .build()
            .expect("valid session");
            let run = session.epoch(0);
            if round % 3 == 0 {
                // Abandon mid-epoch: take one batch, then tear down.
                let mut stream = run.stream(0);
                let _ = stream.next();
                drop(stream);
            } else {
                // Drain every job to completion.
                let handles: Vec<_> = (0..session.num_jobs())
                    .map(|j| {
                        let stream = run.stream(j);
                        std::thread::spawn(move || {
                            for b in stream {
                                b.expect("epoch completes");
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("consumer");
                }
            }
            drop(run);
            drop(session);
        }
    };

    // Settle, then measure a baseline that already includes the test
    // harness's own threads.
    run_batch(3);
    let baseline = thread_count().expect("read above");

    run_batch(36);

    // Every session above spawned >= 4 threads, so a teardown leak is 100+
    // threads — far beyond this slack, which only absorbs sibling tests
    // running concurrently in this binary.  Poll: the last joins (and the
    // siblings) can trail by scheduler ticks.
    let slack = 24;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = thread_count().expect("read above");
        if now <= baseline + slack {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread count grew from {baseline} to {now}: session teardown \
             leaked worker threads"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn saturated_pipelines_still_deliver_exact_streams_under_churn() {
    // Tiny queues + many workers + concurrent coordinated consumers: the
    // adversarial shape for the staging machinery.  Everything must
    // still arrive exactly once, in order.
    let counter = Arc::new(AtomicU64::new(0));
    with_deadline(Duration::from_secs(60), "churn loop", {
        let counter = Arc::clone(&counter);
        move || {
            for _ in 0..4 {
                let session = Session::builder(
                    store(300),
                    SessionConfig {
                        batch_size: 4,
                        staging_window: 2,
                        cache_capacity_bytes: 32 << 20,
                        take_timeout: Duration::from_secs(10),
                        ..SessionConfig::default()
                    },
                )
                .mode(Mode::Coordinated { jobs: 3 })
                .workers(6)
                .prefetch_depth(1)
                .pipeline(pipeline())
                .build()
                .expect("valid session");
                let run = session.epoch(0);
                let handles: Vec<_> = (0..3)
                    .map(|j| {
                        let stream = run.stream(j);
                        std::thread::spawn(move || {
                            let mut indices = Vec::new();
                            for b in stream {
                                indices.push(b.expect("epoch completes").index);
                            }
                            indices
                        })
                    })
                    .collect();
                for h in handles {
                    let indices = h.join().expect("consumer");
                    assert_eq!(indices, (0..75).collect::<Vec<_>>(), "in order");
                    counter.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 12, "4 rounds x 3 jobs");
}

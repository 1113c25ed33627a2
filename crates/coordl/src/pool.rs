//! The process's prep pool: one set of threads that preps the plan
//! positions of every live sweep and reads the holes the sweeps' fetch
//! threads have not (see [`crate::executor`]).
//!
//! It starts with the first sweep, lives as long as the process and has
//! `std::thread::available_parallelism` threads, read once: the process
//! never runs more pool tasks at once than the host has cores, however
//! many sessions it runs.  Each sweep also keeps a cap of its own — its
//! staged positions and its tasks in flight number at most `workers +
//! fetch_threads` — so its ring and window sizes do not depend on the host.
//!
//! A pool thread looks at the live sweeps in turn, starting after the one
//! it served last, and takes the first task one has ([`Assembler::next`]):
//! prep a staged position whose cells all hold bytes, or read the holes
//! nobody has claimed of one that has some; with none, it waits on the
//! pool's condvar.  It never waits on one sweep's lane or sink, where it
//! would take a core from every other session, nor for a read another
//! thread claimed: a consumer that stalls stalls only its own sweep.
//! Backend I/O, in a read task, is the one wait a pool thread may meet,
//! and at most all but one of the pool's threads are in read tasks at
//! once, so a backend that hangs holds no more than that: the last thread
//! preps whatever position of any sweep already has all its bytes, and
//! each sweep's own fetch threads read the holes of its positions (with
//! one thread, the pool reads no holes at all).
//!
//! Whatever makes a task available is followed by a wake-up: a fetch
//! thread signals after each send and after it reads a partial's last
//! unclaimed hole, a consumer after each take, and a thread whose task is
//! done looks again before it waits.  A waker that finds no thread idle
//! skips the lock.  A pool thread's time in a prep task is prep busy, in a
//! read task prep stall; with nothing to take, it is idle and counts as
//! neither.
//!
//! A sweep's owner deregisters it before joining its fetch threads, which
//! hands back its assembler and with it the lane receivers; the pool
//! threads inside it finish their tasks and let go of it.

use crate::executor::{Assembler, PrepWorker, Sweep, Task};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The pool's state under one lock, and how many of its threads are idle.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a task may have become available.
    work: Condvar,
    /// Threads that found nothing to take, or are about to look a last
    /// time before they wait: readable without the lock.
    idle: AtomicUsize,
}

struct State {
    sweeps: Vec<Entry>,
    /// The sweep the next look starts at.
    next: usize,
    /// Threads in a read task.
    reading: usize,
    /// At most that many: one fewer than the pool's threads.
    readers: usize,
}

/// One live sweep.
struct Entry {
    sweep: Arc<Sweep>,
    assembler: Assembler,
    /// Its tasks in flight.
    tasks: usize,
}

/// The process's pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                sweeps: Vec::new(),
                next: 0,
                reading: 0,
                readers: threads - 1,
            }),
            work: Condvar::new(),
            idle: AtomicUsize::new(0),
        }));
        for _ in 0..threads {
            std::thread::Builder::new()
                .name("coordl-prep".into())
                .spawn(move || pool.serve())
                .expect("a prep pool thread starts");
        }
        pool
    })
}

/// Serve `sweep`, whose lanes `assembler` receives from.
pub(crate) fn register(sweep: Arc<Sweep>, assembler: Assembler) {
    let entry = Entry {
        sweep,
        assembler,
        tasks: 0,
    };
    pool().state.lock().sweeps.push(entry);
}

/// Stop serving the sweep at address `sweep` and hand back its assembler;
/// the pool threads inside it finish their tasks.
pub(crate) fn deregister(sweep: usize) -> Option<Assembler> {
    let mut state = pool().state.lock();
    let at = state
        .sweeps
        .iter()
        .position(|e| Arc::as_ptr(&e.sweep) as usize == sweep)?;
    Some(state.sweeps.remove(at).assembler)
}

/// Wake one idle pool thread, if one is: the caller may have made a task
/// available.
pub(crate) fn wake() {
    let pool = pool();
    // Pairs with the fence in `serve`: either this load sees the thread
    // that is about to wait, or that thread's last look sees what the
    // caller did before calling.
    fence(Ordering::SeqCst);
    if pool.idle.load(Ordering::Relaxed) > 0 {
        // Under the lock: a thread holds it from its last look until it
        // waits, so the signal cannot fall in between.
        let _state = pool.state.lock();
        pool.work.notify_one();
    }
}

impl State {
    /// Take the next task of some sweep, trying each sweep once, in turn.
    fn take(&mut self, prep: &mut PrepWorker) -> Option<(Arc<Sweep>, Task)> {
        let may_read = self.reading < self.readers;
        let n = self.sweeps.len();
        for k in 0..n {
            let at = (self.next + k) % n;
            let entry = &mut self.sweeps[at];
            if let Some(task) = entry
                .assembler
                .next(&entry.sweep, prep, entry.tasks, may_read)
            {
                entry.tasks += 1;
                self.reading += usize::from(task == Task::Read);
                self.next = at + 1;
                return Some((Arc::clone(&entry.sweep), task));
            }
        }
        None
    }

    /// A task of `sweep` that [`take`](Self::take) handed out is done (the
    /// sweep may have been deregistered meanwhile).
    fn done(&mut self, sweep: &Arc<Sweep>, task: Task) {
        self.reading -= usize::from(task == Task::Read);
        let entry = self
            .sweeps
            .iter_mut()
            .find(|e| Arc::ptr_eq(&e.sweep, sweep));
        if let Some(entry) = entry {
            entry.tasks -= 1;
        }
    }
}

impl Pool {
    /// A pool thread: take a task, run it, and again; wait while there is
    /// none.
    fn serve(&self) {
        let mut prep = PrepWorker::default();
        let mut state = self.state.lock();
        let mut idle = false;
        loop {
            if let Some((sweep, task)) = state.take(&mut prep) {
                self.idle.fetch_sub(usize::from(idle), Ordering::Relaxed);
                idle = false;
                drop(state);
                sweep.work(task, &mut prep);
                state = self.state.lock();
                state.done(&sweep, task);
            } else if !idle {
                // Counted idle before a last look: a waker that comes
                // after it sees the count and signals.
                self.idle.fetch_add(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                idle = true;
            } else {
                self.work.wait(&mut state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Entry, State};
    use crate::executor::tests::{read_one_hole, recording, staged, staged_sweep};
    use crate::executor::{PrepWorker, Task};
    use crate::{CoordlError, DirectBackend, FetchBackend, Session, SessionConfig};
    use dataset::{DataSource, DatasetSpec, ItemId, SyntheticItemStore};
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;
    use std::time::Duration;

    fn store(items: u64) -> Arc<SyntheticItemStore> {
        let spec = DatasetSpec::new("pool", items, 256, 0.2, 4.0);
        Arc::new(SyntheticItemStore::new(spec, 13))
    }

    fn config() -> SessionConfig {
        SessionConfig {
            batch_size: 8,
            cache_capacity_bytes: 1 << 22,
            ..SessionConfig::default()
        }
    }

    /// A pool that serves one sweep of `positions` one-item positions,
    /// holes where `hole` says, with `tasks` in flight of at most `cap`
    /// and `reading` of its `readers` in read tasks.
    fn one_sweep(
        positions: usize,
        (tasks, cap): (usize, usize),
        hole: fn(ItemId) -> bool,
        (reading, readers): (usize, usize),
    ) -> (State, crate::executor::Ring) {
        let sink = recording(usize::MAX);
        let (sweep, assembler, ring) = staged_sweep(&Arc::default(), &sink, positions, cap, hole);
        let entry = Entry {
            sweep,
            assembler,
            tasks,
        };
        let state = State {
            sweeps: vec![entry],
            next: 0,
            reading,
            readers,
        };
        (state, ring)
    }

    /// The task `state` hands out next, its partials let go of.
    fn take(state: &mut State) -> Option<Task> {
        let mut prep = PrepWorker::default();
        state.take(&mut prep).map(|(_, task)| task)
    }

    #[test]
    fn a_sweep_has_at_most_workers_plus_fetch_threads_positions_in_prep() {
        // Every position has its bytes and the sink has room: only the
        // sweep's cap holds the pool back, on any host.
        let (mut state, _ring) = one_sweep(4, (2, 2), |_| false, (0, 1));
        assert_eq!(take(&mut state), None, "two in prep, cap two");
        state.sweeps[0].tasks = 1;
        assert_eq!(take(&mut state), Some(Task::Prep(0)), "room under the cap");
        assert_eq!(state.sweeps[0].tasks, 2);
        assert_eq!(take(&mut state), None, "at the cap again");
        let sweep = Arc::clone(&state.sweeps[0].sweep);
        state.done(&sweep, Task::Prep(0));
        assert_eq!(take(&mut state), Some(Task::Prep(1)));
        // Staged positions count against the cap as well: with no reader
        // free, two positions with holes fill it, and the rest stay in the
        // lane.
        let (mut state, _ring) = one_sweep(4, (0, 2), |_| true, (1, 1));
        assert_eq!(take(&mut state), None);
        assert_eq!(staged(&state.sweeps[0].assembler), 2);
    }

    #[test]
    fn a_position_with_holes_waits_for_a_reader_or_its_fetch_thread() {
        // Both positions are holes and every reader is taken: the pool
        // stages them and hands out no task, and their fetch thread may
        // still read a hole.  Once it has, that position is prepped.  A
        // freed reader takes a read task on the other, whose position is
        // prepped only once the task is done.
        let (mut state, ring) = one_sweep(2, (0, 4), |_| true, (1, 1));
        assert_eq!(take(&mut state), None, "no reader free");
        assert_eq!(staged(&state.sweeps[0].assembler), 2);
        let sweep = Arc::clone(&state.sweeps[0].sweep);
        assert!(read_one_hole(&sweep, &ring), "still the fetch thread's");
        assert_eq!(take(&mut state), Some(Task::Prep(0)), "no hole left");
        assert_eq!(take(&mut state), None, "position 1 is a hole");
        state.reading = 0;
        let mut prep = PrepWorker::default();
        let (_, task) = state.take(&mut prep).expect("a reader is free");
        assert_eq!((task, state.reading), (Task::Read, 1));
        assert_eq!(take(&mut state), None, "nothing to prep, no reader free");
        sweep.work(task, &mut prep);
        state.done(&sweep, task);
        assert_eq!(take(&mut state), Some(Task::Prep(1)));
    }

    /// A backend whose reads wait until [`Gated::open`].
    struct Gated {
        inner: DirectBackend,
        gate: (Mutex<bool>, Condvar),
    }

    impl Gated {
        fn open(&self) {
            *self.gate.0.lock() = true;
            self.gate.1.notify_all();
        }
    }

    impl FetchBackend for Gated {
        fn num_items(&self) -> u64 {
            self.inner.num_items()
        }
        fn item_bytes(&self, item: ItemId) -> u64 {
            self.inner.item_bytes(item)
        }
        fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
            let mut open = self.gate.0.lock();
            while !*open {
                self.gate.1.wait(&mut open);
            }
            drop(open);
            self.inner.read(item)
        }
        fn name(&self) -> &'static str {
            "gated"
        }
    }

    /// Run two epochs of a session over 200 items on another thread:
    /// `Ok(400)` if they were delivered within 60 s.
    fn two_epochs_of_another_session() -> Result<usize, std::sync::mpsc::RecvTimeoutError> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let other = Session::builder(store(200), config()).build().unwrap();
            let delivered: usize = (0..2)
                .map(|epoch| {
                    let run = other.epoch(epoch);
                    let stream = run.stream(0);
                    stream.map(|mb| mb.unwrap().len()).sum::<usize>()
                })
                .sum();
            let _ = done_tx.send(delivered);
        });
        done_rx.recv_timeout(Duration::from_secs(60))
    }

    #[test]
    fn a_stalled_session_starves_no_other_session_on_the_prep_pool() {
        // One session's consumer takes one batch and never asks again; a
        // second session in the same process still runs two whole epochs.
        // The pool takes no position the stalled staging window has no
        // room for, so none of its threads waits on that session.
        let stalled = Session::builder(store(400), config()).build().unwrap();
        let run = stalled.epoch(0);
        let mut held = run.stream(0);
        assert!(held.next().unwrap().is_ok());
        let delivered = two_epochs_of_another_session();
        assert_eq!(delivered, Ok(400), "two epochs of 200 items within 60 s");
        assert!(held.next().unwrap().is_ok(), "the stalled stream resumes");
    }

    #[test]
    fn a_hung_backend_starves_no_other_session_on_the_prep_pool() {
        // A MinIO tier that keeps nothing makes every miss a hole, and
        // every backend read waits at a gate: the session's fetch thread
        // and as many pool threads as may read hang in it.  A second
        // session in the same process still runs two whole epochs.
        let source: Arc<dyn DataSource> = store(400);
        let backend = Arc::new(Gated {
            inner: DirectBackend::new(Arc::clone(&source)),
            gate: Default::default(),
        });
        let hung = Session::builder(
            source,
            SessionConfig {
                cache_capacity_bytes: 1,
                ..config()
            },
        )
        .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
        .build()
        .unwrap();
        let run = hung.epoch(0);
        let mut stream = run.stream(0);
        let delivered = two_epochs_of_another_session();
        backend.open();
        assert_eq!(delivered, Ok(400), "two epochs of 200 items within 60 s");
        assert!(stream.next().unwrap().is_ok(), "the hung session resumes");
    }
}

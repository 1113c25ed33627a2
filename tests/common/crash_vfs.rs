//! A [`Vfs`] double for durability tests: a [`MemVfs`] that remembers what
//! a power cut would leave behind, and that can be told to fail.
//!
//! **The crash model.**  Per file it keeps the image as of the file's last
//! `sync` and the writes issued since; per directory tree, the creations and
//! removals since the last `sync` of *any* file (a barrier commits the
//! filesystem's journal, names included).  [`CrashVfs::crash`] yields a
//! fresh `MemVfs` holding, for a seeded *prefix* of those name changes, each
//! file's synced image plus a seeded *subset* of its later writes, the last
//! of them cut at a seeded byte.  Nothing that was never synced is promised
//! to survive, and nothing that was synced is lost — which is exactly what a
//! store's commit protocol may rely on.
//!
//! **Faults.**  [`CrashVfs::failing`] makes the N-th mutation (write, sync
//! or remove) fail — once, or from then on as a full disk would; a failing
//! write lands half of its bytes first.

#![allow(dead_code)] // each test target uses its own part

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use vfs::{FileHandle, MemVfs, Vfs, VfsError, VfsStats};

/// Which mutations (writes, syncs and removes, counted from 0) fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The N-th alone: a transient error.
    Only(u64),
    /// The N-th and every one after it: a disk that filled up.
    From(u64),
}

/// What a power cut at some instant left on disk.
pub struct Crash {
    pub disk: MemVfs,
    /// Completed syncs of files named `MANIFEST*` at that instant: a store's
    /// commits.
    pub manifest_syncs: u64,
}

/// One incarnation of a file (a removed and recreated path is two).
struct Object {
    synced: Vec<u8>,
    unsynced: Vec<(u64, Vec<u8>)>,
}

enum NameChange {
    Create(String, usize),
    Remove(String),
}

#[derive(Default)]
struct State {
    objects: Vec<Object>,
    handles: HashMap<FileHandle, usize>,
    /// The namespace the running process sees.
    names: BTreeMap<String, usize>,
    /// The namespace as of the last sync of any file, and the changes since.
    durable: BTreeMap<String, usize>,
    journal: Vec<NameChange>,
    mutations: u64,
    manifest_syncs: u64,
    fault: Option<Fault>,
    /// Seed of the crash images captured before every mutation, when armed.
    capture: Option<u64>,
    captured: Vec<Crash>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn overlay(image: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if image.is_empty() {
        *image = vec![0; end]; // zeroed by the allocator, also in a debug build
    } else if image.len() < end {
        image.resize(end, 0);
    }
    image[offset as usize..end].copy_from_slice(data);
}

impl State {
    fn crash(&self, seed: u64) -> Crash {
        let mut rng = seed;
        let mut names = self.durable.clone();
        let applied = splitmix(&mut rng) as usize % (self.journal.len() + 1);
        for change in &self.journal[..applied] {
            match change {
                NameChange::Create(path, object) => names.insert(path.clone(), *object),
                NameChange::Remove(path) => names.remove(path),
            };
        }
        let disk = MemVfs::new();
        for (path, object) in names {
            let object = &self.objects[object];
            let mut image = object.synced.clone();
            let reached: Vec<&(u64, Vec<u8>)> = object
                .unsynced
                .iter()
                .filter(|_| splitmix(&mut rng) & 1 == 1)
                .collect();
            for (nth, (offset, data)) in reached.iter().enumerate() {
                let cut = match nth + 1 == reached.len() {
                    true => splitmix(&mut rng) as usize % (data.len() + 1),
                    false => data.len(),
                };
                overlay(&mut image, *offset, &data[..cut]);
            }
            let file = disk.open(&path, true).expect("crash image path");
            disk.write_at(file, 0, &image).expect("crash image write");
            disk.close(file).expect("crash image close");
        }
        Crash {
            disk,
            manifest_syncs: self.manifest_syncs,
        }
    }

    /// Count one mutation: capture the crash before it when armed, and say
    /// whether it is to fail.
    fn mutation(&mut self, path: &str) -> Result<(), VfsError> {
        if let Some(seed) = self.capture {
            let crash = self.crash(seed ^ self.mutations.wrapping_mul(0x9E37_79B9));
            self.captured.push(crash);
        }
        let nth = self.mutations;
        self.mutations += 1;
        match self.fault {
            Some(Fault::Only(n)) if nth == n => {}
            Some(Fault::From(n)) if nth >= n => {}
            _ => return Ok(()),
        }
        Err(VfsError::Io {
            path: path.to_string(),
            detail: format!("injected fault at mutation {nth}: no space left on device"),
        })
    }

    fn path_of(&self, object: usize) -> String {
        let named = self.names.iter().find(|(_, o)| **o == object);
        named.map_or_else(|| "<unlinked>".to_string(), |(path, _)| path.clone())
    }
}

/// See the [module docs](self).
pub struct CrashVfs {
    live: Arc<MemVfs>,
    state: Mutex<State>,
}

impl CrashVfs {
    pub fn new() -> Self {
        CrashVfs {
            live: Arc::new(MemVfs::new()),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no CrashVfs call panics")
    }

    /// A filesystem whose mutations fail as `fault` says.
    pub fn failing(fault: Fault) -> Self {
        let vfs = CrashVfs::new();
        vfs.state().fault = Some(fault);
        vfs
    }

    /// What a power cut right now would leave behind.
    pub fn crash(&self, seed: u64) -> Crash {
        self.state().crash(seed)
    }

    /// From now on, also capture the crash before every mutation.
    pub fn capture_crashes(&self, seed: u64) {
        self.state().capture = Some(seed);
    }

    /// The crashes captured since the last call, oldest first.
    pub fn take_crashes(&self) -> Vec<Crash> {
        std::mem::take(&mut self.state().captured)
    }

    /// Mutations issued so far, failed ones included.
    pub fn mutations(&self) -> u64 {
        self.state().mutations
    }

    /// Everything the process wrote, synced or not: the disk of a machine
    /// that never lost power, without the faults.
    pub fn live(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.live) as Arc<dyn Vfs>
    }
}

impl Vfs for CrashVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        let mut state = self.state();
        let handle = self.live.open(path, create)?;
        let object = match state.names.get(path) {
            Some(&object) => object,
            None => {
                state.objects.push(Object {
                    synced: Vec::new(),
                    unsynced: Vec::new(),
                });
                let object = state.objects.len() - 1;
                state.names.insert(path.to_string(), object);
                state
                    .journal
                    .push(NameChange::Create(path.to_string(), object));
                object
            }
        };
        state.handles.insert(handle, object);
        Ok(handle)
    }

    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.live.read_at(file, offset, len)
    }

    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let mut state = self.state();
        let object = *state.handles.get(&file).ok_or(VfsError::BadHandle)?;
        let path = state.path_of(object);
        let verdict = state.mutation(&path);
        // A failing write gets half of its bytes out first.
        let data = match verdict {
            Ok(()) => data,
            Err(_) => &data[..data.len() / 2],
        };
        self.live.write_at(file, offset, data)?;
        state.objects[object].unsynced.push((offset, data.to_vec()));
        verdict
    }

    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        let mut state = self.state();
        let object = *state.handles.get(&file).ok_or(VfsError::BadHandle)?;
        let path = state.path_of(object);
        state.mutation(&path)?;
        self.live.sync(file)?;
        let Object { synced, unsynced } = &mut state.objects[object];
        for (offset, data) in unsynced.drain(..) {
            overlay(synced, offset, &data);
        }
        let State {
            durable, journal, ..
        } = &mut *state;
        for change in journal.drain(..) {
            match change {
                NameChange::Create(path, object) => durable.insert(path, object),
                NameChange::Remove(path) => durable.remove(&path),
            };
        }
        if path.contains("MANIFEST") {
            state.manifest_syncs += 1;
        }
        Ok(())
    }

    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        self.live.len(file)
    }

    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        self.state().handles.remove(&file);
        self.live.close(file)
    }

    fn exists(&self, path: &str) -> bool {
        self.live.exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        let mut state = self.state();
        if !state.names.contains_key(path) {
            return self.live.remove(path); // its NotFound, or InvalidPath
        }
        state.mutation(path)?;
        self.live.remove(path)?;
        state.names.remove(path);
        state.journal.push(NameChange::Remove(path.to_string()));
        Ok(())
    }

    fn name(&self) -> &'static str {
        "crash"
    }

    fn stats(&self) -> VfsStats {
        self.live.stats()
    }
}

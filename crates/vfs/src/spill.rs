//! [`SpillStore`]: a small log-structured key→payload store for persistent
//! cache tiers.
//!
//! A spill directory is a **cache**: losing it costs re-reading the dataset,
//! never correctness, so the format is replaced rather than migrated when it
//! changes (a directory in another format fails the record check below and
//! the store starts empty over it).
//!
//! # On-disk format
//!
//! * `seg-<n>.dat` — data segments of raw payload bytes.  A segment is
//!   created at its full length ([`SpillStore::SEGMENT_BYTES`]; a larger
//!   payload gets a segment of its own size) by one write and never changes
//!   length again, so a [`MemVfs`](crate::MemVfs) file is allocated once and
//!   an [`OsVfs`](crate::OsVfs) barrier never journals a size change.
//!   Segment numbers only grow; a segment whose entries all died is *reused
//!   in place* under its old number.
//! * `MANIFEST` / `MANIFEST.1` — the two slots manifest generations alternate
//!   between.  A generation is one line per record, each ending in the
//!   checksum of the rest of the line: first a checkpoint — `+ key seg off
//!   len` for every entry live when it was taken, then the end marker
//!   `= generation next-segment count` — and after it the records appended
//!   since (`+ key seg off len`, `- key`).  [`SpillStore::open`] takes the
//!   newest generation whose end marker verifies.
//!
//! # Commit protocol
//!
//! [`write`](SpillStore::write) issues one positional write of the payload
//! at its final offset in the head segment and queues its record in memory;
//! [`remove`](SpillStore::remove) only queues a tombstone.  A **commit**
//! makes the queue durable as a group: sync the head segment, *then* append
//! the queued records in one write (or, when the generation holds about
//! twice the live records or was found torn, write the next generation in
//! their place), *then* sync the manifest.  So no manifest record exists
//! before the bytes it names are durable — the invariant the per-key-file
//! store paid two barriers per item for, kept per group.  Commits happen when
//! [`SpillStore::GROUP_BYTES`] of payload are unsynced, before a head with
//! unsynced bytes is sealed, at [`flush`](SpillStore::flush) and on drop: a
//! function of the bytes written and of `flush` calls only — no timer, no
//! thread — so the I/O a workload issues repeats exactly.
//!
//! # What a crash can lose
//!
//! Everything up to the last commit survives exactly.  A crash loses at most
//! the open group — writes and removes since that commit, under
//! [`SpillStore::GROUP_BYTES`] of payload — and recovers the store as it was
//! at some point of its own history no earlier than that commit: never a
//! wrong or short payload, never a key whose removal had been committed.
//! A cache tier that issues its ops from a write-behind thread (as
//! `coordl::TieredByteCache` does) loses, on top of that, the ops still
//! queued for its writer — up to the byte bound the tier states (the
//! payloads of `(16 + 1 + shards) × 32` ops) — and its `flush` waits for
//! the writer, so a commit it returned from is as durable as one made here.
//! `open` does not fail on torn state: it skips every record whose checksum
//! does not verify (anywhere, not only at the tail) and every `+` naming a
//! missing segment or a range past its end — so a filesystem that loses a
//! new segment's directory entry ([`Vfs`] has no directory barrier) costs
//! the entries in it, not the store.
//!
//! # Why reuse waits for the commit
//!
//! A segment is reclaimed — kept as a spare for the next head, or removed —
//! only at the end of a commit, when every kill of its entries is durable.
//! Earlier, a durable `+` whose tombstone is still queued would, after a
//! crash, name bytes a newer payload had overwritten.
//!
//! Segment files in use are held to twice the live bytes plus one segment:
//! past that, the emptiest segment's live entries move to the head
//! (compaction: one read and one write per survivor), which frees it.
//! Spares are kept up to two segments beyond the same bound — the head may
//! roll once between two commits, and a store sitting exactly at the bound,
//! where LRU churn leaves it, must not remove a spare only to create it
//! again.  So the directory never outgrows twice what it holds by more than
//! four segments.
//!
//! `open` modifies nothing: leftovers of a crash (segments no record names,
//! the older manifest slot) are adopted as spares or cleaned up by the first
//! commits after it.

use crate::{FileHandle, Vfs, VfsError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A generation is replaced by a checkpoint once it holds more than twice
/// the live records plus this slack (which keeps tiny stores from
/// checkpointing every few records).
const CHECKPOINT_SLACK: u64 = 32;

/// Where a live payload sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    seg: u64,
    off: u64,
    len: u64,
}

/// A segment file holding at least one live entry, or the head.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// File length, fixed at creation.
    len: u64,
    live_bytes: u64,
    live_entries: u64,
}

/// The segment new payloads are appended to: the only open segment file and
/// the only one with unsynced bytes.
struct Head {
    seg: u64,
    file: FileHandle,
    /// Offset of the next payload.
    end: u64,
}

/// The active manifest generation, open for appends.
struct Log {
    file: FileHandle,
    generation: u64,
    end: u64,
    /// Records in the file, dead ones included.
    records: u64,
    /// Appending is safe: no torn or foreign line was seen when the
    /// generation was loaded, and no failed checkpoint sits in the other
    /// slot.
    clean: bool,
}

/// One manifest line, checksum verified.
enum Record {
    Put(u64, Entry),
    Remove(u64),
    End {
        generation: u64,
        next_seg: u64,
        count: u64,
    },
}

/// FNV-1a over the record body.
fn checksum(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append `body` and its checksum as one line.
fn push_record(log: &mut String, body: std::fmt::Arguments<'_>) {
    let start = log.len();
    log.write_fmt(body).expect("writing to a String");
    let sum = checksum(&log[start..]);
    writeln!(log, " {sum:016x}").expect("writing to a String");
}

fn push_put(log: &mut String, key: u64, entry: Entry) {
    let Entry { seg, off, len } = entry;
    push_record(log, format_args!("+ {key} {seg} {off} {len}"));
}

fn parse_record(line: &str) -> Option<Record> {
    let (body, sum) = line.rsplit_once(' ')?;
    if sum.len() != 16 || u64::from_str_radix(sum, 16).ok()? != checksum(body) {
        return None;
    }
    let mut fields = body.split(' ');
    let tag = fields.next()?;
    let mut number = || fields.next()?.parse::<u64>().ok();
    let record = match tag {
        "+" => Record::Put(
            number()?,
            Entry {
                seg: number()?,
                off: number()?,
                len: number()?,
            },
        ),
        "-" => Record::Remove(number()?),
        "=" => Record::End {
            generation: number()?,
            next_seg: number()?,
            count: number()?,
        },
        _ => return None,
    };
    fields.next().is_none().then_some(record)
}

/// What one manifest slot replays to.
struct Replayed {
    log: Log,
    next_seg: u64,
    entries: BTreeMap<u64, Entry>,
}

/// A durable map from `u64` keys to byte payloads under one VFS directory
/// (the format and the commit protocol are described at the top of this
/// type's source file and, in short, in the [crate docs](crate)).
///
/// **Durability contract.**  Everything written or removed before a
/// [`flush`](SpillStore::flush) that returned `Ok`, and everything before a
/// clean drop, survives a restart exactly.  A crash loses at most the open
/// group (under [`SpillStore::GROUP_BYTES`] of payload) and reopens to a
/// state the store was in at or after its last commit: never a wrong or
/// short payload, never an entry whose removal was committed.
pub struct SpillStore {
    vfs: Arc<dyn Vfs>,
    dir: String,
    entries: BTreeMap<u64, Entry>,
    segments: BTreeMap<u64, Segment>,
    head: Option<Head>,
    /// Reclaimed segment files awaiting reuse as the head.
    spares: Vec<u64>,
    next_seg: u64,
    live_bytes: u64,
    /// Bytes of the files in `segments` (spares not included).
    segment_bytes: u64,
    /// Payload bytes written to the head since its last sync.
    unsynced: u64,
    /// Records of the open group, encoded.
    pending: String,
    pending_records: u64,
    log: Option<Log>,
}

impl SpillStore {
    /// Length of a data segment file (a larger payload gets a segment of its
    /// own size).
    pub const SEGMENT_BYTES: u64 = 1 << 20;

    /// Unsynced payload bytes that force a commit: the most a crash loses.
    pub const GROUP_BYTES: u64 = 1 << 20;

    /// Open the store at `dir`, replaying the newest intact manifest
    /// generation (an empty or foreign directory yields an empty store).
    ///
    /// Never fails on torn state, only on I/O errors: records that do not
    /// verify are skipped, and so is every entry whose segment is missing or
    /// shorter than the range the record names — a crash that lost a
    /// segment's directory entry makes the store colder, never wrong.
    /// Nothing is written or removed here.
    pub fn open(vfs: Arc<dyn Vfs>, dir: &str) -> Result<Self, VfsError> {
        let mut store = SpillStore {
            vfs,
            dir: dir.to_string(),
            entries: BTreeMap::new(),
            segments: BTreeMap::new(),
            head: None,
            spares: Vec::new(),
            next_seg: 0,
            live_bytes: 0,
            segment_bytes: 0,
            unsynced: 0,
            pending: String::new(),
            pending_records: 0,
            log: None,
        };
        // The newest generation whose end marker verifies; the other slot's
        // file goes when the next checkpoint takes its name.
        let mut newest: Option<Replayed> = None;
        for parity in 0..2 {
            let Some(replayed) = store.replay(parity)? else {
                continue;
            };
            let stale = match &newest {
                Some(best) if best.log.generation > replayed.log.generation => Some(replayed),
                _ => newest.replace(replayed),
            };
            if let Some(stale) = stale {
                store.vfs.close(stale.log.file)?;
            }
        }
        let Some(replayed) = newest else {
            return Ok(store);
        };
        store.log = Some(replayed.log);
        store.next_seg = replayed.next_seg;
        // Segment lengths by number, `None` for a missing file.
        let mut lens: BTreeMap<u64, Option<u64>> = BTreeMap::new();
        for (key, entry) in replayed.entries {
            store.next_seg = store.next_seg.max(entry.seg.saturating_add(1));
            let len = match lens.get(&entry.seg) {
                Some(&len) => len,
                None => {
                    let len = store.segment_len(entry.seg)?;
                    lens.insert(entry.seg, len);
                    len
                }
            };
            let covered = |len| {
                entry
                    .off
                    .checked_add(entry.len)
                    .is_some_and(|end| end <= len)
            };
            if let Some(len) = len.filter(|&len| covered(len)) {
                store.segments.entry(entry.seg).or_insert(Segment {
                    len,
                    live_bytes: 0,
                    live_entries: 0,
                });
                store.set_entry(key, Some(entry));
            }
        }
        store.segment_bytes = store.segments.values().map(|s| s.len).sum();
        // Segment files no live entry names — spares of the previous run, a
        // head created after its last commit — are this run's spares.
        while store.vfs.exists(&store.segment_path(store.next_seg)) {
            store.next_seg += 1;
        }
        for seg in 0..store.next_seg {
            if !store.segments.contains_key(&seg) && store.vfs.exists(&store.segment_path(seg)) {
                store.spares.push(seg);
            }
        }
        Ok(store)
    }

    fn manifest_path(&self, generation: u64) -> String {
        match generation % 2 {
            0 => format!("{}/MANIFEST", self.dir),
            _ => format!("{}/MANIFEST.1", self.dir),
        }
    }

    fn segment_path(&self, seg: u64) -> String {
        format!("{}/seg-{seg}.dat", self.dir)
    }

    /// Replay the manifest slot of generations of `parity`: `None` when the
    /// file is missing or its checkpoint does not verify.
    fn replay(&self, parity: u64) -> Result<Option<Replayed>, VfsError> {
        let file = match self.vfs.open(&self.manifest_path(parity), false) {
            Ok(file) => file,
            Err(VfsError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let read = self
            .vfs
            .len(file)
            .and_then(|end| Ok((end, self.vfs.read_at(file, 0, end as usize)?)));
        let (end, bytes) = match read {
            Ok(read) => read,
            Err(e) => {
                let _ = self.vfs.close(file);
                return Err(e);
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.split_terminator('\n');
        let mut entries = BTreeMap::new();
        // The checkpoint: exactly `count` verified records, then the marker.
        let mut records = 0u64;
        let header = lines.by_ref().find_map(|line| match parse_record(line) {
            Some(Record::Put(key, entry)) => {
                entries.insert(key, entry);
                records += 1;
                None
            }
            Some(Record::End {
                generation,
                next_seg,
                count,
            }) => Some((generation, next_seg, count)),
            // A tombstone or a torn line: the count below will not match.
            Some(Record::Remove(_)) | None => None,
        });
        let Some((generation, next_seg, count)) = header else {
            self.vfs.close(file)?;
            return Ok(None);
        };
        if count != records || generation % 2 != parity {
            self.vfs.close(file)?;
            return Ok(None);
        }
        // The tail: whatever verifies, in order.
        let mut clean = text.ends_with('\n');
        for line in lines {
            match parse_record(line) {
                Some(Record::Put(key, entry)) => {
                    entries.insert(key, entry);
                }
                Some(Record::Remove(key)) => {
                    entries.remove(&key);
                }
                Some(Record::End { .. }) | None => {
                    clean = false;
                    continue;
                }
            }
            records += 1;
        }
        Ok(Some(Replayed {
            log: Log {
                file,
                generation,
                end,
                records,
                clean,
            },
            next_seg,
            entries,
        }))
    }

    /// Length of segment `seg`'s file, `None` when it is missing.
    fn segment_len(&self, seg: u64) -> Result<Option<u64>, VfsError> {
        match self.vfs.open(&self.segment_path(seg), false) {
            Ok(file) => {
                let len = self.vfs.len(file)?;
                self.vfs.close(file)?;
                Ok(Some(len))
            }
            Err(VfsError::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Point `key` at `entry` (or at nothing), keeping the per-segment and
    /// total live counts.
    fn set_entry(&mut self, key: u64, entry: Option<Entry>) {
        let old = match entry {
            Some(entry) => {
                let segment = self
                    .segments
                    .get_mut(&entry.seg)
                    .expect("an entry's segment is tracked");
                segment.live_bytes += entry.len;
                segment.live_entries += 1;
                self.live_bytes += entry.len;
                self.entries.insert(key, entry)
            }
            None => self.entries.remove(&key),
        };
        if let Some(old) = old {
            let segment = self
                .segments
                .get_mut(&old.seg)
                .expect("an entry's segment is tracked");
            segment.live_bytes -= old.len;
            segment.live_entries -= 1;
            self.live_bytes -= old.len;
        }
    }

    /// Keys currently resident, with their payload lengths, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&key, entry)| (key, entry.len))
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Store `bytes` under `key`, superseding what it held: one write of the
    /// payload into the head segment, durable with the next commit (which
    /// this call makes when the head is full or
    /// [`SpillStore::GROUP_BYTES`] are unsynced).
    pub fn write(&mut self, key: u64, bytes: &[u8]) -> Result<(), VfsError> {
        let len = bytes.len() as u64;
        if !self.head_fits(len) {
            // Compaction looks at the segments before another is taken
            // (it just did if the head was committed full).
            if self.unsynced > 0 {
                self.flush()?;
            }
            self.roll(len)?;
        }
        self.append(key, bytes)?;
        if self.unsynced >= Self::GROUP_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Read the payload stored under `key`.
    ///
    /// The segment must return *exactly* the recorded byte count: a file
    /// that shrank behind the store's back is a typed [`VfsError::Io`],
    /// never a silently served prefix.
    pub fn read(&self, key: u64) -> Result<Vec<u8>, VfsError> {
        let entry = *self
            .entries
            .get(&key)
            .ok_or_else(|| VfsError::NotFound(format!("{}/key-{key}", self.dir)))?;
        let file = self.vfs.open(&self.segment_path(entry.seg), false)?;
        let read = self.read_entry(file, entry);
        self.vfs.close(file)?;
        read
    }

    fn read_entry(&self, file: FileHandle, entry: Entry) -> Result<Vec<u8>, VfsError> {
        let bytes = self.vfs.read_at(file, entry.off, entry.len as usize)?;
        if bytes.len() as u64 != entry.len {
            return Err(VfsError::Io {
                path: self.segment_path(entry.seg),
                detail: format!(
                    "truncated payload: expected {} bytes at offset {}, got {}",
                    entry.len,
                    entry.off,
                    bytes.len()
                ),
            });
        }
        Ok(bytes)
    }

    /// Drop `key` from the store (no-op when absent): a tombstone queued for
    /// the next commit.
    pub fn remove(&mut self, key: u64) -> Result<(), VfsError> {
        if self.entries.contains_key(&key) {
            push_record(&mut self.pending, format_args!("- {key}"));
            self.pending_records += 1;
            self.set_entry(key, None);
        }
        Ok(())
    }

    /// The VFS this store writes through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The directory this store owns.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// Segment files in use may hold this much before sparse ones are
    /// compacted (spares are kept up to two segments beyond it).
    fn segment_budget(&self) -> u64 {
        2 * self.live_bytes + Self::SEGMENT_BYTES
    }

    fn head_fits(&self, len: u64) -> bool {
        self.head
            .as_ref()
            .is_some_and(|head| head.end + len <= self.segments[&head.seg].len)
    }

    /// Write `bytes` at the head, which has room for them, and queue the
    /// record.
    fn append(&mut self, key: u64, bytes: &[u8]) -> Result<(), VfsError> {
        let len = bytes.len() as u64;
        let head = self.head.as_mut().expect("the caller made room");
        self.vfs.write_at(head.file, head.end, bytes)?;
        let entry = Entry {
            seg: head.seg,
            off: head.end,
            len,
        };
        head.end += len;
        self.unsynced += len;
        push_put(&mut self.pending, key, entry);
        self.pending_records += 1;
        self.set_entry(key, Some(entry));
        Ok(())
    }

    /// Seal the head, committed, and start a new one with room for `need`
    /// bytes: a spare when one fits, a new file otherwise.
    fn roll(&mut self, need: u64) -> Result<(), VfsError> {
        // Only the head may hold unsynced bytes.  Tombstones queued since
        // its last commit can wait for the next group.
        if self.unsynced > 0 {
            self.commit_group()?;
        }
        if let Some(head) = self.head.take() {
            self.vfs.close(head.file)?;
        }
        let len = need.max(Self::SEGMENT_BYTES);
        let reused = if len == Self::SEGMENT_BYTES {
            self.take_spare()?
        } else {
            None
        };
        let (seg, file) = match reused {
            Some(spare) => spare,
            None => {
                let seg = self.next_seg;
                let file = self.vfs.open(&self.segment_path(seg), true)?;
                // Full length from the first write on: the file never grows.
                if let Err(e) = self.vfs.write_at(file, len - 1, &[0]) {
                    let _ = self.vfs.close(file);
                    return Err(e);
                }
                self.next_seg += 1;
                (seg, file)
            }
        };
        let segment = Segment {
            len,
            live_bytes: 0,
            live_entries: 0,
        };
        self.segments.insert(seg, segment);
        self.segment_bytes += len;
        self.head = Some(Head { seg, file, end: 0 });
        Ok(())
    }

    /// Open a spare segment for reuse, discarding spares that are gone or
    /// (leftovers of a crash) not of segment length.
    fn take_spare(&mut self) -> Result<Option<(u64, FileHandle)>, VfsError> {
        while let Some(seg) = self.spares.pop() {
            let path = self.segment_path(seg);
            let file = match self.vfs.open(&path, false) {
                Ok(file) => file,
                Err(VfsError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            let len = self.vfs.len(file);
            if len == Ok(Self::SEGMENT_BYTES) {
                return Ok(Some((seg, file)));
            }
            self.vfs.close(file)?;
            len?;
            self.vfs.remove(&path)?;
        }
        Ok(None)
    }

    /// Remove a file that may already be gone.
    fn remove_file(&self, path: &str) -> Result<(), VfsError> {
        match self.vfs.remove(path) {
            Ok(()) | Err(VfsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The durability step: head synced, then the queued records (or a
    /// checkpoint in their place), then the manifest synced; then whatever
    /// died is reclaimed.  State moves only after the call it reflects
    /// succeeded, so a failed commit can be retried.
    fn commit_group(&mut self) -> Result<(), VfsError> {
        if !self.pending.is_empty() {
            if self.unsynced > 0 {
                let head = self.head.as_ref().expect("unsynced bytes sit in the head");
                self.vfs.sync(head.file)?;
                self.unsynced = 0;
            }
            let threshold = 2 * self.entries.len() as u64 + CHECKPOINT_SLACK;
            match &mut self.log {
                Some(log) if log.clean && log.records + self.pending_records <= threshold => {
                    self.vfs
                        .write_at(log.file, log.end, self.pending.as_bytes())?;
                    self.vfs.sync(log.file)?;
                    log.end += self.pending.len() as u64;
                    log.records += self.pending_records;
                }
                _ => self.checkpoint()?,
            }
            self.pending.clear();
            self.pending_records = 0;
        }
        self.reclaim()
    }

    /// Write the next manifest generation — every live entry (the open
    /// group's included: their bytes are synced) and the end marker — into
    /// the other slot, sync it, and retire the current one.
    fn checkpoint(&mut self) -> Result<(), VfsError> {
        let generation = self.log.as_ref().map_or(0, |log| log.generation + 1);
        let mut text = String::with_capacity(64 * (self.entries.len() + 1));
        for (&key, &entry) in &self.entries {
            push_put(&mut text, key, entry);
        }
        let (next_seg, count) = (self.next_seg, self.entries.len());
        push_record(&mut text, format_args!("= {generation} {next_seg} {count}"));
        // Whatever holds the slot's name (the generation before the current
        // one, or a foreign file) must not show through a shorter rewrite.
        let path = self.manifest_path(generation);
        self.remove_file(&path)?;
        let file = self.vfs.open(&path, true)?;
        let written = self
            .vfs
            .write_at(file, 0, text.as_bytes())
            .and_then(|()| self.vfs.sync(file));
        if let Err(e) = written {
            let _ = self.vfs.close(file);
            // The slot may hold a whole generation that was never synced,
            // and it would win over the current one at the next open: no
            // record is appended to the current one until a checkpoint
            // has replaced what this one left.
            if let Some(log) = &mut self.log {
                log.clean = false;
            }
            return Err(e);
        }
        let log = Log {
            file,
            generation,
            end: text.len() as u64,
            records: count as u64,
            clean: true,
        };
        if let Some(old) = self.log.replace(log) {
            self.vfs.close(old.file)?;
            self.remove_file(&self.manifest_path(old.generation))?;
        }
        Ok(())
    }

    /// After a commit every kill is durable: segments left without a live
    /// entry become spares (or go, when not of segment length), and spares
    /// that take the files too far beyond the segment budget go.
    fn reclaim(&mut self) -> Result<(), VfsError> {
        let head = self.head.as_ref().map(|head| head.seg);
        let mut odd_sized = Vec::new();
        let (spares, segment_bytes) = (&mut self.spares, &mut self.segment_bytes);
        self.segments.retain(|&seg, segment| {
            if segment.live_entries > 0 || Some(seg) == head {
                return true;
            }
            *segment_bytes -= segment.len;
            if segment.len == Self::SEGMENT_BYTES {
                spares.push(seg);
            } else {
                odd_sized.push(seg);
            }
            false
        });
        for seg in odd_sized {
            self.remove_file(&self.segment_path(seg))?;
        }
        // Two segments above the budget: between two commits the head may
        // roll once, and a budget met exactly must not cost a spare that the
        // roll then has to create again.
        while self.segment_bytes + self.spares.len() as u64 * Self::SEGMENT_BYTES
            > self.segment_budget() + 2 * Self::SEGMENT_BYTES
        {
            let Some(seg) = self.spares.pop() else { break };
            self.remove_file(&self.segment_path(seg))?;
        }
        Ok(())
    }

    /// Commit: everything written and removed so far survives a restart
    /// once this returns `Ok`.
    ///
    /// Then compact while the segment files in use exceed the budget: move
    /// the emptiest segment's live entries to the head and commit, which
    /// reclaims it.  Only a segment at most half live is worth moving (and
    /// when files exceed the budget one always is, unless the head is an
    /// oversized segment whose payload died — the next roll frees that).
    pub fn flush(&mut self) -> Result<(), VfsError> {
        self.commit_group()?;
        while self.segment_bytes > self.segment_budget() {
            let head = self.head.as_ref().map(|head| head.seg);
            let victim = self
                .segments
                .iter()
                .filter(|(&seg, segment)| {
                    Some(seg) != head && 2 * segment.live_bytes <= segment.len
                })
                .min_by_key(|(_, segment)| segment.live_bytes)
                .map(|(&seg, _)| seg);
            let Some(victim) = victim else { break };
            self.evacuate(victim)?;
            self.commit_group()?;
        }
        Ok(())
    }

    /// Rewrite every live entry of `victim` at the head.
    fn evacuate(&mut self, victim: u64) -> Result<(), VfsError> {
        let moving: Vec<(u64, Entry)> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.seg == victim)
            .map(|(&key, &entry)| (key, entry))
            .collect();
        let file = self.vfs.open(&self.segment_path(victim), false)?;
        let moved = moving.into_iter().try_for_each(|(key, entry)| {
            let bytes = self.read_entry(file, entry)?;
            if !self.head_fits(entry.len) {
                self.roll(entry.len)?;
            }
            self.append(key, &bytes)
        });
        self.vfs.close(file)?;
        moved
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // A drop cannot report: a failed last commit loses the open group,
        // as a crash would.
        let _ = self.commit_group();
        let head = self.head.take().map(|head| head.file);
        let log = self.log.take().map(|log| log.file);
        for file in head.into_iter().chain(log) {
            let _ = self.vfs.close(file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemVfs, VfsStats};

    const SEG: usize = SpillStore::SEGMENT_BYTES as usize;

    fn mem() -> Arc<dyn Vfs> {
        Arc::new(MemVfs::new())
    }

    /// A payload that tells keys, versions and offsets within it apart.
    fn payload(key: u64, version: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ key as u8 ^ version.wrapping_mul(17))
            .collect()
    }

    fn read_file(vfs: &Arc<dyn Vfs>, path: &str) -> Vec<u8> {
        let file = vfs.open(path, false).unwrap();
        let bytes = vfs
            .read_at(file, 0, vfs.len(file).unwrap() as usize)
            .unwrap();
        vfs.close(file).unwrap();
        bytes
    }

    fn replace_file(vfs: &Arc<dyn Vfs>, path: &str, bytes: &[u8]) {
        let _ = vfs.remove(path);
        let file = vfs.open(path, true).unwrap();
        vfs.write_at(file, 0, bytes).unwrap();
        vfs.close(file).unwrap();
    }

    /// Numbers of the segment files present under `dir`.
    fn segment_files(vfs: &Arc<dyn Vfs>, dir: &str) -> Vec<u64> {
        (0..256)
            .filter(|n| vfs.exists(&format!("{dir}/seg-{n}.dat")))
            .collect()
    }

    fn since(vfs: &Arc<dyn Vfs>, before: VfsStats) -> (u64, u64, u64) {
        let now = vfs.stats();
        (
            now.reads - before.reads,
            now.writes - before.writes,
            now.syncs - before.syncs,
        )
    }

    #[test]
    fn write_read_remove_roundtrip() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "tier1").unwrap();
        assert!(store.is_empty());
        store.write(7, b"payload-seven").unwrap();
        store.write(9, b"nine").unwrap();
        store.write(11, b"").unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.contains(7));
        assert_eq!(store.read(7).unwrap(), b"payload-seven");
        assert_eq!(store.read(9).unwrap(), b"nine");
        assert_eq!(store.read(11).unwrap(), b"");
        store.remove(7).unwrap();
        assert!(!store.contains(7));
        assert!(matches!(store.read(7), Err(VfsError::NotFound(_))));
        store.remove(7).unwrap(); // idempotent
        assert_eq!(
            store.entries().collect::<Vec<_>>(),
            vec![(9, 4), (11, 0)],
            "survivors listed in key order"
        );
        store.write(9, b"nine, rewritten").unwrap();
        assert_eq!(store.read(9).unwrap(), b"nine, rewritten");
    }

    #[test]
    fn manifest_replay_rebuilds_the_resident_set() {
        let vfs = mem();
        {
            let mut store = SpillStore::open(Arc::clone(&vfs), "ssd").unwrap();
            store.write(1, b"one").unwrap();
            store.write(2, b"two").unwrap();
            store.write(3, b"three").unwrap();
            store.remove(2).unwrap();
            store.write(1, b"uno").unwrap(); // the later record supersedes
            assert!(!vfs.exists("ssd/MANIFEST"), "nothing committed yet");
        }
        // The drop committed; a fresh store over the directory replays it.
        let store = SpillStore::open(Arc::clone(&vfs), "ssd").unwrap();
        assert_eq!(store.entries().collect::<Vec<_>>(), vec![(1, 3), (3, 5)]);
        assert_eq!(store.read(1).unwrap(), b"uno");
        assert_eq!(store.read(3).unwrap(), b"three");
    }

    #[test]
    fn a_landing_is_one_write_and_a_group_shares_its_barriers() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "g").unwrap();
        let item = payload(1, 0, SEG / 32);
        store.write(0, &item).unwrap(); // creates the segment
        let before = vfs.stats();
        for key in 1..31 {
            store.write(key, &item).unwrap();
            store.remove(key - 1).unwrap();
        }
        assert_eq!(since(&vfs, before), (0, 30, 0), "payload writes only");
        assert!(!vfs.exists("g/MANIFEST"));
        // The 32nd payload fills the group: segment barrier, one manifest
        // write carrying all 62 records, manifest barrier.
        store.write(31, &item).unwrap();
        assert_eq!(since(&vfs, before), (0, 32, 2));
        assert!(vfs.exists("g/MANIFEST"));
        // A flush with nothing queued costs nothing.
        store.flush().unwrap();
        assert_eq!(since(&vfs, before), (0, 32, 2));
        let reopened = SpillStore::open(Arc::clone(&vfs), "g").unwrap();
        assert_eq!(
            reopened.entries().collect::<Vec<_>>(),
            vec![(30, item.len() as u64), (31, item.len() as u64)]
        );
    }

    #[test]
    fn a_dropped_store_closes_every_handle() {
        let vfs = mem();
        for round in 0..64u64 {
            let mut store = SpillStore::open(Arc::clone(&vfs), "h").unwrap();
            store.write(round, b"x").unwrap();
            assert_eq!(store.len() as u64, round + 1);
        }
        let next = vfs.open("probe", true).unwrap();
        assert!(next.0 < 4, "64 stores leaked handles: next is {next:?}");
    }

    #[test]
    fn dead_segments_are_reused_in_place_once_their_kills_are_committed() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "r").unwrap();
        let quarter = SEG / 4;
        // A window of eight live keys slides over 80 writes: 20 segments'
        // worth of bytes through at most eight files (twice the live
        // 2 MiB, the head's segment, two spares and a roll).
        for key in 0..80u64 {
            store.write(key, &payload(key, 0, quarter)).unwrap();
            if key >= 8 {
                store.remove(key - 8).unwrap();
            }
            assert!(segment_files(&vfs, "r").len() <= 8, "at key {key}");
        }
        assert!(store.next_seg <= 8, "numbers grow only with new files");
        for key in 72..80u64 {
            assert_eq!(store.read(key).unwrap(), payload(key, 0, quarter));
        }
        // A kill that is not committed keeps its segment's bytes: a crash
        // now must still find key 72's payload where the manifest says.
        let committed = SpillStore::open(Arc::clone(&vfs), "r").unwrap();
        let on_disk: Vec<u64> = committed.entries().map(|(key, _)| key).collect();
        for key in on_disk {
            assert_eq!(committed.read(key).unwrap(), payload(key, 0, quarter));
        }
    }

    #[test]
    fn sparse_segments_are_compacted_into_the_head() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "c").unwrap();
        let quarter = SEG / 4;
        // One survivor in every segment: nothing dies whole, so only
        // compaction can bound the files.
        let mut survivors = Vec::new();
        for key in 0..64u64 {
            store.write(key, &payload(key, 0, quarter)).unwrap();
            if key % 4 == 0 {
                survivors.push(key);
            } else {
                store.remove(key).unwrap();
            }
            let files = segment_files(&vfs, "c").len() as u64;
            let live = survivors.len() as u64 * quarter as u64;
            assert!(
                files * SpillStore::SEGMENT_BYTES <= 2 * live + 4 * SpillStore::SEGMENT_BYTES,
                "{files} files for {live} live bytes at key {key}"
            );
        }
        assert!(vfs.stats().reads > 0, "compaction read the survivors");
        drop(store);
        let store = SpillStore::open(Arc::clone(&vfs), "c").unwrap();
        assert_eq!(
            store.entries().map(|(key, _)| key).collect::<Vec<_>>(),
            survivors
        );
        for key in survivors {
            assert_eq!(store.read(key).unwrap(), payload(key, 0, quarter));
        }
    }

    #[test]
    fn checkpoints_keep_the_manifest_proportional_to_the_live_records() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "k").unwrap();
        let mut longest = 0;
        for round in 0..400u64 {
            store.write(round % 3, &[round as u8; 10]).unwrap();
            store.flush().unwrap();
            let slots = ["k/MANIFEST", "k/MANIFEST.1"].map(|slot| vfs.exists(slot));
            assert!(slots != [true, true], "the retired generation is removed");
            let log = store.log.as_ref().unwrap();
            assert!(log.records <= 2 * 3 + CHECKPOINT_SLACK);
            longest = longest.max(log.end);
        }
        assert!(longest < 64 * (2 * 3 + CHECKPOINT_SLACK + 1));
        assert!(store.log.as_ref().unwrap().generation >= 10);
        drop(store);
        let store = SpillStore::open(Arc::clone(&vfs), "k").unwrap();
        assert_eq!(
            store.read(0).unwrap(),
            [399 % 256; 10].map(|b: u64| b as u8)
        );
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn an_oversized_payload_gets_a_segment_of_its_own() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "j").unwrap();
        let big = payload(1, 0, SEG + SEG / 2);
        store.write(0, b"small").unwrap();
        store.write(1, &big).unwrap();
        store.write(2, b"after").unwrap();
        assert_eq!(segment_files(&vfs, "j"), vec![0, 1, 2]);
        drop(store);
        let mut store = SpillStore::open(Arc::clone(&vfs), "j").unwrap();
        assert_eq!(store.read(1).unwrap(), big);
        assert_eq!(store.read(2).unwrap(), b"after");
        // Once dead it is removed, not kept as a spare of the wrong size.
        store.remove(1).unwrap();
        store.flush().unwrap();
        assert!(!vfs.exists("j/seg-1.dat"));
    }

    #[test]
    fn torn_trailing_manifest_line_loses_only_that_entry() {
        let vfs = mem();
        {
            let mut store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
            store.write(10, b"abcdef").unwrap();
            store.flush().unwrap();
            store.write(11, b"ghijkl").unwrap();
        }
        // A crash mid-append: key 11's record lost its last bytes.
        let full = read_file(&vfs, "d/MANIFEST");
        replace_file(&vfs, "d/MANIFEST", &full[..full.len() - 3]);
        let mut store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
        assert_eq!(store.read(10).unwrap(), b"abcdef");
        assert!(!store.contains(11), "torn record dropped during replay");
        assert!(matches!(store.read(11), Err(VfsError::NotFound(_))));
        // The store stays usable: the next commit starts a clean generation.
        store.write(12, b"mnopqr").unwrap();
        drop(store);
        let store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
        assert_eq!(store.entries().collect::<Vec<_>>(), vec![(10, 6), (12, 6)]);
        assert_eq!(store.read(12).unwrap(), b"mnopqr");
        assert!(store.log.as_ref().unwrap().clean);
    }

    #[test]
    fn torn_length_field_that_still_parses_never_serves_a_prefix() {
        let vfs = mem();
        {
            let mut store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
            store.flush().unwrap();
            store.write(4, b"four").unwrap();
            store.flush().unwrap(); // generation 0: the records below append to it
            store.write(5, b"twelve bytes").unwrap();
            store.flush().unwrap();
            store.write(6, b"intact").unwrap();
        }
        // Key 5's record with its length cut from 12 to 1: it still parses,
        // but no longer matches its checksum — dropped, though not the last.
        let text = String::from_utf8(read_file(&vfs, "d/MANIFEST")).unwrap();
        assert!(text.contains("+ 5 0 4 12 "), "{text}");
        let torn = text.replacen("+ 5 0 4 12 ", "+ 5 0 4 1 ", 1);
        replace_file(&vfs, "d/MANIFEST", torn.as_bytes());
        let store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
        assert!(
            !store.contains(5),
            "a record that fails its checksum is dropped"
        );
        assert_eq!(store.read(4).unwrap(), b"four");
        assert_eq!(store.read(6).unwrap(), b"intact");
    }

    #[test]
    fn entries_of_missing_or_short_segments_are_dropped_and_strays_adopted() {
        let vfs = mem();
        let half = SEG / 2;
        {
            let mut store = SpillStore::open(Arc::clone(&vfs), "m").unwrap();
            for key in 0..6u64 {
                store.write(key, &payload(key, 0, half)).unwrap();
            }
        }
        assert_eq!(segment_files(&vfs, "m"), vec![0, 1, 2]);
        vfs.remove("m/seg-0.dat").unwrap();
        replace_file(&vfs, "m/seg-1.dat", &payload(2, 0, half)); // key 3's half is gone
        replace_file(&vfs, "m/seg-3.dat", &vec![0; SEG]); // created, never named
        let mut store = SpillStore::open(Arc::clone(&vfs), "m").unwrap();
        assert_eq!(
            store.entries().map(|(key, _)| key).collect::<Vec<_>>(),
            vec![2, 4, 5]
        );
        assert_eq!(store.read(2).unwrap(), payload(2, 0, half));
        // The stray is the next head; numbering continues above it.
        store.write(9, b"next").unwrap();
        assert_eq!(store.entries[&9].seg, 3);
        assert_eq!(store.next_seg, 4);
    }

    #[test]
    fn a_directory_in_the_per_key_file_format_starts_cold() {
        let vfs = mem();
        replace_file(&vfs, "old/MANIFEST", b"+ 5 12\n+ 6 6\n- 6\n");
        replace_file(&vfs, "old/5.item", b"twelve bytes");
        let mut store = SpillStore::open(Arc::clone(&vfs), "old").unwrap();
        assert!(store.is_empty(), "lines without a checksum are not records");
        store.write(5, b"fresh").unwrap();
        drop(store);
        let store = SpillStore::open(Arc::clone(&vfs), "old").unwrap();
        assert_eq!(store.read(5).unwrap(), b"fresh");
        let manifest = String::from_utf8(read_file(&vfs, "old/MANIFEST")).unwrap();
        assert!(
            !manifest.contains("+ 5 12\n"),
            "the foreign file was replaced"
        );
    }

    #[test]
    fn an_unfinished_checkpoint_falls_back_to_the_generation_before_it() {
        let vfs = mem();
        {
            let mut store = SpillStore::open(Arc::clone(&vfs), "f").unwrap();
            store.write(1, b"one").unwrap();
            store.write(2, b"two").unwrap();
        }
        // Generation 1 was being written when the machine stopped: all of
        // its records but no end marker.
        let gen0 = String::from_utf8(read_file(&vfs, "f/MANIFEST")).unwrap();
        let records: String =
            gen0.lines()
                .filter(|l| l.starts_with('+'))
                .fold(String::new(), |mut text, line| {
                    text.push_str(line);
                    text.push('\n');
                    text
                });
        replace_file(&vfs, "f/MANIFEST.1", records.as_bytes());
        let store = SpillStore::open(Arc::clone(&vfs), "f").unwrap();
        assert_eq!(store.log.as_ref().unwrap().generation, 0);
        assert_eq!(store.entries().collect::<Vec<_>>(), vec![(1, 3), (2, 3)]);
        // Finished, it wins over the older slot even if that was not removed.
        let mut finished = records.clone();
        push_record(&mut finished, format_args!("= 1 1 2"));
        push_record(&mut finished, format_args!("- 2"));
        replace_file(&vfs, "f/MANIFEST.1", finished.as_bytes());
        let store = SpillStore::open(Arc::clone(&vfs), "f").unwrap();
        assert_eq!(store.log.as_ref().unwrap().generation, 1);
        assert_eq!(store.entries().collect::<Vec<_>>(), vec![(1, 3)]);
    }

    #[test]
    fn a_stale_generation_left_in_its_slot_never_shows_through_the_next_one() {
        let vfs = mem();
        let mut store = SpillStore::open(Arc::clone(&vfs), "s").unwrap();
        for key in 0..40u64 {
            store.write(key, &[key as u8; 8]).unwrap();
        }
        store.flush().unwrap();
        let generation_0 = read_file(&vfs, "s/MANIFEST");
        // Kill most keys; the commits soon checkpoint into the other slot.
        for key in 2..40u64 {
            store.remove(key).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.log.as_ref().unwrap().generation, 1);
        assert!(!vfs.exists("s/MANIFEST"));
        // A crash had lost that removal: the old, longer generation is back.
        replace_file(&vfs, "s/MANIFEST", &generation_0);
        drop(store);
        let mut store = SpillStore::open(Arc::clone(&vfs), "s").unwrap();
        assert_eq!(store.len(), 2, "the newer generation wins");
        // The next checkpoint takes the stale file's name, and is shorter.
        for round in 0..40u8 {
            store.write(0, &[round; 8]).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.log.as_ref().unwrap().generation, 2);
        assert!(read_file(&vfs, "s/MANIFEST").len() < generation_0.len());
        drop(store);
        let store = SpillStore::open(Arc::clone(&vfs), "s").unwrap();
        assert_eq!(store.entries().collect::<Vec<_>>(), vec![(0, 8), (1, 8)]);
        assert_eq!(store.read(0).unwrap(), [39; 8]);
    }

    /// A VFS whose reads come back one byte short.
    struct ShortReads(MemVfs);

    impl Vfs for ShortReads {
        fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
            self.0.open(path, create)
        }
        fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
            self.0.read_at(file, offset, len.saturating_sub(1))
        }
        fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
            self.0.write_at(file, offset, data)
        }
        fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
            self.0.sync(file)
        }
        fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
            self.0.len(file)
        }
        fn close(&self, file: FileHandle) -> Result<(), VfsError> {
            self.0.close(file)
        }
        fn exists(&self, path: &str) -> bool {
            self.0.exists(path)
        }
        fn remove(&self, path: &str) -> Result<(), VfsError> {
            self.0.remove(path)
        }
        fn name(&self) -> &'static str {
            "short"
        }
        fn stats(&self) -> VfsStats {
            self.0.stats()
        }
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let vfs: Arc<dyn Vfs> = Arc::new(ShortReads(MemVfs::new()));
        let mut store = SpillStore::open(Arc::clone(&vfs), "t").unwrap();
        store.write(5, b"full-payload").unwrap();
        match store.read(5) {
            Err(VfsError::Io { detail, .. }) => assert!(detail.contains("truncated"), "{detail}"),
            other => panic!("expected truncated-payload error, got {other:?}"),
        }
    }

    #[test]
    fn stores_in_different_dirs_do_not_interfere() {
        let vfs = mem();
        let mut a = SpillStore::open(Arc::clone(&vfs), "a").unwrap();
        let mut b = SpillStore::open(Arc::clone(&vfs), "b").unwrap();
        a.write(1, b"from-a").unwrap();
        b.write(1, b"from-b").unwrap();
        assert_eq!(a.read(1).unwrap(), b"from-a");
        assert_eq!(b.read(1).unwrap(), b"from-b");
    }
}

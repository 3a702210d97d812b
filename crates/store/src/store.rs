//! The store proper: WAL + memtable + segments + manifest + compaction,
//! assembled behind a small `open`/`get`/`put`/`flush` surface.
//!
//! One deliberate simplification keeps the concurrency story short: the
//! store is a **cache of deterministic computations** — for any key,
//! every value ever written under it is byte-identical (a containment
//! decision is a pure function of its key; the codec in `flogic-core`
//! guarantees it). Duplicate keys across tiers are therefore harmless,
//! which is why a compaction can run concurrently with flushes without
//! any epoch dance: the merged output may coexist with a racing flush
//! that re-wrote one of its keys, and both copies are equal.
//!
//! Crash-safety invariants (tested in `tests/` and specified in
//! `docs/STORAGE.md`):
//!
//! * every mutation of the segment set goes through a fenced manifest
//!   install (tmp + fsync + rename + dir fsync);
//! * a segment file is fsynced *before* the manifest that lists it;
//! * the WAL is reset only *after* the flushed segment's manifest is
//!   durable;
//! * files the manifest does not list are never opened — they are
//!   quarantined (leftover `.tmp` files are deleted; everything else is
//!   renamed `*.quarantined`, never removed).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::thread::JoinHandle;

use crate::manifest::{self, Manifest, SegmentEntry, MANIFEST_NAME};
use crate::memtable::Memtable;
use crate::segment::{segment_file_name, write_segment, Segment};
use crate::wal::Wal;
use crate::StoreError;

/// Tunables for [`Store::open`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Flush the memtable to a segment once it holds about this many
    /// bytes.
    pub flush_bytes: usize,
    /// Ask the background compactor to merge once more than this many
    /// segments are live. `0` disables automatic compaction.
    pub compact_segments: usize,
    /// Fsync the WAL on every [`Store::put`]. Off by default: an
    /// unflushed decision lost to a crash is recomputed, never wrong,
    /// so the store trades the last few records for put latency.
    pub sync_writes: bool,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            flush_bytes: 4 * 1024 * 1024,
            compact_segments: 6,
            sync_writes: false,
        }
    }
}

/// Monotonic event counters (since open).
#[derive(Debug, Default)]
struct Counters {
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    quarantined: AtomicU64,
}

/// A point-in-time view of the store, for `flq cache stat` and the
/// `flqd_store_*` metric families.
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Lookups served (any tier).
    pub gets: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Records written.
    pub puts: u64,
    /// Memtable flushes since open.
    pub flushes: u64,
    /// Compactions since open.
    pub compactions: u64,
    /// Files quarantined since open.
    pub quarantined: u64,
    /// Live segment files.
    pub segments: u64,
    /// Entries across live segments (pre-dedup).
    pub segment_entries: u64,
    /// Entries buffered in the memtable.
    pub memtable_entries: u64,
    /// Approximate memtable bytes.
    pub memtable_bytes: u64,
    /// WAL file size in bytes.
    pub wal_bytes: u64,
    /// Current manifest generation.
    pub generation: u64,
    /// WAL records replayed by the last open.
    pub wal_replayed: u64,
    /// Torn WAL bytes dropped by the last open.
    pub wal_torn_bytes: u64,
}

/// What [`Store::verify`] found.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Segments whose data region checksummed clean.
    pub segments_ok: u64,
    /// Total entries across verified segments.
    pub entries: u64,
    /// Human-readable descriptions of everything wrong.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// True when nothing is wrong.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Memtable + WAL, mutated together under one lock.
#[derive(Debug)]
struct MemState {
    mem: Memtable,
    wal: Wal,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    opts: StoreOptions,
    mem: Mutex<MemState>,
    /// Live segments, newest generation first.
    segs: RwLock<Vec<Arc<Segment>>>,
    meta: Mutex<Manifest>,
    /// Serializes compactions (background vs. [`Store::compact_now`]):
    /// two concurrent merges would each install their own output and
    /// leave both live — harmless for correctness (deterministic
    /// values) but wasteful and surprising.
    compacting: Mutex<()>,
    counters: Counters,
    wal_replayed: AtomicU64,
    wal_torn_bytes: AtomicU64,
}

enum CompactMsg {
    Compact,
    Shutdown,
}

/// A durable key→value store (see the crate docs and `docs/STORAGE.md`).
#[derive(Debug)]
pub struct Store {
    inner: Arc<Inner>,
    compactor: Mutex<Option<(mpsc::Sender<CompactMsg>, JoinHandle<()>)>>,
}

impl Store {
    /// Opens (or creates) the store under `dir`: loads and fences the
    /// manifest, quarantines fenced/orphaned/corrupt segment files,
    /// deletes leftover `.tmp` files, opens the live segments, and
    /// replays the WAL into a fresh memtable (dropping any torn tail).
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut quarantined = 0u64;

        // 1. Manifest: load, fence duplicate generations.
        let fenced = manifest::load(dir)?.fence();
        let mut man = fenced.manifest;
        for entry in &fenced.fenced {
            if dir.join(&entry.name).exists() {
                manifest::quarantine(dir, &entry.name)?;
                quarantined += 1;
            }
        }

        // 2. Sweep the dir: drop tmp leftovers, quarantine orphans.
        let listed: Vec<String> = man.segments.iter().map(|s| s.name.clone()).collect();
        for dirent in std::fs::read_dir(dir)? {
            let name = dirent?.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                std::fs::remove_file(dir.join(name))?;
            } else if name.starts_with("seg-")
                && name.ends_with(".flqs")
                && !listed.iter().any(|l| l == name)
            {
                manifest::quarantine(dir, name)?;
                quarantined += 1;
            }
        }

        // 3. Open the live segments; quarantine anything that fails its
        // metadata checks or its data checksum. Segment reads carry no
        // per-entry checksum, so a flipped value byte that got past open
        // would be served as a wrong verdict.
        let mut segs: Vec<Arc<Segment>> = Vec::with_capacity(man.segments.len());
        let mut dropped: Vec<String> = Vec::new();
        for entry in &man.segments {
            let path = dir.join(&entry.name);
            let opened = Segment::open(&path, entry.gen).and_then(|seg| {
                seg.verify()?;
                Ok(seg)
            });
            match opened {
                Ok(seg) => segs.push(Arc::new(seg)),
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                    dropped.push(entry.name.clone());
                }
                Err(_) => {
                    manifest::quarantine(dir, &entry.name)?;
                    quarantined += 1;
                    dropped.push(entry.name.clone());
                }
            }
        }
        if !dropped.is_empty() {
            man.segments.retain(|s| !dropped.contains(&s.name));
            manifest::store(dir, &man)?;
        }
        segs.sort_by_key(|s| std::cmp::Reverse(s.generation()));

        // 4. WAL: replay the valid prefix into the memtable.
        let (wal, replay) = Wal::open(&dir.join("wal.flqw"))?;
        let mut mem = Memtable::new();
        let replayed = replay.records.len() as u64;
        for (k, v) in replay.records {
            mem.insert(k, v);
        }

        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            opts,
            mem: Mutex::new(MemState { mem, wal }),
            segs: RwLock::new(segs),
            meta: Mutex::new(man),
            compacting: Mutex::new(()),
            counters: Counters::default(),
            wal_replayed: AtomicU64::new(replayed),
            wal_torn_bytes: AtomicU64::new(replay.torn_bytes),
        });
        inner
            .counters
            .quarantined
            .store(quarantined, Ordering::Relaxed);

        // 5. Background compactor.
        let (tx, rx) = mpsc::channel();
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        let handle = std::thread::Builder::new()
            .name("flq-store-compact".into())
            .spawn(move || {
                while let Ok(CompactMsg::Compact) = rx.recv() {
                    let Some(inner) = weak.upgrade() else { break };
                    // Failures are not fatal to the serving path: the
                    // pre-compaction segments stay live and correct.
                    let _ = Inner::compact(&inner);
                }
            })
            .expect("spawn compactor thread");

        Ok(Store {
            inner,
            compactor: Mutex::new(Some((tx, handle))),
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Looks up `key`: memtable first, then segments newest-first
    /// (bloom-gated).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.counters.gets.fetch_add(1, Ordering::Relaxed);
        {
            let state = self.inner.mem.lock().expect("store mem lock");
            if let Some(v) = state.mem.get(key) {
                self.inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(v.to_vec()));
            }
        }
        let segs = self.inner.segs.read().expect("store segs lock");
        for seg in segs.iter() {
            if let Some(v) = seg.get(key)? {
                self.inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Writes one record: WAL append, memtable insert, and — once the
    /// memtable passes the flush threshold — a segment flush.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.inner.counters.puts.fetch_add(1, Ordering::Relaxed);
        let mut state = self.inner.mem.lock().expect("store mem lock");
        state.wal.append(key, value)?;
        if self.inner.opts.sync_writes {
            state.wal.sync()?;
        }
        state.mem.insert(key.to_vec(), value.to_vec());
        if state.mem.approx_bytes() >= self.inner.opts.flush_bytes {
            self.flush_locked(&mut state)?;
            drop(state);
            self.maybe_request_compaction();
        }
        Ok(())
    }

    /// Flushes the memtable to a new segment (no-op when empty).
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut state = self.inner.mem.lock().expect("store mem lock");
        if state.mem.is_empty() {
            return Ok(());
        }
        self.flush_locked(&mut state)?;
        drop(state);
        self.maybe_request_compaction();
        Ok(())
    }

    fn flush_locked(&self, state: &mut MemState) -> Result<(), StoreError> {
        let inner = &self.inner;
        // Durability order: segment file → manifest → WAL reset. A crash
        // between any two steps leaves either (a) an orphan segment the
        // next open quarantines while the WAL still replays, or (b) a
        // listed segment plus a WAL whose records duplicate it — and
        // duplicates are harmless (deterministic values).
        let mut meta = inner.meta.lock().expect("store meta lock");
        let gen = meta.generation + 1;
        write_segment(&inner.dir, gen, state.mem.iter())?;
        let opened = Segment::open(&inner.dir.join(segment_file_name(gen)), gen)?;
        meta.generation = gen;
        meta.segments.push(SegmentEntry {
            name: segment_file_name(gen),
            gen,
            entries: state.mem.len() as u64,
        });
        manifest::store(&inner.dir, &meta)?;
        drop(meta);
        inner
            .segs
            .write()
            .expect("store segs lock")
            .insert(0, Arc::new(opened));
        state.wal.reset()?;
        state.mem.clear();
        inner.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn maybe_request_compaction(&self) {
        let threshold = self.inner.opts.compact_segments;
        if threshold == 0 {
            return;
        }
        let live = self.inner.segs.read().expect("store segs lock").len();
        if live > threshold {
            if let Some((tx, _)) = self.compactor.lock().expect("compactor lock").as_ref() {
                let _ = tx.send(CompactMsg::Compact);
            }
        }
    }

    /// Merges every live segment into one, synchronously.
    pub fn compact_now(&self) -> Result<(), StoreError> {
        Inner::compact(&self.inner)
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> StoreStats {
        let (memtable_entries, memtable_bytes, wal_bytes) = {
            let state = self.inner.mem.lock().expect("store mem lock");
            (
                state.mem.len() as u64,
                state.mem.approx_bytes() as u64,
                state.wal.len_bytes(),
            )
        };
        let (segments, segment_entries) = {
            let segs = self.inner.segs.read().expect("store segs lock");
            (
                segs.len() as u64,
                segs.iter().map(|s| s.entry_count()).sum(),
            )
        };
        let c = &self.inner.counters;
        StoreStats {
            gets: c.gets.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            puts: c.puts.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            segments,
            segment_entries,
            memtable_entries,
            memtable_bytes,
            wal_bytes,
            generation: self.inner.meta.lock().expect("store meta lock").generation,
            wal_replayed: self.inner.wal_replayed.load(Ordering::Relaxed),
            wal_torn_bytes: self.inner.wal_torn_bytes.load(Ordering::Relaxed),
        }
    }

    /// Per-segment `(name, generation, entries)` rows, newest first.
    pub fn segment_rows(&self) -> Vec<(String, u64, u64)> {
        self.inner
            .segs
            .read()
            .expect("store segs lock")
            .iter()
            .map(|s| {
                (
                    s.path()
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default(),
                    s.generation(),
                    s.entry_count(),
                )
            })
            .collect()
    }

    /// Up to `limit` records in key order, newest tier winning —
    /// `flq cache inspect`'s data source.
    pub fn sample(&self, limit: usize) -> Result<crate::KvPairs, StoreError> {
        let mut merged = std::collections::BTreeMap::new();
        let segs = self.inner.segs.read().expect("store segs lock").clone();
        for seg in segs.iter().rev() {
            for (k, v) in seg.scan()? {
                merged.insert(k, v);
            }
        }
        let state = self.inner.mem.lock().expect("store mem lock");
        for (k, v) in state.mem.iter() {
            merged.insert(k.to_vec(), v.to_vec());
        }
        drop(state);
        Ok(merged.into_iter().take(limit).collect())
    }

    /// Full integrity pass: every live segment's data checksum, plus a
    /// manifest/ directory consistency sweep. Never mutates the store.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        let segs = self.inner.segs.read().expect("store segs lock").clone();
        for seg in segs.iter() {
            match seg.verify() {
                Ok(()) => {
                    report.segments_ok += 1;
                    report.entries += seg.entry_count();
                }
                Err(e) => report.problems.push(e.to_string()),
            }
        }
        let meta = self.inner.meta.lock().expect("store meta lock").clone();
        for entry in &meta.segments {
            if !self.inner.dir.join(&entry.name).exists() {
                report
                    .problems
                    .push(format!("{}: listed in MANIFEST but missing", entry.name));
            }
        }
        if !self.inner.dir.join(MANIFEST_NAME).exists() && !meta.segments.is_empty() {
            report.problems.push("MANIFEST missing".to_string());
        }
        Ok(report)
    }
}

impl Inner {
    /// Merge every live segment into one new segment. Safe to run
    /// concurrently with puts and flushes (see the module docs on
    /// deterministic values); `meta` is only held for the install.
    fn compact(inner: &Arc<Inner>) -> Result<(), StoreError> {
        let _one_at_a_time = inner.compacting.lock().expect("store compact lock");
        let input: Vec<Arc<Segment>> = inner.segs.read().expect("store segs lock").clone();
        if input.len() < 2 {
            return Ok(());
        }
        // Oldest first, so newer generations overwrite on key collision.
        let mut merged = std::collections::BTreeMap::new();
        for seg in input.iter().rev() {
            for (k, v) in seg.scan()? {
                merged.insert(k, v);
            }
        }
        let input_names: Vec<String> = input
            .iter()
            .map(|s| segment_file_name(s.generation()))
            .collect();

        let mut meta = inner.meta.lock().expect("store meta lock");
        let gen = meta.generation + 1;
        write_segment(
            &inner.dir,
            gen,
            merged.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )?;
        let opened = Segment::open(&inner.dir.join(segment_file_name(gen)), gen)?;
        meta.generation = gen;
        meta.segments.retain(|s| !input_names.contains(&s.name));
        meta.segments.push(SegmentEntry {
            name: segment_file_name(gen),
            gen,
            entries: merged.len() as u64,
        });
        manifest::store(&inner.dir, &meta)?;
        drop(meta);

        {
            let mut segs = inner.segs.write().expect("store segs lock");
            segs.retain(|s| !input.iter().any(|i| Arc::ptr_eq(s, i)));
            segs.push(Arc::new(opened));
            segs.sort_by_key(|s| std::cmp::Reverse(s.generation()));
        }
        // The manifest no longer lists the inputs; their files can go.
        // Readers holding an Arc keep a valid fd until they drop it.
        for name in &input_names {
            let _ = std::fs::remove_file(inner.dir.join(name));
        }
        inner.counters.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some((tx, handle)) = self.compactor.lock().expect("compactor lock").take() {
            let _ = tx.send(CompactMsg::Shutdown);
            drop(tx);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flq_store_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            flush_bytes: 1024,
            compact_segments: 3,
            ..Default::default()
        }
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:05}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp("reopen");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            for i in 0..50 {
                let (k, v) = kv(i);
                store.put(&k, &v).unwrap();
            }
            store.flush().unwrap();
            // And some unflushed records that must come back via the WAL.
            for i in 50..60 {
                let (k, v) = kv(i);
                store.put(&k, &v).unwrap();
            }
        }
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..60 {
            let (k, v) = kv(i);
            assert_eq!(store.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert!(store.get(b"absent").unwrap().is_none());
        let stats = store.stats();
        assert_eq!(stats.wal_replayed, 10);
        assert_eq!(stats.segments, 1);
    }

    #[test]
    fn automatic_flush_and_compaction_preserve_every_record() {
        let dir = tmp("autoflush");
        let store = Store::open(&dir, small_opts()).unwrap();
        for i in 0..500 {
            let (k, v) = kv(i);
            store.put(&k, &v).unwrap();
        }
        store.flush().unwrap();
        store.compact_now().unwrap();
        let stats = store.stats();
        assert!(stats.flushes >= 2, "tiny threshold must have flushed");
        assert_eq!(stats.segments, 1, "compaction merged to one segment");
        assert_eq!(stats.segment_entries, 500);
        for i in 0..500 {
            let (k, v) = kv(i);
            assert_eq!(store.get(&k).unwrap(), Some(v), "key {i}");
        }
        assert!(store.verify().unwrap().is_clean());
    }

    #[test]
    fn overwrites_resolve_to_newest_across_tiers() {
        let dir = tmp("overwrite");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.put(b"k", b"old").unwrap();
        store.flush().unwrap();
        store.put(b"k", b"new").unwrap();
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(b"new".as_ref()));
        store.flush().unwrap();
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(b"new".as_ref()));
        store.compact_now().unwrap();
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(b"new".as_ref()));
    }

    #[test]
    fn orphan_segments_are_quarantined_at_open() {
        let dir = tmp("orphan");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.put(b"k", b"v").unwrap();
            store.flush().unwrap();
        }
        // Drop a fake segment file the manifest does not list.
        std::fs::write(dir.join("seg-000000000099.flqs"), b"garbage").unwrap();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.stats().quarantined, 1);
        assert!(!dir.join("seg-000000000099.flqs").exists());
        assert!(dir.join("seg-000000000099.flqs.quarantined").exists());
        assert_eq!(store.get(b"k").unwrap().as_deref(), Some(b"v".as_ref()));
    }

    #[test]
    fn corrupt_listed_segment_is_quarantined_and_dropped() {
        let dir = tmp("corrupt_listed");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.put(b"k", b"v").unwrap();
            store.flush().unwrap();
        }
        let name = segment_file_name(1);
        let mut bytes = std::fs::read(dir.join(&name)).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF; // corrupt the footer/meta region
        std::fs::write(dir.join(&name), &bytes).unwrap();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.stats().segments, 0);
        assert!(store.get(b"k").unwrap().is_none(), "data gone, not wrong");
        assert!(store.verify().unwrap().is_clean(), "store is consistent");
        // And the store still accepts writes afterwards.
        store.put(b"k2", b"v2").unwrap();
        store.flush().unwrap();
        assert_eq!(store.get(b"k2").unwrap().as_deref(), Some(b"v2".as_ref()));
    }

    #[test]
    fn sample_and_segment_rows_reflect_contents() {
        let dir = tmp("sample");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..10 {
            let (k, v) = kv(i);
            store.put(&k, &v).unwrap();
        }
        store.flush().unwrap();
        store.put(b"zz-memtable-only", b"m").unwrap();
        let rows = store.segment_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].2, 10);
        let sample = store.sample(100).unwrap();
        assert_eq!(sample.len(), 11);
        assert_eq!(sample[0].0, kv(0).0);
        assert_eq!(sample.last().unwrap().0, b"zz-memtable-only");
    }
}

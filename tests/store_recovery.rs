//! Crash-recovery behaviour of the durable decision store, exercised
//! through the public API: torn WAL tails, manifest fencing under
//! duplicate generations, segment corruption quarantine, and the
//! replay(WAL) ∘ flush ≡ memtable-state property.
//!
//! The corresponding unit tests live inside `flogic-store`; these
//! versions stage each failure the way an actual crash would leave it
//! on disk — by writing bytes, not by calling internals.

use std::io::Write;
use std::path::PathBuf;

use flogic_lite::store::{
    manifest::{self, Manifest, SegmentEntry},
    segment::{segment_file_name, write_segment},
    Store, StoreOptions,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flq_recovery_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn k(i: u64) -> Vec<u8> {
    format!("key-{i:06}").into_bytes()
}

fn v(i: u64) -> Vec<u8> {
    format!("value-{i:06}").into_bytes()
}

/// A deterministic pseudo-random sequence (SplitMix64) — no external
/// RNG, no wall clock.
fn rng(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn kill_mid_wal_append_recovers_the_valid_prefix() {
    let dir = tmp("torn");
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..50 {
            store.put(&k(i), &v(i)).unwrap();
        }
        // No flush: everything lives in the WAL. Dropping the store is
        // the "kill" — nothing else is written.
    }
    // The crash happened mid-append: the WAL ends in a half-written
    // frame (a length header promising more bytes than exist).
    let wal_path = dir.join("wal.flqw");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    f.write_all(&1000u32.to_le_bytes()).unwrap();
    f.write_all(&[0xAB; 17]).unwrap();
    drop(f);
    let torn_len = std::fs::metadata(&wal_path).unwrap().len();

    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let stats = store.stats();
    assert_eq!(stats.wal_replayed, 50, "valid prefix replays fully");
    assert!(stats.wal_torn_bytes > 0, "torn tail is counted");
    assert!(
        store.stats().wal_bytes < torn_len,
        "the torn tail was truncated away"
    );
    for i in 0..50 {
        assert_eq!(store.get(&k(i)).unwrap().as_deref(), Some(&v(i)[..]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_generations_fence_to_the_newest_and_quarantine_the_loser() {
    let dir = tmp("fence");
    std::fs::create_dir_all(&dir).unwrap();
    // Two segment files, written as a crashed writer racing a rename
    // would leave them: both claim generation 1 in the manifest. The
    // later-listed entry is the newer write and must win.
    let old_entries = [(k(0), v(0))];
    let new_entries = [(k(0), b"newer".to_vec()), (k(1), v(1))];
    write_segment(
        &dir,
        1,
        old_entries
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice())),
    )
    .unwrap();
    let loser = "seg-crashed-epoch.flqs";
    std::fs::rename(dir.join(segment_file_name(1)), dir.join(loser)).unwrap();
    write_segment(
        &dir,
        1,
        new_entries
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice())),
    )
    .unwrap();
    manifest::store(
        &dir,
        &Manifest {
            generation: 1,
            segments: vec![
                SegmentEntry {
                    name: loser.to_string(),
                    gen: 1,
                    entries: 1,
                },
                SegmentEntry {
                    name: segment_file_name(1),
                    gen: 1,
                    entries: 2,
                },
            ],
        },
    )
    .unwrap();

    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        store.stats().segments,
        1,
        "one generation-1 claimant survives"
    );
    assert!(
        store.stats().quarantined >= 1,
        "the fenced loser is quarantined"
    );
    assert_eq!(store.get(&k(0)).unwrap().as_deref(), Some(&b"newer"[..]));
    assert_eq!(store.get(&k(1)).unwrap().as_deref(), Some(&v(1)[..]));
    assert!(
        !dir.join(loser).exists(),
        "the losing file is moved, not live"
    );
    assert!(
        dir.join(format!("{loser}.quarantined")).exists(),
        "…and preserved under .quarantined, not deleted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_metadata_corruption_quarantines_without_losing_the_rest() {
    let dir = tmp("crc");
    let name;
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..20 {
            store.put(&k(i), &v(i)).unwrap();
        }
        store.flush().unwrap();
        for i in 20..40 {
            store.put(&k(i), &v(i)).unwrap();
        }
        store.flush().unwrap();
        let rows = store.segment_rows();
        assert_eq!(rows.len(), 2);
        name = rows.last().unwrap().0.clone();
    }
    // Flip one byte near the end of the older segment (index/footer
    // region — the part `open` checksums).
    let path = dir.join(&name);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 30;
    bytes[at] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.stats().segments, 1, "the corrupt segment is dropped");
    assert!(store.stats().quarantined >= 1);
    assert!(dir.join(format!("{name}.quarantined")).exists());
    // Keys from the healthy segment still answer; keys that lived only
    // in the quarantined one read as misses (recompute, never lie).
    let healthy_hits = (0..40)
        .filter(|&i| store.get(&k(i)).unwrap().is_some())
        .count();
    assert_eq!(healthy_hits, 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_corruption_is_caught_by_verify() {
    let dir = tmp("verify");
    let name;
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..30 {
            store.put(&k(i), &v(i)).unwrap();
        }
        store.flush().unwrap();
        name = store.segment_rows()[0].0.clone();
        assert!(store.verify().unwrap().is_clean());
    }
    // Flip a byte in the data region of the open store's segment (bit
    // rot under a running store): the metadata still checks out, the
    // full verify scan must not.
    let path = dir.join(&name);
    let flip = |path: &std::path::Path| {
        use std::os::unix::fs::FileExt;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, 40).unwrap();
        file.write_all_at(&[byte[0] ^ 0xFF], 40).unwrap();
    };
    {
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        flip(&path);
        assert_eq!(store.stats().segments, 1, "metadata still checks out");
        let report = store.verify().unwrap();
        assert!(!report.is_clean(), "data CRC mismatch must be reported");
        assert!(report.problems[0].contains(&name), "{:?}", report.problems);
    }
    // The next open checks the data checksum too, and quarantines the
    // segment instead of serving its entries.
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(store.stats().segments, 0, "corrupt data is not served");
    assert_eq!(store.stats().quarantined, 1);
    assert!(dir.join(format!("{name}.quarantined")).exists());
    assert!(store.verify().unwrap().is_clean());
    assert!((0..30).all(|i| store.get(&k(i)).unwrap().is_none()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: for a pseudo-random workload of puts (with overwrites of
/// byte-identical values, as the decision store produces), crashing at
/// an arbitrary point and replaying the WAL yields exactly the state a
/// flush-surviving memtable would have had.
#[test]
fn replay_after_crash_equals_direct_state() {
    for seed in [3u64, 17, 4242] {
        let dir = tmp(&format!("prop{seed}"));
        let mut next = rng(seed);
        let mut model = std::collections::BTreeMap::new();
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            for _ in 0..400 {
                let i = next() % 120;
                let key = k(i);
                // Deterministic values: every write of a key carries the
                // same bytes, the invariant the decision store relies on.
                let value = v(i);
                store.put(&key, &value).unwrap();
                model.insert(key, value);
                if next() % 97 == 0 {
                    store.flush().unwrap();
                }
            }
            // Crash: drop without a final flush.
        }
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        for (key, value) in &model {
            assert_eq!(
                store.get(key).unwrap().as_deref(),
                Some(value.as_slice()),
                "seed {seed}: key {:?} lost or wrong after replay",
                String::from_utf8_lossy(key)
            );
        }
        // And nothing invented: a key never written is a miss.
        assert_eq!(store.get(b"never-written").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

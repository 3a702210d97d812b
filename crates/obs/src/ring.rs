//! A bounded, single-writer ring buffer of fixed-width event records.
//!
//! A [`Tracer`](crate::Tracer) owns one [`Ring`], and the run it traces
//! is the only writer (single-writer discipline: the chase engine, the
//! hom search and the decision procedure all record from the calling
//! thread). Appends are lock-free: plain relaxed stores
//! of the payload words followed by a `Release` publish of the head
//! counter; readers `Acquire` the head and then read the payload words.
//!
//! The head counter is the number of records *ever appended* — it never
//! wraps conceptually (a `u64` at one increment per event outlives any
//! run). When the ring is full, new records overwrite the oldest ones, so
//! a snapshot always holds the newest `min(head, capacity)` records and
//! [`Ring::dropped`] reports how many old records were overwritten.
//!
//! The capacity is a *bound*, not an up-front allocation. Records live in
//! fixed-size chunks of [`CHUNK_RECORDS`] records, and a chunk is
//! allocated the first time a record lands in it. A ring that records a
//! handful of events holds one small chunk; only a run that fills the
//! whole ring pays for the whole capacity. Creating a ring allocates just
//! the chunk table (one empty slot per chunk).
//!
//! The workspace forbids `unsafe`, so each chunk is a
//! `OnceLock<Box<[AtomicU64]>>` rather than a raw buffer. The writer
//! initializes a chunk before the `Release` store of the head that covers
//! it, so a reader that `Acquire`s the head sees every chunk it needs. A
//! reader that snapshots *while* the writer is mid-append could observe a
//! torn record; in this workspace snapshots are only taken after the
//! traced run returned (quiescent), and even a torn read is merely a
//! garbage word — never undefined behavior.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Words per event record: tag + three payload words.
pub const RECORD_WORDS: usize = 4;

/// Records per lazily allocated chunk (8 KiB of payload).
pub const CHUNK_RECORDS: usize = 256;

/// A bounded single-writer ring of `[u64; RECORD_WORDS]` records.
pub struct Ring {
    /// Record chunks, each allocated on its first write. Every chunk holds
    /// [`CHUNK_RECORDS`] records except possibly the last, so the chunks
    /// together hold exactly `capacity` records.
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// Records ever appended (monotone). `head % capacity` is the next slot.
    head: AtomicU64,
    /// Capacity in records (power of two not required).
    capacity: u64,
}

impl Ring {
    /// Creates a ring holding up to `capacity` records (min 1). No record
    /// storage is allocated until the first [`append`](Ring::append).
    pub fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        let chunks = (0..capacity.div_ceil(CHUNK_RECORDS))
            .map(|_| OnceLock::new())
            .collect();
        Ring {
            chunks,
            head: AtomicU64::new(0),
            capacity: capacity as u64,
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Records ever appended (including any since overwritten).
    pub fn appended(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.appended().saturating_sub(self.capacity)
    }

    /// Record slots currently backed by allocated chunks (at most
    /// [`capacity`](Ring::capacity)).
    pub fn allocated_records(&self) -> usize {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|words| words.len() / RECORD_WORDS)
            .sum()
    }

    /// Records in chunk `index`: [`CHUNK_RECORDS`], or the remainder of
    /// the capacity for the last chunk.
    fn chunk_records(&self, index: usize) -> usize {
        CHUNK_RECORDS.min(self.capacity() - index * CHUNK_RECORDS)
    }

    /// Appends one record, overwriting the oldest if full.
    ///
    /// Must only be called by the ring's single writer thread.
    pub fn append(&self, record: [u64; RECORD_WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = (head % self.capacity) as usize;
        let index = slot / CHUNK_RECORDS;
        let chunk = self.chunks[index].get_or_init(|| {
            (0..self.chunk_records(index) * RECORD_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        let base = (slot % CHUNK_RECORDS) * RECORD_WORDS;
        for (word, &w) in chunk[base..base + RECORD_WORDS].iter().zip(&record) {
            word.store(w, Ordering::Relaxed);
        }
        // Publish: the chunk allocation and everything stored above
        // happen-before a reader that Acquire-loads the incremented head.
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copies out the newest `min(appended, capacity)` records, oldest
    /// first, paired with their global sequence numbers (0-based index in
    /// append order). Intended to be called when the writer is quiescent.
    pub fn snapshot(&self) -> Vec<(u64, [u64; RECORD_WORDS])> {
        let head = self.head.load(Ordering::Acquire);
        let len = head.min(self.capacity);
        let first_seq = head - len;
        let mut out = Vec::with_capacity(len as usize);
        for seq in first_seq..head {
            let slot = (seq % self.capacity) as usize;
            // Every slot below the published head has its chunk allocated
            // (see `append`), so this never skips a record.
            let Some(chunk) = self.chunks[slot / CHUNK_RECORDS].get() else {
                continue;
            };
            let base = (slot % CHUNK_RECORDS) * RECORD_WORDS;
            let mut record = [0u64; RECORD_WORDS];
            for (word, src) in record.iter_mut().zip(&chunk[base..base + RECORD_WORDS]) {
                *word = src.load(Ordering::Relaxed);
            }
            out.push((seq, record));
        }
        out
    }
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("appended", &self.appended())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64) -> [u64; RECORD_WORDS] {
        [n, n + 1, n + 2, n + 3]
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let ring = Ring::new(8);
        for n in 0..5 {
            ring.append(rec(n));
        }
        assert_eq!(ring.appended(), 5);
        assert_eq!(ring.dropped(), 0);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, (seq, record)) in snap.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*record, rec(i as u64));
        }
    }

    #[test]
    fn overflow_keeps_newest_and_counts_dropped() {
        let ring = Ring::new(4);
        for n in 0..10 {
            ring.append(rec(n));
        }
        assert_eq!(ring.appended(), 10);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        // The newest four records (6..10), oldest first, with true seqs.
        for (i, (seq, record)) in snap.iter().enumerate() {
            let n = 6 + i as u64;
            assert_eq!(*seq, n);
            assert_eq!(*record, rec(n));
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = Ring::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.append(rec(1));
        ring.append(rec(2));
        assert_eq!(ring.snapshot(), vec![(1, rec(2))]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn empty_ring_snapshot_is_empty() {
        let ring = Ring::new(4);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    /// SplitMix64: a tiny deterministic generator for the model test.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn chunked_ring_matches_a_reference_deque() {
        use crate::DEFAULT_RING_CAPACITY;
        use std::collections::VecDeque;

        let capacities = [
            1,
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            300,
            DEFAULT_RING_CAPACITY,
        ];
        for (i, &capacity) in capacities.iter().enumerate() {
            let mut rng = 0x5EED_0000 + i as u64;
            let ring = Ring::new(capacity);
            let mut model: VecDeque<(u64, [u64; RECORD_WORDS])> = VecDeque::new();
            // Cross the wrap point at least twice, in uneven steps, and
            // compare after every step.
            let total = 2 * capacity as u64 + 3;
            let mut seq = 0u64;
            while seq < total {
                let step = 1 + splitmix64(&mut rng) % (capacity as u64 / 3 + 2);
                for _ in 0..step.min(total - seq) {
                    let record = [
                        splitmix64(&mut rng),
                        splitmix64(&mut rng),
                        splitmix64(&mut rng),
                        seq,
                    ];
                    ring.append(record);
                    if model.len() == capacity {
                        model.pop_front();
                    }
                    model.push_back((seq, record));
                    seq += 1;
                }
                assert_eq!(ring.appended(), seq, "capacity {capacity}");
                assert_eq!(
                    ring.dropped(),
                    seq.saturating_sub(capacity as u64),
                    "capacity {capacity}"
                );
                assert!(ring.allocated_records() <= capacity);
                assert!(
                    ring.snapshot().iter().eq(model.iter()),
                    "capacity {capacity}, after {seq} appends"
                );
            }
            assert_eq!(
                ring.allocated_records(),
                capacity,
                "a full ring is fully backed"
            );
        }
    }

    #[test]
    fn a_few_records_allocate_one_chunk() {
        let ring = Ring::new(crate::DEFAULT_RING_CAPACITY);
        assert_eq!(ring.allocated_records(), 0);
        for n in 0..3 {
            ring.append(rec(n));
        }
        assert_eq!(ring.allocated_records(), CHUNK_RECORDS);
        assert_eq!(ring.snapshot().len(), 3);
        // A ring smaller than one chunk allocates only its capacity.
        let small = Ring::new(5);
        small.append(rec(0));
        assert_eq!(small.allocated_records(), 5);
    }
}

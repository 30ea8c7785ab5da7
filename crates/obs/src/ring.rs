//! A seqlock ring buffer of fixed-width records.
//!
//! Writers claim a slot by CAS-ing its sequence number from even (stable) to
//! odd (being written), publish the fields, then bump the sequence back to
//! even. Readers snapshot a slot by reading the sequence before and after the
//! fields and retrying on a torn read. Neither side ever blocks: a writer
//! that loses the claim race simply drops its record (capacity is sized so
//! this needs `capacity` concurrent slow-path pushes to happen), and a reader
//! that keeps colliding gives up on that slot.
//!
//! Used for the slow-query logs behind `GET /debug/slow` and the trace
//! rings behind `GET /debug/trace`, where writes happen on the query hot
//! path and must not take locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of `u64` payload fields per record: the daemon's query record,
/// a 128-bit request id (two fields) beside eleven query fields.
pub const RECORD_FIELDS: usize = 13;

#[derive(Debug)]
struct Slot {
    /// Even = stable, odd = mid-write, 0 = never written.
    seq: AtomicU64,
    /// Monotone push index, for ordering snapshots.
    idx: AtomicU64,
    fields: [AtomicU64; RECORD_FIELDS],
}

/// Lock-free ring of the most recent `capacity` records.
#[derive(Debug)]
pub struct SeqRing {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

impl SeqRing {
    /// Creates a ring holding the `capacity` most recent records.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> SeqRing {
        assert!(capacity > 0, "ring capacity must be positive");
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                idx: AtomicU64::new(0),
                fields: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        SeqRing {
            slots,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of records the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of records ever pushed (including dropped-on-contention).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest once full.
    pub fn push(&self, fields: [u64; RECORD_FIELDS]) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq % 2 != 0 {
            // Another writer is mid-write on this slot; records are
            // diagnostics, dropping one beats blocking.
            return;
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // Field stores must not become visible before the odd sequence.
        std::sync::atomic::fence(Ordering::SeqCst);
        slot.idx.store(idx + 1, Ordering::Relaxed);
        for (dst, src) in slot.fields.iter().zip(fields.iter()) {
            dst.store(*src, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Returns the retained records, newest first. Torn slots (a writer was
    /// mid-update throughout the read) are skipped.
    pub fn snapshot(&self) -> Vec<[u64; RECORD_FIELDS]> {
        let mut records: Vec<(u64, [u64; RECORD_FIELDS])> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _attempt in 0..8 {
                let seq_before = slot.seq.load(Ordering::Acquire);
                if seq_before == 0 {
                    break; // never written
                }
                if seq_before % 2 != 0 {
                    std::hint::spin_loop();
                    continue; // mid-write, retry
                }
                let idx = slot.idx.load(Ordering::Relaxed);
                let mut fields = [0u64; RECORD_FIELDS];
                for (dst, src) in fields.iter_mut().zip(slot.fields.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                // Field loads must complete before the sequence re-check.
                std::sync::atomic::fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) == seq_before {
                    records.push((idx, fields));
                    break;
                }
            }
        }
        records.sort_by_key(|r| std::cmp::Reverse(r.0));
        records.into_iter().map(|(_, f)| f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(v: u64) -> [u64; RECORD_FIELDS] {
        let mut f = [0u64; RECORD_FIELDS];
        f[0] = v;
        f[1] = v * 10;
        f
    }

    #[test]
    fn retains_last_capacity_records_newest_first() {
        let ring = SeqRing::new(4);
        for i in 1..=10u64 {
            ring.push(rec(i));
        }
        let snap = ring.snapshot();
        let firsts: Vec<u64> = snap.iter().map(|r| r[0]).collect();
        assert_eq!(firsts, vec![10, 9, 8, 7], "oldest evicted, newest first");
        assert_eq!(snap[0][1], 100);
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn partially_filled_ring_returns_only_written_slots() {
        let ring = SeqRing::new(8);
        ring.push(rec(1));
        ring.push(rec(2));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0][0], 2);
        assert_eq!(snap[1][0], 1);
    }

    #[test]
    fn concurrent_pushes_and_snapshots_stay_coherent() {
        use std::sync::Arc;
        let ring = Arc::new(SeqRing::new(16));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let v = t * 1000 + i;
                        ring.push(rec(v));
                    }
                })
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for r in ring.snapshot() {
                        // Field invariant: f[1] == 10 * f[0]; a torn record
                        // would break it.
                        assert_eq!(r[1], r[0] * 10, "torn record surfaced");
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert!(ring.snapshot().len() <= 16);
        assert!(!ring.snapshot().is_empty());
    }
}

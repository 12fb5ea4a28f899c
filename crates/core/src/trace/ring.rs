//! Fixed-memory, lock-free seqlock rings: the one slot protocol behind the
//! span trace and the flight recorder (DESIGN.md §5e, §5j).
//!
//! The crate-private `SeqRing<W>` owns the protocol; the public rings are
//! codecs over it. [`SpanRing`] (below) packs one begin/end [`SpanEvent`]
//! into three payload words, and [`super::flightrec::FlightRing`] packs
//! one completed-request summary into `3 + STAGE_WORDS`. The geometry is
//! fixed at construction (power-of-two slot count, a stamp plus `W` `u64`
//! atomics per slot — 32 bytes for a span), so a fully saturated ring
//! allocates nothing: the same fixed-footprint philosophy as
//! [`crate::telemetry::LatencyHistogram`].
//!
//! ## Slot protocol (seqlock per slot)
//!
//! Writers claim a global monotone sequence number with one `fetch_add` on
//! `head`, map it onto a slot with a mask, and publish in `W + 2` stores:
//!
//! ```text
//! stamp    <- 0          (invalidate: readers skip half-written slots)
//! words[i] <- payload    (in index order; the codec's tag word carries the
//!                         low sequence bits, see SeqTag)
//! stamp    <- seq + 1    (validate: nonzero stamp encodes seq)
//! ```
//!
//! Readers load `stamp`, skip zero, load every word, then re-load `stamp`
//! and accept only if both stamps agree *and* the sequence bits embedded
//! in the tag word match the stamp. The double-stamp check defeats a writer
//! racing the read; the embedded-seq check defeats two *different* writers
//! lapping the ring between the reader's loads (their stamps would differ
//! by a multiple of the capacity, but their tag bits differ too). Under the
//! sequentially-consistent interleave model this is proven exhaustively
//! (`interleave_models.rs`); under real weak memory the acquire/release
//! pairing keeps the data loads between the two stamp loads.
//!
//! `clear()` zeroes only the stamps: `head` keeps counting, so `pushed()`
//! is a proper monotone counter suitable for a Prometheus `_total` series. As with `LatencyHistogram::reset`, a writer
//! mid-push during a clear may land its record after the clear — benign,
//! documented, and explored by the interleave model.

use crate::sync::{AtomicU64, Ordering};

/// Where a codec embeds the low sequence bits the lap check compares: the
/// top `bits` bits of payload word `word`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqTag {
    /// Index of the payload word carrying the tag.
    pub(crate) word: usize,
    /// How many low sequence bits the tag keeps (1..=63).
    pub(crate) bits: u32,
}

impl SeqTag {
    /// `seq`'s low `bits` bits, shifted to the top of the tag word; a codec
    /// ORs this into that word.
    pub(crate) fn embed(self, seq: u64) -> u64 {
        seq << (64 - self.bits)
    }
}

/// One ring slot: a per-slot seqlock over `W` payload atomics.
struct Slot<const W: usize> {
    /// `0` = invalid / mid-write; otherwise `seq + 1` of the resident record.
    stamp: AtomicU64,
    /// The codec's payload words.
    words: [AtomicU64; W],
}

/// Lock-free fixed-capacity ring of `W`-word records (see module docs for
/// the slot protocol).
pub(crate) struct SeqRing<const W: usize> {
    slots: Box<[Slot<W>]>,
    mask: u64,
    head: AtomicU64,
    tag: SeqTag,
}

impl<const W: usize> SeqRing<W> {
    /// Create a ring with `capacity` slots, rounded up to a power of two
    /// (minimum 2), whose codec embeds sequence bits at `tag`. All memory
    /// is allocated here; `push` never allocates.
    pub(crate) fn new(capacity: usize, tag: SeqTag) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot<W>> = (0..cap)
            .map(|_| Slot {
                stamp: AtomicU64::new(0),
                words: [(); W].map(|()| AtomicU64::new(0)),
            })
            .collect();
        SeqRing {
            slots: slots.into_boxed_slice(),
            mask: (cap as u64) - 1,
            head: AtomicU64::new(0),
            tag,
        }
    }

    /// Number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Monotone count of records ever pushed (survives wraps and
    /// [`clear`]; suitable as a Prometheus counter).
    ///
    /// [`clear`]: SeqRing::clear
    pub(crate) fn pushed(&self) -> u64 {
        // Ordering: Relaxed — a monotone statistic read for reporting; no
        // other memory depends on its value.
        self.head.load(Ordering::Relaxed)
    }

    /// Push one record, `encode`d from its claimed sequence number.
    /// Wait-free for writers: one `fetch_add` plus `W + 2` stores; old
    /// records are overwritten once the ring wraps.
    pub(crate) fn push(&self, encode: impl FnOnce(u64) -> [u64; W]) {
        // Ordering: Relaxed — the fetch_add only needs atomicity to hand
        // out unique sequence numbers; publication order is carried by the
        // Release stores below.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let words = encode(seq);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Ordering: Release on the invalidation store so it cannot be
        // reordered after the data stores from the *previous* occupant's
        // perspective; readers that see stamp == 0 skip the slot.
        slot.stamp.store(0, Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            // Ordering: Release on every data store — all must be visible
            // before the validating stamp store below is observed.
            cell.store(word, Ordering::Release);
        }
        // Ordering: Release — publishes the slot; a reader that acquires
        // this stamp value observes every data store above.
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Seeded *torn* push used only by the interleave meta-test: validates
    /// the stamp **before** storing payload word `late`, so a racing reader
    /// can accept a stale value there. Proves the model checker actually
    /// sees through the slot protocol.
    #[cfg(interleave)]
    pub(crate) fn model_torn_push(&self, late: usize, encode: impl FnOnce(u64) -> [u64; W]) {
        // Ordering: Relaxed — same claim as `push`; the bug under test is
        // the store sequencing below, not the claim.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let words = encode(seq);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Ordering: Release — mirrors `push`.
        slot.stamp.store(0, Ordering::Release);
        for (i, (cell, word)) in slot.words.iter().zip(words).enumerate() {
            if i != late {
                // Ordering: Release — mirrors `push` for the data stores.
                cell.store(word, Ordering::Release);
            }
        }
        // BUG (seeded): the slot is validated before word `late` lands.
        // Ordering: Release — mirrors `push`.
        slot.stamp.store(seq + 1, Ordering::Release);
        slot.words[late].store(words[late], Ordering::Release);
    }

    /// Snapshot every currently-valid slot that `decode` accepts, sorted by
    /// sequence number. Slots being rewritten concurrently, or lapped
    /// between the reader's loads, are skipped (seqlock reject), so the
    /// snapshot is always internally consistent, never blocking any writer.
    pub(crate) fn snapshot<T>(&self, decode: impl Fn(u64, [u64; W]) -> Option<T>) -> Vec<T> {
        let mut records = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // Ordering: Acquire — pairs with the writer's validating
            // Release store; on acceptance the data loads below observe
            // the matching values.
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            // Ordering: Acquire on the data loads keeps them ordered
            // before the re-validating stamp load below.
            let words = slot.words.each_ref().map(|w| w.load(Ordering::Acquire));
            // Ordering: Acquire — the second stamp read must not be
            // hoisted above the data loads.
            let s2 = slot.stamp.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // a writer raced us; drop the slot
            }
            let seq = s1 - 1;
            if (words[self.tag.word] ^ self.tag.embed(seq)) >> (64 - self.tag.bits) != 0 {
                continue; // two writers lapped the slot between our loads
            }
            if let Some(record) = decode(seq, words) {
                records.push((seq, record));
            }
        }
        records.sort_by_key(|&(seq, _)| seq);
        records.into_iter().map(|(_, record)| record).collect()
    }

    /// Invalidate every slot without resetting the monotone push counter.
    /// A writer mid-push may still land one record after the clear — the
    /// same benign window as `LatencyHistogram::reset`, explored by the
    /// interleave model.
    pub(crate) fn clear(&self) {
        for slot in self.slots.iter() {
            // Ordering: Release — keeps the invalidation ordered after any
            // prior reads of the slot on this thread; readers merely skip
            // zero stamps.
            slot.stamp.store(0, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// The span codec
// ---------------------------------------------------------------------------

/// What a span event marks: the beginning or the end of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The span was entered (timestamp = entry time).
    Begin,
    /// The span was exited (timestamp = exit time).
    End,
}

/// One decoded span event captured from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global monotone sequence number assigned at push time.
    pub seq: u64,
    /// Index into [`super::Stage::ALL`] identifying the instrumented stage.
    pub stage: u8,
    /// Whether this marks the begin or the end of the span.
    pub kind: SpanKind,
    /// Low 16 bits of the emitting thread's trace id.
    pub tid: u16,
    /// Nanoseconds since the process trace epoch ([`super::now_ns`]).
    pub ns: u64,
    /// Originating request id ([`super::flightrec::current_request_id`]);
    /// 0 when the span ran outside any request scope.
    pub rid: u64,
}

/// Span payload words, in store order: `[meta, ns, rid]`, where `meta`
/// packs `stage | kind << 8 | tid << 16 | seq low 32 << 32`.
const SPAN_WORDS: usize = 3;
/// The span codec's lap-check tag: the low 32 sequence bits, at the top of
/// `meta`.
const SPAN_TAG: SeqTag = SeqTag { word: 0, bits: 32 };
const KIND_BIT: u64 = 1 << 8;
const TID_SHIFT: u32 = 16;

fn span_words(
    stage: u8,
    kind: SpanKind,
    tid: u16,
    ns: u64,
    rid: u64,
    seq: u64,
) -> [u64; SPAN_WORDS] {
    let kind_bit = match kind {
        SpanKind::Begin => 0,
        SpanKind::End => KIND_BIT,
    };
    let meta = u64::from(stage) | kind_bit | (u64::from(tid) << TID_SHIFT) | SPAN_TAG.embed(seq);
    [meta, ns, rid]
}

/// Lock-free fixed-capacity ring of span events: the span codec over the
/// crate's one seqlock ring (see module docs for the slot protocol).
pub struct SpanRing {
    ring: SeqRing<SPAN_WORDS>,
}

impl SpanRing {
    /// Create a ring with `capacity` slots, rounded up to a power of two
    /// (minimum 2). All memory is allocated here; `push` never allocates.
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            ring: SeqRing::new(capacity, SPAN_TAG),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Monotone count of events ever pushed (survives wraps and
    /// [`clear`](SpanRing::clear); suitable as a Prometheus counter).
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Push one event. Wait-free: one `fetch_add` plus five stores; old
    /// events are overwritten once the ring wraps.
    pub fn push(&self, stage: u8, kind: SpanKind, tid: u16, ns: u64, rid: u64) {
        self.ring
            .push(|seq| span_words(stage, kind, tid, ns, rid, seq));
    }

    /// Seeded *torn* push used only by the interleave meta-test: the slot
    /// is validated before `ns` lands, so a racing reader can accept a
    /// stale timestamp.
    #[cfg(interleave)]
    pub fn model_torn_push(&self, stage: u8, kind: SpanKind, tid: u16, ns: u64, rid: u64) {
        self.ring
            .model_torn_push(1, |seq| span_words(stage, kind, tid, ns, rid, seq));
    }

    /// Snapshot every currently-valid event, sorted by sequence number.
    /// Slots mid-rewrite are skipped, never blocking any writer.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.ring.snapshot(|seq, [meta, ns, rid]| {
            Some(SpanEvent {
                seq,
                stage: meta as u8,
                kind: if meta & KIND_BIT != 0 {
                    SpanKind::End
                } else {
                    SpanKind::Begin
                },
                tid: (meta >> TID_SHIFT) as u16,
                ns,
                rid,
            })
        })
    }

    /// Invalidate every event without resetting the monotone push counter.
    pub fn clear(&self) {
        self.ring.clear();
    }
}

#[cfg(all(test, not(interleave)))]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(SpanRing::new(0).capacity(), 2);
        assert_eq!(SpanRing::new(3).capacity(), 4);
        assert_eq!(SpanRing::new(8).capacity(), 8);
    }

    #[test]
    fn slot_footprints_are_a_stamp_plus_the_codec_words() {
        use crate::trace::flightrec::STAGE_WORDS;
        assert_eq!(std::mem::size_of::<Slot<SPAN_WORDS>>(), 4 * 8);
        assert_eq!(
            std::mem::size_of::<Slot<{ 3 + STAGE_WORDS }>>(),
            (4 + STAGE_WORDS) * 8
        );
    }

    #[test]
    fn push_snapshot_round_trip() {
        let ring = SpanRing::new(8);
        ring.push(3, SpanKind::Begin, 7, 1_000, 42);
        ring.push(3, SpanKind::End, 7, 2_500, 42);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].stage, 3);
        assert_eq!(events[0].kind, SpanKind::Begin);
        assert_eq!(events[0].tid, 7);
        assert_eq!(events[0].ns, 1_000);
        assert_eq!(events[0].rid, 42);
        assert_eq!(events[1].kind, SpanKind::End);
        assert_eq!(events[1].ns, 2_500);
        assert_eq!(events[1].rid, 42);
        assert_eq!(ring.pushed(), 2);
    }

    #[test]
    fn wrap_overwrites_oldest() {
        let ring = SpanRing::new(2);
        for i in 0..5u64 {
            ring.push(0, SpanKind::Begin, 0, 100 * i, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 2, "only the newest capacity slots survive");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(ring.pushed(), 5, "push counter is monotone through wraps");
    }

    #[test]
    fn clear_empties_slots_but_not_counter() {
        let ring = SpanRing::new(4);
        ring.push(1, SpanKind::Begin, 0, 10, 0);
        ring.push(1, SpanKind::End, 0, 20, 0);
        ring.clear();
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 2);
        ring.push(2, SpanKind::Begin, 1, 30, 0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 2, "sequence numbering continues after clear");
    }

    #[test]
    fn lap_check_drops_a_slot_whose_tag_disagrees_with_its_stamp() {
        let ring = SpanRing::new(4);
        ring.push(1, SpanKind::Begin, 0, 10, 0);
        // Stamp 1 with the tag of seq 2: a lapping writer's meta.
        ring.ring
            .push(|seq| span_words(2, SpanKind::End, 0, 20, 0, seq + 1));
        // Stamp 2 with a tag that agrees in the low 32 bits the codec keeps.
        ring.ring
            .push(|seq| span_words(3, SpanKind::End, 0, 30, 0, seq + (1 << 32)));
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 2], "the mis-tagged slot must be dropped");
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_snapshot() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::new(16));
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        // Encode the writer id in tid, ns, and rid so a
                        // torn read would be detectable below.
                        ring.push(
                            t as u8,
                            SpanKind::Begin,
                            t,
                            u64::from(t) * 1_000_000 + i,
                            u64::from(t) + 1,
                        );
                    }
                });
            }
            for _ in 0..50 {
                for e in ring.snapshot() {
                    assert_eq!(
                        e.ns / 1_000_000,
                        u64::from(e.tid),
                        "snapshot observed a torn slot"
                    );
                    assert_eq!(e.stage, e.tid as u8);
                    assert_eq!(e.rid, u64::from(e.tid) + 1, "rid column torn");
                }
            }
        });
        assert_eq!(ring.pushed(), 800);
    }
}

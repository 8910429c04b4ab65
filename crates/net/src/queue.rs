//! Event queues and timer bookkeeping for the simulator hot loop.
//!
//! The discrete-event core orders every pending event by `(time, seq)` —
//! absolute microsecond first, global insertion sequence as the tie-break.
//! This module provides the simulator's priority queue over that order and
//! the reference implementation it is checked against:
//!
//! * [`TimerWheel`] — a hierarchical timer wheel (4 levels × 64 slots of
//!   1 µs ticks, so a 2²⁴ µs ≈ 16.8 s in-wheel horizon) backed by a
//!   slab-allocated event arena with intrusive bucket lists. Arm (push) and
//!   fire (pop) are O(1) amortized: no per-event heap allocation, no sift.
//!   Events beyond the horizon sit in a small overflow heap and are promoted
//!   as the wheel's cursor approaches them.
//! * [`HeapQueue`] — the reference `BinaryHeap` implementation the wheel
//!   replaced. It is an oracle, not a runtime choice: only this module's
//!   equivalence tests and the `event_queue` benchmark
//!   (`BENCH_event_queue.json`) use it.
//!
//! Determinism is the whole point: [`TimerWheel::pop`] yields *exactly* the
//! global `(time, seq)` minimum, byte for byte what the heap yields, so a run
//! is a pure function of its seed. DESIGN.md §12 carries the full argument;
//! the invariants are restated inline below.
//!
//! [`TimerSlab`] replaces the old `armed: HashSet<TimerId>` timer set with
//! generation-stamped slab slots: arm/cancel/fire are array index + integer
//! compare, no hashing, and a recycled slot's bumped generation makes stale
//! handles (cancel after fire, double cancel) detectably dead.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// log₂ of the slots per wheel level.
pub const WHEEL_SLOT_BITS: u32 = 6;
/// Slots per level (64).
pub const WHEEL_SLOTS: usize = 1 << WHEEL_SLOT_BITS;
/// Number of hierarchical levels.
pub const WHEEL_LEVELS: usize = 4;
/// In-wheel horizon in ticks (µs): deltas at or beyond this go to the
/// overflow heap until the cursor gets close enough. 2²⁴ µs ≈ 16.8 s — far
/// past every in-sim RTO, cadence, and chaos window, so overflow traffic is
/// limited to genuinely far-future timers.
pub const WHEEL_HORIZON: u64 = 1 << (WHEEL_SLOT_BITS * WHEEL_LEVELS as u32);

/// Null index for the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// One arena slot: an event's timestamp/sequence plus an intrusive link.
/// Freed slots are chained through `next` on the arena's free list, so the
/// steady-state event loop recycles slots instead of allocating.
#[derive(Debug)]
struct EventSlot<T> {
    time: u64,
    seq: u64,
    next: u32,
    payload: Option<T>,
}

/// Hierarchical timer wheel over `(time, seq)`-ordered events.
///
/// Geometry: level `L` covers deltas in `[64^L, 64^(L+1))` ticks from the
/// cursor (level 0 holds the next 64 µs at exact-tick resolution); the slot
/// for time `t` at level `L` is `(t >> 6L) & 63`. Advancing works on
/// *boundaries*: the cursor either jumps straight to the earliest level-0
/// tick and expires it, or to the range start of the earliest occupied
/// higher-level bucket and cascades that bucket's entries down one or more
/// levels. Because an entry's bucket boundary is never later than the entry
/// itself, the cursor can never step over a pending event.
#[derive(Debug)]
pub struct TimerWheel<T> {
    arena: Vec<EventSlot<T>>,
    /// Head of the free-slot list threaded through `EventSlot::next`.
    free: u32,
    /// Intrusive list heads, `buckets[level][slot]`.
    buckets: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    /// Per-level occupancy bitmap — bit `s` set iff `buckets[level][s]` is
    /// non-empty. Finding the next occupied slot is a rotate + trailing_zeros.
    occupied: [u64; WHEEL_LEVELS],
    /// Events at `delta >= WHEEL_HORIZON` from the cursor, ordered by
    /// `(time, seq, slot)`. Promoted into the wheel as the cursor approaches.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events pushed with `time < cursor`. Settling for an exact
    /// [`peek_time`](Self::peek_time) advances the cursor to the next event
    /// time, which can be *ahead* of the simulator clock; the sharded
    /// engine's epoch exchange then legitimately injects events in the gap.
    /// Those land here and drain strictly before the wheel (every antedated
    /// time is < cursor ≤ every wheel/batch time), preserving exact global
    /// `(time, seq)` order. Empty in single-shard hot loops.
    antedated: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Current wheel time. Only ever advances, and never past a pending
    /// wheel/overflow event.
    cursor: u64,
    /// The expired level-0 bucket currently being drained, in `seq` order.
    /// All entries share timestamp `batch_time` (== cursor): a level-0 slot
    /// holds exactly one tick.
    batch: VecDeque<(u64, T)>,
    batch_time: u64,
    /// Total pending events (antedated + batch + wheel + overflow).
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            arena: Vec::new(),
            free: NIL,
            buckets: [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS],
            occupied: [0; WHEEL_LEVELS],
            overflow: BinaryHeap::new(),
            antedated: BinaryHeap::new(),
            cursor: 0,
            batch: VecDeque::new(),
            batch_time: 0,
            len: 0,
        }
    }

    /// Pending event count, including tombstoned (cancelled-but-queued)
    /// timer events — the same accounting the reference heap's `len()` has.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `payload` at `(time, seq)`. `seq` must be strictly greater
    /// than every previously pushed `seq` (the simulator's global counter).
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        self.len += 1;
        // Re-pushing at the tick currently being drained: `seq` is globally
        // monotone, so appending keeps the batch sorted.
        if time == self.batch_time && !self.batch.is_empty() {
            debug_assert!(time >= self.cursor || self.cursor == self.batch_time);
            self.batch.push_back((seq, payload));
            return;
        }
        if time < self.cursor {
            let idx = self.alloc(time, seq, payload);
            self.antedated.push(Reverse((time, seq, idx)));
            return;
        }
        let idx = self.alloc(time, seq, payload);
        self.place(idx, time, seq);
    }

    /// Earliest pending `(time, seq)` event's time, or `None` when empty.
    /// Takes `&mut self`: computing an *exact* minimum settles the wheel
    /// (advances the cursor to the next event, cascading buckets on the way).
    pub fn peek_time(&mut self) -> Option<u64> {
        if let Some(&Reverse((t, _, _))) = self.antedated.peek() {
            // Antedated entries are always earlier than anything in the
            // wheel (time < cursor ≤ wheel times), so no settle needed.
            return Some(t);
        }
        self.settle();
        if self.batch.is_empty() {
            None
        } else {
            Some(self.batch_time)
        }
    }

    /// Remove and return the globally earliest `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if let Some(Reverse((t, s, idx))) = self.antedated.pop() {
            self.len -= 1;
            let payload = self.release(idx);
            return Some((t, s, payload));
        }
        self.settle();
        let (seq, payload) = self.batch.pop_front()?;
        self.len -= 1;
        Some((self.batch_time, seq, payload))
    }

    /// Take a slot off the free list (or grow the arena) for an event.
    fn alloc(&mut self, time: u64, seq: u64, payload: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.arena[idx as usize];
            self.free = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.next = NIL;
            debug_assert!(slot.payload.is_none());
            slot.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.arena.len()).expect("event arena overflow");
            self.arena.push(EventSlot { time, seq, next: NIL, payload: Some(payload) });
            idx
        }
    }

    /// Return a slot's payload and put the slot back on the free list.
    fn release(&mut self, idx: u32) -> T {
        let slot = &mut self.arena[idx as usize];
        let payload = slot.payload.take().expect("releasing an empty event slot");
        slot.next = self.free;
        self.free = idx;
        payload
    }

    /// File slot `idx` (holding `(time, seq)`, with `time >= cursor`) into
    /// the wheel or the overflow heap.
    fn place(&mut self, idx: u32, time: u64, seq: u64) {
        debug_assert!(time >= self.cursor);
        let delta = time - self.cursor;
        if delta >= WHEEL_HORIZON {
            self.overflow.push(Reverse((time, seq, idx)));
            return;
        }
        let level = level_for(delta);
        let shift = WHEEL_SLOT_BITS * level as u32;
        let slot = ((time >> shift) & (WHEEL_SLOTS as u64 - 1)) as usize;
        self.arena[idx as usize].next = self.buckets[level][slot];
        self.buckets[level][slot] = idx;
        self.occupied[level] |= 1u64 << slot;
    }

    /// Advance the cursor until the earliest wheel/overflow event sits in the
    /// batch, cascading higher-level buckets down as their range starts come
    /// due. No-op while the current batch still has entries (their tick *is*
    /// the earliest time) or when the wheel is drained.
    fn settle(&mut self) {
        if !self.batch.is_empty() {
            return;
        }
        loop {
            // Level-0 candidate: the nearest occupied tick, distance 0..=63
            // from the cursor (distance 0 = events at the cursor itself).
            let t0 = if self.occupied[0] != 0 {
                let rot = self.occupied[0].rotate_right((self.cursor & 63) as u32);
                let t0 = self.cursor + u64::from(rot.trailing_zeros());
                // Fast path: an event inside the cursor's own level-1 window
                // beats every competitor without computing a single bound.
                // Higher-level boundaries are slot-span multiples strictly
                // above the cursor, so the nearest sits at the window edge;
                // overflow entries are ≥ `WHEEL_HORIZON - 63` ticks out (the
                // promotion sweep runs on every cursor hop, and `expire`
                // moves the cursor ≤ 63 ticks past the last sweep).
                if t0 < ((self.cursor >> WHEEL_SLOT_BITS) + 1) << WHEEL_SLOT_BITS {
                    return self.expire(t0);
                }
                Some(t0)
            } else {
                None
            };
            // Higher levels contribute the *range start* of their earliest
            // occupied bucket. Distance is 1..=64: the cursor's own slot at a
            // higher level can only hold next-revolution entries (its
            // current-revolution entries cascaded when the cursor reached the
            // bucket's range start — see the cascade rule below).
            let mut bounds = [None::<u64>; WHEEL_LEVELS];
            let mut nearest: Option<u64> = None;
            for (level, bound) in bounds.iter_mut().enumerate().skip(1) {
                if self.occupied[level] == 0 {
                    continue;
                }
                let shift = WHEEL_SLOT_BITS * level as u32;
                let pos = self.cursor >> shift;
                let rot = self.occupied[level].rotate_right((pos as u32 & 63) + 1);
                let dist = u64::from(rot.trailing_zeros()) + 1;
                let boundary = (pos + dist) << shift;
                *bound = Some(boundary);
                if nearest.is_none_or(|b| boundary < b) {
                    nearest = Some(boundary);
                }
            }
            if let Some(&Reverse((t, _, _))) = self.overflow.peek() {
                if nearest.is_none_or(|b| t < b) {
                    nearest = Some(t);
                }
            }
            let hb = match (t0, nearest) {
                (None, None) => return,
                (Some(t0), None) => return self.expire(t0),
                (Some(t0), Some(hb)) if t0 < hb => return self.expire(t0),
                (_, Some(hb)) => hb,
            };
            // One or more levels (and possibly the overflow heap) come due at
            // exactly `hb`. Every level whose boundary equals `hb` MUST
            // cascade in this same step: once the cursor sits on a bucket's
            // range start, the distance search above would misread that
            // bucket as next-revolution. Cascade lowest level first so
            // demoted entries land in buckets already emptied this step.
            self.cursor = hb;
            for (level, bound) in bounds.iter().enumerate().skip(1) {
                if *bound == Some(hb) {
                    self.cascade(level);
                }
            }
            // Promote overflow events that are now within the horizon.
            while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
                if t - self.cursor >= WHEEL_HORIZON {
                    break;
                }
                let Reverse((t, s, idx)) = self.overflow.pop().expect("peeked");
                self.place(idx, t, s);
            }
        }
    }

    /// Expire the level-0 bucket at tick `t0` into the batch, sorted by seq.
    fn expire(&mut self, t0: u64) {
        self.cursor = t0;
        let slot = (t0 & 63) as usize;
        let mut idx = self.buckets[0][slot];
        self.buckets[0][slot] = NIL;
        self.occupied[0] &= !(1u64 << slot);
        debug_assert!(idx != NIL, "expired an empty level-0 bucket");
        debug_assert!(self.batch.is_empty());
        while idx != NIL {
            let next = self.arena[idx as usize].next;
            let seq = self.arena[idx as usize].seq;
            debug_assert_eq!(self.arena[idx as usize].time, t0);
            let payload = self.release(idx);
            self.batch.push_back((seq, payload));
            idx = next;
        }
        // Intrusive lists are LIFO; a level-0 bucket holds exactly one tick,
        // so sorting by seq alone restores global (time, seq) order.
        self.batch.make_contiguous().sort_unstable_by_key(|&(seq, _)| seq);
        self.batch_time = t0;
    }

    /// Demote the bucket whose range starts at the cursor from `level` into
    /// lower levels (or level-0 ticks).
    fn cascade(&mut self, level: usize) {
        let shift = WHEEL_SLOT_BITS * level as u32;
        let pos = self.cursor >> shift;
        let slot = (pos & 63) as usize;
        let mut idx = self.buckets[level][slot];
        self.buckets[level][slot] = NIL;
        self.occupied[level] &= !(1u64 << slot);
        while idx != NIL {
            let next = self.arena[idx as usize].next;
            let time = self.arena[idx as usize].time;
            let seq = self.arena[idx as usize].seq;
            debug_assert_eq!(time >> shift, pos, "cross-revolution entry in cascaded bucket");
            self.place(idx, time, seq);
            idx = next;
        }
    }
}

/// The reference queue: a `(time, seq)`-ordered binary heap. This is the
/// exact structure the simulator used before the wheel; it stays as the
/// equivalence oracle and the "before" side of `BENCH_event_queue.json`.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
}

#[derive(Debug)]
struct HeapEntry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<T> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue { heap: BinaryHeap::new() }
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        self.heap.push(Reverse(HeapEntry { time, seq, payload }));
    }

    /// Earliest pending event's time (`&mut self` only for API parity with
    /// the wheel, which settles on peek).
    pub fn peek_time(&mut self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Remove and return the earliest `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.payload))
    }
}

/// Wheel level for a delta known to be `< WHEEL_HORIZON`.
fn level_for(delta: u64) -> usize {
    debug_assert!(delta < WHEEL_HORIZON);
    if delta < 1 << WHEEL_SLOT_BITS {
        0
    } else if delta < 1 << (2 * WHEEL_SLOT_BITS) {
        1
    } else if delta < 1 << (3 * WHEEL_SLOT_BITS) {
        2
    } else {
        3
    }
}

/// Opaque handle to an armed timer slot: slab index + the generation the
/// slot had when armed. A stale handle (slot since recycled) no longer
/// matches the slot's generation, so cancel-after-fire and double-cancel are
/// cheap no-ops instead of hash-set probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy)]
struct TimerSlot {
    gen: u32,
    next_free: u32,
}

/// Generation-stamped timer slab: the O(1), hash-free replacement for the
/// simulator's old `armed: HashSet<TimerId>`. `arm` hands out a token;
/// exactly one subsequent [`disarm`](Self::disarm) (from either the cancel
/// path or the fire path — whichever gets there first) returns `true` and
/// recycles the slot; every later call with the same token sees a bumped
/// generation and returns `false`.
#[derive(Debug, Default)]
pub struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: u32,
    armed: usize,
}

impl TimerSlab {
    /// An empty slab.
    pub fn new() -> TimerSlab {
        TimerSlab { slots: Vec::new(), free: NIL, armed: 0 }
    }

    /// Number of currently armed timers.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// Allocated slot capacity (for bookkeeping tests: churn must recycle
    /// slots, not grow the slab).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Arm a timer, returning its token.
    pub fn arm(&mut self) -> TimerToken {
        self.armed += 1;
        if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next_free;
            TimerToken { slot, gen: self.slots[slot as usize].gen }
        } else {
            let slot = u32::try_from(self.slots.len()).expect("timer slab overflow");
            self.slots.push(TimerSlot { gen: 0, next_free: NIL });
            TimerToken { slot, gen: 0 }
        }
    }

    /// Disarm the timer behind `token`. Returns `true` iff the token was
    /// still live — i.e. this call is the one that retires it. The fire path
    /// uses the return value to drop tombstoned (already-cancelled) events.
    pub fn disarm(&mut self, token: TimerToken) -> bool {
        let slot = &mut self.slots[token.slot as usize];
        if slot.gen != token.gen {
            return false;
        }
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.free;
        self.free = token.slot;
        self.armed -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Drain both queues fully, asserting identical (time, seq, payload)
    /// streams.
    fn assert_drain_identical(mut wheel: TimerWheel<u64>, mut heap: HeapQueue<u64>) {
        loop {
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (w, h) => assert_eq!(w, h),
            }
        }
    }

    #[test]
    fn single_event_round_trips() {
        let mut w = TimerWheel::new();
        w.push(42, 1, "x");
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_time(), Some(42));
        assert_eq!(w.pop(), Some((42, 1, "x")));
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn equal_times_break_by_seq() {
        let mut w = TimerWheel::new();
        w.push(10, 3, "c");
        w.push(10, 1, "a");
        w.push(10, 2, "b");
        assert_eq!(w.pop(), Some((10, 1, "a")));
        assert_eq!(w.pop(), Some((10, 2, "b")));
        assert_eq!(w.pop(), Some((10, 3, "c")));
    }

    #[test]
    fn far_future_events_overflow_and_promote() {
        let mut w = TimerWheel::new();
        w.push(WHEEL_HORIZON * 3 + 17, 1, "far");
        w.push(5, 2, "near");
        assert_eq!(w.pop(), Some((5, 2, "near")));
        assert_eq!(w.peek_time(), Some(WHEEL_HORIZON * 3 + 17));
        assert_eq!(w.pop(), Some((WHEEL_HORIZON * 3 + 17, 1, "far")));
        assert!(w.is_empty());
    }

    #[test]
    fn push_below_cursor_still_pops_in_global_order() {
        let mut w = TimerWheel::new();
        w.push(1_000_000, 1, "late");
        // Settling for peek advances the cursor to 1_000_000...
        assert_eq!(w.peek_time(), Some(1_000_000));
        // ...and an epoch-exchange style injection lands before it.
        w.push(250_000, 2, "injected");
        w.push(250_000, 3, "injected2");
        assert_eq!(w.pop(), Some((250_000, 2, "injected")));
        assert_eq!(w.pop(), Some((250_000, 3, "injected2")));
        assert_eq!(w.pop(), Some((1_000_000, 1, "late")));
    }

    #[test]
    fn push_at_current_batch_tick_joins_the_batch() {
        let mut w = TimerWheel::new();
        w.push(7, 1, 10u64);
        assert_eq!(w.pop(), Some((7, 1, 10)));
        // Cursor now sits at 7; a handler pushing at "now" must fire next.
        w.push(7, 2, 20u64);
        w.push(8, 3, 30u64);
        assert_eq!(w.pop(), Some((7, 2, 20)));
        assert_eq!(w.pop(), Some((8, 3, 30)));
    }

    #[test]
    fn level_boundaries_cascade_correctly() {
        // Events straddling every level boundary, pushed out of order.
        let times =
            [63, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145, WHEEL_HORIZON - 1, WHEEL_HORIZON, 0];
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            w.push(t, seq as u64, t);
            h.push(t, seq as u64, t);
        }
        assert_drain_identical(w, h);
    }

    #[test]
    fn randomized_interleavings_match_heap() {
        // The core equivalence property test: random push/pop/peek
        // interleavings with the soak's kind of time mix (near deliveries,
        // second-scale cadences, far-future overflow, below-cursor
        // injections after settling peeks) produce identical streams.
        let mut rng = SimRng::new(0xE1E4);
        for round in 0..40 {
            let mut w = TimerWheel::new();
            let mut h = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64; // last popped time, like the sim clock
            for _ in 0..2_000 {
                match rng.range_u64(0, 10) {
                    // 60%: push at a soak-like delta from "now".
                    0..=5 => {
                        seq += 1;
                        let delta = match rng.range_u64(0, 100) {
                            0..=59 => rng.range_u64(0, 200_000),        // link RTTs
                            60..=89 => rng.range_u64(200_000, 5_000_000), // cadences
                            90..=97 => rng.range_u64(0, 64),             // sub-tick
                            _ => WHEEL_HORIZON + rng.range_u64(0, WHEEL_HORIZON), // overflow
                        };
                        w.push(now + delta, seq, seq);
                        h.push(now + delta, seq, seq);
                    }
                    // 30%: pop (drives the cursor forward).
                    6..=8 => {
                        let pw = w.pop();
                        assert_eq!(pw, h.pop(), "round {round}");
                        if let Some((t, _, _)) = pw {
                            now = t;
                        }
                    }
                    // 10%: exact peek — forces the wheel to settle, so later
                    // pushes near `now` exercise the antedated lane.
                    _ => {
                        assert_eq!(w.peek_time(), h.peek_time(), "round {round}");
                    }
                }
                assert_eq!(w.len(), h.len(), "round {round}");
            }
            assert_drain_identical(w, h);
        }
    }

    #[test]
    fn dense_same_tick_bursts_preserve_seq_order() {
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut seq = 0;
        for t in [100u64, 100, 101, 100, 163, 164, 100, 4096] {
            seq += 1;
            w.push(t, seq, seq);
            h.push(t, seq, seq);
        }
        assert_drain_identical(w, h);
    }

    #[test]
    fn arena_recycles_slots() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        for wave in 0..100u64 {
            for i in 0..50 {
                seq += 1;
                w.push(wave * 1000 + i, seq, seq);
            }
            for _ in 0..50 {
                w.pop().unwrap();
            }
        }
        // Steady-state churn must not grow the arena past one wave (+ slack
        // for entries parked across level boundaries mid-wave).
        assert!(w.arena.len() <= 128, "arena grew to {}", w.arena.len());
    }

    #[test]
    fn timer_slab_generations_make_stale_tokens_dead() {
        let mut slab = TimerSlab::new();
        let a = slab.arm();
        let b = slab.arm();
        assert_eq!(slab.armed(), 2);
        assert!(slab.disarm(a), "first disarm retires the timer");
        assert!(!slab.disarm(a), "cancel after fire is a dead no-op");
        let c = slab.arm(); // recycles a's slot with a bumped generation
        assert_eq!(c.slot, a.slot);
        assert_ne!(c.gen, a.gen);
        assert!(!slab.disarm(a), "stale token cannot kill the recycled slot");
        assert!(slab.disarm(c));
        assert!(slab.disarm(b));
        assert_eq!(slab.armed(), 0);
    }

    #[test]
    fn timer_slab_churn_recycles_instead_of_growing() {
        let mut slab = TimerSlab::new();
        for _ in 0..10_000 {
            let t = slab.arm();
            assert!(slab.disarm(t));
        }
        assert_eq!(slab.capacity(), 1);
        assert_eq!(slab.armed(), 0);
    }
}

//! Event-queue throughput: timer wheel vs. reference binary heap.
//!
//! The simulator hot loop is pop → dispatch → push: every delivered frame,
//! timer and scrape goes through the simulator's [`TimerWheel`] once. This
//! harness replays that loop *without* the dispatch work, driving the queue
//! with the soak's event mix (frame RTTs, protocol timers, scrape cadences,
//! a far-future tail past the wheel horizon) at a steady depth, with a slice
//! of arms cancelled immediately — the tombstones the dispatch path skips,
//! exactly as [`pdagent_net::sim::Simulator`] does.
//!
//! The wheel and the reference [`HeapQueue`] replay the identical op stream
//! (same seed, same draw sequence) and fold every popped `(time, seq)` into
//! an FNV checksum, so the throughput comparison doubles as an equivalence
//! check: a speedup with a checksum mismatch is a bug, not a result. The
//! `event_queue` binary writes `BENCH_event_queue.json` and fails on
//! mismatch.

use std::time::Instant;

use pdagent_net::queue::{HeapQueue, TimerSlab, TimerToken, TimerWheel, WHEEL_HORIZON};
use pdagent_net::rng::SimRng;

/// Delay distribution a churn run draws arm offsets from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The soak's blend: mostly 50–200 ms frame RTTs, some millisecond
    /// protocol timers, second-scale cadences, and a 1% far-future tail
    /// that exercises overflow promotion.
    Soak,
    /// Everything lands in the wheel's lowest levels (< 4 ms).
    Near,
    /// Everything lands past the wheel horizon (overflow heap first).
    Far,
}

impl Mix {
    fn delta(self, rng: &mut SimRng) -> u64 {
        match self {
            Mix::Soak => {
                let bucket = rng.unit();
                if bucket < 0.55 {
                    rng.range_u64(50_000, 200_000) // frame/RTT scale
                } else if bucket < 0.80 {
                    rng.range_u64(1_000, 10_000) // protocol timers
                } else if bucket < 0.95 {
                    rng.range_u64(2_000_000, 5_000_000) // scrape cadences
                } else if bucket < 0.99 {
                    rng.range_u64(1, 100) // immediate work
                } else {
                    WHEEL_HORIZON + rng.range_u64(1, 40_000_000) // overflow tail
                }
            }
            Mix::Near => rng.range_u64(1, 4_000),
            Mix::Far => WHEEL_HORIZON + rng.range_u64(1, 40_000_000),
        }
    }
}

/// A pre-drawn op stream: one `(delay, cancel)` pair per arm. Generated
/// once, outside the timed replay, so the measurement isolates queue and
/// slab operations from the RNG cost of producing the workload.
pub struct ChurnPlan {
    arms: Vec<(u64, bool)>,
    depth: usize,
}

impl ChurnPlan {
    /// Draw `events + depth` arms from `mix`, tombstoning `cancel_pct` of
    /// them. The same plan replayed on both queues yields the same op
    /// stream draw-for-draw.
    pub fn new(events: u64, depth: usize, cancel_pct: f64, mix: Mix, seed: u64) -> ChurnPlan {
        let mut rng = SimRng::new(seed);
        let arms = (0..events as usize + depth)
            .map(|_| (mix.delta(&mut rng), rng.chance(cancel_pct)))
            .collect();
        ChurnPlan { arms, depth }
    }

    /// Pops the replay performs (arms beyond the prefill).
    pub fn events(&self) -> u64 {
        (self.arms.len() - self.depth) as u64
    }
}

/// The two operations a churn replay needs. The wheel and the heap expose
/// them as inherent methods; this trait lets one replay loop drive either.
trait ChurnQueue: Default {
    fn push(&mut self, time: u64, seq: u64, token: TimerToken);
    fn pop(&mut self) -> Option<(u64, u64, TimerToken)>;
}

impl ChurnQueue for TimerWheel<TimerToken> {
    fn push(&mut self, time: u64, seq: u64, token: TimerToken) {
        TimerWheel::push(self, time, seq, token);
    }
    fn pop(&mut self) -> Option<(u64, u64, TimerToken)> {
        TimerWheel::pop(self)
    }
}

impl ChurnQueue for HeapQueue<TimerToken> {
    fn push(&mut self, time: u64, seq: u64, token: TimerToken) {
        HeapQueue::push(self, time, seq, token);
    }
    fn pop(&mut self) -> Option<(u64, u64, TimerToken)> {
        HeapQueue::pop(self)
    }
}

/// Replay a plan's pop/arm rounds on the timer wheel at the plan's steady
/// queue depth. Returns an FNV-1a checksum over every popped `(time, seq)`
/// — identical plans must produce identical checksums on both queues.
pub fn churn_wheel(plan: &ChurnPlan) -> u64 {
    churn::<TimerWheel<TimerToken>>(plan)
}

/// [`churn_wheel`] on the reference binary heap.
pub fn churn_heap(plan: &ChurnPlan) -> u64 {
    churn::<HeapQueue<TimerToken>>(plan)
}

fn churn<Q: ChurnQueue>(plan: &ChurnPlan) -> u64 {
    let mut queue = Q::default();
    let mut slab = TimerSlab::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |time: u64, s: u64| {
        for word in [time, s] {
            checksum ^= word;
            checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };

    let arm = |queue: &mut Q,
               slab: &mut TimerSlab,
               seq: &mut u64,
               now: u64,
               (delay, cancel): (u64, bool)| {
        let token = slab.arm();
        *seq += 1;
        queue.push(now + delay, *seq, token);
        if cancel {
            slab.disarm(token); // tombstone: the event pops dead later
        }
    };

    let (prefill, steady) = plan.arms.split_at(plan.depth);
    for &a in prefill {
        arm(&mut queue, &mut slab, &mut seq, now, a);
    }
    for &a in steady {
        let (time, s, token) = queue.pop().expect("steady-state queue never drains");
        now = time;
        fold(time, s);
        // Live pops fire (generation matches, slot recycles); tombstoned
        // pops hit the stale-generation path and are skipped. Either way
        // one replacement arm keeps the depth constant.
        slab.disarm(token);
        arm(&mut queue, &mut slab, &mut seq, now, a);
    }
    checksum
}

/// One queue's timed replay.
#[derive(Debug, Clone)]
pub struct QueueRun {
    /// Wall seconds for the whole replay.
    pub wall_secs: f64,
    /// Pops per wall second.
    pub events_per_sec: f64,
    /// FNV checksum over the popped `(time, seq)` stream.
    pub checksum: u64,
}

/// The head-to-head result the `event_queue` binary reports.
#[derive(Debug, Clone)]
pub struct QueueBenchResult {
    /// Pops replayed per queue.
    pub events: u64,
    /// Steady queue depth.
    pub depth: usize,
    /// Fraction of arms tombstoned.
    pub cancel_pct: f64,
    /// Reference binary heap.
    pub heap: QueueRun,
    /// Timer wheel.
    pub wheel: QueueRun,
    /// `heap.wall_secs / wheel.wall_secs`.
    pub speedup: f64,
    /// Did both queues pop the identical `(time, seq)` stream?
    pub checksum_match: bool,
}

fn timed(churn: fn(&ChurnPlan) -> u64, plan: &ChurnPlan) -> QueueRun {
    let t0 = Instant::now();
    let checksum = churn(plan);
    let wall_secs = t0.elapsed().as_secs_f64();
    QueueRun {
        wall_secs,
        events_per_sec: if wall_secs > 0.0 { plan.events() as f64 / wall_secs } else { 0.0 },
        checksum,
    }
}

/// Run the head-to-head at the soak mix. One untimed warm-up per queue
/// primes allocator and caches; heap goes first so any residual warm-up bias
/// favours the *baseline*, making the reported speedup conservative.
pub fn run(events: u64, depth: usize, seed: u64) -> QueueBenchResult {
    const CANCEL_PCT: f64 = 0.3;
    let warm = ChurnPlan::new((events / 10).max(1), depth, CANCEL_PCT, Mix::Soak, seed);
    let plan = ChurnPlan::new(events, depth, CANCEL_PCT, Mix::Soak, seed);
    churn_heap(&warm);
    churn_wheel(&warm);
    let heap = timed(churn_heap, &plan);
    let wheel = timed(churn_wheel, &plan);
    QueueBenchResult {
        events,
        depth,
        cancel_pct: CANCEL_PCT,
        speedup: if wheel.wall_secs > 0.0 { heap.wall_secs / wheel.wall_secs } else { 0.0 },
        checksum_match: heap.checksum == wheel.checksum,
        heap,
        wheel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedulers_pop_identical_streams_at_every_mix() {
        for mix in [Mix::Soak, Mix::Near, Mix::Far] {
            let plan = ChurnPlan::new(4_000, 512, 0.3, mix, 7);
            let heap = churn_heap(&plan);
            let wheel = churn_wheel(&plan);
            assert_eq!(heap, wheel, "{mix:?} streams diverged");
        }
    }

    #[test]
    fn checksum_depends_on_the_stream() {
        let a = churn_wheel(&ChurnPlan::new(2_000, 256, 0.3, Mix::Soak, 7));
        let b = churn_wheel(&ChurnPlan::new(2_000, 256, 0.3, Mix::Soak, 8));
        assert_ne!(a, b, "different seeds must produce different streams");
    }

    #[test]
    fn head_to_head_reports_consistent_fields() {
        let r = run(5_000, 512, 42);
        assert!(r.checksum_match, "wheel and heap diverged");
        assert_eq!(r.events, 5_000);
        assert!(r.heap.wall_secs > 0.0 && r.wheel.wall_secs > 0.0);
        assert!(r.speedup > 0.0);
    }
}

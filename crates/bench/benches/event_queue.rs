//! Criterion micro-benchmarks for the event scheduler: arm/cancel/fire
//! mixes and far-vs-near timer distributions, each measured on the timer
//! wheel and on the reference binary heap. Op streams are pre-drawn
//! ([`ChurnPlan`]) so iterations time queue and slab work only. The
//! soak-mix numbers here are the per-iteration view of what the
//! `event_queue` binary reports as `BENCH_event_queue.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pdagent_bench::event_queue::{churn_heap, churn_wheel, ChurnPlan, Mix};

const EVENTS: u64 = 10_000;

/// Replays a pre-drawn op stream on one queue implementation.
type Churn = fn(&ChurnPlan) -> u64;

/// The queues every group compares: `(name, replay)`.
fn queues() -> [(&'static str, Churn); 2] {
    [("wheel", churn_wheel), ("heap", churn_heap)]
}

fn bench_arm_fire(c: &mut Criterion) {
    // Pure arm/fire churn at increasing steady depths — no cancels, so
    // every pop dispatches. Depth is where the heap's log n bites.
    let mut group = c.benchmark_group("event_queue/arm_fire");
    group.throughput(Throughput::Elements(EVENTS));
    for depth in [1_000usize, 10_000] {
        let plan = ChurnPlan::new(EVENTS, depth, 0.0, Mix::Soak, 42);
        for (name, churn) in queues() {
            group.bench_with_input(BenchmarkId::new(name, depth), &plan, |b, plan| {
                b.iter(|| std::hint::black_box(churn(plan)))
            });
        }
    }
    group.finish();
}

fn bench_arm_cancel_fire(c: &mut Criterion) {
    // The soak's real mix: ~30% of arms are cancelled and pop as
    // tombstones, exercising the generation-stamped slab on both paths.
    let mut group = c.benchmark_group("event_queue/arm_cancel_fire");
    group.throughput(Throughput::Elements(EVENTS));
    let plan = ChurnPlan::new(EVENTS, 10_000, 0.3, Mix::Soak, 42);
    for (name, churn) in queues() {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(churn(&plan)))
        });
    }
    group.finish();
}

fn bench_near_timers(c: &mut Criterion) {
    // Every delay lands in the wheel's lowest levels (< 4 ms): the wheel's
    // best case (O(1) bucket pushes, short cascades).
    let mut group = c.benchmark_group("event_queue/near_timers");
    group.throughput(Throughput::Elements(EVENTS));
    let plan = ChurnPlan::new(EVENTS, 10_000, 0.0, Mix::Near, 42);
    for (name, churn) in queues() {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(churn(&plan)))
        });
    }
    group.finish();
}

fn bench_far_timers(c: &mut Criterion) {
    // Every delay overshoots the 16.8 s wheel horizon: arms go to the
    // overflow heap and promote into the wheel as the cursor approaches —
    // the wheel's worst case, which must still stay competitive.
    let mut group = c.benchmark_group("event_queue/far_timers");
    group.throughput(Throughput::Elements(EVENTS));
    let plan = ChurnPlan::new(EVENTS, 10_000, 0.0, Mix::Far, 42);
    for (name, churn) in queues() {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(churn(&plan)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_arm_fire,
    bench_arm_cancel_fire,
    bench_near_timers,
    bench_far_timers
);
criterion_main!(benches);

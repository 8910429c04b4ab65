//! With no collector attached, the observability layer must be strictly
//! zero-cost: the span hooks on the message hot path perform no heap
//! allocation, and stamping a trace context onto a message adds none
//! beyond building the same message untraced.
//!
//! This file holds a single test so the global allocation counter is not
//! perturbed by concurrently running tests in the same binary.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pdagent::net::message::Message;
use pdagent::net::obs::ObsContext;
use pdagent::net::sim::{Ctx, Node, NodeId, Simulator};
use pdagent::net::time::SimDuration;

mod support;
use support::allocation_count;

/// Allocations observed inside the hook loop, written by the node.
static HOOK_ALLOCS: AtomicU64 = AtomicU64::new(u64::MAX);

struct HotPath;

impl Node for HotPath {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let before = allocation_count();
        for _ in 0..10_000 {
            let trace = ctx.obs_new_trace();
            let span = ctx.span_begin(trace, 0, "hot");
            let hop = ctx.span_begin_indexed(trace, span, "hop", Some(1));
            ctx.span_end(hop);
            ctx.span_end(span);
        }
        HOOK_ALLOCS.store(allocation_count() - before, Relaxed);
    }
}

#[test]
fn disabled_observability_is_allocation_free() {
    // 1. Span hooks inside a node callback, collector absent: zero allocs
    //    across 10k trace/span open/close cycles.
    let mut sim = Simulator::new(1);
    sim.add_node(Box::new(HotPath));
    sim.run_until_idle();
    assert_eq!(
        HOOK_ALLOCS.load(Relaxed),
        0,
        "span hooks allocated without a collector attached"
    );

    // 2. Stamping a context onto a message is a Copy-field write: building
    //    a traced message costs exactly the same allocations as building
    //    the identical untraced one. Warm the kind-interning cache first so
    //    both sides see the same steady state.
    let warm = Message::new("zeroalloc.kind", vec![1u8, 2, 3]);
    drop(warm);
    let t0 = allocation_count();
    let plain = Message::new("zeroalloc.kind", vec![4u8, 5, 6]);
    let t1 = allocation_count();
    let traced = Message::new("zeroalloc.kind", vec![4u8, 5, 6])
        .traced(ObsContext { trace: 7, span: 9 });
    let t2 = allocation_count();
    assert_eq!(t2 - t1, t1 - t0, "tracing a message added allocations");
    assert_eq!(plain, traced, "obs context must not affect message equality");
}

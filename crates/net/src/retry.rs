//! The one retransmission engine. [`crate::http::HttpClient`], the agent
//! transfer sender of `pdagent-mas` and [`crate::paging::PagingGateway`]
//! keep their pending tables in a [`Retransmitter`]: per key, the owner's
//! payload, the destination and frame once sent, an attempt count and at
//! most one live timer. It resends the frame after `base`, `base << 1`, …
//! (at most `base << cap`; `cap` 0 is a fixed timeout) until `attempts`
//! transmissions have timed out. Giving up and counting are the owner's.
//!
//! Tags are `lane << 61 | entry serial`, one [`Lane`] per kind of owner, so
//! a node hosting several engines routes each tag to the one that armed it.
//! A node's own timer tags stay below `1 << 61`.

use std::collections::HashMap;
use std::hash::Hash;

use crate::message::Message;
use crate::sim::{Ctx, NodeId, TimerId};
use crate::time::SimDuration;

const LANE_SHIFT: u32 = 61;

/// The tag range of one kind of engine owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Agent transfers.
    Transfer = 1,
    /// HTTP requests.
    Http = 2,
    /// Page deliveries.
    Page = 3,
}

/// What a fired timer tag meant to a [`Retransmitter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired<K> {
    /// The tag belongs to another lane or to no entry held.
    NotMine,
    /// A held entry's delay is up; nothing was sent.
    Due(K),
    /// The entry's frame went out again; `true` if the link accepted it.
    Retried(K, bool),
    /// Every attempt timed out. The entry stays, with no timer, until its
    /// owner transmits it again or takes it.
    Expired(K),
}

#[derive(Debug)]
struct Entry<T> {
    payload: T,
    /// The tag of every timer this entry arms.
    tag: u64,
    /// Destination and frame of the last transmit (`None` while held).
    sent: Option<(NodeId, Message)>,
    base: SimDuration,
    attempts: u32,
    timer: Option<TimerId>,
}

/// A pending table with one retransmission timer per entry (module docs).
#[derive(Debug)]
pub struct Retransmitter<K, T> {
    entries: HashMap<K, Entry<T>>,
    /// Each entry's tag → its key.
    keys: HashMap<u64, K>,
    /// `lane << LANE_SHIFT`.
    lane: u64,
    serial: u64,
    attempts: u32,
    cap: u32,
}

impl<K: Clone + Eq + Hash, T> Retransmitter<K, T> {
    /// An empty table in `lane` that sends a frame up to `attempts` times,
    /// doubling its timeout per retry at most `cap` times.
    pub fn new(lane: Lane, attempts: u32, cap: u32) -> Retransmitter<K, T> {
        let (entries, keys, lane) = (HashMap::new(), HashMap::new(), (lane as u64) << LANE_SHIFT);
        Retransmitter { entries, keys, lane, serial: 0, attempts, cap }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `key`'s payload.
    pub fn get(&self, key: &K) -> Option<&T> {
        self.entries.get(key).map(|e| &e.payload)
    }

    /// `key`'s payload, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut T> {
        self.entries.get_mut(key).map(|e| &mut e.payload)
    }

    /// Where `key`'s entry was last transmitted (`None` while held).
    pub fn sent_to(&self, key: &K) -> Option<NodeId> {
        self.entries.get(key)?.sent.as_ref().map(|(to, _)| *to)
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &T)> {
        self.entries.iter().map(|(k, e)| (k, &e.payload))
    }

    /// Take `payload` into custody under `key`, unsent and with no timer.
    pub fn insert(&mut self, key: K, payload: T) {
        self.serial += 1;
        let tag = self.lane | self.serial;
        self.keys.insert(tag, key.clone());
        let base = SimDuration::ZERO;
        let entry = Entry { payload, tag, sent: None, base, attempts: 0, timer: None };
        if let Some(old) = self.entries.insert(key, entry) {
            self.keys.remove(&old.tag);
        }
    }

    /// Arm `key`'s one timer for `delay`, cancelling any it had: an entry
    /// never transmitted comes [`Fired::Due`] then, with nothing sent.
    pub fn hold(&mut self, ctx: &mut Ctx<'_>, key: &K, delay: SimDuration) {
        let e = self.entries.get_mut(key).expect("a held entry");
        if let Some(old) = e.timer.replace(ctx.set_timer(delay, e.tag)) {
            ctx.cancel_timer(old);
        }
    }

    /// Send `wire` to `to` for `key`'s entry, restart its attempts at 1 and
    /// replace its timer with a `base` timeout. Returns whether the link
    /// accepted the frame.
    pub fn transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &K,
        to: NodeId,
        wire: Message,
        base: SimDuration,
    ) -> bool {
        let accepted = ctx.send(to, wire.clone());
        let e = self.entries.get_mut(key).expect("a held entry");
        (e.sent, e.base, e.attempts) = (Some((to, wire)), base, 1);
        self.hold(ctx, key, base);
        accepted
    }

    /// Release `key`'s entry, cancelling its timer.
    pub fn take(&mut self, ctx: &mut Ctx<'_>, key: &K) -> Option<T> {
        let e = self.entries.remove(key)?;
        self.keys.remove(&e.tag);
        if let Some(timer) = e.timer {
            ctx.cancel_timer(timer);
        }
        Some(e.payload)
    }

    /// Offer a fired timer tag: report a held entry due, resend a sent one,
    /// or report it expired.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Fired<K> {
        if tag >> LANE_SHIFT != self.lane >> LANE_SHIFT {
            return Fired::NotMine;
        }
        let Some(key) = self.keys.get(&tag).cloned() else { return Fired::NotMine };
        let e = self.entries.get_mut(&key).expect("a tagged entry is held");
        e.timer = None;
        let Some((to, wire)) = &e.sent else { return Fired::Due(key) };
        if e.attempts >= self.attempts {
            return Fired::Expired(key);
        }
        e.attempts += 1;
        let accepted = ctx.send(*to, wire.clone());
        let delay = SimDuration(e.base.0 << (e.attempts - 1).min(self.cap));
        self.hold(ctx, &key, delay);
        Fired::Retried(key, accepted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::{Node, Simulator};

    const SECOND: SimDuration = SimDuration::from_secs(1);
    /// The owner's private tag: take entry 1, or transmit it again.
    const TAG_OWN: u64 = 7;

    /// Sends entry 1 to a silent sink and logs every timer its engine claims.
    struct Owner {
        engine: Retransmitter<u64, &'static str>,
        sink: NodeId,
        /// Fire `TAG_OWN` this long after the start.
        own_at: Option<SimDuration>,
        /// On `TAG_OWN`, transmit entry 1 again instead of taking it.
        resend: bool,
        log: Vec<(u64, Fired<u64>)>,
    }

    impl Owner {
        fn new(attempts: u32, cap: u32, sink: NodeId) -> Owner {
            let engine = Retransmitter::new(Lane::Transfer, attempts, cap);
            Owner { engine, sink, own_at: None, resend: false, log: Vec::new() }
        }

        fn transmit(&mut self, ctx: &mut Ctx<'_>) {
            self.engine.transmit(ctx, &1, self.sink, Message::new("probe", vec![]), SECOND);
        }
    }

    impl Node for Owner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.engine.insert(1, "one");
            self.transmit(ctx);
            if let Some(at) = self.own_at {
                ctx.set_timer(at, TAG_OWN);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            match self.engine.on_timer(ctx, tag) {
                Fired::NotMine if self.resend => self.transmit(ctx),
                Fired::NotMine => assert_eq!(self.engine.take(ctx, &1), Some("one")),
                fired => self.log.push((ctx.now().0 / 1_000_000, fired)),
            }
        }
    }

    struct Sink;
    impl Node for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
    }

    /// Run an owner against a silent sink: its log, the entries it still
    /// holds and the frames the sink got.
    fn run(make: impl FnOnce(NodeId) -> Owner) -> (Vec<(u64, Fired<u64>)>, usize, u64) {
        let mut sim = Simulator::new(1);
        let sink = sim.add_node(Box::new(Sink));
        let owner = sim.add_node(Box::new(make(sink)));
        sim.connect(owner, sink, LinkSpec::ideal());
        sim.run_until_idle();
        let o = sim.node_ref::<Owner>(owner).unwrap();
        (o.log.clone(), o.engine.len(), sim.metrics(sink).msgs_received)
    }

    fn times(log: &[(u64, Fired<u64>)]) -> Vec<u64> {
        log.iter().map(|(at, _)| *at).collect()
    }

    #[test]
    fn fixed_and_doubling_delay_schedules() {
        let (fixed, ..) = run(|sink| Owner::new(4, 0, sink));
        assert_eq!(times(&fixed), [1, 2, 3, 4]);
        let (doubling, ..) = run(|sink| Owner::new(4, 8, sink));
        assert_eq!(times(&doubling), [1, 3, 7, 15]);
        let (capped, ..) = run(|sink| Owner::new(4, 1, sink));
        assert_eq!(times(&capped), [1, 3, 5, 7]);
    }

    #[test]
    fn sends_exactly_n_times_before_expiring() {
        let (log, held, received) = run(|sink| Owner::new(3, 0, sink));
        let retried = Fired::Retried(1, true);
        assert_eq!(log, [(1, retried.clone()), (2, retried), (3, Fired::Expired(1))]);
        assert_eq!(received, 3);
        assert_eq!(held, 1, "an expired entry stays until its owner takes it");
    }

    #[test]
    fn an_entry_taken_before_its_timer_never_retransmits() {
        let (log, held, received) = run(|sink| Owner {
            own_at: Some(SimDuration::from_millis(500)),
            ..Owner::new(3, 0, sink)
        });
        assert!(log.is_empty(), "no timer of a taken entry fires: {log:?}");
        assert_eq!((held, received), (0, 1));
    }

    #[test]
    fn an_expired_entry_waits_without_a_timer_until_transmitted_again() {
        let (log, held, received) = run(|sink| Owner {
            own_at: Some(SimDuration::from_secs(10)),
            resend: true,
            ..Owner::new(2, 0, sink)
        });
        let retried = Fired::Retried(1, true);
        let expired = Fired::Expired(1);
        assert_eq!(
            log,
            [(1, retried.clone()), (2, expired.clone()), (11, retried), (12, expired)],
            "nothing fires between the expiry and the owner's transmit at 10 s"
        );
        assert_eq!((held, received), (1, 4));
    }

    #[test]
    fn foreign_tags_are_not_mine_and_a_held_entry_comes_due_unsent() {
        struct Holder {
            engine: Retransmitter<u64, ()>,
            due: Vec<u64>,
        }
        impl Node for Holder {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.engine.insert(9, ());
                self.engine.hold(ctx, &9, SECOND);
                let http = (Lane::Http as u64) << LANE_SHIFT;
                let transfer = (Lane::Transfer as u64) << LANE_SHIFT;
                for tag in [0, 5, http | 1, transfer | 99] {
                    assert_eq!(self.engine.on_timer(ctx, tag), Fired::NotMine, "tag {tag:#x}");
                }
                assert_eq!(self.engine.sent_to(&9), None);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                if let Fired::Due(key) = self.engine.on_timer(ctx, tag) {
                    self.due.push(ctx.now().0);
                    assert_eq!(self.engine.take(ctx, &key), Some(()));
                }
            }
        }
        let mut sim = Simulator::new(1);
        let engine = Retransmitter::new(Lane::Transfer, 3, 0);
        let holder = sim.add_node(Box::new(Holder { engine, due: Vec::new() }));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Holder>(holder).unwrap().due, [SECOND.as_micros()]);
        assert_eq!(sim.metrics(holder).msgs_sent, 0);
    }
}

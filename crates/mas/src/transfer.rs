//! The agent-transfer protocol, the one contract every server shares: the
//! send side [`TransferSender`] (the gateway's first hop and every
//! [`crate::MasNode`] hop) and the receive side [`receive`] (both server
//! kinds).

use std::collections::HashMap;

use pdagent_net::http::HTTP_TIMER_BASE;
use pdagent_net::prelude::*;
use pdagent_vm::Value;

use crate::agent::{AgentId, MobileAgent};
use crate::server::SiteDirectory;
use crate::{KIND_ACK, KIND_TRANSFER};

/// How long to wait for a transfer ack before retrying.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Transfer attempts (including the first) before skipping the site.
pub const MAX_TRANSFER_ATTEMPTS: u32 = 3;
/// Timer tags of [`TransferSender`] start here; the owner's stay below.
pub const TRANSFER_TIMER_BASE: u64 = 1 << 61;

/// An agent with its journey context and its open `itinerary.hop` span (0,
/// the null span, if none): what [`receive`] returns, and what a
/// [`TransferSender`] holds and hands back.
pub type Carried = (MobileAgent, ObsContext, u32);

/// An agent the sender holds, from the moment its host schedules its
/// departure until the next site acks it.
#[derive(Debug)]
struct Held {
    agent: MobileAgent,
    /// The journey context every frame of it carries.
    obs: ObsContext,
    /// The host's open `itinerary.hop` span, handed back with the agent.
    hop: u32,
    /// The tag of its one live timer: the departure, then the ack timeout.
    timer: u64,
    leg: Leg,
}

#[derive(Debug)]
enum Leg {
    /// Before departure: the `mas.exec` span (0 at the gateway) that ends then.
    Departing(u32),
    /// Sent to `to` `attempts` times in one frame, serialized once: the agent
    /// is frozen until acked, so a retry resends it.
    Sent { to: NodeId, wire: Message, attempts: u32 },
}

/// The send side and its host's one table of departing agents, shaped like
/// [`pdagent_net::http::HttpClient`]: `send_after` (or `send`), then every
/// `mas.ack` to `on_ack` and every timer to `on_timer`. It skips a site the
/// directory does not know, retries an unacked frame and, after
/// [`MAX_TRANSFER_ATTEMPTS`], records the site `unreachable` and goes on.
/// Counts `<prefix>.transfer_retries`, `.hops_skipped`, `.transfer_send_failed`.
/// Every way out (`on_ack`, `cancel`, and `send` or `on_timer` when the
/// agent is home) hands the agent back [`Carried`], with the hop span the
/// sender kept (none for the gateway's first hop).
#[derive(Debug)]
pub struct TransferSender {
    prefix: &'static str,
    /// The site or gateway name `unreachable` entries are recorded under.
    owner: String,
    directory: SiteDirectory,
    held: HashMap<AgentId, Held>,
    /// Each live timer's tag → the agent it belongs to.
    timers: HashMap<u64, AgentId>,
    next_timer: u64,
}

impl TransferSender {
    /// A sender for `owner`.
    pub fn new(prefix: &'static str, owner: String, directory: SiteDirectory) -> TransferSender {
        let (held, timers) = (HashMap::new(), HashMap::new());
        TransferSender { prefix, owner, directory, held, timers, next_timer: 0 }
    }

    /// The site directory transfers resolve in.
    pub fn directory(&self) -> &SiteDirectory {
        &self.directory
    }

    /// The number of agents held: departing or awaiting an ack.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// The agent held under `id`, with its journey context.
    pub fn get(&self, id: &AgentId) -> Option<(&MobileAgent, ObsContext)> {
        self.held.get(id).map(|h| (&h.agent, h.obs))
    }

    /// Give up `id`'s departure or ack and hand the agent back, ending its
    /// `exec` span if it had not left yet.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, id: &AgentId) -> Option<Carried> {
        let h = self.held.remove(id)?;
        self.timers.remove(&h.timer);
        if let Leg::Departing(exec) = h.leg {
            ctx.span_end(exec);
        }
        Some((h.agent, h.obs, h.hop))
    }

    /// Hold `agent` for `delay`, then end `exec` and [`Self::send`] it.
    pub fn send_after(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimDuration,
        agent: MobileAgent,
        obs: ObsContext,
        hop: u32,
        exec: u32,
    ) {
        self.hold(ctx, delay, (agent, obs, hop), Leg::Departing(exec));
    }

    /// Send `agent` to the first site left on its itinerary that the
    /// directory knows, in a frame carrying `obs`, keeping `hop` until the
    /// ack. Returns all three when no site is left: the itinerary is over
    /// and the caller takes the agent home.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut agent: MobileAgent,
        obs: ObsContext,
        hop: u32,
    ) -> Option<Carried> {
        let to = loop {
            let Some(site) = agent.next_site().map(str::to_owned) else {
                return Some((agent, obs, hop));
            };
            match self.directory.resolve(&site) {
                Some(to) => break to,
                None => self.skip(ctx, &mut agent, site),
            }
        };
        let wire = Message::new(KIND_TRANSFER, agent.to_bytes()).traced(obs);
        self.transmit(ctx, to, &wire);
        self.hold(ctx, ACK_TIMEOUT, (agent, obs, hop), Leg::Sent { to, wire, attempts: 1 });
        None
    }

    /// Offer a `mas.ack` body from node `from`. Returns the agent it
    /// releases: one transmitted to `from`, and no other.
    pub fn on_ack(&mut self, ctx: &mut Ctx<'_>, from: NodeId, body: &[u8]) -> Option<Carried> {
        let id = AgentId(std::str::from_utf8(body).ok()?.to_owned());
        match &self.held.get(&id)?.leg {
            Leg::Sent { to, .. } if *to == from => self.cancel(ctx, &id),
            _ => None,
        }
    }

    /// Offer a fired timer tag (other tags and those of released agents are
    /// ignored): depart, retry, or skip the site and send on. Returns the
    /// agent when no site was left, for the caller to take home.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<Carried> {
        if !(TRANSFER_TIMER_BASE..HTTP_TIMER_BASE).contains(&tag) {
            return None;
        }
        let id = self.timers.remove(&tag)?;
        let Held { mut agent, obs, hop, leg, .. } =
            self.held.remove(&id).expect("timed agent is held");
        match leg {
            Leg::Departing(exec) => ctx.span_end(exec),
            Leg::Sent { to, wire, attempts } if attempts < MAX_TRANSFER_ATTEMPTS => {
                self.bump(ctx, "transfer_retries");
                self.transmit(ctx, to, &wire);
                let leg = Leg::Sent { to, wire, attempts: attempts + 1 };
                self.hold(ctx, ACK_TIMEOUT, (agent, obs, hop), leg);
                return None;
            }
            Leg::Sent { .. } => {
                let site = agent.next_site().unwrap_or("?").to_owned();
                self.skip(ctx, &mut agent, site);
            }
        }
        self.send(ctx, agent, obs, hop)
    }

    fn transmit(&self, ctx: &mut Ctx<'_>, to: NodeId, wire: &Message) {
        if !ctx.send(to, wire.clone()) {
            self.bump(ctx, "transfer_send_failed");
        }
    }

    /// Take an agent into custody under a fresh timer armed for `delay`.
    fn hold(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, carried: Carried, leg: Leg) {
        let (agent, obs, hop) = carried;
        self.next_timer += 1;
        let timer = TRANSFER_TIMER_BASE | self.next_timer;
        ctx.set_timer(delay, timer);
        self.timers.insert(timer, agent.id.clone());
        self.held.insert(agent.id.clone(), Held { agent, obs, hop, timer, leg });
    }

    fn skip(&self, ctx: &mut Ctx<'_>, agent: &mut MobileAgent, site: String) {
        agent.push_result(&self.owner, "unreachable", Value::Str(site));
        agent.next_hop += 1;
        self.bump(ctx, "hops_skipped");
    }

    fn bump(&self, ctx: &mut Ctx<'_>, counter: &str) {
        ctx.metrics().bump(&format!("{}.{counter}", self.prefix), 1.0);
    }
}

/// The receive side, for both server kinds: decode `msg`, ack it so the
/// sender releases its copy, drop it if `resident` says this site holds the
/// agent already (the sender retried past a lost ack), and open the agent's
/// `itinerary.hop` span under the journey root. Returns the agent, the
/// journey context and the span. Counts `<prefix>.malformed_transfers` and
/// `.duplicate_transfers`.
pub fn receive(
    ctx: &mut Ctx<'_>,
    prefix: &str,
    from: NodeId,
    msg: &Message,
    resident: impl FnOnce(&AgentId) -> bool,
) -> Option<Carried> {
    let Ok(agent) = MobileAgent::from_bytes(&msg.body) else {
        ctx.metrics().bump(&format!("{prefix}.malformed_transfers"), 1.0);
        return None;
    };
    ctx.send(from, Message::new(KIND_ACK, agent.id.0.clone().into_bytes()));
    if resident(&agent.id) {
        ctx.metrics().bump(&format!("{prefix}.duplicate_transfers"), 1.0);
        return None;
    }
    let hop = ctx.span_begin_indexed(
        msg.obs.trace,
        msg.obs.span,
        "itinerary.hop",
        Some(agent.next_hop as u32),
    );
    Some((agent, msg.obs, hop))
}

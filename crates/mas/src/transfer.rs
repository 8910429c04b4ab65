//! The agent-transfer protocol, the one contract every server shares: the
//! send side [`TransferSender`] (the gateway's first hop and every
//! [`crate::MasNode`] hop) and the receive side [`receive`] (both server
//! kinds). The sender's custody table is a
//! [`pdagent_net::retry::Retransmitter`]: a departure is a held entry, a
//! hop a transmitted one, retried on a fixed [`ACK_TIMEOUT`].

use pdagent_net::prelude::*;
use pdagent_net::retry::{Fired, Lane, Retransmitter};
use pdagent_vm::Value;

use crate::agent::{AgentId, MobileAgent};
use crate::server::SiteDirectory;
use crate::{KIND_ACK, KIND_TRANSFER};

/// How long to wait for a transfer ack before retrying.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Transfer attempts (including the first) before skipping the site.
pub const MAX_TRANSFER_ATTEMPTS: u32 = 3;

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
    /// The `mas.exec` span that ends at departure (0 at the gateway, and
    /// once the agent has left).
    exec: u32,
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
    held: Retransmitter<AgentId, Held>,
}

impl TransferSender {
    /// A sender for `owner`.
    pub fn new(prefix: &'static str, owner: String, directory: SiteDirectory) -> TransferSender {
        let held = Retransmitter::new(Lane::Transfer, MAX_TRANSFER_ATTEMPTS, 0);
        TransferSender { prefix, owner, directory, held }
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

    /// The agent held under `id` if it has not been transmitted yet: its
    /// host has scheduled its departure, and no site has a copy.
    pub fn departing(&self, id: &AgentId) -> Option<&MobileAgent> {
        let held = self.held.get(id)?;
        self.held.sent_to(id).is_none().then_some(&held.agent)
    }

    /// Give up `id`'s departure or ack and hand the agent back, ending its
    /// `exec` span if it had not left yet.
    pub fn cancel(&mut self, ctx: &mut Ctx<'_>, id: &AgentId) -> Option<Carried> {
        let h = self.held.take(ctx, id)?;
        ctx.span_end(h.exec);
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
        let id = agent.id.clone();
        self.held.insert(id.clone(), Held { agent, obs, hop, exec });
        self.held.hold(ctx, &id, delay);
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
        let id = agent.id.clone();
        self.held.insert(id.clone(), Held { agent, obs, hop, exec: 0 });
        if !self.held.transmit(ctx, &id, to, wire, ACK_TIMEOUT) {
            self.bump(ctx, "transfer_send_failed");
        }
        None
    }

    /// Offer a `mas.ack` body from node `from`. Returns the agent it
    /// releases: one transmitted to `from`, and no other.
    pub fn on_ack(&mut self, ctx: &mut Ctx<'_>, from: NodeId, body: &[u8]) -> Option<Carried> {
        let id = AgentId(std::str::from_utf8(body).ok()?.to_owned());
        if self.held.sent_to(&id)? != from {
            return None;
        }
        self.cancel(ctx, &id)
    }

    /// Offer a fired timer tag (other tags are ignored): depart, retry, or
    /// skip the site and send on. Returns the agent when no site was left,
    /// for the caller to take home.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<Carried> {
        let (id, departing) = match self.held.on_timer(ctx, tag) {
            Fired::NotMine => return None,
            Fired::Retried(_, accepted) => {
                self.bump(ctx, "transfer_retries");
                if !accepted {
                    self.bump(ctx, "transfer_send_failed");
                }
                return None;
            }
            Fired::Due(id) => (id, true),
            Fired::Expired(id) => (id, false),
        };
        let (mut agent, obs, hop) = self.cancel(ctx, &id).expect("timed agent is held");
        if !departing {
            let site = agent.next_site().unwrap_or("?").to_owned();
            self.skip(ctx, &mut agent, site);
        }
        self.send(ctx, agent, obs, hop)
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

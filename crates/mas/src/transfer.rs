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
/// [`TransferSender`] keeps until the ack and hands back.
pub type Carried = (MobileAgent, ObsContext, u32);

/// An agent sent onward, retained until the receiver acks it. The frame is
/// serialized once: the agent is frozen until acked, so a retry resends it.
#[derive(Debug)]
struct InFlight {
    agent: MobileAgent,
    /// The sender's open `itinerary.hop` span, handed back with the agent.
    hop: u32,
    to: NodeId,
    wire: Message,
    attempts: u32,
    /// The tag of its one live ack timer.
    timer: u64,
}

/// The send side, shaped like [`pdagent_net::http::HttpClient`]: `send`,
/// then every `mas.ack` to `on_ack` and every timer to `on_timer`. It skips
/// a site the directory does not know, retries an unacked frame and, after
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
    in_flight: HashMap<AgentId, InFlight>,
    next_timer: u64,
}

impl TransferSender {
    /// A sender for `owner`.
    pub fn new(prefix: &'static str, owner: String, directory: SiteDirectory) -> TransferSender {
        TransferSender { prefix, owner, directory, in_flight: HashMap::new(), next_timer: 0 }
    }

    /// The site directory transfers resolve in.
    pub fn directory(&self) -> &SiteDirectory {
        &self.directory
    }

    /// The number of agents awaiting an ack.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The agent awaiting an ack under `id`, with its journey context.
    pub fn get(&self, id: &AgentId) -> Option<(&MobileAgent, ObsContext)> {
        self.in_flight.get(id).map(|f| (&f.agent, f.wire.obs))
    }

    /// Stop waiting for `id`'s ack and hand the agent back.
    pub fn cancel(&mut self, id: &AgentId) -> Option<Carried> {
        self.in_flight.remove(id).map(|f| (f.agent, f.wire.obs, f.hop))
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
        self.transmit(ctx, InFlight { agent, hop, to, wire, attempts: 1, timer: 0 });
        None
    }

    /// Offer a `mas.ack` body. Returns the agent it releases, if any.
    pub fn on_ack(&mut self, body: &[u8]) -> Option<Carried> {
        self.cancel(&AgentId(std::str::from_utf8(body).ok()?.to_owned()))
    }

    /// Offer a fired timer tag (other tags and those of acked transfers are
    /// ignored): retry, or skip the site and send on. Returns the agent when
    /// that skipped the last sites, for the caller to take home.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<Carried> {
        if !(TRANSFER_TIMER_BASE..HTTP_TIMER_BASE).contains(&tag) {
            return None;
        }
        let id = self.in_flight.iter().find(|(_, f)| f.timer == tag).map(|(id, _)| id.clone())?;
        let mut f = self.in_flight.remove(&id).expect("found above");
        if f.attempts < MAX_TRANSFER_ATTEMPTS {
            self.bump(ctx, "transfer_retries");
            f.attempts += 1;
            self.transmit(ctx, f);
            return None;
        }
        let site = f.agent.next_site().unwrap_or("?").to_owned();
        self.skip(ctx, &mut f.agent, site);
        self.send(ctx, f.agent, f.wire.obs, f.hop)
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, mut f: InFlight) {
        let sent = ctx.send(f.to, f.wire.clone());
        self.next_timer += 1;
        f.timer = TRANSFER_TIMER_BASE | self.next_timer;
        ctx.set_timer(ACK_TIMEOUT, f.timer);
        self.in_flight.insert(f.agent.id.clone(), f);
        if !sent {
            self.bump(ctx, "transfer_send_failed");
        }
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

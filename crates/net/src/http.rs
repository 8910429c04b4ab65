//! An HTTP-like request/response layer with timeout and retransmission.
//!
//! The paper's device↔gateway traffic runs "through a HTTP connection"; this
//! module gives protocol nodes that abstraction over raw messages: framed
//! requests and responses correlated by id, plus a client-side helper
//! ([`HttpClient`]) that retries lost requests — the reliability mechanism
//! that lets PDAgent tolerate the lossy wireless hop. The client keeps its
//! pending requests in the workspace's one retransmission engine
//! ([`crate::retry::Retransmitter`]): a fixed timeout, `max_retries`
//! resends, then a give-up that hands the caller's payload back.
//!
//! Wire framing is a compact binary format (varint-length-prefixed fields)
//! carried in messages of kind [`KIND_REQUEST`] / [`KIND_RESPONSE`].

use bytes::Bytes;
use pdagent_codec::varint;

use crate::message::Message;
use crate::obs::ObsContext;
use crate::retry::{Fired, Lane, Retransmitter};
use crate::sim::{Ctx, NodeId};
use crate::time::SimDuration;

/// Message kind for requests.
pub const KIND_REQUEST: &str = "http.request";
/// Message kind for responses.
pub const KIND_RESPONSE: &str = "http.response";

/// Status codes used by the PDAgent protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpStatus {
    /// 200.
    Ok,
    /// 202 — accepted for asynchronous processing (agent dispatched).
    Accepted,
    /// 400.
    BadRequest,
    /// 401 — e.g. invalid unique key on dispatch.
    Unauthorized,
    /// 404.
    NotFound,
    /// 409 — result not ready yet.
    Conflict,
    /// 500.
    ServerError,
}

impl HttpStatus {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            HttpStatus::Ok => 200,
            HttpStatus::Accepted => 202,
            HttpStatus::BadRequest => 400,
            HttpStatus::Unauthorized => 401,
            HttpStatus::NotFound => 404,
            HttpStatus::Conflict => 409,
            HttpStatus::ServerError => 500,
        }
    }

    /// From a numeric code (unknown codes map to `ServerError`).
    pub fn from_code(code: u16) -> HttpStatus {
        match code {
            200 => HttpStatus::Ok,
            202 => HttpStatus::Accepted,
            400 => HttpStatus::BadRequest,
            401 => HttpStatus::Unauthorized,
            404 => HttpStatus::NotFound,
            409 => HttpStatus::Conflict,
            _ => HttpStatus::ServerError,
        }
    }

    /// Is this a success (2xx) status?
    pub fn is_success(self) -> bool {
        matches!(self, HttpStatus::Ok | HttpStatus::Accepted)
    }
}

/// A framed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Correlation id (set by [`HttpClient`]).
    pub req_id: u64,
    /// Method, e.g. `"POST"`.
    pub method: String,
    /// Path, e.g. `"/pdagent/dispatch"`.
    pub path: String,
    /// Payload. Parsing slices the carrying message's buffer, so a request
    /// decoded from the wire aliases the received bytes instead of copying.
    pub body: Bytes,
    /// Observability metadata; carried on the wrapping [`Message`], not in
    /// the framed payload, and preserved across retransmissions.
    pub obs: ObsContext,
}

/// A framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Correlation id copied from the request.
    pub req_id: u64,
    /// Status.
    pub status: HttpStatus,
    /// Payload (zero-copy slice of the carrying message when parsed).
    pub body: Bytes,
    /// Observability metadata, copied from the request by
    /// [`HttpResponse::reply`] so responses stay attributed to the journey.
    pub obs: ObsContext,
}

/// Read a length-prefixed byte field as a zero-copy slice of the message
/// buffer.
fn read_body(msg: &Message, pos: &mut usize) -> Option<Bytes> {
    let len = varint::read_bytes(&msg.body, pos).ok()?.len();
    Some(msg.body.slice(*pos - len..*pos))
}

impl HttpRequest {
    /// Construct a request (the client assigns `req_id`).
    pub fn new(
        method: impl Into<String>,
        path: impl Into<String>,
        body: impl Into<Bytes>,
    ) -> Self {
        HttpRequest {
            req_id: 0,
            method: method.into(),
            path: path.into(),
            body: body.into(),
            obs: ObsContext::NONE,
        }
    }

    /// Attach observability metadata (builder-style).
    pub fn traced(mut self, obs: ObsContext) -> HttpRequest {
        self.obs = obs;
        self
    }

    /// Serialize into a [`Message`].
    pub fn to_message(&self) -> Message {
        let mut out = Vec::with_capacity(self.body.len() + 32);
        varint::write_u64(&mut out, self.req_id);
        varint::write_str(&mut out, &self.method);
        varint::write_str(&mut out, &self.path);
        varint::write_bytes(&mut out, &self.body);
        Message::new(KIND_REQUEST, out).traced(self.obs)
    }

    /// Parse from a [`Message`]; `None` if it is not a well-formed request.
    pub fn from_message(msg: &Message) -> Option<HttpRequest> {
        if msg.kind != KIND_REQUEST {
            return None;
        }
        let mut pos = 0;
        let req_id = varint::read_u64(&msg.body, &mut pos).ok()?;
        let method = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
        let path = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
        let body = read_body(msg, &mut pos)?;
        Some(HttpRequest { req_id, method, path, body, obs: msg.obs })
    }
}

impl HttpResponse {
    /// Construct a response to `req` (inherits the request's trace context).
    pub fn reply(req: &HttpRequest, status: HttpStatus, body: impl Into<Bytes>) -> HttpResponse {
        HttpResponse { req_id: req.req_id, status, body: body.into(), obs: req.obs }
    }

    /// Serialize into a [`Message`].
    pub fn to_message(&self) -> Message {
        response_frame(self.req_id, self.status, &self.body, self.obs)
    }

    /// Parse from a [`Message`]; `None` if it is not a well-formed response.
    pub fn from_message(msg: &Message) -> Option<HttpResponse> {
        if msg.kind != KIND_RESPONSE {
            return None;
        }
        let mut pos = 0;
        let req_id = varint::read_u64(&msg.body, &mut pos).ok()?;
        let code = u16::try_from(varint::read_u64(&msg.body, &mut pos).ok()?).ok()?;
        let body = read_body(msg, &mut pos)?;
        Some(HttpResponse { req_id, status: HttpStatus::from_code(code), body, obs: msg.obs })
    }
}

/// Client-side request tracker with timeout/retransmit, embedded in a node.
/// Its requests wait in one [`Retransmitter`] keyed by request id, each
/// with a caller's payload `T` handed back with its response or give-up.
///
/// Usage pattern inside a [`crate::sim::Node`]:
/// * call [`HttpClient::send`] to issue a request;
/// * forward every incoming message to [`HttpClient::on_response`]; a
///   `Some((response, payload))` return is a completed exchange;
/// * forward every timer to [`HttpClient::on_timer`]; a `Some(payload)`
///   return is a request given up.
#[derive(Debug)]
pub struct HttpClient<T = ()> {
    next_id: u64,
    pending: Retransmitter<u64, T>,
    timeout: SimDuration,
}

impl<T> Default for HttpClient<T> {
    /// A 3 s RTO and 4 retries, suited to the wireless link.
    fn default() -> Self {
        Self::new(SimDuration::from_secs(3), 4)
    }
}

impl<T> HttpClient<T> {
    /// A client that retransmits an unanswered request every `timeout`,
    /// `max_retries` times, before giving up on it.
    pub fn new(timeout: SimDuration, max_retries: u32) -> HttpClient<T> {
        let pending = Retransmitter::new(Lane::Http, max_retries + 1, 0);
        HttpClient { next_id: 0, pending, timeout }
    }

    /// Send `request` to `server`, keeping `payload` until the exchange
    /// ends. Returns the assigned request id.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: NodeId,
        request: HttpRequest,
        payload: T,
    ) -> u64 {
        let timeout = self.timeout;
        self.send_with_timeout(ctx, server, request, timeout, payload)
    }

    /// [`HttpClient::send`] with a per-request retransmission timeout, for
    /// requests whose response is gated on a long serialization delay (a
    /// multi-KiB PI trickling over a wireless link) where the client-wide
    /// RTO would fire while the upload is still on the wire. Retransmissions
    /// of this request reuse the same timeout.
    pub fn send_with_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        server: NodeId,
        mut request: HttpRequest,
        timeout: SimDuration,
        payload: T,
    ) -> u64 {
        self.next_id += 1;
        let req_id = self.next_id;
        request.req_id = req_id;
        self.pending.insert(req_id, payload);
        self.pending.transmit(ctx, &req_id, server, request.to_message(), timeout);
        req_id
    }

    /// Offer an incoming message. Returns the response and its request's
    /// payload if it completes one of this client's pending requests.
    pub fn on_response(&mut self, ctx: &mut Ctx<'_>, msg: &Message) -> Option<(HttpResponse, T)> {
        let resp = HttpResponse::from_message(msg)?;
        let payload = self.pending.take(ctx, &resp.req_id)?;
        Some((resp, payload))
    }

    /// Offer a fired timer tag: retransmit a request whose response is
    /// overdue, or give it up once its retries are spent. Returns the
    /// payload of a request given up; `None` for a retransmission or a tag
    /// that is not the client's.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> Option<T> {
        match self.pending.on_timer(ctx, tag) {
            Fired::NotMine | Fired::Due(_) => None,
            Fired::Retried(..) => {
                ctx.metrics().bump("http.retransmits", 1.0);
                None
            }
            Fired::Expired(req_id) => {
                ctx.metrics().bump("http.gave_up", 1.0);
                self.pending.take(ctx, &req_id)
            }
        }
    }
}

/// The response frame [`HttpResponse::to_message`] sends, written straight
/// from the borrowed body.
fn response_frame(req_id: u64, status: HttpStatus, body: &[u8], obs: ObsContext) -> Message {
    let mut out = Vec::with_capacity(body.len() + 16);
    varint::write_u64(&mut out, req_id);
    varint::write_u64(&mut out, status.code() as u64);
    varint::write_bytes(&mut out, body);
    Message::new(KIND_RESPONSE, out).traced(obs)
}

/// Server-side convenience: reply to `req` via `ctx`. The frame is written
/// straight from the borrowed body, so a reply copies its body once, into
/// the frame.
pub fn reply(
    ctx: &mut Ctx<'_>,
    to: NodeId,
    req: &HttpRequest,
    status: HttpStatus,
    body: impl AsRef<[u8]>,
) {
    ctx.send(to, response_frame(req.req_id, status, body.as_ref(), req.obs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::{Node, Simulator};

    #[test]
    fn request_roundtrips_through_message() {
        let mut req = HttpRequest::new("POST", "/dispatch", b"payload".to_vec());
        req.req_id = 42;
        let msg = req.to_message();
        assert_eq!(msg.kind, KIND_REQUEST);
        assert_eq!(HttpRequest::from_message(&msg).unwrap(), req);
    }

    #[test]
    fn response_roundtrips_through_message() {
        let req = HttpRequest { req_id: 9, ..HttpRequest::new("GET", "/r", vec![]) };
        let resp = HttpResponse::reply(&req, HttpStatus::Accepted, b"ok".to_vec());
        let back = HttpResponse::from_message(&resp.to_message()).unwrap();
        assert_eq!(back.req_id, 9);
        assert_eq!(back.status, HttpStatus::Accepted);
        assert_eq!(back.body, b"ok");
    }

    #[test]
    fn trace_context_rides_request_and_reply() {
        let obs = ObsContext { trace: 5, span: 2 };
        let mut req = HttpRequest::new("POST", "/dispatch", vec![]).traced(obs);
        req.req_id = 1;
        let msg = req.to_message();
        assert_eq!(msg.obs, obs, "request context must ride the message");
        let parsed = HttpRequest::from_message(&msg).unwrap();
        assert_eq!(parsed.obs, obs);
        let resp = HttpResponse::reply(&parsed, HttpStatus::Ok, vec![]);
        let back = HttpResponse::from_message(&resp.to_message()).unwrap();
        assert_eq!(back.obs, obs, "reply inherits the request context");
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(HttpRequest::from_message(&Message::new("other", vec![])).is_none());
        assert!(HttpRequest::from_message(&Message::new(KIND_REQUEST, vec![0xff])).is_none());
        assert!(HttpResponse::from_message(&Message::new(KIND_RESPONSE, vec![])).is_none());
        // Truncated body length.
        let mut req = HttpRequest::new("GET", "/x", vec![1, 2, 3]);
        req.req_id = 1;
        let mut msg = req.to_message();
        msg.body = msg.body.slice(..msg.body.len() - 2);
        assert!(HttpRequest::from_message(&msg).is_none());
    }

    #[test]
    fn a_status_code_past_u16_is_malformed() {
        // 65,736 is 200 plus 2^16: cut to 16 bits it would read as 200 Ok.
        let mut body = Vec::new();
        varint::write_u64(&mut body, 1);
        varint::write_u64(&mut body, 65_736);
        varint::write_bytes(&mut body, b"ok");
        assert!(HttpResponse::from_message(&Message::new(KIND_RESPONSE, body)).is_none());
    }

    #[test]
    fn parsed_bodies_alias_the_wire_buffer() {
        // Zero-copy parse: the request body produced by `from_message` is a
        // slice of the message buffer itself.
        let mut req = HttpRequest::new("POST", "/dispatch", vec![0x5au8; 256]);
        req.req_id = 7;
        let msg = req.to_message();
        let parsed = HttpRequest::from_message(&msg).unwrap();
        assert!(parsed.body.shares_allocation_with(&msg.body));
        assert_eq!(parsed.body.len(), 256);
        let resp = HttpResponse::reply(&parsed, HttpStatus::Ok, parsed.body.clone());
        let resp_msg = resp.to_message();
        let parsed_resp = HttpResponse::from_message(&resp_msg).unwrap();
        assert!(parsed_resp.body.shares_allocation_with(&resp_msg.body));
        assert_eq!(parsed_resp.body, parsed.body);
    }

    #[test]
    fn status_code_mapping() {
        for s in [
            HttpStatus::Ok,
            HttpStatus::Accepted,
            HttpStatus::BadRequest,
            HttpStatus::Unauthorized,
            HttpStatus::NotFound,
            HttpStatus::Conflict,
            HttpStatus::ServerError,
        ] {
            assert_eq!(HttpStatus::from_code(s.code()), s);
        }
        assert_eq!(HttpStatus::from_code(999), HttpStatus::ServerError);
        assert!(HttpStatus::Ok.is_success());
        assert!(HttpStatus::Accepted.is_success());
        assert!(!HttpStatus::NotFound.is_success());
    }

    #[test]
    fn echo_reply_aliases_request_buffer() {
        // A response built from a parsed request's body must not copy it:
        // the reply body is the same backing range of the request's wire
        // buffer, length for length.
        let mut req = HttpRequest::new("POST", "/echo", vec![0x42u8; 512]);
        req.req_id = 3;
        let wire = req.to_message();
        let parsed = HttpRequest::from_message(&wire).unwrap();
        let resp = HttpResponse::reply(&parsed, HttpStatus::Ok, parsed.body.clone());
        assert_eq!(resp.body.len(), parsed.body.len());
        assert!(
            resp.body.shares_allocation_with(&wire.body),
            "echo reply must alias the request wire buffer, not copy it"
        );
        assert_eq!(resp.body.as_ptr(), parsed.body.as_ptr());
    }

    // --- end-to-end client/server over the simulator ---

    /// Echo server: replies 200 with the request body, framed straight
    /// from the request's wire buffer.
    struct EchoServer;
    impl Node for EchoServer {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if let Some(req) = HttpRequest::from_message(&msg) {
                reply(ctx, from, &req, HttpStatus::Ok, &req.body);
            }
        }
    }

    /// Client that issues one request and records the outcome.
    struct OneShot {
        server: NodeId,
        http: HttpClient,
        response: Option<HttpResponse>,
        gave_up: bool,
    }
    impl OneShot {
        fn new(server: NodeId) -> Self {
            OneShot { server, http: HttpClient::default(), response: None, gave_up: false }
        }
    }
    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let req = HttpRequest::new("POST", "/echo", b"hello".to_vec());
            self.http.send(ctx, self.server, req, ());
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
                self.response = Some(resp);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if self.http.on_timer(ctx, tag).is_some() {
                self.gave_up = true;
            }
        }
    }

    fn client_server(seed: u64, link: LinkSpec) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_node(Box::new(EchoServer));
        let client = sim.add_node(Box::new(OneShot::new(server)));
        sim.connect(client, server, link);
        (sim, client)
    }

    #[test]
    fn exchange_over_clean_link() {
        let (mut sim, client) = client_server(1, LinkSpec::lan());
        sim.run_until_idle();
        let c = sim.node_ref::<OneShot>(client).unwrap();
        assert_eq!(c.response.as_ref().unwrap().body, b"hello");
        assert!(!c.gave_up);
    }

    #[test]
    fn retransmit_recovers_from_loss() {
        // 60% loss: with 4 retries success is overwhelmingly likely.
        let (mut sim, client) = client_server(2, LinkSpec::lan().with_loss(0.6));
        sim.run_until_idle();
        let c = sim.node_ref::<OneShot>(client).unwrap();
        assert!(c.response.is_some() || c.gave_up);
        // Retransmissions happened (seed-dependent but extremely likely).
        let retrans = sim.metrics(client).counter("http.retransmits");
        assert!(retrans >= 0.0);
    }

    #[test]
    fn gives_up_on_dead_link() {
        let (mut sim, client) = client_server(3, LinkSpec::lan().with_loss(1.0));
        sim.run_until_idle();
        let c = sim.node_ref::<OneShot>(client).unwrap();
        assert!(c.gave_up);
        assert!(c.response.is_none());
        assert_eq!(sim.metrics(client).counter("http.gave_up"), 1.0);
        // 1 initial + 4 retries.
        assert_eq!(sim.metrics(client).msgs_sent, 5);
    }

    #[test]
    fn duplicate_responses_ignored() {
        // Server that replies twice.
        struct DoubleReply;
        impl Node for DoubleReply {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
                if let Some(req) = HttpRequest::from_message(&msg) {
                    reply(ctx, from, &req, HttpStatus::Ok, b"1");
                    reply(ctx, from, &req, HttpStatus::Ok, b"2");
                }
            }
        }
        let mut sim = Simulator::new(4);
        let server = sim.add_node(Box::new(DoubleReply));
        let client = sim.add_node(Box::new(OneShot::new(server)));
        sim.connect(client, server, LinkSpec::ideal());
        sim.run_until_idle();
        let c = sim.node_ref::<OneShot>(client).unwrap();
        // Only the first completes the exchange.
        assert_eq!(c.response.as_ref().unwrap().body, b"1");
    }
}

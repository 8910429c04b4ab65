//! # pdagent-gateway
//!
//! The Gateway — the middle tier of the paper's Agent-Proxy-Server
//! architecture (Figures 2, 4 and 6).
//!
//! The gateway "accepts and interprets the mobile agent code, wraps it into a
//! mobile agent in a form supported by the network sites, and dispatches the
//! mobile agent on behalf of the mobile user". Concretely, a
//! [`server::GatewayNode`]:
//!
//! * serves **subscription** requests (§3.1): a device downloads the MA code
//!   for a service from the gateway's catalog; the gateway assigns the unique
//!   id used to authorize later executions;
//! * handles **dispatch** (§3.2): opens the encrypted Packed Information
//!   envelope, verifies the MD5 digest and the unique key (the *Agent
//!   Dispatch Handler* → *XML Writer* / *Agent Creator* / *Document Creator*
//!   pipeline), builds a [`pdagent_mas::MobileAgent`] and launches it toward
//!   its first site;
//! * stores **results** (§3.3): completed agents return to the gateway; their
//!   result documents wait in the *File Directory* until the device
//!   reconnects and downloads them;
//! * relays **management** (§3.6): status/retract/dispose/clone requests from
//!   the device are forwarded to the MAS sites and the answers relayed back;
//! * answers **RTT probes** (§3.5) so devices can pick the nearest gateway.
//!
//! [`central::CentralServer`] is the "central server" of §3.5 from which
//! devices download the gateway address list.
//!
//! [`pi`] defines the Packed Information XML format and the result-document
//! format — the interoperable wire contract between device and gateway.

pub mod central;
pub mod filedir;
#[cfg(test)]
mod oracle;
pub mod pi;
pub mod server;

pub use central::{parse_gateway_list, CentralServer, GatewayEntry};
pub use filedir::{FileDirectory, FileKind};
pub use pi::{PackedInformation, ResultDoc, ResultStatus};
pub use server::{GatewayConfig, GatewayNode};

/// Message kind for 1-byte RTT probes (paper Figure 8).
pub const KIND_PROBE: &str = "probe";
/// Message kind for probe replies.
pub const KIND_PROBE_ACK: &str = "probe.ack";

/// HTTP path: download MA code for a service (subscription).
pub const PATH_SUBSCRIBE: &str = "/pdagent/subscribe";
/// HTTP path: upload a sealed Packed Information envelope.
pub const PATH_DISPATCH: &str = "/pdagent/dispatch";
/// HTTP path: download a result document.
pub const PATH_RESULT: &str = "/pdagent/result";
/// HTTP path: agent management (status/retract/dispose/clone).
pub const PATH_MANAGE: &str = "/pdagent/manage";
/// HTTP path on the central server: download the gateway list.
pub const PATH_GATEWAYS: &str = "/pdagent/gateways";

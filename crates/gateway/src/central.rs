//! The central server that publishes the gateway address list (paper §3.5).
//!
//! "Initially, PDAgent will download a list of gateway addresses from the
//! central server. This list will be used until the Round Trip Time (RTT)
//! from the nearest gateway found in the list exceeds the pre-defined
//! threshold. In this case, the PDAgent will request for a new address list."

use pdagent_net::http::{reply, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;
use pdagent_xml::{DocReader, XmlWriter};

use crate::PATH_GATEWAYS;

/// One gateway in the published list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayEntry {
    /// Gateway name (e.g. `"gw-east"`).
    pub name: String,
    /// Simulator node id ("network address" in the paper's terms).
    pub node: NodeId,
}

/// Serialize a gateway list to its XML document.
pub fn gateway_list_to_xml(entries: &[GatewayEntry]) -> String {
    let mut w = XmlWriter::compact();
    w.declaration();
    w.start("gateways");
    for e in entries {
        w.start("gateway");
        w.attr("name", &e.name);
        w.attr_int("node", e.node as u64);
        w.end();
    }
    w.end();
    w.finish()
}

/// Parse a gateway-list document: every `<gateway>` child of the root, in
/// order; other children are ignored.
pub fn parse_gateway_list(doc: &str) -> Result<Vec<GatewayEntry>, String> {
    DocReader::read_document(doc, |r, mut root| {
        if root.name != "gateways" {
            return Err(format!("expected <gateways>, found <{}>", root.name));
        }
        let mut out = Vec::new();
        while let Some(g) = r.next_child(&mut root)? {
            if g.name == "gateway" {
                let name = g.require_attr("name")?.into_owned();
                let node = g
                    .require_attr("node")?
                    .parse::<NodeId>()
                    .map_err(|e| format!("bad node id: {e}"))?;
                out.push(GatewayEntry { name, node });
            }
            r.skip(g)?;
        }
        Ok(out)
    })
}

/// The central server node. Devices `GET /pdagent/gateways` to fetch the
/// current list; operators mutate the list between runs via
/// [`CentralServer::set_gateways`].
pub struct CentralServer {
    gateways: Vec<GatewayEntry>,
    /// Requests served (for reporting).
    pub requests_served: u64,
}

impl CentralServer {
    /// Server publishing the given list.
    pub fn new(gateways: Vec<GatewayEntry>) -> CentralServer {
        CentralServer { gateways, requests_served: 0 }
    }

    /// Replace the published list (e.g. after a gateway failure).
    pub fn set_gateways(&mut self, gateways: Vec<GatewayEntry>) {
        self.gateways = gateways;
    }
}

impl Node for CentralServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let Some(req) = HttpRequest::from_message(&msg) else { return };
        if req.path == PATH_GATEWAYS {
            self.requests_served += 1;
            let body = gateway_list_to_xml(&self.gateways).into_bytes();
            reply(ctx, from, &req, HttpStatus::Ok, body);
        } else {
            reply(ctx, from, &req, HttpStatus::NotFound, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_net::http::{HttpClient, HttpResponse};
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;

    #[test]
    fn list_roundtrip() {
        let entries = vec![
            GatewayEntry { name: "gw-1".into(), node: 3 },
            GatewayEntry { name: "gw-2".into(), node: 7 },
        ];
        let doc = gateway_list_to_xml(&entries);
        assert_eq!(parse_gateway_list(&doc).unwrap(), entries);
    }

    #[test]
    fn empty_list_roundtrip() {
        let doc = gateway_list_to_xml(&[]);
        assert_eq!(parse_gateway_list(&doc).unwrap(), vec![]);
    }

    #[test]
    fn parse_rejects_bad_docs() {
        assert!(parse_gateway_list("<nope/>").is_err());
        assert!(parse_gateway_list("<gateways><gateway name=\"g\"/></gateways>").is_err());
        assert!(parse_gateway_list(
            "<gateways><gateway name=\"g\" node=\"NaN\"/></gateways>"
        )
        .is_err());
    }

    struct Fetcher {
        server: NodeId,
        http: HttpClient,
        list: Option<Vec<GatewayEntry>>,
        status: Option<HttpStatus>,
    }
    impl Node for Fetcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.http.send(ctx, self.server, HttpRequest::new("GET", PATH_GATEWAYS, vec![]), ());
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some((HttpResponse { status, body, .. }, ())) = self.http.on_response(ctx, &msg)
            {
                self.status = Some(status);
                if status == HttpStatus::Ok {
                    self.list =
                        Some(parse_gateway_list(std::str::from_utf8(&body).unwrap()).unwrap());
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.http.on_timer(ctx, tag);
        }
    }

    #[test]
    fn serves_list_over_http() {
        let mut sim = Simulator::new(1);
        let server = sim.add_node(Box::new(CentralServer::new(vec![GatewayEntry {
            name: "gw-a".into(),
            node: 42,
        }])));
        let client = sim.add_node(Box::new(Fetcher {
            server,
            http: HttpClient::default(),
            list: None,
            status: None,
        }));
        sim.connect(client, server, LinkSpec::wireless_gprs());
        sim.run_until_idle();
        let f = sim.node_ref::<Fetcher>(client).unwrap();
        assert_eq!(f.status, Some(HttpStatus::Ok));
        assert_eq!(f.list.as_ref().unwrap()[0].name, "gw-a");
        assert_eq!(sim.node_ref::<CentralServer>(server).unwrap().requests_served, 1);
    }

    #[test]
    fn unknown_path_is_404() {
        struct BadPath {
            server: NodeId,
            http: HttpClient,
            status: Option<HttpStatus>,
        }
        impl Node for BadPath {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.http.send(ctx, self.server, HttpRequest::new("GET", "/nope", vec![]), ());
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
                    self.status = Some(resp.status);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.http.on_timer(ctx, tag);
            }
        }
        let mut sim = Simulator::new(2);
        let server = sim.add_node(Box::new(CentralServer::new(vec![])));
        let client = sim.add_node(Box::new(BadPath {
            server,
            http: HttpClient::default(),
            status: None,
        }));
        sim.connect(client, server, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<BadPath>(client).unwrap().status,
            Some(HttpStatus::NotFound)
        );
    }
}

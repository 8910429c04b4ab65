//! The platform's internal database (paper Figure 9c, "Internal Database
//! Management"): a typed layer over the RMS record store that holds service
//! subscriptions (downloaded MA code) and collected result documents.

use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_gateway::pi::ResultDoc;

use crate::rms::{RecordStore, RmsError};

/// A stored subscription. Its documents are a gateway wire format, so the
/// type lives with the others in [`pdagent_gateway::pi`].
pub use pdagent_gateway::pi::Subscription;

/// The typed device database: one record store for subscriptions, one for
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDb {
    subscriptions: RecordStore,
    results: RecordStore,
}

impl Default for DeviceDb {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceDb {
    /// Fresh, empty database.
    pub fn new() -> DeviceDb {
        DeviceDb {
            subscriptions: RecordStore::open("subscriptions"),
            results: RecordStore::open("results"),
        }
    }

    /// Store (or replace) a subscription.
    pub fn put_subscription(&mut self, sub: &Subscription) -> Result<(), RmsError> {
        let record = sub.to_record();
        // Replace an existing subscription for the same service.
        let existing = self
            .subscriptions
            .enumerate()
            .find(|(_, bytes)| {
                Subscription::from_record(bytes)
                    .map(|s| s.service == sub.service)
                    .unwrap_or(false)
            })
            .map(|(id, _)| id);
        match existing {
            Some(id) => self.subscriptions.set_record(id, &record),
            None => self.subscriptions.add_record(&record).map(|_| ()),
        }
    }

    /// Look up the subscription for a service.
    pub fn subscription(&self, service: &str) -> Option<Subscription> {
        self.subscriptions
            .enumerate()
            .filter_map(|(_, bytes)| Subscription::from_record(bytes).ok())
            .find(|s| s.service == service)
    }

    /// All subscribed service names (sorted).
    pub fn subscribed_services(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .subscriptions
            .enumerate()
            .filter_map(|(_, bytes)| Subscription::from_record(bytes).ok())
            .map(|s| s.service)
            .collect();
        v.sort();
        v
    }

    /// Remove a subscription.
    pub fn remove_subscription(&mut self, service: &str) -> bool {
        let id = self.subscriptions.enumerate().find_map(|(id, bytes)| {
            Subscription::from_record(bytes)
                .ok()
                .filter(|s| s.service == service)
                .map(|_| id)
        });
        match id {
            Some(id) => self.subscriptions.delete_record(id).is_ok(),
            None => false,
        }
    }

    /// Store a collected result document (compressed).
    pub fn put_result(&mut self, doc: &ResultDoc) -> Result<(), RmsError> {
        let record = compress(doc.to_document_string().as_bytes(), Algorithm::Auto);
        self.results.add_record(&record).map(|_| ())
    }

    /// Look up a stored result by agent id.
    pub fn result(&self, agent_id: &str) -> Option<ResultDoc> {
        self.results
            .enumerate()
            .filter_map(|(_, bytes)| {
                let xml = decompress(bytes).ok()?;
                ResultDoc::from_document_str(std::str::from_utf8(&xml).ok()?).ok()
            })
            .find(|r| r.agent_id == agent_id)
    }

    /// All stored results, in collection order.
    pub fn results(&self) -> Vec<ResultDoc> {
        self.results
            .enumerate()
            .filter_map(|(_, bytes)| {
                let xml = decompress(bytes).ok()?;
                ResultDoc::from_document_str(std::str::from_utf8(&xml).ok()?).ok()
            })
            .collect()
    }

    /// Total bytes of stored state — the paper's footprint claim is that
    /// platform + code stays tiny (120 KB including the runtime).
    pub fn footprint_bytes(&self) -> usize {
        self.subscriptions.size_bytes() + self.results.size_bytes()
    }

    /// Serialize the whole database.
    pub fn to_bytes(&self) -> Vec<u8> {
        let subs = self.subscriptions.to_bytes();
        let res = self.results.to_bytes();
        let mut out = Vec::with_capacity(subs.len() + res.len() + 8);
        pdagent_codec::varint::write_usize(&mut out, subs.len());
        out.extend_from_slice(&subs);
        out.extend_from_slice(&res);
        out
    }

    /// Restore from [`DeviceDb::to_bytes`].
    pub fn from_bytes(input: &[u8]) -> Result<DeviceDb, RmsError> {
        let mut pos = 0;
        let subs_len = pdagent_codec::varint::read_usize(input, &mut pos)
            .map_err(|_| RmsError::CorruptSnapshot)?;
        let subs_end = pos
            .checked_add(subs_len)
            .filter(|&e| e <= input.len())
            .ok_or(RmsError::CorruptSnapshot)?;
        Ok(DeviceDb {
            subscriptions: RecordStore::from_bytes(&input[pos..subs_end])?,
            results: RecordStore::from_bytes(&input[subs_end..])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_crypto::rsa::PublicKey;
    use pdagent_mas::ResultEntry;
    use pdagent_vm::{assemble, Value};

    fn sample_sub(service: &str) -> Subscription {
        Subscription {
            service: service.into(),
            code_id: format!("{service}@dev1#1"),
            secret: "s3cret".into(),
            gateway: "gw-1".into(),
            public_key: PublicKey { n: 0xdead_beef_cafe, e: 65537 },
            program: assemble(&format!(".name {service}\nhalt")).unwrap(),
        }
    }

    fn sample_result(agent_id: &str) -> ResultDoc {
        ResultDoc {
            agent_id: agent_id.into(),
            status: pdagent_gateway::pi::ResultStatus::Completed,
            entries: vec![ResultEntry {
                site: "bank-a".into(),
                key: "receipt".into(),
                value: Value::Str("ok".into()),
            }],
            instructions: 42,
        }
    }

    #[test]
    fn subscription_record_roundtrip() {
        let sub = sample_sub("ebank");
        let rec = sub.to_record();
        assert_eq!(Subscription::from_record(&rec).unwrap(), sub);
    }

    #[test]
    fn record_without_service_is_rejected() {
        // A download document stored as a record: every field but the
        // service name, which only a record carries.
        let sub = sample_sub("ebank");
        let download = sub.download_document();
        let rec = compress(download.as_bytes(), Algorithm::Auto);
        assert!(Subscription::from_record(&rec).is_err());
        // The same document is a valid download.
        assert_eq!(Subscription::from_download("ebank", &rec).unwrap(), sub);
    }

    #[test]
    fn put_and_lookup_subscription() {
        let mut db = DeviceDb::new();
        db.put_subscription(&sample_sub("ebank")).unwrap();
        db.put_subscription(&sample_sub("food")).unwrap();
        assert_eq!(db.subscription("ebank").unwrap().service, "ebank");
        assert!(db.subscription("missing").is_none());
        assert_eq!(db.subscribed_services(), vec!["ebank", "food"]);
    }

    #[test]
    fn resubscribe_replaces() {
        let mut db = DeviceDb::new();
        db.put_subscription(&sample_sub("ebank")).unwrap();
        let mut updated = sample_sub("ebank");
        updated.code_id = "ebank@dev1#2".into();
        db.put_subscription(&updated).unwrap();
        assert_eq!(db.subscribed_services().len(), 1);
        assert_eq!(db.subscription("ebank").unwrap().code_id, "ebank@dev1#2");
    }

    #[test]
    fn remove_subscription() {
        let mut db = DeviceDb::new();
        db.put_subscription(&sample_sub("ebank")).unwrap();
        assert!(db.remove_subscription("ebank"));
        assert!(!db.remove_subscription("ebank"));
        assert!(db.subscription("ebank").is_none());
    }

    #[test]
    fn results_store_and_query() {
        let mut db = DeviceDb::new();
        db.put_result(&sample_result("ag-1")).unwrap();
        db.put_result(&sample_result("ag-2")).unwrap();
        assert_eq!(db.result("ag-1").unwrap().agent_id, "ag-1");
        assert!(db.result("ag-9").is_none());
        assert_eq!(db.results().len(), 2);
    }

    #[test]
    fn db_snapshot_roundtrip() {
        let mut db = DeviceDb::new();
        db.put_subscription(&sample_sub("ebank")).unwrap();
        db.put_result(&sample_result("ag-1")).unwrap();
        let restored = DeviceDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(restored, db);
    }

    #[test]
    fn db_snapshot_rejects_garbage() {
        assert!(DeviceDb::from_bytes(&[]).is_err());
        assert!(DeviceDb::from_bytes(&[0xff, 0x01, 0x02]).is_err());
    }

    #[test]
    fn stored_code_is_compressed() {
        // The record must be smaller than the raw XML (the paper compresses
        // agent code before storing it).
        let mut sub = sample_sub("ebank");
        // A bigger, repetitive program so compression has something to do.
        sub.program = assemble(
            &(".name big\n".to_owned()
                + &"push \"the quick brown fox\"\npop\n".repeat(120)
                + "halt"),
        )
        .unwrap();
        let rec = sub.to_record();
        let raw_len = decompress(&rec).unwrap().len();
        assert!(rec.len() < raw_len, "record {} vs raw {}", rec.len(), raw_len);
        assert_eq!(Subscription::from_record(&rec).unwrap(), sub);
    }

    #[test]
    fn footprint_tracks_stored_bytes() {
        let mut db = DeviceDb::new();
        assert_eq!(db.footprint_bytes(), 0);
        db.put_subscription(&sample_sub("ebank")).unwrap();
        let after_sub = db.footprint_bytes();
        assert!(after_sub > 0);
        db.put_result(&sample_result("ag-1")).unwrap();
        assert!(db.footprint_bytes() > after_sub);
    }
}

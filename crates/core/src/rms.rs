//! A Record Management System (RMS) analog.
//!
//! The original PDAgent's on-device database "was implemented using J2ME's
//! Record Management System (RMS) … a persistent storage mechanism modeled
//! from a simple record-oriented database". This module reproduces that API
//! shape: numbered records of opaque bytes with add/get/set/delete, plus a
//! compact binary snapshot format for persistence.

use std::collections::BTreeMap;

use pdagent_codec::varint;

/// Record identifier. Like RMS, ids start at 1 and are never reused.
pub type RecordId = u32;

/// Store error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmsError {
    /// No record with that id.
    InvalidRecordId(RecordId),
    /// Snapshot bytes are malformed.
    CorruptSnapshot,
    /// The store is full (configurable quota, modeling the handheld's
    /// limited storage).
    StoreFull {
        /// The configured quota in bytes.
        quota: usize,
    },
}

impl std::fmt::Display for RmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmsError::InvalidRecordId(id) => write!(f, "invalid record id {id}"),
            RmsError::CorruptSnapshot => write!(f, "corrupt record store snapshot"),
            RmsError::StoreFull { quota } => {
                write!(f, "record store quota of {quota} bytes exceeded")
            }
        }
    }
}

impl std::error::Error for RmsError {}

/// A record store ("RecordStore" in RMS terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordStore {
    name: String,
    records: BTreeMap<RecordId, Vec<u8>>,
    next_id: RecordId,
    /// Maximum total payload bytes (the handheld's storage budget). The
    /// paper's whole platform fits in 120 KB; the default quota is 1 MiB so
    /// tests can exercise the limit without hitting it accidentally.
    pub quota: usize,
}

/// Snapshot format magic.
const MAGIC: &[u8; 4] = b"PRMS";

impl RecordStore {
    /// Open a fresh, empty store.
    pub fn open(name: impl Into<String>) -> RecordStore {
        RecordStore {
            name: name.into(),
            records: BTreeMap::new(),
            next_id: 1,
            quota: 1 << 20,
        }
    }

    /// Store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Total payload bytes stored.
    pub fn size_bytes(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// The id the next [`RecordStore::add_record`] will return.
    pub fn next_record_id(&self) -> RecordId {
        self.next_id
    }

    fn check_quota(&self, adding: usize, replacing: usize) -> Result<(), RmsError> {
        if self.size_bytes() - replacing + adding > self.quota {
            return Err(RmsError::StoreFull { quota: self.quota });
        }
        Ok(())
    }

    /// Append a record, returning its id.
    pub fn add_record(&mut self, data: &[u8]) -> Result<RecordId, RmsError> {
        self.check_quota(data.len(), 0)?;
        let id = self.next_id;
        self.next_id += 1;
        self.records.insert(id, data.to_vec());
        Ok(id)
    }

    /// Read a record.
    pub fn get_record(&self, id: RecordId) -> Result<&[u8], RmsError> {
        self.records
            .get(&id)
            .map(Vec::as_slice)
            .ok_or(RmsError::InvalidRecordId(id))
    }

    /// Overwrite a record.
    pub fn set_record(&mut self, id: RecordId, data: &[u8]) -> Result<(), RmsError> {
        let old = self
            .records
            .get(&id)
            .map(Vec::len)
            .ok_or(RmsError::InvalidRecordId(id))?;
        self.check_quota(data.len(), old)?;
        self.records.insert(id, data.to_vec());
        Ok(())
    }

    /// Delete a record. Ids are not reused.
    pub fn delete_record(&mut self, id: RecordId) -> Result<(), RmsError> {
        self.records.remove(&id).map(|_| ()).ok_or(RmsError::InvalidRecordId(id))
    }

    /// Iterate `(id, bytes)` in id order (RMS's RecordEnumeration).
    pub fn enumerate(&self) -> impl Iterator<Item = (RecordId, &[u8])> {
        self.records.iter().map(|(&id, data)| (id, data.as_slice()))
    }

    /// Serialize the whole store (persistence).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() + 64);
        out.extend_from_slice(MAGIC);
        varint::write_str(&mut out, &self.name);
        varint::write_u64(&mut out, self.next_id as u64);
        varint::write_u64(&mut out, self.quota as u64);
        varint::write_usize(&mut out, self.records.len());
        for (id, data) in &self.records {
            varint::write_u64(&mut out, *id as u64);
            varint::write_bytes(&mut out, data);
        }
        out
    }

    /// Restore a store from a snapshot.
    pub fn from_bytes(input: &[u8]) -> Result<RecordStore, RmsError> {
        let corrupt = RmsError::CorruptSnapshot;
        if input.len() < 4 || &input[..4] != MAGIC {
            return Err(corrupt);
        }
        let mut pos = 4;
        let name = varint::read_str(input, &mut pos).map_err(|_| corrupt.clone())?.to_owned();
        let next_id =
            varint::read_u64(input, &mut pos).map_err(|_| corrupt.clone())? as RecordId;
        let quota = varint::read_u64(input, &mut pos).map_err(|_| corrupt.clone())? as usize;
        let count = varint::read_usize(input, &mut pos).map_err(|_| corrupt.clone())?;
        if count > input.len() {
            return Err(corrupt);
        }
        let mut records = BTreeMap::new();
        for _ in 0..count {
            let id =
                varint::read_u64(input, &mut pos).map_err(|_| corrupt.clone())? as RecordId;
            let data = varint::read_bytes(input, &mut pos).map_err(|_| corrupt.clone())?;
            records.insert(id, data.to_vec());
        }
        Ok(RecordStore { name, records, next_id, quota })
    }

    /// Write the snapshot to a file.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Load a snapshot from a file.
    pub fn load_from(path: &std::path::Path) -> std::io::Result<RecordStore> {
        let bytes = std::fs::read(path)?;
        RecordStore::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_set_delete() {
        let mut rs = RecordStore::open("db");
        let a = rs.add_record(b"alpha").unwrap();
        let b = rs.add_record(b"beta").unwrap();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(rs.get_record(a).unwrap(), b"alpha");
        rs.set_record(a, b"ALPHA").unwrap();
        assert_eq!(rs.get_record(a).unwrap(), b"ALPHA");
        rs.delete_record(a).unwrap();
        assert_eq!(rs.get_record(a), Err(RmsError::InvalidRecordId(1)));
        assert_eq!(rs.num_records(), 1);
    }

    #[test]
    fn ids_never_reused() {
        let mut rs = RecordStore::open("db");
        let a = rs.add_record(b"x").unwrap();
        rs.delete_record(a).unwrap();
        let b = rs.add_record(b"y").unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn operations_on_missing_records_fail() {
        let mut rs = RecordStore::open("db");
        assert!(rs.get_record(9).is_err());
        assert!(rs.set_record(9, b"x").is_err());
        assert!(rs.delete_record(9).is_err());
    }

    #[test]
    fn enumerate_in_id_order() {
        let mut rs = RecordStore::open("db");
        rs.add_record(b"1").unwrap();
        rs.add_record(b"2").unwrap();
        rs.add_record(b"3").unwrap();
        rs.delete_record(2).unwrap();
        let ids: Vec<RecordId> = rs.enumerate().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut rs = RecordStore::open("subscriptions");
        rs.add_record(b"first").unwrap();
        let dead = rs.add_record(b"dead").unwrap();
        rs.add_record(&[0u8; 300]).unwrap();
        rs.delete_record(dead).unwrap();
        let restored = RecordStore::from_bytes(&rs.to_bytes()).unwrap();
        assert_eq!(restored, rs);
        assert_eq!(restored.next_record_id(), rs.next_record_id());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert_eq!(RecordStore::from_bytes(b""), Err(RmsError::CorruptSnapshot));
        assert_eq!(RecordStore::from_bytes(b"XXXX"), Err(RmsError::CorruptSnapshot));
        let mut snap = RecordStore::open("x").to_bytes();
        snap.truncate(snap.len() - 1);
        // Truncating the trailing count byte corrupts it.
        assert!(RecordStore::from_bytes(&snap).is_err());
    }

    #[test]
    fn quota_enforced() {
        let mut rs = RecordStore::open("tiny");
        rs.quota = 10;
        rs.add_record(b"12345").unwrap();
        assert_eq!(rs.add_record(b"123456"), Err(RmsError::StoreFull { quota: 10 }));
        // Replacing within quota is fine.
        rs.set_record(1, b"1234567890").unwrap();
        assert_eq!(rs.set_record(1, b"12345678901"), Err(RmsError::StoreFull { quota: 10 }));
    }

    #[test]
    fn file_persistence() {
        let dir = std::env::temp_dir().join("pdagent-rms-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.prms");
        let mut rs = RecordStore::open("persist");
        rs.add_record(b"on disk").unwrap();
        rs.save_to(&path).unwrap();
        let loaded = RecordStore::load_from(&path).unwrap();
        assert_eq!(loaded, rs);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_record_allowed() {
        let mut rs = RecordStore::open("db");
        let id = rs.add_record(b"").unwrap();
        assert_eq!(rs.get_record(id).unwrap(), b"");
        let restored = RecordStore::from_bytes(&rs.to_bytes()).unwrap();
        assert_eq!(restored.get_record(id).unwrap(), b"");
    }
}

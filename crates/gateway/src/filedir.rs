//! The File Directory (paper Figure 6): "the File Directory will allocate a
//! space for storing these document and classes, and then it will signal the
//! Mobile Agent Server".
//!
//! A quota-bounded staging area on the gateway host. During dispatch the
//! Agent Creator's classes and the Document Creator's parameter files are
//! staged here until the MAS picks the agent up; returned result documents
//! are staged until the device collects them. The quota models the
//! gateway's disk budget; eviction is oldest-collected-first, and staged
//! entries that were never released are protected.

use std::collections::BTreeMap;

/// What kind of artifact a staged entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Generated agent classes (the Agent Creator's output).
    AgentClasses,
    /// Parameter/requirement documents (the Document Creator's output).
    ParameterDoc,
    /// A returned result document awaiting collection.
    ResultDoc,
}

impl FileKind {
    /// The name an agent's file of this kind is staged under:
    /// `{id}/classes`, `{id}/params.xml` or `{id}/result.xml`.
    pub fn staged_name(self, agent_id: &str) -> String {
        let leaf = match self {
            FileKind::AgentClasses => "classes",
            FileKind::ParameterDoc => "params.xml",
            FileKind::ResultDoc => "result.xml",
        };
        format!("{agent_id}/{leaf}")
    }
}

/// One staged file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedFile {
    /// Artifact kind.
    pub kind: FileKind,
    /// Payload bytes.
    pub bytes: Vec<u8>,
    /// Monotonic sequence of staging (for age-based eviction).
    seq: u64,
    /// Released entries may be evicted under quota pressure.
    released: bool,
}

/// Errors from the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileDirError {
    /// The quota cannot fit this file even after evicting everything
    /// evictable.
    OutOfSpace {
        /// Bytes requested.
        requested: usize,
        /// Bytes that could be made available.
        available: usize,
    },
    /// No file staged under that name.
    NotFound,
}

impl std::fmt::Display for FileDirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileDirError::OutOfSpace { requested, available } => {
                write!(f, "file directory full: need {requested}, have {available}")
            }
            FileDirError::NotFound => write!(f, "no such staged file"),
        }
    }
}

impl std::error::Error for FileDirError {}

/// The staging area.
#[derive(Debug)]
pub struct FileDirectory {
    files: BTreeMap<String, StagedFile>,
    next_seq: u64,
    /// Disk budget in bytes.
    pub quota: usize,
}

impl FileDirectory {
    /// A directory with the given quota.
    pub fn new(quota: usize) -> FileDirectory {
        FileDirectory { files: BTreeMap::new(), next_seq: 0, quota }
    }

    /// Bytes currently staged.
    pub fn used(&self) -> usize {
        self.files.values().map(|f| f.bytes.len()).sum()
    }

    /// Number of staged files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Stage (or replace) a file under `name`, evicting old *released*
    /// entries if needed to fit the quota.
    pub fn allocate(
        &mut self,
        name: impl Into<String>,
        kind: FileKind,
        bytes: Vec<u8>,
    ) -> Result<(), FileDirError> {
        let name = name.into();
        let incoming = bytes.len();
        let replacing = self.files.get(&name).map(|f| f.bytes.len()).unwrap_or(0);
        // Evict released entries, oldest first, until it fits.
        while self.used() - replacing + incoming > self.quota {
            let victim = self
                .files
                .iter()
                .filter(|(n, f)| f.released && **n != name)
                .min_by_key(|(_, f)| f.seq)
                .map(|(n, _)| n.clone());
            match victim {
                Some(victim) => {
                    self.files.remove(&victim);
                }
                None => {
                    let pinned: usize = self
                        .files
                        .iter()
                        .filter(|(n, f)| !f.released || **n == name)
                        .map(|(_, f)| f.bytes.len())
                        .sum();
                    return Err(FileDirError::OutOfSpace {
                        requested: incoming,
                        available: self.quota.saturating_sub(pinned - replacing),
                    });
                }
            }
        }
        self.next_seq += 1;
        self.files.insert(
            name,
            StagedFile { kind, bytes, seq: self.next_seq, released: false },
        );
        Ok(())
    }

    /// Read a staged file.
    pub fn read(&self, name: &str) -> Result<&StagedFile, FileDirError> {
        self.files.get(name).ok_or(FileDirError::NotFound)
    }

    /// Mark a file as consumed (the MAS picked up the classes / the device
    /// collected the result); it becomes evictable but stays readable until
    /// space is needed.
    pub fn release(&mut self, name: &str) -> Result<(), FileDirError> {
        match self.files.get_mut(name) {
            Some(f) => {
                f.released = true;
                Ok(())
            }
            None => Err(FileDirError::NotFound),
        }
    }

    /// Stage an agent's file of `kind` under its [`FileKind::staged_name`].
    pub fn stage(&mut self, id: &str, kind: FileKind, bytes: Vec<u8>) -> Result<(), FileDirError> {
        self.allocate(kind.staged_name(id), kind, bytes)
    }

    /// Release an agent's staged classes and parameter document: a MAS has
    /// the agent, or it is home.
    pub fn release_staging(&mut self, id: &str) {
        let _ = self.release(&FileKind::AgentClasses.staged_name(id));
        let _ = self.release(&FileKind::ParameterDoc.staged_name(id));
    }

    /// Remove a file immediately.
    pub fn remove(&mut self, name: &str) -> Result<(), FileDirError> {
        self.files.remove(name).map(|_| ()).ok_or(FileDirError::NotFound)
    }

    /// Names of staged files (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_release_remove() {
        let mut dir = FileDirectory::new(1024);
        dir.allocate("ag-1/classes", FileKind::AgentClasses, vec![1; 100]).unwrap();
        dir.allocate("ag-1/params.xml", FileKind::ParameterDoc, vec![2; 50]).unwrap();
        assert_eq!(dir.used(), 150);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.read("ag-1/classes").unwrap().kind, FileKind::AgentClasses);
        dir.release("ag-1/classes").unwrap();
        // Still readable after release.
        assert!(dir.read("ag-1/classes").is_ok());
        dir.remove("ag-1/params.xml").unwrap();
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.remove("ag-1/params.xml"), Err(FileDirError::NotFound));
    }

    #[test]
    fn quota_evicts_released_oldest_first() {
        let mut dir = FileDirectory::new(300);
        dir.allocate("a", FileKind::ResultDoc, vec![0; 100]).unwrap();
        dir.allocate("b", FileKind::ResultDoc, vec![0; 100]).unwrap();
        dir.allocate("c", FileKind::ResultDoc, vec![0; 100]).unwrap();
        dir.release("a").unwrap();
        dir.release("b").unwrap();
        // Needs 100 bytes: evicts "a" (oldest released), not "b".
        dir.allocate("d", FileKind::ResultDoc, vec![0; 100]).unwrap();
        assert!(dir.read("a").is_err());
        assert!(dir.read("b").is_ok());
        assert!(dir.read("d").is_ok());
    }

    #[test]
    fn unreleased_files_are_protected() {
        let mut dir = FileDirectory::new(200);
        dir.allocate("pinned-1", FileKind::AgentClasses, vec![0; 100]).unwrap();
        dir.allocate("pinned-2", FileKind::AgentClasses, vec![0; 100]).unwrap();
        let err = dir.allocate("new", FileKind::ResultDoc, vec![0; 50]).unwrap_err();
        assert!(matches!(err, FileDirError::OutOfSpace { requested: 50, .. }));
        // Both pinned files intact.
        assert!(dir.read("pinned-1").is_ok());
        assert!(dir.read("pinned-2").is_ok());
    }

    #[test]
    fn replace_same_name_reuses_its_space() {
        let mut dir = FileDirectory::new(100);
        dir.allocate("x", FileKind::ResultDoc, vec![0; 80]).unwrap();
        // Replacing x with 90 bytes fits because x's 80 are reclaimed.
        dir.allocate("x", FileKind::ResultDoc, vec![0; 90]).unwrap();
        assert_eq!(dir.used(), 90);
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn oversized_file_rejected_cleanly() {
        let mut dir = FileDirectory::new(10);
        let err = dir.allocate("huge", FileKind::ResultDoc, vec![0; 1000]).unwrap_err();
        assert!(matches!(err, FileDirError::OutOfSpace { .. }));
        assert!(dir.is_empty());
    }
}

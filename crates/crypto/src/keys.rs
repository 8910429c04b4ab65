//! Key registry and the unique-id scheme for downloaded agent code.
//!
//! Paper §3.1: "Each MA code downloaded will be assigned a unique id by the
//! platform for the purpose of authorization in later execution." §3.2: the
//! Agent Dispatcher "generate\[s\] a unique key from the assigned code id" and
//! the gateway's Agent Creator only instantiates the agent "if the supplied
//! unique key is valid". This module provides both halves: the id→key
//! derivation used by devices, and the registry a gateway consults to
//! validate keys and look up principals' public keys.

use std::collections::HashMap;

use crate::md5::md5_hex;
use crate::rsa::{KeyPair, PublicKey};

/// A unique id assigned to a downloaded piece of MA code.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UniqueId(pub String);

impl UniqueId {
    /// Mint an id from a service name and a per-device counter.
    pub fn mint(service: &str, device: &str, counter: u64) -> UniqueId {
        UniqueId(format!("{service}@{device}#{counter}"))
    }

    /// Derive the authorization key for this id under a shared secret.
    ///
    /// Both the device (at dispatch time) and the gateway (at validation
    /// time) compute `md5(secret || id)`; the secret is established when the
    /// code is downloaded from the trusted gateway (§3.1).
    pub fn derive_key(&self, shared_secret: &str) -> String {
        md5_hex(format!("{shared_secret}||{}", self.0).as_bytes())
    }
}

impl std::fmt::Display for UniqueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Registry held by a gateway: RSA key pairs per gateway identity and the
/// shared secrets per issued code id.
#[derive(Debug, Default)]
pub struct KeyRegistry {
    keypairs: HashMap<String, KeyPair>,
    code_secrets: HashMap<UniqueId, String>,
}

impl KeyRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate and store a key pair for `principal` (e.g. a gateway name),
    /// returning the public half for distribution.
    pub fn generate_for(&mut self, principal: &str, seed: u64) -> PublicKey {
        let kp = KeyPair::generate(seed);
        self.keypairs.insert(principal.to_owned(), kp);
        kp.public
    }

    /// Full key pair for a principal (the gateway's own view).
    pub fn keypair(&self, principal: &str) -> Option<&KeyPair> {
        self.keypairs.get(principal)
    }

    /// Public key for a principal (what a device downloads).
    pub fn public_key(&self, principal: &str) -> Option<PublicKey> {
        self.keypairs.get(principal).map(|kp| kp.public)
    }

    /// Record the shared secret for a code id at subscription time.
    pub fn register_code(&mut self, id: UniqueId, shared_secret: impl Into<String>) {
        self.code_secrets.insert(id, shared_secret.into());
    }

    /// Validate an authorization key presented at dispatch time.
    pub fn validate_code_key(&self, id: &UniqueId, presented_key: &str) -> bool {
        match self.code_secrets.get(id) {
            Some(secret) => id.derive_key(secret) == presented_key,
            None => false,
        }
    }

    /// Forget a code id (e.g. subscription revoked).
    pub fn revoke_code(&mut self, id: &UniqueId) -> bool {
        self.code_secrets.remove(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_produces_distinct_ids() {
        let a = UniqueId::mint("ebank", "dev1", 1);
        let b = UniqueId::mint("ebank", "dev1", 2);
        let c = UniqueId::mint("ebank", "dev2", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.0, "ebank@dev1#1");
    }

    #[test]
    fn derive_key_depends_on_secret_and_id() {
        let id = UniqueId::mint("ebank", "dev1", 1);
        let k1 = id.derive_key("s1");
        let k2 = id.derive_key("s2");
        assert_ne!(k1, k2);
        let id2 = UniqueId::mint("ebank", "dev1", 2);
        assert_ne!(k1, id2.derive_key("s1"));
        assert_eq!(k1.len(), 32);
    }

    #[test]
    fn registry_validates_correct_key() {
        let mut reg = KeyRegistry::new();
        let id = UniqueId::mint("food", "dev9", 3);
        reg.register_code(id.clone(), "shared-secret");
        assert!(reg.validate_code_key(&id, &id.derive_key("shared-secret")));
        assert!(!reg.validate_code_key(&id, &id.derive_key("wrong")));
        assert!(!reg.validate_code_key(&id, "garbage"));
    }

    #[test]
    fn unknown_id_rejected() {
        let reg = KeyRegistry::new();
        let id = UniqueId::mint("x", "y", 0);
        assert!(!reg.validate_code_key(&id, &id.derive_key("anything")));
    }

    #[test]
    fn revoke_removes_authorization() {
        let mut reg = KeyRegistry::new();
        let id = UniqueId::mint("ebank", "dev1", 1);
        reg.register_code(id.clone(), "s");
        assert!(reg.revoke_code(&id));
        assert!(!reg.validate_code_key(&id, &id.derive_key("s")));
        assert!(!reg.revoke_code(&id));
    }

    #[test]
    fn keypair_storage() {
        let mut reg = KeyRegistry::new();
        let public = reg.generate_for("gw-1", 42);
        assert_eq!(reg.public_key("gw-1"), Some(public));
        assert!(reg.public_key("gw-2").is_none());
        assert_eq!(reg.keypair("gw-1").unwrap().public, public);
    }
}

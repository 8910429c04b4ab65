//! TAB-FOOT — the paper's footprint claims.
//!
//! §2: "for most mobile applications, the MA code is of a size ranging from
//! 1KB to 8KB, and can be compressed before download into the wireless
//! device." §4: "To store the PDAgent platform together with the kXML
//! package within the wireless devices requires only 120KB storage space."
//!
//! This experiment measures, for every application agent we ship: the raw
//! bytecode size, the XML-wrapped size, the compressed (stored) size and the
//! compression ratio; plus the device-database footprint after subscribing
//! to all applications and collecting a result.

use pdagent_apps::ebank::ebank_program;
use pdagent_apps::food::food_program;
use pdagent_apps::news::news_program;
use pdagent_codec::compress::{compress, Algorithm};
use pdagent_core::db::{DeviceDb, Subscription};
use pdagent_crypto::rsa::PublicKey;
use pdagent_vm::Program;

/// One agent's size breakdown.
#[derive(Debug, Clone)]
pub struct CodeFootprint {
    /// Agent name.
    pub name: String,
    /// Raw bytecode (`PDAC`) size.
    pub bytecode: usize,
    /// XML-wrapped (`<ma-code>`) size — what travels inside the PI.
    pub xml: usize,
    /// Compressed size per algorithm: (algorithm name, bytes).
    pub compressed: Vec<(&'static str, usize)>,
}

impl CodeFootprint {
    fn of(program: &Program) -> CodeFootprint {
        let bytecode = program.to_bytes();
        let xml = program.to_document_string();
        let compressed = [Algorithm::Rle, Algorithm::Lzss, Algorithm::Huffman, Algorithm::LzssHuffman, Algorithm::Auto]
            .iter()
            .map(|&alg| (alg.name(), compress(xml.as_bytes(), alg).len()))
            .collect();
        CodeFootprint {
            name: program.name.clone(),
            bytecode: bytecode.len(),
            xml: xml.len(),
            compressed,
        }
    }

    /// Best (Auto) compressed size.
    pub fn stored_size(&self) -> usize {
        self.compressed.last().map(|&(_, s)| s).unwrap_or(self.xml)
    }
}

/// The whole experiment's output.
#[derive(Debug, Clone)]
pub struct Footprint {
    /// Per-agent size breakdowns.
    pub agents: Vec<CodeFootprint>,
    /// Device-database bytes after subscribing to all three applications.
    pub db_after_subscriptions: usize,
    /// Serialized full-database snapshot size (the "platform state" that
    /// would persist on the handheld).
    pub db_snapshot: usize,
}

/// Run the measurement.
pub fn run() -> Footprint {
    let programs = [ebank_program(), food_program(), news_program()];
    let agents: Vec<CodeFootprint> = programs.iter().map(CodeFootprint::of).collect();

    // Build a device DB with all three subscriptions, as a subscribed
    // handheld would hold.
    let mut db = DeviceDb::new();
    for program in &programs {
        let sub = Subscription {
            service: program.name.clone(),
            code_id: format!("{}@dev#1", program.name),
            secret: "0123456789abcdef0123456789abcdef".into(),
            gateway: "gw-1".into(),
            public_key: PublicKey { n: 0xffff_ffff_cafe, e: 65537 },
            program: program.clone(),
        };
        db.put_subscription(&sub).expect("fits");
    }
    Footprint {
        agents,
        db_after_subscriptions: db.footprint_bytes(),
        db_snapshot: db.to_bytes().len(),
    }
}

impl Footprint {
    /// Render the report table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str("# TAB-FOOT — agent code & platform footprint (bytes)\n");
        out.push_str(
            "# agent               bytecode   xml    rle   lzss   huff   lz+h   auto  ratio\n",
        );
        for a in &self.agents {
            out.push_str(&format!("{:<20} {:>8} {:>6}", a.name, a.bytecode, a.xml));
            for &(_, size) in &a.compressed {
                out.push_str(&format!(" {size:>6}"));
            }
            out.push_str(&format!("  {:>5.2}\n", a.xml as f64 / a.stored_size() as f64));
        }
        out.push_str(&format!(
            "\ndevice DB after 3 subscriptions: {} bytes (snapshot {} bytes)\n",
            self.db_after_subscriptions, self.db_snapshot
        ));
        out.push_str("paper claims: MA code 1–8 KB; platform + kXML = 120 KB total\n");
        out
    }

    /// The paper's claims as checks.
    pub fn check_shape(&self) -> Result<(), String> {
        for a in &self.agents {
            // Paper's band is 1–8 KB for Java agents; our bytecode is denser,
            // so we accept 0.3–8 KB for the XML-wrapped form.
            if a.xml < 300 || a.xml > 8 * 1024 {
                return Err(format!("{}: XML size {} outside plausible band", a.name, a.xml));
            }
            if a.stored_size() >= a.xml {
                return Err(format!("{}: compression did not shrink the code", a.name));
            }
        }
        // All three subscriptions together stay far inside the 120 KB claim.
        if self.db_snapshot > 120 * 1024 {
            return Err(format!("device DB snapshot {} exceeds 120 KB", self.db_snapshot));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_claims_hold() {
        let f = run();
        f.check_shape().unwrap_or_else(|e| panic!("{e}\n{}", f.table()));
    }

    #[test]
    fn compression_ratio_is_meaningful() {
        let f = run();
        for a in &f.agents {
            let ratio = a.xml as f64 / a.stored_size() as f64;
            assert!(ratio > 1.2, "{}: ratio only {ratio:.2}", a.name);
        }
    }
}

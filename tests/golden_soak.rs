//! A golden digest of one small fleet soak, pinned across commits.
//!
//! The in-crate soak tests compare two runs of the same build (shard counts,
//! batching modes, observability on/off), so a refactor that shifts both
//! sides at once passes them all. This test pins the outcome itself: an
//! FNV-1a hash of the `Debug` rendering of the results, the observability
//! digest, the SLO digests and the merged alert timeline. Every field in
//! those is integer- or insertion-ordered, so the rendering is a pure
//! function of the seed and the simulated protocol behaviour.
//!
//! If a change is *meant* to alter the simulation, update the constant and
//! say why in the commit message.

use pdagent_bench::soak::{run_soak, SoakSpec};

/// The digest recorded before the event-queue, chaos, telemetry and
/// `SoakSpec` deletion pass; every later build must reproduce it.
const GOLDEN: u64 = 0xee17_c513_8205_d0f4;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn soak_digest_matches_golden() {
    let mut spec = SoakSpec::new(42, 3, 2);
    spec.pi_pad = 4 * 1024;
    spec.slo = true;
    spec.observe = true;
    spec.federation = true;
    spec.sample = true;
    spec.shards = 2;
    let out = run_soak(&spec);
    let rendered = format!("{:?}|{:?}|{:?}|{:?}", out.results, out.obs, out.slo, out.alerts);
    let digest = fnv1a(rendered.as_bytes());
    assert_eq!(digest, GOLDEN, "soak digest drifted: got {digest:#018x}");
}

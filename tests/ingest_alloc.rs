//! Hostile scrape bodies: monitors and the federation scraper stream
//! whatever a target answers to `GET /metrics` into the `HeldSnapshot` they
//! keep for it, so `HeldSnapshot::apply` must not let a body make it hold
//! much more than the body itself.
//!
//! A `fleet_ops`-shaped gateway's full body and its delta over it
//! (`pdagent_bench::scrape`) are cut short at every byte and have every
//! byte replaced by five values. Each damaged body is applied to a warm
//! holder, one that took the undamaged full body and so has its series and
//! slot cache in place. What the apply has live at once stays within
//! `PER_BYTE` bytes per input byte plus `SLACK`: the new series it names,
//! the label sets it caches and the per-body scratch all grow with the
//! body, and nothing else does.

use pdagent_bench::scrape::target_bodies;
use pdagent_net::telemetry::HeldSnapshot;

mod support;
use support::peak_allocation;

/// Bytes an apply may have live per byte of body: a damaged line can become
/// a new series (its key, and its label set as a slot-cache key), and the
/// section or cache it joins may double. The worst input here has 1.6.
const PER_BYTE: usize = 2;
/// Bytes an apply may have live whatever the body.
const SLACK: usize = 4 * 1024;

/// Apply `body` to a copy of `warm` and check what that had live at once.
fn apply_bounded(warm: &HeldSnapshot, body: &str) {
    let mut held = warm.clone();
    let peak = peak_allocation(|| held.apply(body));
    let bound = PER_BYTE * body.len() + SLACK;
    assert!(
        peak <= bound,
        "{peak} bytes live applying {} bytes:\n{body}",
        body.len()
    );
}

#[test]
fn damaged_bodies_stay_within_the_allocation_bound() {
    // Six stages, as a gateway serves them: a 7.0 KB full body and a
    // 7.0 KB delta.
    let (full, delta) = target_bodies(6);
    let mut warm = HeldSnapshot::new();
    warm.apply(&full);
    // Once undamaged, so the per-thread scratch has its steady size.
    apply_bounded(&warm, &delta);
    let subs = [b'"', b'\\', b'}', b'\n', b'9'];
    for body in [&full, &delta] {
        for cut in 0..=body.len() {
            apply_bounded(&warm, &body[..cut]);
        }
        for i in 0..body.len() {
            for sub in subs {
                let mut bytes = body.as_bytes().to_vec();
                bytes[i] = sub;
                apply_bounded(&warm, std::str::from_utf8(&bytes).expect("ASCII bodies"));
            }
        }
    }
}

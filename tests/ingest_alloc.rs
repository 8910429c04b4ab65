//! Hostile scrape bodies: monitors and the federation scraper stream
//! whatever a target answers to `GET /metrics` into the `HeldSnapshot` they
//! keep for it, so `HeldSnapshot::apply` must not let a body make it hold
//! much more than the body itself.
//!
//! A `fleet_ops`-shaped gateway's full body and its delta over it
//! (`pdagent_bench::scrape`) go through the hostile-input driver, with the
//! exposition format's quote, backslash, brace, line end and digit as extra
//! bytes. Each damaged body is applied to a warm holder, one that took the
//! undamaged full body and so has its series and slot cache in place, and
//! what the holder is left with must render to a body that leaves the same
//! rendering. What the apply has live at once stays within
//! `PER_BYTE` bytes per input byte plus `SLACK`: the new series it names,
//! the label sets it caches and the per-body scratch all grow with the
//! body, and nothing else does.

use pdagent_bench::scrape::target_bodies;
use pdagent_net::telemetry::{render_prom, HeldSnapshot};

mod support;
use support::{hostile, peak_allocation};

/// Bytes an apply may have live per byte of body: a damaged line can become
/// a new series (its key, and its label set as a slot-cache key), and the
/// section or cache it joins may double. The worst input here has 1.6.
const PER_BYTE: usize = 2;
/// Bytes an apply may have live whatever the body.
const SLACK: usize = 4 * 1024;

/// Apply `body` to a copy of `warm`, checking what the apply had live at
/// once, and give what the copy then holds, rendered: a snapshot a damaged
/// body leaves may hold an exemplar for a bucket it counts nothing in,
/// which no body can carry.
fn apply_bounded(warm: &HeldSnapshot, body: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(body);
    let mut held = warm.clone();
    let peak = peak_allocation(|| held.apply(&text));
    let bound = PER_BYTE * body.len() + SLACK;
    assert!(peak <= bound, "{peak} bytes live applying {} bytes:\n{text}", body.len());
    Some(render_prom("gw-0", held.snapshot()))
}

#[test]
fn damaged_bodies_stay_within_the_allocation_bound() {
    // Six stages, as a gateway serves them: a 7.0 KB full body and a
    // 7.0 KB delta.
    let (full, delta) = target_bodies(6);
    let mut warm = HeldSnapshot::new();
    warm.apply(&full);
    // One thread per body: each is about 130,000 inputs. A thread's first
    // input is its body undamaged, which gives the per-thread scratch its
    // steady size.
    std::thread::scope(|scope| {
        for body in [&full, &delta] {
            let inputs = hostile::inputs(body.as_bytes(), b"\"\\}\n9");
            let decode = |bytes: &[u8]| apply_bounded(&warm, bytes);
            scope.spawn(move || hostile::drive(inputs, decode, |text| text.clone().into_bytes()));
        }
    });
}

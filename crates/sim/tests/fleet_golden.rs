//! `GOLDEN_FLEET` pins the exact fleet `Fleet::generate` returns: an FNV-1a
//! hash over the bits of every field of every `DeviceProfile` (speed,
//! bandwidth, crash probability, responsiveness group), per
//! (fleet size, group count, seed) cell. The group ranking is where a
//! rewrite of the generator can go wrong without any statistical test
//! noticing, so sizes with uneven groups (7 and 4 001 clients over 4 or 7
//! groups) and a fleet as large as the 100 000-client benchmark's are in the
//! grid. Re-capture (only legitimate when intentionally changing the fleet):
//! `SCHED_EQ_CAPTURE=1 cargo test -p fs-sim --test fleet_golden -- --nocapture`.

use fs_sim::{Fleet, FleetConfig};

/// `"clients/groups/seed"` → hash, captured from the generator that ranked
/// with a stable `sort_by` on recomputed round latencies.
const GOLDEN_FLEET: &[(&str, u64)] = &[
    ("1/1/0x11", 0x73e3816daaa6501d),
    ("1/1/0xf1e9", 0x4b7c92ee2d9c469e),
    ("1/4/0x11", 0x73e3816daaa6501d),
    ("1/4/0xf1e9", 0x4b7c92ee2d9c469e),
    ("1/7/0x11", 0x73e3816daaa6501d),
    ("1/7/0xf1e9", 0x4b7c92ee2d9c469e),
    ("7/1/0x11", 0xebae3dc0e76839af),
    ("7/1/0xf1e9", 0x8c2b8852c15227f3),
    ("7/4/0x11", 0x5a68f054086f455c),
    ("7/4/0xf1e9", 0x6e6b04e39179ac28),
    ("7/7/0x11", 0x2a2ec94da21a0394),
    ("7/7/0xf1e9", 0xa8353af96a308868),
    ("4001/1/0x11", 0xcc1e5a1f72e42e73),
    ("4001/1/0xf1e9", 0x946999b3dad1cb6f),
    ("4001/4/0x11", 0x5b26b99e7178b0e4),
    ("4001/4/0xf1e9", 0x920852202b1f7b4c),
    ("4001/7/0x11", 0x1d81a0d57473ef65),
    ("4001/7/0xf1e9", 0x62581a2c241bb181),
    ("100000/1/0x11", 0x7b25e1a1595cbc90),
    ("100000/1/0xf1e9", 0xf58f04dc2d49b4bc),
    ("100000/4/0x11", 0x219e15892b3e33e0),
    ("100000/4/0xf1e9", 0x3d4b92c20acec470),
    ("100000/7/0x11", 0xa0ca417a788e0fbc),
    ("100000/7/0xf1e9", 0xe45c67d7192855e8),
];

/// FNV-1a over every profile's field bits, in client order.
fn fleet_hash(fleet: &Fleet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in fleet.profiles() {
        let words = [
            p.compute_speed.to_bits(),
            p.bandwidth.to_bits(),
            p.crash_prob.to_bits(),
            p.group as u64,
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn generated_fleets_match_their_pins() {
    let capture = std::env::var_os("SCHED_EQ_CAPTURE").is_some();
    for num_clients in [1, 7, 4_001, 100_000] {
        for num_groups in [1, 4, 7] {
            for seed in [17, 0xf1ee ^ 7] {
                let fleet = Fleet::generate(&FleetConfig {
                    num_clients,
                    num_groups,
                    speed_sigma: 1.5,
                    crash_prob: 0.05,
                    seed,
                    ..Default::default()
                });
                assert_eq!(fleet.len(), num_clients);
                let label = format!("{num_clients}/{num_groups}/{seed:#x}");
                let actual = fleet_hash(&fleet);
                if capture {
                    println!("    (\"{label}\", {actual:#018x}),");
                    continue;
                }
                let expected = GOLDEN_FLEET
                    .iter()
                    .find(|(l, _)| *l == label)
                    .unwrap_or_else(|| panic!("no golden entry for cell {label}"))
                    .1;
                assert_eq!(
                    actual, expected,
                    "{label}: fleet diverged from its pin ({actual:#018x} != {expected:#018x})"
                );
            }
        }
    }
}

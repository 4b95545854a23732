//! Pinned answers: the correctness gate's reference values.
//!
//! Seed-independent inputs (snapshots, full fault-model universes) have one
//! pinned digest each. Seeded inputs are pinned for the default and the
//! held-out seed; on any other seed the deep-stuck sample is still checked
//! fault by fault against the golden table of the whole c1355s checkpoint
//! universe, and the alu-models `multi` sample against simulation.

use dp_faults::Fault;

use crate::util::fnv1a64;

pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 2;

/// `table_digest` of c1355s's snapshot under `OrderStrategy::Auto`.
pub const DEEP_SNAPSHOT: u64 = 0x7ad1_0bcb_9f48_6f8d;
/// `summaries_digest` of the deep-stuck sweep, per recorded seed.
pub const DEEP_DIGEST: &[(u64, u64)] = &[
    (DEFAULT_SEED, 0x2c40_3301_d69d_6e06),
    (HELD_OUT_SEED, 0xf24d_8905_a8cd_df11),
];

/// `table_digest` of alu74181's snapshot under the default engine config.
pub const ALU_SNAPSHOT: u64 = 0x7f8a_42e4_9c28_a735;
/// `summaries_digest` of the full-universe alu-models requests, in
/// `alu::MODELS` order (`multi`, the seeded sample, is pinned below).
pub const ALU_MODEL_DIGEST: [u64; 5] = [
    0xe1ad_f99f_1a20_7b56,
    0xbeb1_a541_c3d2_9b4b,
    0x5667_54e9_2e41_ac02,
    0xf132_126d_f365_c65c,
    0xf947_9eeb_381f_8810,
];
/// `summaries_digest` of the seeded `multi` sample, per recorded seed.
pub const ALU_MULTI_DIGEST: &[(u64, u64)] = &[
    (DEFAULT_SEED, 0xb143_cf74_c607_b08e),
    (HELD_OUT_SEED, 0x0b41_c475_0bca_6429),
];

/// Digest of one streamed `nfbf-and` sweep of alu74181 (its record lines,
/// newline-terminated) — equal to the batch `summaries_digest`.
pub const SERVE_STREAM_DIGEST: u64 = 0xbeb1_a541_c3d2_9b4b;

pub fn seeded(pins: &[(u64, u64)], seed: u64) -> Option<u64> {
    pins.iter().find(|&&(s, _)| s == seed).map(|&(_, d)| d)
}

const DEEP_GOLDEN: &str = include_str!("../golden/c1355s_checkpoint.txt");

/// Digest of a fault universe's names, which keys the golden table.
pub fn universe_digest(universe: &[Fault]) -> u64 {
    let names: Vec<String> = universe.iter().map(Fault::to_string).collect();
    fnv1a64(names.join("\n").as_bytes())
}

/// The golden per-fault line hashes of c1355s's checkpoint universe, in
/// universe order (see `deep::line_hash`).
pub fn deep_golden(universe: &[Fault]) -> Vec<u64> {
    let mut lines = DEEP_GOLDEN.lines();
    let header = lines.next().unwrap_or_default();
    let expected = format!(
        "universe {:016x} faults {}",
        universe_digest(universe),
        universe.len()
    );
    if header != expected {
        crate::fatal(&format!(
            "golden table header `{header}` does not match `{expected}`"
        ));
    }
    let hashes: Vec<u64> = lines
        .map(|l| {
            u64::from_str_radix(l, 16)
                .unwrap_or_else(|_| crate::fatal(&format!("bad golden line `{l}`")))
        })
        .collect();
    if hashes.len() != universe.len() {
        crate::fatal("golden table length does not match the universe");
    }
    hashes
}

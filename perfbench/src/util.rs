//! Small helpers shared by every workload: seeded randomness, statistics,
//! FNV hashing, resident-memory readout and the correctness tally.

use std::time::Instant;

/// SplitMix64: a tiny, well-mixed generator so inputs depend on `--seed`
/// alone (no dependency on any RNG crate's stream stability).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_d1ff_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, ascending.
    pub fn subset(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        let mut picked = all[..k].to_vec();
        picked.sort_unstable();
        picked
    }
}

/// FNV-1a over bytes — the same hash `dp_core::summaries_digest` uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(max - min) / median` — the within-run spread of a repeated counter.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Running tally of the correctness gate: every attempted operation, and
/// every one that did not come back as a correct exact (or oscillating)
/// answer. The first few mismatches are kept for the report.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records `n` failed operations when `ok` is false.
    pub fn expect(&mut self, ok: bool, n: usize, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += n.max(1) as u64;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Folds another tally (e.g. a client thread's) into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

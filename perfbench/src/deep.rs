//! `deep-stuck`: a seeded 128-fault sample of c1355s's checkpoint stuck-at
//! universe under `OrderStrategy::Auto` — the deep reconvergent cone whose
//! cost is the big-table kernel and the pre-freeze sift.

use dp_core::{summary_line, DiffProp, EngineConfig, FaultSummary, OrderStrategy, SweepResult};
use dp_faults::{checkpoint_faults, Fault, FaultSite};
use dp_netlist::generators::c1355_surrogate;
use dp_netlist::{Circuit, Reachability};

use crate::batch::{Batch, Request};
use crate::pins;
use crate::util::{fnv1a64, Gate, Rng};

pub const SAMPLE: usize = 128;
/// Faults whose test sets are re-checked by simulation after the sweeps.
const SIM_CHECKED: usize = 6;
/// Random vectors simulated per re-checked fault.
const SIM_VECTORS: usize = 32;

pub fn universe(circuit: &Circuit) -> Vec<Fault> {
    checkpoint_faults(circuit)
        .into_iter()
        .map(Fault::from)
        .collect()
}

/// Indices into [`universe`] of the seeded sample, ascending. The universe
/// is ranked by fanout-cone size and cut into [`SAMPLE`] equal strata; the
/// seed picks one fault per stratum, so every seed draws the same mix of
/// shallow and deep faults.
pub fn sample(circuit: &Circuit, seed: u64) -> Vec<usize> {
    let faults = universe(circuit);
    let reach = Reachability::compute(circuit);
    let mut mask = vec![0u64; reach.num_words()];
    let mut ranked: Vec<(u32, usize)> = faults
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let net = match f {
                Fault::StuckAt(s) => match s.site {
                    FaultSite::Net(n) => n,
                    FaultSite::Branch(b) => b.sink,
                },
                _ => unreachable!("checkpoint faults are stuck-at"),
            };
            mask.iter_mut().for_each(|w| *w = 0);
            reach.cone_union_into(net, &mut mask);
            (mask.iter().map(|w| w.count_ones()).sum(), i)
        })
        .collect();
    ranked.sort_unstable();
    let mut rng = Rng::new(seed);
    let n = ranked.len();
    let mut picked: Vec<usize> = (0..SAMPLE)
        .map(|k| {
            let (lo, hi) = (k * n / SAMPLE, (k + 1) * n / SAMPLE);
            ranked[lo + rng.below(hi - lo)].1
        })
        .collect();
    picked.sort_unstable();
    picked
}

/// The per-fault hash the golden table pins: the summary's batch TSV line
/// without its position.
pub fn line_hash(s: &FaultSummary) -> u64 {
    fnv1a64(summary_line(0, s).as_bytes())
}

fn requests(circuit: &Circuit, seed: u64) -> Vec<Request> {
    let all = universe(circuit);
    vec![Request {
        label: "stuck".into(),
        faults: sample(circuit, seed)
            .into_iter()
            .map(|i| all[i].clone())
            .collect(),
    }]
}

pub fn engine() -> EngineConfig {
    EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    }
}

pub fn batch(seed: u64, setups: usize) -> Batch<'static> {
    let circuit = c1355_surrogate();
    let picked = sample(&circuit, seed);
    let golden = pins::deep_golden(&universe(&circuit));
    let sim_circuit = circuit.clone();
    Batch {
        requests: requests(&circuit, seed),
        circuit,
        engine: engine(),
        setups,
        snapshot_digest: pins::DEEP_SNAPSHOT,
        check: Box::new(move |_, r: &SweepResult, gate: &mut Gate| {
            for (s, &u) in r.summaries.iter().zip(&picked) {
                gate.expect(line_hash(s) == golden[u], 1, || {
                    format!("{}: summary differs from the golden table", s.fault)
                });
            }
            if let Some(pin) = pins::seeded(pins::DEEP_DIGEST, seed) {
                let d = dp_core::summaries_digest(&r.summaries);
                gate.expect(d == pin, 1, || {
                    format!("digest {d:016x}, pinned {pin:016x}")
                });
            }
        }),
        post: Box::new(move |snap, pass: &[SweepResult], gate: &mut Gate| {
            simulate_tests(&sim_circuit, snap, &pass[0].summaries, seed, gate)
        }),
        compile: Box::new(c1355_surrogate),
        universe: Box::new(move |c| requests(c, seed)),
        setup_sum_tolerance: Some(0.15),
    }
}

/// Re-derives a few sampled faults' test sets on a thawed engine and checks
/// them against the scalar simulator: the picked test must detect, and on
/// seeded random vectors membership in the test set must equal detection.
fn simulate_tests(
    circuit: &Circuit,
    snap: &dp_core::GoodSnapshot,
    summaries: &[FaultSummary],
    seed: u64,
    gate: &mut Gate,
) {
    let mut rng = Rng::new(seed ^ 0x51_u64);
    let mut dp = DiffProp::from_snapshot(circuit, snap, engine());
    let n = circuit.num_inputs();
    for i in rng.subset(summaries.len(), SIM_CHECKED) {
        let s = &summaries[i];
        gate.attempt(1 + SIM_VECTORS);
        let a = match dp.try_analyze(&s.fault) {
            Ok(a) => a,
            Err(e) => {
                gate.expect(false, 1 + SIM_VECTORS, || format!("{}: {e}", s.fault));
                continue;
            }
        };
        gate.expect(
            a.detectability.to_bits() == s.detectability.to_bits(),
            1,
            || {
                format!(
                    "{}: fresh engine detectability differs from the sweep",
                    s.fault
                )
            },
        );
        if let Some(v) = dp.pick_test(&a) {
            gate.expect(dp_sim::detects(circuit, &s.fault, &v), 1, || {
                format!("{}: picked test does not detect", s.fault)
            });
        }
        for _ in 0..SIM_VECTORS {
            let v: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
            let member = dp.good().manager().eval(a.test_set, &v);
            gate.expect(member == dp_sim::detects(circuit, &s.fault, &v), 1, || {
                format!("{}: test-set membership disagrees with simulation", s.fault)
            });
        }
    }
}

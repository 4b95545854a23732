//! `alu-models`: the 74LS181 ALU under every fault model — thousands of
//! sub-millisecond faults, so per-class overhead, scheduling, the
//! feedback-bridge fixpoint and multi-site composition carry the weight.

use dp_analysis::fault_model_universe;
use dp_core::{summaries_digest, EngineConfig, FaultOutcome, FaultSummary, SweepResult};
use dp_netlist::generators::alu74181;
use dp_netlist::Circuit;
use dp_sim::{exhaustive_detectability, ternary_exhaustive_detectability};

use crate::batch::{Batch, Request};
use crate::pins;
use crate::util::{Gate, Rng};

pub const MODELS: [&str; 6] = [
    "stuck",
    "nfbf-and",
    "nfbf-or",
    "fbridge-and",
    "fbridge-or",
    "multi",
];
/// Size of the seeded pair sample of the `multi` model.
pub const MULTI_SAMPLE: usize = 16_000;
/// Faults per model checked against exhaustive simulation after the sweeps.
const ORACLE_CHECKED: usize = 24;

fn requests(circuit: &Circuit, seed: u64) -> Vec<Request> {
    MODELS
        .iter()
        .map(|&m| {
            let sample = (m == "multi").then_some(MULTI_SAMPLE);
            Request {
                label: m.to_string(),
                faults: fault_model_universe(circuit, m, sample, seed)
                    .unwrap_or_else(|e| crate::fatal(&e)),
            }
        })
        .collect()
}

pub fn batch(seed: u64, setups: usize) -> Batch<'static> {
    let circuit = alu74181();
    let oracle_circuit = circuit.clone();
    Batch {
        requests: requests(&circuit, seed),
        circuit,
        engine: EngineConfig::default(),
        setups,
        snapshot_digest: pins::ALU_SNAPSHOT,
        check: Box::new(move |i, r: &SweepResult, gate: &mut Gate| {
            let pin = if MODELS[i] == "multi" {
                pins::seeded(pins::ALU_MULTI_DIGEST, seed)
            } else {
                Some(pins::ALU_MODEL_DIGEST[i])
            };
            if let Some(pin) = pin {
                let d = summaries_digest(&r.summaries);
                gate.expect(d == pin, 1, || {
                    format!("{}: digest {d:016x}, pinned {pin:016x}", MODELS[i])
                });
            }
        }),
        post: Box::new(move |_, pass: &[SweepResult], gate: &mut Gate| {
            let mut rng = Rng::new(seed ^ 0xa1u64);
            for (model, r) in MODELS.iter().zip(pass) {
                for k in rng.subset(r.summaries.len(), ORACLE_CHECKED) {
                    gate.attempt(1);
                    check_oracle(&oracle_circuit, model, &r.summaries[k], gate);
                }
            }
        }),
        compile: Box::new(alu74181),
        universe: Box::new(move |c| requests(c, seed)),
        setup_sum_tolerance: None,
    }
}

/// One summary against exhaustive simulation (16,384 vectors): binary for
/// the acyclic models, ternary for feedback bridges.
fn check_oracle(circuit: &Circuit, model: &str, s: &FaultSummary, gate: &mut Gate) {
    let total = 1u64 << circuit.num_inputs();
    let (detected, oscillating) = if model.starts_with("fbridge") {
        let t = ternary_exhaustive_detectability(circuit, &s.fault);
        (t.detected, t.oscillating)
    } else {
        (exhaustive_detectability(circuit, &s.fault).0, 0)
    };
    let density = |n: u64| (n as f64 / total as f64).to_bits();
    let outcome_ok = match s.outcome {
        FaultOutcome::Exact => oscillating == 0,
        FaultOutcome::Oscillating { density_bits } => {
            oscillating > 0 && density_bits == density(oscillating)
        }
        FaultOutcome::Bounded { .. } => false,
    };
    gate.expect(
        s.test_count == Some(u128::from(detected))
            && s.detectability.to_bits() == density(detected)
            && outcome_ok,
        1,
        || format!("{model} {}: disagrees with exhaustive simulation", s.fault),
    );
}

//! Property layer for the extended fault models.
//!
//! Three families of invariants pin the new machinery to the old:
//!
//! * **Degeneracy** — a multiplicity-1 multiple stuck-at fault *is* the
//!   single stuck-at fault: every scalar the engine reports must be
//!   bit-identical between the two encodings, for every checkpoint fault.
//! * **Schedule invariance** — feedback-bridge and multi-fault sweeps are
//!   bit-identical across thread counts and batch sizes, and to a fresh
//!   engine per fault; the new models inherit the determinism contract of
//!   the sweep layer.
//!
//! (Fixpoint conservatism — the feedback fixpoint reproducing the one-pass
//! analysis on a non-feedback bridge — is a unit test of the engine, which
//! keeps the fixpoint entry point private.)

mod common;

use common::{feedback_universe, multi_universe, summary_line};
use diffprop::core::{
    sweep_universe, DiffProp, EngineConfig, FaultOutcome, FaultSummary, Parallelism, SweepConfig,
};
use diffprop::faults::{checkpoint_faults, Fault, MultiStuckAt};
use diffprop::netlist::generators::{c17, c95};
use diffprop::netlist::Circuit;

/// Every checkpoint fault, analysed both as a plain stuck-at and as a
/// multiplicity-1 multiple fault, must yield bit-identical scalars.
#[test]
fn multiplicity_one_multi_equals_single_stuck_at() {
    for circuit in [c17(), c95()] {
        let mut dp = DiffProp::new(&circuit);
        for f in checkpoint_faults(&circuit) {
            let single = dp.analyze(&Fault::StuckAt(f));
            let multi = dp.analyze(&Fault::MultiStuckAt(MultiStuckAt::new(vec![f])));
            assert_eq!(
                single.test_count, multi.test_count,
                "test_count for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(
                single.detectability.to_bits(),
                multi.detectability.to_bits(),
                "detectability for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(
                single.observable_outputs, multi.observable_outputs,
                "observability for {f:?} on {}",
                circuit.name()
            );
            assert_eq!(multi.fixpoint_iterations, 0, "acyclic model iterated");
            assert_eq!(multi.oscillation_density.to_bits(), 0f64.to_bits());
        }
    }
}

/// Renders a whole sweep as golden-format lines (losslessly, outcome
/// column included) for whole-universe comparison.
fn sweep_lines(circuit: &Circuit, faults: &[Fault], config: &SweepConfig) -> Vec<String> {
    sweep_universe(circuit, faults, config)
        .summaries
        .iter()
        .enumerate()
        .map(|(idx, s)| summary_line(circuit.name(), "x", idx, s))
        .collect()
}

/// The same lines from a fresh default engine per fault — no sweep, no
/// shared manager, no collapsing or batching.
fn fresh_engine_lines(circuit: &Circuit, faults: &[Fault]) -> Vec<String> {
    faults
        .iter()
        .enumerate()
        .map(|(idx, fault)| {
            let mut dp = DiffProp::with_config(circuit, EngineConfig::default());
            let a = dp.analyze(fault);
            let summary = FaultSummary {
                fault: fault.clone(),
                detectability: a.detectability,
                test_count: a.test_count,
                observable_outputs: a.observable_outputs.clone(),
                site_function_constant: a.site_function_constant,
                adherence: dp.adherence(&a),
                outcome: if a.oscillation_density > 0.0 {
                    FaultOutcome::Oscillating {
                        density_bits: a.oscillation_density.to_bits(),
                    }
                } else {
                    FaultOutcome::Exact
                },
            };
            summary_line(circuit.name(), "x", idx, &summary)
        })
        .collect()
}

/// The determinism contract, extended to the new models: every schedule —
/// serial or threaded, batched or not — produces summaries byte-identical
/// to a fresh engine per fault, oscillation densities included.
#[test]
fn extended_models_are_schedule_invariant() {
    for circuit in [c17(), c95()] {
        let mut faults = feedback_universe(&circuit, 30);
        faults.extend(multi_universe(&circuit, 60));
        let baseline = fresh_engine_lines(&circuit, &faults);
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
            for batch in [1, 8] {
                let config = SweepConfig {
                    parallelism,
                    batch,
                    ..Default::default()
                };
                assert_eq!(
                    baseline,
                    sweep_lines(&circuit, &faults, &config),
                    "summaries drift on {} under {parallelism:?}/batch {batch}",
                    circuit.name()
                );
            }
        }
    }
}

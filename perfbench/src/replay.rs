//! The traced replay: the work of `DiffProp::build_snapshot` and of a
//! warm `sweep_universe_ext`, re-run serially through the public pieces so
//! each piece can be timed from outside. Functions and results match the
//! library's own path (checked by the callers through the snapshot
//! `table_digest` and the summaries digest).

use dp_bdd::ManagerStats;
use dp_core::{
    plan_batches, summary_line, DiffProp, EngineConfig, FaultAnalysis, FaultOutcome, FaultSummary,
    GoodFunctions, GoodSnapshot, SweepResult,
};
use dp_faults::{collapse_faults, Fault, StuckAtFault};
use dp_netlist::{Circuit, Reachability};
use dp_serve::Frame;

use crate::trace::Tracer;
use crate::util::median;

/// `build_snapshot` sifts only tables above this many nodes (it gc's the
/// smaller ones); the replay has to make the same choice.
const SIFT_TABLE_FLOOR: usize = 1 << 12;

pub struct SetupReplay {
    pub snapshot: GoodSnapshot,
    pub build_nodes: usize,
    pub kept_frac: f64,
}

/// `build_snapshot`, one phase per span: order resolution, good-function
/// build, the pre-freeze sift (or gc below the floor), and the freeze.
pub fn replay_setup(
    tr: &mut Tracer,
    circuit: &Circuit,
    engine: EngineConfig,
) -> Result<SetupReplay, String> {
    let order = tr.span("good", "order.resolve", || engine.order.resolve(circuit));
    let mut good = tr
        .span("good", "good.build", || {
            GoodFunctions::try_build_with_order(circuit, &order, engine.budget)
        })
        .map_err(|e| format!("good-function build failed: {e}"))?;
    let build_nodes = good.num_nodes();
    tr.span("good", "good.sift", || {
        if engine.order.autosifts() && good.num_nodes() > SIFT_TABLE_FLOOR {
            good.sift();
        } else {
            good.gc();
        }
    });
    let snapshot = tr.span("good", "good.freeze", || good.freeze());
    Ok(SetupReplay {
        kept_frac: snapshot.num_nodes() as f64 / build_nodes.max(1) as f64,
        snapshot,
        build_nodes,
    })
}

pub struct SweepReplay {
    pub summaries: Vec<FaultSummary>,
    pub classes: usize,
    pub batches: usize,
    pub gates: u64,
    pub fixpoint_iters: u64,
    pub stats: ManagerStats,
}

fn outcome(a: &FaultAnalysis) -> FaultOutcome {
    if a.oscillation_density > 0.0 {
        FaultOutcome::Oscillating {
            density_bits: a.oscillation_density.to_bits(),
        }
    } else {
        FaultOutcome::Exact
    }
}

/// A serial warm sweep, one span per public call: collapse, reachability,
/// batch planning, one thaw, one analysis per planned batch (fused when the
/// batch holds several classes), one syndrome bound per member.
pub fn replay_sweep(
    tr: &mut Tracer,
    circuit: &Circuit,
    faults: &[Fault],
    snapshot: &GoodSnapshot,
    engine: EngineConfig,
    batch_max: usize,
) -> Result<SweepReplay, String> {
    let collapsed = tr.span("faults", "faults.collapse", || {
        collapse_faults(circuit, faults)
    });
    let classes = &collapsed.classes;
    let reach = tr.span("netlist", "netlist.reach", || {
        Reachability::compute(circuit)
    });
    let batches = tr.span("parallel", "parallel.plan", || {
        plan_batches(faults, classes, &reach, batch_max)
    });
    let mut dp = tr.span("engine", "engine.thaw", || {
        DiffProp::from_snapshot(circuit, snapshot, engine)
    });
    let mut slots: Vec<Option<FaultSummary>> = vec![None; faults.len()];
    let (mut gates, mut fixpoint_iters) = (0u64, 0u64);
    for batch in &batches {
        let analyses = if batch.len() > 1 {
            let reps: Vec<StuckAtFault> = batch
                .iter()
                .map(|&c| match &faults[classes[c].representative] {
                    Fault::StuckAt(f) => Ok(*f),
                    other => Err(format!(
                        "multi-class batch holds a non-stuck-at fault {other}"
                    )),
                })
                .collect::<Result<_, _>>()?;
            tr.span("engine", "engine.analyze", || {
                dp.try_analyze_stuck_at_batch(&reps)
            })
        } else {
            let rep = &faults[classes[batch[0]].representative];
            tr.span("engine", "engine.analyze", || dp.try_analyze(rep))
                .map(|a| vec![a])
        }
        .map_err(|e| format!("replayed analysis failed: {e}"))?;
        // A fused batch reports its shared propagation on every member.
        gates += u64::from(analyses[0].gates_propagated);
        fixpoint_iters += analyses
            .iter()
            .map(|a| u64::from(a.fixpoint_iterations))
            .sum::<u64>();
        for (&c, analysis) in batch.iter().zip(&analyses) {
            for &m in &classes[c].members {
                let fault = &faults[m];
                let bound = tr.span("engine", "engine.bound", || dp.detectability_bound(fault));
                slots[m] = Some(FaultSummary {
                    fault: fault.clone(),
                    detectability: analysis.detectability,
                    test_count: analysis.test_count,
                    observable_outputs: analysis.observable_outputs.clone(),
                    site_function_constant: analysis.site_function_constant,
                    adherence: bound.and_then(|u| (u > 0.0).then(|| analysis.detectability / u)),
                    outcome: outcome(analysis),
                });
            }
        }
    }
    let summaries = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("replay left fault {i} without a summary")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SweepReplay {
        summaries,
        classes: classes.len(),
        batches: batches.len(),
        gates,
        fixpoint_iters,
        stats: dp.good().manager().stats().clone(),
    })
}

/// Frames every summary the way the server streams it (`record` frames)
/// and parses it back; returns the total framed bytes.
pub fn frame_records(tr: &mut Tracer, summaries: &[FaultSummary]) -> Result<usize, String> {
    let mut bytes = 0;
    for (i, s) in summaries.iter().enumerate() {
        let line = tr.span("serve", "serve.encode", || {
            Frame::Record {
                index: i,
                line: summary_line(i, s),
            }
            .to_line()
        });
        bytes += line.len() + 1;
        tr.span("serve", "serve.decode", || Frame::from_line(&line))
            .map_err(|e| e.to_string())?;
    }
    Ok(bytes)
}

/// The six `bdd.*` kernel counters of one manager-stats block.
pub fn bdd_counters(s: &ManagerStats) -> [f64; 6] {
    let op = s.op_cumulative_total();
    [
        s.unique.lookups as f64,
        s.base_hits as f64 / s.unique.lookups.max(1) as f64,
        s.op_steps as f64,
        op.hits as f64 / op.lookups.max(1) as f64,
        s.peak_nodes as f64,
        s.gc_runs as f64,
    ]
}

pub const BDD_NAMES: [&str; 6] = [
    "bdd.unique_lookups",
    "bdd.base_hit_frac",
    "bdd.op_steps",
    "bdd.op_hit_frac",
    "bdd.peak_nodes",
    "bdd.gc_runs",
];

/// What the 2-thread passes of a traced run say about scheduling: chunk
/// claims per pass (median over passes) and the share of worker time spent
/// inside claimed chunks.
pub fn parallel_shape(passes: &[&Vec<SweepResult>]) -> (f64, f64) {
    let chunks: Vec<f64> = passes
        .iter()
        .map(|pass| {
            pass.iter()
                .flat_map(|r| &r.shards)
                .map(|s| s.chunks_claimed as f64)
                .sum()
        })
        .collect();
    let results = || passes.iter().flat_map(|pass| pass.iter());
    let busy: f64 = results()
        .flat_map(|r| &r.shards)
        .map(|s| s.busy.as_secs_f64())
        .sum();
    let capacity: f64 = results()
        .map(|r| r.workers as f64 * r.wall.as_secs_f64())
        .sum();
    (median(&chunks), busy / capacity.max(f64::MIN_POSITIVE))
}

//! The batch workloads' shared runner: repeated cold set-ups (inputs plus
//! `build_snapshot`), then warm 2-thread sweeps for the measured window
//! (`--trace 0`), or one untraced pass, one traced pass and the serial
//! replay (`--trace 1`).

use std::time::Instant;

use dp_bdd::ManagerStats;
use dp_core::{
    summaries_digest, sweep_report, sweep_universe_ext, DiffProp, EngineConfig, FaultOutcome,
    GoodSnapshot, Parallelism, SweepConfig, SweepResult,
};
use dp_faults::Fault;
use dp_netlist::Circuit;
use dp_telemetry::{report_to_json, CounterKind};

use crate::replay::{self, bdd_counters, BDD_NAMES};
use crate::trace::Tracer;
use crate::util::{median, ms_since, peak_rss_mb, quantile, spread, Gate};
use crate::Report;

/// The spans that decompose one set-up: input generation, then the
/// replayed `build_snapshot` phases.
pub const SETUP_PHASES: [&str; 6] = [
    "netlist.compile",
    "faults.universe",
    "order.resolve",
    "good.build",
    "good.sift",
    "good.freeze",
];

/// One sweep call of a pass: a label (the fault model) and its faults.
pub struct Request {
    pub label: String,
    pub faults: Vec<Fault>,
}

/// Workload-specific checks on one sweep result (pinned digests, golden
/// per-fault answers), given the request's index.
pub type SweepCheck<'a> = dyn Fn(usize, &SweepResult, &mut Gate) + 'a;
/// Workload-specific checks outside the timed region (simulation oracles),
/// given the warm snapshot and the first pass's results.
pub type PostCheck<'a> = dyn Fn(&GoodSnapshot, &[SweepResult], &mut Gate) + 'a;
/// Regenerates the requests from the circuit.
pub type Universe<'a> = dyn Fn(&Circuit) -> Vec<Request> + 'a;

pub struct Batch<'a> {
    pub circuit: Circuit,
    pub engine: EngineConfig,
    /// Cold snapshot builds per run; `setup_s` is their median.
    pub setups: usize,
    /// The snapshot's pinned `table_digest` (seed-independent).
    pub snapshot_digest: u64,
    pub requests: Vec<Request>,
    pub check: Box<SweepCheck<'a>>,
    pub post: Box<PostCheck<'a>>,
    /// Regenerates the circuit (timed in the traced run).
    pub compile: Box<dyn Fn() -> Circuit + 'a>,
    /// Regenerates the requests from the circuit (timed in the traced run).
    pub universe: Box<Universe<'a>>,
    /// Fail the traced run when the replayed setup phases do not add up to
    /// the measured setup within this share.
    pub setup_sum_tolerance: Option<f64>,
}

impl Batch<'_> {
    fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            engine: self.engine,
            parallelism: Parallelism::Threads(2),
            ..Default::default()
        }
    }

    /// One cold set-up: generate the circuit and the requests, then build
    /// the snapshot. Returns the snapshot and the set-up's milliseconds.
    fn setup(&self, tr: &mut Tracer, gate: &mut Gate) -> (GoodSnapshot, f64) {
        let t = Instant::now();
        let circuit = tr.span("netlist", "netlist.compile", || (self.compile)());
        let requests = tr.span("faults", "faults.universe", || (self.universe)(&circuit));
        let snap = tr
            .span("good", "good.snapshot", || {
                DiffProp::build_snapshot(&circuit, self.engine)
            })
            .unwrap_or_else(|e| crate::fatal(&format!("snapshot build failed: {e}")));
        let ms = ms_since(t);
        gate.attempt(1);
        gate.expect(
            circuit.digest() == self.circuit.digest()
                && requests
                    .iter()
                    .map(|r| &r.faults)
                    .eq(self.requests.iter().map(|r| &r.faults)),
            1,
            || "regenerated inputs differ".into(),
        );
        gate.attempt(1);
        gate.expect(snap.table_digest() == self.snapshot_digest, 1, || {
            format!(
                "snapshot table digest {:016x}, pinned {:016x}",
                snap.table_digest(),
                self.snapshot_digest
            )
        });
        (snap, ms)
    }

    /// One pass over every request; returns the results and per-request ms.
    fn pass(
        &self,
        tr: &mut Tracer,
        snap: &GoodSnapshot,
        gate: &mut Gate,
    ) -> (Vec<SweepResult>, Vec<f64>) {
        let config = self.sweep_config();
        let mut results = Vec::with_capacity(self.requests.len());
        let mut times = Vec::with_capacity(self.requests.len());
        for (i, req) in self.requests.iter().enumerate() {
            tr.set_request(i as u64);
            let t = Instant::now();
            let r = tr.span("parallel", "parallel.sweep", || {
                sweep_universe_ext(&self.circuit, &req.faults, &config, Some(snap), None)
            });
            times.push(ms_since(t));
            self.check_result(i, &r, gate);
            results.push(r);
        }
        (results, times)
    }

    fn check_result(&self, i: usize, r: &SweepResult, gate: &mut Gate) {
        let req = &self.requests[i];
        gate.attempt(req.faults.len());
        let answered = r
            .summaries
            .iter()
            .filter(|s| !matches!(s.outcome, FaultOutcome::Bounded { .. }))
            .count();
        gate.expect(
            answered == req.faults.len(),
            req.faults.len() - answered.min(req.faults.len()),
            || {
                format!(
                    "{}: {} of {} faults without an exact answer ({} panicked classes)",
                    req.label,
                    req.faults.len() - answered.min(req.faults.len()),
                    req.faults.len(),
                    r.panicked_classes().len()
                )
            },
        );
        if r.summaries.len() == req.faults.len() {
            (self.check)(i, r, gate);
        }
    }

    pub fn run(&self, seconds: f64, gate: &mut Gate) -> Report {
        let mut tr = Tracer::new(false, Instant::now());
        let mut setups = Vec::with_capacity(self.setups);
        let mut snap = None;
        for _ in 0..self.setups {
            let (s, ms) = self.setup(&mut tr, gate);
            setups.push(ms);
            snap = Some(s);
        }
        let snap = snap.expect("at least one setup");
        let mut sweep_ms: Vec<f64> = Vec::new();
        // Per pass: (faults summarised, sweep calls, seconds, p99 call ms).
        let mut passes: Vec<(f64, f64, f64, f64)> = Vec::new();
        let mut digests: Option<Vec<u64>> = None;
        let mut first_pass = None;
        while sweep_ms.iter().sum::<f64>() < seconds * 1e3 {
            let (results, times) = self.pass(&mut tr, &snap, gate);
            let d: Vec<u64> = results
                .iter()
                .map(|r| summaries_digest(&r.summaries))
                .collect();
            match &digests {
                None => digests = Some(d),
                Some(prev) => {
                    gate.expect(*prev == d, 1, || "summaries differ between passes".into())
                }
            }
            let faults: usize = results.iter().map(|r| r.summaries.len()).sum();
            passes.push((
                faults as f64,
                times.len() as f64,
                times.iter().sum::<f64>() / 1e3,
                quantile(&times, 0.99),
            ));
            sweep_ms.extend(times);
            first_pass.get_or_insert(results);
        }
        self.print_digests(digests.as_deref().unwrap_or_default());
        let rounded: Vec<String> = sweep_ms.iter().map(|t| format!("{t:.0}")).collect();
        eprintln!("perfbench: sweep request times (ms): {}", rounded.join(" "));
        (self.post)(&snap, first_pass.as_deref().unwrap_or_default(), gate);
        eprintln!(
            "perfbench: {} setups, {} passes, {} sweep requests over {:.2} s",
            setups.len(),
            passes.len(),
            sweep_ms.len(),
            sweep_ms.iter().sum::<f64>() / 1e3
        );
        // A run holds only a few sweep calls, so rates and the tail are
        // taken per pass and reported as the median over passes.
        let per_pass =
            |f: fn(&(f64, f64, f64, f64)) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        vec![
            ("setup_s", median(&setups) / 1e3),
            ("faults_per_s", per_pass(|p| p.0 / p.2)),
            ("request_p50_ms", quantile(&sweep_ms, 0.5)),
            ("request_p99_ms", per_pass(|p| p.3)),
            ("requests_per_s", per_pass(|p| p.1 / p.2)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    fn print_digests(&self, digests: &[u64]) {
        for (req, d) in self.requests.iter().zip(digests) {
            eprintln!(
                "perfbench: digest {} {:016x} ({} faults)",
                req.label,
                d,
                req.faults.len()
            );
        }
    }

    pub fn run_traced(&self, tr: &mut Tracer, gate: &mut Gate) -> Report {
        // Untraced reference: one setup and one pass with spans off.
        let mut off = Tracer::new(false, Instant::now());
        let t = Instant::now();
        let (snap, setup_ms) = self.setup(&mut off, gate);
        let (untraced, _) = self.pass(&mut off, &snap, gate);
        let untraced_ms = ms_since(t);

        // The same work with spans on.
        let t = Instant::now();
        let setup = tr.enter("bench", "bench.setup");
        let (snap, traced_setup_ms) = self.setup(tr, gate);
        tr.exit(setup);
        let sweep = tr.enter("bench", "bench.sweep");
        let (traced, _) = self.pass(tr, &snap, gate);
        tr.exit(sweep);
        let traced_ms = ms_since(t);
        for (req, r) in self.requests.iter().zip(&traced) {
            tr.span("telemetry", "telemetry.report", || {
                report_to_json(&sweep_report(self.circuit.name(), &req.label, r))
            });
        }
        let digests: Vec<u64> = traced
            .iter()
            .map(|r| summaries_digest(&r.summaries))
            .collect();
        self.print_digests(&digests);

        // Serial replay through the public pieces.
        let replay_span = tr.enter("bench", "bench.replay_setup");
        let setup_replay = replay::replay_setup(tr, &self.circuit, self.engine)
            .unwrap_or_else(|e| crate::fatal(&e));
        tr.exit(replay_span);
        gate.attempt(1);
        gate.expect(
            setup_replay.snapshot.table_digest() == snap.table_digest(),
            1,
            || "replayed snapshot table digest differs from build_snapshot".into(),
        );
        // The decomposition is judged against both measured set-ups (one
        // untraced, one traced), which brackets the replay in time.
        let setup_ms = (setup_ms + traced_setup_ms) / 2.0;
        let phases: f64 = SETUP_PHASES.iter().map(|n| tr.total_ms(n)).sum();
        let setup_sum_err = (phases - setup_ms).abs() / setup_ms;
        eprintln!(
            "perfbench: set-up phases add up to {phases:.1} ms, set-up took {setup_ms:.1} ms"
        );
        if let Some(tol) = self.setup_sum_tolerance {
            gate.attempt(1);
            gate.expect(setup_sum_err <= tol, 1, || {
                format!(
                    "replayed setup phases are {:.1}% off setup_s",
                    setup_sum_err * 100.0
                )
            });
        }
        let mut exact = ManagerStats::default();
        let (mut classes, mut batches, mut gates, mut iters, mut faults) = (0, 0, 0, 0, 0);
        for (i, (req, r)) in self.requests.iter().zip(&traced).enumerate() {
            tr.set_request(i as u64);
            let open = tr.enter("bench", "bench.replay_sweep");
            let rep = replay::replay_sweep(
                tr,
                &self.circuit,
                &req.faults,
                &setup_replay.snapshot,
                self.engine,
                self.sweep_config().batch,
            )
            .unwrap_or_else(|e| crate::fatal(&e));
            tr.exit(open);
            gate.attempt(1);
            gate.expect(
                summaries_digest(&rep.summaries) == summaries_digest(&r.summaries),
                1,
                || format!("{}: replayed summaries differ from the sweep", req.label),
            );
            exact = exact.merged(&rep.stats);
            classes += rep.classes;
            batches += rep.batches;
            gates += rep.gates;
            iters += rep.fixpoint_iters;
            faults += req.faults.len();
        }
        let mut frame_bytes = 0;
        for r in &traced {
            frame_bytes +=
                replay::frame_records(tr, &r.summaries).unwrap_or_else(|e| crate::fatal(&e));
        }

        let faults_f = faults as f64;
        let frames = tr.durations("serve.encode").len() as f64;
        let codec_ms = tr.total_ms("serve.encode") + tr.total_ms("serve.decode");
        let analyze = tr.durations("engine.analyze");
        let (chunks, busy) = replay::parallel_shape(&[&untraced, &traced]);
        let mut m: Report = vec![
            ("netlist.compile_ms", tr.total_ms("netlist.compile")),
            ("netlist.reach_ms", tr.mean_ms("netlist.reach")),
            ("faults.universe_ms", tr.total_ms("faults.universe")),
            ("faults.collapse_ms", tr.total_ms("faults.collapse")),
            ("faults.classes_per_fault", classes as f64 / faults_f),
            ("order.resolve_ms", tr.total_ms("order.resolve")),
            ("good.build_ms", tr.total_ms("good.build")),
            ("good.build_nodes", setup_replay.build_nodes as f64),
            ("good.sift_ms", tr.total_ms("good.sift")),
            ("good.sift_kept_frac", setup_replay.kept_frac),
            ("good.freeze_ms", tr.total_ms("good.freeze")),
            ("good.snapshot_bytes", snap.approx_bytes() as f64),
            ("parallel.plan_ms", tr.total_ms("parallel.plan")),
            (
                "parallel.classes_per_batch",
                classes as f64 / batches.max(1) as f64,
            ),
            ("parallel.chunks_claimed", chunks),
            ("parallel.busy_frac", busy),
            ("engine.thaw_ms", tr.mean_ms("engine.thaw")),
            ("engine.fault_p50_ms", quantile(&analyze, 0.5)),
            ("engine.fault_p99_ms", quantile(&analyze, 0.99)),
            ("engine.gates_per_fault", gates as f64 / faults_f),
            ("engine.fixpoint_iters_per_fault", iters as f64 / faults_f),
            ("engine.bound_ms", tr.mean_ms("engine.bound")),
            ("telemetry.report_ms", tr.mean_ms("telemetry.report")),
            ("serve.codec_us", codec_ms * 1e3 / frames.max(1.0)),
            (
                "serve.frame_bytes_per_record",
                frame_bytes as f64 / frames.max(1.0),
            ),
            ("serve.cache_hit_frac", 0.0),
            ("trace.overhead_frac", traced_ms / untraced_ms - 1.0),
            ("trace.setup_sum_err", setup_sum_err),
        ];
        m.extend(BDD_NAMES.iter().copied().zip(bdd_counters(&exact)));
        let passes = [&untraced, &traced];
        two_thread_counters(&mut m, &passes, faults_f);
        m
    }
}

/// The `bdd.*` and `engine.gates_per_fault` counters of the 2-thread
/// passes: their median, and their spread across the passes.
pub fn two_thread_counters(m: &mut Report, passes: &[&Vec<SweepResult>], faults: f64) {
    let per_pass: Vec<([f64; 6], f64)> = passes
        .iter()
        .map(|pass| {
            let stats = pass.iter().fold(ManagerStats::default(), |acc, r| {
                acc.merged(&r.merged_stats())
            });
            let gates: u64 = pass
                .iter()
                .map(|r| r.totals.counter(CounterKind::GatesPropagated))
                .sum();
            (bdd_counters(&stats), gates as f64 / faults)
        })
        .collect();
    const T2: [(&str, &str); 6] = [
        ("bdd.unique_lookups.t2", "bdd.unique_lookups.t2_spread"),
        ("bdd.base_hit_frac.t2", "bdd.base_hit_frac.t2_spread"),
        ("bdd.op_steps.t2", "bdd.op_steps.t2_spread"),
        ("bdd.op_hit_frac.t2", "bdd.op_hit_frac.t2_spread"),
        ("bdd.peak_nodes.t2", "bdd.peak_nodes.t2_spread"),
        ("bdd.gc_runs.t2", "bdd.gc_runs.t2_spread"),
    ];
    for (k, (name, spread_name)) in T2.iter().enumerate() {
        let v: Vec<f64> = per_pass.iter().map(|(c, _)| c[k]).collect();
        m.push((name, median(&v)));
        m.push((spread_name, spread(&v)));
    }
    let g: Vec<f64> = per_pass.iter().map(|(_, g)| *g).collect();
    m.push(("engine.gates_per_fault.t2", median(&g)));
    m.push(("engine.gates_per_fault.t2_spread", spread(&g)));
}

//! The metric catalogue: every metric the benchmark reports, with its unit,
//! direction, and — for per-layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` lists the same names;
//! `--list-metrics` prints this table so the two can be compared.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) a change in this metric should
    /// show up in; empty for the end-to-end metrics themselves.
    pub target: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    target: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        target,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", ""),
    def("faults_per_s", "1/s", "higher", ""),
    def("request_p50_ms", "ms", "lower", ""),
    def("request_p99_ms", "ms", "lower", ""),
    def("requests_per_s", "1/s", "higher", ""),
    def("peak_rss_mb", "MB", "lower", ""),
];

const SETUP_DEEP: &str = "setup_s on deep-stuck; no change on alu-models or serve-mixed";
const POINT: &str = "request_p50_ms (point_p50_ms) on serve-mixed";
const ALU_RATE: &str = "faults_per_s on alu-models";
const DEEP_RATE: &str = "faults_per_s and peak_rss_mb on deep-stuck";

/// Reported by every workload with `--trace 1`.
pub const PER_LAYER: &[Def] = &[
    def("netlist.compile_ms", "ms", "lower", POINT),
    def("netlist.reach_ms", "ms", "lower", POINT),
    def("faults.universe_ms", "ms", "lower", ALU_RATE),
    def("faults.collapse_ms", "ms", "lower", ALU_RATE),
    def("faults.classes_per_fault", "ratio", "lower", ALU_RATE),
    def("order.resolve_ms", "ms", "lower", SETUP_DEEP),
    def("good.build_ms", "ms", "lower", SETUP_DEEP),
    def("good.build_nodes", "count", "lower", SETUP_DEEP),
    def("good.sift_ms", "ms", "lower", SETUP_DEEP),
    def(
        "good.sift_kept_frac",
        "ratio",
        "lower",
        "setup_s and peak_rss_mb on deep-stuck",
    ),
    def("good.freeze_ms", "ms", "lower", SETUP_DEEP),
    def(
        "good.snapshot_bytes",
        "B",
        "lower",
        "peak_rss_mb on deep-stuck",
    ),
    def("parallel.plan_ms", "ms", "lower", ALU_RATE),
    def(
        "parallel.classes_per_batch",
        "ratio",
        "higher",
        "faults_per_s on alu-models and deep-stuck",
    ),
    def("parallel.chunks_claimed", "count", "lower", ALU_RATE),
    def("parallel.busy_frac", "ratio", "higher", ALU_RATE),
    def("engine.thaw_ms", "ms", "lower", POINT),
    def(
        "engine.fault_p50_ms",
        "ms",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "engine.fault_p99_ms",
        "ms",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "engine.gates_per_fault",
        "count",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "engine.fixpoint_iters_per_fault",
        "count",
        "lower",
        ALU_RATE,
    ),
    def("engine.bound_ms", "ms", "lower", POINT),
    def("bdd.unique_lookups", "count", "lower", DEEP_RATE),
    def("bdd.base_hit_frac", "ratio", "higher", DEEP_RATE),
    def("bdd.op_steps", "count", "lower", DEEP_RATE),
    def("bdd.op_hit_frac", "ratio", "higher", DEEP_RATE),
    def("bdd.peak_nodes", "count", "lower", DEEP_RATE),
    def("bdd.gc_runs", "count", "lower", DEEP_RATE),
    def("bdd.unique_lookups.t2", "count", "lower", DEEP_RATE),
    def("bdd.unique_lookups.t2_spread", "ratio", "lower", DEEP_RATE),
    def("bdd.base_hit_frac.t2", "ratio", "higher", DEEP_RATE),
    def("bdd.base_hit_frac.t2_spread", "ratio", "lower", DEEP_RATE),
    def("bdd.op_steps.t2", "count", "lower", DEEP_RATE),
    def("bdd.op_steps.t2_spread", "ratio", "lower", DEEP_RATE),
    def("bdd.op_hit_frac.t2", "ratio", "higher", DEEP_RATE),
    def("bdd.op_hit_frac.t2_spread", "ratio", "lower", DEEP_RATE),
    def("bdd.peak_nodes.t2", "count", "lower", DEEP_RATE),
    def("bdd.peak_nodes.t2_spread", "ratio", "lower", DEEP_RATE),
    def("bdd.gc_runs.t2", "count", "lower", DEEP_RATE),
    def("bdd.gc_runs.t2_spread", "ratio", "lower", DEEP_RATE),
    def(
        "engine.gates_per_fault.t2",
        "count",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "engine.gates_per_fault.t2_spread",
        "ratio",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "telemetry.report_ms",
        "ms",
        "lower",
        "faults_per_s (stream_records_per_s) on serve-mixed",
    ),
    def(
        "serve.codec_us",
        "us",
        "lower",
        "request_p50_ms and faults_per_s on serve-mixed",
    ),
    def(
        "serve.frame_bytes_per_record",
        "B",
        "lower",
        "faults_per_s (stream_records_per_s) on serve-mixed",
    ),
    def("serve.cache_hit_frac", "ratio", "higher", POINT),
    def(
        "self.bench_ms",
        "ms",
        "lower",
        "the benchmark's own glue between layer calls",
    ),
    def("self.netlist_ms", "ms", "lower", POINT),
    def("self.faults_ms", "ms", "lower", ALU_RATE),
    def("self.good_ms", "ms", "lower", SETUP_DEEP),
    def(
        "self.parallel_ms",
        "ms",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "self.engine_ms",
        "ms",
        "lower",
        "faults_per_s on deep-stuck and alu-models",
    ),
    def(
        "self.telemetry_ms",
        "ms",
        "lower",
        "faults_per_s (stream_records_per_s) on serve-mixed",
    ),
    def(
        "self.serve_ms",
        "ms",
        "lower",
        "request_p50_ms and request_p99_ms on serve-mixed",
    ),
    def(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "every end-to-end metric (tracing must stay cheap)",
    ),
    def(
        "trace.setup_sum_err",
        "ratio",
        "lower",
        "setup_s: replayed setup phases vs measured setup",
    ),
];

/// Layers that own spans, in report order (`self.<layer>_ms`).
pub const LAYERS: &[&str] = &[
    "bench",
    "netlist",
    "faults",
    "good",
    "parallel",
    "engine",
    "telemetry",
    "serve",
];

//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <deep-stuck|alu-models|serve-mixed> --seed <n|default|held-out|both>
//!           --seconds <s> --trace <0|1>
//! perfbench --list-metrics
//! perfbench --write-golden <path>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: the workload runs through
//! the library's public API with its default configuration (2 threads) and
//! no benchmark spans. `--trace 1` reports the per-layer metrics: an
//! untraced pass, a traced pass and a serial replay through the public
//! pieces, with every span written to
//! `$CARGO_TARGET_DIR/perfbench-traces/<workload>-seed<n>.jsonl`.
//!
//! Every answer is checked (pinned digests, golden tables, simulation
//! oracles). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`;
//! the process exits non-zero when any check failed.

mod alu;
mod batch;
mod catalog;
mod deep;
mod pins;
mod replay;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use catalog::{Def, END_TO_END, LAYERS, PER_LAYER};
use dp_core::{sweep_universe_ext, DiffProp, Parallelism, SweepConfig};
use trace::Tracer;
use util::Gate;

/// A workload's measured metrics, by catalogue name.
pub type Report = Vec<(&'static str, f64)>;

/// Cold set-ups per run; `setup_s` is their median.
const DEEP_SETUPS: usize = 3;
const ALU_SETUPS: usize = 101;
const SERVE_SETUPS: usize = 21;

const WORKLOADS: [&str; 3] = ["deep-stuck", "alu-models", "serve-mixed"];

/// Aborts without a result line (the run measured nothing trustworthy).
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: error: {msg}");
    std::process::exit(2)
}

fn usage() -> ! {
    fatal(
        "usage: perfbench --workload <deep-stuck|alu-models|serve-mixed> \
         --seed <n|default|held-out|both> --seconds <s> --trace <0|1> \
         | --list-metrics | --write-golden <path>",
    )
}

struct Args {
    workload: String,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_seeds(s: &str) -> Vec<u64> {
    match s {
        "default" => vec![pins::DEFAULT_SEED],
        "held-out" => vec![pins::HELD_OUT_SEED],
        "both" => vec![pins::DEFAULT_SEED, pins::HELD_OUT_SEED],
        n => vec![n.parse().unwrap_or_else(|_| usage())],
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list-metrics") => {
            list_metrics();
            std::process::exit(0)
        }
        Some("--write-golden") => {
            write_golden(argv.get(1).unwrap_or_else(|| usage()));
            std::process::exit(0)
        }
        _ => {}
    }
    let (mut workload, mut seeds, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seeds = Some(parse_seeds(value)),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage());
    Args {
        workload,
        seeds: seeds.unwrap_or_else(|| vec![pins::DEFAULT_SEED]),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or(false),
    }
}

fn run(args: &Args, seed: u64) -> (Report, Gate) {
    let mut gate = Gate::default();
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut report = match (args.workload.as_str(), args.trace) {
        ("deep-stuck", false) => deep::batch(seed, DEEP_SETUPS).run(args.seconds, &mut gate),
        ("deep-stuck", true) => deep::batch(seed, 1).run_traced(&mut tr, &mut gate),
        ("alu-models", false) => alu::batch(seed, ALU_SETUPS).run(args.seconds, &mut gate),
        ("alu-models", true) => alu::batch(seed, 1).run_traced(&mut tr, &mut gate),
        ("serve-mixed", false) => serve::run(seed, args.seconds, SERVE_SETUPS, &mut gate),
        ("serve-mixed", true) => serve::run_traced(seed, args.seconds, &mut tr, &mut gate),
        _ => usage(),
    };
    if args.trace {
        const SELF: [&str; 8] = [
            "self.bench_ms",
            "self.netlist_ms",
            "self.faults_ms",
            "self.good_ms",
            "self.parallel_ms",
            "self.engine_ms",
            "self.telemetry_ms",
            "self.serve_ms",
        ];
        for (name, layer) in SELF.iter().zip(LAYERS) {
            report.push((name, tr.self_ms(layer)));
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let path = dir
            .join("perfbench-traces")
            .join(format!("{}-seed{seed}.jsonl", args.workload));
        match tr.dump(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    (report, gate)
}

/// Orders the report by the catalogue and refuses a report that misses or
/// repeats a metric, or holds a non-finite value.
fn conform(report: &Report, defs: &'static [Def]) -> Vec<(&'static Def, f64)> {
    if report.len() != defs.len() {
        fatal(&format!(
            "{} metrics reported, {} expected",
            report.len(),
            defs.len()
        ));
    }
    defs.iter()
        .map(|d| {
            let mut hits = report.iter().filter(|(n, _)| *n == d.name);
            match (hits.next(), hits.next()) {
                (Some(&(_, v)), None) if v.is_finite() => (d, v),
                (Some(&(_, v)), None) => fatal(&format!("{} is {v}", d.name)),
                _ => fatal(&format!("{} reported zero or several times", d.name)),
            }
        })
        .collect()
}

fn print_table(args: &Args, seed: u64, rows: &[(&'static Def, f64)], gate: &Gate) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {} seed {seed} trace {} ({cpus} CPUs available, sweeps use 2 threads)",
        args.workload,
        u8::from(args.trace)
    );
    for (d, v) in rows {
        let alias = match (args.workload.as_str(), d.name) {
            ("serve-mixed", "request_p50_ms") => " (point_p50_ms)",
            ("serve-mixed", "request_p99_ms") => " (point_p99_ms)",
            ("serve-mixed", "requests_per_s") => " (points_per_s)",
            ("serve-mixed", "faults_per_s") => " (stream_records_per_s)",
            _ => "",
        };
        let target = if d.target.is_empty() {
            String::new()
        } else {
            format!("  -> {}", d.target)
        };
        eprintln!("  {:<36} {:>16.6} {:<6}{alias}{target}", d.name, v, d.unit);
    }
    let frac = gate.failed as f64 / gate.attempted.max(1) as f64;
    eprintln!(
        "  {:<36} {:>16.6} ratio  ({} of {} attempted operations)",
        "failed_frac", frac, gate.failed, gate.attempted
    );
    for m in gate.messages() {
        eprintln!("perfbench: MISMATCH {m}");
    }
}

fn result_line(rows: &[(&'static Def, f64)], gate: &Gate) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed,
        metrics.join(", ")
    )
}

fn list_metrics() {
    for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            println!("{kind}\t{}\t{}\t{}\t{}", d.name, d.unit, d.better, d.target);
        }
    }
}

/// Sweeps c1355s's whole checkpoint universe and writes the per-fault
/// golden table that `pins::deep_golden` reads.
fn write_golden(path: &str) {
    let circuit = dp_netlist::generators::c1355_surrogate();
    let faults = deep::universe(&circuit);
    let config = SweepConfig {
        engine: deep::engine(),
        parallelism: Parallelism::Threads(2),
        ..Default::default()
    };
    let snap =
        DiffProp::build_snapshot(&circuit, config.engine).unwrap_or_else(|e| fatal(&e.to_string()));
    eprintln!(
        "perfbench: snapshot table digest {:016x}",
        snap.table_digest()
    );
    let r = sweep_universe_ext(&circuit, &faults, &config, Some(&snap), None);
    if r.summaries.len() != faults.len() || r.summaries.iter().any(|s| !s.outcome.is_exact()) {
        fatal("the golden sweep did not answer every fault exactly");
    }
    let mut text = format!(
        "universe {:016x} faults {}\n",
        pins::universe_digest(&faults),
        faults.len()
    );
    for s in &r.summaries {
        text.push_str(&format!("{:016x}\n", deep::line_hash(s)));
    }
    std::fs::write(path, text).unwrap_or_else(|e| fatal(&format!("cannot write {path}: {e}")));
}

fn main() {
    let args = parse_args();
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for &seed in &args.seeds {
        let (report, gate) = run(&args, seed);
        let rows = conform(&report, defs);
        print_table(&args, seed, &rows, &gate);
        all_correct &= gate.failed == 0;
        println!("{}", result_line(&rows, &gate));
    }
    if !all_correct {
        std::process::exit(1);
    }
}

//! `serve-mixed`: an in-process `dp-serve` server on loopback, warmed, then
//! a closed loop over two connections — A alternates `detectability` and
//! `adherence` point queries, B streams back-to-back `nfbf-and` sweeps.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use dp_analysis::fault_model_universe;
use dp_core::{
    summaries_digest, summary_line, sweep_report, sweep_universe_ext, DiffProp, EngineConfig,
    GoodSnapshot, OrderStrategy, Parallelism, SweepConfig, SweepResult,
};
use dp_faults::{Fault, FaultSite, StuckAtFault};
use dp_netlist::generators::alu74181;
use dp_netlist::Circuit;
use dp_serve::{
    CacheEntry, CacheKey, CircuitSpec, Frame, PointParams, Request, Server, ServerConfig,
    SnapshotCache, SweepParams,
};
use dp_sim::exhaustive_detectability;
use dp_telemetry::json::JsonValue;
use dp_telemetry::report_to_json;

use crate::batch::{two_thread_counters, SETUP_PHASES};
use crate::replay::{self, bdd_counters, BDD_NAMES};
use crate::trace::Tracer;
use crate::util::{fnv1a64, median, ms_since, peak_rss_mb, quantile, Gate, Rng};
use crate::{pins, Report};

const CIRCUIT: &str = "alu74181";
const MODEL: &str = "nfbf-and";
/// Target slice length: long enough that each slice's p99 point latency
/// has more than ten samples above it.
const SLICE_SECS: f64 = 2.0;
/// Point queries replayed in-process, layer by layer, in the traced run.
const REPLAYED_POINTS: usize = 200;

fn engine() -> EngineConfig {
    EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    }
}

fn spec() -> CircuitSpec {
    CircuitSpec::Builtin(CIRCUIT.into())
}

/// One point query of connection A.
#[derive(Clone)]
struct Point {
    net: usize,
    stuck_at: bool,
    adherence: bool,
}

impl Point {
    fn request(&self, circuit: &Circuit) -> Request {
        let point = PointParams {
            order: OrderStrategy::Auto,
            budget: Default::default(),
            net: circuit
                .net_name(dp_netlist::NetId::from_index(self.net))
                .to_string(),
            stuck_at: self.stuck_at,
        };
        if self.adherence {
            Request::Adherence {
                circuit: spec(),
                point,
            }
        } else {
            Request::Detectability {
                circuit: spec(),
                point,
            }
        }
    }

    fn fault(&self) -> Fault {
        Fault::StuckAt(StuckAtFault {
            site: FaultSite::Net(dp_netlist::NetId::from_index(self.net)),
            value: self.stuck_at,
        })
    }
}

/// The seeded point-query sequence: uniform nets and polarities, with the
/// request kind alternating.
struct Points {
    rng: Rng,
    nets: usize,
    sent: usize,
}

impl Points {
    fn new(circuit: &Circuit, seed: u64) -> Points {
        Points {
            rng: Rng::new(seed),
            nets: circuit.num_nets(),
            sent: 0,
        }
    }

    fn next_point(&mut self) -> Point {
        let p = Point {
            net: self.rng.below(self.nets),
            stuck_at: self.rng.next_u64() & 1 == 1,
            adherence: self.sent % 2 == 1,
        };
        self.sent += 1;
        p
    }
}

/// A raw protocol connection, so the traced run can time the codec.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, tr: &mut Tracer, request: &Request) -> io::Result<()> {
        let line = tr.span("serve", "serve.encode", || request.to_line());
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    /// The next frame and its size on the wire.
    fn recv(&mut self, tr: &mut Tracer, line: &mut String) -> io::Result<(Frame, usize)> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let bytes = line.len();
        let frame = tr.span("serve", "serve.decode", || {
            Frame::from_line(line.trim_end())
        });
        frame
            .map(|f| (f, bytes))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A running server and the connection that warmed it, which later carries
/// connection A's point queries and the closing requests.
struct Running {
    conn: Conn,
    handle: JoinHandle<io::Result<()>>,
    addr: SocketAddr,
}

impl Running {
    /// Sends one request and returns the answer frame.
    fn ask(&mut self, request: &Request) -> io::Result<Frame> {
        let mut off = Tracer::new(false, Instant::now());
        self.conn.send(&mut off, request)?;
        Ok(self.conn.recv(&mut off, &mut String::new())?.0)
    }
}

/// Starts a server and answers its first (cache-missing) point query.
fn start(circuit: &Circuit) -> io::Result<Running> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut running = Running {
        conn: Conn::connect(addr)?,
        handle,
        addr,
    };
    let warm = Point {
        net: circuit.outputs()[0].index(),
        stuck_at: false,
        adherence: false,
    };
    match running.ask(&warm.request(circuit))? {
        Frame::Value(v) if v.get("cache").and_then(JsonValue::as_str) == Some("miss") => {}
        other => return Err(io::Error::other(format!("warm-up answered {other:?}"))),
    }
    Ok(running)
}

fn stop(mut s: Running) -> io::Result<()> {
    match s.ask(&Request::Shutdown)? {
        Frame::Bye => {}
        other => return Err(io::Error::other(format!("shutdown answered {other:?}"))),
    }
    drop(s.conn);
    s.handle
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?
}

/// Expected answers, computed in-process before anything is timed.
struct Expected {
    /// `(net, stuck_at)` → (detectability bits, adherence bits).
    points: HashMap<(usize, bool), (String, Option<String>)>,
    /// The batch `summary_line` of every streamed record.
    lines: Vec<String>,
    snapshot: GoodSnapshot,
    faults: Vec<Fault>,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The in-process answers, each point's detectability also checked
/// against exhaustive simulation so the reference does not rest on the
/// engine alone.
fn expected(circuit: &Circuit, gate: &mut Gate) -> Expected {
    let snapshot = DiffProp::build_snapshot(circuit, engine())
        .unwrap_or_else(|e| crate::fatal(&e.to_string()));
    let mut dp = DiffProp::from_snapshot(circuit, &snapshot, engine());
    let mut points = HashMap::new();
    for net in 0..circuit.num_nets() {
        for stuck_at in [false, true] {
            let p = Point {
                net,
                stuck_at,
                adherence: false,
            };
            let fault = p.fault();
            let a = dp.analyze(&fault);
            let (detected, total) = exhaustive_detectability(circuit, &fault);
            gate.attempt(1);
            gate.expect(
                a.detectability.to_bits() == (detected as f64 / total as f64).to_bits(),
                1,
                || format!("{fault}: engine disagrees with exhaustive simulation"),
            );
            let adherence = dp
                .detectability_bound(&fault)
                .and_then(|u| (u > 0.0).then(|| a.detectability / u));
            points.insert(
                (net, stuck_at),
                (bits(a.detectability), adherence.map(bits)),
            );
        }
    }
    let faults = fault_model_universe(circuit, MODEL, None, 0).unwrap_or_else(|e| crate::fatal(&e));
    let config = SweepConfig {
        engine: engine(),
        ..Default::default()
    };
    let r = sweep_universe_ext(circuit, &faults, &config, Some(&snapshot), None);
    let lines = r
        .summaries
        .iter()
        .enumerate()
        .map(|(i, s)| summary_line(i, s))
        .collect();
    Expected {
        points,
        lines,
        snapshot,
        faults,
    }
}

fn check_point(v: &JsonValue, p: &Point, exp: &Expected) -> bool {
    let (det, adh) = &exp.points[&(p.net, p.stuck_at)];
    let adh_ok = match (v.get("adherence_bits"), adh) {
        (Some(JsonValue::Str(s)), Some(e)) => s == e,
        (Some(JsonValue::Null), None) => true,
        _ => false,
    };
    v.get("detectability_bits").and_then(JsonValue::as_str) == Some(det.as_str())
        && adh_ok
        && v.get("cache").and_then(JsonValue::as_str) == Some("hit")
}

/// What one closed-loop run of both connections measured. The run is cut
/// into equal slices of about [`SLICE_SECS`]; rates and the tail latency
/// are medians over the slices, so a short burst of host noise moves them
/// less.
struct Window {
    clock: Clock,
    /// Per completed point query: its slice and its latency (ms).
    points: Vec<(usize, f64)>,
    /// Records received per slice.
    records: Vec<u64>,
    record_bytes: u64,
    records_total: u64,
    sweeps: u64,
    gate: Gate,
    tracer: Tracer,
}

impl Window {
    fn latencies(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, ms)| ms).collect()
    }

    fn per_slice<T>(&self, f: impl Fn(usize) -> T) -> Vec<T> {
        (0..self.clock.slices).map(f).collect()
    }

    fn points_per_s(&self) -> f64 {
        let counts = self.per_slice(|k| self.points.iter().filter(|p| p.0 == k).count() as f64);
        median(&counts) / self.clock.slice_secs
    }

    fn records_per_s(&self) -> f64 {
        let counts = self.per_slice(|k| self.records[k] as f64);
        median(&counts) / self.clock.slice_secs
    }

    fn p99_ms(&self) -> f64 {
        let tails = self.per_slice(|k| {
            let lat: Vec<f64> = self
                .points
                .iter()
                .filter(|p| p.0 == k)
                .map(|p| p.1)
                .collect();
            quantile(&lat, 0.99)
        });
        median(&tails)
    }
}

/// The measured window: start, slice length, slice count.
#[derive(Clone, Copy)]
struct Clock {
    epoch: Instant,
    slice_secs: f64,
    slices: usize,
}

impl Clock {
    fn new(seconds: f64) -> Clock {
        let slices = ((seconds / SLICE_SECS).floor() as usize).max(1);
        Clock {
            epoch: Instant::now(),
            slice_secs: seconds / slices as f64,
            slices,
        }
    }

    /// The slice `now` falls in; `None` once the window is over.
    fn slice(&self) -> Option<usize> {
        let k = (self.epoch.elapsed().as_secs_f64() / self.slice_secs) as usize;
        (k < self.slices).then_some(k)
    }
}

/// What connection A saw: each completed point query's slice and latency.
type Answered = (Vec<(usize, f64)>, Gate, Tracer);

/// Connection A: point queries until the window closes.
fn point_loop(
    conn: &mut Conn,
    circuit: &Circuit,
    exp: &Expected,
    seed: u64,
    clock: Clock,
    mut tr: Tracer,
) -> io::Result<Answered> {
    let mut points = Points::new(circuit, seed);
    let mut gate = Gate::default();
    let mut done = Vec::new();
    let mut line = String::new();
    let mut id = 0u64;
    while clock.slice().is_some() {
        let p = points.next_point();
        let request = p.request(circuit);
        id += 1;
        tr.set_request(id);
        let t = Instant::now();
        let open = tr.enter("serve", "serve.point");
        conn.send(&mut tr, &request)?;
        let (frame, _) = conn.recv(&mut tr, &mut line)?;
        tr.exit(open);
        let ms = ms_since(t);
        if let Some(k) = clock.slice() {
            done.push((k, ms));
        }
        gate.attempt(1);
        let ok = matches!(&frame, Frame::Value(v) if check_point(v, &p, exp));
        gate.expect(ok, 1, || {
            format!(
                "point query {} s-a-{} answered {frame:?}",
                p.net,
                u8::from(p.stuck_at)
            )
        });
    }
    Ok((done, gate, tr))
}

/// What connection B saw: records per slice, record bytes, records and
/// sweeps in total.
type Streamed = (Vec<u64>, u64, u64, u64, Gate, Tracer);

/// Connection B: streamed sweeps until the window closes (the sweep in
/// flight then is drained, its later records not counted).
fn stream_loop(
    addr: SocketAddr,
    exp: &Expected,
    clock: Clock,
    mut tr: Tracer,
) -> io::Result<Streamed> {
    let mut conn = Conn::connect(addr)?;
    let request = Request::Sweep {
        circuit: spec(),
        params: SweepParams {
            order: OrderStrategy::Auto,
            model: MODEL.into(),
            threads: 1,
            ..Default::default()
        },
    };
    let mut gate = Gate::default();
    let mut per_slice = vec![0u64; clock.slices];
    let (mut bytes, mut total, mut sweeps) = (0u64, 0u64, 0u64);
    let mut line = String::new();
    let mut id = 1u64 << 32;
    while clock.slice().is_some() {
        id += 1;
        tr.set_request(id);
        let open = tr.enter("serve", "serve.sweep");
        conn.send(&mut tr, &request)?;
        let mut text = Vec::new();
        let mut got = 0usize;
        loop {
            let (frame, n) = conn.recv(&mut tr, &mut line)?;
            match frame {
                Frame::Record { index, line } => {
                    if let Some(k) = clock.slice() {
                        per_slice[k] += 1;
                    }
                    total += 1;
                    bytes += n as u64;
                    got += 1;
                    gate.attempt(1);
                    gate.expect(exp.lines.get(index) == Some(&line), 1, || {
                        format!("streamed record {index} differs from the batch summary line")
                    });
                    text.extend_from_slice(line.as_bytes());
                    text.push(b'\n');
                }
                Frame::Done { cache, report, .. } => {
                    let skipped = report
                        .get("stream")
                        .and_then(|s| s.get("skipped"))
                        .and_then(JsonValue::as_u64);
                    gate.attempt(1);
                    gate.expect(
                        cache == "hit"
                            && skipped == Some(0)
                            && got == exp.lines.len()
                            && fnv1a64(&text) == pins::SERVE_STREAM_DIGEST,
                        1,
                        || {
                            format!(
                                "streamed sweep: cache {cache}, {got} records, digest {:016x}",
                                fnv1a64(&text)
                            )
                        },
                    );
                    break;
                }
                other => {
                    gate.attempt(1);
                    gate.expect(false, 1, || format!("streamed sweep answered {other:?}"));
                    break;
                }
            }
        }
        tr.exit(open);
        sweeps += 1;
    }
    Ok((per_slice, bytes, total, sweeps, gate, tr))
}

fn join<T>(r: std::thread::Result<io::Result<T>>) -> T {
    match r {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => crate::fatal(&format!("serve-mixed connection failed: {e}")),
        Err(_) => crate::fatal("serve-mixed client thread panicked"),
    }
}

/// Runs both connections for `seconds` against a warm server: A on the
/// server's warm-up connection, B on a second one.
fn window(
    server: &mut Running,
    circuit: &Circuit,
    exp: &Expected,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Window {
    let clock = Clock::new(seconds);
    let addr = server.addr;
    let conn = &mut server.conn;
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(move || {
            point_loop(
                conn,
                circuit,
                exp,
                seed,
                clock,
                Tracer::new(traced, clock.epoch),
            )
        });
        let b = s.spawn(|| stream_loop(addr, exp, clock, Tracer::new(traced, clock.epoch)));
        (a.join(), b.join())
    });
    let (points, mut gate, mut tracer) = join(a);
    let (records, record_bytes, records_total, sweeps, gate_b, tracer_b) = join(b);
    gate.merge(gate_b);
    tracer.absorb(tracer_b);
    Window {
        clock,
        points,
        records,
        record_bytes,
        records_total,
        sweeps,
        gate,
        tracer,
    }
}

fn describe(w: &Window) {
    let lat = w.latencies();
    eprintln!(
        "perfbench: {} point queries (p50 {:.3} ms, p99 {:.3} ms over all), {} sweeps, {} records ({} inside the window), {} slices of {:.2} s",
        lat.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        w.sweeps,
        w.records_total,
        w.records.iter().sum::<u64>(),
        w.clock.slices,
        w.clock.slice_secs
    );
}

pub fn run(seed: u64, seconds: f64, setups: usize, gate: &mut Gate) -> Report {
    let circuit = alu74181();
    let exp = expected(&circuit, gate);
    let mut setup_ms = Vec::with_capacity(setups);
    let mut server = None;
    for _ in 0..setups {
        if let Some(old) = server.take() {
            stop(old).unwrap_or_else(|e| crate::fatal(&format!("server shutdown failed: {e}")));
        }
        let t = Instant::now();
        server = Some(
            start(&circuit).unwrap_or_else(|e| crate::fatal(&format!("server start failed: {e}"))),
        );
        setup_ms.push(ms_since(t));
    }
    let mut server = server.expect("at least one setup");
    let rounded: Vec<String> = setup_ms.iter().map(|t| format!("{t:.2}")).collect();
    eprintln!("perfbench: set-up times (ms): {}", rounded.join(" "));
    let mut w = window(&mut server, &circuit, &exp, seed, seconds, false);
    stop(server).unwrap_or_else(|e| crate::fatal(&format!("server shutdown failed: {e}")));
    describe(&w);
    gate.merge(std::mem::take(&mut w.gate));
    vec![
        ("setup_s", median(&setup_ms) / 1e3),
        ("faults_per_s", w.records_per_s()),
        ("request_p50_ms", quantile(&w.latencies(), 0.5)),
        ("request_p99_ms", w.p99_ms()),
        ("requests_per_s", w.points_per_s()),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

pub fn run_traced(seed: u64, seconds: f64, tr: &mut Tracer, gate: &mut Gate) -> Report {
    let circuit = alu74181();
    let exp = expected(&circuit, gate);
    let mut server =
        start(&circuit).unwrap_or_else(|e| crate::fatal(&format!("server start failed: {e}")));
    let mut untraced = window(&mut server, &circuit, &exp, seed, seconds, false);
    describe(&untraced);
    gate.merge(std::mem::take(&mut untraced.gate));
    let mut traced = window(&mut server, &circuit, &exp, seed, seconds, true);
    describe(&traced);
    gate.merge(std::mem::take(&mut traced.gate));
    let status = match server.ask(&Request::Status) {
        Ok(Frame::Status(s)) => s,
        other => crate::fatal(&format!("status request answered {other:?}")),
    };
    stop(server).unwrap_or_else(|e| crate::fatal(&format!("server shutdown failed: {e}")));
    let codec_frames = traced.tracer.durations("serve.encode").len()
        + traced.tracer.durations("serve.decode").len();
    let codec_ms = traced.tracer.total_ms("serve.encode") + traced.tracer.total_ms("serve.decode");
    let overhead = quantile(&traced.latencies(), 0.5) / quantile(&untraced.latencies(), 0.5) - 1.0;
    let record_bytes = traced.record_bytes as f64 / traced.records_total.max(1) as f64;
    tr.absorb(traced.tracer);

    // In-process replay of the server's work, one public call per span.
    let t = Instant::now();
    let built = DiffProp::build_snapshot(&circuit, engine())
        .unwrap_or_else(|e| crate::fatal(&e.to_string()));
    let build_ms = ms_since(t);
    let open = tr.enter("bench", "bench.replay_setup");
    let setup = replay::replay_setup(tr, &circuit, engine()).unwrap_or_else(|e| crate::fatal(&e));
    tr.exit(open);
    gate.attempt(1);
    gate.expect(
        setup.snapshot.table_digest() == built.table_digest(),
        1,
        || "replayed snapshot table digest differs from build_snapshot".into(),
    );
    // The server's set-up builds no inputs, only the snapshot.
    let phases: f64 = SETUP_PHASES[2..].iter().map(|n| tr.total_ms(n)).sum();
    replay_points(tr, &circuit, &exp, seed, gate);
    let open = tr.enter("bench", "bench.replay_sweep");
    let faults = tr
        .span("faults", "faults.universe", || {
            fault_model_universe(&circuit, MODEL, None, 0)
        })
        .unwrap_or_else(|e| crate::fatal(&e));
    let rep = replay::replay_sweep(
        tr,
        &circuit,
        &faults,
        &exp.snapshot,
        engine(),
        SweepConfig::default().batch,
    )
    .unwrap_or_else(|e| crate::fatal(&e));
    tr.exit(open);
    gate.attempt(1);
    gate.expect(
        faults == exp.faults && summaries_digest(&rep.summaries) == pins::SERVE_STREAM_DIGEST,
        1,
        || "replayed sweep differs from the streamed records".into(),
    );

    // The 2-thread shape of the same sweep, and the report it would stream.
    let config = SweepConfig {
        engine: engine(),
        parallelism: Parallelism::Threads(2),
        ..Default::default()
    };
    let passes: Vec<Vec<SweepResult>> = (0..2)
        .map(|_| {
            vec![sweep_universe_ext(
                &circuit,
                &faults,
                &config,
                Some(&exp.snapshot),
                None,
            )]
        })
        .collect();
    for pass in &passes {
        tr.span("telemetry", "telemetry.report", || {
            report_to_json(&sweep_report(circuit.name(), MODEL, &pass[0]))
        });
    }
    let (chunks, busy) = replay::parallel_shape(&[&passes[0], &passes[1]]);
    let n = faults.len() as f64;
    let analyze = tr.durations("engine.analyze");
    let mut m: Report = vec![
        ("netlist.compile_ms", tr.mean_ms("netlist.compile")),
        ("netlist.reach_ms", tr.mean_ms("netlist.reach")),
        ("faults.universe_ms", tr.total_ms("faults.universe")),
        ("faults.collapse_ms", tr.total_ms("faults.collapse")),
        ("faults.classes_per_fault", rep.classes as f64 / n),
        ("order.resolve_ms", tr.total_ms("order.resolve")),
        ("good.build_ms", tr.total_ms("good.build")),
        ("good.build_nodes", setup.build_nodes as f64),
        ("good.sift_ms", tr.total_ms("good.sift")),
        ("good.sift_kept_frac", setup.kept_frac),
        ("good.freeze_ms", tr.total_ms("good.freeze")),
        ("good.snapshot_bytes", setup.snapshot.approx_bytes() as f64),
        ("parallel.plan_ms", tr.total_ms("parallel.plan")),
        (
            "parallel.classes_per_batch",
            rep.classes as f64 / rep.batches.max(1) as f64,
        ),
        ("parallel.chunks_claimed", chunks),
        ("parallel.busy_frac", busy),
        ("engine.thaw_ms", tr.mean_ms("engine.thaw")),
        ("engine.fault_p50_ms", quantile(&analyze, 0.5)),
        ("engine.fault_p99_ms", quantile(&analyze, 0.99)),
        ("engine.gates_per_fault", rep.gates as f64 / n),
        (
            "engine.fixpoint_iters_per_fault",
            rep.fixpoint_iters as f64 / n,
        ),
        ("engine.bound_ms", tr.mean_ms("engine.bound")),
        ("telemetry.report_ms", tr.mean_ms("telemetry.report")),
        (
            "serve.codec_us",
            codec_ms * 1e3 / codec_frames.max(1) as f64,
        ),
        ("serve.frame_bytes_per_record", record_bytes),
        (
            "serve.cache_hit_frac",
            status.hits as f64 / (status.hits + status.misses).max(1) as f64,
        ),
        ("trace.overhead_frac", overhead),
        ("trace.setup_sum_err", (phases - build_ms).abs() / build_ms),
    ];
    m.extend(BDD_NAMES.iter().copied().zip(bdd_counters(&rep.stats)));
    two_thread_counters(&mut m, &[&passes[0], &passes[1]], n);
    m
}

/// The server's point-query path, call by call: compile the spec, digest
/// it, look the snapshot up, thaw, analyse, bound.
fn replay_points(tr: &mut Tracer, circuit: &Circuit, exp: &Expected, seed: u64, gate: &mut Gate) {
    let mut cache = SnapshotCache::new(ServerConfig::default().cache_bytes);
    let key = CacheKey {
        digest: circuit.digest(),
        order: OrderStrategy::Auto.name(),
    };
    cache.admit(
        key,
        std::sync::Arc::new(CacheEntry {
            circuit: circuit.clone(),
            snapshot: exp.snapshot.clone(),
        }),
    );
    let mut points = Points::new(circuit, seed);
    for id in 0..REPLAYED_POINTS {
        let p = points.next_point();
        tr.set_request(id as u64);
        let open = tr.enter("bench", "bench.replay_point");
        let compiled = tr
            .span("netlist", "netlist.compile", || spec().compile())
            .unwrap_or_else(|e| crate::fatal(&e));
        let key = CacheKey {
            digest: tr.span("netlist", "netlist.digest", || compiled.digest()),
            order: OrderStrategy::Auto.name(),
        };
        let entry = tr
            .span("serve", "serve.cache", || cache.lookup(&key))
            .unwrap_or_else(|| crate::fatal("replayed cache lookup missed"));
        let mut dp = tr.span("engine", "engine.thaw", || {
            DiffProp::from_snapshot(&entry.circuit, &entry.snapshot, engine())
        });
        let fault = p.fault();
        let a = tr.span("engine", "engine.analyze", || dp.try_analyze(&fault));
        let bound = tr.span("engine", "engine.bound", || dp.detectability_bound(&fault));
        tr.exit(open);
        gate.attempt(1);
        let ok = a.as_ref().is_ok_and(|a| {
            let adherence = bound.and_then(|u| (u > 0.0).then(|| a.detectability / u));
            exp.points[&(p.net, p.stuck_at)] == (bits(a.detectability), adherence.map(bits))
        });
        gate.expect(ok, 1, || format!("replayed point query {} differs", fault));
    }
}

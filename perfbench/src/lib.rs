//! One benchmark job per process. `run.py` starts this program once per
//! job, so every timed job begins from the same fresh heap and pays its
//! own teardown.
//!
//! ```text
//! perfbench-job --workload NAME --seed N --mode job|ref [--trace-out FILE]
//! ```
//!
//! `job` generates the workload's input from the seed, sets it up
//! [`SETUP_REPS`] times (the last set-up feeds the job), runs one timed
//! mining job and prints one JSON line: timings, the order-independent
//! digest of the emitted patterns, the run counters and, from
//! `perfbench-job-traced`, the per-layer numbers. `ref` mines the same input with the plain
//! sequential, unsharded miner and prints its digest and counters, which
//! `run.py` checks every job against.

pub mod alloc;
mod sink;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use ftpm_core::{
    mine_approximate_graph_with_sink, mine_exact_parallel_with_sink, mine_exact_with_sink,
    CountingSink, CsvSink, MinerConfig, MiningStats, PatternSink, ShardPlan, ShardPlanner,
    ShardReport,
};
use ftpm_datagen::{generate_energy, EnergyConfig};
use ftpm_events::{to_sequence_database, RelationConfig, SequenceDatabase, SplitConfig};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::{SymbolicDatabase, ThresholdSymbolizer, TimeSeries};
use serde::Serialize;
use serde_json::{json, Value};

use crate::sink::{event_keys, CheckedSink, CountingWriter};
use crate::trace::{Tracer, MINING_JOB};

/// Appliances in the generated household (the nist preset's count).
const APPLIANCES: usize = 72;
/// On iff the power draw is at least this many watts.
const THRESHOLD: f64 = 0.05;
/// Six-hour windows, four per day.
const WINDOW_MINUTES: i64 = 6 * 60;
/// Shards of `sharded_exchange`.
const SHARDS: usize = 4;
/// Correlation-graph density of `long_approx`.
const DENSITY: f64 = 0.6;
/// Set-ups per job; `setup_s` is their median. Set-up takes milliseconds,
/// so one sample would mostly measure noise.
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DeepPatterns,
    LongApprox,
    ShardedExchange,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "deep_patterns" => Ok(Workload::DeepPatterns),
            "long_approx" => Ok(Workload::LongApprox),
            "sharded_exchange" => Ok(Workload::ShardedExchange),
            _ => Err(format!("unknown workload {name:?}")),
        }
    }

    fn days(self) -> usize {
        match self {
            Workload::DeepPatterns | Workload::ShardedExchange => 8,
            Workload::LongApprox => 183,
        }
    }

    fn config(self) -> MinerConfig {
        let cfg = MinerConfig::new(0.4, 0.4);
        match self {
            Workload::DeepPatterns => cfg.with_max_events(5),
            Workload::LongApprox => cfg.with_max_events(4),
            Workload::ShardedExchange => cfg
                .with_max_events(4)
                .with_relation(RelationConfig::new(0, 1, 360)),
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::DeepPatterns | Workload::ShardedExchange => 2,
            Workload::LongApprox => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    reference: bool,
    trace_out: Option<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut reference, mut trace_out) = (None, None, false, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--mode" => {
                    reference = match value.as_str() {
                        "job" => false,
                        "ref" => true,
                        _ => return Err(format!("--mode must be job or ref, got {value:?}")),
                    }
                }
                "--trace-out" => trace_out = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            reference,
            trace_out,
        })
    }
}

/// Entry point of both job binaries; `traced` selects the traced run.
pub fn main(traced: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench-job: {msg}");
            return ExitCode::from(2);
        }
    };
    let series = generate_energy(&EnergyConfig {
        n_appliances: APPLIANCES,
        days: args.workload.days(),
        seed: args.seed,
        ..EnergyConfig::default()
    });
    // Start the peak-RSS count after load generation. Kernels without
    // this knob keep counting from process start.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let line = if args.reference {
        reference(args.workload, &series)
    } else {
        let mut tracer = Tracer::new(traced);
        let line = job(&args, &series, &mut tracer);
        if let Some(path) = args.trace_out.as_deref().filter(|_| traced) {
            if let Err(e) = std::fs::write(path, tracer.to_tsv()) {
                eprintln!("perfbench-job: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        line
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Mine-ready input.
struct Input {
    syb: SymbolicDatabase,
    seq: SequenceDatabase,
    plan: Option<ShardPlan>,
}

fn setup(w: Workload, series: &[TimeSeries], tracer: &mut Tracer, job: u32) -> Input {
    let root = tracer.begin("setup", job, None);
    let first = &series[0];
    let split = SplitConfig::new(WINDOW_MINUTES, 0);
    let syb = tracer.span("timeseries.symbolize", job, Some(root), || {
        let mut syb = SymbolicDatabase::new(first.start(), first.step(), first.len());
        let symbolizer = ThresholdSymbolizer::new(THRESHOLD);
        for ts in series {
            syb.add_time_series(ts, &symbolizer);
        }
        syb
    });
    let seq = tracer.span("events.convert", job, Some(root), || {
        to_sequence_database(&syb, split)
    });
    let plan = (w == Workload::ShardedExchange).then(|| {
        tracer.span("shard.plan", job, Some(root), || {
            ShardPlanner::new(SHARDS)
                .plan(&syb, split, w.config().relation.t_max)
                .expect("the workload's shard geometry is valid")
        })
    });
    tracer.end(root);
    Input { syb, seq, plan }
}

/// What one job produced, beyond its timings.
#[derive(Default)]
struct Outcome {
    digest: u64,
    patterns: u64,
    node_calls: u64,
    sink_bytes: u64,
    sink_error: Option<String>,
    first_emit_ns: Option<u64>,
    stats: MiningStats,
    reports: Vec<ShardReport>,
    /// `(pairs, edges, kept events / events)` of the correlation graph.
    mi: Option<(usize, usize, f64)>,
}

/// Runs the workload's mining call into `inner`, wrapped for the output
/// check, and finishes the sink. Returns after the sink is dropped.
fn drive<S: PatternSink + Send>(
    w: Workload,
    input: &Input,
    inner: S,
    keys: &[u64],
    tracer: &mut Tracer,
    job: usize,
) -> Outcome {
    let cfg = w.config();
    let epoch = tracer.is_on().then(|| tracer.epoch());
    let mut sink = CheckedSink::new(inner, keys, epoch);
    let mut out = Outcome::default();
    out.stats = match w {
        Workload::DeepPatterns => {
            let span = tracer.begin("miner", MINING_JOB, Some(job));
            sink.parent = Some(span);
            let stats = mine_exact_parallel_with_sink(&input.seq, &cfg, w.threads(), &mut sink);
            tracer.end(span);
            stats
        }
        Workload::LongApprox => {
            let graph = tracer.span("mi.graph", MINING_JOB, Some(job), || {
                CorrelationGraph::build_with_density(&input.syb, DENSITY)
            });
            let span = tracer.begin("miner", MINING_JOB, Some(job));
            sink.parent = Some(span);
            let stats =
                mine_approximate_graph_with_sink(&input.seq, &graph, &cfg, w.threads(), &mut sink);
            tracer.end(span);
            if tracer.is_on() {
                out.mi = Some(mi_summary(&graph, &input.seq));
            }
            stats
        }
        Workload::ShardedExchange => {
            let plan = input.plan.as_ref().expect("set-up plans sharded_exchange");
            let span = tracer.begin("exchange", MINING_JOB, Some(job));
            sink.parent = Some(span);
            let (stats, reports) = plan.mine_exchange_into(&cfg, w.threads(), &mut sink);
            tracer.end(span);
            out.reports = reports;
            stats
        }
    };
    sink.parent = Some(job);
    out.sink_error = sink.finish().err().map(|e| e.to_string());
    tracer.extend(std::mem::take(&mut sink.spans));
    out.digest = sink.digest;
    out.patterns = sink.patterns;
    out.node_calls = sink.node_calls;
    out.first_emit_ns = sink.first_emit_ns;
    out
}

fn mi_summary(graph: &CorrelationGraph, seq: &SequenceDatabase) -> (usize, usize, f64) {
    let n = graph.n_vertices();
    let mut kept = vec![false; n];
    for v in graph.correlated_variables() {
        kept[v.0 as usize] = true;
    }
    let registry = seq.registry();
    let kept_events = registry
        .ids()
        .filter(|&e| kept[registry.variable(e).0 as usize])
        .count();
    let frac = kept_events as f64 / registry.len().max(1) as f64;
    (n * n.saturating_sub(1) / 2, graph.n_edges(), frac)
}

/// The output of [`ShardPlan`] mining is expressed in the plan's registry.
fn output_keys(input: &Input) -> Vec<u64> {
    match &input.plan {
        Some(plan) => event_keys(plan.registry()),
        None => event_keys(input.seq.registry()),
    }
}

fn job(args: &Args, series: &[TimeSeries], tracer: &mut Tracer) -> String {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for rep in 1..=SETUP_REPS {
        // Free the previous set-up before the next one, as a fresh run would.
        drop(input.take());
        let t0 = Instant::now();
        input = Some(setup(w, series, tracer, rep as u32));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up repetition");
    let keys = output_keys(&input);
    let instances: usize = input.seq.sequences().iter().map(|s| s.len()).sum();

    alloc::reset();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let job = tracer.begin("job", MINING_JOB, None);
    let out = match w {
        Workload::DeepPatterns => {
            let mut bytes = CountingWriter::default();
            let csv = CsvSink::new(&mut bytes, input.seq.registry());
            let mut out = drive(w, &input, csv, &keys, tracer, job);
            out.sink_bytes = bytes.bytes;
            out
        }
        Workload::LongApprox | Workload::ShardedExchange => {
            drive(w, &input, CountingSink::default(), &keys, tracer, job)
        }
    };
    tracer.end(job);
    let mine_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (alloc_count, heap_peak) = alloc::snapshot();

    let mut report = json!({
        "mode": "job",
        "threads": w.threads(),
        "setup_s": median(&mut setup_s),
        "mine_s": mine_s,
        "mine_cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
    });
    push_outcome(&mut report, &out);
    if tracer.is_on() {
        let mut layers = layers_from_trace(tracer, job);
        push(&mut layers, "events.instances", instances);
        if let Some(first) = out.first_emit_ns {
            let start = tracer.spans()[job].start_ns;
            push(
                &mut layers,
                "sink.first_emit_s",
                first.saturating_sub(start) as f64 * 1e-9,
            );
        }
        push(&mut layers, "sink.node_calls", out.node_calls);
        push(&mut layers, "sink.bytes", out.sink_bytes);
        if let Some((pairs, edges, kept)) = out.mi {
            push(&mut layers, "mi.pairs", pairs);
            push(&mut layers, "mi.edges", edges);
            push(&mut layers, "mi.events_kept_frac", kept);
        }
        push(&mut layers, "alloc.count", alloc_count);
        push(
            &mut layers,
            "heap.peak_mb",
            heap_peak as f64 / (1024.0 * 1024.0),
        );
        push(&mut report, "layers", layers);
    }
    to_json(&report)
}

/// Per-layer self times: the job's spans summed by name, and for each
/// set-up span name the median over the repetitions.
fn layers_from_trace(tracer: &Tracer, job: usize) -> Value {
    let mut layers = json!({});
    let by_job = tracer.self_by_job();
    for name in ["timeseries.symbolize", "events.convert", "shard.plan"] {
        let mut secs: Vec<f64> = (1..=SETUP_REPS as u32)
            .map(|rep| {
                by_job
                    .get(&rep)
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        push(&mut layers, &format!("{name}_s"), median(&mut secs));
    }
    let mining = by_job.get(&MINING_JOB).cloned().unwrap_or_default();
    for name in ["job", "mi.graph", "miner", "exchange", "sink"] {
        let secs = mining.get(name).copied().unwrap_or(0.0);
        let key = match name {
            "mi.graph" => "mi.graph_s".to_owned(),
            "sink" => "sink.busy_s".to_owned(),
            _ => format!("{name}.self_s"),
        };
        push(&mut layers, &key, secs);
    }
    let span = &tracer.spans()[job];
    push(
        &mut layers,
        "trace.job_s",
        (span.end_ns - span.start_ns) as f64 * 1e-9,
    );
    push(
        &mut layers,
        "trace.self_sum_s",
        mining.values().sum::<f64>(),
    );
    layers
}

fn reference(w: Workload, series: &[TimeSeries]) -> String {
    let input = setup(w, series, &mut Tracer::new(false), 1);
    let keys = output_keys(&input);
    let cfg = w.config();
    let mut sink = CheckedSink::new(CountingSink::default(), &keys, None);
    let stats = match w {
        Workload::LongApprox => {
            let graph = CorrelationGraph::build_with_density(&input.syb, DENSITY);
            mine_approximate_graph_with_sink(&input.seq, &graph, &cfg, 1, &mut sink)
        }
        Workload::DeepPatterns | Workload::ShardedExchange => {
            mine_exact_with_sink(&input.seq, &cfg, &mut sink)
        }
    };
    let out = Outcome {
        sink_error: sink.finish().err().map(|e| e.to_string()),
        digest: sink.digest,
        patterns: sink.patterns,
        stats,
        ..Outcome::default()
    };
    let mut report = json!({ "mode": "ref" });
    push_outcome(&mut report, &out);
    to_json(&report)
}

fn push_outcome(report: &mut Value, out: &Outcome) {
    push(report, "digest", format!("{:016x}", out.digest));
    push(report, "patterns", out.patterns);
    let sink_error = out.sink_error.clone().map_or(Value::Null, Value::from);
    push(report, "sink_error", sink_error);
    push(report, "stats", out.stats.to_value());
    let shards: Vec<Value> = out
        .reports
        .iter()
        .map(|r| {
            json!({
                "proposed": r.candidates_proposed,
                "pruned": r.candidates_pruned,
                "wall_s": r.wall.as_secs_f64(),
            })
        })
        .collect();
    push(report, "shards", shards);
}

/// Appends `key: value` to a JSON object.
fn push(object: &mut Value, key: &str, value: impl Into<Value>) {
    if let Value::Object(fields) = object {
        fields.push((key.to_owned(), value.into()));
    }
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("a JSON value always serializes")
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The process's high-water resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user + system time of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has used so far, all threads included.
fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

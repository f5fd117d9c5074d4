//! The PathLog benchmark: one command, three single-threaded workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload program|serve|react --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1`, every other op is traced and
//! the line carries the per-layer metrics instead, and the spans are
//! written to `perfbench/out/`.  See `perfbench/README.md`.

mod alloc;
mod program;
mod react;
mod rng;
mod runner;
mod serve;
mod speed;
mod stats;
mod trace;

use std::process::ExitCode;

use runner::{result_json, Metric, Run};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting::new();

/// Where a per-layer metric comes from.  Times and bytes are per traced op
/// unless the source says otherwise.
enum Source {
    /// Summed span time in ms.
    Ms(&'static str),
    /// Summed span time in µs.
    Us(&'static str),
    /// Span time in µs per unit of a counter.
    UsPer(&'static str, &'static str),
    /// Bytes allocated inside the spans, in MB.
    AllocMb(&'static [&'static str]),
    /// A counter.
    Count(&'static str),
    /// A gauge's maximum over the run (not per op).
    Max(&'static str),
    /// The first span's time minus the second's, in ms.
    MsMinus(&'static str, &'static str),
}

use Source::*;

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("parser.parse_ms", "ms", Ms("parser.parse")),
    ("parser.alloc_mb", "MB", AllocMb(&["parser.parse"])),
    ("analysis.analyze_ms", "ms", Ms("analysis.analyze")),
    ("analysis.alloc_mb", "MB", AllocMb(&["analysis.analyze"])),
    ("analysis.diagnostics", "count", Count("analysis.diagnostics")),
    ("engine.stratify_ms", "ms", Ms("engine.stratify")),
    ("engine.load_ms", "ms", Ms("engine.load")),
    ("engine.alloc_mb", "MB", AllocMb(&["engine.load"])),
    ("engine.iterations", "count", Count("engine.iterations")),
    ("engine.delta_solves", "count", Count("engine.delta_solves")),
    ("engine.full_solves", "count", Count("engine.full_solves")),
    ("engine.rules_skipped", "count", Count("engine.rules_skipped")),
    ("engine.derived", "count", Count("engine.derived")),
    ("plan.compile_us", "us", Us("plan.compile")),
    ("plan.plans_compiled", "count", Count("plan.plans_compiled")),
    ("plan.replans", "count", Count("plan.replans")),
    ("plan.seed_flips", "count", Count("plan.seed_flips")),
    ("semantics.query_ms", "ms", Ms("semantics.query")),
    ("semantics.answers", "count", Count("semantics.answers")),
    ("semantics.alloc_mb", "MB", AllocMb(&["semantics.query"])),
    ("oodb.commit_ms", "ms", Ms("oodb.commit")),
    ("oodb.commit_alloc_mb", "MB", AllocMb(&["oodb.commit"])),
    ("oodb.rejected_commits", "count", Count("oodb.rejected_commits")),
    ("constraints.checks", "count", Count("constraints.checks")),
    ("constraints.full_checks", "count", Count("constraints.full_checks")),
    (
        "constraints.condition_solves",
        "count",
        Count("constraints.condition_solves"),
    ),
    (
        "constraints.constraints_skipped",
        "count",
        Count("constraints.constraints_skipped"),
    ),
    ("snapshot.publish_ms", "ms", MsMinus("oodb.commit", "oodb.twin_commit")),
    ("snapshot.epochs_published", "count", Count("snapshot.epochs_published")),
    ("snapshot.snapshots_pinned", "count", Count("snapshot.snapshots_pinned")),
    (
        "snapshot.snapshots_reclaimed",
        "count",
        Count("snapshot.snapshots_reclaimed"),
    ),
    ("snapshot.retained_max", "count", Max("snapshot.retained_max")),
    ("oodb.begin_session_us", "us", Us("oodb.begin_session")),
    ("oodb.session_read_ms", "ms", Ms("oodb.session_read")),
    (
        "oodb.session_alloc_mb",
        "MB",
        AllocMb(&["oodb.begin_session", "oodb.session_read"]),
    ),
    (
        "reactive.mutation_us",
        "us",
        UsPer("reactive.mutate", "reactive.external_mutations"),
    ),
    ("reactive.firings", "count", Count("reactive.firings")),
    ("reactive.mutations", "count", Count("reactive.mutations")),
    ("reactive.max_depth", "count", Max("reactive.max_depth")),
    ("reactive.alloc_mb", "MB", AllocMb(&["reactive.mutate"])),
    ("reactive.notify_drain_us", "us", Us("reactive.notify_drain")),
    ("reactive.notifications", "count", Count("reactive.notifications")),
];

fn per_layer(run: &Run) -> Vec<Metric> {
    let t = &run.tracer;
    let ops = t.ops().max(1) as f64;
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let value = match *source {
                Ms(span) => t.total_ms(span) / ops,
                Us(span) => t.total_ms(span) * 1e3 / ops,
                UsPer(span, counter) => t.total_ms(span) * 1e3 / t.counter(counter).max(1.0),
                AllocMb(spans) => spans.iter().map(|s| t.total_alloc(s)).sum::<f64>() / 1e6 / ops,
                Count(counter) => t.counter(counter) / ops,
                Max(gauge) => t.maximum(gauge),
                MsMinus(a, b) => (t.total_ms(a) - t.total_ms(b)) / ops,
            };
            Metric { name, unit, value }
        })
        .collect();
    let traced = run.latencies(|s| s.traced, true);
    let untraced = run.latencies(|s| !s.traced, true);
    let all_ops = run.samples.len().max(1) as f64;
    metrics.extend([
        Metric {
            name: "harness.ref_ms",
            unit: "ms",
            value: stats::median(&run.references[0]).unwrap_or(0.0),
        },
        Metric {
            name: "harness.alloc_per_op",
            unit: "count",
            value: run.samples.iter().map(|s| s.allocations as f64).sum::<f64>() / all_ops,
        },
        Metric {
            name: "harness.op_self_ms",
            unit: "ms",
            value: t.op_self_ms() / ops,
        },
        Metric {
            name: "harness.trace_overhead_ms",
            unit: "ms",
            value: traced.op_p50 - untraced.op_p50,
        },
    ]);
    metrics
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 120),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload program|serve|react is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn write_spans(args: &Args, run: &Run) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, run.tracer.to_json_lines()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload program|serve|react --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "program" => runner::run::<program::ProgramBench>(args.seed, args.seconds, args.trace),
        "serve" => runner::run::<serve::ServeBench>(args.seed, args.seconds, args.trace),
        "react" => runner::run::<react::ReactBench>(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    print!("{}", run.summary(&args.workload, args.seed));
    let metrics = if args.trace {
        write_spans(&args, &run);
        let metrics = per_layer(&run);
        for m in &metrics {
            println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        metrics
    } else {
        run.end_to_end()
    };
    let correct = run.wrong.is_empty() && !run.samples.is_empty();
    println!("{}", result_json(correct, run.attempted, run.failed, &metrics));
    ExitCode::SUCCESS
}

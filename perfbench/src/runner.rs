//! The measurement loop shared by the workloads, and the report.
//!
//! One client thread runs ops back to back (a closed loop of one caller):
//! each op is a write phase followed by the read phase that sees it, then
//! an untimed check of the outputs against the benchmark's own model.
//! Reference points (see [`crate::speed`]) are interleaved every
//! [`REFERENCE_EVERY_MS`] of op time.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::speed::{corrected, local_reference, points, Reference};
use crate::stats::{beyond_rank, median, nearest_rank};
use crate::trace::Tracer;
use crate::ALLOC;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Op time between two reference points.  A point after a longer stretch
/// of op time is the median of one reference computation per
/// `REFERENCE_EVERY_MS` of it, up to [`MAX_POINT_SAMPLES`], so the
/// reference costs a fixed share of the run and a long op is corrected by
/// a steadier figure.
const REFERENCE_EVERY_MS: f64 = 5.0;
const MAX_POINT_SAMPLES: usize = 8;

/// A workload: its set-up, the two phases of one op and the checks.
pub trait Workload: Sized {
    /// Ops over which `peak_heap_mb` is taken.  A fixed count, reached by
    /// every run, keeps the peak independent of how many ops the host
    /// managed: a store whose state grows with every op would otherwise
    /// report a larger peak on a faster host.
    const HEAP_WINDOW_OPS: u64;

    /// The host-speed references whose slow-downs track this workload's
    /// write and read phases (set-up uses the write one).
    const REFERENCES: [Reference; 2] = [Reference::OrderedMap, Reference::OrderedMap];

    /// What the write phase hands to the read phase and the check.
    type Written;
    /// What the read phase hands to the check.
    type Read;

    /// Build the inputs and the initial state from `seed`, up to the first
    /// timed op.
    fn setup(seed: u64) -> Self;

    /// The benchmark's own expectations, and with `trace` the extra state
    /// a traced run needs; kept out of `setup_s`.
    fn prepare(&mut self, trace: bool);

    /// The write phase of op `i`.
    fn write(&mut self, i: u64, tr: &mut Tracer) -> Result<Self::Written, String>;

    /// The read phase of op `i`, which must see the write.
    fn read(&mut self, i: u64, written: &mut Self::Written, tr: &mut Tracer) -> Result<Self::Read, String>;

    /// Check op `i`'s outputs against the benchmark's own model (untimed);
    /// a traced op also runs its out-of-op probes here.
    fn check(&mut self, i: u64, written: Self::Written, read: Self::Read, tr: &mut Tracer) -> Result<(), String>;

    /// Checks at the end of the run.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub write_ms: f64,
    pub read_ms: f64,
    /// The reference point taken last before the op.
    pub reference: usize,
    pub traced: bool,
    pub allocations: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    pub kinds: [Reference; 2],
    pub setup_ms: Vec<f64>,
    pub setup_references: Vec<f64>,
    pub samples: Vec<Sample>,
    /// The write-phase and the read-phase reference points.
    pub references: [Vec<f64>; 2],
    pub peak_heap_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub tracer: Tracer,
}

/// Set `W` up and run ops for `seconds`; with `trace`, every other op is
/// traced (the untraced ones give the tracing overhead).
pub fn run<W: Workload>(seed: u64, seconds: u64, trace: bool) -> Run {
    let mut setup_ms = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_references = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let reference = W::REFERENCES[0];
        let before = reference.point(MAX_POINT_SAMPLES);
        let start = Instant::now();
        let w = W::setup(seed);
        setup_ms.push(start.elapsed().as_secs_f64() * 1e3);
        setup_references.push((before + reference.point(MAX_POINT_SAMPLES)) / 2.0);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    w.prepare(trace);

    let mut tracer = Tracer::new();
    let mut samples = Vec::new();
    let mut references = [Vec::new(), Vec::new()];
    add_point(&mut references, W::REFERENCES, MAX_POINT_SAMPLES);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wrong = Vec::new();
    let mut since_reference = 0.0;
    let (mut window_peak, mut peak_heap_bytes) = (0, None);
    ALLOC.reset_peak();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let traced = trace && i % 2 == 1;
        attempted += 1;
        let calls = ALLOC.calls();
        tracer.begin_op(i, traced);
        let t0 = Instant::now();
        let outcome = w.write(i, &mut tracer).and_then(|mut written| {
            let t1 = Instant::now();
            let read = w.read(i, &mut written, &mut tracer)?;
            Ok((written, read, t1, Instant::now()))
        });
        tracer.end_op();
        // The peak covers the ops' write and read phases, not the checks.
        window_peak = window_peak.max(ALLOC.peak());
        match outcome {
            Ok((written, read, t1, t2)) => {
                let allocations = ALLOC.calls() - calls;
                let sample = Sample {
                    write_ms: (t1 - t0).as_secs_f64() * 1e3,
                    read_ms: (t2 - t1).as_secs_f64() * 1e3,
                    reference: references[0].len() - 1,
                    traced,
                    allocations,
                };
                since_reference += sample.write_ms + sample.read_ms;
                match w.check(i, written, read, &mut tracer) {
                    Ok(()) => samples.push(sample),
                    Err(e) => {
                        failed += 1;
                        wrong.push(format!("op {i}: {e}"));
                    }
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("op {i} failed: {e}");
            }
        }
        ALLOC.reset_peak();
        if i + 1 == W::HEAP_WINDOW_OPS {
            peak_heap_bytes = Some(window_peak);
        }
        if since_reference >= REFERENCE_EVERY_MS {
            let samples = (since_reference / REFERENCE_EVERY_MS).round() as usize;
            add_point(&mut references, W::REFERENCES, samples.min(MAX_POINT_SAMPLES));
            since_reference = 0.0;
        }
        i += 1;
    }
    add_point(&mut references, W::REFERENCES, MAX_POINT_SAMPLES);
    let peak_heap_bytes = peak_heap_bytes.unwrap_or_else(|| {
        eprintln!("the run ended before its {} heap-window ops", W::HEAP_WINDOW_OPS);
        window_peak
    });
    if let Err(e) = w.finish() {
        wrong.push(format!("end of run: {e}"));
    }
    Run {
        kinds: W::REFERENCES,
        setup_ms,
        setup_references,
        samples,
        references,
        peak_heap_bytes,
        attempted,
        failed,
        wrong,
        tracer,
    }
}

/// Take one reference point for each phase.
fn add_point(references: &mut [Vec<f64>; 2], kinds: [Reference; 2], samples: usize) {
    for (series, point) in references.iter_mut().zip(points(kinds, samples)) {
        series.push(point);
    }
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Corrected and raw figures of a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct Latencies {
    pub n: usize,
    pub op_p50: f64,
    pub op_p95: f64,
    pub write_p50: f64,
    pub read_p50: f64,
}

impl Run {
    /// The correction factors `[write, read]` for sample `s`.
    fn factors(&self, s: &Sample) -> [f64; 2] {
        [0, 1].map(|phase| {
            let reference = local_reference(&self.references[phase], s.reference);
            corrected(1.0, self.kinds[phase].nominal_ms(), reference)
        })
    }

    /// Latencies over the samples `keep` selects, host-speed corrected or raw.
    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool, correct: bool) -> Latencies {
        let chosen: Vec<&Sample> = self.samples.iter().filter(|s| keep(s)).collect();
        let phases: Vec<[f64; 2]> = chosen
            .iter()
            .map(|s| {
                let [w, r] = if correct { self.factors(s) } else { [1.0, 1.0] };
                [s.write_ms * w, s.read_ms * r]
            })
            .collect();
        let op: Vec<f64> = phases.iter().map(|p| p[0] + p[1]).collect();
        let write: Vec<f64> = phases.iter().map(|p| p[0]).collect();
        let read: Vec<f64> = phases.iter().map(|p| p[1]).collect();
        Latencies {
            n: chosen.len(),
            op_p50: median(&op).unwrap_or(f64::NAN),
            op_p95: nearest_rank(&op, 95.0).unwrap_or(f64::NAN),
            write_p50: median(&write).unwrap_or(f64::NAN),
            read_p50: median(&read).unwrap_or(f64::NAN),
        }
    }

    /// Median set-up time in seconds, corrected or raw.
    pub fn setup_s(&self, correct: bool) -> f64 {
        let times: Vec<f64> = self
            .setup_ms
            .iter()
            .zip(&self.setup_references)
            .map(|(&ms, &r)| {
                if correct {
                    corrected(ms, self.kinds[0].nominal_ms(), r)
                } else {
                    ms
                }
            })
            .collect();
        median(&times).expect("set-up ran") / 1e3
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let l = self.latencies(|_| true, true);
        let metric = |name, unit, value| Metric { name, unit, value };
        vec![
            metric("setup_s", "s", self.setup_s(true)),
            metric("op_p50_ms", "ms", l.op_p50),
            metric("op_p95_ms", "ms", l.op_p95),
            metric("write_p50_ms", "ms", l.write_p50),
            metric("read_p50_ms", "ms", l.read_p50),
            metric("peak_heap_mb", "MB", self.peak_heap_bytes as f64 / 1e6),
        ]
    }

    /// Human-readable summary: corrected and raw figures side by side.
    pub fn summary(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let c = self.latencies(|_| true, true);
        let r = self.latencies(|_| true, false);
        let refs = median(&self.references[0]).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "workload {workload} seed {seed}: {} ops attempted, {} failed, {} samples ({} beyond p95), \
             {} {:?} reference points (write median {refs:.4} ms)",
            self.attempted,
            self.failed,
            c.n,
            beyond_rank(c.n, 95.0),
            self.references[0].len(),
            self.kinds
        );
        let _ = writeln!(out, "  {:<14} {:>12} {:>12}", "metric", "corrected", "raw");
        let rows = [
            ("setup_s", self.setup_s(true), self.setup_s(false), "s"),
            ("op_p50_ms", c.op_p50, r.op_p50, "ms"),
            ("op_p95_ms", c.op_p95, r.op_p95, "ms"),
            ("write_p50_ms", c.write_p50, r.write_p50, "ms"),
            ("read_p50_ms", c.read_p50, r.read_p50, "ms"),
        ];
        for (name, corr, raw, unit) in rows {
            let _ = writeln!(out, "  {name:<14} {corr:>12.4} {raw:>12.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12.4} {:>12} MB",
            "peak_heap_mb",
            self.peak_heap_bytes as f64 / 1e6,
            "-"
        );
        for w in self.wrong.iter().take(5) {
            let _ = writeln!(out, "  WRONG {w}");
        }
        out
    }
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let metrics = [
            Metric {
                name: "a_ms",
                unit: "ms",
                value: 1.25,
            },
            Metric {
                name: "b",
                unit: "count",
                value: 3.0,
            },
        ];
        assert_eq!(
            result_json(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn each_phase_is_corrected_by_its_own_reference_points() {
        let sample = |reference| Sample {
            write_ms: 10.0,
            read_ms: 4.0,
            reference,
            traced: false,
            allocations: 0,
        };
        let (w, r) = (Reference::Formatting.nominal_ms(), Reference::OrderedMap.nominal_ms());
        let run = Run {
            kinds: [Reference::Formatting, Reference::OrderedMap],
            setup_ms: vec![1.0],
            setup_references: vec![w],
            samples: vec![sample(0), sample(1)],
            // The host runs twice as slow for the write phase from point 1 on.
            references: [vec![w, 2.0 * w, 2.0 * w], vec![r, r, r]],
            peak_heap_bytes: 0,
            attempted: 2,
            failed: 0,
            wrong: Vec::new(),
            tracer: Tracer::new(),
        };
        // Op 0 sits between points 0 and 1 (mean 1.5 × nominal), op 1
        // between points 1 and 2 (2 × nominal); reads need no correction.
        assert_eq!(run.factors(&run.samples[0]), [1.0 / 1.5, 1.0]);
        assert_eq!(run.factors(&run.samples[1]), [0.5, 1.0]);
        let l = run.latencies(|_| true, true);
        assert_eq!(l.read_p50, 4.0);
        assert!((l.write_p50 - (10.0 / 1.5 + 5.0) / 2.0).abs() < 1e-9);
        assert_eq!(run.latencies(|_| true, false).write_p50, 10.0);
        assert_eq!(run.setup_s(true), 1e-3);
    }
}

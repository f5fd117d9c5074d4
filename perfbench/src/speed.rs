//! Host-speed correction.
//!
//! On a shared host the same unchanged op can take 25% longer in one run
//! than in the next, or 70% longer for stretches of seconds, while the
//! thread stays on-CPU the whole time: the machine itself runs slower
//! (another tenant on the sibling hardware thread).  A fixed reference
//! computation, timed beside the ops, follows that swing.  Every reported
//! time is `raw × nominal ÷ measured reference`, with the reference taken
//! from the points nearest the op.
//!
//! References call no program code and allocate the way the engine does.
//! Not every kind of work slows alike, so each workload names, for its
//! write and its read phase, the reference whose slow-down tracked that
//! phase's on the 2-core x86-64 host the benchmark was written on
//! (slow-stretch ÷ fast-stretch medians within one run, two runs each):
//!
//! | work | slow-down | [`Reference::Formatting`] | [`Reference::OrderedMap`] |
//! |---|---|---|---|
//! | `program` write | 1.85, 1.24 | 1.83, 1.24 | 1.52, 1.31 |
//! | `program` read | 1.55, 1.47 | 1.83, 1.61 | 1.52, 1.47 |
//! | `serve` op | 1.40, 1.41 | 1.61, 1.55 | 1.44, 1.40 |
//!
//! A memory-bound pointer chase over 32 MB slowed by only 1.08 and a 4 MB
//! buffer fill by 1.2–1.4: the swings are in the cores, not in memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::SplitMix;

/// A reference computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Inserts into an ordered map of small vectors: many small blocks
    /// behind a tree, like the structure's indexes.
    OrderedMap,
    /// Formats and splits statement-like strings: the display and parse
    /// work of program analysis.
    Formatting,
}

impl Reference {
    /// The duration the reference is scaled to: about its median on the
    /// host the benchmark was written on, so corrected and raw times read
    /// alike there.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Reference::OrderedMap => 0.27,
            Reference::Formatting => 0.45,
        }
    }

    /// Run the reference computation once; its wall time in milliseconds.
    pub fn run_ms(self) -> f64 {
        let start = Instant::now();
        match self {
            Reference::OrderedMap => {
                const KEYS: u64 = 1_500;
                let mut rng = SplitMix::new(0x5EED_F00D);
                let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                for i in 0..KEYS {
                    let key = rng.next_u64() % (KEYS * 4);
                    map.insert(key, vec![i as u32, (key >> 3) as u32]);
                }
                let sum: u64 = map.values().map(|v| u64::from(v[0] ^ v[1])).sum();
                black_box(sum);
                drop(black_box(map));
            }
            Reference::Formatting => {
                let mut tokens = 0usize;
                for i in 0..2_000usize {
                    let statement = format!("p{i}[kids ->> {{p{}, p{}}}].", 2 * i + 1, 2 * i + 2);
                    tokens += statement
                        .split(|c: char| !c.is_alphanumeric())
                        .filter(|t| !t.is_empty())
                        .count();
                }
                black_box(tokens);
            }
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One reference point: the median of `samples` runs.
    pub fn point(self, samples: usize) -> f64 {
        let times: Vec<f64> = (0..samples.max(1)).map(|_| self.run_ms()).collect();
        crate::stats::median(&times).expect("at least one sample")
    }
}

/// One point for each phase's reference: `[write, read]`, measuring once
/// when both phases use the same kind.
pub fn points(kinds: [Reference; 2], samples: usize) -> [f64; 2] {
    let write = kinds[0].point(samples);
    let read = if kinds[1] == kinds[0] {
        write
    } else {
        kinds[1].point(samples)
    };
    [write, read]
}

/// `raw` rescaled from a host on which a reference took `measured_ms` to
/// one on which it takes `nominal_ms`.
pub fn corrected(raw: f64, nominal_ms: f64, measured_ms: f64) -> f64 {
    raw * nominal_ms / measured_ms
}

/// The reference duration that applies to an op run after reference
/// point `k` and before `k + 1`: the mean of those two.  Points are taken
/// every few milliseconds of op time, so the pair follows short slow-downs
/// that a wider window would average away.
pub fn local_reference(references: &[f64], k: usize) -> f64 {
    let after = references.get(k + 1).unwrap_or(&references[k]);
    (references[k] + after) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_nominal_over_measured() {
        assert_eq!(corrected(10.0, 0.25, 0.25), 10.0);
        assert_eq!(corrected(10.0, 0.25, 0.5), 5.0);
        assert_eq!(corrected(3.0, 0.25, 0.125), 6.0);
        // A host twice as slow doubles both the op and the reference.
        let fast = corrected(40.0, 0.3, 0.8);
        let slow = corrected(80.0, 0.3, 1.6);
        assert!((fast - slow).abs() < 1e-12);
    }

    #[test]
    fn local_reference_is_the_mean_of_the_samples_around_the_op() {
        let refs = [1.0, 9.0, 2.0, 3.0];
        assert_eq!(local_reference(&refs, 0), 5.0);
        assert_eq!(local_reference(&refs, 2), 2.5);
        // After the last sample only that one applies.
        assert_eq!(local_reference(&refs, 3), 3.0);
    }

    #[test]
    fn the_reference_computations_take_measurable_time() {
        for reference in [Reference::OrderedMap, Reference::Formatting] {
            let ms = reference.point(3);
            assert!(ms > 0.0 && ms.is_finite());
        }
    }
}

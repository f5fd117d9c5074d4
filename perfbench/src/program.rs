//! `program`: PathLog text → answers on a fresh `Structure` and `Engine`.
//!
//! The text is a binary genealogy forest (two complete trees of depth 8,
//! 1,022 persons, 1,532 fact statements) plus the `desc` closure, the
//! filtered same-sex `sdesc` join, a `summary` virtual-object head and a
//! stratified-negation `leaf` class, and three queries.  The seed permutes
//! the non-root names, hence the statement text and interning order.  The
//! tree shape and the sexes (a first child is male, a second female) stay
//! fixed, so the work per op — including the size of every answer — does
//! not depend on the seed.

use std::collections::HashMap;

use pathlog_baseline::relational::{tc, Relation};
use pathlog_core::analysis::Analysis;
use pathlog_core::engine::{stratify, Engine, EvalStats};
use pathlog_core::names::{Name, Var};
use pathlog_core::program::{validate_program, Program};
use pathlog_core::semantics::Bindings;
use pathlog_core::structure::{Oid, Structure};
use pathlog_parser::parse_program;

use crate::rng::SplitMix;
use crate::runner::Workload;
use crate::speed::Reference;
use crate::trace::Tracer;

/// Trees in the forest.
pub const TREES: usize = 2;
/// Depth of each complete binary tree.
pub const DEPTH: u32 = 8;

/// The rules and queries appended to the generated facts.
const RULES: &str = "\
X[desc ->> {Y}] <- X[kids ->> {Y}].
X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
X[sdesc ->> {Y}] <- X[sex -> S; desc ->> {Y}], Y[sex -> S].
X.summary[descendants ->> X..desc] <- X[kids ->> {Y}].
X : parent <- X[kids ->> {Y}].
X : leaf <- X : person, not X : parent.
?- p0[desc ->> {Z}].
?- X : leaf.
?- X[sdesc ->> {Y}].
";

/// A generated forest: persons by index, roots first in each tree.
#[derive(Debug, Clone)]
pub struct Forest {
    pub names: Vec<String>,
    pub kids: Vec<Vec<usize>>,
    pub male: Vec<bool>,
}

impl Forest {
    /// `trees` complete binary trees of depth `depth`.  Roots are named
    /// `p0`, `p1`, …; the seed shuffles the other names.
    pub fn generate(seed: u64, trees: usize, depth: u32) -> Forest {
        let per_tree = (1usize << (depth + 1)) - 1;
        let n = trees * per_tree;
        let mut rng = SplitMix::derive(seed, 1);
        let mut labels: Vec<usize> = (trees..n).collect();
        rng.shuffle(&mut labels);
        let mut names = Vec::with_capacity(n);
        let mut kids = vec![Vec::new(); n];
        let mut next_label = labels.into_iter();
        for t in 0..trees {
            for local in 0..per_tree {
                let label = if local == 0 {
                    t
                } else {
                    next_label.next().expect("one label per person")
                };
                names.push(format!("p{label}"));
                for child in [2 * local + 1, 2 * local + 2] {
                    if child < per_tree {
                        kids[t * per_tree + local].push(t * per_tree + child);
                    }
                }
            }
        }
        // Roots and first children (odd local indices) are male.
        let male = (0..n).map(|i| (i % per_tree) % 2 == 1 || i % per_tree == 0).collect();
        Forest { names, kids, male }
    }

    /// The PathLog text: one class/sex statement per person, one `kids`
    /// statement per parent, then [`RULES`].
    pub fn text(&self) -> String {
        let mut text = String::new();
        for (i, name) in self.names.iter().enumerate() {
            let sex = if self.male[i] { "m" } else { "f" };
            text.push_str(&format!("{name} : person[sex -> {sex}].\n"));
            if !self.kids[i].is_empty() {
                let kids: Vec<&str> = self.kids[i].iter().map(|&k| self.names[k].as_str()).collect();
                text.push_str(&format!("{name}[kids ->> {{{}}}].\n", kids.join(", ")));
            }
        }
        text.push_str(RULES);
        text
    }

    /// Descendants of `p` by walking the kids lists.
    pub fn descendants(&self, p: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = self.kids[p].clone();
        while let Some(d) = stack.pop() {
            out.push(d);
            stack.extend(&self.kids[d]);
        }
        out
    }
}

/// The answers the program must give, computed apart from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `desc` pairs, by person index: the relational baseline's transitive
    /// closure of `kids`.
    pub desc: Vec<(usize, usize)>,
    /// `p0`'s descendants: its subtree size − 1.
    pub p0_desc: usize,
    /// Persons without kids.
    pub leaves: usize,
    /// Same-sex descendant pairs, by a direct walk.
    pub sdesc: Vec<(usize, usize)>,
}

impl Expected {
    pub fn of(forest: &Forest) -> Expected {
        let rows = forest
            .kids
            .iter()
            .enumerate()
            .flat_map(|(p, ks)| ks.iter().map(move |&k| vec![Oid(p as u32), Oid(k as u32)]))
            .collect();
        let closure = tc::transitive_closure(&Relation::from_rows(&["parent", "child"], rows));
        let mut desc: Vec<(usize, usize)> = closure.rows.iter().map(|r| (r[0].index(), r[1].index())).collect();
        desc.sort_unstable();
        let mut sdesc = Vec::new();
        for x in 0..forest.names.len() {
            for y in forest.descendants(x) {
                if forest.male[x] == forest.male[y] {
                    sdesc.push((x, y));
                }
            }
        }
        sdesc.sort_unstable();
        Expected {
            desc,
            p0_desc: forest.descendants(0).len(),
            leaves: forest.kids.iter().filter(|k| k.is_empty()).count(),
            sdesc,
        }
    }
}

pub struct ProgramBench {
    forest: Forest,
    text: String,
    expected: Option<Expected>,
}

pub struct Written {
    engine: Engine,
    program: Program,
    analysis: Analysis,
    structure: Structure,
    stats: EvalStats,
}

impl Workload for ProgramBench {
    const HEAP_WINDOW_OPS: u64 = 50;
    const REFERENCES: [Reference; 2] = [Reference::Formatting, Reference::OrderedMap];
    type Written = Written;
    type Read = Vec<Vec<Bindings>>;

    fn setup(seed: u64) -> Self {
        let forest = Forest::generate(seed, TREES, DEPTH);
        let text = forest.text();
        ProgramBench {
            forest,
            text,
            expected: None,
        }
    }

    fn prepare(&mut self, _trace: bool) {
        self.expected = Some(Expected::of(&self.forest));
    }

    fn write(&mut self, _i: u64, tr: &mut Tracer) -> Result<Written, String> {
        let program = tr
            .span("parser.parse", || parse_program(&self.text))
            .map_err(|e| e.to_string())?;
        let engine = Engine::new();
        let analysis = tr.span("analysis.analyze", || engine.analyze(None, &program));
        let mut structure = Structure::new();
        let stats = tr
            .span("engine.load", || engine.load_program(&mut structure, &program))
            .map_err(|e| e.to_string())?;
        Ok(Written {
            engine,
            program,
            analysis,
            structure,
            stats,
        })
    }

    fn read(&mut self, _i: u64, w: &mut Written, tr: &mut Tracer) -> Result<Vec<Vec<Bindings>>, String> {
        let Written {
            engine,
            program,
            structure,
            ..
        } = w;
        tr.span("semantics.query", || {
            program
                .queries
                .iter()
                .map(|q| engine.query(structure, q))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())
    }

    fn check(&mut self, _i: u64, w: Written, answers: Vec<Vec<Bindings>>, tr: &mut Tracer) -> Result<(), String> {
        if tr.on() {
            probe(&w, &answers, tr)?;
        }
        let s = &w.structure;
        let index: HashMap<Oid, usize> = self
            .forest
            .names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| s.lookup_name(&Name::atom(n)).map(|o| (o, i)))
            .collect();
        if index.len() != self.forest.names.len() {
            return Err("a person is missing from the structure".into());
        }
        let person = |b: &Bindings, v: &str| b.get(&Var::new(v)).and_then(|o| index.get(&o).copied());
        let pairs = |bs: &[Bindings], x: &str, y: &str| -> Option<Vec<(usize, usize)>> {
            let mut out: Option<Vec<_>> = bs.iter().map(|b| Some((person(b, x)?, person(b, y)?))).collect();
            if let Some(v) = out.as_mut() {
                v.sort_unstable();
            }
            out
        };
        let expected = self.expected.as_ref().expect("prepared");
        let [p0, leaves, sdesc] = answers.as_slice() else {
            return Err(format!("expected 3 answer sets, got {}", answers.len()));
        };
        if p0.len() != expected.p0_desc {
            return Err(format!(
                "p0 has {} descendants, expected {}",
                p0.len(),
                expected.p0_desc
            ));
        }
        if leaves.len() != expected.leaves {
            return Err(format!("{} leaves, expected {}", leaves.len(), expected.leaves));
        }
        if pairs(sdesc, "X", "Y").as_ref() != Some(&expected.sdesc) {
            return Err("sdesc differs from the direct walk".into());
        }
        let desc_query = pathlog_parser::parse_query("X[desc ->> {Y}]").map_err(|e| e.to_string())?;
        let desc = w.engine.query(s, &desc_query).map_err(|e| e.to_string())?;
        if pairs(&desc, "X", "Y").as_ref() != Some(&expected.desc) {
            return Err("desc differs from the relational transitive closure".into());
        }
        Ok(())
    }
}

/// The traced op's out-of-op probes and counters: a separate
/// `stratify(validate_program(..))` call, `plan::compile` over the
/// analysis plan reports, and the load's evaluation counters.
fn probe(w: &Written, answers: &[Vec<Bindings>], tr: &mut Tracer) -> Result<(), String> {
    tr.span("engine.stratify", || {
        validate_program(&w.program).and_then(|infos| stratify(&infos))
    })
    .map_err(|e| e.to_string())?;
    // Plan reports come proper rules first, in program order, then queries.
    let compiled = tr.span("plan.compile", || {
        w.program
            .rules
            .iter()
            .filter(|r| !r.is_fact())
            .zip(&w.analysis.plans)
            .filter(|(rule, report)| pathlog_core::plan::compile(rule, report).is_some())
            .count()
    });
    std::hint::black_box(compiled);
    tr.count("analysis.diagnostics", w.analysis.diagnostics.len() as f64);
    let st = &w.stats;
    tr.count("engine.iterations", st.iterations as f64);
    tr.count("engine.delta_solves", st.delta_solves as f64);
    tr.count("engine.full_solves", st.full_solves as f64);
    tr.count("engine.rules_skipped", st.rules_skipped as f64);
    tr.count("engine.derived", st.derived() as f64);
    tr.count("plan.plans_compiled", st.plans_compiled as f64);
    tr.count("plan.replans", st.replans as f64);
    tr.count("plan.seed_flips", st.seed_flips as f64);
    tr.count("semantics.answers", answers.iter().map(Vec::len).sum::<usize>() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_agrees_with_hand_counts_on_a_tiny_forest() {
        // One tree of depth 2: p0 → {a, b}, a → {c, d}, b → {e, f}.
        let forest = Forest::generate(3, 1, 2);
        assert_eq!(forest.names.len(), 7);
        assert_eq!(forest.names[0], "p0");
        let e = Expected::of(&forest);
        assert_eq!(e.p0_desc, 6);
        assert_eq!(e.leaves, 4);
        // 6 pairs from p0, 2 from each inner child.
        assert_eq!(e.desc.len(), 10);
        let same = |x: usize, y: usize| forest.male[x] == forest.male[y];
        let by_hand = (1..7).filter(|&y| same(0, y)).count()
            + [3, 4].iter().filter(|&&y| same(1, y)).count()
            + [5, 6].iter().filter(|&&y| same(2, y)).count();
        assert_eq!(e.sdesc.len(), by_hand);
    }

    #[test]
    fn the_tiny_program_passes_its_own_check() {
        let forest = Forest::generate(5, 2, 2);
        let mut bench = ProgramBench {
            text: forest.text(),
            expected: None,
            forest,
        };
        bench.prepare(true);
        let mut tr = Tracer::new();
        tr.begin_op(0, true);
        let mut w = bench.write(0, &mut tr).unwrap();
        let r = bench.read(0, &mut w, &mut tr).unwrap();
        tr.end_op();
        bench.check(0, w, r, &mut tr).unwrap();
        assert!(tr.counter("engine.derived") > 0.0);
        assert_eq!(
            tr.counter("semantics.answers"),
            (6 + 8 + bench.expected.as_ref().unwrap().sdesc.len()) as f64
        );
    }

    #[test]
    fn the_seed_changes_the_text_but_not_the_shape() {
        let a = Forest::generate(1, TREES, 3);
        let b = Forest::generate(2, TREES, 3);
        assert_ne!(a.text(), b.text());
        assert_eq!(Forest::generate(1, TREES, 3).text(), a.text());
        assert_eq!(a.kids, b.kids);
    }
}

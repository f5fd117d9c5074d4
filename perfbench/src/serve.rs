//! `serve`: commit → guard check → publish → a session read that sees the
//! new epoch, on a guarded company store with serving active.
//!
//! The store is a datagen company of [`EMPLOYEES`] employees under the
//! three E20 denial constraints (`self_boss`, `self_friend`, `underpaid`,
//! all `Reject`).  Each op commits one transaction — a friend edge plus a
//! salary change, so every commit both grows a set and re-checks the wage
//! floor — except every fifth, an illegal self-friendship the guard must
//! reject.  A session then starts on the new epoch and reads the paper's
//! manager path query, the writer's friend set and a salary range.  Each
//! session is held for [`HOLD`] further ops, so old epochs stay retained.

use std::collections::{BTreeSet, VecDeque};

use pathlog_baseline::relational::queries::manager_red_detroit_presidents;
use pathlog_baseline::RelationalDb;
use pathlog_core::constraints::{CheckStats, Constraint, ConstraintPolicy, ConstraintSet};
use pathlog_core::engine::Engine;
use pathlog_core::names::Var;
use pathlog_core::program::{Literal, Query};
use pathlog_core::semantics::{Answer, Bindings};
use pathlog_core::snapshot::{Epoch, SnapshotStats};
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::{Filter, Term};
use pathlog_datagen::{generate_company, CompanyParams};
use pathlog_oodb::{CommitError, ObjectStore, Session, Value};

use crate::rng::SplitMix;
use crate::runner::Workload;
use crate::trace::Tracer;

/// Employees in the store.
pub const EMPLOYEES: usize = 1_000;
/// The `underpaid` wage floor.
pub const WAGE_FLOOR: i64 = 40_000;
/// The salary range read by every session: `[LOW, HIGH)`.
pub const LOW: i64 = 60_000;
pub const HIGH: i64 = 90_000;
/// Ops a session stays open after the one that started it.
pub const HOLD: usize = 3;
/// Employees whose salaries are pinned to intern the comparison constants
/// (builtins only relate interned integers); commits leave them alone.
const PINNED: [(usize, i64); 3] = [(0, WAGE_FLOOR), (1, LOW), (2, HIGH)];

const MANAGER_QUERY: &str = "X : manager..vehicles[color -> red].producedBy[cityOf -> detroit; president -> X]";

/// The E20 denial constraints.
pub fn constraints() -> ConstraintSet {
    let x = || Term::var("X");
    [
        Constraint::new(
            "self_boss",
            vec![Literal::pos(x().filter(Filter::scalar("boss", x())))],
            ConstraintPolicy::Reject,
        ),
        Constraint::new(
            "self_friend",
            vec![Literal::pos(x().filter(Filter::set("friends", vec![x()])))],
            ConstraintPolicy::Reject,
        ),
        Constraint::new(
            "underpaid",
            vec![
                Literal::pos(x().isa("employee").filter(Filter::scalar("salary", Term::var("S")))),
                Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(WAGE_FLOOR)])),
            ],
            ConstraintPolicy::Reject,
        ),
    ]
    .into_iter()
    .map(|c| c.expect("range-restricted constraint"))
    .collect()
}

/// One op's transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `a` befriends `b` and `c`'s salary becomes `salary`.
    Legal { a: usize, b: usize, c: usize, salary: i64 },
    /// `a` befriends itself: `self_friend` must reject it.
    SelfFriend { a: usize },
}

impl Step {
    /// The step of op `i`, drawn from `rng`.
    pub fn draw(i: u64, rng: &mut SplitMix) -> Step {
        let a = rng.below(EMPLOYEES);
        if i % 5 == 4 {
            return Step::SelfFriend { a };
        }
        let b = (a + 1 + rng.below(EMPLOYEES - 1)) % EMPLOYEES;
        let c = PINNED.len() + rng.below(EMPLOYEES - PINNED.len());
        let salary = WAGE_FLOOR + rng.below(110_000) as i64;
        Step::Legal { a, b, c, salary }
    }

    fn writer(&self) -> usize {
        match *self {
            Step::Legal { a, .. } | Step::SelfFriend { a } => a,
        }
    }
}

/// What the guard made of a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Committed, publishing this epoch (`None` while serving is inactive).
    Accepted(Option<Epoch>),
    Rejected,
}

/// Stage and commit `step`.
fn commit(db: &mut ObjectStore, names: &[String], step: Step) -> Result<Outcome, String> {
    let mut txn = db.begin();
    let staged = match step {
        Step::Legal { a, b, c, salary } => txn
            .add(&names[a], "friends", Value::obj(&names[b]))
            .and_then(|()| txn.set(&names[c], "salary", Value::Int(salary))),
        Step::SelfFriend { a } => txn.add(&names[a], "friends", Value::obj(&names[a])),
    };
    staged.map_err(|e| e.to_string())?;
    match txn.commit() {
        Ok(receipt) => Ok(Outcome::Accepted(receipt.epoch)),
        Err(CommitError::Rejected { .. }) => Ok(Outcome::Rejected),
        Err(e) => Err(e.to_string()),
    }
}

/// The benchmark's own model of the store: friends and salaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub friends: Vec<BTreeSet<usize>>,
    pub salary: Vec<i64>,
}

impl Model {
    /// Read the generated rows.
    pub fn of(db: &ObjectStore, names: &[String]) -> Model {
        let salary = names
            .iter()
            .map(|n| match db.get(n, "salary") {
                Some(Value::Int(s)) => *s,
                other => panic!("{n} has salary {other:?}"),
            })
            .collect();
        Model {
            friends: vec![BTreeSet::new(); names.len()],
            salary,
        }
    }

    /// Apply `step`; `true` when the guard must accept it.
    pub fn apply(&mut self, step: Step) -> bool {
        match step {
            Step::Legal { a, b, c, salary } => {
                self.friends[a].insert(b);
                self.salary[c] = salary;
                true
            }
            Step::SelfFriend { .. } => false,
        }
    }

    /// Employees earning in `[LOW, HIGH)`.
    pub fn in_range(&self) -> BTreeSet<usize> {
        (0..self.salary.len())
            .filter(|&e| (LOW..HIGH).contains(&self.salary[e]))
            .collect()
    }
}

pub struct ServeBench {
    seed: u64,
    db: ObjectStore,
    names: Vec<String>,
    held: VecDeque<Session>,
    opened: usize,
    rng: SplitMix,
    manager_term: Term,
    range_query: Query,
    model: Option<Model>,
    managers: BTreeSet<String>,
    twin: Option<ObjectStore>,
}

pub struct Written {
    step: Step,
    before: (SnapshotStats, Epoch),
    outcome: Outcome,
    counters: Option<(CheckStats, SnapshotStats)>,
}

pub struct Read {
    epoch: Epoch,
    managers: Vec<Answer>,
    friends: Vec<Bindings>,
    range: Vec<Bindings>,
}

/// The guarded store every set-up (and the trace twin) starts from.
fn guarded_store(seed: u64) -> ObjectStore {
    let mut db = generate_company(&CompanyParams {
        employees: EMPLOYEES,
        seed,
        ..CompanyParams::default()
    });
    for (e, salary) in PINNED {
        db.set(&format!("e{e}"), "salary", Value::Int(salary))
            .expect("pinned employee exists");
    }
    db.set_constraints(constraints(), Engine::new())
        .expect("constraints install");
    db
}

fn friends_of(name: &str) -> Query {
    Query::single(Term::name(name).filter(Filter::set("friends", vec![Term::var("F")])))
}

impl ServeBench {
    fn names_of(s: &Structure, oids: impl Iterator<Item = Option<Oid>>) -> Option<BTreeSet<String>> {
        oids.map(|o| o.and_then(|o| s.name_of(o)).map(|n| n.to_string()))
            .collect()
    }

    fn expect_names(
        &self,
        got: Option<BTreeSet<String>>,
        want: impl Iterator<Item = usize>,
        what: &str,
    ) -> Result<(), String> {
        let want: BTreeSet<String> = want.map(|e| self.names[e].clone()).collect();
        match got {
            Some(got) if got == want => Ok(()),
            Some(got) => Err(format!("{what}: {} answers, model has {}", got.len(), want.len())),
            None => Err(format!("{what}: an answer names no object")),
        }
    }
}

impl Workload for ServeBench {
    const HEAP_WINDOW_OPS: u64 = 500;
    type Written = Written;
    type Read = Read;

    fn setup(seed: u64) -> Self {
        let mut db = guarded_store(seed);
        // The first session activates serving: from here on every commit
        // publishes an epoch.
        let first = db.begin_session();
        let manager_term = pathlog_parser::parse_term(MANAGER_QUERY).expect("manager query parses");
        let range_query = Query::new(vec![
            Literal::pos(
                Term::var("X")
                    .isa("employee")
                    .filter(Filter::scalar("salary", Term::var("S"))),
            ),
            Literal::pos(Term::var("S").scalar_args("ge", vec![Term::int(LOW)])),
            Literal::pos(Term::var("S").scalar_args("lt", vec![Term::int(HIGH)])),
        ]);
        ServeBench {
            seed,
            db,
            names: (0..EMPLOYEES).map(|e| format!("e{e}")).collect(),
            held: VecDeque::from([first]),
            opened: 1,
            rng: SplitMix::derive(seed, 2),
            manager_term,
            range_query,
            model: None,
            managers: BTreeSet::new(),
            twin: None,
        }
    }

    fn prepare(&mut self, trace: bool) {
        self.model = Some(Model::of(&self.db, &self.names));
        let structure = self.db.to_structure();
        let db = RelationalDb::from_structure(&structure);
        self.managers = manager_red_detroit_presidents(&structure, &db)
            .into_iter()
            .map(|o| structure.display_name(o).into_owned())
            .collect();
        if trace {
            self.twin = Some(guarded_store(self.seed));
        }
    }

    fn write(&mut self, i: u64, tr: &mut Tracer) -> Result<Written, String> {
        let step = Step::draw(i, &mut self.rng);
        let before = (self.db.serving_stats(), self.held.back().map_or(0, Session::epoch));
        let counters = tr
            .on()
            .then(|| (self.db.constraint_guard().expect("guard").stats(), before.0));
        let (db, names) = (&mut self.db, &self.names);
        let outcome = tr.span("oodb.commit", || commit(db, names, step))?;
        Ok(Written {
            step,
            before,
            outcome,
            counters,
        })
    }

    fn read(&mut self, _i: u64, w: &mut Written, tr: &mut Tracer) -> Result<Read, String> {
        let db = &mut self.db;
        let session = tr.span("oodb.begin_session", || db.begin_session());
        self.opened += 1;
        let friends = friends_of(&self.names[w.step.writer()]);
        let (term, range) = (&self.manager_term, &self.range_query);
        let held = &mut self.held;
        let read = tr.span("oodb.session_read", || -> pathlog_core::error::Result<Read> {
            let read = Read {
                epoch: session.epoch(),
                managers: session.query_term(term)?,
                friends: session.query(&friends)?,
                range: session.query(range)?,
            };
            held.push_back(session);
            while held.len() > HOLD + 1 {
                held.pop_front();
            }
            Ok(read)
        });
        read.map_err(|e| e.to_string())
    }

    fn check(&mut self, i: u64, w: Written, r: Read, tr: &mut Tracer) -> Result<(), String> {
        let pinned = self.db.pinned_epochs();
        if let Some(twin) = self.twin.as_mut() {
            let names = &self.names;
            tr.span("oodb.twin_commit", || commit(twin, names, w.step))?;
        }
        if let Some((checks, serving)) = w.counters {
            let now = self.db.constraint_guard().expect("guard").stats();
            let served = self.db.serving_stats();
            tr.count(
                "oodb.rejected_commits",
                f64::from(u8::from(w.outcome == Outcome::Rejected)),
            );
            tr.count("constraints.checks", (now.checks - checks.checks) as f64);
            tr.count("constraints.full_checks", (now.full_checks - checks.full_checks) as f64);
            tr.count(
                "constraints.condition_solves",
                (now.condition_solves - checks.condition_solves) as f64,
            );
            tr.count(
                "constraints.constraints_skipped",
                (now.constraints_skipped - checks.constraints_skipped) as f64,
            );
            tr.count(
                "snapshot.epochs_published",
                (served.epochs_published - serving.epochs_published) as f64,
            );
            tr.count(
                "snapshot.snapshots_pinned",
                (served.snapshots_pinned - serving.snapshots_pinned) as f64,
            );
            tr.count(
                "snapshot.snapshots_reclaimed",
                (served.snapshots_reclaimed - serving.snapshots_reclaimed) as f64,
            );
            tr.max("snapshot.retained_max", pinned as f64);
        }

        let model = self.model.as_mut().expect("prepared");
        let legal = model.apply(w.step);
        let published = self.db.serving_stats().epochs_published - w.before.0.epochs_published;
        let (prev_stats, prev_epoch) = w.before;
        match (legal, w.outcome) {
            (true, Outcome::Accepted(Some(epoch))) if epoch > prev_epoch && published == 1 && r.epoch == epoch => {}
            (false, Outcome::Rejected) if published == 0 && r.epoch == prev_epoch => {}
            (legal, got) => {
                return Err(format!(
                    "op {i}: legal={legal}, commit gave {got:?}, {published} epochs published \
                     (from {}), session at {} after {prev_epoch}",
                    prev_stats.epochs_published, r.epoch
                ))
            }
        }
        let model = self.model.as_ref().expect("prepared");
        let session = self.held.back().expect("the op's session is held");
        let s = session.structure();
        let x = Var::new("X");
        let managers = Self::names_of(s, r.managers.iter().map(|a| a.bindings.get(&x)));
        if managers.as_ref() != Some(&self.managers) {
            return Err("manager path query differs from the relational plan".into());
        }
        let writer = w.step.writer();
        let f = Var::new("F");
        self.expect_names(
            Self::names_of(s, r.friends.iter().map(|b| b.get(&f))),
            model.friends[writer].iter().copied(),
            "friend set",
        )?;
        self.expect_names(
            Self::names_of(s, r.range.iter().map(|b| b.get(&x))),
            model.in_range().into_iter(),
            "salary range",
        )
    }

    fn finish(&mut self) -> Result<(), String> {
        self.held.clear();
        let stats = self.db.serving_stats();
        if stats.snapshots_pinned != self.opened {
            return Err(format!("{} pins for {} sessions", stats.snapshots_pinned, self.opened));
        }
        match self.db.pinned_epochs() {
            0 => Ok(()),
            n => Err(format!("{n} epochs still retained with no session open")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_agrees_with_hand_counts() {
        let mut m = Model {
            friends: vec![BTreeSet::new(); 4],
            salary: vec![59_999, 60_000, 89_999, 90_000],
        };
        assert_eq!(m.in_range(), BTreeSet::from([1, 2]));
        assert!(m.apply(Step::Legal {
            a: 3,
            b: 0,
            c: 3,
            salary: 70_000
        }));
        assert!(!m.apply(Step::SelfFriend { a: 2 }));
        assert!(m.apply(Step::Legal {
            a: 3,
            b: 1,
            c: 0,
            salary: 10
        }));
        assert_eq!(m.friends[3], BTreeSet::from([0, 1]));
        assert_eq!(m.in_range(), BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn every_fifth_step_is_illegal_and_legal_steps_leave_pins_alone() {
        let mut rng = SplitMix::new(9);
        for i in 0..200 {
            match Step::draw(i, &mut rng) {
                Step::SelfFriend { .. } => assert_eq!(i % 5, 4),
                Step::Legal { a, b, c, salary } => {
                    assert_ne!(i % 5, 4);
                    assert_ne!(a, b);
                    assert!(c >= PINNED.len());
                    assert!(salary >= WAGE_FLOOR);
                }
            }
        }
    }
}

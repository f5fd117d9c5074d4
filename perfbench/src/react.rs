//! `react`: batches of salary updates through an `ActiveStore` whose ECA
//! rules cascade, with one subscription drained in the same thread.
//!
//! Three rules fire on `salary`-type events; their conditions join the
//! receiver's boss and department, so every firing solves a real join
//! (through `Engine::solve_conditions` under the rounds schedule):
//!
//! * `keep-history`: salary asserted → add the amount to `payHistory`;
//! * `derive-bonus`: salary asserted → assert `bonusBase` = the amount;
//! * `audit`: `bonusBase` asserted → classify the receiver `audited`
//!   (cascade depth 2).
//!
//! An op writes [`BATCH`] updates (retract salary, retract bonusBase,
//! assert salary, each with its cascade), then drains the epoch
//! notifications and runs one query on `structure()`.

use std::collections::{BTreeMap, BTreeSet};

use pathlog_core::engine::Engine;
use pathlog_core::names::{Name, Var};
use pathlog_core::program::{Literal, Query};
use pathlog_core::semantics::Bindings;
use pathlog_core::structure::{Oid, Structure};
use pathlog_core::term::{Filter, Term};
use pathlog_datagen::{generate_company, CompanyParams};
use pathlog_oodb::Value;
use pathlog_reactive::{
    ActiveOptions, ActiveStats, ActiveStore, CascadeSchedule, EcaAction, EcaRule, Event, Notification, Subscription,
};

use crate::rng::SplitMix;
use crate::runner::Workload;
use crate::trace::Tracer;

/// Employees in the store.
pub const EMPLOYEES: usize = 1_000;
/// Salary updates per op.
pub const BATCH: usize = 150;
/// External mutations per update.
pub const MUTATIONS_PER_UPDATE: usize = 3;

/// The ECA rules.
pub fn rules() -> Vec<EcaRule> {
    let r = || Term::var("Receiver");
    let salary = || Event::ScalarAsserted(Name::atom("salary"));
    vec![
        EcaRule::new(
            "keep-history",
            salary(),
            vec![
                Literal::pos(r().isa("employee").filter(Filter::scalar("worksFor", Term::var("D")))),
                Literal::pos(Term::var("D").isa("department")),
            ],
            vec![EcaAction::AddSetMember {
                receiver: r(),
                method: Name::atom("payHistory"),
                member: Term::var("Value"),
            }],
        ),
        EcaRule::new(
            "derive-bonus",
            salary(),
            vec![
                Literal::pos(r().filters(vec![
                    Filter::scalar("boss", Term::var("B")),
                    Filter::scalar("worksFor", Term::var("D")),
                ])),
                Literal::pos(
                    Term::var("B")
                        .isa("employee")
                        .filter(Filter::scalar("worksFor", Term::var("E"))),
                ),
                Literal::pos(Term::var("E").isa("department")),
            ],
            vec![EcaAction::AssertScalar {
                receiver: r(),
                method: Name::atom("bonusBase"),
                value: Term::var("Value"),
            }],
        ),
        EcaRule::new(
            "audit",
            Event::ScalarAsserted(Name::atom("bonusBase")),
            vec![
                Literal::pos(r().filter(Filter::scalar("boss", Term::var("B")))),
                Literal::pos(Term::var("B").filter(Filter::scalar("worksFor", Term::var("E")))),
            ],
            vec![EcaAction::AddIsA {
                object: r(),
                class: Name::atom("audited"),
            }],
        ),
    ]
}

/// The seeded update stream: the employees with a boss (the rules'
/// conditions hold for exactly these) in a seeded order, round after round,
/// each round switching every employee to the other of its two amounts.
/// Every run thus repeats whole rounds of the same updates, and after the
/// second round the store no longer grows.
#[derive(Debug, Clone)]
pub struct Schedule {
    order: Vec<usize>,
    amounts: Vec<[i64; 2]>,
    next: usize,
}

impl Schedule {
    pub fn new(seed: u64, boss: &[Option<usize>]) -> Schedule {
        let mut rng = SplitMix::derive(seed, 3);
        let mut order: Vec<usize> = (0..boss.len()).filter(|&e| boss[e].is_some()).collect();
        rng.shuffle(&mut order);
        let amounts = (0..boss.len())
            .map(|_| [0, 1].map(|_| 40_000 + rng.below(110_000) as i64))
            .collect();
        Schedule {
            order,
            amounts,
            next: 0,
        }
    }

    /// The next update: an employee and its new amount.
    pub fn next(&mut self) -> (usize, i64) {
        let (round, at) = (self.next / self.order.len(), self.next % self.order.len());
        self.next += 1;
        let e = self.order[at];
        (e, self.amounts[e][round % 2])
    }
}

/// The benchmark's own model of the reactive state.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub boss: Vec<Option<usize>>,
    pub has_bonus: Vec<bool>,
    pub history: Vec<BTreeSet<i64>>,
    pub audited: Vec<bool>,
}

/// What a batch must have done, by the model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub firings: usize,
    pub mutations: usize,
    pub notifications: usize,
}

impl Model {
    pub fn new(boss: Vec<Option<usize>>) -> Model {
        let n = boss.len();
        Model {
            boss,
            has_bonus: vec![false; n],
            history: vec![BTreeSet::new(); n],
            audited: vec![false; n],
        }
    }

    /// Apply one update of `e` to `amount`; what it must trigger.
    ///
    /// Retracting the salary changes the store; retracting `bonusBase`
    /// changes it when there is one.  Asserting the salary fires
    /// `keep-history` (a change when the amount is new to the history) and
    /// `derive-bonus`, whose `bonusBase` fires `audit` (a change the first
    /// time).  Each external mutation ends in one quiescent notification;
    /// every change and firing notifies once.
    pub fn update(&mut self, e: usize, amount: i64) -> Expect {
        let mutations = 2
            + usize::from(self.has_bonus[e])
            + usize::from(!self.history[e].contains(&amount))
            + 1
            + usize::from(!self.audited[e]);
        let firings = 3;
        self.has_bonus[e] = true;
        self.history[e].insert(amount);
        self.audited[e] = true;
        Expect {
            firings,
            mutations,
            notifications: mutations + firings + MUTATIONS_PER_UPDATE,
        }
    }

    /// Employees whose boss is `b`.
    pub fn reports_of(&self, b: usize) -> BTreeSet<usize> {
        (0..self.boss.len()).filter(|&e| self.boss[e] == Some(b)).collect()
    }
}

pub struct ReactBench {
    store: ActiveStore,
    subscription: Subscription,
    engine: Engine,
    employees: Vec<Oid>,
    names: Vec<String>,
    boss: Vec<Option<usize>>,
    salary: Oid,
    bonus: Oid,
    pay_history: Oid,
    audited: Oid,
    schedule: Schedule,
    model: Option<Model>,
}

pub struct Written {
    updates: Vec<(usize, i64)>,
    stats: ActiveStats,
}

pub struct Read {
    notifications: Vec<Notification>,
    reports: Vec<Bindings>,
    boss: usize,
}

/// The active store over `structure`, rounds schedule, sequential engine.
fn active_store(structure: Structure) -> ActiveStore {
    let options = ActiveOptions {
        schedule: CascadeSchedule::Rounds,
        ..ActiveOptions::default()
    };
    let mut store = ActiveStore::with_options(structure, options);
    for rule in rules() {
        store.add_rule(rule);
    }
    store
}

impl Workload for ReactBench {
    const HEAP_WINDOW_OPS: u64 = 200;
    type Written = Written;
    type Read = Read;

    fn setup(seed: u64) -> Self {
        let db = generate_company(&CompanyParams {
            employees: EMPLOYEES,
            seed,
            ..CompanyParams::default()
        });
        let names: Vec<String> = (0..EMPLOYEES).map(|e| format!("e{e}")).collect();
        let boss: Vec<Option<usize>> = names
            .iter()
            .map(|n| match db.get(n, "boss") {
                Some(Value::Ref(b)) => Some(b[1..].parse().expect("bosses are employees e<n>")),
                _ => None,
            })
            .collect();
        let mut store = active_store(db.to_structure());
        let subscription = store.subscribe();
        ReactBench {
            employees: names.iter().map(|n| store.oid(n)).collect(),
            salary: store.oid("salary"),
            bonus: store.oid("bonusBase"),
            pay_history: store.oid("payHistory"),
            audited: store.oid("audited"),
            schedule: Schedule::new(seed, &boss),
            names,
            boss,
            store,
            subscription,
            engine: Engine::new(),
            model: None,
        }
    }

    fn prepare(&mut self, _trace: bool) {
        self.model = Some(Model::new(self.boss.clone()));
    }

    fn write(&mut self, _i: u64, tr: &mut Tracer) -> Result<Written, String> {
        let updates: Vec<(usize, i64)> = (0..BATCH).map(|_| self.schedule.next()).collect();
        let store = &mut self.store;
        let (employees, salary, bonus) = (&self.employees, self.salary, self.bonus);
        let stats = tr.span("reactive.mutate", || -> pathlog_reactive::Result<ActiveStats> {
            let mut stats = ActiveStats::default();
            for &(e, amount) in &updates {
                let amount = store.int(amount);
                stats.merge(&store.retract_scalar(salary, employees[e])?);
                stats.merge(&store.retract_scalar(bonus, employees[e])?);
                stats.merge(&store.assert_scalar(salary, employees[e], amount)?);
            }
            Ok(stats)
        });
        let stats = stats.map_err(|e| e.to_string())?;
        Ok(Written { updates, stats })
    }

    fn read(&mut self, _i: u64, w: &mut Written, tr: &mut Tracer) -> Result<Read, String> {
        let subscription = &self.subscription;
        let notifications = tr.span("reactive.notify_drain", || subscription.drain());
        let (last, _) = *w.updates.last().expect("a batch has updates");
        let boss = self.boss[last].expect("updated employees have a boss");
        let query = Query::single(Term::var("X").filter(Filter::scalar("boss", Term::name(self.names[boss].as_str()))));
        let (engine, structure) = (&self.engine, self.store.structure());
        let reports = tr
            .span("semantics.query", || engine.query(structure, &query))
            .map_err(|e| e.to_string())?;
        Ok(Read {
            notifications,
            reports,
            boss,
        })
    }

    fn check(&mut self, _i: u64, w: Written, r: Read, tr: &mut Tracer) -> Result<(), String> {
        let model = self.model.as_mut().expect("prepared");
        let mut expect = Expect::default();
        let mut last = BTreeMap::new();
        for &(e, amount) in &w.updates {
            let x = model.update(e, amount);
            expect.firings += x.firings;
            expect.mutations += x.mutations;
            expect.notifications += x.notifications;
            last.insert(e, amount);
        }
        tr.count("reactive.firings", w.stats.firings as f64);
        tr.count("reactive.mutations", w.stats.mutations as f64);
        tr.count(
            "reactive.external_mutations",
            (MUTATIONS_PER_UPDATE * w.updates.len()) as f64,
        );
        tr.count("reactive.notifications", r.notifications.len() as f64);
        tr.count("semantics.answers", r.reports.len() as f64);
        tr.max("reactive.max_depth", w.stats.max_depth_reached as f64);
        let got = Expect {
            firings: w.stats.firings,
            mutations: w.stats.mutations,
            notifications: r.notifications.len(),
        };
        if got != expect || w.stats.max_depth_reached != 2 {
            return Err(format!(
                "batch gave {got:?} at depth {}, model expects {expect:?} at depth 2",
                w.stats.max_depth_reached
            ));
        }
        let s = self.store.structure();
        for (e, amount) in last {
            let oid = self.employees[e];
            let amount_oid = s.lookup_name(&Name::Int(amount));
            let bonus_ok = amount_oid.is_some() && s.apply_scalar(self.bonus, oid, &[]) == amount_oid;
            let history_ok =
                amount_oid.is_some_and(|a| s.apply_set(self.pay_history, oid, &[]).is_some_and(|h| h.contains(&a)));
            if !(bonus_ok && history_ok && s.in_class(oid, self.audited)) {
                return Err(format!(
                    "{} is not bonused, recorded and audited at {amount}",
                    self.names[e]
                ));
            }
        }
        let x = Var::new("X");
        let reports: Option<BTreeSet<String>> = r
            .reports
            .iter()
            .map(|b| b.get(&x).and_then(|o| s.name_of(o)).map(|n| n.to_string()))
            .collect();
        let want: BTreeSet<String> = model
            .reports_of(r.boss)
            .into_iter()
            .map(|e| self.names[e].clone())
            .collect();
        if reports != Some(want) {
            return Err(format!("reports of {} differ from the model", self.names[r.boss]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_agrees_with_hand_counts() {
        let mut m = Model::new(vec![None, Some(0), Some(0)]);
        // First update: salary retract + salary assert + history + bonus + audited.
        assert_eq!(
            m.update(1, 50_000),
            Expect {
                firings: 3,
                mutations: 5,
                notifications: 11
            }
        );
        // Second: the old bonus is retracted too; audited already holds.
        assert_eq!(m.update(1, 60_000).mutations, 5);
        // Third, back to the first amount: history already has it.
        assert_eq!(
            m.update(1, 50_000),
            Expect {
                firings: 3,
                mutations: 4,
                notifications: 10
            }
        );
        assert_eq!(m.reports_of(0), BTreeSet::from([1, 2]));
    }

    #[test]
    fn the_schedule_repeats_rounds_of_eligible_employees_with_alternating_amounts() {
        let mut s = Schedule::new(7, &[None, Some(0), Some(0), None, Some(1)]);
        let first: Vec<(usize, i64)> = (0..3).map(|_| s.next()).collect();
        let second: Vec<(usize, i64)> = (0..3).map(|_| s.next()).collect();
        let third: Vec<(usize, i64)> = (0..3).map(|_| s.next()).collect();
        let who = |r: &[(usize, i64)]| r.iter().map(|u| u.0).collect::<Vec<_>>();
        let mut round = who(&first);
        assert_eq!(who(&second), round);
        assert_eq!(first, third);
        round.sort_unstable();
        assert_eq!(round, vec![1, 2, 4]);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(s.amounts[a.0], [a.1, b.1]);
        }
    }

    #[test]
    fn the_store_matches_the_model_on_a_tiny_company() {
        // e0 bosses e1 and e2; all work for d0 and earn 45,000.
        let mut s = Structure::new();
        let (employee, department, boss, works_for, salary) = (
            s.atom("employee"),
            s.atom("department"),
            s.atom("boss"),
            s.atom("worksFor"),
            s.atom("salary"),
        );
        let (d0, start) = (s.atom("d0"), s.int(45_000));
        s.add_isa(d0, department);
        let e: Vec<Oid> = (0..3).map(|i| s.atom(&format!("e{i}"))).collect();
        for &x in &e {
            s.add_isa(x, employee);
            s.assert_scalar(works_for, x, &[], d0).unwrap();
            s.assert_scalar(salary, x, &[], start).unwrap();
        }
        s.assert_scalar(boss, e[1], &[], e[0]).unwrap();
        s.assert_scalar(boss, e[2], &[], e[0]).unwrap();
        let mut store = active_store(s);
        let sub = store.subscribe();
        let bonus = store.oid("bonusBase");
        let mut model = Model::new(vec![None, Some(0), Some(0)]);
        for (who, amount) in [(1, 50_000), (1, 60_000), (2, 50_000), (1, 50_000)] {
            let want = model.update(who, amount);
            let amount = store.int(amount);
            let mut got = ActiveStats::default();
            got.merge(&store.retract_scalar(salary, e[who]).unwrap());
            got.merge(&store.retract_scalar(bonus, e[who]).unwrap());
            got.merge(&store.assert_scalar(salary, e[who], amount).unwrap());
            assert_eq!(
                (got.firings, got.mutations, got.max_depth_reached),
                (want.firings, want.mutations, 2)
            );
            assert_eq!(sub.drain().len(), want.notifications);
        }
    }
}

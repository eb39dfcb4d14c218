//! Dual construction: repair the all-default tree by targeted upgrades.

use crate::supervise::Meter;
use crate::{
    panic_message, Budget, CandidateEval, DegradationEvent, EvalSession, NdrOptimizer,
    OptContext, SupervisedRun,
};
use snr_cts::{Assignment, NodeId};
use snr_par::{pool_scope, Parallelism, PoolHandle};
use snr_tech::RuleId;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Upgrade-repair: start with *no* NDR anywhere (uniform default) and,
/// while the tree violates the envelope, upgrade the most effective edge
/// one rule step at a time.
///
/// Candidates are restricted to edges that can actually help: the stages
/// containing slew-violating nodes, and the root paths of the extreme
/// (earliest/latest) sinks when skew violates. Each iteration applies the
/// candidate with the best violation reduction per added capacitance.
///
/// This is the natural dual of [`crate::GreedyDowngrade`]; the ablation
/// experiment compares the two constructions' power at identical
/// constraints.
#[derive(Debug, Clone)]
pub struct GreedyUpgradeRepair {
    max_iters: usize,
    parallelism: Parallelism,
    budget: Budget,
}

impl GreedyUpgradeRepair {
    /// Creates the optimizer with a generous iteration cap, evaluating
    /// candidates serially under an unlimited budget.
    pub fn new() -> Self {
        GreedyUpgradeRepair {
            max_iters: 100_000,
            parallelism: Parallelism::serial(),
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy with a custom iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_iters` is zero.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        assert!(max_iters > 0, "need at least one iteration");
        self.max_iters = max_iters;
        self
    }

    /// Returns a copy probing candidate upgrades concurrently on a pool of
    /// forked evaluation sessions. Identical result to the serial run for
    /// any job count: probes are read-only, the best-score selection keeps
    /// the serial candidate order (strict `>` — lowest candidate index wins
    /// ties), and every commit happens on the main session.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy bounded by `budget`. The single phase
    /// `"upgrade-repair"` ticks once per repair iteration; tick placement
    /// is identical on the serial and parallel paths.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Edges worth upgrading for the committed state `committed` of
    /// `session`, in ascending id order: stage edges of slew-violating
    /// nodes plus root-path edges of the latest sink. `mark` is all-false
    /// scratch of the tree's length and is all-false again on return.
    fn candidates(
        &self,
        ctx: &OptContext<'_>,
        session: &EvalSession<'_, '_>,
        committed: CandidateEval,
        mark: &mut [bool],
        out: &mut Vec<NodeId>,
    ) {
        let tree = ctx.tree();
        let constraints = ctx.constraints();
        let timing = session.committed_timing();
        out.clear();

        // Slew violations: walk from each violating checked node up to its
        // stage source, marking the stage's path edges. A marked edge's
        // path to the source is already marked, so the walk stops there.
        let limit = constraints.slew_limit_ps();
        if committed.worst_slew_ps > limit {
            timing.for_each_slew_violation(tree, limit, |v| {
                let mut cur = v;
                while let Some(p) = tree.node(cur).parent() {
                    if mark[cur.0] {
                        break;
                    }
                    mark[cur.0] = true;
                    out.push(cur);
                    if tree.node(p).kind().is_buffer() {
                        break;
                    }
                    cur = p;
                }
            });
        }

        // Skew violations: the latest sink's root path is where upgrades
        // reduce delay (the earliest sink cannot be slowed by upgrading).
        // Ties go to the highest id.
        if committed.skew_ps > constraints.skew_limit_ps() {
            let mut latest: Option<(NodeId, f64)> = None;
            for node in tree.nodes().iter().filter(|n| n.kind().is_sink()) {
                let at = timing.arrival_ps(node.id());
                if latest.is_none_or(|(_, best)| at >= best) {
                    latest = Some((node.id(), at));
                }
            }
            let (mut cur, _) = latest.expect("trees have sinks");
            while let Some(p) = tree.node(cur).parent() {
                if !mark[cur.0] {
                    mark[cur.0] = true;
                    out.push(cur);
                }
                cur = p;
            }
        }

        for e in out.iter() {
            mark[e.0] = false;
        }
        let most = ctx.tech().rules().most_conservative_id();
        out.retain(|&e| session.rule(e) != most);
        out.sort_unstable();
    }
}

impl Default for GreedyUpgradeRepair {
    fn default() -> Self {
        GreedyUpgradeRepair::new()
    }
}

impl NdrOptimizer for GreedyUpgradeRepair {
    fn name(&self) -> &str {
        "upgrade-repair"
    }

    fn assign(&self, ctx: &OptContext<'_>) -> Assignment {
        self.assign_supervised(ctx).assignment
    }

    fn assign_supervised(&self, ctx: &OptContext<'_>) -> SupervisedRun {
        if !self.parallelism.is_serial() {
            match catch_unwind(AssertUnwindSafe(|| self.attempt(ctx, true))) {
                Ok(run) => return run,
                Err(payload) => {
                    let detail = panic_message(&*payload, 120);
                    let mut run = self.attempt(ctx, false);
                    run.degradations.insert(
                        0,
                        DegradationEvent::ParallelToSerial {
                            optimizer: "upgrade-repair",
                            detail,
                        },
                    );
                    return run;
                }
            }
        }
        self.attempt(ctx, false)
    }
}

impl GreedyUpgradeRepair {
    fn attempt(&self, ctx: &OptContext<'_>, parallel: bool) -> SupervisedRun {
        let mut session = ctx.session_from(ctx.default_assignment());
        let mut meter = Meter::start(&self.budget, "upgrade-repair");
        if parallel {
            // The candidate pool of one iteration is usually tens of edges;
            // cap the pool at the job count (engine clones are not free).
            let workers = self.parallelism.jobs().max(2);
            let forks: Vec<EvalSession<'_, '_>> = (0..workers).map(|_| session.fork()).collect();
            let session = &mut session;
            let m = &mut meter;
            let handler = |fork: &mut EvalSession<'_, '_>, job| run_probe_job(ctx, fork, job);
            pool_scope(forks, &handler, move |pool| {
                self.repair_loop(ctx, session, Some(pool), m);
            });
        } else {
            self.repair_loop(ctx, &mut session, None, &mut meter);
        }
        let mut degradations: Vec<DegradationEvent> = session
            .degradations()
            .iter()
            .copied()
            .map(DegradationEvent::IncrementalToFull)
            .collect();
        // Could not repair within budget: the conservative uniform tree is
        // the guaranteed-feasible answer when one exists — the final
        // ladder rung.
        let assignment = if session.feasible() {
            session.into_assignment()
        } else {
            degradations.push(DegradationEvent::OptimizerToBaseline {
                optimizer: "upgrade-repair",
                detail: "repair ended infeasible".to_owned(),
            });
            ctx.conservative_assignment()
        };
        SupervisedRun {
            assignment,
            budgets: vec![meter.report()],
            degradations,
        }
    }

    /// The repair loop shared by the serial and parallel paths. With a
    /// pool, candidate probes fan out across the forks (read-only) and
    /// every commit is broadcast back so the forks track the session;
    /// scoring always walks candidates in their serial order with a strict
    /// `>` comparison, so both paths pick the same upgrade every iteration.
    fn repair_loop<'c, 'a, 'h>(
        &self,
        ctx: &'c OptContext<'a>,
        session: &mut EvalSession<'c, 'a>,
        mut pool: Option<&mut PoolHandle<'h, EvalSession<'c, 'a>, ProbeJob, Option<CandidateEval>>>,
        meter: &mut Meter<'_>,
    ) {
        let tree = ctx.tree();
        let rules = ctx.tech().rules();
        let layer = ctx.tech().clock_layer();
        let constraints = ctx.constraints();

        // Running routing-track cost, so upgrades can respect a budget.
        let len_um = |e: NodeId| tree.node(e).edge_len_nm() as f64 / 1_000.0;
        let mut track_um: f64 = tree
            .edges()
            .map(|e| rules.rule(session.rule(e)).track_cost() * len_um(e))
            .sum();
        let budget = constraints.track_budget_um().unwrap_or(f64::INFINITY);
        let mut mark = vec![false; tree.len()];
        let mut candidates = Vec::new();
        for _ in 0..self.max_iters {
            if !meter.tick() {
                return;
            }
            let committed = session.committed_eval();
            let violation = constraints.violation_ps_of(committed.worst_slew_ps, committed.skew_ps);
            if violation <= 0.0 && committed.feasible {
                return;
            }
            // Nominal is clean but a corner still violates: fall through
            // to the plateau branch, which keeps widening the longest
            // cheap edges (terminating at uniform-conservative).
            self.candidates(ctx, session, committed, &mut mark, &mut candidates);
            if candidates.is_empty() {
                break;
            }
            // Surviving (edge, next rule, added fF) triples, serial order.
            let cands: Vec<(NodeId, RuleId, f64)> = candidates
                .iter()
                .filter_map(|&e| {
                    let current = session.rule(e);
                    let next = rules.pricier_than(current).next()?;
                    let d_track = (rules.rule(next).track_cost()
                        - rules.rule(current).track_cost())
                        * len_um(e);
                    if track_um + d_track > budget {
                        return None; // this upgrade would blow the routing budget
                    }
                    let added_ff = ((layer.unit_c(rules.rule(next))
                        - layer.unit_c(rules.rule(current)))
                        * len_um(e))
                        .max(1e-6);
                    Some((e, next, added_ff))
                })
                .collect();
            // Probe every candidate against the current committed state —
            // through the pool when parallel, through the session when not.
            let evals: Vec<CandidateEval> = match pool.as_deref_mut() {
                Some(pool) => {
                    let w = pool.workers();
                    for (k, &(e, next, _)) in cands.iter().enumerate() {
                        pool.send(k % w, k, ProbeJob::Probe(vec![(e, next)]));
                    }
                    let mut evals = vec![None; cands.len()];
                    for _ in 0..cands.len() {
                        let (k, eval) = pool.recv();
                        evals[k] = eval;
                    }
                    evals
                        .into_iter()
                        .map(|e| e.expect("probes return evals"))
                        .collect()
                }
                None => cands
                    .iter()
                    .map(|&(e, next, _)| {
                        let eval = session.try_edge(e, next);
                        session.rollback();
                        eval
                    })
                    .collect(),
            };
            // Best violation reduction per added capacitance; strict `>`
            // keeps the earliest candidate on ties.
            let mut best: Option<(f64, NodeId, RuleId)> = None;
            for (&(e, next, added_ff), eval) in cands.iter().zip(&evals) {
                let new_violation =
                    constraints.violation_ps_of(eval.worst_slew_ps, eval.skew_ps);
                let score = (violation - new_violation) / added_ff;
                if best.is_none_or(|(s, _, _)| score > s) {
                    best = Some((score, e, next));
                }
            }
            match best {
                Some((score, e, next)) if score > 0.0 => {
                    track_um += (rules.rule(next).track_cost()
                        - rules.rule(session.rule(e)).track_cost())
                        * len_um(e);
                    session.try_edge(e, next);
                    session.commit();
                    if let Some(pool) = pool.as_deref_mut() {
                        pool.broadcast(ProbeJob::Apply(vec![(e, next)]));
                    }
                }
                // No single upgrade helps (plateau): take the largest
                // candidate-free step — upgrade the longest still-cheap
                // edge that fits the budget — before giving up.
                _ => {
                    let fallback = tree
                        .edges()
                        .filter(|e| {
                            let cur = session.rule(*e);
                            if cur == rules.most_conservative_id() {
                                return false;
                            }
                            let next = rules.pricier_than(cur).next().expect("not top");
                            let d = (rules.rule(next).track_cost()
                                - rules.rule(cur).track_cost())
                                * len_um(*e);
                            track_um + d <= budget
                        })
                        .max_by_key(|e| tree.node(*e).edge_len_nm());
                    match fallback {
                        Some(e) => {
                            let next = rules
                                .pricier_than(session.rule(e))
                                .next()
                                .expect("not at most conservative");
                            track_um += (rules.rule(next).track_cost()
                                - rules.rule(session.rule(e)).track_cost())
                                * len_um(e);
                            session.try_edge(e, next);
                            session.commit();
                            if let Some(pool) = pool.as_deref_mut() {
                                pool.broadcast(ProbeJob::Apply(vec![(e, next)]));
                            }
                        }
                        None => break, // nothing more fits the budget
                    }
                }
            }
        }
    }
}

/// The job protocol of the upgrade-repair pool: probe a candidate on a
/// forked session and discard it (returns the eval), or replay a move set
/// the main session committed so the fork tracks it (returns `None`).
#[derive(Clone)]
enum ProbeJob {
    /// Evaluate and discard.
    Probe(Vec<(NodeId, RuleId)>),
    /// Replay a move set the main session committed.
    Apply(Vec<(NodeId, RuleId)>),
}

fn run_probe_job(
    _ctx: &OptContext<'_>,
    fork: &mut EvalSession<'_, '_>,
    job: ProbeJob,
) -> Option<CandidateEval> {
    match job {
        ProbeJob::Probe(moves) => {
            // Probe faults fire here and only here: the serial path never
            // sends pool jobs, so a parallel→serial retry is always clean.
            #[cfg(feature = "fault-inject")]
            _ctx.on_parallel_probe();
            let eval = fork.try_moves(&moves);
            fork.rollback();
            Some(eval)
        }
        ProbeJob::Apply(moves) => {
            fork.try_moves(&moves);
            fork.commit();
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snr_cts::{synthesize, ClockTree, CtsOptions};
    use snr_netlist::BenchmarkSpec;
    use snr_power::PowerModel;
    use snr_tech::Technology;

    fn fixture(n: usize) -> (ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(8).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    #[test]
    fn repairs_to_feasibility() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        // Default uniform violates the envelope...
        assert!(!ctx.feasible(&ctx.default_assignment()));
        // ...but the repair ends feasible.
        let out = GreedyUpgradeRepair::default().optimize(&ctx);
        assert!(out.meets_constraints());
    }

    #[test]
    fn cheaper_than_conservative_baseline() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let out = GreedyUpgradeRepair::default().optimize(&ctx);
        let base = ctx.conservative_baseline();
        assert!(out.power().network_uw() <= base.power().network_uw() + 1e-9);
    }

    #[test]
    fn already_feasible_start_returns_default() {
        use crate::Constraints;
        let (tree, tech) = fixture(40);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_constraints(Constraints::absolute(1e9, 1e9));
        let asg = GreedyUpgradeRepair::default().assign(&ctx);
        assert_eq!(asg, ctx.default_assignment());
    }

    #[test]
    fn iteration_cap_falls_back_to_conservative() {
        let (tree, tech) = fixture(120);
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        let asg = GreedyUpgradeRepair::default()
            .with_max_iters(1)
            .assign(&ctx);
        // One iteration cannot repair a 120-sink tree; the guaranteed
        // fallback is the conservative uniform.
        assert_eq!(asg, ctx.conservative_assignment());
    }
}

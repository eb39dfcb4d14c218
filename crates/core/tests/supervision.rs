//! Anytime-semantics proof for the run-supervision layer (ISSUE 5
//! acceptance): an iteration-capped optimizer returns a *feasible*
//! solution no worse than the uniform-2W2S baseline, reports
//! `exhausted: true`, and does so deterministically across job counts.

use snr_core::{
    Budget, CancelToken, GreedyDowngrade, NdrOptimizer, OptContext, Parallelism, SmartNdr,
    Uniform,
};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

fn fixture(sinks: usize, seed: u64) -> (ClockTree, Technology) {
    let design = BenchmarkSpec::new("sup", sinks).seed(seed).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
    (tree, tech)
}

#[test]
fn iteration_capped_runs_are_anytime_and_deterministic_across_jobs() {
    let (tree, tech) = fixture(96, 11);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let baseline = Uniform::conservative().optimize(&ctx);
    let cap = || Budget::unlimited().with_max_iters(7);

    // The serial downgrade construction, then the full flow at every job
    // count (its upgrade-repair pass probes on a pool when jobs > 1).
    let greedy = GreedyDowngrade::default().with_budget(cap()).optimize(&ctx);
    let mut runs = vec![("greedy".to_owned(), greedy)];
    for jobs in [1usize, 2, 8] {
        let smart = SmartNdr::default().with_parallelism(Parallelism::new(jobs)).with_budget(cap());
        runs.push((format!("smart jobs={jobs}"), smart.optimize(&ctx)));
    }
    for (label, out) in &runs {
        // Anytime: the capped run is still feasible and no worse than the
        // conservative baseline it started from.
        assert!(out.meets_constraints(), "{label}: capped run must stay feasible");
        assert!(
            out.power().network_uw() <= baseline.power().network_uw() + 1e-9,
            "{label}: capped power {} must not exceed uniform-2W2S {}",
            out.power().network_uw(),
            baseline.power().network_uw()
        );
        // The receipt says the cap bound.
        assert!(out.budget_exhausted(), "{label}: 7 iterations must exhaust the cap");
        for b in out.budget_reports() {
            assert!(b.iterations_done <= 7, "{label}: {b:?} overran the cap");
        }
    }
    // Deterministic when the iteration cap binds: identical assignment and
    // power for every job count.
    let result = |i: usize| (runs[i].1.assignment().clone(), runs[i].1.power().network_uw());
    assert_eq!(result(1), result(2), "smart jobs 1 vs 2 diverged under the cap");
    assert_eq!(result(1), result(3), "smart jobs 1 vs 8 diverged under the cap");
}

#[test]
fn uncapped_run_reports_unexhausted_budgets() {
    let (tree, tech) = fixture(48, 3);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let out = SmartNdr::default().optimize(&ctx);
    assert!(!out.budget_exhausted());
    assert!(!out.budget_reports().is_empty(), "supervised flow must leave receipts");
    assert!(out.degradations().is_empty(), "clean run takes no ladder rungs");
}

#[test]
fn baselines_are_unsupervised() {
    let (tree, tech) = fixture(32, 5);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let out = Uniform::conservative().optimize(&ctx);
    assert!(out.budget_reports().is_empty());
    assert!(!out.budget_exhausted());
}

#[test]
fn pre_fired_token_yields_feasible_result_immediately() {
    let (tree, tech) = fixture(64, 9);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let token = CancelToken::new();
    token.cancel();
    let out = SmartNdr::default()
        .with_budget(Budget::unlimited().with_token(token))
        .optimize(&ctx);
    // Cancelled before the first move: the conservative start is still a
    // feasible answer — anytime means never worse than doing nothing.
    assert!(out.meets_constraints());
    assert!(out.budget_exhausted());
    let baseline = ctx.conservative_baseline();
    assert!(out.power().network_uw() <= baseline.power().network_uw() + 1e-9);
}

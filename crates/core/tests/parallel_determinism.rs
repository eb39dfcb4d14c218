//! Parallel candidate evaluation must reproduce the serial algorithms
//! exactly: probes are read-only, winners follow the serial trial order,
//! and commits replay on forked sessions — so for any job count the final
//! assignment is bit-identical to `Parallelism::serial()`.

use snr_core::{
    Constraints, GreedyUpgradeRepair, NdrOptimizer, OptContext, Parallelism, SmartNdr,
};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

/// Three generated designs with different sizes and seeds.
fn designs() -> Vec<(ClockTree, Technology)> {
    [(120usize, 8u64), (180, 21), (250, 33)]
        .into_iter()
        .map(|(n, seed)| {
            let design = BenchmarkSpec::new("par", n).seed(seed).build().unwrap();
            let tech = Technology::n45();
            let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
            (tree, tech)
        })
        .collect()
}

#[test]
fn upgrade_repair_parallel_equals_serial() {
    for (i, (tree, tech)) in designs().iter().enumerate() {
        let ctx = OptContext::new(tree, tech, PowerModel::new(1.0));
        let serial = GreedyUpgradeRepair::default().assign(&ctx);
        for jobs in [2, 8] {
            let par = GreedyUpgradeRepair::default()
                .with_parallelism(Parallelism::new(jobs))
                .assign(&ctx);
            assert_eq!(serial, par, "design {i}, jobs={jobs}");
        }
    }
}

#[test]
fn smart_ndr_with_parallel_components_equals_serial() {
    let (tree, tech) = designs().remove(0);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let serial = SmartNdr::default().assign(&ctx);
    let par = SmartNdr::default().with_parallelism(Parallelism::new(4)).assign(&ctx);
    assert_eq!(serial, par);
}

#[test]
fn parallel_equals_serial_under_tight_constraints() {
    // Constraint-bound searches exercise the infeasible-probe paths.
    let (tree, tech) = designs().remove(1);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
        .with_constraints(Constraints::relative(&tree, &tech, 1.03, 8.0));
    let serial = GreedyUpgradeRepair::default().assign(&ctx);
    let par = GreedyUpgradeRepair::default()
        .with_parallelism(Parallelism::new(3))
        .assign(&ctx);
    assert_eq!(serial, par);
}

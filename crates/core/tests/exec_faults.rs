//! Execution-fault injection (`fault-inject` feature): each injected fault
//! must be absorbed by exactly the intended degradation-ladder rung, and
//! the degraded run must reproduce the clean serial result bit for bit.

#![cfg(feature = "fault-inject")]

use snr_core::{
    DegradationEvent, ExecFault, GreedyUpgradeRepair, NdrOptimizer, OptContext, Parallelism,
};
use snr_cts::{synthesize, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

fn fixture(sinks: usize, seed: u64) -> (ClockTree, Technology) {
    let design = BenchmarkSpec::new("ef", sinks).seed(seed).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
    (tree, tech)
}

/// Runs upgrade-repair (the optimizer with a probe pool) serially on a
/// clean context: the reference result.
fn clean_serial(tree: &ClockTree, tech: &Technology) -> snr_cts::Assignment {
    let ctx = OptContext::new(tree, tech, PowerModel::new(1.0));
    GreedyUpgradeRepair::default().assign(&ctx)
}

#[test]
fn probe_panic_takes_parallel_to_serial_rung_and_matches_serial_result() {
    let (tree, tech) = fixture(80, 7);
    let reference = clean_serial(&tree, &tech);
    // Quiet hook: the injected worker panic is expected and caught.
    std::panic::set_hook(Box::new(|_| {}));
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
        .with_exec_fault(ExecFault::ProbePanic { at_probe: 3 });
    let run = GreedyUpgradeRepair::default()
        .with_parallelism(Parallelism::new(2))
        .assign_supervised(&ctx);
    let _ = std::panic::take_hook();
    let rungs: Vec<&str> = run.degradations.iter().map(DegradationEvent::rung).collect();
    assert!(
        rungs.contains(&"parallel_to_serial"),
        "worker panic must be recorded as a ladder rung, got {rungs:?}"
    );
    // The serial retry never sends pool jobs, so the fault cannot re-fire:
    // the recovered result is the clean serial one.
    assert_eq!(run.assignment, reference, "serial retry must reproduce the clean result");
    let detail = run
        .degradations
        .iter()
        .find(|d| d.rung() == "parallel_to_serial")
        .expect("rung present")
        .detail();
    assert!(detail.contains("probe worker panic"), "panic payload captured: {detail}");
}

#[test]
fn probe_stall_is_absorbed_without_degradation() {
    let (tree, tech) = fixture(64, 13);
    let reference = clean_serial(&tree, &tech);
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
        .with_exec_fault(ExecFault::ProbeStall { at_probe: 2, millis: 5 });
    let run = GreedyUpgradeRepair::default()
        .with_parallelism(Parallelism::new(2))
        .assign_supervised(&ctx);
    // A slow worker is not an error: no rung, identical result.
    assert!(run.degradations.is_empty(), "a stall must not degrade: {:?}", run.degradations);
    assert_eq!(run.assignment, reference);
}

#[test]
fn injected_divergence_with_parallel_probes_falls_back_identically_to_serial() {
    let (tree, tech) = fixture(96, 21);
    // Guard on every commit; the injected 1e-3 ps drift is far above the
    // 1e-6 ps epsilon but far below any feasibility margin, so serial and
    // parallel decisions stay identical while the guard must trip.
    let faulty_ctx = |par: bool| {
        let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
            .with_divergence_guard(1, 1e-6)
            .with_exec_fault(ExecFault::Divergence { at_commit: 2, delta_ps: 1e-3 });
        let opt = GreedyUpgradeRepair::default().with_parallelism(if par {
            Parallelism::new(4)
        } else {
            Parallelism::serial()
        });
        opt.assign_supervised(&ctx)
    };
    let serial = faulty_ctx(false);
    let parallel = faulty_ctx(true);
    for (label, run) in [("serial", &serial), ("parallel", &parallel)] {
        let rungs: Vec<&str> = run.degradations.iter().map(DegradationEvent::rung).collect();
        assert!(
            rungs.contains(&"incremental_to_full"),
            "{label}: corrupted incremental state must trip the guard, got {rungs:?}"
        );
    }
    // The guard's full-reanalysis fallback is the same on both paths.
    assert_eq!(serial.assignment, parallel.assignment, "guard fallback must not depend on jobs");
}

#[test]
fn upgrade_repair_recovers_from_probe_panic_too() {
    let (tree, tech) = fixture(64, 5);
    let ctx_clean = OptContext::new(&tree, &tech, PowerModel::new(1.0));
    let reference = GreedyUpgradeRepair::default().assign(&ctx_clean);
    std::panic::set_hook(Box::new(|_| {}));
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0))
        .with_exec_fault(ExecFault::ProbePanic { at_probe: 1 });
    let run = GreedyUpgradeRepair::default()
        .with_parallelism(Parallelism::new(2))
        .assign_supervised(&ctx);
    let _ = std::panic::take_hook();
    let rungs: Vec<&str> = run.degradations.iter().map(DegradationEvent::rung).collect();
    assert!(rungs.contains(&"parallel_to_serial"), "got {rungs:?}");
    assert_eq!(run.assignment, reference);
}

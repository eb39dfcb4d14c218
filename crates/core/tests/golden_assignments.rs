//! Golden assignment digests: the final per-edge rule ids each greedy
//! optimizer produces on fixed designs, pinned as 64-bit FNV-1a digests.
//!
//! The determinism tests compare serial with parallel runs of the same
//! build, so a refactor that moves both paths the same way passes them.
//! These digests pin the absolute result instead: any change to the
//! decisions the optimizers make shows up here, at every job count.

use snr_core::{
    Constraints, GreedyDowngrade, GreedyUpgradeRepair, NdrOptimizer, OptContext, Parallelism,
    SmartNdr,
};
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions};
use snr_netlist::BenchmarkSpec;
use snr_power::PowerModel;
use snr_tech::Technology;

/// 64-bit FNV-1a over the rule id of every edge, in tree edge order.
fn digest(tree: &ClockTree, asg: &Assignment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in tree.edges() {
        for b in (asg.rule(e).0 as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn tree(sinks: usize, seed: u64) -> (ClockTree, Technology) {
    let design = BenchmarkSpec::new("par", sinks).seed(seed).build().expect("valid spec");
    let tech = Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
    (tree, tech)
}

/// One pinned case: a generated design, optional tight constraints
/// (slew margin, skew budget ps), and the digest each optimizer must
/// reproduce on it.
struct Case {
    name: &'static str,
    sinks: usize,
    seed: u64,
    tight: Option<(f64, f64)>,
    greedy: u64,
    upgrade: u64,
    smart: u64,
}

/// The three `parallel_determinism` designs at default constraints, plus
/// its tight-constraint case on the 180-sink design, plus a 1,600-sink
/// design at default and tight constraints (large enough that its stage
/// tree is deep and a probe's dirty subtree is a small part of it).
const CASES: [Case; 6] = [
    Case {
        name: "120s8",
        sinks: 120,
        seed: 8,
        tight: None,
        greedy: 0xa6ed_cd7f_f8dd_32c5,
        upgrade: 0xc6ac_a0d1_407b_34e5,
        smart: 0xa6ed_cd7f_f8dd_32c5,
    },
    Case {
        name: "180s21",
        sinks: 180,
        seed: 21,
        tight: None,
        greedy: 0xded2_167a_9619_eb24,
        upgrade: 0xb8b7_9545_1825_9467,
        smart: 0xded2_167a_9619_eb24,
    },
    Case {
        name: "250s33",
        sinks: 250,
        seed: 33,
        tight: None,
        greedy: 0x83d3_3051_e862_7945,
        upgrade: 0xe368_e449_f331_ec24,
        smart: 0x83d3_3051_e862_7945,
    },
    Case {
        name: "180s21-tight",
        sinks: 180,
        seed: 21,
        tight: Some((1.03, 8.0)),
        greedy: 0x3066_1138_6180_7665,
        upgrade: 0xbd07_3f17_4d0b_57e6,
        smart: 0x3066_1138_6180_7665,
    },
    Case {
        name: "1600s16",
        sinks: 1600,
        seed: 16,
        tight: None,
        greedy: 0x110e_2fa2_7cd2_8327,
        upgrade: 0x99ab_0eb5_f625_7245,
        smart: 0x110e_2fa2_7cd2_8327,
    },
    Case {
        name: "1600s16-tight",
        sinks: 1600,
        seed: 16,
        tight: Some((1.03, 8.0)),
        greedy: 0xfe72_0e0c_9a66_19c6,
        upgrade: 0xff93_c0c9_4f37_c704,
        smart: 0xfe72_0e0c_9a66_19c6,
    },
];

#[test]
fn greedy_optimizers_reproduce_pinned_digests() {
    let mut mismatches = Vec::new();
    for case in &CASES {
        let (tree, tech) = tree(case.sinks, case.seed);
        let mut ctx = OptContext::new(&tree, &tech, PowerModel::new(1.0));
        if let Some((margin, budget)) = case.tight {
            ctx = ctx.with_constraints(Constraints::relative(&tree, &tech, margin, budget));
        }
        let mut check = |method: &str, jobs: usize, asg: Assignment, want: u64| {
            let got = digest(&tree, &asg);
            if got != want {
                let name = case.name;
                mismatches.push(format!("{name} {method} jobs={jobs}: {got:#x} != {want:#x}"));
            }
        };
        check("greedy", 1, GreedyDowngrade::default().assign(&ctx), case.greedy);
        for jobs in [1, 2] {
            let par = Parallelism::new(jobs);
            let up = GreedyUpgradeRepair::default().with_parallelism(par).assign(&ctx);
            check("upgrade", jobs, up, case.upgrade);
            let smart = SmartNdr::default().with_parallelism(par).assign(&ctx);
            check("smart", jobs, smart, case.smart);
        }
    }
    assert!(mismatches.is_empty(), "digest drift:\n{}", mismatches.join("\n"));
}

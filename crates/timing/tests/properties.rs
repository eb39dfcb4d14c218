//! Property-based tests of the RC-tree analyzer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snr_cts::{synthesize, Assignment, ClockTree, CtsOptions, NodeId, NodeKind};
use snr_netlist::BenchmarkSpec;
use snr_tech::{Corner, RuleId, Technology};
use snr_timing::{analyze, Analyzer, IncrementalAnalyzer, TimingSummary};

fn arb_tree() -> impl Strategy<Value = ClockTree> {
    (2usize..80, 0u64..300).prop_map(|(n, seed)| {
        let design = BenchmarkSpec::new(format!("p{n}"), n)
            .seed(seed)
            .build()
            .expect("spec is valid");
        synthesize(&design, &Technology::n45(), &CtsOptions::default())
            .expect("suite-scale designs synthesize")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scaling any single edge's parasitics up never speeds anything:
    /// every arrival and every slew is monotone in every edge R and C.
    #[test]
    fn single_edge_monotonicity(tree in arb_tree(), pick in 0usize..1_000, scale in 1.0f64..3.0) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let nominal = analyze(&tree, &tech, &asg);

        let edges: Vec<_> = tree.edges().collect();
        prop_assume!(!edges.is_empty());
        let e = edges[pick % edges.len()];
        let mut r = vec![1.0; tree.len()];
        let mut c = vec![1.0; tree.len()];
        r[e.0] = scale;
        c[e.0] = scale;
        let perturbed = Analyzer::new().run_scaled(&tree, &tech, &asg, Some((&r, &c)));

        for node in tree.nodes() {
            let id = node.id();
            prop_assert!(
                perturbed.arrival_ps(id) >= nominal.arrival_ps(id) - 1e-9,
                "arrival at {id} got faster"
            );
            prop_assert!(
                perturbed.slew_ps(id) >= nominal.slew_ps(id) - 1e-9,
                "slew at {id} got faster"
            );
        }
        prop_assert!(perturbed.latency_ps() >= nominal.latency_ps() - 1e-9);
    }

    /// Within a stage, slew degrades monotonically away from the driver.
    #[test]
    fn slew_monotone_within_stages(tree in arb_tree()) {
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let rep = analyze(&tree, &tech, &asg);
        for node in tree.nodes() {
            let Some(p) = node.parent() else { continue };
            let parent = tree.node(p);
            let parent_is_source = parent.kind().is_buffer() || parent.parent().is_none();
            if parent_is_source {
                continue; // fresh stage: driver slew replaces the input slew
            }
            prop_assert!(
                rep.slew_ps(node.id()) >= rep.slew_ps(p) - 1e-9,
                "slew improved along wire at {}",
                node.id()
            );
        }
    }

    /// The analyzer is a pure function: reuse across arbitrary assignment
    /// sequences never contaminates results.
    #[test]
    fn analyzer_purity(tree in arb_tree(), seq in proptest::collection::vec(0usize..4, 1..6)) {
        let tech = Technology::n45();
        let rules = tech.rules();
        let mut shared = Analyzer::new();
        for &r in &seq {
            let asg = Assignment::uniform(&tree, snr_tech::RuleId(r % rules.len()));
            let a = shared.run(&tree, &tech, &asg);
            let b = analyze(&tree, &tech, &asg);
            prop_assert_eq!(a, b);
        }
    }

    /// Stage loads are conserved: the sum of every stage driver's load
    /// equals the tree's total capacitance (wire + pins) exactly.
    #[test]
    fn stage_loads_conserve_capacitance(tree in arb_tree()) {
        let tech = Technology::n45();
        let rules = tech.rules();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let rep = analyze(&tree, &tech, &asg);
        let cells = tech.buffers().cells();
        let layer = tech.clock_layer();
        let rule = rules.rule(rules.most_conservative_id());

        // Sum of loads over stage sources (root + buffers).
        let mut driven = 0.0;
        for node in tree.nodes() {
            let is_source = node.kind().is_buffer() || node.parent().is_none();
            if is_source {
                driven += rep.stage_load_ff(node.id());
            }
        }
        // Independent accounting: all wire (delay view) + all sink pins +
        // all non-root buffer input pins.
        let mut expect = 0.0;
        for node in tree.nodes() {
            expect += layer.unit_c_delay(rule) * node.edge_len_nm() as f64 / 1_000.0;
            match node.kind() {
                NodeKind::Sink { cap_ff, .. } => expect += cap_ff,
                NodeKind::Buffer { cell } if node.parent().is_some() => {
                    expect += cells[cell].input_cap_ff();
                }
                _ => {}
            }
        }
        prop_assert!(
            (driven - expect).abs() < 1e-6 * (1.0 + expect),
            "driven {driven} vs expected {expect}"
        );
    }
}

fn summary_bits(s: TimingSummary) -> [u64; 3] {
    [
        s.latency_ps.to_bits(),
        s.min_arrival_ps.to_bits(),
        s.max_slew_ps.to_bits(),
    ]
}

/// Asserts that `inc`'s committed view (or, with `candidate`, its pending
/// view) equals the freshly built `fresh` bit for bit: summary, arrivals,
/// slews and stage loads of every node.
fn assert_bitwise(
    tree: &ClockTree,
    inc: &IncrementalAnalyzer,
    fresh: &IncrementalAnalyzer,
    candidate: bool,
    what: &str,
) {
    let got = if candidate {
        inc.candidate_summary()
    } else {
        inc.summary()
    };
    assert_eq!(
        summary_bits(got),
        summary_bits(fresh.summary()),
        "{what}: summary"
    );
    for v in 0..tree.len() {
        let id = NodeId(v);
        let arrival = if candidate {
            inc.candidate_arrival_ps(id)
        } else {
            inc.arrival_ps(id)
        };
        assert_eq!(
            arrival.to_bits(),
            fresh.arrival_ps(id).to_bits(),
            "{what}: arrival at {v}"
        );
        if !candidate {
            assert_eq!(
                inc.slew_ps(id).to_bits(),
                fresh.slew_ps(id).to_bits(),
                "{what}: slew at {v}"
            );
            assert_eq!(
                inc.stage_load_ff(id).to_bits(),
                fresh.stage_load_ff(id).to_bits(),
                "{what}: load at {v}"
            );
        }
    }
}

/// Random `try_moves` (1–3 edges) / `commit` / `rollback` sequences leave
/// the incremental engine bit-identical to a fresh engine built on the
/// same assignment, at nominal and slow-corner scales. Catches stale
/// per-stage or summary state that a tolerance-based comparison would miss.
#[test]
fn incremental_engine_bitwise_equals_fresh_build() {
    let tech = Technology::n45();
    let n_rules = tech.rules().len();
    let slow = Corner::slow();
    for (sinks, seed) in [(64usize, 3u64), (300, 5), (800, 9)] {
        let design = BenchmarkSpec::new("bits", sinks)
            .seed(seed)
            .build()
            .expect("valid spec");
        let tree = synthesize(&design, &tech, &CtsOptions::default()).expect("synthesizable");
        let edges: Vec<NodeId> = tree.edges().collect();
        for (r_scale, c_scale) in [(1.0, 1.0), (slow.r_scale(), slow.c_scale())] {
            let build = |asg: &Assignment| {
                IncrementalAnalyzer::with_scales(&tree, &tech, asg, r_scale, c_scale)
            };
            let mut asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
            let mut inc = build(&asg);
            let mut rng = StdRng::seed_from_u64(seed ^ sinks as u64);
            for step in 0..40 {
                let k = rng.gen_range(1..4usize);
                let moves: Vec<(NodeId, RuleId)> = (0..k)
                    .map(|_| {
                        let e = edges[rng.gen_range(0..edges.len())];
                        (e, RuleId(rng.gen_range(0..n_rules)))
                    })
                    .collect();
                let mut trial = asg.clone();
                for &(e, r) in &moves {
                    trial.set(e, r);
                }
                let what = format!("{sinks} sinks, scale {r_scale}, step {step}");
                inc.try_moves(&tree, &tech, &moves);
                assert_bitwise(&tree, &inc, &build(&trial), true, &format!("{what} try"));
                let committed = build(&asg);
                assert_bitwise(&tree, &inc, &committed, false, &format!("{what} try"));
                if rng.gen_range(0..2usize) == 0 {
                    inc.commit();
                    asg = trial;
                    assert_bitwise(&tree, &inc, &build(&asg), false, &format!("{what} commit"));
                } else {
                    inc.rollback();
                    assert_bitwise(&tree, &inc, &committed, false, &format!("{what} rollback"));
                }
                // No candidate pending: the candidate view is the committed one.
                assert_eq!(
                    inc.candidate_arrival_ps(edges[0]).to_bits(),
                    inc.arrival_ps(edges[0]).to_bits()
                );
            }
        }
    }
}

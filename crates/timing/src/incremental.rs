//! Incremental (stage-dirty) Elmore timing.
//!
//! Buffers partition the RC tree into *stages*: each buffer's input pin
//! hides its whole subtree from the parent stage, so an edge's parasitics
//! influence only (a) the interior of the stage that contains the edge —
//! loads, wire delays, slews — and (b) the *arrival offsets* of everything
//! downstream of that stage's source. [`IncrementalAnalyzer`] exploits
//! this: it caches per-stage results, marks the stage containing a changed
//! edge dirty, re-solves only dirty stages, and re-times only the stages
//! downstream of them. Stages are numbered in DFS preorder of the stage
//! tree, so each stage's subtree is one contiguous index range; committed
//! per-stage aggregates (latency, min arrival, worst slew) sit in a
//! segment tree over that order, and the summary of everything outside the
//! re-timed ranges is a few `O(log S)` range queries. A candidate
//! evaluation therefore costs `O(dirty subtree + log S)` for `S` stages
//! instead of `O(nodes)`. Min and max are exact, so the summary is
//! bit-identical to a full fold over every stage.
//!
//! The evaluation protocol is transactional:
//!
//! * [`IncrementalAnalyzer::try_edge`] / [`IncrementalAnalyzer::try_moves`]
//!   evaluate a candidate rule change without disturbing committed state;
//! * [`IncrementalAnalyzer::commit`] folds the candidate in;
//! * [`IncrementalAnalyzer::rollback`] discards it (O(1) — an epoch bump).
//!
//! Within dirty stages the arithmetic mirrors [`Analyzer`] operation for
//! operation, so loads and slews agree *bitwise* with a full re-analysis;
//! arrivals are assembled as `stage-source arrival + within-stage offset`
//! instead of one running sum, which reorders the floating-point additions
//! and bounds the disagreement at well under 1e-9 ps on realistic trees.
//!
//! [`Analyzer`]: crate::Analyzer
//!
//! # Examples
//!
//! ```
//! use snr_netlist::BenchmarkSpec;
//! use snr_tech::Technology;
//! use snr_cts::{synthesize, Assignment, CtsOptions};
//! use snr_timing::IncrementalAnalyzer;
//!
//! let design = BenchmarkSpec::new("demo", 64).seed(1).build()?;
//! let tech = Technology::n45();
//! let tree = synthesize(&design, &tech, &CtsOptions::default())?;
//! let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
//! let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
//!
//! let edge = tree.edges().next().unwrap();
//! let cand = inc.try_edge(&tree, &tech, edge, tech.rules().default_id());
//! if cand.skew_ps() <= inc.summary().skew_ps() + 5.0 {
//!     inc.commit();
//! } else {
//!     inc.rollback();
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::TimingReport;
use snr_cts::{Assignment, ClockTree, NodeId, NodeKind};
use snr_tech::{RuleId, Technology};

const LN9: f64 = 2.197_224_577_336_219_6;
const NO_STAGE: u32 = u32::MAX;

/// One stage's (or a stage range's) contribution to a [`TimingSummary`]:
/// latest and earliest absolute sink arrival (±∞ without sinks) and worst
/// member slew. Merging is exact, so any fold order gives the same bits.
#[derive(Debug, Clone, Copy)]
struct StageAgg {
    latency_ps: f64,
    min_arrival_ps: f64,
    max_slew_ps: f64,
}

impl StageAgg {
    const EMPTY: StageAgg = StageAgg {
        latency_ps: f64::NEG_INFINITY,
        min_arrival_ps: f64::INFINITY,
        max_slew_ps: 0.0,
    };

    /// The aggregate of a stage whose source output arrives at `out`.
    fn of_stage(out: f64, sink_min_rel: f64, sink_max_rel: f64, max_slew_ps: f64) -> Self {
        if sink_min_rel.is_finite() {
            StageAgg {
                latency_ps: out + sink_max_rel,
                min_arrival_ps: out + sink_min_rel,
                max_slew_ps,
            }
        } else {
            StageAgg {
                max_slew_ps,
                ..StageAgg::EMPTY
            }
        }
    }

    fn merge(self, o: StageAgg) -> StageAgg {
        StageAgg {
            latency_ps: self.latency_ps.max(o.latency_ps),
            min_arrival_ps: self.min_arrival_ps.min(o.min_arrival_ps),
            max_slew_ps: self.max_slew_ps.max(o.max_slew_ps),
        }
    }
}

/// Aggregate timing figures of one (committed or candidate) assignment.
///
/// The cheap-to-return subset of a [`TimingReport`]: exactly what a
/// feasibility check needs. Per-node quantities are queried on the
/// analyzer itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Maximum root-to-sink insertion delay, ps.
    pub latency_ps: f64,
    /// Minimum sink arrival, ps.
    pub min_arrival_ps: f64,
    /// Worst slew over all sinks and buffer inputs, ps.
    pub max_slew_ps: f64,
}

impl TimingSummary {
    /// Global skew: max − min sink arrival, ps.
    pub fn skew_ps(&self) -> f64 {
        self.latency_ps - self.min_arrival_ps
    }
}

/// Incremental Elmore analyzer with `try`/`commit`/`rollback` semantics.
///
/// `Clone` copies the full committed state bit for bit, which is what lets
/// parallel optimizers probe candidates on per-thread engine clones and
/// still reproduce the serial run exactly.
///
/// See the [module documentation](self) for the model and an example.
#[derive(Debug, Clone)]
pub struct IncrementalAnalyzer {
    n: usize,
    r_scale: f64,
    c_scale: f64,

    // --- stage structure (fixed per tree) ---
    /// Stage sources in DFS preorder of the stage tree (root first).
    stages: Vec<NodeId>,
    /// Per stage: end (exclusive) of its subtree range `si..sub_end[si]`.
    sub_end: Vec<u32>,
    /// Per node: index of the stage owning its edge/wire/slew values
    /// (for the root: its own stage; the values are unused).
    owner: Vec<u32>,
    /// Per node: index of the stage it *heads*, or `NO_STAGE`.
    headed: Vec<u32>,
    /// Per stage: range into `member_nodes`.
    member_range: Vec<(u32, u32)>,
    /// Stage members (every node but the root, ascending id per stage).
    member_nodes: Vec<NodeId>,

    // --- committed state ---
    rules: Vec<RuleId>,
    edge_r: Vec<f64>,
    edge_c: Vec<f64>,
    load: Vec<f64>,
    wire_m1: Vec<f64>,
    /// Wire arrival relative to the owning stage source's output.
    rel_in: Vec<f64>,
    slew: Vec<f64>,
    /// Per stage: absolute source output arrival.
    out: Vec<f64>,
    /// Per stage: source output slew seen by the stage interior.
    src_slew: Vec<f64>,
    /// Per stage: worst member slew (sinks and buffer inputs).
    max_slew: Vec<f64>,
    /// Per stage: min/max member-sink `rel_in` (±∞ when the stage has no
    /// sinks).
    sink_min_rel: Vec<f64>,
    sink_max_rel: Vec<f64>,
    /// Bottom-up segment tree of committed [`StageAgg`]s: stage `si` is
    /// leaf `leaves + si`, node `i` merges `2i` and `2i + 1`.
    seg: Vec<StageAgg>,
    /// Leaf count of `seg`: the stage count rounded up to a power of two.
    leaves: usize,
    summary: TimingSummary,
    /// Stages re-timed by the arrival pass since construction.
    stages_visited: u64,

    // --- pending (candidate) state, valid iff stamped with `epoch` ---
    epoch: u64,
    has_pending: bool,
    p_rule_ep: Vec<u64>,
    p_rule: Vec<RuleId>,
    /// Stamps edge_r/edge_c/wire_m1/rel_in/slew recomputation.
    p_wire_ep: Vec<u64>,
    p_load_ep: Vec<u64>,
    p_edge_r: Vec<f64>,
    p_edge_c: Vec<f64>,
    p_load: Vec<f64>,
    p_wire_m1: Vec<f64>,
    p_rel_in: Vec<f64>,
    p_slew: Vec<f64>,
    /// Stamps per-stage aggregate recomputation (doubles as the dirty mark).
    p_stage_ep: Vec<u64>,
    /// Stamps `p_out` (the stage lies in a re-timed range).
    p_out_ep: Vec<u64>,
    p_out: Vec<f64>,
    p_src_slew: Vec<f64>,
    p_max_slew: Vec<f64>,
    p_sink_min_rel: Vec<f64>,
    p_sink_max_rel: Vec<f64>,
    p_summary: TimingSummary,
    dirty: Vec<u32>,
    /// Disjoint, ascending subtree ranges re-timed by the last probe.
    ranges: Vec<(u32, u32)>,
    changed: Vec<NodeId>,
}

impl IncrementalAnalyzer {
    /// Builds the analyzer over `tree` with `assignment` as the committed
    /// state, at nominal parasitics.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's length does not match the tree, or if it
    /// references rules outside the technology's rule set.
    pub fn new(tree: &ClockTree, tech: &Technology, assignment: &Assignment) -> Self {
        Self::with_scales(tree, tech, assignment, 1.0, 1.0)
    }

    /// Like [`IncrementalAnalyzer::new`] but with global R/C scale factors —
    /// the process-corner model ([`analyze_at_corner`]'s scaling applied
    /// incrementally).
    ///
    /// [`analyze_at_corner`]: crate::analyze_at_corner
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IncrementalAnalyzer::new`].
    pub fn with_scales(
        tree: &ClockTree,
        tech: &Technology,
        assignment: &Assignment,
        r_scale: f64,
        c_scale: f64,
    ) -> Self {
        assert_eq!(
            assignment.len(),
            tree.len(),
            "assignment built for a different tree"
        );
        let n = tree.len();
        let root = tree.root();
        let arena = tree.arena();
        let parents = arena.parents();

        // Stage sources in topological (= id) order.
        let mut sources = Vec::new();
        let mut headed = vec![NO_STAGE; n];
        for v in 0..n {
            if parents[v] == snr_cts::NO_PARENT || arena.is_buffer(v) {
                headed[v] = sources.len() as u32;
                sources.push(v);
            }
        }
        debug_assert_eq!(NodeId(sources[0]), root, "root must head the first stage");
        let s_count = sources.len();

        // Owning stage of each node's wire values: the nearest strict
        // ancestor that is a source.
        let mut owner = vec![0u32; n];
        for v in 0..n {
            let p = parents[v];
            if p == snr_cts::NO_PARENT {
                owner[v] = headed[v];
                continue;
            }
            let p = p as usize;
            owner[v] = if headed[p] != NO_STAGE { headed[p] } else { owner[p] };
        }

        // Relabel stages in DFS preorder of the stage tree (children in
        // ascending id), so each stage's subtree is a contiguous range. A
        // stage's parent stage owns its source and has a smaller topo index.
        let mut size = vec![1u32; s_count];
        for k in (1..s_count).rev() {
            size[owner[sources[k]] as usize] += size[k];
        }
        let mut pre = vec![0u32; s_count];
        // Next free preorder slot under each stage.
        let mut next = vec![1u32; s_count];
        for k in 1..s_count {
            let p = owner[sources[k]] as usize;
            pre[k] = next[p];
            next[p] += size[k];
            next[k] = pre[k] + 1;
        }
        let mut stages = vec![NodeId(0); s_count];
        let mut sub_end = vec![0u32; s_count];
        for k in 0..s_count {
            stages[pre[k] as usize] = NodeId(sources[k]);
            sub_end[pre[k] as usize] = pre[k] + size[k];
        }
        for v in 0..n {
            owner[v] = pre[owner[v] as usize];
            if headed[v] != NO_STAGE {
                headed[v] = pre[headed[v] as usize];
            }
        }

        // Members grouped by owner, ascending id (counting sort keeps the
        // topological order within each stage).
        let mut counts = vec![0u32; s_count];
        for v in 0..n {
            if parents[v] != snr_cts::NO_PARENT {
                counts[owner[v] as usize] += 1;
            }
        }
        let mut member_range = Vec::with_capacity(s_count);
        let mut start = 0u32;
        for &c in &counts {
            member_range.push((start, start + c));
            start += c;
        }
        let mut member_nodes = vec![NodeId(0); start as usize];
        let mut cursor: Vec<u32> = member_range.iter().map(|&(lo, _)| lo).collect();
        for v in 0..n {
            if parents[v] != snr_cts::NO_PARENT {
                let si = owner[v] as usize;
                member_nodes[cursor[si] as usize] = NodeId(v);
                cursor[si] += 1;
            }
        }

        let zero_summary = TimingSummary {
            latency_ps: 0.0,
            min_arrival_ps: 0.0,
            max_slew_ps: 0.0,
        };
        let leaves = s_count.next_power_of_two();
        let mut inc = IncrementalAnalyzer {
            n,
            r_scale,
            c_scale,
            stages,
            sub_end,
            owner,
            headed,
            member_range,
            member_nodes,
            rules: (0..n).map(|v| assignment.rule(NodeId(v))).collect(),
            edge_r: vec![0.0; n],
            edge_c: vec![0.0; n],
            load: vec![0.0; n],
            wire_m1: vec![0.0; n],
            rel_in: vec![0.0; n],
            slew: vec![0.0; n],
            out: vec![0.0; s_count],
            src_slew: vec![0.0; s_count],
            max_slew: vec![0.0; s_count],
            sink_min_rel: vec![f64::INFINITY; s_count],
            sink_max_rel: vec![f64::NEG_INFINITY; s_count],
            seg: vec![StageAgg::EMPTY; 2 * leaves],
            leaves,
            summary: zero_summary,
            stages_visited: 0,
            epoch: 1,
            has_pending: false,
            p_rule_ep: vec![0; n],
            p_rule: vec![RuleId(0); n],
            p_wire_ep: vec![0; n],
            p_load_ep: vec![0; n],
            p_edge_r: vec![0.0; n],
            p_edge_c: vec![0.0; n],
            p_load: vec![0.0; n],
            p_wire_m1: vec![0.0; n],
            p_rel_in: vec![0.0; n],
            p_slew: vec![0.0; n],
            p_stage_ep: vec![0; s_count],
            p_out_ep: vec![0; s_count],
            p_out: vec![0.0; s_count],
            p_src_slew: vec![0.0; s_count],
            p_max_slew: vec![0.0; s_count],
            p_sink_min_rel: vec![f64::INFINITY; s_count],
            p_sink_max_rel: vec![f64::NEG_INFINITY; s_count],
            p_summary: zero_summary,
            dirty: Vec::new(),
            ranges: Vec::new(),
            changed: Vec::new(),
        };

        // First solve: every stage is dirty.
        inc.epoch += 1;
        inc.has_pending = true;
        for si in 0..s_count {
            inc.p_stage_ep[si] = inc.epoch;
            inc.dirty.push(si as u32);
        }
        for si in 0..s_count {
            inc.recompute_stage(tree, tech, si);
        }
        inc.arrival_pass(tree, tech);
        inc.commit();
        inc
    }

    /// Number of buffer stages (including the root stage).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Stages whose source arrival the arrival pass has re-timed since
    /// construction (the initial solve counts every stage once). A probe
    /// adds the size of its dirty stages' subtrees, not the stage count.
    /// A deterministic work counter: it never feeds a result.
    pub fn stages_visited(&self) -> u64 {
        self.stages_visited
    }

    /// The committed rule on `edge`.
    pub fn rule(&self, edge: NodeId) -> RuleId {
        self.rules[edge.0]
    }

    /// Aggregates of the committed assignment.
    pub fn summary(&self) -> TimingSummary {
        self.summary
    }

    /// Test-only corruption hook: shifts the committed per-stage sink
    /// windows and worst slews by `delta_ps`, as an engine-state bug would.
    /// The drift survives subsequent `try_moves`/`commit` cycles because
    /// the segment tree is rebuilt from these committed arrays and probes
    /// fold it — exactly the failure mode the divergence guard exists to
    /// catch.
    #[doc(hidden)]
    pub fn debug_perturb(&mut self, delta_ps: f64) {
        for si in 0..self.stages.len() {
            self.max_slew[si] += delta_ps;
            if self.sink_max_rel[si].is_finite() {
                self.sink_max_rel[si] += delta_ps;
            }
            self.seg[self.leaves + si] = self.committed_agg(si);
        }
        for i in (1..self.leaves).rev() {
            self.seg[i] = self.seg[2 * i].merge(self.seg[2 * i + 1]);
        }
        self.summary.latency_ps += delta_ps;
        self.summary.max_slew_ps += delta_ps;
    }

    /// Aggregates of the pending candidate.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is pending.
    pub fn candidate_summary(&self) -> TimingSummary {
        assert!(self.has_pending, "no pending candidate");
        self.p_summary
    }

    /// Committed arrival at `node` (buffer nodes: at the buffer output).
    pub fn arrival_ps(&self, node: NodeId) -> f64 {
        if self.headed[node.0] != NO_STAGE {
            self.out[self.headed[node.0] as usize]
        } else {
            self.out[self.owner[node.0] as usize] + self.rel_in[node.0]
        }
    }

    /// Committed stage-local downstream load at `node`, fF.
    pub fn stage_load_ff(&self, node: NodeId) -> f64 {
        self.load[node.0]
    }

    /// Committed slew at `node`, ps.
    pub fn slew_ps(&self, node: NodeId) -> f64 {
        self.slew[node.0]
    }

    /// Committed sinks and buffer inputs whose slew exceeds `limit_ps`.
    /// Only stages whose committed worst slew exceeds the limit are
    /// scanned; nodes come stage by stage, ascending id within a stage.
    pub fn slew_violations<'s>(
        &'s self,
        tree: &'s ClockTree,
        limit_ps: f64,
    ) -> impl Iterator<Item = NodeId> + 's {
        (0..self.stages.len())
            .filter(move |&si| self.max_slew[si] > limit_ps)
            .flat_map(move |si| {
                let (lo, hi) = self.member_range[si];
                self.member_nodes[lo as usize..hi as usize].iter().copied()
            })
            .filter(move |&v| {
                let kind = tree.node(v).kind();
                (kind.is_sink() || kind.is_buffer()) && self.slew[v.0] > limit_ps
            })
    }

    /// Arrival at `node` under the pending candidate (falls back to the
    /// committed value when no candidate is pending).
    pub fn candidate_arrival_ps(&self, node: NodeId) -> f64 {
        if !self.has_pending {
            return self.arrival_ps(node);
        }
        if self.headed[node.0] != NO_STAGE {
            self.candidate_out(self.headed[node.0] as usize)
        } else {
            let rel = if self.p_wire_ep[node.0] == self.epoch {
                self.p_rel_in[node.0]
            } else {
                self.rel_in[node.0]
            };
            self.candidate_out(self.owner[node.0] as usize) + rel
        }
    }

    /// Candidate source output arrival of stage `si`: re-timed when the
    /// stage lies in a dirty subtree, committed otherwise.
    fn candidate_out(&self, si: usize) -> f64 {
        if self.p_out_ep[si] == self.epoch {
            self.p_out[si]
        } else {
            self.out[si]
        }
    }

    /// Stage-local load at `node` under the pending candidate (committed
    /// value when no candidate is pending).
    pub fn candidate_stage_load_ff(&self, node: NodeId) -> f64 {
        if self.has_pending && self.p_load_ep[node.0] == self.epoch {
            self.p_load[node.0]
        } else {
            self.load[node.0]
        }
    }

    /// Rule on `edge` under the pending candidate (committed value when no
    /// candidate is pending).
    pub fn candidate_rule(&self, edge: NodeId) -> RuleId {
        if self.has_pending && self.p_rule_ep[edge.0] == self.epoch {
            self.p_rule[edge.0]
        } else {
            self.rules[edge.0]
        }
    }

    /// Evaluates changing `edge` to `rule` without committing.
    ///
    /// Any previously pending candidate is discarded first.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not an edge of `tree` (the root has no edge), if
    /// the rule is outside the technology's rule set, or if `tree`/`tech`
    /// differ from the ones the analyzer was built with.
    pub fn try_edge(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        edge: NodeId,
        rule: RuleId,
    ) -> TimingSummary {
        self.try_moves(tree, tech, &[(edge, rule)])
    }

    /// Evaluates a set of simultaneous rule changes without committing.
    ///
    /// Duplicate edges are allowed; the last rule wins. Any previously
    /// pending candidate is discarded first.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IncrementalAnalyzer::try_edge`].
    pub fn try_moves(
        &mut self,
        tree: &ClockTree,
        tech: &Technology,
        moves: &[(NodeId, RuleId)],
    ) -> TimingSummary {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        if self.has_pending {
            self.rollback();
        }
        self.epoch += 1;
        self.has_pending = true;
        for &(e, r) in moves {
            assert!(
                tree.node(e).parent().is_some(),
                "node {} has no edge",
                e.0
            );
            if self.p_rule_ep[e.0] != self.epoch {
                self.changed.push(e);
            }
            self.p_rule[e.0] = r;
            self.p_rule_ep[e.0] = self.epoch;
            let si = self.owner[e.0];
            if self.p_stage_ep[si as usize] != self.epoch {
                self.p_stage_ep[si as usize] = self.epoch;
                self.dirty.push(si);
            }
        }
        for i in 0..self.dirty.len() {
            let si = self.dirty[i] as usize;
            self.recompute_stage(tree, tech, si);
        }
        self.arrival_pass(tree, tech);
        self.p_summary
    }

    /// Folds the pending candidate into the committed state.
    ///
    /// # Panics
    ///
    /// Panics if no candidate is pending.
    pub fn commit(&mut self) {
        assert!(self.has_pending, "no pending candidate to commit");
        for i in 0..self.changed.len() {
            let e = self.changed[i];
            self.rules[e.0] = self.p_rule[e.0];
        }
        for i in 0..self.dirty.len() {
            let si = self.dirty[i] as usize;
            let s = self.stages[si];
            self.load[s.0] = self.p_load[s.0];
            self.src_slew[si] = self.p_src_slew[si];
            self.max_slew[si] = self.p_max_slew[si];
            self.sink_min_rel[si] = self.p_sink_min_rel[si];
            self.sink_max_rel[si] = self.p_sink_max_rel[si];
            if si == 0 {
                // The analyzer reports the root's slew as its source slew.
                self.slew[s.0] = self.p_src_slew[0];
            }
            let (lo, hi) = self.member_range[si];
            for m in lo..hi {
                let v = self.member_nodes[m as usize].0;
                self.edge_r[v] = self.p_edge_r[v];
                self.edge_c[v] = self.p_edge_c[v];
                self.wire_m1[v] = self.p_wire_m1[v];
                self.rel_in[v] = self.p_rel_in[v];
                self.slew[v] = self.p_slew[v];
                // Buffer members' loads belong to the stage they head and
                // are copied there (above) only when that stage is dirty.
                if self.p_load_ep[v] == self.epoch {
                    self.load[v] = self.p_load[v];
                }
            }
        }
        for ri in 0..self.ranges.len() {
            let (lo, hi) = (self.ranges[ri].0 as usize, self.ranges[ri].1 as usize);
            self.out[lo..hi].copy_from_slice(&self.p_out[lo..hi]);
            for si in lo..hi {
                self.seg[self.leaves + si] = self.committed_agg(si);
            }
            // Refresh the leaves' ancestors level by level (the leaf count
            // is a power of two, so each level's parents are contiguous).
            let (mut l, mut r) = (self.leaves + lo, self.leaves + hi - 1);
            while l > 1 {
                l >>= 1;
                r >>= 1;
                for i in l..=r {
                    self.seg[i] = self.seg[2 * i].merge(self.seg[2 * i + 1]);
                }
            }
        }
        self.summary = self.p_summary;
        self.rollback();
    }

    /// Discards the pending candidate. A no-op when none is pending.
    pub fn rollback(&mut self) {
        self.epoch += 1;
        self.has_pending = false;
        self.dirty.clear();
        self.ranges.clear();
        self.changed.clear();
    }

    /// A full [`TimingReport`] of the committed state, equivalent to
    /// running the full analyzer on the committed assignment (arrivals may
    /// differ by floating-point reassociation, ≪ 1e-9 ps).
    pub fn report(&self, tree: &ClockTree) -> TimingReport {
        assert_eq!(tree.len(), self.n, "analyzer built for a different tree");
        let arrival: Vec<f64> = (0..self.n).map(|v| self.arrival_ps(NodeId(v))).collect();
        TimingReport {
            arrival_ps: arrival,
            slew_ps: self.slew.clone(),
            stage_load_ff: self.load.clone(),
            sink_nodes: tree.sink_nodes(),
            latency_ps: self.summary.latency_ps,
            min_arrival_ps: self.summary.min_arrival_ps,
            max_slew_ps: self.summary.max_slew_ps,
        }
    }

    /// Re-solves the interior of stage `si` into the pending arrays,
    /// mirroring the full analyzer's two passes over just this stage.
    fn recompute_stage(&mut self, tree: &ClockTree, tech: &Technology, si: usize) {
        let ep = self.epoch;
        let arena = tree.arena();
        let layer = tech.clock_layer();
        let rules = tech.rules();
        let cells = tech.buffers().cells();
        let src = self.stages[si];
        let (lo, hi) = self.member_range[si];

        // Pass 1 (postorder = descending id): edge parasitics under the
        // candidate rules, then stage-local loads.
        for m in (lo..hi).rev() {
            let v = self.member_nodes[m as usize];
            let node = tree.node(v);
            let rid = if self.p_rule_ep[v.0] == ep {
                self.p_rule[v.0]
            } else {
                self.rules[v.0]
            };
            let rule = rules
                .get(rid)
                .expect("assignment references a rule outside the technology rule set");
            let len_um = node.edge_len_nm() as f64 / 1_000.0;
            self.p_edge_r[v.0] = layer.unit_r(rule) * len_um * self.r_scale;
            self.p_edge_c[v.0] = layer.unit_c_delay(rule) * len_um * self.c_scale;
            self.p_wire_ep[v.0] = ep;

            if !node.kind().is_buffer() {
                let mut acc = match node.kind() {
                    NodeKind::Sink { cap_ff, .. } => cap_ff,
                    _ => 0.0,
                };
                for &ch in arena.children(v.0) {
                    let ch = NodeId(ch as usize);
                    acc += self.p_edge_c[ch.0] + self.pending_in_stage_cap(tree, cells, ch);
                }
                self.p_load[v.0] = acc;
                self.p_load_ep[v.0] = ep;
            }
        }
        // The source's own load (its children are stage members, already
        // recomputed above).
        let snode = tree.node(src);
        let mut acc = match snode.kind() {
            NodeKind::Sink { cap_ff, .. } => cap_ff,
            _ => 0.0,
        };
        for &ch in arena.children(src.0) {
            let ch = NodeId(ch as usize);
            acc += self.p_edge_c[ch.0] + self.pending_in_stage_cap(tree, cells, ch);
        }
        self.p_load[src.0] = acc;
        self.p_load_ep[src.0] = ep;

        let sslew = match snode.kind() {
            NodeKind::Buffer { cell } => cells[cell].output_slew_ps(self.p_load[src.0]),
            // Unbuffered root: ideal fast source, as in the full analyzer.
            _ => 1.0,
        };
        self.p_src_slew[si] = sslew;

        // Pass 2 (topo = ascending id): wire moments, relative arrivals,
        // slews, and the stage aggregates.
        let mut mx_slew = 0.0f64;
        let mut smin = f64::INFINITY;
        let mut smax = f64::NEG_INFINITY;
        if si == 0 && snode.kind().is_sink() {
            // Degenerate single-node tree: the root is itself a sink at
            // relative arrival zero.
            smin = 0.0;
            smax = 0.0;
        }
        for m in lo..hi {
            let v = self.member_nodes[m as usize];
            let node = tree.node(v);
            let p = node.parent().expect("members always have a parent");
            let downstream = self.pending_in_stage_cap(tree, cells, v);
            let step = self.p_edge_r[v.0] * (self.p_edge_c[v.0] / 2.0 + downstream);
            if p == src {
                self.p_wire_m1[v.0] = step;
                self.p_rel_in[v.0] = step;
            } else {
                self.p_wire_m1[v.0] = self.p_wire_m1[p.0] + step;
                self.p_rel_in[v.0] = self.p_rel_in[p.0] + step;
            }
            let wire_slew = LN9 * self.p_wire_m1[v.0];
            self.p_slew[v.0] = (sslew * sslew + wire_slew * wire_slew).sqrt();

            let kind = node.kind();
            if kind.is_sink() {
                smin = smin.min(self.p_rel_in[v.0]);
                smax = smax.max(self.p_rel_in[v.0]);
            }
            if kind.is_sink() || kind.is_buffer() {
                mx_slew = mx_slew.max(self.p_slew[v.0]);
            }
        }
        self.p_max_slew[si] = mx_slew;
        self.p_sink_min_rel[si] = smin;
        self.p_sink_max_rel[si] = smax;
    }

    /// Candidate-state capacitance `id` presents to its parent's stage.
    fn pending_in_stage_cap(
        &self,
        tree: &ClockTree,
        cells: &[snr_tech::BufferCell],
        id: NodeId,
    ) -> f64 {
        match tree.node(id).kind() {
            NodeKind::Buffer { cell } => cells[cell].input_cap_ff(),
            _ => {
                if self.p_load_ep[id.0] == self.epoch {
                    self.p_load[id.0]
                } else {
                    self.load[id.0]
                }
            }
        }
    }

    /// Re-times the subtrees of the dirty stages into `p_out` and folds the
    /// candidate summary: the re-timed stages directly, every other stage
    /// through range queries on the committed segment tree.
    fn arrival_pass(&mut self, tree: &ClockTree, tech: &Technology) {
        let cells = tech.buffers().cells();
        // Preorder subtree ranges are nested or disjoint: after sorting,
        // a dirty stage inside the previous range adds nothing.
        self.dirty.sort_unstable();
        for i in 0..self.dirty.len() {
            let si = self.dirty[i];
            if self.ranges.last().is_none_or(|&(_, hi)| si >= hi) {
                self.ranges.push((si, self.sub_end[si as usize]));
            }
        }

        let mut acc = StageAgg::EMPTY;
        let mut gap_lo = 0;
        for ri in 0..self.ranges.len() {
            let (lo, hi) = (self.ranges[ri].0 as usize, self.ranges[ri].1 as usize);
            acc = acc.merge(self.committed_fold(gap_lo, lo));
            for si in lo..hi {
                acc = acc.merge(self.retime_stage(tree, cells, si));
            }
            self.stages_visited += (hi - lo) as u64;
            gap_lo = hi;
        }
        acc = acc.merge(self.committed_fold(gap_lo, self.stages.len()));

        let (mut latency, mut min_arrival) = (acc.latency_ps, acc.min_arrival_ps);
        if latency == f64::NEG_INFINITY {
            // No sinks anywhere.
            latency = 0.0;
            min_arrival = 0.0;
        }
        let mut mx_slew = acc.max_slew_ps;
        if self.n == 1 {
            // Single-node tree: the full analyzer reports the root's own
            // slew as the worst slew.
            mx_slew = if self.p_stage_ep[0] == self.epoch {
                self.p_src_slew[0]
            } else {
                self.src_slew[0]
            };
        }
        self.p_summary = TimingSummary {
            latency_ps: latency,
            min_arrival_ps: min_arrival,
            max_slew_ps: mx_slew,
        };
    }

    /// Candidate source output arrival and aggregate of stage `si`, whose
    /// parent stage (if any) precedes it in preorder and is already final.
    fn retime_stage(
        &mut self,
        tree: &ClockTree,
        cells: &[snr_tech::BufferCell],
        si: usize,
    ) -> StageAgg {
        let ep = self.epoch;
        let s = self.stages[si];
        let load_s = if self.p_load_ep[s.0] == ep {
            self.p_load[s.0]
        } else {
            self.load[s.0]
        };
        let out = if si == 0 {
            match tree.node(s).kind() {
                NodeKind::Buffer { cell } => cells[cell].delay_ps(load_s),
                _ => 0.0,
            }
        } else {
            let rel = if self.p_wire_ep[s.0] == ep {
                self.p_rel_in[s.0]
            } else {
                self.rel_in[s.0]
            };
            let in_arr = self.candidate_out(self.owner[s.0] as usize) + rel;
            match tree.node(s).kind() {
                NodeKind::Buffer { cell } => in_arr + cells[cell].delay_ps(load_s),
                _ => unreachable!("non-root stage sources are buffers"),
            }
        };
        self.p_out[si] = out;
        self.p_out_ep[si] = ep;
        let (smin, smax, msl) = if self.p_stage_ep[si] == ep {
            (self.p_sink_min_rel[si], self.p_sink_max_rel[si], self.p_max_slew[si])
        } else {
            (self.sink_min_rel[si], self.sink_max_rel[si], self.max_slew[si])
        };
        StageAgg::of_stage(out, smin, smax, msl)
    }

    /// Committed aggregate of stage `si` (its segment-tree leaf).
    fn committed_agg(&self, si: usize) -> StageAgg {
        StageAgg::of_stage(
            self.out[si],
            self.sink_min_rel[si],
            self.sink_max_rel[si],
            self.max_slew[si],
        )
    }

    /// Merged committed aggregate of stages `lo..hi` (a segment-tree range
    /// query).
    fn committed_fold(&self, lo: usize, hi: usize) -> StageAgg {
        let mut acc = StageAgg::EMPTY;
        let (mut l, mut r) = (lo + self.leaves, hi + self.leaves);
        while l < r {
            if l & 1 == 1 {
                acc = acc.merge(self.seg[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = acc.merge(self.seg[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, analyze_at_corner};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snr_cts::{synthesize, CtsOptions};
    use snr_netlist::BenchmarkSpec;

    fn setup(n: usize, seed: u64) -> (snr_cts::ClockTree, Technology) {
        let design = BenchmarkSpec::new("t", n).seed(seed).build().unwrap();
        let tech = Technology::n45();
        let tree = synthesize(&design, &tech, &CtsOptions::default()).unwrap();
        (tree, tech)
    }

    fn assert_summary_close(s: TimingSummary, r: &TimingReport) {
        assert!(
            (s.latency_ps - r.latency_ps()).abs() < 1e-9,
            "latency {} vs {}",
            s.latency_ps,
            r.latency_ps()
        );
        assert!(
            (s.skew_ps() - r.skew_ps()).abs() < 1e-9,
            "skew {} vs {}",
            s.skew_ps(),
            r.skew_ps()
        );
        assert!(
            (s.max_slew_ps - r.max_slew_ps()).abs() < 1e-9,
            "slew {} vs {}",
            s.max_slew_ps,
            r.max_slew_ps()
        );
    }

    #[test]
    fn initial_state_matches_full_analysis() {
        let (tree, tech) = setup(200, 11);
        let asg = Assignment::uniform(&tree, tech.rules().most_conservative_id());
        let inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        for id in tree.topo_order() {
            assert!((inc.arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            // Loads and slews are computed by the same per-node operations
            // in the same order: exact.
            assert_eq!(inc.stage_load_ff(id), full.stage_load_ff(id));
            assert_eq!(inc.slew_ps(id), full.slew_ps(id));
        }
        let rep = inc.report(&tree);
        assert_eq!(rep.max_slew_ps(), full.max_slew_ps());
        assert!((rep.skew_ps() - full.skew_ps()).abs() < 1e-9);
    }

    #[test]
    fn try_matches_full_and_rollback_restores() {
        let (tree, tech) = setup(150, 3);
        let rules = tech.rules();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let before = inc.summary();

        let edge = tree.edges().nth(5).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, rules.default_id());
        let mut modified = asg.clone();
        modified.set(edge, rules.default_id());
        let full = analyze(&tree, &tech, &modified);
        assert_summary_close(cand, &full);
        // Candidate per-node views match too.
        for id in tree.topo_order() {
            assert!((inc.candidate_arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            assert_eq!(inc.candidate_stage_load_ff(id), full.stage_load_ff(id));
        }

        inc.rollback();
        assert_eq!(inc.summary(), before);
        assert_eq!(inc.rule(edge), rules.most_conservative_id());
        let full_before =
            analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full_before);
    }

    #[test]
    fn commit_persists_candidate() {
        let (tree, tech) = setup(150, 3);
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);

        let edge = tree.edges().nth(8).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, RuleId(1));
        inc.commit();
        assert_eq!(inc.summary(), cand);
        assert_eq!(inc.rule(edge), RuleId(1));

        asg.set(edge, RuleId(1));
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        for id in tree.topo_order() {
            assert!((inc.arrival_ps(id) - full.arrival_ps(id)).abs() < 1e-9);
            assert_eq!(inc.stage_load_ff(id), full.stage_load_ff(id));
            assert_eq!(inc.slew_ps(id), full.slew_ps(id));
        }
    }

    #[test]
    fn random_flip_sequence_tracks_full_analysis() {
        let (tree, tech) = setup(120, 17);
        let rules = tech.rules();
        let n_rules = rules.len();
        let edges: Vec<NodeId> = tree.edges().collect();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let mut rng = StdRng::seed_from_u64(99);

        for step in 0..200 {
            let e = edges[rng.gen_range(0..edges.len())];
            let r = RuleId(rng.gen_range(0..n_rules));
            let cand = inc.try_edge(&tree, &tech, e, r);
            let mut trial = asg.clone();
            trial.set(e, r);
            let full = analyze(&tree, &tech, &trial);
            assert_summary_close(cand, &full);
            // Alternate commit/rollback to exercise both paths.
            if step % 3 == 0 {
                inc.commit();
                asg = trial;
            } else {
                inc.rollback();
            }
            assert_summary_close(inc.summary(), &analyze(&tree, &tech, &asg));
        }
    }

    #[test]
    fn group_moves_match_full_analysis() {
        let (tree, tech) = setup(100, 5);
        let rules = tech.rules();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let moves: Vec<(NodeId, RuleId)> = tree
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, e)| (e, RuleId(1)))
            .collect();
        let cand = inc.try_moves(&tree, &tech, &moves);
        for &(e, r) in &moves {
            asg.set(e, r);
        }
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(cand, &full);
        inc.commit();
        assert_summary_close(inc.summary(), &full);
    }

    #[test]
    fn corner_scales_match_analyze_at_corner() {
        let (tree, tech) = setup(90, 7);
        let rules = tech.rules();
        let corner = snr_tech::Corner::slow();
        let mut asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::with_scales(
            &tree,
            &tech,
            &asg,
            corner.r_scale(),
            corner.c_scale(),
        );
        assert_summary_close(
            inc.summary(),
            &analyze_at_corner(&tree, &tech, &asg, corner),
        );
        let edge = tree.edges().nth(3).unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, rules.default_id());
        asg.set(edge, rules.default_id());
        assert_summary_close(cand, &analyze_at_corner(&tree, &tech, &asg, corner));
    }

    #[test]
    fn unbuffered_tree_supported() {
        use snr_cts::h_tree;
        use snr_geom::{Point, Rect};
        let area = Rect::new(Point::new(0, 0), Point::new(800_000, 800_000));
        let tree = h_tree(area, 3, 8.0);
        let tech = Technology::n45();
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let full = analyze(&tree, &tech, &asg);
        assert_summary_close(inc.summary(), &full);
        let edge = tree.edges().last().unwrap();
        let cand = inc.try_edge(&tree, &tech, edge, tech.rules().most_conservative_id());
        let mut m = asg.clone();
        m.set(edge, tech.rules().most_conservative_id());
        assert_summary_close(cand, &analyze(&tree, &tech, &m));
    }

    #[test]
    fn probe_visits_only_the_dirty_subtree() {
        let (tree, tech) = setup(1_200, 4);
        let rules = tech.rules();
        let asg = Assignment::uniform(&tree, rules.most_conservative_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        let stages = inc.stage_count() as u64;
        assert!(stages > 100, "1.2k sinks give many stages, got {stages}");
        assert_eq!(inc.stages_visited(), stages, "the initial solve visits all");

        // An edge inside a leaf stage (no buffer below it): its subtree is
        // that one stage.
        let leaf_edge = tree
            .edges()
            .find(|e| {
                let si = inc.owner[e.0] as usize;
                si != 0 && inc.sub_end[si] as usize == si + 1
            })
            .expect("buffered trees have leaf stages");
        let before = inc.stages_visited();
        inc.try_edge(&tree, &tech, leaf_edge, rules.default_id());
        inc.rollback();
        assert_eq!(inc.stages_visited() - before, 1);

        // An edge of the root stage re-times every stage.
        let root_edge = tree
            .edges()
            .find(|e| inc.owner[e.0] == 0)
            .expect("the root stage has edges");
        let before = inc.stages_visited();
        inc.try_edge(&tree, &tech, root_edge, rules.default_id());
        inc.commit();
        assert_eq!(inc.stages_visited() - before, stages);
    }

    #[test]
    #[should_panic(expected = "no pending candidate")]
    fn commit_without_try_panics() {
        let (tree, tech) = setup(20, 1);
        let asg = Assignment::uniform(&tree, tech.rules().default_id());
        let mut inc = IncrementalAnalyzer::new(&tree, &tech, &asg);
        inc.commit();
    }
}

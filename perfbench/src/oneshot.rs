//! The one-shot workloads: `optimize` and `analyze` send `run` requests
//! one at a time through `snr_serve::plan` + `execute` on an
//! `ExecCtx::oneshot()`, exactly as the CLI does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use snr_core::{
    Budget, Constraints, LevelBased, NdrOptimizer, OptContext, Outcome, Parallelism, SmartNdr,
};
use snr_cts::{synthesize, CtsOptions, NodeId};
use snr_netlist::validate::Bounds;
use snr_netlist::{import_design, BenchmarkSpec, ImportLimits, ImportOptions};
use snr_power::PowerModel;
use snr_serve::plan::DesignInput;
use snr_serve::{
    execute, plan, CacheMode, CacheStatus, DesignSource, ExecCtx, Method, Plan, Request, Response,
    RunRequest, RunResponse,
};
use snr_tech::RuleId;
use snr_variation::{MonteCarlo, VariationModel};

use crate::check::{independent_check, pinned, run_digest, strip_wall_clock};
use crate::defw::{sndr_bytes, write_def};
use crate::mix::Rng;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{Args, Outcome as BenchOutcome};

/// One of the two one-shot workloads.
pub struct Spec {
    /// Workload name (also the pinned-digest section).
    pub name: &'static str,
    /// `(sinks, generator seed)` of each design.
    pub designs: &'static [(usize, u64)],
    /// Whether each design is also sent as a DEF-lite rendering.
    pub def_too: bool,
    /// Optimizer every request asks for.
    pub method: Method,
    /// Monte-Carlo samples per request.
    pub mc_samples: usize,
    /// Setups per run; `setup_s` is their median.
    pub setups: usize,
}

/// `optimize`: smart-method runs on 2,000-sink designs, no Monte Carlo.
pub const OPTIMIZE: Spec = Spec {
    name: "optimize",
    designs: &[(2000, 2), (2000, 6)],
    def_too: false,
    method: Method::Smart,
    mc_samples: 0,
    setups: 9,
};

/// `analyze`: level-method runs with 200-sample Monte Carlo on one
/// 20,000-sink design, alternating its `.sndr` and DEF-lite renderings.
pub const ANALYZE: Spec = Spec {
    name: "analyze",
    designs: &[(20_000, 5)],
    def_too: true,
    method: Method::Level,
    mc_samples: 200,
    setups: 9,
};

/// One request input: a design file on disk.
#[derive(Debug, Clone)]
pub struct Input {
    /// Pinned-digest key.
    pub key: String,
    /// The file the request names.
    pub path: PathBuf,
    /// Sinks in the design.
    pub sinks: usize,
    /// File size.
    pub bytes: usize,
}

/// Generates and writes every input of `spec` into a fresh `dir`. DEF
/// renderings are checked to import back to the identical `.sndr` bytes
/// before anything is timed.
pub fn setup(spec: &Spec, dir: &Path) -> Result<Vec<Input>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut inputs = Vec::new();
    for &(sinks, seed) in spec.designs {
        let name = format!("bench-s{sinks}-{seed}");
        let design = BenchmarkSpec::new(name.clone(), sinks)
            .seed(seed)
            .build()
            .map_err(|e| format!("generating {name}: {e}"))?;
        let sndr = sndr_bytes(&design);
        let mut write = |ext: &str, bytes: &[u8]| -> Result<(), String> {
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
            inputs.push(Input {
                key: format!("{name}.{ext}"),
                path,
                sinks,
                bytes: bytes.len(),
            });
            Ok(())
        };
        write("sndr", &sndr)?;
        if spec.def_too {
            let def = write_def(&design);
            let back = import_design(def.as_bytes())
                .map_err(|e| format!("{name}.def does not import: {e}"))?;
            if sndr_bytes(&back) != sndr {
                return Err(format!("{name}.def imports to different .sndr bytes"));
            }
            write("def", def.as_bytes())?;
        }
    }
    Ok(inputs)
}

/// The request the workload sends for `input`.
fn request(spec: &Spec, input: &Input) -> Request {
    let mut req = RunRequest::new(DesignSource::Path(
        input.path.to_string_lossy().into_owned(),
    ));
    req.method = spec.method;
    req.mc_samples = spec.mc_samples;
    req.cache = CacheMode::Off;
    Request::Run(req)
}

/// Sends one request the way the CLI does; returns the response and its
/// wall-clock latency.
fn send(spec: &Spec, input: &Input) -> (Result<Box<RunResponse>, String>, f64) {
    let req = request(spec, input);
    let t0 = Instant::now();
    let out = plan(&req).and_then(|p| execute(&p, &ExecCtx::oneshot()));
    let latency = t0.elapsed().as_secs_f64();
    let out = match out {
        Ok(Response::Run(r)) => Ok(r),
        Ok(_) => Err("run request answered with another response kind".to_owned()),
        Err(e) => Err(format!("{}: {}", e.code().as_str(), e.message())),
    };
    (out, latency)
}

/// Checks one response: independent re-analysis plus the pinned digest.
fn verify(
    pins: &BTreeMap<String, String>,
    input: &Input,
    resp: &RunResponse,
) -> Result<(), String> {
    independent_check(resp).map_err(|e| format!("{}: {e}", input.key))?;
    let json = snr_serve::render::run_json(resp);
    let got = run_digest(resp.result.assignment(), &json);
    match pins.get(&input.key) {
        Some(want) if *want == got => Ok(()),
        Some(want) => Err(format!(
            "{}: digest {got} differs from pinned {want}",
            input.key
        )),
        None => Err(format!("{}: no pinned digest (got {got})", input.key)),
    }
}

/// What one traced request measured, beyond its spans.
#[derive(Default)]
struct Phases {
    levels_iters: f64,
    refine_iters: f64,
    repair_iters: f64,
    refine_s: f64,
    repair_s: f64,
    nodes: f64,
}

fn budget_totals(out: &Outcome) -> Phases {
    let mut p = Phases::default();
    for b in out.budget_reports() {
        let (iters, secs) = match b.phase {
            "greedy-levels" => (&mut p.levels_iters, None),
            "greedy-refine" => (&mut p.refine_iters, Some(&mut p.refine_s)),
            "upgrade-repair" => (&mut p.repair_iters, Some(&mut p.repair_s)),
            _ => continue,
        };
        *iters += b.iterations_done as f64;
        if let Some(s) = secs {
            *s += b.elapsed.as_secs_f64();
        }
    }
    p
}

/// The layer-by-layer pipeline `execute` runs for a one-shot `run`
/// request, with a span around each call into a layer. Returns the
/// assembled response rendered by the same `render::run_json`.
fn traced_request(
    t: &mut Tracer,
    id: u64,
    spec: &Spec,
    input: &Input,
) -> Result<(String, Phases), String> {
    t.span(id, "request", |t| {
        let req = request(spec, input);
        let plan = t
            .span(id, "serve.plan", |_| plan(&req))
            .map_err(|e| e.message().to_owned())?;
        let Plan::Run(p) = plan else {
            return Err("not a run plan".to_owned());
        };
        let DesignInput::Bytes(bytes) = &p.input else {
            return Err("expected design bytes".to_owned());
        };
        let design = if bytes.starts_with(b"sndr") {
            t.span(id, "netlist.parse", |_| {
                snr_netlist::load_design(&bytes[..])
            })
        } else {
            let opts = ImportOptions {
                bounds: Bounds::for_tech(&p.tech),
                repair: false,
                limits: ImportLimits::default(),
            };
            t.span(id, "netlist.import", |_| {
                snr_netlist::import_design_with(bytes, &opts).map(|r| r.design)
            })
        }
        .map_err(|e| e.to_string())?;
        let tree = t
            .span(id, "cts.synthesize", |_| {
                synthesize(&design, &p.tech, &CtsOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let (constraints, baseline, result) = t.span(id, "core.context", |t| {
            let ctx = OptContext::new(&tree, &p.tech, PowerModel::new(design.freq_ghz()))
                .with_constraints(Constraints::relative(
                    &tree,
                    &p.tech,
                    p.slew_margin,
                    p.skew_budget_ps,
                ));
            let method: Box<dyn NdrOptimizer> = match p.method {
                Method::Smart => Box::new(
                    SmartNdr::default()
                        .with_budget(Budget::unlimited())
                        .with_parallelism(Parallelism::serial()),
                ),
                Method::Level => Box::new(LevelBased),
                other => unreachable!("workloads use smart or level, not {other:?}"),
            };
            let baseline = t.span(id, "core.baseline", |_| ctx.conservative_baseline());
            let result = t.span(id, "core.optimize", |_| method.optimize(&ctx));
            (ctx.constraints(), baseline, result)
        });
        let variation = if p.mc_samples > 0 {
            let (b, r) = t.span(id, "variation.mc", |_| {
                let mc = MonteCarlo::new(VariationModel::default(), p.mc_samples, 7);
                let token = snr_par::CancelToken::default();
                Ok::<_, String>((
                    mc.run_with_token(&tree, &p.tech, baseline.assignment(), &token)
                        .map_err(|e| e.to_string())?,
                    mc.run_with_token(&tree, &p.tech, result.assignment(), &token)
                        .map_err(|e| e.to_string())?,
                ))
            })?;
            Some((b.sigma_skew_ps(), r.sigma_skew_ps()))
        } else {
            None
        };
        let mut phases = budget_totals(&result);
        phases.nodes = tree.len() as f64;
        let resp = RunResponse {
            design: Arc::new(design),
            tree: Arc::new(tree),
            tech: p.tech.clone(),
            constraints,
            baseline,
            result,
            mc_samples: p.mc_samples,
            variation,
            mc_cancelled: false,
            cache: CacheStatus::Off,
        };
        let json = t.span(id, "serve.render", |_| snr_serve::render::run_json(&resp));
        Ok((json, phases))
    })
}

/// Number of candidate probes in the probe-cost sample.
const PROBES: usize = 1000;

/// Mean cost (µs) and feasible share of `EvalSession::try_edge` +
/// `rollback` over a fixed seeded sample of single-edge downgrades from
/// the conservative start, on the design in `path`.
pub fn probe_sample(path: &Path) -> Result<(f64, f64), String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let design = snr_netlist::load_design(&bytes[..]).map_err(|e| e.to_string())?;
    let tech = snr_tech::Technology::n45();
    let tree = synthesize(&design, &tech, &CtsOptions::default()).map_err(|e| e.to_string())?;
    let ctx = OptContext::new(&tree, &tech, PowerModel::new(design.freq_ghz()))
        .with_constraints(Constraints::relative(&tree, &tech, 1.10, 30.0));
    let mut session = ctx.session();
    let top = tech.rules().most_conservative_id().0;
    let mut rng = Rng::new(0x9B0BE);
    let root = tree.root();
    let mut moves: Vec<(NodeId, RuleId)> = Vec::with_capacity(PROBES);
    while moves.len() < PROBES {
        let edge = NodeId(rng.below(tree.len()));
        let rule = RuleId(rng.below(top));
        if edge != root {
            moves.push((edge, rule));
        }
    }
    let mut feasible = 0usize;
    let t0 = Instant::now();
    for &(edge, rule) in &moves {
        feasible += usize::from(session.try_edge(edge, rule).feasible);
        session.rollback();
    }
    let per_probe_us = t0.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    Ok((per_probe_us, feasible as f64 / PROBES as f64))
}

/// What the timed loop measured.
#[derive(Default)]
struct Measured {
    /// Latency of every checked request, untraced, output checks excluded.
    latencies: Vec<f64>,
    /// Per input key, its sinks and the fastest latency of its repeats.
    best: BTreeMap<String, (usize, f64)>,
    checks: Vec<f64>,
    /// Saving per input key (distinct results).
    savings: BTreeMap<String, f64>,
    /// Rendered result per input key, wall-clock fields stripped.
    rendered: BTreeMap<String, String>,
    attempted: u64,
    failures: Vec<String>,
}

/// The timed loop: one request at a time, in rounds (every input once,
/// in an order drawn from `seed`), until `seconds` of wall time have
/// passed and the first round is complete. The output checks run off
/// each request's clock.
fn timed_loop(
    spec: &Spec,
    inputs: &[Input],
    pins: &BTreeMap<String, String>,
    seed: u64,
    seconds: f64,
) -> Measured {
    let mut m = Measured::default();
    let mut rng = Rng::new(seed);
    let mut order: Vec<&Input> = Vec::new();
    let start = Instant::now();
    while m.attempted < inputs.len() as u64 || start.elapsed().as_secs_f64() < seconds {
        if order.is_empty() {
            order.extend(inputs);
            rng.shuffle(&mut order);
        }
        let Some(input) = order.pop() else { break };
        m.attempted += 1;
        let (resp, latency) = send(spec, input);
        let t0 = Instant::now();
        let checked = resp.and_then(|r| verify(pins, input, &r).map(|()| r));
        m.checks.push(t0.elapsed().as_secs_f64());
        match checked {
            Ok(r) => {
                m.latencies.push(latency);
                let best = m
                    .best
                    .entry(input.key.clone())
                    .or_insert((input.sinks, f64::INFINITY));
                best.1 = best.1.min(latency);
                m.savings
                    .insert(input.key.clone(), r.result.network_saving_vs(&r.baseline));
                m.rendered
                    .entry(input.key.clone())
                    .or_insert_with(|| strip_wall_clock(&snr_serve::render::run_json(&r)));
            }
            Err(e) => m.failures.push(format!("{}: {e}", input.key)),
        }
    }
    m
}

/// Runs a one-shot workload: repeated setups, the timed loop, and in a
/// traced run the layer-by-layer pipeline on every input afterwards.
pub fn run(spec: &Spec, args: &Args) -> Result<BenchOutcome, String> {
    let dir = args.work.join(spec.name);
    let mut setup_times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..spec.setups {
        let t0 = Instant::now();
        inputs = setup(spec, &dir)?;
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut out = BenchOutcome::new(args);
    out.setup(&setup_times);

    let pins = pinned(spec.name);
    let m = timed_loop(spec, &inputs, &pins, args.seed, args.seconds);
    out.attempted = m.attempted;
    for e in m.failures {
        out.fail(e);
    }
    // Every repeat of an input does the same deterministic work, and other
    // tenants of a shared host only ever add time to it, so each input is
    // timed by its fastest repeat: the least disturbed reading of the
    // program's own cost.
    let best: Vec<f64> = m.best.values().map(|b| b.1).collect();
    let sinks: usize = m.best.values().map(|b| b.0).sum();
    let best_s: f64 = best.iter().sum();
    out.e2e("sinks_per_s", sinks as f64 / best_s);
    out.e2e("requests_per_s", best.len() as f64 / best_s);
    out.e2e("latency_p50_s", median(&best));
    out.e2e("latency_p90_s", percentile(&best, 90.0));
    out.latency_tail(&m.latencies);
    out.report("inputs_timed", best.len().to_string());
    if !m.latencies.is_empty() {
        out.report("all_requests_p50_s", median(&m.latencies).to_string());
    }
    out.saving(&m.savings);
    out.e2e("peak_rss_mb", crate::peak_rss_mb(std::process::id()));

    if args.trace {
        // One request at a time, in rounds, until a quarter of `--seconds`
        // is traced; each result must match the untraced bytes.
        let mut tracer = Tracer::default();
        let mut traced_latencies = Vec::new();
        let mut bytes_read = Vec::new();
        let mut phases = Vec::new();
        let mut id = 0u64;
        while id < inputs.len() as u64 || traced_latencies.iter().sum::<f64>() < args.seconds / 4.0
        {
            let input = &inputs[id as usize % inputs.len()];
            id += 1;
            out.attempted += 1;
            let t0 = Instant::now();
            let traced = traced_request(&mut tracer, id, spec, input);
            let latency = t0.elapsed().as_secs_f64();
            match traced {
                Ok((json, p)) if m.rendered.get(&input.key) == Some(&strip_wall_clock(&json)) => {
                    traced_latencies.push(latency);
                    bytes_read.push(input.bytes as f64);
                    phases.push(p);
                }
                Ok(_) => out.fail(format!(
                    "{}: layer-by-layer pipeline renders different bytes than execute",
                    input.key
                )),
                Err(e) => out.fail(format!("{}: traced pipeline failed: {e}", input.key)),
            }
            if traced_latencies.is_empty() && id >= inputs.len() as u64 {
                break;
            }
        }
        let own = tracer.self_time_by_name();
        let calls = |name: &str| {
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .count()
                .max(1) as f64
        };
        let per_call = |name: &str| own.get(name).copied().unwrap_or(0.0) / calls(name);
        let n = phases.len().max(1) as f64;
        let avg = |f: fn(&Phases) -> f64| phases.iter().map(f).sum::<f64>() / n;
        let mc_s = per_call("variation.mc");
        for (name, value) in [
            ("core.optimize_s", per_call("core.optimize")),
            ("core.baseline_s", per_call("core.baseline")),
            ("core.refine_s", avg(|p| p.refine_s)),
            ("core.repair_s", avg(|p| p.repair_s)),
            ("core.levels_iters", avg(|p| p.levels_iters)),
            ("core.refine_iters", avg(|p| p.refine_iters)),
            ("core.repair_iters", avg(|p| p.repair_iters)),
            ("netlist.parse_s", per_call("netlist.parse")),
            ("netlist.import_s", per_call("netlist.import")),
            ("netlist.bytes", mean(&bytes_read)),
            ("cts.synthesize_s", per_call("cts.synthesize")),
            ("cts.nodes", avg(|p| p.nodes)),
            ("variation.mc_s", mc_s),
            (
                "variation.samples_per_s",
                if mc_s > 0.0 {
                    2.0 * spec.mc_samples as f64 / mc_s
                } else {
                    0.0
                },
            ),
            ("timing.check_s", mean(&m.checks)),
            ("serve.render_s", per_call("serve.render")),
            ("serve.plan_s", per_call("serve.plan")),
            ("serve.service_s", mean(&m.latencies)),
            ("trace.request_s", mean(&traced_latencies)),
            (
                "trace.overhead_frac",
                median(&traced_latencies) / median(&m.latencies) - 1.0,
            ),
        ] {
            out.layer(name, value);
        }
        let (probe_us, ratio) = probe_sample(&inputs[0].path)?;
        out.layer("core.probe_us", probe_us);
        out.layer("core.probe_feasible_ratio", ratio);
        out.shares(&tracer);
        out.write_trace(&tracer, spec.name)?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(out)
}

/// The digests a correct build produces for every input of `spec`.
pub fn pin(spec: &Spec, work: &Path) -> Result<Vec<(String, String)>, String> {
    let dir = work.join(spec.name);
    let inputs = setup(spec, &dir)?;
    let mut pins = Vec::new();
    for input in &inputs {
        let (resp, _) = send(spec, input);
        let resp = resp?;
        independent_check(&resp)?;
        let json = snr_serve::render::run_json(&resp);
        pins.push((
            input.key.clone(),
            run_digest(resp.result.assignment(), &json),
        ));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(pins)
}

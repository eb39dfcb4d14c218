//! The `serve` workload: a `smart-ndr serve --jobs 2 --store <fresh dir>`
//! child driven as a closed loop with at most two requests in flight.
//! Its layer numbers come from outside the daemon: the streamed
//! `accepted`/`phase_start`/`phase_done` events and the `stats` reply.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use snr_netlist::BenchmarkSpec;
use snr_serve::json::Json;
use snr_serve::render;
use snr_serve::{execute, plan, Envelope, ExecCtx, Op, Response};

use crate::check::{digest, independent_check, pinned, reply_result, strip_wall_clock};
use crate::defw::{sndr_bytes, write_def};
use crate::mix::{
    universe, Gate, Kind, Mix, Paths, Req, IMPORT_DESIGNS, PARETO_DESIGNS, RUN_DESIGNS,
};
use crate::stats::{mean, median, percentile};
use crate::trace::{Span, Tracer};
use crate::{Args, Outcome};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Requests in flight at once (the host's two cores).
const IN_FLIGHT: usize = 2;

/// Writes the stream's design files into a fresh `dir`.
fn write_designs(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let gen = |sinks: usize, seed: u64| {
        BenchmarkSpec::new(format!("serve-s{sinks}-{seed}"), sinks)
            .seed(seed)
            .build()
            .map_err(|e| format!("generating a {sinks}-sink design: {e}"))
    };
    let write = |name: String, bytes: &[u8]| {
        std::fs::write(dir.join(&name), bytes).map_err(|e| format!("writing {name}: {e}"))
    };
    for (i, &(sinks, seed)) in RUN_DESIGNS.iter().enumerate() {
        write(format!("r{i}.sndr"), &sndr_bytes(&gen(sinks, seed)?))?;
    }
    for (i, &(sinks, seed)) in PARETO_DESIGNS.iter().enumerate() {
        write(format!("p{i}.sndr"), &sndr_bytes(&gen(sinks, seed)?))?;
    }
    for (i, &(sinks, seed)) in IMPORT_DESIGNS.iter().enumerate() {
        write(
            format!("i{i}.def"),
            write_def(&gen(sinks, seed)?).as_bytes(),
        )?;
    }
    Ok(())
}

/// A running daemon child and its pipes.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &Args, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(&args.daemon)
            .args(["serve", "--jobs", &IN_FLIGHT.to_string(), "--store"])
            .arg(store)
            .current_dir(&args.root)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        match stdout {
            Some(stdout) => Ok(Daemon {
                child,
                stdin,
                stdout,
            }),
            None => Err("daemon has no stdout pipe".to_owned()),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon input already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon input: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon closed its output".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(format!("daemon output: {e}")),
        }
    }

    /// Sends `stats` to a quiet daemon and returns its `result` object.
    fn stats(&mut self) -> Result<Json, String> {
        self.send("{\"op\": \"stats\"}")?;
        loop {
            let line = self.read_line()?;
            let v = Json::parse(&line).map_err(|e| format!("bad daemon line {line:?}: {e}"))?;
            if v.get("event").is_none() {
                return v
                    .get("result")
                    .cloned()
                    .ok_or_else(|| format!("stats failed: {line}"));
            }
        }
    }

    /// Closes the daemon's input (EOF stops it) and waits for it to exit.
    fn close(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One set-up: design files written, an empty store directory, a daemon
/// spawned and answering `stats`.
fn setup(args: &Args, dir: &Path) -> Result<Daemon, String> {
    write_designs(dir)?;
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("cannot create the store: {e}"))?;
    let mut daemon = Daemon::spawn(args, &store)?;
    daemon.stats()?;
    Ok(daemon)
}

fn paths(dir: &Path) -> Paths {
    Paths {
        dir: dir.to_string_lossy().into_owned(),
    }
}

/// A request on its way.
struct Flight {
    req: Req,
    sent: Instant,
    accepted: Option<Instant>,
    first_phase: Option<Instant>,
    open_phases: HashMap<String, Instant>,
    phase_spans: Vec<(&'static str, Instant, Instant)>,
    replayed_points: usize,
    /// Budget iterations (levels, refine, repair) from the supervision event.
    iterations: Option<[f64; 3]>,
}

/// Daemon phase name → the layer it belongs to.
fn layer_of(phase: &str) -> Option<&'static str> {
    Some(match phase {
        "parse" => "netlist.parse",
        "cts" => "cts.synthesize",
        "optimize" => "core.optimize",
        "mc" => "variation.mc",
        "sweep" => "pareto.sweep",
        _ => return None,
    })
}

/// Per-layer observations collected from events and replies.
#[derive(Default)]
struct Layers {
    phase_ms: HashMap<&'static str, Vec<f64>>,
    queue_wait: Vec<f64>,
    service: Vec<f64>,
    replay: Vec<f64>,
    cold: Vec<f64>,
    import: Vec<f64>,
    nodes: Vec<f64>,
    bytes: Vec<f64>,
    levels_iters: Vec<f64>,
    refine_iters: Vec<f64>,
    repair_iters: Vec<f64>,
    pareto_evaluated: Vec<f64>,
    pareto_replayed: Vec<f64>,
    pareto_front: Vec<f64>,
    bookkeeping_s: f64,
}

/// Runs the `serve` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.work.join("serve");
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let d = setup(args, &dir)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            d.close()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let mut out = Outcome::new(args);
    out.setup(&setup_times);

    let pins = pinned("serve");
    let mut file_bytes: HashMap<String, f64> = HashMap::new();
    let mut mix = Mix::new(args.seed, paths(&dir));
    let mut gate = Gate::new(IN_FLIGHT);
    let mut flights: HashMap<u64, Flight> = HashMap::new();
    let mut waiting: Option<Req> = None;
    let mut sent_bodies = Vec::new();
    let mut cold_bytes: HashMap<String, String> = HashMap::new();
    let mut latencies = Vec::new();
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut savings = BTreeMap::new();
    let mut sinks_done = 0usize;
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let mut next_id = 1u64;

    let start = Instant::now();
    let deadline = args.seconds;
    loop {
        while start.elapsed().as_secs_f64() < deadline {
            let req = waiting.take().unwrap_or_else(|| mix.next_req());
            if !gate.admits(&req) {
                waiting = Some(req);
                break;
            }
            let id = next_id;
            next_id += 1;
            daemon.send(&format!("{{\"id\": {id}, {}}}", req.body))?;
            out.attempted += 1;
            gate.enter(id, &req);
            if args.trace {
                sent_bodies.push(req.body.clone());
            }
            flights.insert(
                id,
                Flight {
                    req,
                    sent: Instant::now(),
                    accepted: None,
                    first_phase: None,
                    open_phases: HashMap::new(),
                    phase_spans: Vec::new(),
                    replayed_points: 0,
                    iterations: None,
                },
            );
        }
        if gate.is_empty() {
            break;
        }
        let line = daemon.read_line()?;
        let now = Instant::now();
        let v = Json::parse(&line).map_err(|e| format!("bad daemon line {line:?}: {e}"))?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("daemon line without id: {line}"))?;
        let flight = flights
            .get_mut(&id)
            .ok_or_else(|| format!("reply for unknown id {id}"))?;
        if let Some(event) = v.get("event").and_then(Json::as_str) {
            let t0 = Instant::now();
            match event {
                "accepted" => flight.accepted = Some(now),
                "phase_start" => {
                    flight.first_phase.get_or_insert(now);
                    if args.trace {
                        let phase = v.get("phase").and_then(Json::as_str).unwrap_or("");
                        flight.open_phases.insert(phase.to_owned(), now);
                    }
                }
                "phase_done" if args.trace => {
                    let phase = v.get("phase").and_then(Json::as_str).unwrap_or("");
                    if let Some(layer) = layer_of(phase) {
                        let ms = v.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
                        layers.phase_ms.entry(layer).or_default().push(ms);
                        if let Some(begun) = flight.open_phases.remove(phase) {
                            flight.phase_spans.push((layer, begun, now));
                        }
                    }
                }
                "front_point" if v.get("replayed").and_then(Json::as_bool) == Some(true) => {
                    flight.replayed_points += 1;
                }
                "supervision" if args.trace => flight.iterations = budget_iterations(&v),
                _ => {}
            }
            if args.trace {
                layers.bookkeeping_s += t0.elapsed().as_secs_f64();
            }
            continue;
        }

        // The request's final line.
        gate.leave(id);
        let flight = flights.remove(&id).ok_or("lost a flight")?;
        let latency = now.duration_since(flight.sent).as_secs_f64();
        let req = &flight.req;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            out.fail(format!("id {id} ({}): {line}", req.key));
            continue;
        }
        let Some(result) = reply_result(&line) else {
            out.fail(format!("id {id} ({}): reply without a result", req.key));
            continue;
        };
        let got = digest(&[strip_wall_clock(result).as_bytes()]);
        match pins.get(&req.key) {
            Some(want) if *want == got => {}
            Some(want) => {
                out.fail(format!(
                    "id {id} ({}): digest {got} differs from pinned {want}",
                    req.key
                ));
                continue;
            }
            None => {
                out.fail(format!(
                    "id {id} ({}): no pinned digest (got {got})",
                    req.key
                ));
                continue;
            }
        }
        let cache = v.get("cache").and_then(Json::as_str).unwrap_or("");
        let parsed = v.get("result");
        match req.kind {
            Kind::Run => {
                if cache == "store_hit" {
                    if cold_bytes.get(&req.key).map(String::as_str) != Some(result) {
                        out.fail(format!(
                            "id {id} ({}): store replay differs from its cold computation",
                            req.key
                        ));
                        continue;
                    }
                    layers.replay.push(latency);
                } else {
                    cold_bytes
                        .entry(req.key.clone())
                        .or_insert_with(|| result.to_owned());
                    layers.cold.push(latency);
                    if let Some([levels, refine, repair]) = flight.iterations {
                        layers.levels_iters.push(levels);
                        layers.refine_iters.push(refine);
                        layers.repair_iters.push(repair);
                    }
                }
                sinks_done += req.sinks;
                let frac = parsed
                    .and_then(|r| r.get("saving"))
                    .and_then(|s| s.get("network_frac"));
                savings.insert(
                    req.key.clone(),
                    frac.and_then(Json::as_f64).unwrap_or(f64::NAN),
                );
            }
            Kind::Pareto => {
                let sweep = parsed.and_then(|r| r.get("sweep"));
                let evaluated = sweep
                    .and_then(|s| s.get("evaluated"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let front = match parsed.and_then(|r| r.get("front")) {
                    Some(Json::Arr(items)) => items.len(),
                    _ => 0,
                };
                layers.pareto_evaluated.push(evaluated);
                layers.pareto_replayed.push(flight.replayed_points as f64);
                layers.pareto_front.push(front as f64);
            }
            Kind::Import => layers.import.push(latency),
            Kind::ExportNdr => {
                let nodes = parsed
                    .and_then(|r| r.get("nodes"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                layers.nodes.push(nodes);
            }
            Kind::Lint => {}
        }
        latencies.push(latency);
        let class = match (req.kind, cache) {
            (Kind::Run, "store_hit") => "run_replay",
            (Kind::Run, _) => "run_cold",
            (Kind::Pareto, _) => "pareto",
            (Kind::Lint, _) => "lint",
            (Kind::Import, _) => "import",
            (Kind::ExportNdr, _) => "export_ndr",
        };
        by_class.entry(class).or_default().push(latency);
        if args.trace {
            let t0 = Instant::now();
            record_request(&mut tracer, id, &flight, now, &mut layers);
            let bytes = file_bytes
                .entry(req.path.clone())
                .or_insert_with(|| std::fs::metadata(&req.path).map_or(0.0, |m| m.len() as f64));
            layers.bytes.push(*bytes);
            layers.bookkeeping_s += t0.elapsed().as_secs_f64();
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let stats = daemon.stats()?;
    let daemon_rss = crate::peak_rss_mb(daemon.child.id());
    daemon.close()?;

    out.e2e("sinks_per_s", sinks_done as f64 / wall);
    out.e2e("requests_per_s", latencies.len() as f64 / wall);
    out.e2e("latency_p50_s", median(&latencies));
    out.e2e("latency_p90_s", percentile(&latencies, 90.0));
    out.latency_tail(&latencies);
    out.saving(&savings);
    out.e2e("peak_rss_mb", daemon_rss);

    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let (hits, misses) = (num(&["store", "hits"]), num(&["store", "misses"]));
    let (cache_hits, cache_misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
    let classes = by_class
        .iter()
        .map(|(c, v)| {
            format!(
                "\"{c}\": {{\"n\": {}, \"p10_s\": {:.6}, \"p50_s\": {:.6}, \"p90_s\": {:.6}}}",
                v.len(),
                percentile(v, 10.0),
                median(v),
                percentile(v, 90.0)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    out.report("latency_by_class", format!("{{{classes}}}"));
    // The store counters are reported in every run, traced or not, so the
    // premise (reads next to writes) is visible without a traced run.
    out.report("store_hits", hits.to_string());
    out.report("store_writes", num(&["store", "writes"]).to_string());
    if args.trace {
        let phase = |layer: &str| layers.phase_ms.get(layer).map_or(0.0, |v| mean(v) / 1e3);
        let probe =
            crate::oneshot::probe_sample(&dir.join(format!("r{}.sndr", RUN_DESIGNS.len() - 1)))?;
        let plan_s = plan_times(&sent_bodies)?;
        for (name, value) in [
            ("core.optimize_s", phase("core.optimize")),
            ("core.levels_iters", mean_or_zero(&layers.levels_iters)),
            ("core.refine_iters", mean_or_zero(&layers.refine_iters)),
            ("core.repair_iters", mean_or_zero(&layers.repair_iters)),
            ("core.probe_us", probe.0),
            ("core.probe_feasible_ratio", probe.1),
            ("netlist.parse_s", phase("netlist.parse")),
            ("netlist.import_s", mean_or_zero(&layers.import)),
            ("netlist.bytes", mean_or_zero(&layers.bytes)),
            ("cts.synthesize_s", phase("cts.synthesize")),
            ("cts.nodes", mean_or_zero(&layers.nodes)),
            ("variation.mc_s", phase("variation.mc")),
            ("serve.plan_s", plan_s),
            ("serve.queue_wait_s", mean_or_zero(&layers.queue_wait)),
            ("serve.service_s", mean_or_zero(&layers.service)),
            (
                "serve.cache_hit_ratio",
                cache_hits / (cache_hits + cache_misses).max(1.0),
            ),
            ("serve.cache_misses", cache_misses),
            ("store.hits", hits),
            ("store.misses", misses),
            ("store.writes", num(&["store", "writes"])),
            ("store.quarantined", num(&["store", "quarantined"])),
            ("store.hit_ratio", hits / (hits + misses).max(1.0)),
            (
                "store.replay_s",
                if layers.replay.is_empty() {
                    0.0
                } else {
                    median(&layers.replay)
                },
            ),
            (
                "store.cold_s",
                if layers.cold.is_empty() {
                    0.0
                } else {
                    median(&layers.cold)
                },
            ),
            ("pareto.sweep_s", phase("pareto.sweep")),
            (
                "pareto.points_evaluated",
                mean_or_zero(&layers.pareto_evaluated),
            ),
            (
                "pareto.points_replayed",
                mean_or_zero(&layers.pareto_replayed),
            ),
            ("pareto.front_size", mean_or_zero(&layers.pareto_front)),
            ("trace.request_s", mean_or_zero(&latencies)),
            ("trace.overhead_frac", layers.bookkeeping_s / wall),
        ] {
            out.layer(name, value);
        }
        out.shares(&tracer);
        out.write_trace(&tracer, "serve")?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(out)
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        mean(v)
    }
}

/// Budget iterations (levels, refine, repair) from a `supervision` event.
/// Replayed runs stream the stored record too; callers keep only those
/// of computed runs.
fn budget_iterations(v: &Json) -> Option<[f64; 3]> {
    let Some(Json::Arr(budgets)) = v.get("supervision").and_then(|s| s.get("budgets")) else {
        return None;
    };
    let mut totals = [0.0; 3];
    for b in budgets {
        let slot = match b.get("phase").and_then(Json::as_str) {
            Some("greedy-levels") => 0,
            Some("greedy-refine") => 1,
            Some("upgrade-repair") => 2,
            _ => continue,
        };
        totals[slot] += b.get("iterations").and_then(Json::as_f64).unwrap_or(0.0);
    }
    Some(totals)
}

/// Records a finished request's spans: the request, its queue wait, its
/// service and the daemon phases inside that service.
fn record_request(t: &mut Tracer, id: u64, f: &Flight, done: Instant, layers: &mut Layers) {
    let span = |name, start: Instant, end: Instant, parent| Span {
        name,
        start_s: t.at(start),
        end_s: t.at(end),
        parent,
        request: id,
    };
    let request = span("request", f.sent, done, None);
    let accepted = f.accepted.unwrap_or(f.sent);
    let served = f.first_phase.unwrap_or(done);
    let wait = span("serve.queue_wait", accepted, served, None);
    let service = span("serve.service", served, done, None);
    let phases: Vec<Span> = f
        .phase_spans
        .iter()
        .map(|&(name, a, b)| span(name, a, b, None))
        .collect();
    layers.queue_wait.push(wait.duration_s());
    layers.service.push(service.duration_s());
    let root = t.record(request);
    t.record(Span {
        parent: Some(root),
        ..wait
    });
    let svc = t.record(Span {
        parent: Some(root),
        ..service
    });
    for p in phases {
        t.record(Span {
            parent: Some(svc),
            ..p
        });
    }
}

/// Mean time of `snr_serve::plan` over the requests the run sent,
/// measured in this process after the timed loop.
fn plan_times(bodies: &[String]) -> Result<f64, String> {
    let mut total = 0.0;
    for body in bodies {
        let env = Json::parse(&format!("{{\"id\": 1, {body}}}"))
            .map_err(|e| e.to_string())
            .and_then(|v| Envelope::from_json(&v).map_err(|e| e.message().to_owned()))?;
        let Op::Job(req) = env.op else {
            return Err("not a job".to_owned());
        };
        let t0 = Instant::now();
        plan(&req).map_err(|e| e.message().to_owned())?;
        total += t0.elapsed().as_secs_f64();
    }
    Ok(total / bodies.len().max(1) as f64)
}

/// The digest of every request the stream can produce, computed in this
/// process through `plan` + `execute` (the daemon must answer with the
/// same bytes). Run results are re-verified independently on the way.
pub fn pin(work: &Path) -> Result<Vec<(String, String)>, String> {
    let dir: PathBuf = work.join("serve");
    write_designs(&dir)?;
    let all = universe(&paths(&dir));
    // Two workers, each pinning every other request; order is kept.
    let pins: Vec<Result<(String, String), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let all = &all;
                scope.spawn(move || {
                    all.iter()
                        .skip(w)
                        .step_by(2)
                        .map(pin_one)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut lanes: Vec<std::vec::IntoIter<_>> = workers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("pin worker panicked".to_owned())])
                    .into_iter()
            })
            .collect();
        (0..all.len()).filter_map(|i| lanes[i % 2].next()).collect()
    });
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    pins.into_iter().collect()
}

/// The digest of one request's result, computed in this process.
fn pin_one(req: &Req) -> Result<(String, String), String> {
    let env = Json::parse(&format!("{{\"id\": 1, {}}}", req.body))
        .map_err(|e| e.to_string())
        .and_then(|v| Envelope::from_json(&v).map_err(|e| e.message().to_owned()))?;
    let Op::Job(job) = env.op else {
        return Err("not a job".to_owned());
    };
    let resp = plan(&job)
        .and_then(|p| execute(&p, &ExecCtx::oneshot()))
        .map_err(|e| format!("{}: {}", req.key, e.message()))?;
    let rendered = match &resp {
        Response::Run(r) => {
            independent_check(r).map_err(|e| format!("{}: {e}", req.key))?;
            render::run_json(r)
        }
        Response::Pareto(r) => render::pareto_json(r),
        Response::Lint(r) => render::lint_json(r),
        Response::Import(r) => render::import_json(r),
        Response::ExportNdr(r) => render::export_ndr_json(r),
        _ => return Err(format!("{}: unexpected response kind", req.key)),
    };
    Ok((
        req.key.clone(),
        digest(&[strip_wall_clock(&rendered).as_bytes()]),
    ))
}

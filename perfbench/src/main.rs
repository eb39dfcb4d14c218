//! The smart-ndr benchmark: one command per workload that prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) named
//! in the repository's `BENCHMARK.json`, after checking every output.
//!
//! ```text
//! perfbench --workload <optimize|analyze|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--root <checkout>] [--daemon <smart-ndr binary>] [--commit <id>]
//! perfbench --pin [--root <checkout>]      # rewrite perfbench/digests.json
//! ```
//!
//! The last stdout line is the result object; the line before it is a
//! report with the host, sample counts and, when traced, layer shares.
//! `perfbench/run.py` builds this binary and the daemon, then runs it.

mod check;
mod defw;
mod mix;
mod oneshot;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use snr_serve::json::{json_escape, Json};

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;

/// The benchmark definition this binary reports against.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's request stream.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The checkout root.
    pub root: PathBuf,
    /// Scratch directory for generated inputs, stores and traces.
    pub work: PathBuf,
    /// The `smart-ndr` binary the `serve` workload spawns.
    pub daemon: PathBuf,
    /// Source revision, for the host record.
    pub commit: String,
    /// Rewrite the pinned digests instead of benchmarking.
    pub pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_owned(), value);
    }
    let get = |k: &str| flags.get(k).cloned();
    let root = PathBuf::from(get("root").unwrap_or_else(|| ".".to_owned()));
    let num = |k: &str, default: &str| -> Result<f64, String> {
        get(k)
            .unwrap_or_else(|| default.to_owned())
            .parse()
            .map_err(|_| format!("--{k} must be a number"))
    };
    let args = Args {
        workload: get("workload").unwrap_or_default(),
        seed: get("seed")
            .unwrap_or_else(|| "1".to_owned())
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds: num("seconds", "10")?,
        trace: get("trace").as_deref() == Some("1"),
        work: root.join(".bench_work"),
        daemon: PathBuf::from(get("daemon").unwrap_or_else(|| "smart-ndr".to_owned())),
        commit: get("commit").unwrap_or_else(|| "unknown".to_owned()),
        root,
        pin,
    };
    if !pin && !["optimize", "analyze", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be optimize, analyze or serve, not {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get(list) else {
        return Err(format!("BENCHMARK.json has no {list} list"));
    };
    items
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
            ) {
                (Some(n), Some(u)) => Ok((n.to_owned(), u.to_owned())),
                _ => Err(format!("malformed {list} entry in BENCHMARK.json")),
            }
        })
        .collect()
}

/// What one workload run measured and found.
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused, or failed an output check.
    pub failed: u64,
    errors: Vec<String>,
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    report: Vec<(String, String)>,
    work: PathBuf,
    seed: u64,
}

impl Outcome {
    /// An empty outcome for `args`.
    pub fn new(args: &Args) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            report: Vec::new(),
            work: args.work.clone(),
            seed: args.seed,
        }
    }

    /// Records an end-to-end value.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_owned(), value);
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// Adds a report field (`value` is JSON text).
    pub fn report(&mut self, key: &str, value: String) {
        self.report.push((key.to_owned(), value));
    }

    /// Counts a failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Records `setup_s` as the median of the run's set-ups, and reports
    /// each of them.
    pub fn setup(&mut self, times: &[f64]) {
        self.e2e("setup_s", median(times));
        let all = times
            .iter()
            .map(|t| format!("{t:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        self.report("setup_samples_s", format!("[{all}]"));
    }

    /// Records `network_saving_frac` as the mean saving over the distinct
    /// results (keyed by input), so repeats do not weight it.
    pub fn saving(&mut self, by_key: &BTreeMap<String, f64>) {
        let values: Vec<f64> = by_key.values().copied().collect();
        self.e2e("network_saving_frac", stats::mean(&values));
    }

    /// Reports the latency sample count and the highest percentile with
    /// ten samples beyond it.
    pub fn latency_tail(&mut self, samples: &[f64]) {
        self.report("latency_samples", samples.len().to_string());
        let tail = match tail_percentile(samples.len()) {
            Some(p) => format!("{{\"p\": {p}, \"value_s\": {}}}", percentile(samples, p)),
            None => "null".to_owned(),
        };
        self.report("latency_tail", tail);
    }

    /// Reports each layer's share of traced request time: total self time
    /// under request spans divided by total request span time.
    pub fn shares(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        let own = tracer.self_times();
        let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            let root = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(root);
        }
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if spans[root_of[i]].name != "request" {
                continue;
            }
            if s.parent.is_none() {
                total += s.duration_s();
            }
            *by_name.entry(s.name).or_insert(0.0) += own[i];
        }
        let body = by_name
            .iter()
            .map(|(n, t)| format!("\"{n}\": {:.6}", t / total.max(f64::MIN_POSITIVE)))
            .collect::<Vec<_>>()
            .join(", ");
        self.report("layer_share", format!("{{{body}}}"));
        self.report("spans", spans.len().to_string());
    }

    /// Writes the spans to `.bench_work/traces/<workload>-seed<n>.jsonl`.
    pub fn write_trace(&mut self, tracer: &Tracer, workload: &str) -> Result<(), String> {
        let dir = self.work.join("traces");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{workload}-seed{}.jsonl", self.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.report(
            "trace_file",
            format!("\"{}\"", json_escape(&path.to_string_lossy())),
        );
        Ok(())
    }
}

/// Peak resident memory of process `pid` (`VmHWM`), MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn host_json(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        concat!(
            "{{\"nproc\": {}, \"serial_baseline\": {}, \"machine\": {}, ",
            "\"build_profile\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}"
        ),
        nproc,
        nproc == 1,
        snr_bench::machine_json(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        json_escape(&args.commit),
        args.seed,
    )
}

fn metrics_json(
    values: &BTreeMap<String, f64>,
    list: &[(String, String)],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in list {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn bench(args: &Args) -> Result<(), String> {
    let mut out = match args.workload.as_str() {
        "optimize" => oneshot::run(&oneshot::OPTIMIZE, args)?,
        "analyze" => oneshot::run(&oneshot::ANALYZE, args)?,
        _ => serve::run(args)?,
    };
    if out.attempted == 0 {
        return Err("no request was attempted".to_owned());
    }
    let success = 1.0 - out.failed as f64 / out.attempted as f64;
    out.e2e("success_rate", success);
    let e2e = declared("end_to_end")?;
    let layers = declared("per_layer")?;
    let metrics = if args.trace {
        // Layers a workload does not exercise read zero; say which.
        let mut idle = Vec::new();
        for (n, _) in &layers {
            if !out.layers.contains_key(n) {
                out.layers.insert(n.clone(), 0.0);
                idle.push(format!("\"{n}\""));
            }
        }
        out.report("layers_not_exercised", format!("[{}]", idle.join(", ")));
        out.report("end_to_end", metrics_json(&out.e2e, &e2e)?);
        metrics_json(&out.layers, &layers)?
    } else {
        metrics_json(&out.e2e, &e2e)?
    };
    for e in &out.errors {
        eprintln!("perfbench: {e}");
    }
    let report = out
        .report
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"trace\": {}, \"host\": {}, {report}}}}}",
        args.workload,
        args.trace,
        host_json(args)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    Ok(())
}

/// Recomputes every workload's digests and rewrites `perfbench/digests.json`.
fn pin(args: &Args) -> Result<(), String> {
    let sections = [
        ("optimize", oneshot::pin(&oneshot::OPTIMIZE, &args.work)?),
        ("analyze", oneshot::pin(&oneshot::ANALYZE, &args.work)?),
        ("serve", serve::pin(&args.work)?),
    ];
    let body = sections
        .iter()
        .map(|(name, pins)| {
            let rows = pins
                .iter()
                .map(|(k, d)| format!("    \"{}\": \"{d}\"", json_escape(k)))
                .collect::<Vec<_>>()
                .join(",\n");
            format!("  \"{name}\": {{\n{rows}\n  }}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let path = args.root.join("perfbench").join("digests.json");
    std::fs::write(&path, format!("{{\n{body}\n}}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: pinned {} digests in {}",
        sections.iter().map(|s| s.1.len()).sum::<usize>(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| if args.pin { pin(&args) } else { bench(&args) });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_the_metrics_the_workloads_report() {
        let e2e: Vec<String> = declared("end_to_end")
            .unwrap()
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert!(e2e.contains(&"setup_s".to_owned()));
        assert!(e2e.contains(&"success_rate".to_owned()));
        assert!(!declared("per_layer").unwrap().is_empty());
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb(std::process::id()) > 0.0);
    }
}

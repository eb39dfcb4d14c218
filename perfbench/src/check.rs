//! Output checks: the independent re-verification of run results and the
//! wall-clock-free digests pinned in `perfbench/digests.json`.

use std::collections::BTreeMap;

use snr_core::OptContext;
use snr_cts::{Assignment, NodeId};
use snr_power::PowerModel;
use snr_serve::json::Json;
use snr_serve::RunResponse;
use snr_store::ContentHasher;

/// The digests pinned for every workload, keyed by workload then input.
pub const PINNED: &str = include_str!("../digests.json");

/// Pinned digests of one workload.
pub fn pinned(workload: &str) -> BTreeMap<String, String> {
    let Ok(all) = Json::parse(PINNED) else {
        return BTreeMap::new();
    };
    match all.get(workload) {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|d| (k.clone(), d.to_owned())))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// `json` with the value of every `"runtime_s"` field replaced by `0`:
/// the one wall-clock field the flow renders.
pub fn strip_wall_clock(json: &str) -> String {
    const FIELD: &str = "\"runtime_s\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(FIELD) {
        let value = at + FIELD.len();
        out.push_str(&rest[..value]);
        out.push('0');
        let tail = &rest[value..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Hex digest of `parts`, each hashed as its own length-delimited chunk.
pub fn digest(parts: &[&[u8]]) -> String {
    let mut h = ContentHasher::new();
    for part in parts {
        h.chunk(part);
    }
    format!("{:016x}", h.finish().0)
}

/// One byte string naming every slot's rule.
pub fn assignment_bytes(asg: &Assignment) -> Vec<u8> {
    (0..asg.len())
        .flat_map(|i| (asg.rule(NodeId(i)).0 as u32).to_le_bytes())
        .collect()
}

/// Digest of a run's optimized assignment and its rendered QoR fields.
pub fn run_digest(asg: &Assignment, run_json: &str) -> String {
    digest(&[
        &assignment_bytes(asg),
        strip_wall_clock(run_json).as_bytes(),
    ])
}

/// Re-verifies a run's reported result with the full (non-incremental)
/// timing analyzer and the power evaluator, and reports any disagreement
/// with what the run claimed.
pub fn independent_check(resp: &RunResponse) -> Result<(), String> {
    let ctx = OptContext::new(
        &resp.tree,
        &resp.tech,
        PowerModel::new(resp.design.freq_ghz()),
    )
    .with_constraints(resp.constraints);
    for out in [&resp.baseline, &resp.result] {
        let asg = out.assignment();
        if asg.len() != resp.tree.len() {
            return Err(format!(
                "{}: assignment covers {} of {} slots",
                out.name(),
                asg.len(),
                resp.tree.len()
            ));
        }
        let report = ctx.analyze(asg);
        let meets = ctx.meets(asg, &report);
        let network_uw = ctx.power(asg).network_uw();
        if meets != out.meets_constraints() {
            return Err(format!(
                "{}: reported meets={} but re-analysis says {meets}",
                out.name(),
                out.meets_constraints()
            ));
        }
        let reported = out.power().network_uw();
        if (network_uw - reported).abs() > 1e-9 * reported.abs().max(1.0) {
            return Err(format!(
                "{}: reported {reported} µW but re-analysis says {network_uw} µW",
                out.name()
            ));
        }
    }
    Ok(())
}

/// The `result` object of a daemon reply line, as raw text.
pub fn reply_result(line: &str) -> Option<&str> {
    const FIELD: &str = "\"result\": ";
    let at = line.find(FIELD)? + FIELD.len();
    line.get(at..line.len().checked_sub(1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_only_runtime_values() {
        let s = r#"{"a": {"runtime_s": 1.234567, "x": 2}, "b": {"runtime_s": 0.000001}, "c": 3}"#;
        assert_eq!(
            strip_wall_clock(s),
            r#"{"a": {"runtime_s": 0, "x": 2}, "b": {"runtime_s": 0}, "c": 3}"#
        );
        assert_eq!(strip_wall_clock("{}"), "{}");
    }

    #[test]
    fn digests_separate_their_parts() {
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_eq!(digest(&[b"x"]).len(), 16);
    }

    #[test]
    fn reply_result_is_the_embedded_object() {
        let line = r#"{"id": 3, "ok": true, "cache": "miss", "result": {"k": [1, 2]}}"#;
        assert_eq!(reply_result(line), Some(r#"{"k": [1, 2]}"#));
        assert_eq!(reply_result(r#"{"id": 3, "error": {}}"#), None);
    }

    #[test]
    fn pinned_digests_cover_every_workload() {
        for w in ["optimize", "analyze", "serve"] {
            assert!(!pinned(w).is_empty(), "no digests pinned for {w}");
        }
    }
}

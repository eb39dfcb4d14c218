//! Kill-and-resume proof for `smart-ndr suite --resume`: rows a killed
//! run completed are replayed from the implicit result store beside
//! `--out` instead of re-evaluated, the resumed artifact is byte-identical
//! to an uninterrupted run (also when designs share a name), and neither
//! the store nor the temp file outlives a successful run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smart-ndr"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smart-ndr-resume-{}-{name}", std::process::id()));
    p
}

fn sibling(out: &Path, suffix: &str) -> PathBuf {
    let mut os = out.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// The implicit result store `suite --out <out>` keeps beside the artifact.
fn store_of(out: &Path) -> PathBuf {
    sibling(out, ".store")
}

/// A pool directory holding `gen` designs given as (file, sinks, seed).
fn gen_pool(tag: &str, designs: &[(&str, &str, &str)]) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create pool dir");
    for (file, sinks, seed) in designs {
        let out = bin()
            .args(["gen", "--sinks", sinks, "--seed", seed, "--out"])
            .arg(dir.join(file))
            .output()
            .expect("binary runs");
        assert_success(&out);
    }
    dir
}

/// Three healthy designs with distinct sink counts (names stay unique).
fn pool(tag: &str) -> PathBuf {
    gen_pool(tag, &[("a.sndr", "24", "1"), ("m.sndr", "28", "2"), ("z.sndr", "32", "3")])
}

/// A one-design sub-pool holding a byte copy of `pool/file`.
fn sub_pool(pool: &Path, file: &str) -> PathBuf {
    let dir = sibling(pool, "-sub");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sub-pool dir");
    std::fs::copy(pool.join(file), dir.join(file)).expect("copy design");
    dir
}

fn run_suite(dir: &Path, out_file: &Path, resume: bool) -> Output {
    let mut cmd = bin();
    cmd.args(["suite", "--jobs", "2", "--designs"]).arg(dir).arg("--out").arg(out_file);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("binary runs")
}

/// What a run killed after finishing the designs of `dir` leaves behind:
/// their rows, stored under `store`.
fn seed_store(dir: &Path, store: &Path) {
    let out = bin()
        .args(["suite", "--designs"])
        .arg(dir)
        .arg("--store")
        .arg(store)
        .output()
        .expect("binary runs");
    assert_success(&out);
}

fn assert_success(out: &Output) {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

fn assert_no_leftovers(out_file: &Path) {
    assert!(!store_of(out_file).exists(), "implicit store must be deleted after success");
    assert!(!sibling(out_file, ".tmp").exists(), "no temp file after an atomic write");
}

#[test]
fn resume_reproduces_byte_identical_artifact_and_skips_stored_rows() {
    let dir = pool("pool-a");
    let out_a = tmp("a.txt");
    let out_b = tmp("b.txt");

    // Uninterrupted reference run.
    let out = run_suite(&dir, &out_a, false);
    assert_success(&out);
    let reference = std::fs::read(&out_a).expect("artifact written");
    assert_no_leftovers(&out_a);

    // Simulate an interrupted run that completed exactly one row: the
    // implicit store holds the true row for the middle design.
    let sub = sub_pool(&dir, "m.sndr");
    seed_store(&sub, &store_of(&out_b));

    let out = run_suite(&dir, &out_b, true);
    assert_success(&out);
    let resumed = std::fs::read(&out_b).expect("resumed artifact written");
    assert_eq!(
        resumed, reference,
        "resumed artifact must be byte-identical to the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 1 hit(s), 2 miss(es)"), "one row replayed: {stderr}");
    // The replayed row carries no runtime measurement on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("cli-s28")).expect("resumed row printed");
    assert_eq!(line.split_whitespace().last(), Some("-"), "resumed row has no runtime: {line}");
    assert_no_leftovers(&out_b);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sub);
    let _ = std::fs::remove_file(&out_a);
    let _ = std::fs::remove_file(&out_b);
}

/// `gen` names every design `cli-s<sinks>`, so two designs with the same
/// sink count share a name. Resume must key rows by content, not name:
/// a name-keyed resume replays the first design's row for both.
#[test]
fn resume_keeps_same_named_designs_apart() {
    let dir = gen_pool(
        "pool-same-name",
        &[("a.sndr", "24", "1"), ("b.sndr", "24", "2"), ("c.sndr", "28", "3")],
    );
    let out_ref = tmp("same-ref.txt");
    let out_victim = tmp("same-victim.txt");

    let out = run_suite(&dir, &out_ref, false);
    assert_success(&out);
    let reference = std::fs::read(&out_ref).expect("artifact written");
    let text = String::from_utf8_lossy(&reference);
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("cli-s24")).collect();
    assert_eq!(rows.len(), 2, "both same-named designs get a row: {text}");
    assert_ne!(rows[0], rows[1], "the fixture designs must differ: {text}");

    // Killed after the first row.
    let sub = sub_pool(&dir, "a.sndr");
    seed_store(&sub, &store_of(&out_victim));

    let out = run_suite(&dir, &out_victim, true);
    assert_success(&out);
    assert_eq!(
        std::fs::read(&out_victim).expect("resumed artifact written"),
        reference,
        "resumed artifact must be byte-identical with same-named designs"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 1 hit(s)"), "one row replayed: {stderr}");
    assert_no_leftovers(&out_victim);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sub);
    let _ = std::fs::remove_file(&out_ref);
    let _ = std::fs::remove_file(&out_victim);
}

#[test]
fn resume_replays_stored_rows_instead_of_reevaluating() {
    let dir = pool("pool-b");
    let out_c = tmp("c.txt");
    let seeded = tmp("c-seed.txt");
    // A run killed after every row completed, just before its artifact
    // landed. An explicit --store is never deleted, so it stays seeded.
    let out = bin()
        .args(["suite", "--designs"])
        .arg(&dir)
        .arg("--out")
        .arg(&seeded)
        .arg("--store")
        .arg(store_of(&out_c))
        .output()
        .expect("binary runs");
    assert_success(&out);

    let out = run_suite(&dir, &out_c, true);
    assert_success(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("store: 3 hit(s), 0 miss(es), 0 quarantined, 0 write(s)"),
        "every row must be replayed, none re-evaluated: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with("cli-s")).collect();
    assert_eq!(rows.len(), 3, "{stdout}");
    for row in rows {
        assert_eq!(row.split_whitespace().last(), Some("-"), "replayed row was re-run: {row}");
    }
    assert_eq!(
        std::fs::read(&out_c).expect("artifact written"),
        std::fs::read(&seeded).expect("seed artifact written"),
        "replayed rows land in the artifact unchanged"
    );
    assert_no_leftovers(&out_c);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_c);
    let _ = std::fs::remove_file(&seeded);
}

#[test]
fn fresh_run_clears_a_stale_store() {
    let dir = pool("pool-c");
    let out_d = tmp("d.txt");
    seed_store(&dir, &store_of(&out_d));

    // Without --resume the stale store must be discarded, not replayed.
    let out = run_suite(&dir, &out_d, false);
    assert_success(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 0 hit(s), 3 miss(es)"), "stale rows replayed: {stderr}");
    assert_no_leftovers(&out_d);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&out_d);
}

#[test]
fn resume_without_out_is_a_usage_error() {
    let dir = pool("pool-d");
    let out = bin()
        .args(["suite", "--resume", "--designs"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--out"),
        "error must point at the missing --out"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_no_cache_is_a_usage_error() {
    let dir = pool("pool-e");
    let out_e = tmp("e.txt");
    let out = bin()
        .args(["suite", "--resume", "--no-cache", "--designs"])
        .arg(&dir)
        .arg("--out")
        .arg(&out_e)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "usage errors exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--no-cache"),
        "error must point at --no-cache"
    );
    assert!(!out_e.exists(), "a usage error writes no artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

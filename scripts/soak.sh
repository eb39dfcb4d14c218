#!/usr/bin/env bash
# Chaos/soak gate for the run-supervision layer: the seeded fault-injection
# soak (128 seeds × {probe panic, probe stall, forced divergence}; the probe
# faults strike upgrade-repair's probe pool, the only optimizer with one —
# plus the crash-safe-writer cycle) and a real kill-and-resume round-trip of
# `smart-ndr suite`, which resumes from the result store it keeps beside
# `--out` (`<out>.store/`). Everything sits under an outer timeout so a hang
# is a failure, not a stuck CI job. Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK_TIMEOUT="${SOAK_TIMEOUT:-600}"

step() { printf '\n== %s\n' "$*"; }

# kill_mid_run PID SECS WHAT: SIGKILLs the background run PID after SECS
# and fails loudly unless the signal landed while it was still running — a
# run that already finished would make the resume check vacuous.
kill_mid_run() {
    local pid="$1" status=0
    sleep "$2"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || status=$?
    if [ "$status" -ne 137 ]; then
        echo "FAIL: $3 exited with status $status before the SIGKILL landed;" \
            "grow its pool so the kill lands mid-run" >&2
        exit 1
    fi
}

step "chaos soak (tests/chaos.rs, 128 seeds)"
timeout "$SOAK_TIMEOUT" cargo test -q --release --test chaos

step "kill-and-resume round-trip"
cargo build --release -q
BIN=target/release/smart-ndr
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
mkdir "$T/pool"
# Sized so one uninterrupted run takes ~4 s on a 2-core host and the
# SIGKILL below lands mid-run, with rows already stored.
for i in 1 2 3 4 5 6; do
    "$BIN" gen --sinks $((2000 + 1000 * i)) --seed "$i" --out "$T/pool/d$i.sndr" >/dev/null
done
# Same sink count as d1, so the same design name: resume must tell the two
# apart by content.
"$BIN" gen --sinks 3000 --seed 7 --out "$T/pool/d7.sndr" >/dev/null

# Reference: one uninterrupted run.
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/pool" --out "$T/ref.txt" >/dev/null

# Victim: start, SIGKILL mid-flight, resume. Whatever rows the store
# captured are replayed (not re-evaluated) and the resumed artifact must be
# byte-identical to the reference; the store and temp file must not
# survive the successful resume.
"$BIN" suite --designs "$T/pool" --out "$T/victim.txt" >/dev/null 2>&1 &
kill_mid_run $! 0.4 "the generated-pool suite"
timeout "$SOAK_TIMEOUT" "$BIN" suite --resume --designs "$T/pool" --out "$T/victim.txt" \
    >/dev/null 2> "$T/resume.err"
grep "^store:" "$T/resume.err" || true
cmp "$T/ref.txt" "$T/victim.txt" || {
    echo "FAIL: resumed artifact differs from the uninterrupted run" >&2; exit 1
}
if [ -e "$T/victim.txt.store" ]; then
    echo "FAIL: resume store outlived the successful resume" >&2; exit 1
fi
if [ -e "$T/victim.txt.tmp" ]; then
    echo "FAIL: temp file orphaned by the atomic write" >&2; exit 1
fi

step "kill-and-resume over imported external designs"
# Same contract, but the pool comes through the DEF import frontier (with
# the dirty example salvaged by --repair) instead of the generator —
# imported designs must be first-class suite inputs, crash-safety included.
# The imported designs take under a millisecond each, so each is
# replicated under distinct file and design names (the store keys rows by
# content, so identical copies would just replay) until one run takes ~2 s.
mkdir "$T/defsrc" "$T/defpool"
for def in examples/*.def; do
    name="$(basename "$def" .def)"
    repair_flag=""
    [ "$name" = dirty12 ] && repair_flag="--repair"
    "$BIN" import --design "$def" $repair_flag \
        --out "$T/defsrc/$name.sndr" >/dev/null
    body="$(cat "$T/defsrc/$name.sndr")"
    for k in $(seq 1 750); do
        printf '%s\n' "${body/design $name /design ${name}_$k }" > "$T/defpool/${name}_$k.sndr"
    done
done
timeout "$SOAK_TIMEOUT" "$BIN" suite --designs "$T/defpool" --out "$T/dref.txt" >/dev/null
"$BIN" suite --designs "$T/defpool" --out "$T/dvictim.txt" >/dev/null 2>&1 &
kill_mid_run $! 0.4 "the imported-pool suite"
timeout "$SOAK_TIMEOUT" "$BIN" suite --resume --designs "$T/defpool" --out "$T/dvictim.txt" \
    >/dev/null 2> "$T/dresume.err"
grep "^store:" "$T/dresume.err" || true
cmp "$T/dref.txt" "$T/dvictim.txt" || {
    echo "FAIL: resumed imported-suite artifact differs from the uninterrupted run" >&2; exit 1
}
if [ -e "$T/dvictim.txt.store" ] || [ -e "$T/dvictim.txt.tmp" ]; then
    echo "FAIL: resume store or temp file outlived the successful imported-suite resume" >&2; exit 1
fi

echo
echo "soak: all checks passed"

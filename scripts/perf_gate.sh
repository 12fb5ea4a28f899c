#!/usr/bin/env bash
# Perf gate over the repo benchmark (navbench, BENCHMARK.json): EXPAND
# median and tail, cold open, session median and tracing overhead, each
# self-relative to the base commit HEAD^, built and run on the same host.
#
#   scripts/perf_gate.sh
#
# In CI the working tree is HEAD, so the base is the previous commit on a
# push and the target branch on a pull-request merge commit. Runs
# `cold_explore` (seed 1, 45 s) twice per side in the order base, head,
# head, base — so neither side always runs first on a warming host — plus
# one traced working-tree run, and fails unless
#   - every run is correct with 0 failed operations;
#   - for each of expand_p50_ms, expand_p99_ms, open_p50_ms, open_p90_ms
#     and session_p50_ms, the mean of the working tree's two readings is
#     at most 2.0x the mean of HEAD^'s two;
#   - the traced run's trace.overhead_frac (sessions/s lost by the traced
#     passes against the untraced passes they alternate with) is at most 0.08.
# Everything it builds and writes stays under .perf_gate/ (run logs, the
# base checkout, two cargo target directories). About 5 min of runs after
# the two builds.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
base_sha="$(git rev-parse --verify 'HEAD^^{commit}')"
out="$PWD/.perf_gate"
rm -rf "$out/base-src"
mkdir -p "$out/base-src"
git archive "$base_sha" | tar -x -C "$out/base-src"

# Build both sides before timing either, so no timed run starts right
# after a build: the fresh base checkout rebuilds every time, and a run
# timed right after its build reads slow. Same command as navbench/run.sh,
# whose own build is then a no-op.
build() {
    (cd "$1" && CARGO_TARGET_DIR="$out/target-$2" cargo build --release --offline --quiet \
        --manifest-path navbench/Cargo.toml -p navbench -p bionav-cli)
}
build "$out/base-src" base
build "$PWD" head

# run NAME SRC_DIR TRACE: one navbench run; its result object lands in
# $out/NAME.json whatever the exit code (the verdict below reads it).
run() {
    local name="$1" src="$2" trace="$3"
    echo "perf_gate: $name (trace $trace) ..." >&2
    (cd "$src" && CARGO_TARGET_DIR="$out/target-${name%%-*}" \
        bash navbench/run.sh --workload cold_explore --seed 1 --seconds 45 --trace "$trace") \
        >"$out/$name.log" || true
    tail -n 1 "$out/$name.log" >"$out/$name.json"
}

run base-1 "$out/base-src" 0
run head-1 "$PWD" 0
run head-2 "$PWD" 0
run base-2 "$out/base-src" 0
run head-traced "$PWD" 1

python3 - "$base_sha" "$out" <<'EOF'
import json, sys

base_sha, out = sys.argv[1], sys.argv[2]
FACTOR, OVERHEAD = 2.0, 0.08
runs = {}
for name in ("base-1", "head-1", "head-2", "base-2", "head-traced"):
    try:
        runs[name] = json.load(open(f"{out}/{name}.json"))
    except (OSError, ValueError) as e:
        runs[name] = {"correct": False, "failed": -1, "metrics": {}, "error": str(e)}

def metric(name, key):
    return runs[name]["metrics"].get(key, {}).get("value", float("nan"))

fails = []
for name, r in runs.items():
    ok = r.get("correct") is True and r.get("failed") == 0
    print(f"{name:<12} correct {r.get('correct')}, attempted {r.get('attempted')}, "
          f"failed {r.get('failed')}{'' if ok else '  <-- FAIL'}")
    if not ok:
        fails.append(f"{name} run is not correct with 0 failed ({out}/{name}.log)")

def mean(side, key):
    return (metric(f"{side}-1", key) + metric(f"{side}-2", key)) / 2

for key in ("expand_p50_ms", "expand_p99_ms", "open_p50_ms", "open_p90_ms", "session_p50_ms"):
    b, h = mean("base", key), mean("head", key)
    ok = h <= FACTOR * b
    print(f"{key:<18} base mean {b:.3f}  head mean {h:.3f}  "
          f"ratio {h / b if b else float('nan'):.2f} (bound {FACTOR}){'' if ok else '  <-- FAIL'}")
    if not ok:
        fails.append(f"{key} head mean {h:.3f} ms exceeds {FACTOR}x base mean {b:.3f} ms")
frac = metric("head-traced", "trace.overhead_frac")
ok = frac <= OVERHEAD
print(f"trace.overhead_frac {frac:.4f} (bound {OVERHEAD}){'' if ok else '  <-- FAIL'}")
if not ok:
    fails.append(f"trace.overhead_frac {frac:.4f} exceeds {OVERHEAD}")
print(f"base {base_sha[:12]} vs working tree")
if fails:
    print("PERF GATE FAILED:\n  " + "\n  ".join(fails))
    sys.exit(1)
print("perf gate passed")
EOF

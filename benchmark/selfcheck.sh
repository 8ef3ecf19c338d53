#!/usr/bin/env bash
# Does the benchmark agree with itself?
#
# Runs every workload untraced twice on one build and one seed, then once
# more on the next seed, and fails unless
#   * every count that repeats exactly is identical on the two same-seed
#     runs and differs on the other seed (the program is not special-casing
#     inputs);
#   * every other end-to-end metric agrees within its bound on at least
#     two of the three runs (single runs on a shared machine have outliers:
#     one run in ten sits in another regime, which the driver's quartiles
#     ignore and a pairwise comparison would not).
# Then runs the traced pipeline twice and fails unless its counts repeat.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=42
seconds=""
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: selfcheck.sh [--seed N] [--seconds S]" >&2; exit 2 ;;
  esac
done

exec python3 - "$here" "$seed" "$seconds" <<'PY'
import json, os, subprocess, sys

here, seed, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
root = os.path.dirname(here)
bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
seconds = seconds or str(bench["run_seconds"])
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
MEM = ("retwis-mesh-mem", "repair30k-mem")
# (metric, workloads) whose value is a count that repeats exactly per seed.
EXACT = {"classic_tx_ratio": None, "wire_bytes_per_update": MEM, "repair_bytes_per_key": MEM}
# Traced counts that repeat exactly per seed.
TRACED_EXACT = ["core.envelopes_per_frame", "core.useful_elems_share", "net.frames_per_update",
                "net.bytes_per_frame", "store.mem_bytes_per_object", "net.bad_frames",
                "net.queue_dropped_frames", "lattice.decode_allocs_per_call",
                "core.on_msg_allocs_per_entry", "core.digest_allocs_per_object"]

def exact(metric, workload):
    return metric in EXACT and (EXACT[metric] is None or workload in EXACT[metric])

def run(workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stdout}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}

failures = []
for w in [x["name"] for x in bench["workloads"]]:
    a, b, other = run(w, seed, 0), run(w, seed, 0), run(w, seed + 1, 0)
    for m, bound in bounds.items():
        if exact(m, w):
            ok = a[m] == b[m]
            moved = other[m] != a[m]
            print(f"{w:<16} {m:<24} {a[m]:>14.4f} == {b[m]:>14.4f}  seed+1 {other[m]:>14.4f}"
                  f"  {'exact' if ok else 'DIFFERS'}{'' if moved else '  (same on the next seed)'}")
            if not ok:
                failures.append(f"{w} {m}: {a[m]} != {b[m]} on one seed")
            # classic_tx_ratio on the two-replica pair is 1.95 whatever the keys.
            if not moved and not (m == "classic_tx_ratio" and w == "repair30k-mem"):
                failures.append(f"{w} {m}: {a[m]} on seeds {seed} and {seed + 1} alike")
        else:
            lo, mid, hi = sorted([a[m], b[m], other[m]])
            gap = min(mid - lo, hi - mid) / abs(mid)
            flag = "ok" if gap <= bound else "OVER BOUND"
            print(f"{w:<16} {m:<24} {a[m]:>14.4f} {b[m]:>14.4f}  seed+1 {other[m]:>14.4f}"
                  f"  closest pair {gap:6.3f}  bound {bound:.2f}  {flag}")
            if gap > bound:
                failures.append(f"{w} {m}: closest two of three runs differ by {gap:.3f}, bound {bound}")
    ta, tb = run(w, seed, 1), run(w, seed, 1)
    for m in TRACED_EXACT:
        print(f"{w:<16} {m:<34} {ta[m]:>14.4f} == {tb[m]:>14.4f}  {'exact' if ta[m] == tb[m] else 'DIFFERS'}")
        if ta[m] != tb[m]:
            failures.append(f"{w} {m}: traced count {ta[m]} != {tb[m]}")

if failures:
    print("\nselfcheck FAILED:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nselfcheck OK")
PY

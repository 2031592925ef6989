#!/usr/bin/env bash
# Run-to-run noise of the end-to-end metrics, measured the way the driver
# measures it: two sets of N runs per workload, every run with another
# seed, the sets interleaved (A B A B ...) so a drift hits both alike.
#
#   bash e2e-bench/noise.sh [N=10] [workload ...]  > e2e-bench/NOISE.md
#
# For every metric x workload: both medians, each set's IQR / median
# (statistics.quantiles(n=4), as the driver computes it), |A - B| / A, by
# how much B is worse than A, and pass/fail against the metric's bound in
# BENCHMARK.json. Pass means: both spreads within the bound (setup_s is not
# judged on spread) and B's median not worse than A's by more than the
# bound. The runs' outputs stay in e2e-bench/target/noise/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
n="${1:-10}"
shift || true
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=($(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'))
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out="$here/target/noise"
rm -rf "$out"
mkdir -p "$out"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$n"); do
        for set in A B; do
            seed=$i
            [ "$set" = A ] || seed=$((n + i))
            echo "run $w set $set seed $seed" >&2
            bash e2e-bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                > "$out/$w.$set.$i.out"
        done
    done
done

python3 - "$out" "$n" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
header = open(f"{out}/{workloads[0]}.A.1.out").read().splitlines()[1]
print(f"# Noise of the end-to-end metrics\n")
print(f"Two interleaved sets (A B A B ...) of {n} runs per workload, {bench['run_seconds']} s each, "
      f"a new seed every run (A: 1..{n}, B: {n + 1}..{2 * n}); `{header.lstrip('# ')}`.\n")
print("| workload | metric | median A | median B | IQR/med A | IQR/med B | abs(A-B)/A | B worse by | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|")
bad = 0
for w in workloads:
    runs = {s: [json.loads(open(f"{out}/{w}.{s}.{i}.out").read().splitlines()[-1]) for i in range(1, n + 1)]
            for s in "AB"}
    failed = sum(r["failed"] for s in "AB" for r in runs[s])
    wrong = sum(not r["correct"] for s in "AB" for r in runs[s])
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        def spread(s):
            q = statistics.quantiles(vals[s], n=4)
            return (q[2] - q[0]) / med[s]
        widest = max(spread("A"), spread("B"))
        worse = (med["B"] - med["A"]) / med["A"] * (1 if m["better"] == "lower" else -1)
        ok = worse <= bound and (name == "setup_s" or widest <= bound)
        third = name == "setup_s" or widest <= bound / 3
        bad += not ok
        verdict = ("pass" if third else "pass (spread above bound/3)") if ok else "FAIL"
        print(f"| {w} | {name} | {med['A']:.6g} | {med['B']:.6g} | {spread('A'):.4f} | {spread('B'):.4f} | "
              f"{abs(med['A'] - med['B']) / med['A']:.4f} | {worse:+.4f} | {bound} | {verdict} |")
    print(f"| {w} | failed ops / incorrect runs | {failed} | {wrong} | | | | | 0 | {'pass' if failed == wrong == 0 else 'FAIL'} |")
    bad += failed + wrong
print(f"\n{'All metrics within their bounds.' if bad == 0 else str(bad) + ' check(s) FAILED.'}")
sys.exit(1 if bad else 0)
PY

#!/usr/bin/env bash
# A/B one e2e-bench workload between a base ref and the working tree, by
# the rule a gain is claimed on (choosing-metrics section 8, ROADMAP "rules
# of engagement"): N pairs of runs, base and change alternating which goes
# first, both sides of a pair on the same seed, run length from
# BENCHMARK.json.
#
#   tools/ab.sh <base-ref> <workload> [pairs=10] [first-seed=101]
#
# The base is exported (`git archive`) under a temp dir and built there by
# its own `e2e-bench/run.sh`; the change is this checkout, built by its
# own. Nothing is written to the repository but `e2e-bench/target/`. Pick a
# first seed the change was not developed on (1-20 are NOISE.md's, 7 is
# check.sh's).
#
# Per end-to-end metric it prints each side's median and quartiles, how
# many pairs the change won (ties count for neither), the change of the
# median against the base and against the metric's bound, and a verdict:
#   gain        change wins >= 9/10 of the pairs and the medians differ by
#               more than the base's inter-quartile range
#   regression  the same with the sides swapped
#   identical   every pair reads the same on both sides
#   unresolved  anything else
# and the operations attempted/failed on each side. Runs are kept in
# e2e-bench/target/ab/<workload>/.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,26p' "$0" >&2; exit 2; }
base_ref="$1"
workload="$2"
pairs="${3:-10}"
seed0="${4:-101}"

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$root"
base_sha="$(git rev-parse --verify "$base_ref^{commit}")"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

base_dir="$(mktemp -d "${TMPDIR:-/tmp}/pmr-ab-base.XXXXXX")"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_sha" | tar -x -C "$base_dir"

out="$root/e2e-bench/target/ab/$workload"
rm -rf "$out"
mkdir -p "$out"

bench() { # bench <base|change> <run.sh arguments...>
    local dir="$root"
    [ "$1" = change ] || dir="$base_dir"
    shift
    (cd "$dir" && env -u CARGO_TARGET_DIR bash e2e-bench/run.sh --workload "$workload" --trace 0 "$@")
}

# Build both sides before the first timed pair.
for side in base change; do
    bench "$side" --seed "$seed0" --seconds 1 --smoke > /dev/null
done

for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        echo "pair $i/$pairs seed $seed: $side" >&2
        bench "$side" --seed "$seed" --seconds "$seconds" > "$out/$side.$i.out"
    done
done

python3 - "$out" "$pairs" "$workload" "$base_sha" "$seed0" <<'PY'
import json, statistics, sys
out, pairs, workload, base_sha, seed0 = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], int(sys.argv[5])
bench = json.load(open("BENCHMARK.json"))
runs = {side: [json.loads(open(f"{out}/{side}.{i}.out").read().splitlines()[-1]) for i in range(1, pairs + 1)]
        for side in ("base", "change")}
header = open(f"{out}/change.1.out").read().splitlines()[1].lstrip("# ")
print(f"## {workload}: base {base_sha[:7]} vs working tree, {pairs} alternating pairs, "
      f"seeds {seed0}..{seed0 + pairs - 1}, {bench['run_seconds']} s runs")
print(f"`{header}`\n")
print("| metric | base median [q1, q3] | change median [q1, q3] | change wins | median change | bound | verdict |")
print("|---|---|---|---|---|---|---|")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    v = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
    med = {side: statistics.median(v[side]) for side in v}
    q = {side: quartiles(v[side]) for side in v}
    better = lambda a, b: a < b if lower else a > b
    wins = sum(better(c, b) for b, c in zip(v["base"], v["change"]))
    losses = sum(better(b, c) for b, c in zip(v["base"], v["change"]))
    gap = abs(med["change"] - med["base"])
    resolved = gap > q["base"][1] - q["base"][0]
    if wins == losses == 0:
        verdict = "identical"
    elif wins * 10 >= pairs * 9 and resolved and better(med["change"], med["base"]):
        verdict = "gain"
    elif losses * 10 >= pairs * 9 and resolved and better(med["base"], med["change"]):
        verdict = "regression"
    else:
        verdict = "unresolved"
    rel = (med["change"] - med["base"]) / med["base"] if med["base"] else 0.0
    worse = rel if lower else -rel
    within = "within" if worse <= m["bound"] else "BEYOND"
    cell = lambda side: f"{med[side]:.6g} [{q[side][0]:.6g}, {q[side][1]:.6g}]"
    print(f"| {name} ({m['unit']}) | {cell('base')} | {cell('change')} | {wins}/{pairs} | {rel:+.1%} | "
          f"{m['bound']} ({within}) | {verdict} |")

for side in ("base", "change"):
    attempted = sum(r["attempted"] for r in runs[side])
    failed = sum(r["failed"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"\n{side}: {attempted} ops attempted, {failed} failed, {wrong} of {pairs} runs not correct", end="")
print()
PY

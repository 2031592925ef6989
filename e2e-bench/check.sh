#!/usr/bin/env bash
# Functional check of the benchmark, for CI: run every workload in --smoke
# mode (33^3 fields, two rounds), untraced and traced, and fail unless
#   - the run exits 0 with `"correct": true` and no failed op,
#   - its last line is a JSON object with exactly the keys the driver reads,
#   - every metric BENCHMARK.json names for that kind of run is printed
#     exactly once with its unit, and nothing else is.
#
#   bash e2e-bench/check.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
start=$SECONDS

for trace in 0 1; do
    for w in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
        bash e2e-bench/run.sh --workload "$w" --seed 7 --seconds 1 --trace "$trace" --smoke > "$log"
        python3 - "$log" "$w" "$trace" <<'PY'
import json, sys
log, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in bench["per_layer" if trace == "1" else "end_to_end"]}
lines = open(log).read().splitlines()
result = json.loads(lines[-1])
problems = []
if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
    problems.append(f"result keys are {sorted(result)}")
if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
    problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
if got != want:
    problems.append(f"missing {sorted(set(want) - set(got))}, unnamed {sorted(set(got) - set(want))}, "
                    f"wrong unit {sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
printed = [l.split() for l in lines if l.startswith("metric ")]
names = [p[1] for p in printed]
if sorted(names) != sorted(want) or any(want.get(p[1]) != p[3] for p in printed):
    problems.append(f"metric lines name {len(names)} metrics, {len(set(names))} distinct, expected {len(want)}")
if trace == "0" and any(m["value"] == 0 for m in result["metrics"].values()):
    problems.append("an end-to-end metric reads 0")
for p in problems:
    print(f"check.sh: {workload} trace={trace}: {p}", file=sys.stderr)
sys.exit(1 if problems else 0)
PY
        echo "ok $w trace=$trace"
    done
done
echo "all workloads print exactly the metrics BENCHMARK.json names ($((SECONDS - start)) s)"

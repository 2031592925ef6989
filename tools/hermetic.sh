#!/usr/bin/env bash
# Fail unless the build is hermetic: every package cargo resolves, for the
# workspace and for e2e-bench, is a path package inside this repository, and
# no [patch] table or .cargo/config file is tracked.   tools/hermetic.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for manifest in Cargo.toml e2e-bench/Cargo.toml; do
    meta="$(cargo metadata --format-version 1 --offline --manifest-path "$manifest")"
    python3 -c '
import json, sys
foreign = [p["id"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None]
sys.exit("hermetic: %s resolves packages from outside the repository: %s" % (sys.argv[1], foreign) if foreign else 0)' "$manifest" <<<"$meta"
done
files="$(git ls-files 2>/dev/null || find . -type f -not -path '*/target/*')"
bad="$(grep -E '(^|/)\.cargo/config(\.toml)?$' <<<"$files" || true)"
bad+="$(grep -E '(^|/)Cargo\.toml$' <<<"$files" | xargs grep -lE '^\[patch' || true)"
[ -z "$bad" ] || { echo "hermetic: tracked [patch] table or cargo config: $bad" >&2; exit 1; }
echo "hermetic: only workspace packages, no [patch], no tracked cargo config"

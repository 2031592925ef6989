#!/usr/bin/env bash
# Build pmr-e2e-bench (if stale) and run it: the `command` of BENCHMARK.json.
#
#   bash e2e-bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root (work directories and the pmrd socket are
# addressed relative to it). Never touches the network: the workspace's
# registry crates are used if cargo already has them locally, otherwise
# the stand-ins under stand-ins/ are patched in from here — not from the
# manifest — and every run header says which (`dependencies=`). Numbers
# are only comparable within one of the two.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
[ -f "$here/../Cargo.toml" ] && [ -d "$here/../crates" ] || {
    echo "error: $here is not inside the pmr repository (no ../Cargo.toml and ../crates)" >&2
    exit 1
}

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started in, which is the caller's.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

stand_ins=()
for crate in serde rand bytes crossbeam parking_lot; do
    stand_ins+=(--config "patch.crates-io.$crate.path=\"$here/stand-ins/$crate\"")
done

mode_file="$target/pmr-e2e-deps"
mode="$(cat "$mode_file" 2>/dev/null || true)"
build() { # build <mode>: quiet unless it fails
    local log
    if [ "$1" = registry ]; then
        log="$(cargo build --release --offline --manifest-path "$manifest" 2>&1)"
    else
        log="$(cargo build --release --offline --manifest-path "$manifest" "${stand_ins[@]}" 2>&1)"
    fi || { printf '%s\n' "$log" >&2; return 1; }
}
if [ -z "$mode" ]; then
    if build registry 2>/dev/null; then
        mode=registry
    else
        rm -f "$here/Cargo.lock"
        build stand-ins
        mode=stand-ins
    fi
    mkdir -p "$target"
    printf '%s\n' "$mode" > "$mode_file"
else
    build "$mode"
fi

PMR_E2E_DEPS="$mode" exec "$target/release/pmr-e2e-bench" --dir "${here#"$PWD"/}/target" "$@"

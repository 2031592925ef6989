#!/usr/bin/env bash
# Prove that clippy catches what it is trusted with: plant one plausible bug
# per check denied at the crate roots (an undocumented `unsafe`, a lossy
# cast, a nondeterministic container, a discarded `Result`) into a scratch
# copy of the workspace, one at a time, and fail unless
# `cargo clippy -D warnings` fails naming that lint in the planted file.
# Each plant is an exact-string edit, so a moved anchor fails loudly instead
# of turning a probe into a no-op.   tools/clippy_probes.sh
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do if [ -f "$f" ]; then printf '%s\0' "$f"; fi; done \
    | xargs -0 cp --parents -t "$work")
export CARGO_TARGET_DIR="$work/target"

# plant FILE LINT PACKAGE ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...
plant() {
    local file="$1" lint="$2" pkg="$3"
    shift 3
    cp "$work/$file" "$work/$file.orig"
    python3 - "$work/$file" "$@" <<'EOF'
import sys
path, edits = sys.argv[1], sys.argv[2:]
src = open(path).read()
for anchor, edit in zip(edits[::2], edits[1::2]):
    if anchor not in src:
        sys.exit(f"anchor moved in {path}: {anchor!r}")
    src = src.replace(anchor, edit, 1)
open(path, "w").write(src)
EOF
    local out status=0
    out="$(cd "$work" && cargo clippy -q -p "$pkg" --message-format=json -- -D warnings \
        2>"$work/stderr")" || status=$?
    mv "$work/$file.orig" "$work/$file"
    if [ "$status" -eq 0 ]; then
        echo "clippy_probes: $lint probe in $file went silent" >&2
        exit 1
    fi
    if ! grep -F "\"code\":\"$lint\"" <<<"$out" | grep -qF "\"file_name\":\"$file\""; then
        echo "clippy_probes: clippy failed on the $lint probe in $file without naming it" >&2
        cat "$work/stderr" >&2
        exit 1
    fi
    echo "clippy_probes: $lint caught in $file"
}

# The pool's lifetime-erasing transmute loses its safety argument.
plant crates/mgard/src/exec.rs clippy::undocumented_unsafe_blocks pmr-mgard \
    "            // SAFETY: only the lifetime is erased, and by the above no worker
            // holds or can still take the reference once \`task\`'s borrow ends.
" ""

# A transpose stage truncated through a `u64 as u8` cast.
plant crates/codec/src/transpose.rs clippy::cast_possible_truncation pmr-codec \
    "let t = (x[k] ^ (x[k + j] >> j)) & m;" \
    "let t = u64::from(((x[k] ^ (x[k + j] >> j)) & m) as u8);"

# Fault-injection attempt counters in a `HashMap`.
plant crates/storage/src/fault.rs clippy::disallowed_types pmr-storage \
    "attempts: Mutex<BTreeMap<SegmentKey, u32>>," \
    "attempts: Mutex<std::collections::HashMap<SegmentKey, u32>>," \
    "attempts: Mutex::new(BTreeMap::new())," \
    "attempts: Mutex::new(std::collections::HashMap::new()),"

# A failed sync of a batch write is dropped, so the batch is acked.
plant crates/storage/src/segment.rs clippy::let_underscore_must_use pmr-storage \
    ".and_then(|()| sync(file, true).map_err(io));" \
    ".and_then(|()| {
                let _ = sync(file, true);
                Ok(())
            });"

# The unplanted copy is clean, so each failure above is the plant's.
(cd "$work" && cargo clippy -q -p pmr-mgard -p pmr-codec -p pmr-storage -- -D warnings)
echo "clippy_probes: 4 probes caught, unplanted copy clean"

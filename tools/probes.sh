#!/usr/bin/env bash
# Prove that the toolchain and the tests catch what they are trusted with.
# Each probe plants one plausible bug into a scratch copy of the workspace,
# one at a time, and fails unless
#  - `cargo clippy -D warnings` fails naming the lint in the planted file (a
#    panic, an undocumented `unsafe`, a lossy cast, a nondeterministic
#    container, a discarded `Result`), or
#  - `cargo test` of the planted crate fails with the ranked locks' panic (a
#    lock taken out of rank order, `pmr_error::sync`), or
#  - the hostile-input oracle (`cargo test -p pmr-conformance --test
#    hostile`) fails with a `hostile: ` line (a header-sized allocation, an
#    unverified payload, an unbounded wire count, an unchecked slice).
# Each plant is an exact-string edit, so a moved anchor fails loudly instead
# of turning a probe into a no-op.   tools/probes.sh
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do if [ -f "$f" ]; then printf '%s\0' "$f"; fi; done \
    | xargs -0 cp --parents -t "$work")
export CARGO_TARGET_DIR="$work/target"

# edit FILE ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...: plant into the copy,
# keeping the original beside it for `restore`.
edit() {
    local file="$1"
    shift
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
}

# restore FILE: undo the plant. The touch makes the file newer than what was
# built from the plant, or cargo would take that build for fresh.
restore() {
    mv "$work/$1.orig" "$work/$1"
    touch "$work/$1"
}

# plant FILE LINT PACKAGE ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...
plant() {
    local file="$1" lint="$2" pkg="$3"
    shift 3
    edit "$file" "$@"
    local out status=0
    out="$(cd "$work" && cargo clippy -q -p "$pkg" --message-format=json -- -D warnings \
        2>"$work/stderr")" || status=$?
    restore "$file"
    if [ "$status" -eq 0 ]; then
        echo "probes: $lint probe in $file went silent" >&2
        exit 1
    fi
    # No `grep -q` in the pipe: under `pipefail` its early exit can kill the
    # first grep with SIGPIPE and fail the match that it found.
    if ! grep -F "\"code\":\"$lint\"" <<<"$out" | grep -F "\"file_name\":\"$file\"" >/dev/null; then
        echo "probes: clippy failed on the $lint probe in $file without naming it" >&2
        cat "$work/stderr" >&2
        exit 1
    fi
    echo "probes: $lint caught in $file"
}

# plant_rank FILE PACKAGE ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...
plant_rank() {
    local file="$1" pkg="$2"
    shift 2
    edit "$file" "$@"
    local status=0
    (cd "$work" && cargo test -q -p "$pkg" --lib >"$work/out" 2>&1) || status=$?
    restore "$file"
    if [ "$status" -eq 0 ]; then
        echo "probes: lock-rank probe in $file went silent" >&2
        exit 1
    fi
    if ! grep -q "taken while this thread holds rank" "$work/out"; then
        echo "probes: cargo test -p $pkg failed on the probe in $file without a rank panic" >&2
        cat "$work/out" >&2
        exit 1
    fi
    echo "probes: lock-rank panic caught in $file"
}

# plant_oracle FILE ANCHOR REPLACEMENT [ANCHOR REPLACEMENT]...: an
# over-cap abort counts as the oracle's failure too.
plant_oracle() {
    local file="$1"
    shift
    edit "$file" "$@"
    local status=0
    (cd "$work" && RUST_BACKTRACE=0 cargo test -q -p pmr-conformance --test hostile \
        >"$work/out" 2>&1) || status=$?
    restore "$file"
    if [ "$status" -eq 0 ]; then
        echo "probes: hostile-input probe in $file went silent" >&2
        exit 1
    fi
    local line
    if ! line="$(grep -m1 -A1 "hostile: " "$work/out" | sed 's/^.*hostile: /hostile: /')"; then
        echo "probes: the oracle failed on the probe in $file without a hostile: line" >&2
        cat "$work/out" >&2
        exit 1
    fi
    echo "probes: hostile-input oracle caught the probe in $file:"
    echo "$line"
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
    "attempts: Mutex::new(rank::FAULT_ATTEMPTS, BTreeMap::new())," \
    "attempts: Mutex::new(rank::FAULT_ATTEMPTS, std::collections::HashMap::new()),"

# A failed sync of a batch write is dropped, so the batch is acked.
plant crates/storage/src/segment.rs clippy::let_underscore_must_use pmr-storage \
    ".and_then(|()| sync(file, true).map_err(io));" \
    ".and_then(|()| {
                let _ = sync(file, true);
                Ok(())
            });"

# A batch result unwrapped in `fan_out` instead of flattened.
plant crates/mgard/src/exec.rs clippy::unwrap_used pmr-mgard \
    "out.into_iter().flatten().collect()" \
    "out.into_iter().map(|s| s.unwrap()).collect()"

# The pool's lock taken twice in `offer_task`: a self-deadlock.
plant_rank crates/mgard/src/exec.rs pmr-mgard \
    "            let mut st = self.state.lock();
" "            let mut st = self.state.lock();
            let _again = self.state.lock();
"

# An AB/BA cycle in `FaultInjector`: `log()` takes `attempts` under `log`,
# while `fetch` records a fault under `attempts`.
plant_rank crates/storage/src/fault.rs pmr-storage \
    "        self.log.lock().clone()
" "        let log = self.log.lock();
        let _seen = self.attempts.lock().len();
        log.clone()
" \
    "            *n += 1;
" "            *n += 1;
            self.record(key, *n, FaultKind::Transient);
"

# A field file's header sizes an allocation before the grid is checked.
plant_oracle crates/field/src/io.rs \
    "    let points = dx.checked_mul(dy)" \
    "    let early: Vec<u8> = Vec::with_capacity(dx);
    let points = dx.checked_mul(dy)"

# A level is loaded with its digests never compared.
plant_oracle crates/mgard/src/persist.rs \
    "        verify_checksums(l, &enc, stored)?;
" ""

# A wire count sizes a list without the protocol's bound.
plant_oracle crates/pmrd/src/protocol.rs \
    "    if n > MAX_WIRE_LIST {
        return Err(proto_err(format!(\"{what} count {n} exceeds {MAX_WIRE_LIST}\")));
    }
" ""

# A wire string length slices the frame directly instead of going through
# the shared reader's bounds-checked string read.
plant_oracle crates/pmrd/src/protocol.rs \
    "Ok(r.str(len)?.to_owned())" \
    "Ok(String::from_utf8_lossy(&r.rest()[..len]).into_owned())"

# The unplanted copy is clean, so each failure above is the plant's.
(cd "$work" && cargo clippy -q -p pmr-mgard -p pmr-codec -p pmr-storage -- -D warnings)
(cd "$work" && cargo test -q -p pmr-mgard -p pmr-storage --lib >/dev/null)
(cd "$work" && cargo test -q -p pmr-conformance --test hostile >/dev/null)
echo "probes: 11 probes caught, unplanted copy clean"

#!/usr/bin/env bash
# Runs the program's own tests without a crates registry.
#
# The root workspace names eight third-party crates and stops at
# `no matching package named criterion` when the registry is unreachable.
# This script copies the tree to a scratch directory, points the copy's
# root manifest at the std-only stand-ins the benchmark already ships
# (`benchmark/shims/*`) plus two empty stub crates for `proptest` and
# `criterion`, and runs every test target that does not use those two:
# the crates syd-net, syd-calendar, syd-core, syd-fleet, syd-bidding and
# the root suites full_stack, paper_walkthrough, churn, trace_assembly,
# check_stress. The checkout itself is never modified.
#
#   scripts/offline-test.sh            # the whole list below
#   scripts/offline-test.sh -p syd-core engine::   # any `cargo test` arguments instead
#
# Build ≈ 30 s, tests ≈ 2 min on two cores.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/syd-offline-test.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# The tree as it stands (uncommitted edits included), minus build outputs.
tar -C "$root" \
    --exclude=./.git --exclude=./target --exclude=./.bench_build \
    --exclude=./benchmark/target --exclude=./benchmark/out --exclude=./Cargo.lock \
    -cf - . | tar -C "$work" -xf -

stub() { # name version
    mkdir -p "$work/stubs/$1/src"
    printf '[package]\nname = "%s"\nversion = "%s"\nedition = "2021"\npublish = false\n' \
        "$1" "$2" >"$work/stubs/$1/Cargo.toml"
    : >"$work/stubs/$1/src/lib.rs"
}
stub proptest 1.4.0
stub criterion 0.5.1

# `exclude` belongs to the [workspace] table at the top of the manifest;
# the patch table can go at the end.
sed -i 's|^members = \["crates/\*"\]$|&\nexclude = ["benchmark", "stubs"]|' "$work/Cargo.toml"
grep -q '^exclude = \["benchmark", "stubs"\]$' "$work/Cargo.toml" || {
    echo "offline-test: could not add the workspace exclude to Cargo.toml" >&2
    exit 1
}
cat >>"$work/Cargo.toml" <<'EOF'

[patch.crates-io]
parking_lot = { path = "benchmark/shims/parking_lot" }
crossbeam = { path = "benchmark/shims/crossbeam" }
crossbeam-channel = { path = "benchmark/shims/crossbeam-channel" }
bytes = { path = "benchmark/shims/bytes" }
rand = { path = "benchmark/shims/rand" }
serde = { path = "benchmark/shims/serde" }
proptest = { path = "stubs/proptest" }
criterion = { path = "stubs/criterion" }
EOF

cd "$work"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
if [ "$#" -gt 0 ]; then
    cargo test --release --offline "$@"
else
    # Run every target even when one fails, so one report covers them all.
    status=0
    cargo test --release --offline --no-fail-fast \
        -p syd-net -p syd-calendar -p syd-core -p syd-fleet -p syd-bidding || status=$?
    cargo test --release --offline --no-fail-fast -p syd \
        --test full_stack --test paper_walkthrough --test churn \
        --test trace_assembly --test check_stress || status=$?
    exit "$status"
fi

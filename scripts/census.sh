#!/usr/bin/env bash
# How much code and how many switches the workspace carries — ROADMAP
# item 7's "least code" as numbers that any checkout can reproduce.
# Plain find/wc/grep: no cargo, no registry, no build.
#
#   scripts/census.sh            # this checkout
#   scripts/census.sh /some/dir  # another checkout (e.g. the parent commit)
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

lines() { # total lines of the .rs files under the given directories
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 cat | wc -l
}

test_lines() { # of those, the lines from each file's first #[cfg(test)] mod on,
    # its attribute lines included; a #[cfg(test)] field or statement
    # before it is program code
    find "$@" -name '*.rs' -print0 2>/dev/null |
        xargs -0 awk '
            FNR == 1 { t = 0; k = 0 }
            t { n++; next }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*(pub(\([a-z]+\))? )?mod / { t = 1; n++; next }
            /^[[:space:]]*#\[cfg\(test\)\]/ { k = 1; next }
            k && /^[[:space:]]*#\[/ { k++; next }
            k && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { t = 1; n += k + 1 }
            { k = 0 }
            END { print n + 0 }'
}

# A runtime switch is a public one-bool setter in syd-net / syd-core, or
# an environment variable read by library (non-`bin/`) code.
setters=$(grep -rhoE 'pub fn set_[a-z_]+\((&self, )?[a-z_]+: bool\)' \
    crates/net/src crates/core/src | sed -E 's/pub fn ([a-z_]+).*/\1/' | sort)
env_reads=$(grep -rn 'std::env::var(' crates/*/src src --include='*.rs' |
    grep -v '/bin/' | sed -E 's/^([^:]+:[0-9]+):.*/\1/' || true)
count() { printf '%s' "$1" | grep -c . || true; }

echo "src_lines        $(lines crates/*/src src)"
echo "src_test_lines   $(test_lines crates/*/src src)"
echo "test_lines       $(lines crates/*/tests tests)"
echo "crates           $(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)"
echo "third_party_deps $(sed -n '/^\[workspace.dependencies\]/,/^\[/p' Cargo.toml |
    grep -E '^[a-z_-]+ *=' | grep -vc 'path *=')"
echo "runtime_switches $(($(count "$setters") + $(count "$env_reads")))"
for s in $setters; do echo "  setter  $s"; done
for e in $env_reads; do echo "  env     $e"; done

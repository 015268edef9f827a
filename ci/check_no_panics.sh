#!/usr/bin/env bash
# Panic hygiene gate for the library crates.
#
# Scans the non-test portion of every source file in the workspace's
# library crates (ggs-graph, ggs-sim, ggs-model, ggs-core, ggs-trace,
# ggs-check, ggs-apps, ggs-verify, ggs-bench) for panic sites
# (`.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`) and for
# unfinished-code markers (`todo!(`, `unimplemented!(`), which are never
# acceptable outside tests. Scanning stops at the first `#[cfg(test` in
# each file, so unit tests may panic freely. Lines that are pure `//`
# comments are ignored, as is anything matching a substring in
# ci/panic-allowlist.txt (internal invariants with descriptive messages
# — see docs/api.md). An allowlist pattern that matches no scanned site
# is stale and fails the check, so exemptions cannot outlive the code
# they excuse.
#
# The vendored shim crates (shim-criterion, shim-proptest, shim-rand)
# are test infrastructure by definition and are not scanned.
#
# Bare `assert!`/`assert_eq!` are deliberately allowed: they express
# internal invariants, and converting them would hide bugs, not report
# errors.
set -euo pipefail

cd "$(dirname "$0")/.."
allowlist=ci/panic-allowlist.txt
crates="graph sim model core trace check apps verify bench"

patterns=()
while IFS= read -r pat; do
    case "$pat" in ''|'#'*) continue ;; esac
    patterns+=("$pat")
done < "$allowlist"
used=()

fail=0
for crate in $crates; do
    for file in $(find "crates/$crate/src" -name '*.rs' | sort); do
        hits=$(awk '
            /#\[cfg\(test/ { exit }
            /^[[:space:]]*\/\// { next }
            /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ {
                printf "%s:%d: %s\n", FILENAME, FNR, $0
            }
        ' "$file")
        [ -z "$hits" ] && continue
        while IFS= read -r hit; do
            allowed=0
            for i in "${!patterns[@]}"; do
                case "$hit" in *"${patterns[$i]}"*) allowed=1; used[$i]=1 ;; esac
            done
            if [ "$allowed" -eq 0 ]; then
                echo "PANIC SITE: $hit"
                fail=1
            fi
        done <<< "$hits"
    done
done

for i in "${!patterns[@]}"; do
    if [ -z "${used[$i]:-}" ]; then
        echo "STALE ALLOWLIST ENTRY: ${patterns[$i]}"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo
    echo "Panic sites found outside ci/panic-allowlist.txt, or allowlist" >&2
    echo "entries that match no site." >&2
    echo "Convert panic sites to GgsError (see docs/api.md) or, for genuine" >&2
    echo "internal invariants, add the line's distinctive substring to" >&2
    echo "the allowlist with a justification comment; delete stale" >&2
    echo "entries together with their comment. todo!() and" >&2
    echo "unimplemented!() are never allowed outside tests." >&2
    exit 1
fi
echo "panic check: clean (crates: $crates)"

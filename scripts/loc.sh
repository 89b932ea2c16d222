#!/usr/bin/env bash
# Non-test lines of crate code: for every Rust file under crates/*/src,
# the lines before its first `#[cfg(test)]` (the whole file when it has
# none), summed.  Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 -n1 sed '/#\[cfg(test)\]/,$d' | wc -l

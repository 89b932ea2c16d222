#!/usr/bin/env bash
# Shipped code has a shipped caller: fail when a non-test `pub` or
# `pub(crate)` fn under crates/*/src is named nowhere in shipped code but
# at its own definition, unless scripts/callers.allow lists it with a
# reason.  Also fail on a stale allow-list entry: a name that gained a
# shipped caller or is no longer defined.
#
# Shipped code is the non-test part (the lines before a file's first
# `#[cfg(test)]`, comment lines dropped) of crates/*/src, crates/*/benches,
# benchmark/src and examples.  Matching is by name only, so two functions
# that share a name count each other's calls: the list of callerless
# functions this prints is a lower bound.
#
# Run from anywhere: scripts/callers.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and join

ALLOW=scripts/callers.allow

non_test() {
    find "$@" -name '*.rs' -print0 | sort -z |
        xargs -0 -n1 sed '/#\[cfg(test)\]/,$d' | grep -vE '^\s*//' || true
}

# Every defined name: `pub fn` / `pub(crate) fn`, with optional
# `const` / `unsafe` qualifiers.
defined="$(non_test crates/*/src |
    grep -oE '^\s*pub(\(crate\))? +((const|unsafe) +)*fn +[A-Za-z_][A-Za-z0-9_]*' |
    sed -E 's/.*fn +//' | sort -u)"

# Every name used in shipped code: each identifier that is not the name
# in a `fn NAME` definition (of any visibility).
used="$(non_test crates/*/src crates/*/benches benchmark/src examples |
    awk '{
        line = $0
        while (match(line, /(fn +)?[A-Za-z_][A-Za-z0-9_]*/)) {
            tok = substr(line, RSTART, RLENGTH)
            if (tok !~ /^fn +/) seen[tok] = 1
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END { for (t in seen) print t }' | sort)"

callerless="$(join -v1 <(echo "$defined") <(echo "$used") || true)"

# Allow-list: `name  # reason`; every entry needs its reason.
allowed="$(sed -E 's/\s*$//' "$ALLOW" | grep -vE '^(#|$)' || true)"
status=0
if grep -vE '^[A-Za-z_][A-Za-z0-9_]*\s+#\s*\S' <<<"$allowed" | grep .; then
    echo "error: $ALLOW entries above give no reason (\`name  # why\`)" >&2
    status=1
fi
allowed_names="$(awk '{print $1}' <<<"$allowed" | sort -u)"

unlisted="$(join -v1 <(echo "$callerless") <(echo "$allowed_names") || true)"
if [[ -n "$unlisted" ]]; then
    for name in $unlisted; do
        grep -rnE "^\s*pub(\(crate\))? +((const|unsafe) +)*fn +$name\b" crates/*/src | head -1
    done
    echo "error: the functions above have no caller in shipped code; delete them, move them into the test module, or list them in $ALLOW with a reason" >&2
    status=1
fi
for name in $(join -v1 <(echo "$allowed_names") <(echo "$callerless") || true); do
    if grep -qx "$name" <<<"$defined"; then
        echo "error: $ALLOW lists \`$name\`, which now has a shipped caller; drop the entry" >&2
    else
        echo "error: $ALLOW lists \`$name\`, which no crate defines; drop the entry" >&2
    fi
    status=1
done
[[ $status -eq 0 ]] && echo "every pub fn under crates/*/src has a shipped caller ($(wc -l <<<"$defined") names, $(wc -l <<<"$allowed_names") allowed)"
exit $status

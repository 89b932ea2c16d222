#!/usr/bin/env bash
# Shipped code has a shipped caller: fail when a non-test `pub` or
# `pub(crate)` fn under crates/*/src is named nowhere in shipped code but
# at its own definition, unless scripts/callers.allow lists it with a
# reason.  Also fail on a stale allow-list entry: a name that gained a
# shipped caller or is no longer defined.
#
# Shipped code is the non-test part (the lines before a file's first
# `#[cfg(test)]`, comment lines dropped) of crates/*/src, crates/*/benches,
# benchmark/src and examples.
#
# Matching is receiver-aware.  A method is keyed `Type::name` by the type
# its top-level `impl` block names; a free function by its bare name.  A
# use counts for `Type::name` when it is the path `Type::name` (or
# `Self::name` inside that type's `impl`), `self.name(..)` inside it, or
# `recv.name(..)` where shipped code declares `recv` (`recv: Type`,
# `let recv = Type::..`, or `let recv = &a.field;` with `field: Type`)
# with a type that defines `name`: the calling file's declarations of
# `recv` if it has any, else those of every file.  A call whose receiver cannot be typed
# that way counts for every type that defines the name, so the list of
# callerless functions is still a lower bound.
#
# Run from anywhere: scripts/callers.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and join

ALLOW=scripts/callers.allow

# `scan defined FILES..` prints every definition key; `scan used DEFS
# FILES..` every use key, given the definition keys in file DEFS.
scan() {
    perl -e '
        use strict;
        my $mode = shift;
        my %defines;
        if ($mode eq "used") {
            open my $d, "<", shift or die;
            chomp, $defines{$_} = 1 while <$d>;
        }
        sub impl_type {
            my $s = shift;
            $s =~ s/^impl\s*//;
            $s =~ s/^<(?:[^<>]|<[^<>]*>)*>\s*//;  # impl generics
            $s =~ s/^.*?\bfor\s+//;               # `Trait for Type`
            $s =~ s/^(?:&(?:\x27\w+\s+)?)?(?:mut\s+)?(?:\w+::)*//;
            return $s =~ /^(\w+)/ ? $1 : "";
        }
        my %code;  # file -> its shipped lines
        for my $file (@ARGV) {
            open my $fh, "<", $file or die "$file: $!";
            while (<$fh>) {
                last if /#\[cfg\(test\)\]/;
                push @{ $code{$file} }, $_ unless m{^\s*//};
            }
        }
        # The types each lower-case name (field, parameter or binding) is
        # declared with, per file and over all files, and the names a
        # `let` binds to a field.
        my (%bound, %alias);
        for my $file (keys %code) {
            for (@{ $code{$file} }) {
                $bound{$file}{$1}{$2} = $bound{""}{$1}{$2} = 1
                    while /\b([a-z_]\w*)\s*:\s*(?:&(?:\x27\w+\s+)?)?(?:mut\s+)?(?:\w+::)*([A-Z]\w*)/g;
                $bound{$file}{$1}{$2} = $bound{""}{$1}{$2} = 1
                    while /\blet\s+(?:mut\s+)?([a-z_]\w*)\s*=\s*&?(?:mut\s+)?(?:[a-z_]\w*::)*([A-Z]\w*)(?:<[^<>]*>)?::/g;
                $alias{$file}{$1}{$2} = 1
                    while /\blet\s+(?:mut\s+)?([a-z_]\w*)\s*=\s*&?(?:mut\s+)?[\w.]*\.([a-z_]\w*);/g;
            }
        }
        for my $file (keys %alias) {
            for my $name (keys %{ $alias{$file} }) {
                $bound{$file}{$name}{$_} = 1
                    for map { keys %{ $bound{""}{$_} // {} } } keys %{ $alias{$file}{$name} };
            }
        }
        for my $file (sort keys %code) {
            my $ty = "";  # the type the enclosing top-level impl names
            if ($mode eq "defined") {
                for (@{ $code{$file} }) {
                    $ty = impl_type($_) if /^impl\b/;
                    $ty = "" if /^\}/;
                    print $1 ne "" && $ty ne "" ? "${ty}::$2\n" : "$2\n"
                        if /^(\s*)pub(?:\(crate\))? +(?:(?:const|unsafe) +)*fn +(\w+)/;
                }
                next;
            }
            for (@{ $code{$file} }) {
                $ty = impl_type($_) if /^impl\b/;
                $ty = "" if /^\}/;
                while (/\b([A-Z]\w*)(?:(?:::)?<[^<>]*>)?::([a-z_]\w*)/g) {
                    print $1 eq "Self" ? "${ty}::$2\n" : "$1::$2\n";
                }
                while (/(?:\b(\w+)|[)\]])?\s*\.\s*([a-z_]\w*)\s*(?:\(|::<)/g) {
                    my ($recv, $name) = ($1 // "", $2);
                    my @types = $recv eq "self" && $ty ne "" ? ($ty)
                        : grep { $defines{"${_}::$name"} }
                        keys %{ $bound{$file}{$recv} // $bound{""}{$recv} // {} };
                    print @types ? map({ "${_}::$name\n" } @types) : "*::$name\n";
                }
                while (/(fn\s+)?\b([A-Za-z_]\w*)/g) {
                    print "$2\n" unless $1;
                }
            }
        }' "$@"
}

files() { find "$@" -name '*.rs' -print0 | sort -z | xargs -0 echo; }

defs_file="$(mktemp)"
trap 'rm -f "$defs_file"' EXIT
# shellcheck disable=SC2046  # file paths hold no spaces
scan defined $(files crates/*/src) | sort -u >"$defs_file"
defined="$(cat "$defs_file")"
# shellcheck disable=SC2046
used="$(scan used "$defs_file" $(files crates/*/src crates/*/benches benchmark/src examples) | sort -u)"

# A method is used through its own key or through an untyped call of its
# name (`*::name`); a free function through its bare name.
callerless="$(while read -r key; do
    name="${key##*::}"
    if [[ $key == *::* ]]; then
        grep -qxF -e "$key" -e "*::$name" <<<"$used" || echo "$key"
    else
        grep -qxF "$key" <<<"$used" || echo "$key"
    fi
done <<<"$defined" | sort)"

# Allow-list: `key  # reason`; every entry needs its reason.
allowed="$(sed -E 's/\s*$//' "$ALLOW" | grep -vE '^(#|$)' || true)"
status=0
if grep -vE '^[A-Za-z_][A-Za-z0-9_:]*\s+#\s*\S' <<<"$allowed" | grep .; then
    echo "error: $ALLOW entries above give no reason (\`key  # why\`)" >&2
    status=1
fi
allowed_keys="$(awk '{print $1}' <<<"$allowed" | sort -u)"

unlisted="$(join -v1 <(echo "$callerless") <(echo "$allowed_keys") || true)"
if [[ -n "$unlisted" ]]; then
    for key in $unlisted; do
        grep -rnE "^\s*pub(\(crate\))? +((const|unsafe) +)*fn +${key##*::}\b" crates/*/src |
            head -1 | sed "s|\$|    [$key]|"
    done
    echo "error: the functions above have no caller in shipped code; delete them, move them into the test module, or list them in $ALLOW with a reason" >&2
    status=1
fi
for key in $(join -v1 <(echo "$allowed_keys") <(echo "$callerless") || true); do
    if grep -qxF "$key" <<<"$defined"; then
        echo "error: $ALLOW lists \`$key\`, which now has a shipped caller; drop the entry" >&2
    else
        echo "error: $ALLOW lists \`$key\`, which no crate defines; drop the entry" >&2
    fi
    status=1
done
[[ $status -eq 0 ]] && echo "every pub fn under crates/*/src has a shipped caller ($(wc -l <<<"$defined") keys, $(wc -l <<<"$allowed_keys") allowed)"
exit $status

#!/bin/sh
# Command-line contract of the tools: a bad flag exits 2 before
# anything runs, and fuzz_reconfig --help names every flag.
#
#   cli_flags.sh <cash_serviced> <cash_loadgen> <fuzz_reconfig>
#
# A daemon refusing a flag must exit 2 without creating its socket;
# one that starts instead is killed after 10 s and fails the check.
# Registered as a ctest in tests/CMakeLists.txt.
set -u

SERVICED=$1
LOADGEN=$2
FUZZ=$3

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
SOCK="$DIR/cash.sock"
FAILED=0

fail() {
    echo "cli_flags: $*" >&2
    FAILED=1
}

# expect_refused <what> <command...>: exit 2, no socket left behind.
expect_refused() {
    what=$1
    shift
    timeout 10 "$@" > "$DIR/out" 2> "$DIR/err"
    code=$?
    if [ "$code" -ne 2 ]; then
        fail "$what: exit $code, want 2"
        cat "$DIR/err" >&2
    elif [ -e "$SOCK" ]; then
        fail "$what: the socket was created"
    fi
    rm -f "$SOCK"
}

expect_refused "--quantum 0" "$SERVICED" --unix "$SOCK" --quantum 0
expect_refused "--quantum abc" "$SERVICED" --unix "$SOCK" --quantum abc
expect_refused "--migrate-frag abc" \
    "$SERVICED" --unix "$SOCK" --migrate-frag abc
expect_refused "--queue-cap -1" "$SERVICED" --unix "$SOCK" --queue-cap -1
expect_refused "--seed 12x" "$SERVICED" --unix "$SOCK" --seed 12x
expect_refused "--tcp abc" "$SERVICED" --tcp abc
for flag in --deadline-ms --max-batch --max-frame; do
    expect_refused "$flag (removed)" "$SERVICED" --unix "$SOCK" $flag 8
done
expect_refused "--coarse (removed)" "$SERVICED" --unix "$SOCK" --coarse
expect_refused "loadgen --sessions abc" \
    "$LOADGEN" --unix "$SOCK" --sessions abc
expect_refused "loadgen --step-prob 2" \
    "$LOADGEN" --unix "$SOCK" --step-prob 2
expect_refused "fuzz_reconfig --seeds abc" "$FUZZ" --seeds abc
expect_refused "fuzz_reconfig --bogus" "$FUZZ" --bogus

if ! "$FUZZ" --help > "$DIR/help"; then
    fail "fuzz_reconfig --help did not exit 0"
fi
for flag in --seeds --seed --start --ops --mode --inject --sampled \
    --no-shrink --verbose --trace --metrics; do
    grep -q -- "^  $flag " "$DIR/help" \
        || fail "fuzz_reconfig --help does not list $flag"
done

[ "$FAILED" -eq 0 ] || exit 1
echo "cli_flags: OK"

#!/bin/sh
# Region smoke test: cash_serviced as a multi-shard region under
# concurrent load with cross-shard migrations — both client-driven
# (loadgen --migrate-prob) and trigger-driven (aggressive rebalance
# thresholds) — then a SIGTERM drain that must exit 0 with ONE
# aggregated, audited bill report on stdout. Fails unless at least
# one migration actually happened, and unless the daemon's stats line
# counts the requests and queue_full answers the loadgen saw. Used as
# a ctest and by the CI region job.
set -eu

SERVICED=$1
LOADGEN=$2
SHARDS=${3:-4}
SESSIONS=${4:-16}
REQUESTS=${5:-48}

DIR=$(mktemp -d)
SOCK="$DIR/cash.sock"
OUT="$DIR/serviced.out"
ERR="$DIR/serviced.err"
LG="$DIR/loadgen.out"

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

# Aggressive triggers so even a short run plans rebalances:
# fragmentation over 0.5 or a 5% free-Slice imbalance migrates a
# tenant, with a 2-round cooldown per shard. Small rows/quantum keep
# the per-step simulation cost low — this test is about the region
# plumbing, not fabric scale.
"$SERVICED" --unix "$SOCK" --shards "$SHARDS" \
    --queue-cap 512 --rows 4 --quantum 100000 \
    --migrate-frag 0.5 --migrate-imbalance 0.05 \
    --migrate-cooldown 2 > "$OUT" 2> "$ERR" &
PID=$!

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "region_smoke: socket never appeared" >&2
        cat "$ERR" >&2
        exit 1
    fi
    sleep 0.05
done

# The op mix includes explicit migrations; every session must get
# every response (dropped=0 is loadgen's exit-0 contract).
"$LOADGEN" --unix "$SOCK" --sessions "$SESSIONS" \
    --requests "$REQUESTS" --migrate-prob 0.10 --step-prob 0.20 \
    --seed 5 > "$LG" || { cat "$LG"; exit 1; }
cat "$LG"

kill -TERM "$PID"
if ! wait "$PID"; then
    echo "region_smoke: serviced did not drain cleanly" >&2
    cat "$ERR" >&2
    exit 1
fi
PID=

# The fleet drain report: one JSON object aggregating every shard.
if ! grep -q '"ok":true' "$OUT"; then
    echo "region_smoke: no aggregated drain report on stdout:" >&2
    cat "$OUT" >&2
    exit 1
fi

# At least one cross-shard migration must have completed (the
# daemon's stderr stats line reports the region counters).
MIGRATIONS=$(sed -n 's/.*migrations=\([0-9]*\).*/\1/p' "$ERR" | tail -1)
if [ -z "$MIGRATIONS" ] || [ "$MIGRATIONS" -lt 1 ]; then
    echo "region_smoke: no migrations happened" \
         "(migrations='${MIGRATIONS:-}')" >&2
    cat "$ERR" >&2
    exit 1
fi

# The stats line reads the always-on counters: across every shard,
# its request and queue_full counts must equal what the loadgen saw.
STATS=$(grep 'request(s) over' "$ERR" || true)
SENT=$(sed -n 's/^loadgen: .* sent=\([0-9]*\) .*/\1/p' "$LG")
LG_FULL=$(sed -n 's/^loadgen: .* queue_full=\([0-9]*\) .*/\1/p' "$LG")
REQS=$(echo "$STATS" | sed -n 's/.* \([0-9]*\) request(s) over .*/\1/p')
FULL=$(echo "$STATS" | sed -n 's/.* queue_full=\([0-9]*\) .*/\1/p')
if [ -z "$SENT" ] || [ -z "$LG_FULL" ] || [ "$REQS" != "$SENT" ] \
    || [ "$FULL" != "$LG_FULL" ]; then
    echo "region_smoke: stats line disagrees with the loadgen" \
         "(daemon requests=${REQS:-} queue_full=${FULL:-};" \
         "loadgen sent=${SENT:-} queue_full=${LG_FULL:-})" >&2
    cat "$ERR" >&2
    exit 1
fi

echo "region_smoke: OK ($MIGRATIONS migration(s) across $SHARDS shards," \
     "$REQS request(s), queue_full=$FULL)"

#!/usr/bin/env bash
# Daemon integration smoke (DESIGN.md §13): start acexd on an ephemeral
# port, attach SUBS loopback acexctl subscribers with heterogeneous
# negotiated parameters, kill one mid-stream and resume it, and demand
# that every subscriber verifies every demo block byte-identically, that
# an `acexctl stat` probe of the loaded daemon reads SUBS + 1 handshakes
# and no rejects, and that the daemon shuts down clean.
#
# Environment / arguments:
#   ACEXD, ACEXCTL  paths to the binaries (required)
#   SUBS            subscriber count          (default 64)
#   BLOCKS          demo blocks to publish    (default 40)
#   BLOCK_SIZE      bytes per demo block      (default 8192)
#   SEED            demo stream seed          (default 7)
set -euo pipefail

ACEXD=${ACEXD:?path to acexd binary}
ACEXCTL=${ACEXCTL:?path to acexctl binary}
SUBS=${SUBS:-64}
BLOCKS=${BLOCKS:-40}
BLOCK_SIZE=${BLOCK_SIZE:-8192}
SEED=${SEED:-7}

d=$(mktemp -d)
DPID=
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2> /dev/null || true
  rm -rf "$d"
}
trap cleanup EXIT

# Publishing is gated on --wait-subs so no subscriber misses block 0; the
# long linger keeps the daemon serving until we SIGTERM it ourselves once
# every subscriber has verified its stream.
"$ACEXD" --port 0 --port-file "$d/port" --blocks "$BLOCKS" \
  --block-size "$BLOCK_SIZE" --interval-ms 2 --seed "$SEED" \
  --wait-subs "$SUBS" --wait-timeout-ms 60000 --linger-ms 120000 \
  > "$d/acexd.log" 2>&1 &
DPID=$!

for _ in $(seq 1 200); do
  [ -s "$d/port" ] && break
  sleep 0.05
done
[ -s "$d/port" ] || { echo "FAIL: acexd never wrote its port file"; exit 1; }
PORT=$(cat "$d/port")

methods=(huffman lempel-ziv burrows-wheeler none lzw arithmetic)
pids=()
for i in $(seq 1 "$SUBS"); do
  m=${methods[$((i % 6))]}
  bs=$((4096 * ((i % 4) + 1)))
  if [ "$i" -eq 1 ]; then
    # The designated victim: abrupt kill after 5 verified blocks, then a
    # token-authenticated resume — the stream must close the gap with no
    # duplicate and no hole.
    "$ACEXCTL" sub --port "$PORT" --name "smoke-$i" --methods "$m,none" \
      --block-size "$bs" --expect-blocks "$BLOCKS" --seed "$SEED" --verify \
      --kill-after 5 --resume --timeout-ms 120000 \
      > "$d/sub-$i.log" 2>&1 &
  else
    "$ACEXCTL" sub --port "$PORT" --name "smoke-$i" --methods "$m,none" \
      --block-size "$bs" --expect-blocks "$BLOCKS" --seed "$SEED" --verify \
      --timeout-ms 120000 > "$d/sub-$i.log" 2>&1 &
  fi
  pids+=($!)
done

fails=0
for idx in "${!pids[@]}"; do
  n=$((idx + 1))
  if ! wait "${pids[$idx]}"; then
    echo "FAIL: subscriber $n:"
    cat "$d/sub-$n.log"
    fails=$((fails + 1))
  fi
done

# Probe the loaded daemon. The probe sends no hello, so it must not count
# as a handshake: one per subscriber plus the victim's resume.
"$ACEXCTL" stat --port "$PORT" > "$d/stat.log" 2>&1 ||
  { echo "FAIL: acexctl stat"; cat "$d/stat.log"; exit 1; }
series() { awk -v name="$1" '$2 == name { print $3 }' "$d/stat.log"; }
[ "$(series acex.net.handshakes)" = "$((SUBS + 1))" ] &&
  [ "$(series acex.net.rejects)" = "0" ] ||
  { echo "FAIL: stat probe wants handshakes=$((SUBS + 1)) rejects=0:";
    cat "$d/stat.log"; exit 1; }

kill -TERM "$DPID"
if ! wait "$DPID"; then
  echo "FAIL: acexd exited nonzero:"
  cat "$d/acexd.log"
  exit 1
fi
DPID=

grep -q "clean shutdown" "$d/acexd.log" ||
  { echo "FAIL: no clean shutdown line"; cat "$d/acexd.log"; exit 1; }
grep -q "resumed (replayed=" "$d/sub-1.log" ||
  { echo "FAIL: victim never resumed"; cat "$d/sub-1.log"; exit 1; }
[ "$fails" -eq 0 ] || exit 1

echo "daemon smoke: $SUBS subscribers x $BLOCKS blocks verified," \
     "kill/resume byte-identical, clean shutdown"

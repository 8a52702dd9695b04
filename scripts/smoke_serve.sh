#!/usr/bin/env bash
# End-to-end smoke test for the coloring service: build picasso-serve,
# start it, submit a small random-graph job, poll to completion, and assert
# a 200 + non-empty groups response. Then the artifact gate: prep a Pauli
# input with the CLI, serve it from the prepped slab, restart the server on
# the same artifact dir, and assert the resubmission is answered from the
# disk tier without recoloring. Binaries, artifacts and responses live in a
# private work dir removed on exit. CI runs this as the service gate; it
# also works locally: ./scripts/smoke_serve.sh
set -euo pipefail

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR/v1"

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
SERVE_PID=""
trap 'kill "$SERVE_PID" 2>/dev/null || true; wait "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
go build -o "$WORK/picasso-serve" ./cmd/picasso-serve

"$WORK/picasso-serve" -addr "$ADDR" -serve-workers 2 &
SERVE_PID=$!

# Wait for liveness.
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "FAIL: server never became healthy" >&2; exit 1; fi
  sleep 0.2
done

# Submit a small random-graph job.
submit=$(curl -sf -X POST "$BASE/jobs" -d '{"random":"500:0.5","seed":1}')
echo "submit: $submit"
id=$(echo "$submit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then echo "FAIL: no job id in submit response" >&2; exit 1; fi

# Poll until done.
for i in $(seq 1 100); do
  state=$(curl -sf "$BASE/jobs/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed) echo "FAIL: job failed"; curl -s "$BASE/jobs/$id" >&2; exit 1 ;;
  esac
  if [ "$i" = 100 ]; then echo "FAIL: job never finished (state=$state)" >&2; exit 1; fi
  sleep 0.2
done

# Groups must answer 200 with a non-empty partition.
code=$(curl -s -o "$WORK/groups.json" -w '%{http_code}' "$BASE/jobs/$id/groups")
if [ "$code" != 200 ]; then echo "FAIL: groups returned HTTP $code" >&2; exit 1; fi
ngroups=$(sed -n 's/.*"num_groups":\([0-9]*\).*/\1/p' "$WORK/groups.json")
if [ -z "$ngroups" ] || [ "$ngroups" -eq 0 ]; then
  echo "FAIL: empty groups response" >&2
  head -c 400 "$WORK/groups.json" >&2
  exit 1
fi

# A streamed job at a fixed shard size: the summary must report the shard
# count.
ssubmit=$(curl -sf -X POST "$BASE/jobs" -d '{"random":"1500:0.5","seed":2,"shard":500}')
echo "stream submit: $ssubmit"
sid=$(echo "$ssubmit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$sid" ]; then echo "FAIL: no job id in stream submit response" >&2; exit 1; fi
for i in $(seq 1 100); do
  state=$(curl -sf "$BASE/jobs/$sid" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed) echo "FAIL: streamed job failed"; curl -s "$BASE/jobs/$sid" >&2; exit 1 ;;
  esac
  if [ "$i" = 100 ]; then echo "FAIL: streamed job never finished (state=$state)" >&2; exit 1; fi
  sleep 0.2
done
sstatus=$(curl -sf "$BASE/jobs/$sid")
shards=$(echo "$sstatus" | sed -n 's/.*"shards":\([0-9]*\).*/\1/p')
if [ "${shards:-0}" -ne 3 ]; then
  echo "FAIL: streamed job reported ${shards:-no} shards, want 3" >&2
  echo "$sstatus" >&2
  exit 1
fi

# A portfolio job: three entrants race on private lanes, the winner's
# grouping is served. The summary must carry the portfolio block with the
# entrant count and winner index, and the lifetime stats must have counted
# the race's entrants.
rsubmit=$(curl -sf -X POST "$BASE/jobs" -d '{"random":"1200:0.5","seed":4,"shard":400,"portfolio":{"entrants":3}}')
echo "portfolio submit: $rsubmit"
rid=$(echo "$rsubmit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$rid" ]; then echo "FAIL: no job id in portfolio submit response" >&2; exit 1; fi
for i in $(seq 1 150); do
  state=$(curl -sf "$BASE/jobs/$rid" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed) echo "FAIL: portfolio job failed"; curl -s "$BASE/jobs/$rid" >&2; exit 1 ;;
  esac
  if [ "$i" = 150 ]; then echo "FAIL: portfolio job never finished (state=$state)" >&2; exit 1; fi
  sleep 0.2
done
rstatus=$(curl -sf "$BASE/jobs/$rid")
rentrants=$(echo "$rstatus" | sed -n 's/.*"portfolio":{"entrants":\([0-9]*\).*/\1/p')
rwinner=$(echo "$rstatus" | sed -n 's/.*"winner":\([0-9]*\).*/\1/p')
if [ "${rentrants:-0}" -ne 3 ] || [ -z "$rwinner" ]; then
  echo "FAIL: portfolio summary missing or malformed" >&2
  echo "$rstatus" >&2
  exit 1
fi
rgcode=$(curl -s -o "$WORK/rgroups.json" -w '%{http_code}' "$BASE/jobs/$rid/groups")
rgroups=$(sed -n 's/.*"num_groups":\([0-9]*\).*/\1/p' "$WORK/rgroups.json")
if [ "$rgcode" != 200 ] || [ -z "$rgroups" ] || [ "$rgroups" -eq 0 ]; then
  echo "FAIL: portfolio winner groups missing (HTTP $rgcode)" >&2; exit 1
fi
pstats=$(curl -sf "$BASE/stats")
pentrants=$(echo "$pstats" | sed -n 's/.*"portfolio_entrants":\([0-9]*\).*/\1/p')
if [ "${pentrants:-0}" -lt 3 ]; then
  echo "FAIL: stats did not count the race's entrants: $pstats" >&2; exit 1
fi

# Resubmitting the identical spec must be a cache hit.
resubmit=$(curl -sf -X POST "$BASE/jobs" -d '{"random":"500:0.5","seed":1}')
echo "resubmit: $resubmit"
case "$resubmit" in
  *'"cache_hit":true'*) ;;
  *) echo "FAIL: resubmission was not a cache hit" >&2; exit 1 ;;
esac

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# --- Artifact gate: prep -> serve -> restart -> cache hit from disk ---
go build -o "$WORK/picasso" ./cmd/picasso
ARTDIR="$WORK/artifacts"
mkdir "$ARTDIR"
printf 'XXIZ\nIYZX\nZZII\nXYXY\nIIII\nZIZI\n' > "$WORK/paulis.txt"
"$WORK/picasso" -prep -strings "$WORK/paulis.txt" -artifact-dir "$ARTDIR"
SPEC='{"strings":["XXIZ","IYZX","ZZII","XYXY","IIII","ZIZI"],"seed":1}'

"$WORK/picasso-serve" -addr "$ADDR" -serve-workers 2 -artifact-dir "$ARTDIR" &
SERVE_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "FAIL: artifact server never became healthy" >&2; exit 1; fi
  sleep 0.2
done

asubmit=$(curl -sf -X POST "$BASE/jobs" -d "$SPEC")
echo "artifact submit: $asubmit"
aid=$(echo "$asubmit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
for i in $(seq 1 100); do
  state=$(curl -sf "$BASE/jobs/$aid" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed) echo "FAIL: artifact job failed"; curl -s "$BASE/jobs/$aid" >&2; exit 1 ;;
  esac
  if [ "$i" = 100 ]; then echo "FAIL: artifact job never finished (state=$state)" >&2; exit 1; fi
  sleep 0.2
done

# The run must have consumed the prepped slab instead of re-parsing.
stats=$(curl -sf "$BASE/stats")
loads=$(echo "$stats" | sed -n 's/.*"artifact_loads":\([0-9]*\).*/\1/p')
if [ "${loads:-0}" -lt 1 ]; then
  echo "FAIL: server did not load the prep artifact: $stats" >&2
  exit 1
fi

# --- General-graph gate: a DIMACS file colors end to end ---
# Generate a benchmark instance as a DIMACS file, ship it inline as
# graph_data (newlines JSON-escaped; DIMACS bodies carry no quotes or
# backslashes), and color it through the same submit/poll/groups path.
go build -o "$WORK/datasetgen" ./cmd/datasetgen
"$WORK/datasetgen" -graph queen5_5 -format dimacs -out "$WORK/queen.col"
GDATA=$(awk '{printf "%s\\n", $0}' "$WORK/queen.col")
GSPEC="{\"graph_data\":\"$GDATA\",\"seed\":5}"

gsubmit=$(curl -sf -X POST "$BASE/jobs" -d "$GSPEC")
echo "graph submit: $gsubmit"
gid=$(echo "$gsubmit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$gid" ]; then echo "FAIL: no job id in graph submit response" >&2; exit 1; fi
for i in $(seq 1 100); do
  state=$(curl -sf "$BASE/jobs/$gid" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in
    done) break ;;
    failed) echo "FAIL: graph job failed"; curl -s "$BASE/jobs/$gid" >&2; exit 1 ;;
  esac
  if [ "$i" = 100 ]; then echo "FAIL: graph job never finished (state=$state)" >&2; exit 1; fi
  sleep 0.2
done
ggcode=$(curl -s -o "$WORK/ggroups.json" -w '%{http_code}' "$BASE/jobs/$gid/groups")
ggroups=$(sed -n 's/.*"num_groups":\([0-9]*\).*/\1/p' "$WORK/ggroups.json")
if [ "$ggcode" != 200 ] || [ -z "$ggroups" ] || [ "$ggroups" -eq 0 ]; then
  echo "FAIL: graph groups missing (HTTP $ggcode)" >&2; exit 1
fi

# Restart on the same artifact dir: the resubmission must be a disk-tier
# cache hit — state done immediately, nothing recolored.
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
"$WORK/picasso-serve" -addr "$ADDR" -serve-workers 2 -artifact-dir "$ARTDIR" &
SERVE_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "FAIL: restarted server never became healthy" >&2; exit 1; fi
  sleep 0.2
done

dsubmit=$(curl -sf -X POST "$BASE/jobs" -d "$SPEC")
echo "disk resubmit: $dsubmit"
case "$dsubmit" in
  *'"cache_hit":true'*'"state":"done"'*|*'"state":"done"'*'"cache_hit":true'*) ;;
  *) echo "FAIL: resubmission after restart was not a done disk hit" >&2; exit 1 ;;
esac
dstats=$(curl -sf "$BASE/stats")
dhits=$(echo "$dstats" | sed -n 's/.*"disk_hits":\([0-9]*\).*/\1/p')
dcompleted=$(echo "$dstats" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
if [ "${dhits:-0}" -ne 1 ] || [ "${dcompleted:-1}" -ne 0 ]; then
  echo "FAIL: restart stats want disk_hits=1 completed=0: $dstats" >&2
  exit 1
fi
gcode=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/jobs/$aid/groups")
if [ "$gcode" != 200 ]; then echo "FAIL: rehydrated groups returned HTTP $gcode" >&2; exit 1; fi

# The DIMACS job's artifact survived the restart too: the identical file
# payload is a disk hit with the same grouping, nothing recolored.
grsubmit=$(curl -sf -X POST "$BASE/jobs" -d "$GSPEC")
echo "graph disk resubmit: $grsubmit"
case "$grsubmit" in
  *'"cache_hit":true'*'"state":"done"'*|*'"state":"done"'*'"cache_hit":true'*) ;;
  *) echo "FAIL: graph resubmission after restart was not a done disk hit" >&2; exit 1 ;;
esac
grstats=$(curl -sf "$BASE/stats")
grhits=$(echo "$grstats" | sed -n 's/.*"disk_hits":\([0-9]*\).*/\1/p')
grcompleted=$(echo "$grstats" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
if [ "${grhits:-0}" -ne 2 ] || [ "${grcompleted:-1}" -ne 0 ]; then
  echo "FAIL: graph restart stats want disk_hits=2 completed=0: $grstats" >&2
  exit 1
fi

echo "OK: job $id colored into $ngroups groups; DIMACS job $gid colored into $ggroups groups; resubmissions served from cache; disk tier survived a restart"

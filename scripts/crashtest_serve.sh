#!/usr/bin/env bash
# Crash-recovery gate for the coloring service: start picasso-serve on an
# artifact dir, submit a streamed job big enough to checkpoint several
# shard boundaries, kill the server with SIGKILL mid-run, restart it on
# the same dir, and assert the journal replay RESUMES the job (result
# reports resumed_shards > 0, stats count a resume) and that the resumed
# coloring is bit-identical to an uninterrupted run of the same spec.
# Binaries, artifact dirs and responses live in a private work dir removed
# on exit. CI runs this as the durability gate; it also works locally:
# ./scripts/crashtest_serve.sh
set -euo pipefail

ADDR="${CRASH_ADDR:-127.0.0.1:18081}"
BASE="http://$ADDR/v1"
# 8 shards of 5000 vertices: enough shard boundaries that the poll loop
# below reliably observes a checkpoint before the run finishes.
SPEC='{"random":"40000:0.5","seed":7,"shard":5000}'

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
SERVE_PID=""
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; wait "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
go build -o "$WORK/picasso-serve" ./cmd/picasso-serve

ARTDIR="$WORK/artifacts"
REFDIR="$WORK/reference"
mkdir "$ARTDIR" "$REFDIR"

start_server() { # start_server <artifact-dir>
  "$WORK/picasso-serve" -addr "$ADDR" -serve-workers 1 -artifact-dir "$1" &
  SERVE_PID=$!
  for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: server never became healthy" >&2
  exit 1
}

poll_done() { # poll_done <job-id> <label>
  for i in $(seq 1 300); do
    state=$(curl -sf "$BASE/jobs/$1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$state" in
      done) return 0 ;;
      failed|cancelled) echo "FAIL: $2 job state=$state"; curl -s "$BASE/jobs/$1" >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "FAIL: $2 job never finished (state=${state:-unknown})" >&2
  exit 1
}

start_server "$ARTDIR"

submit=$(curl -sf -X POST "$BASE/jobs" -d "$SPEC")
echo "submit: $submit"
id=$(echo "$submit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ -z "$id" ]; then echo "FAIL: no job id in submit response" >&2; exit 1; fi

# Wait for the run to pass at least one shard boundary (a durable
# checkpoint exists), then pull the plug before it can finish.
killed=0
for i in $(seq 1 600); do
  status=$(curl -sf "$BASE/jobs/$id")
  state=$(echo "$status" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  if [ "$state" = done ]; then break; fi
  shards=$(echo "$status" | sed -n 's/.*"shards":\([0-9]*\).*/\1/p')
  if [ "${shards:-0}" -ge 1 ]; then
    kill -9 "$SERVE_PID"
    wait "$SERVE_PID" 2>/dev/null || true
    killed=1
    echo "killed server at ${shards} completed shards"
    break
  fi
  sleep 0.05
done
if [ "$killed" != 1 ]; then
  echo "FAIL: job finished before the kill window; raise the graph size in SPEC" >&2
  exit 1
fi

# Restart on the same artifact dir: journal replay must re-enqueue the
# interrupted job and resume it from the checkpoint sidecar.
start_server "$ARTDIR"
poll_done "$id" "recovered"

status=$(curl -sf "$BASE/jobs/$id")
resumed_shards=$(echo "$status" | sed -n 's/.*"resumed_shards":\([0-9]*\).*/\1/p')
if [ "${resumed_shards:-0}" -lt 1 ]; then
  echo "FAIL: recovered job reports no resumed shards (recolored from scratch?)" >&2
  echo "$status" >&2
  exit 1
fi
stats=$(curl -sf "$BASE/stats")
resumed=$(echo "$stats" | sed -n 's/.*"resumed":\([0-9]*\).*/\1/p')
if [ "${resumed:-0}" -lt 1 ]; then
  echo "FAIL: stats did not count a resumed job: $stats" >&2
  exit 1
fi
code=$(curl -s -o "$WORK/groups.json" -w '%{http_code}' "$BASE/jobs/$id/groups")
if [ "$code" != 200 ]; then echo "FAIL: groups returned HTTP $code" >&2; exit 1; fi

kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Reference: the same spec, uninterrupted, in a fresh artifact dir. Job
# ids are content-addressed, so the groups responses — id included —
# must be byte-identical if the resume was exact.
start_server "$REFDIR"
rsubmit=$(curl -sf -X POST "$BASE/jobs" -d "$SPEC")
rid=$(echo "$rsubmit" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
if [ "$rid" != "$id" ]; then echo "FAIL: reference job id $rid != $id" >&2; exit 1; fi
poll_done "$rid" "reference"
curl -sf -o "$WORK/groups_ref.json" "$BASE/jobs/$rid/groups"
if ! cmp -s "$WORK/groups.json" "$WORK/groups_ref.json"; then
  echo "FAIL: resumed coloring differs from the uninterrupted run" >&2
  exit 1
fi

echo "OK: job $id survived SIGKILL, resumed ${resumed_shards} shards after restart, coloring bit-identical to the uninterrupted run"

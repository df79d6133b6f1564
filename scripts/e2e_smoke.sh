#!/usr/bin/env bash
# End-to-end smoke test for the online daemon: build ssrd, boot it on a
# random port with per-tenant quotas, run a two-phase job through the v1
# HTTP API with curl, check quota backpressure (429 + Retry-After), the
# metrics, tenant and event endpoints, the deprecated legacy aliases, then
# verify a clean SIGTERM drain.
#
# Usage: scripts/e2e_smoke.sh   (from the repo root; needs go + curl)
set -euo pipefail

workdir=$(mktemp -d)
ssrd_pid=""
cleanup() {
    if [[ -n "$ssrd_pid" ]] && kill -0 "$ssrd_pid" 2>/dev/null; then
        kill -KILL "$ssrd_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "e2e_smoke: FAIL: $*" >&2
    echo "--- ssrd log ---" >&2
    cat "$workdir/ssrd.log" >&2 || true
    exit 1
}

# require_alive fails fast — with the daemon's exit status and log — the
# moment ssrd is gone, instead of letting the next curl hang or a poll
# loop spin out its full timeout against a dead server.
require_alive() {
    if ! kill -0 "$ssrd_pid" 2>/dev/null; then
        rc=0
        wait "$ssrd_pid" || rc=$?
        ssrd_pid=""
        fail "ssrd exited unexpectedly (status $rc) $*"
    fi
}

echo "e2e_smoke: building ssrd"
go build -o "$workdir/ssrd" ./cmd/ssrd

# Port 0 lets the kernel pick; the daemon prints the bound address. The
# "tiny" tenant's 1-slot cap exists to trip quota backpressure below.
"$workdir/ssrd" -addr 127.0.0.1:0 -nodes 4 -slots 2 -mode ssr \
    -tenants 'tiny:cap=1' \
    -dilation 100 -drain 5s -trace "$workdir/run.csv" \
    >"$workdir/ssrd.log" 2>&1 &
ssrd_pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^ssrd: listening on \([^ ]*\).*/\1/p' "$workdir/ssrd.log")
    [[ -n "$addr" ]] && break
    require_alive "during startup (before listening)"
    sleep 0.1
done
[[ -n "$addr" ]] || fail "daemon never reported its address"
base="http://$addr"
echo "e2e_smoke: daemon up at $base"

require_alive "right after startup"
curl -fsS --max-time 5 "$base/v1/healthz" >/dev/null || fail "healthz"

# A two-phase workflow: 4x10s map feeding a 2x4s reduce (virtual time;
# ~0.14 wall seconds at dilation 100).
job=$(curl -fsS -X POST "$base/v1/jobs" -d '{
  "name": "smoke", "priority": 10,
  "phases": [
    {"durationsMs": [10000, 10000, 10000, 10000]},
    {"durationsMs": [4000, 4000], "deps": [0]}
  ]}') || fail "job submission"
id=$(echo "$job" | sed -n 's/.*"id": \([0-9]*\),.*/\1/p' | head -n1)
[[ -n "$id" ]] || fail "no job id in response: $job"
echo "e2e_smoke: submitted job $id"

# Quota backpressure: a 4-wide job under the 1-slot "tiny" tenant must be
# rejected with 429, a Retry-After header, and the quota_exhausted code in
# the uniform error envelope.
quota_headers="$workdir/quota_headers.txt"
quota_body=$(curl -sS -D "$quota_headers" -o - -X POST "$base/v1/jobs" -d '{
  "name": "overcap", "tenant": "tiny", "priority": 5,
  "phases": [{"durationsMs": [1000, 1000, 1000, 1000]}]}')
grep -q '^HTTP/[0-9.]* 429' "$quota_headers" || fail "quota breach status not 429: $(head -n1 "$quota_headers")"
grep -qi '^Retry-After: [0-9]' "$quota_headers" || fail "429 missing Retry-After header"
echo "$quota_body" | grep -q '"code": "quota_exhausted"' || fail "429 body not quota envelope: $quota_body"
echo "e2e_smoke: quota backpressure ok (429 + Retry-After)"

# Tenant listing reflects the rejection.
tenants=$(curl -fsS "$base/v1/tenants")
echo "$tenants" | grep -q '"name": "tiny"' || fail "tenant listing missing tiny: $tenants"
curl -fsS "$base/v1/tenants/tiny" | grep -q '"rejected": 1' || fail "tiny tenant did not record the rejection"

state=""
for _ in $(seq 1 100); do
    require_alive "while waiting for job $id"
    state=$(curl -fsS --max-time 5 "$base/v1/jobs/$id" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n1)
    [[ "$state" == "completed" || "$state" == "failed" ]] && break
    sleep 0.1
done
[[ "$state" == "completed" ]] || fail "job state = '$state', want completed"
echo "e2e_smoke: job $id completed"

# Pagination: the v1 listing wraps jobs in an envelope.
curl -fsS "$base/v1/jobs?limit=10" | grep -q '"jobs"' || fail "v1 job listing not paginated"

# Error envelope: an unknown ID must return the uniform shape.
curl -sS "$base/v1/jobs/424242" | grep -q '"code": "not_found"' || fail "404 body not the error envelope"

metrics=$(curl -fsS "$base/v1/metrics")
echo "$metrics" | grep -q '"jobsCompleted": 1' || fail "metrics: $metrics"

# Prometheus exposition: every line must be a comment (# HELP / # TYPE) or a
# "name{labels} value" sample, and the family set must be rich enough to be
# worth scraping (>= 10 families, at least one histogram, and the
# per-tenant families carrying a tenant label).
prom=$(curl -fsS "$base/v1/metrics?format=prometheus")
bad=$(echo "$prom" | grep -Ev \
    -e '^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$' \
    -e '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$' \
    -e '^$' || true)
[[ -z "$bad" ]] || fail "malformed exposition lines: $bad"
families=$(echo "$prom" | grep -c '^# TYPE ') || true
[[ "$families" -ge 10 ]] || fail "exposition has $families families, want >= 10"
echo "$prom" | grep -q '^# TYPE [a-z_]* histogram' || fail "exposition has no histogram"
echo "$prom" | grep -q '^ssr_jobs_completed 1' || fail "exposition missing completed job"
echo "$prom" | grep -Eq '^ssr_tenant_[a-z_]*\{tenant="' || fail "exposition missing per-tenant labeled families"
echo "$prom" | grep -q '^ssr_tenant_jobs_rejected{tenant="tiny"} 1' || fail "tiny tenant rejection not in exposition"
echo "e2e_smoke: prometheus exposition ok ($families families, tenant labels present)"

# Node lifecycle admin: list nodes, drain one with a generous notice,
# watch it report draining with a deadline, then cancel the notice.
nodes=$(curl -fsS --max-time 5 "$base/v1/nodes")
echo "$nodes" | grep -q '"state": "up"' || fail "node listing has no up nodes: $nodes"
curl -fsS -X POST --max-time 5 "$base/v1/nodes/3/drain?noticeMs=60000" \
    | grep -q '"status": "draining"' || fail "drain request"
curl -fsS --max-time 5 "$base/v1/nodes" | grep -q '"state": "draining"' || fail "drained node not reported draining"
curl -fsS -X POST --max-time 5 "$base/v1/nodes/3/undrain" \
    | grep -q '"status": "up"' || fail "undrain request"
curl -fsS --max-time 5 "$base/v1/metrics" | grep -q '"nodeDrains": 1' || fail "metrics missing node drain count"
echo "e2e_smoke: node lifecycle admin ok (drain + undrain)"

# The audit stream records the run's reservation decisions as JSON lines.
curl -fsS "$base/v1/audit" | head -n1 | grep -q '"kind"' || fail "audit stream empty"
# The SSE stream never ends on its own; let curl's --max-time cut it.
events=$(curl -fs --max-time 2 "$base/v1/events?since=1" || true)
echo "$events" | grep -q 'job_done' || fail "event stream missing job_done"

# The unversioned aliases of earlier releases are gone.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/jobs/$id")
[[ "$code" == "404" ]] || fail "GET /jobs/{id} answered $code, want 404 (aliases removed)"

# A body over the 1 MiB limit is refused by name, not read.
code=$(head -c 1048577 /dev/zero | tr '\0' ' ' | curl -s -o "$workdir/too_large.json" -w '%{http_code}' \
    -X POST --data-binary @- "$base/v1/jobs")
[[ "$code" == "413" ]] || fail "oversized POST answered $code, want 413"
grep -q '"code": "payload_too_large"' "$workdir/too_large.json" || fail "413 body not the error envelope"
echo "e2e_smoke: aliases gone (404), oversized body refused (413)"

kill -TERM "$ssrd_pid"
rc=0
wait "$ssrd_pid" || rc=$?
[[ "$rc" -eq 0 ]] || fail "exit code $rc after SIGTERM, want 0"
grep -q 'drained clean' "$workdir/ssrd.log" || fail "no clean-drain log line"
[[ -s "$workdir/run.csv" ]] || fail "trace file missing or empty"
lines=$(wc -l <"$workdir/run.csv")
[[ "$lines" -ge 7 ]] || fail "trace has $lines lines, want >= 7 (header + 6 attempts)"
ssrd_pid=""

# --- Trace soak: synthesize a cluster trace, replay it open-loop through
# the phased ssrload driver against a fresh daemon, and check the phase
# cutover fires and the measurement window records real percentiles.
echo "e2e_smoke: trace soak (gen_trace -> ssrload -trace)"
go build -o "$workdir/ssrload" ./cmd/ssrload
go run ./scripts/gen_trace.go -jobs 40 -rate 2 -seed 7 \
    -batch-parallelism 8 -prod-parallelism 4 -out "$workdir/trace.csv" 2>/dev/null
[[ -s "$workdir/trace.csv" ]] || fail "gen_trace produced no trace"

"$workdir/ssrd" -addr 127.0.0.1:0 -nodes 8 -slots 4 -mode ssr \
    -dilation 2000 -drain 5s \
    >"$workdir/ssrd.log" 2>&1 &
ssrd_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^ssrd: listening on \([^ ]*\).*/\1/p' "$workdir/ssrd.log")
    [[ -n "$addr" ]] && break
    require_alive "during soak startup"
    sleep 0.1
done
[[ -n "$addr" ]] || fail "soak daemon never reported its address"

soak_out=$("$workdir/ssrload" -addr "http://$addr" -trace "$workdir/trace.csv" \
    -iat replay -speedup 50 -phases 200ms/10s/60s \
    -classes prod=ml,batch=bulk \
    -out "$workdir/soak_results.csv" -json "$workdir/soak_report.json" \
    -poll 10ms -timeout 2m 2>&1) || fail "trace soak run: $soak_out"
echo "$soak_out" | grep -q 'trace phase warmup begins' || fail "soak missing warmup start: $soak_out"
echo "$soak_out" | grep -q 'phase cutover warmup -> measure' || fail "soak missing phase cutover: $soak_out"
echo "$soak_out" | grep -q '40 submitted' || fail "soak did not submit the full trace: $soak_out"
echo "$soak_out" | grep -q ' 0 failed' || fail "soak jobs failed: $soak_out"

# The measurement phase must have completions with nonzero latency
# percentiles (p50 > 0 implies p99 > 0 in the report's omitempty JSON).
grep -q '"phase": "measure"' "$workdir/soak_report.json" || fail "report missing measurement phase"
measure_p50=$(tr -d ' \n' <"$workdir/soak_report.json" \
    | grep -o '"phase":"measure"[^}]*' | grep -o '"p50Sec":[0-9.]*' | cut -d: -f2)
[[ -n "$measure_p50" && "$measure_p50" != "0" ]] || fail "measurement p50 missing or zero: $measure_p50"
results_lines=$(wc -l <"$workdir/soak_results.csv")
[[ "$results_lines" -eq 41 ]] || fail "soak results have $results_lines lines, want header + 40"
echo "e2e_smoke: trace soak ok (phase cutover + measure p50=${measure_p50}s, $((results_lines - 1)) result rows)"

kill -TERM "$ssrd_pid"
rc=0
wait "$ssrd_pid" || rc=$?
[[ "$rc" -eq 0 ]] || fail "soak daemon exit code $rc after SIGTERM, want 0"
ssrd_pid=""

echo "e2e_smoke: PASS"

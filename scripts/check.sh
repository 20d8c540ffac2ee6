#!/usr/bin/env sh
# Tier-1 gate: release build + full test suite, fully offline.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Second pass with telemetry globally enabled: instrumentation must never
# change a single result, so the identical suite has to stay green.
MULTICLUST_TELEMETRY=1 cargo test -q --offline --workspace

# CLI telemetry smoke: stdout byte-identical with and without the flag,
# stderr carries a valid report.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '1,2\n1.1,2.1\n0.9,1.9\n8,9\n8.1,9.2\n7.9,8.8\n4,0\n4.1,0.2\n' > "$tmp/data.csv"
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    > "$tmp/plain.csv" 2> "$tmp/plain.err"
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    --telemetry=json > "$tmp/traced.csv" 2> "$tmp/traced.json"
cmp "$tmp/plain.csv" "$tmp/traced.csv"
test ! -s "$tmp/plain.err"
grep -q '"spans"' "$tmp/traced.json"
grep -q 'kmeans.iter' "$tmp/traced.json"
grep -q 'parallel.tasks' "$tmp/traced.json"

# Verification harness: the full invariant × family matrix plus the golden
# fixtures must pass, and the report must be bit-identical whether the
# deterministic pool runs on one thread or four.
MULTICLUST_THREADS=1 ./target/release/multiclust verify > "$tmp/verify1.txt"
MULTICLUST_THREADS=4 ./target/release/multiclust verify > "$tmp/verify4.txt"
cmp "$tmp/verify1.txt" "$tmp/verify4.txt"
grep -q 'all .* checks passed' "$tmp/verify1.txt"

# Distance kernels: flipping the runtime kernel switch between the naive
# reference and the cache-blocked SIMD tier must not change a command's
# stdout by a single byte, and the bench smoke run must exit 0 with a
# parseable report naming every family.
MULTICLUST_KERNELS=naive ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 > "$tmp/naive.csv"
MULTICLUST_KERNELS=blocked ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 > "$tmp/blocked.csv"
cmp "$tmp/blocked.csv" "$tmp/naive.csv"
./target/release/multiclust bench --smoke > "$tmp/bench.json" 2> "$tmp/bench.err"
grep -q '"schema": "multiclust-bench/v2"' "$tmp/bench.json"
grep -q '"kernels.flops"' "$tmp/bench.json"
grep -q '"kernels.bytes_touched"' "$tmp/bench.json"
grep -q 'B/FLOP' "$tmp/bench.err"
for family in kmeans spectral coala dec-kmeans meta proclus; do
    grep -q "\"id\": \"$family-n" "$tmp/bench.json"
done

# Perf-regression gate: the current tree must pass against the checked-in
# baseline, and the gate must prove it can fire by failing when the engine
# is deliberately swapped for the naive kernels.
./target/release/multiclust bench --smoke --compare BENCH_PR4.json \
    > "$tmp/gate.json" 2> "$tmp/gate.err"
grep -q 'gate: PASS' "$tmp/gate.err"
if ./target/release/multiclust bench --smoke --inject-naive \
    --compare BENCH_PR4.json > /dev/null 2> "$tmp/gate-bad.err"; then
    echo "check.sh: injected naive regression was NOT caught" >&2
    exit 1
fi
grep -q 'gate: FAIL' "$tmp/gate-bad.err"

# Per-family speedup floors: the frozen PR-6 report must show every
# family at or above 1.0x over the naive kernels (the PR-6 acceptance
# bar: no family ships with a negative speedup).
./target/release/multiclust bench --check-floors BENCH_PR6.json \
    > "$tmp/floors.txt"
grep -q 'floors: PASS' "$tmp/floors.txt"

# Trace export + convergence diagnostics: `--trace` leaves stdout
# byte-identical while streaming a versioned JSONL file that the
# attribution, flamegraph and diagnose views all accept; a healthy
# k-means trajectory diagnoses clean.
./target/release/multiclust kmeans --input "$tmp/data.csv" --k 3 --seed 1 \
    --trace "$tmp/run.trace.jsonl" > "$tmp/traced2.csv"
cmp "$tmp/plain.csv" "$tmp/traced2.csv"
head -1 "$tmp/run.trace.jsonl" | grep -q 'multiclust-trace/v1'
grep -q '"type":"end"' "$tmp/run.trace.jsonl"
./target/release/multiclust trace "$tmp/run.trace.jsonl" | grep -q 'kmeans.fit'
./target/release/multiclust trace --collapse "$tmp/run.trace.jsonl" \
    | grep -q '^kmeans.fit '
./target/release/multiclust diagnose "$tmp/run.trace.jsonl" > "$tmp/diag.txt"
grep -q 'kmeans.iter' "$tmp/diag.txt"

# Resource observability: allocation accounting must never change a
# single stdout byte, and the `--metrics` sampler must leave behind a
# parseable multiclust-metrics/v1 stream with at least two snapshots
# (first immediate, last at stop) plus an end line.
MULTICLUST_ALLOC=1 ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 \
    --trace "$tmp/alloc.trace.jsonl" > "$tmp/alloc.csv"
cmp "$tmp/plain.csv" "$tmp/alloc.csv"
./target/release/multiclust trace "$tmp/alloc.trace.jsonl" \
    | grep -q 'alloc.peak'
MULTICLUST_ALLOC=1 ./target/release/multiclust kmeans \
    --input "$tmp/data.csv" --k 3 --seed 1 \
    --metrics "$tmp/run.metrics.jsonl" > "$tmp/metrics.csv"
cmp "$tmp/plain.csv" "$tmp/metrics.csv"
head -1 "$tmp/run.metrics.jsonl" | grep -q 'multiclust-metrics/v1'
snapshots=$(grep -c '"type":"snapshot"' "$tmp/run.metrics.jsonl")
test "$snapshots" -ge 2
grep -q '"type":"end"' "$tmp/run.metrics.jsonl"

# A truncated file must fail every command that reads one — `diagnose`
# and `trace` on a trace, `flight` on a flight dump, all through the one
# shared JSONL reader — with a clean error naming the bad line: no
# panic, no usage dump.
printf '{"type":"meta","schema":"multiclust-trace/v1"}\n{"type":"ev' \
    > "$tmp/corrupt.jsonl"
printf '{"type":"meta","schema":"multiclust-flight/v1"}\n{"type":"rec' \
    > "$tmp/corrupt-flight.jsonl"
reject_corrupt() { # <command> <file>
    if ./target/release/multiclust "$1" "$2" > /dev/null 2> "$tmp/corrupt.err"; then
        echo "check.sh: $1 did NOT reject the corrupt file $2" >&2
        exit 1
    fi
    grep -q 'line 2' "$tmp/corrupt.err"
    if grep -q 'usage:' "$tmp/corrupt.err"; then
        echo "check.sh: $1 printed the usage dump for a data error" >&2
        exit 1
    fi
}
reject_corrupt diagnose "$tmp/corrupt.jsonl"
reject_corrupt trace "$tmp/corrupt.jsonl"
reject_corrupt flight "$tmp/corrupt-flight.jsonl"

# Baseline trend over the checked-in BENCH_*.json reports.
./target/release/multiclust trend | grep -q 'kmeans-n1000'

# Resident service smoke: boot `serve` on a temp Unix socket, play a
# scripted fit/assign/compare/evict/list session through `client`, and
# diff the transcript against the checked-in golden — responses are a
# pure function of the requests, so the bytes must match at any thread
# count. `stats` is wall-clock-dependent and asserted by grep instead;
# the trace must carry one span per request; a shutdown request must
# leave the server exiting 0 with the socket file removed.
cat > "$tmp/serve-session.txt" <<'EOF'
# fit two models, predict with one, compare them, evict, list the rest
{"id":"1","op":"fit","model":"a","family":"kmeans","k":2,"seed":7,"data":[[0,0],[0.2,0.1],[0.1,0.3],[9,9],[9.2,9.1],[9.1,9.3]]}
{"id":"2","op":"fit","model":"b","family":"dec-kmeans","k":2,"seed":7,"data":[[0,0],[0.2,0.1],[0.1,0.3],[9,9],[9.2,9.1],[9.1,9.3]]}
{"id":"3","op":"assign","model":"a","data":[[0.1,0.1],[9.1,9.1]]}
{"id":"4","op":"compare","a":"a","b":"b","sa":0,"sb":0}
{"id":"5","op":"evict","model":"b"}
{"id":"6","op":"list"}
EOF
for threads in 1 4; do
    sock="$tmp/serve-$threads.sock"
    MULTICLUST_THREADS=$threads ./target/release/multiclust serve \
        --listen "unix:$sock" --trace "$tmp/serve-$threads.trace.jsonl" \
        > "$tmp/serve-$threads.ready" 2> "$tmp/serve-$threads.err" &
    serve_pid=$!
    for _ in $(seq 1 200); do
        [ -S "$sock" ] && break
        sleep 0.05
    done
    # A 200 KB line of nested `[` (far under the line cap) must cost one
    # bad-json answer, not the server: the session below still runs on
    # the same process and still matches the golden.
    printf '%200000s\n' '' | tr ' ' '[' > "$tmp/deep.txt"
    ./target/release/multiclust client --connect "unix:$sock" \
        --script "$tmp/deep.txt" > "$tmp/serve-$threads.deep"
    grep -q '"code":"bad-json"' "$tmp/serve-$threads.deep"
    ./target/release/multiclust client --connect "unix:$sock" \
        --script "$tmp/serve-session.txt" > "$tmp/serve-$threads.out"
    ./target/release/multiclust client --connect "unix:$sock" \
        --request '{"id":"st","op":"stats"}' > "$tmp/serve-$threads.stats"
    ./target/release/multiclust client --connect "unix:$sock" \
        --request '{"id":"bye","op":"shutdown"}' > /dev/null
    wait "$serve_pid"
    if [ -S "$sock" ]; then
        echo "check.sh: serve left its socket file behind" >&2
        exit 1
    fi
    grep -q '"type":"ready","schema":"multiclust-serve/v1"' \
        "$tmp/serve-$threads.ready"
    grep -q 'shut down cleanly' "$tmp/serve-$threads.err"
    grep -q '"uptime_ms"' "$tmp/serve-$threads.stats"
    grep -q '"fit":2' "$tmp/serve-$threads.stats"
    grep -q '"path":"serve.fit"' "$tmp/serve-$threads.trace.jsonl"
    grep -q '"path":"serve.compare"' "$tmp/serve-$threads.trace.jsonl"
    grep -q '"type":"end"' "$tmp/serve-$threads.trace.jsonl"
done
cmp "$tmp/serve-1.out" "$tmp/serve-4.out"
cmp "$tmp/serve-1.out" tests/golden/serve_session.golden

# Load-test gate: the smoke scenario must pass and its canonical report
# must be a pure function of the scenario — byte-identical across thread
# counts and against the checked-in golden (refresh with
# `multiclust loadtest scenarios/smoke.json --canonical \
#   --golden tests/golden/loadtest_smoke.json --bless`).
MULTICLUST_THREADS=1 ./target/release/multiclust loadtest scenarios/smoke.json \
    --canonical --out "$tmp/loadtest-full.json" \
    > "$tmp/loadtest-1.json" 2> "$tmp/loadtest-1.err"
MULTICLUST_THREADS=4 ./target/release/multiclust loadtest scenarios/smoke.json \
    --canonical > "$tmp/loadtest-4.json" 2> /dev/null
cmp "$tmp/loadtest-1.json" "$tmp/loadtest-4.json"
cmp "$tmp/loadtest-1.json" tests/golden/loadtest_smoke.json
grep -q '"schema": "multiclust-loadtest-report/v1"' "$tmp/loadtest-1.json"
grep -q '"verdict": "PASS"' "$tmp/loadtest-1.json"
grep -q '"events_dropped": 0' "$tmp/loadtest-1.json"
grep -q 'PASS serve-equivalence' "$tmp/loadtest-1.err"
grep -q 'PASS quality-floor' "$tmp/loadtest-1.err"

# Chaos degrades the run but the scenario still passes — and must prove
# its degradation happened: min-errors on transport, plus the exact
# chaos-fired counters (slowed/dropped are a pure function of the plan).
./target/release/multiclust loadtest scenarios/chaos.json \
    > "$tmp/loadtest-chaos.json" 2> "$tmp/loadtest-chaos.err"
grep -q '"verdict": "PASS"' "$tmp/loadtest-chaos.json"
grep -q 'PASS min-errors' "$tmp/loadtest-chaos.err"
grep -q 'PASS chaos-fired' "$tmp/loadtest-chaos.err"

# Quality floors over the open-loop tick clock.
./target/release/multiclust loadtest scenarios/quality.json > /dev/null 2>&1

# The loadtest distrusts itself: a server whose dispatch consumes
# different randomness MUST fail serve-equivalence...
if ./target/release/multiclust loadtest scenarios/smoke.json \
    --inject serve-perturbs-rng > /dev/null 2>&1; then
    echo "check.sh: loadtest passed under an injected rng perturbation" >&2
    exit 1
fi
# ...and a doctored report MUST NOT sneak past the judge (while the
# faithful report re-judges clean).
./target/release/multiclust loadtest --judge "$tmp/loadtest-full.json" > /dev/null 2>&1
if ./target/release/multiclust loadtest --doctor-report "$tmp/loadtest-full.json" \
    > /dev/null 2>&1; then
    echo "check.sh: the judge accepted a doctored loadtest report" >&2
    exit 1
fi

# Flight-recorder correlation: an injected panicking fit handler must
# fail the scenario, and the failing verdict must hand back a flight
# dump whose records — and the `multiclust flight` summary over them —
# name the first failing request id.
if MULTICLUST_FLIGHT_DIR="$tmp" ./target/release/multiclust loadtest \
    scenarios/smoke.json --inject panic-fit \
    > /dev/null 2> "$tmp/panic.err"; then
    echo "check.sh: loadtest passed under an injected panicking dispatch" >&2
    exit 1
fi
dump=$(sed -n 's/^loadtest: flight dump: \(.*\) (first failing request .*)$/\1/p' \
    "$tmp/panic.err")
req=$(sed -n 's/^loadtest: flight dump: .* (first failing request \(.*\))$/\1/p' \
    "$tmp/panic.err")
test -n "$dump" && test -n "$req"
head -1 "$dump" | grep -q 'multiclust-flight/v1'
grep -q "\"request_id\":\"$req\"" "$dump"
./target/release/multiclust flight "$dump" > "$tmp/flight.txt"
# The summary shows the *last* errors, so assert it correlates request
# ids at all; the specific failing id is pinned in the raw dump above.
grep -q 'request_id=t' "$tmp/flight.txt"
grep -q 'serve.fit.internal' "$tmp/flight.txt"

# The recorder must never leak into the protocol: the scripted serve
# session replayed with the recorder forced off is byte-identical to the
# recorded run above.
sock="$tmp/serve-noflight.sock"
MULTICLUST_FLIGHT=0 ./target/release/multiclust serve --listen "unix:$sock" \
    > /dev/null 2> /dev/null &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$sock" ] && break
    sleep 0.05
done
./target/release/multiclust client --connect "unix:$sock" \
    --script "$tmp/serve-session.txt" > "$tmp/serve-noflight.out"
./target/release/multiclust client --connect "unix:$sock" \
    --request '{"id":"bye","op":"shutdown"}' > /dev/null
wait "$serve_pid"
cmp "$tmp/serve-1.out" "$tmp/serve-noflight.out"

# Latency SLO trend gate: the checked-in LOADTEST_*.json reports must
# tabulate, the checked-in smoke report must pass its own gate, and a
# doctored copy whose p99s grew a thousandfold must fail.
./target/release/multiclust trend > "$tmp/trend.txt"
grep -q 'loadtest latency trend' "$tmp/trend.txt"
grep -q 'PR10_smoke' "$tmp/trend.txt"
./target/release/multiclust trend --slo LOADTEST_PR10_smoke.json \
    > "$tmp/slo.txt"
grep -q 'slo gate: PASS' "$tmp/slo.txt"
sed 's/"p99": \([0-9][0-9]*\)/"p99": \1000/' LOADTEST_PR10_smoke.json \
    > "$tmp/doctored-slo.json"
if ./target/release/multiclust trend --slo "$tmp/doctored-slo.json" \
    > "$tmp/slo-bad.txt" 2>&1; then
    echo "check.sh: a thousandfold p99 regression passed the SLO gate" >&2
    exit 1
fi
grep -q 'slo gate: FAIL' "$tmp/slo-bad.txt"

echo "check.sh: all gates passed"

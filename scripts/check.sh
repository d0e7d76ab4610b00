#!/usr/bin/env bash
# check.sh — the full verification gate for this repository.
#
#   gofmt        formatting (including analyzer fixtures, which must stay
#                gofmt-clean so their golden line numbers are stable)
#   go vet       the stock toolchain checks
#   charnet-vet  the repo's determinism-and-correctness lint suite
#                (docs/ANALYSIS.md), including the whole-program
#                detertaint reachability proof over every registered
#                driver's Run path, with stale //charnet:ignore
#                directives rejected (-unused-ignores) and the machine-
#                readable findings document (-json) archived in the work
#                dir next to the trace artifacts
#   go test      all packages, race detector on, shuffled execution
#                order (-shuffle=on) so order-dependent tests cannot
#                hide behind file ordering
#   race repeat  the fitting drivers run concurrently on one Lab,
#                sharing each suite's fit, concurrent measure requests
#                sharing one once-rendered body, and concurrent keying
#                through one store's profile memo, each ten times under
#                the race detector (-race -count=10), since one clean run
#                proves little about state several goroutines share
#   fuzz budget  every native fuzz target fuzzed for 5 s beyond its seed
#                corpus (go test -fuzz), so a new crasher on the mem,
#                rng, cluster, mstore-entry, suite-spec, exposition or
#                /v1/measure request boundaries, a suite spec that parses
#                twice to different profiles, an exposition check that
#                changes its verdict between calls, a JSON artifact
#                rendering that departs from the encoding/json reference,
#                a store key, streamed and memoized, that departs from
#                the hash of the json.Marshal key envelope, a Zipf table
#                whose bits depart from the math.Pow loop it replaces,
#                or a measure request rejected with a status other than
#                400 or 413, or accepted naming something no catalog
#                holds, fails here;
#                minimizing a new input stops after 1 s, or the 37 KB
#                built-in spec seed of FuzzParseSpec would spend the
#                whole budget on one minimization
#   perfbench    the benchmark module's own tests (cd perfbench && go
#   smoke        test ./...): tiny runs of all four workloads, every
#                output checked against perfbench/digests.json, so a
#                break in bit-identity on the benchmark path fails here
#                and not only when the benchmark runs
#   validators   cmd/charnet-check is built once; each smoke below checks
#                its format with it (charnet-check artifact|trace|metrics)
#   trace smoke  charnet -trace-out on a real driver, validated by
#                charnet-check trace, with stdout checked byte-identical
#                to an untraced run (the observability determinism
#                contract)
#   telemetry    charnet -telemetry-addr on a real driver, its /metrics
#   smoke        endpoint scraped mid-run and validated by charnet-check
#                metrics (Prometheus format, histogram invariants,
#                required latency families), with stdout again checked
#                byte-identical to an untraced run
#   render smoke charnet -full all diffed byte-for-byte against
#                docs/full_output.txt (the artifact text renderer must
#                reproduce the legacy renderings exactly), twice over one
#                -cache DIR: cold, then warm from the entries the first
#                pass stored (reads re-derive every measurement from its
#                counters, so a drift in the last digit fails here); then
#                the same drivers as -format json validated by
#                charnet-check artifact, again from the warm store; every
#                driver simulates through the store, so the warm text pass
#                and the JSON pass each log their counters (-events-out,
#                whose self-profile goes to a file, shown on failure) and
#                fail on a nonzero sim.instructions
#   spec smoke   every examples/*.json workload spec loaded by charnet
#                -suite-spec F suites (a spec that does not parse exits
#                1), then charnet -suite-spec examples/spec2017mem.json
#                table4 run end-to-end: the text rendering must grow the
#                external suite's column and the JSON rendering must
#                still validate
#   examples     every examples/*/ program built and run; each must exit
#   smoke        0 (they are the public charnet package's demos, and
#                nothing else runs them)
#   daemon smoke charnetd on an ephemeral port: the same /v1/measure
#                request twice (a cold body, then the Lab's once-rendered
#                warm one), each validated by charnet-check artifact and
#                compared byte-for-byte with charnet -format json export
#                of the same suite (one output for a suite measurement),
#                which is validated too, /metrics scraped by charnet-check
#                metrics for the serve.* families, then SIGTERM and a
#                clean (exit 0) graceful drain
#
# Tier-1 (go build + go test) is the floor; this script is the gate every
# PR should pass.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== charnet-vet ./... (stale-ignore check, JSON archive)"
if ! go run ./cmd/charnet-vet -unused-ignores -json ./... > "$workdir/vet.json"; then
    echo "charnet-vet findings:" >&2
    cat "$workdir/vet.json" >&2
    exit 1
fi
grep -q '"analyzers"' "$workdir/vet.json" || {
    echo "vet.json missing the analyzer roster" >&2; exit 1; }

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== race repeat (concurrent drivers sharing fits, requests sharing bodies, keys sharing a memo, -race -count=10)"
go test -race -count=10 -run '^TestConcurrentDriversShareFits$' ./internal/experiments
go test -race -count=10 -run '^TestMeasureJSONRendersOnce$' ./internal/serve
go test -race -count=10 -run '^TestKeyMemoConcurrent$' ./internal/mstore

echo "== bench smoke (compile + one iteration)"
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

echo "== fuzz budget (5 s per native fuzz target)"
for target in internal/mem:FuzzCacheAccess internal/mem:FuzzTLBLookup \
    internal/mem:FuzzResetPrewarm internal/cluster:FuzzAgglomerate \
    internal/rng:FuzzHitMatchesBool internal/rng:FuzzZipfInit internal/mstore:FuzzGet \
    internal/mstore:FuzzKey internal/artifact:FuzzWriteJSON internal/workload:FuzzParseSpec \
    internal/telemetry:FuzzCheckExposition internal/serve:FuzzMeasureRequest; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 5s -fuzzminimizetime 1s "./${target%%:*}"
done

echo "== perfbench smoke (tiny runs of every workload against recorded digests)"
(cd perfbench && go test ./...)

echo "== build charnet-check (one validator for artifacts, traces and expositions)"
check="$workdir/charnet-check"
go build -o "$check" ./cmd/charnet-check

echo "== trace smoke (charnet -trace-out + charnet-check trace + stdout equivalence)"
tracedir="$workdir/trace"
mkdir -p "$tracedir"
go run ./cmd/charnet -trace-out "$tracedir/trace.json" table4 > "$tracedir/traced.txt" 2> "$tracedir/profile.txt"
go run ./cmd/charnet table4 > "$tracedir/plain.txt"
if ! cmp -s "$tracedir/traced.txt" "$tracedir/plain.txt"; then
    echo "tracing changed experiment stdout:" >&2
    diff "$tracedir/plain.txt" "$tracedir/traced.txt" >&2 || true
    exit 1
fi
"$check" trace "$tracedir/trace.json"
grep -q "self-profile" "$tracedir/profile.txt" || {
    echo "missing self-profile on stderr" >&2; exit 1; }

echo "== telemetry smoke (live /metrics mid-run + charnet-check metrics + stdout equivalence)"
teledir="$workdir/telemetry"
mkdir -p "$teledir"
go build -o "$teledir/charnet" ./cmd/charnet
"$teledir/charnet" -telemetry-addr 127.0.0.1:0 -telemetry-out "$teledir/telemetry.json" \
    -cache "$teledir/mstore" table4 > "$teledir/traced.txt" 2> "$teledir/stderr.txt" &
telepid=$!
teleaddr=""
for _ in $(seq 1 100); do
    teleaddr=$(sed -n 's|^charnet: telemetry: serving on http://||p' "$teledir/stderr.txt")
    [[ -n "$teleaddr" ]] && break
    sleep 0.05
done
if [[ -z "$teleaddr" ]]; then
    echo "telemetry server never announced its address:" >&2
    cat "$teledir/stderr.txt" >&2
    exit 1
fi
"$check" metrics \
    -want charnet_measure_latency_seconds,charnet_sim_workload_latency_seconds,charnet_pool_queue_wait_seconds,charnet_sim_phase_run_seconds,charnet_mstore_get_miss_latency_seconds \
    "http://$teleaddr/metrics"
wait "$telepid"
"$teledir/charnet" -cache "$teledir/mstore" table4 > "$teledir/plain.txt"
if ! cmp -s "$teledir/traced.txt" "$teledir/plain.txt"; then
    echo "telemetry serving changed experiment stdout:" >&2
    diff "$teledir/plain.txt" "$teledir/traced.txt" >&2 || true
    exit 1
fi
grep -q '"name": "telemetry"' "$teledir/telemetry.json" || {
    echo "telemetry run-report artifact missing" >&2; exit 1; }

echo "== render smoke (-full all cold and warm vs docs/full_output.txt, then -format json | charnet-check artifact)"
renderdir="$workdir/render"
mkdir -p "$renderdir"
go build -o "$renderdir/charnet" ./cmd/charnet
# simulated reports a nonzero sim.instructions counter in an -events-out log.
simulated() { grep -q '"name":"sim.instructions","value":[1-9]' "$1"; }
for pass in cold warm; do
    "$renderdir/charnet" -full -cache "$renderdir/mstore" -events-out "$renderdir/events-$pass.jsonl" \
        all > "$renderdir/full-$pass.txt" 2> "$renderdir/stderr-$pass.txt" || {
        cat "$renderdir/stderr-$pass.txt" >&2; exit 1; }
    if ! cmp -s "$renderdir/full-$pass.txt" docs/full_output.txt; then
        echo "charnet -full all ($pass store) diverged from docs/full_output.txt:" >&2
        diff docs/full_output.txt "$renderdir/full-$pass.txt" | head -40 >&2 || true
        exit 1
    fi
done
"$renderdir/charnet" -full -cache "$renderdir/mstore" -events-out "$renderdir/events-json.jsonl" \
    -format json all > "$renderdir/full.json" 2> "$renderdir/stderr-json.txt" || {
    cat "$renderdir/stderr-json.txt" >&2; exit 1; }
"$check" artifact "$renderdir/full.json"
for pass in warm json; do
    if simulated "$renderdir/events-$pass.jsonl"; then
        echo "charnet -full all ($pass pass) simulated over a warm store:" >&2
        grep '"name":"sim.instructions"' "$renderdir/events-$pass.jsonl" >&2
        exit 1
    fi
done

echo "== spec smoke (charnet -suite-spec examples/*.json suites, then -suite-spec through table4)"
specdir="$workdir/spec"
mkdir -p "$specdir"
for f in examples/*.json; do
    "$renderdir/charnet" -suite-spec "$f" suites > /dev/null
done
"$renderdir/charnet" -suite-spec examples/spec2017mem.json -cache "$specdir/mstore" table4 \
    > "$specdir/table4.txt"
grep -q "SPEC CPU17 mem" "$specdir/table4.txt" || {
    echo "external suite column missing from table4 text rendering" >&2; exit 1; }
"$renderdir/charnet" -suite-spec examples/spec2017mem.json -cache "$specdir/mstore" \
    -format json table4 | "$check" artifact

echo "== examples smoke (build and run every examples/*/ program)"
exampledir="$workdir/examples"
mkdir -p "$exampledir"
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$exampledir/$name" "./$dir"
    if ! "$exampledir/$name" > /dev/null; then
        echo "example $name failed" >&2
        exit 1
    fi
done

echo "== daemon smoke (charnetd serve + measure vs export + /metrics scrape + graceful SIGTERM)"
daemondir="$workdir/daemon"
mkdir -p "$daemondir"
go build -o "$daemondir/charnetd" ./cmd/charnetd
"$daemondir/charnetd" -addr 127.0.0.1:0 2> "$daemondir/stderr.txt" &
daemonpid=$!
daemonaddr=""
for _ in $(seq 1 100); do
    daemonaddr=$(sed -n 's|^charnetd: serving on http://||p' "$daemondir/stderr.txt")
    [[ -n "$daemonaddr" ]] && break
    sleep 0.05
done
if [[ -z "$daemonaddr" ]]; then
    echo "charnetd never announced its address:" >&2
    cat "$daemondir/stderr.txt" >&2
    exit 1
fi
"$renderdir/charnet" -format json export aspnet > "$daemondir/export.json"
"$check" artifact "$daemondir/export.json"
for pass in cold warm; do
    curl -fsS -X POST -H 'Content-Type: application/json' -d '{"suite":"aspnet"}' \
        "http://$daemonaddr/v1/measure" > "$daemondir/measure-$pass.json"
    "$check" artifact "$daemondir/measure-$pass.json"
    if ! cmp -s "$daemondir/measure-$pass.json" "$daemondir/export.json"; then
        echo "charnet export and charnetd /v1/measure ($pass) emit different bytes for aspnet:" >&2
        diff "$daemondir/measure-$pass.json" "$daemondir/export.json" | head -20 >&2 || true
        exit 1
    fi
done
"$check" metrics \
    -want charnet_serve_request_latency_seconds,charnet_serve_queue_wait_seconds,charnet_measure_latency_seconds \
    "http://$daemonaddr/metrics"
kill -TERM "$daemonpid"
if ! wait "$daemonpid"; then
    echo "charnetd did not exit cleanly on SIGTERM:" >&2
    cat "$daemondir/stderr.txt" >&2
    exit 1
fi
grep -q "charnetd: drained" "$daemondir/stderr.txt" || {
    echo "charnetd did not report a graceful drain" >&2; exit 1; }

echo "ok: all checks passed"

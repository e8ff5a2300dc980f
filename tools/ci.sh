#!/usr/bin/env bash
# The full local gate, in the order a reviewer would run it:
#
#   1. tier-1: release build + the root test suite (ROADMAP.md), then the
#      member crates' own suites (`--workspace --exclude aadl-sched`)
#   2. the pinned-timeline gates: the golden diagnose trace and the
#      concurrency-control inversion timeline, named explicitly so a drift
#      in either renders as its own CI line, not a needle in the full suite
#   3. the artifact-store A/B: the bench harness twice against one fresh
#      `--store` directory — verdict lines must be byte-identical cold vs
#      warm, the second run must demonstrably serve its Q12 cold pass
#      from the store the first run deposited (cas.hits >= 1), and the
#      report it refreshed must carry its `cas` and `obs_overhead` sections
#   4. the bench harness once more, on its own fresh store: it regenerates
#      every table and BENCH_exploration.json, which is committed —
#      deliberately after the store stage, so the committed report's `cas`
#      section reflects a fresh cold/warm A/B. It aborts if its Q12 warm
#      sweep changes a verdict row, its Q13 zone graph misses the 10x state
#      bar or its Q11 recorder modes disagree on states or transitions, and
#      the stage fails if the report lacks its `cas` or `obs_overhead`
#      section
#   5. the zone smoke: every small bundled model analyzed with
#      `--exhaustive` (the delay-zone graph) and with `--exhaustive --dot`
#      (the same search at unit edges, which builds the LTS) — exit codes must
#      be the pinned 0/0/1/1/0 on both, and everything but the
#      `exploration:` statistics line must be byte-identical (verdicts and
#      counterexample timelines: delay zones and their closed-form advance
#      are a traversal change, never a verdict change); the long-hyperperiod
#      model must exit 0 and demonstrably collapse quanta
#      (`zone.quanta_collapsed` >= 1) and serve them closed-form
#      (`zone.closed_form_advances` >= 1) in its `--metrics` report, which
#      must stay under 100 000 bytes (a run records a fixed handful of spans
#      and summarizes its Dijkstra buckets in two histograms; one span per
#      bucket made this report 4.7 MB), and
#      intern no more than 126807 subterms (`term.unique_subterms`): only
#      the successors the search keeps are built; and derive no more than
#      10 root lists a second time (`step.root_rederivations`): the memo's
#      root window still holds every list the search re-reads; the
#      late-miss model must exit 1 with its 191201-quanta failing scenario
#      after serving closed-form spans (`zone.closed_form_advances` >= 1),
#      so a counterexample behind spans the search never derived is
#      re-derived through the step relation in a release build
#   6. the daemon smoke: start `aadlschedd`, analyze four small bundled
#      models and the long-hyperperiod one through `aadlschedc` and diff
#      the exit codes against the `aadlsched` CLI (the two front ends must
#      agree verdict-for-verdict; longperiod's large per-request term store
#      is freed after its reply, so that path runs on every pass),
#      check that a duplicate request is served from the result cache,
#      assert the live `stats` snapshot parses with monotone request_wall
#      quantiles, then drain gracefully (daemon must exit 0 and write a
#      fleet report carrying the flight-recorder window)
#   7. the benchmark smoke: `bash benchmark/run.sh --smoke` builds the
#      separate benchmark package and runs every workload briefly (see
#      benchmark/README.md); its output is kept in
#      target/ci/benchmark-smoke.txt and printed, pass or fail, and the
#      long-hyperperiod model's peak RSS on its result line
#      (`longperiod/peak_rss_mb`) must be at most 34 MB: a delay edge of
#      the zone graph keeps only its weight, and only a counterexample's
#      interior quanta are re-derived after the search (per-edge
#      timelines read 50.8 MB; before that the term store's keyed maps
#      and per-digest vectors read 67 MB)
#   8. the single-owner check: no file in crates/acsr/src except symbol.rs
#      (the process-wide name interner) may mention `Mutex`, `RwLock` or an
#      atomic type — one analysis owns its term store, step memo and
#      advance cache and steps them on one thread, so they sit in
#      `RefCell`s and `Cell`s, and a lock that comes back fails here by
#      file and line
#   9. the hermetic-build audit (path-only deps, pinned dependency graph,
#      obs dependency-free, `cargo doc` with warnings denied — see
#      tools/check_hermetic.sh)
#
# Run from anywhere:
#
#   tools/ci.sh
#
# Exit code 0 = everything green.

set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace crates: cargo test -q --workspace --exclude aadl-sched =="
# The root manifest is a package, so plain `cargo test` covers only the
# root crate; this line runs every member crate's own suites (acsr
# interning props, versa, obs, the served daemon + PROTOCOL.md replay
# tests, ...) without repeating the root tests.
cargo test -q --workspace --exclude aadl-sched

echo "== golden timelines: diagnose + inversion =="
cargo test -q --test golden_diagnose --test inversion

mkdir -p target/ci
# Verdict lines only, wall-clock fields stripped: everything else must be
# byte-identical between runs that are allowed to differ only in timing.
extract_verdicts() {
  grep -E "schedulable|VERDICT" | sed -E 's/ time=[^ ]*//'
}

# The sections of BENCH_exploration.json that the harness's sweeps write
# next to the exploration report: the store A/B (Q12) and the recorder A/B
# (Q11).
require_bench_sections() {
  for section in cas obs_overhead; do
    if ! grep -q "\"$section\"" BENCH_exploration.json; then
      echo "$1: BENCH_exploration.json lost its $section section"
      exit 1
    fi
  done
}

echo "== artifact store: cold vs warm verdicts must be byte-identical =="
rm -rf target/ci/cas
cargo run --release -q -p bench --bin harness -- --store target/ci/cas \
  | extract_verdicts > target/ci/verdicts-cold.txt
cargo run --release -q -p bench --bin harness -- --store target/ci/cas \
  > target/ci/harness-warm.txt
extract_verdicts < target/ci/harness-warm.txt > target/ci/verdicts-warm.txt
diff -u target/ci/verdicts-cold.txt target/ci/verdicts-warm.txt
echo "artifact store: verdicts identical cold vs warm"
# The second run must have served its Q12 cold pass from the store the
# first run deposited: its cold-pass counter line reports hits, and the
# refreshed BENCH report carries the cas section.
cold_hits="$(sed -n 's/^cold pass: hits=\([0-9]*\).*/\1/p' target/ci/harness-warm.txt)"
if [ "${cold_hits:-0}" -lt 1 ]; then
  echo "artifact store: second run did not hit the store (cold-pass hits=${cold_hits:-absent})"
  exit 1
fi
require_bench_sections "artifact store"
echo "artifact store: second run served $cold_hits artifact(s) from the store"

echo "== bench harness: regenerate every table and BENCH_exploration.json =="
cargo run --release -q -p bench --bin harness > target/ci/harness.txt
require_bench_sections "bench harness"
echo "bench harness: every table regenerated, BENCH_exploration.json refreshed"

echo "== zone smoke: zone verdicts must match the per-quantum --dot search =="
# Every small bundled model, on the zone engine and on the per-quantum
# search behind --dot. Exit codes must be the pinned ones and the output
# byte-identical apart from the statistics line (state counts intentionally
# differ — the zone graph materializes fewer states, which the longperiod
# run below proves via the zone.quanta_collapsed counter; that the
# closed-form path is actually serving, not silently walking every quantum,
# is proved the same way via zone.closed_form_advances).
strip_stats() {
  grep -vE '^(exploration:|LTS written to )'
}
for entry in cruise_control:0 flight_control:0 inversion:1 overloaded:1 producer_handler:0; do
  model="${entry%%:*}"
  expected="${entry##*:}"
  zones_code=0
  target/release/aadlsched "examples/models/$model.aadl" --exhaustive \
    > target/ci/zone-zoned.txt || zones_code=$?
  dot_code=0
  target/release/aadlsched "examples/models/$model.aadl" --exhaustive \
    --dot "target/ci/$model.dot" > target/ci/zone-dot.txt || dot_code=$?
  if [ "$zones_code" -ne "$expected" ] || [ "$dot_code" -ne "$expected" ]; then
    echo "zone smoke: $model: exit codes zones $zones_code, --dot $dot_code, expected $expected"
    exit 1
  fi
  if ! diff -u <(strip_stats < target/ci/zone-dot.txt) \
               <(strip_stats < target/ci/zone-zoned.txt); then
    echo "zone smoke: $model: output differs (--dot vs zones)"
    exit 1
  fi
  echo "zone smoke: $model: verdicts agree (exit $zones_code)"
done
longperiod_code=0
target/release/aadlsched examples/models/longperiod.aadl --exhaustive \
  --metrics target/ci/zones-metrics.json > /dev/null || longperiod_code=$?
if [ "$longperiod_code" -ne 0 ]; then
  echo "zone smoke: longperiod exited $longperiod_code, expected 0"
  exit 1
fi
# The search records one `explore` span and observes each Dijkstra bucket
# in two histograms (16140 buckets here); with one span per bucket this
# report was 4683766 bytes.
report_bytes="$(wc -c < target/ci/zones-metrics.json)"
if [ "$report_bytes" -gt 100000 ]; then
  echo "zone smoke: per-bucket spans came back: longperiod's --metrics report is $report_bytes bytes, more than 100000"
  exit 1
fi
collapsed="$(grep -o '"zone.quanta_collapsed": [0-9]*' target/ci/zones-metrics.json \
  | grep -o '[0-9]*$')"
if [ "${collapsed:-0}" -lt 1 ]; then
  echo "zone smoke: longperiod collapsed no quanta (zone.quanta_collapsed=${collapsed:-absent})"
  exit 1
fi
closed_advances="$(grep -o '"zone.closed_form_advances": [0-9]*' target/ci/zones-metrics.json \
  | grep -o '[0-9]*$')"
if [ "${closed_advances:-0}" -lt 1 ]; then
  echo "zone smoke: longperiod served no closed-form advances (zone.closed_form_advances=${closed_advances:-absent})"
  exit 1
fi
# Every state's successors are restricted and prioritized before any is
# interned (DESIGN.md §13), which leaves 126807 subterms in this run's
# store; building every raw successor first left 425306. More than the
# bound means discarded successors are being interned again.
subterms="$(grep -A1 '"term.unique_subterms": {' target/ci/zones-metrics.json \
  | grep -o '"value": [0-9]*' | grep -o '[0-9]*$')"
if [ -z "$subterms" ] || [ "$subterms" -gt 126807 ]; then
  echo "zone smoke: longperiod interned ${subterms:-absent} subterms, more than 126807 (term.unique_subterms): discarded successors are interned again"
  exit 1
fi
# A root state's prioritized list is kept only in a window of the last
# 4096 roots (DESIGN.md §13); this run re-derives 10 lists that left it.
# More means the window no longer covers the search's re-reads.
rederived="$(grep -o '"step.root_rederivations": [0-9]*' target/ci/zones-metrics.json \
  | grep -o '[0-9]*$')"
if [ -z "$rederived" ] || [ "$rederived" -gt 10 ]; then
  echo "zone smoke: longperiod derived ${rederived:-absent} root lists again, more than 10 (step.root_rederivations): the root window misses re-reads"
  exit 1
fi
echo "zone smoke: longperiod collapsed $collapsed quanta ($closed_advances closed-form advances, $subterms subterms, $rederived root lists derived again, a $report_bytes-byte report)"
# The late-miss model's first deadline miss lies behind closed-form spans
# whose interior quanta the search never derived; its counterexample is
# re-derived through the step relation after the search, which panics
# (exit 101) rather than print a step the relation does not take.
latemiss_code=0
target/release/aadlsched examples/models/latemiss.aadl \
  --metrics target/ci/latemiss-metrics.json > target/ci/latemiss.txt || latemiss_code=$?
latemiss_advances="$(grep -o '"zone.closed_form_advances": [0-9]*' target/ci/latemiss-metrics.json \
  | grep -o '[0-9]*$' || true)"
if [ "$latemiss_code" -ne 1 ] || ! grep -q '^failing scenario (191201 quanta):$' target/ci/latemiss.txt \
  || [ "${latemiss_advances:-0}" -lt 1 ]; then
  echo "zone smoke: latemiss exited $latemiss_code with $(grep -c . target/ci/latemiss.txt) output lines and zone.closed_form_advances=${latemiss_advances:-absent}; expected exit 1, a 191201-quanta failing scenario and closed-form spans on its path"
  exit 1
fi
echo "zone smoke: latemiss misses at quantum 191201 behind $latemiss_advances closed-form advances, counterexample re-derived"

echo "== daemon smoke: aadlschedd verdicts must match the CLI =="
# Stage 1 built the workspace binaries; run them directly so the smoke
# stage measures the daemon, not cargo.
cargo build --release -q -p served
daemon_log=target/ci/aadlschedd.log
target/release/aadlschedd --addr 127.0.0.1:0 --metrics target/ci/fleet.json \
  > "$daemon_log" &
daemon_pid=$!
# Readiness line: "aadlschedd listening on 127.0.0.1:<port>".
addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^aadlschedd listening on //p' "$daemon_log")"
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "daemon smoke: aadlschedd did not print its readiness line"
  exit 1
fi
for model in cruise_control flight_control inversion overloaded longperiod; do
  cli_code=0
  target/release/aadlsched "examples/models/$model.aadl" --exhaustive \
    > /dev/null || cli_code=$?
  daemon_code=0
  target/release/aadlschedc --addr "$addr" \
    analyze "examples/models/$model.aadl" --exhaustive \
    > /dev/null || daemon_code=$?
  if [ "$cli_code" -ne "$daemon_code" ]; then
    echo "daemon smoke: $model: CLI exit $cli_code != daemon exit $daemon_code"
    exit 1
  fi
  echo "daemon smoke: $model: verdicts agree (exit $cli_code)"
done
# The analyses above populated the result cache; a duplicate request
# must be answered from it, and the fleet counter must show the hit.
if ! target/release/aadlschedc --addr "$addr" \
    analyze examples/models/cruise_control.aadl --exhaustive \
    | grep -q '"cached":true'; then
  echo "daemon smoke: duplicate request was not served from the result cache"
  exit 1
fi
hits="$(target/release/aadlschedc --addr "$addr" metrics \
  | grep -o '"served.cache_hits":[0-9]*' | cut -d: -f2)"
if [ "${hits:-0}" -lt 1 ]; then
  echo "daemon smoke: served.cache_hits is ${hits:-absent}, expected >= 1"
  exit 1
fi
# Live introspection: `stats` must answer with exit 0 and parseable
# request_wall quantile estimates, and those estimates must be monotone
# (p50 <= p90 <= p99 — the HistogramSnapshot::quantile contract).
stats_line="$(target/release/aadlschedc --addr "$addr" stats)"
wall="$(printf '%s' "$stats_line" | grep -o '"served.request_wall":{[^}]*')"
p50="$(printf '%s' "$wall" | grep -o '"p50":[0-9]*' | cut -d: -f2)"
p90="$(printf '%s' "$wall" | grep -o '"p90":[0-9]*' | cut -d: -f2)"
p99="$(printf '%s' "$wall" | grep -o '"p99":[0-9]*' | cut -d: -f2)"
if [ -z "${p50:-}" ] || [ -z "${p90:-}" ] || [ -z "${p99:-}" ]; then
  echo "daemon smoke: stats did not carry request_wall p50/p90/p99"
  exit 1
fi
if [ "$p50" -gt "$p90" ] || [ "$p90" -gt "$p99" ]; then
  echo "daemon smoke: request_wall quantiles not monotone: $p50/$p90/$p99"
  exit 1
fi
echo "daemon smoke: stats quantiles monotone (p50=$p50 p90=$p90 p99=$p99 ns)"
target/release/aadlschedc --addr "$addr" health --summary > /dev/null
target/release/aadlschedc --addr "$addr" shutdown > /dev/null
if ! wait "$daemon_pid"; then
  echo "daemon smoke: aadlschedd did not exit 0 on graceful drain"
  exit 1
fi
if [ ! -s target/ci/fleet.json ]; then
  echo "daemon smoke: fleet metrics report was not written"
  exit 1
fi
# The drain must carry the flight-recorder window into the fleet report:
# the six analyze requests above each left an event with an outcome.
if ! grep -q '"flight"' target/ci/fleet.json \
    || ! grep -q '"outcome"' target/ci/fleet.json; then
  echo "daemon smoke: flight recorder window missing from the fleet report"
  exit 1
fi
echo "daemon smoke: cache hit observed, graceful drain, fleet report carries the flight window"

echo "== benchmark smoke: bash benchmark/run.sh --smoke =="
# A redirect, not a pipe into `tee`: without `pipefail` the pipe would
# hide the smoke's exit code.
smoke_code=0
bash benchmark/run.sh --smoke > target/ci/benchmark-smoke.txt || smoke_code=$?
cat target/ci/benchmark-smoke.txt
if [ "$smoke_code" -ne 0 ]; then
  echo "benchmark smoke: bash benchmark/run.sh --smoke exited $smoke_code"
  exit 1
fi
# The last line is the result line. A delay edge keeps only its weight;
# the per-quantum timelines every delay edge used to keep put this run at
# 50.8 MB.
longperiod_rss="$(tail -n 1 target/ci/benchmark-smoke.txt \
  | grep -o '"longperiod/peak_rss_mb":{"value":[0-9.]*' | grep -o '[0-9.]*$' || true)"
if [ -z "$longperiod_rss" ] || awk -v mb="$longperiod_rss" 'BEGIN { exit !(mb > 34) }'; then
  echo "benchmark smoke: longperiod/peak_rss_mb is ${longperiod_rss:-absent}, expected at most 34 MB: delay edges keep timelines again (or the term store's index grew back)"
  exit 1
fi
echo "benchmark smoke: longperiod peak RSS $longperiod_rss MB"

echo "== single-owner check: no locks or atomics in the acsr engine =="
engine_locks="$(grep -rnE 'Mutex|RwLock|Atomic' crates/acsr/src \
  | grep -v '^crates/acsr/src/symbol\.rs:' || true)"
if [ -n "$engine_locks" ]; then
  printf '%s\n' "$engine_locks"
  echo "single-owner check: a lock or atomic is back in crates/acsr/src (listed above); one analysis owns the store, memo and advance cache on one thread, so use RefCell or Cell"
  exit 1
fi
echo "single-owner check: only symbol.rs locks in crates/acsr/src"

echo "== hermetic audit =="
tools/check_hermetic.sh

echo "ci: OK"

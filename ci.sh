#!/bin/bash
# Tier-1 gate: formatting, lints, and the offline build+test the paper
# reproduction is judged by. Runs with no network access.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release --workspace --offline
cargo test -q --workspace --offline

echo "== benchmark crate: builds and tests against the workspace API"
# e2ebench is a workspace of its own that links the library crates by
# path, so a public-API change that breaks it must fail here rather
# than in a benchmark run.
cargo build --release --offline --manifest-path e2ebench/Cargo.toml
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "== fault injection: supervised report under every failpoint site"
# Each armed site must leave the report standing: exit 0, a per-section
# failure (or degraded) notice, and the end-of-report summary line.
TNET="target/release/tnet"
REPORT_ARGS=(report --scale 0.008 --seed 42 --extensions false --threads 2)
for spec in \
    "fsg::candidate_gen=panic" \
    "fsg::candidate_gen=err" \
    "subdue::beam_eval=panic" \
    "subdue::beam_eval=err" \
    "em::iteration=panic" \
    "em::iteration=err"
do
    echo "-- TNET_FAILPOINTS=$spec"
    out=$(TNET_FAILPOINTS="$spec" "$TNET" "${REPORT_ARGS[@]}")
    grep -q '!! section failed:' <<<"$out"
    grep -q '^sections: ' <<<"$out"
    ! grep -q '^sections: .*, 0 failed$' <<<"$out"
done
# A delay fault plus a section deadline: the slowed section is killed by
# the deadline, everything else completes.
echo "-- TNET_FAILPOINTS=em::iteration=delay:2000 --deadline-secs 1"
out=$(TNET_FAILPOINTS="em::iteration=delay:2000" \
    "$TNET" "${REPORT_ARGS[@]}" --deadline-secs 1)
grep -q 'exceeded its .* deadline' <<<"$out"
grep -q '^sections: ' <<<"$out"
# csv::ingest arms the CSV reader, not the report: a malformed-free file
# still fails to load, with the injected fault and a line number, exit 1.
echo "-- TNET_FAILPOINTS=csv::ingest=err (stats --input)"
"$TNET" gen --scale 0.005 --seed 42 --out /tmp/tnet_ci_fault.csv >/dev/null
set +e
TNET_FAILPOINTS="csv::ingest=err" \
    "$TNET" stats --input /tmp/tnet_ci_fault.csv 2>/tmp/tnet_ci_fault.err
code=$?
set -e
test "$code" -eq 1
grep -q 'injected fault' /tmp/tnet_ci_fault.err
# No failpoint needed for real bad data: a NaN in any numeric field is a
# typed runtime error with a 1-based line number — one stderr line, exit
# 1, never a panic.
echo "-- NaN field rejection (stats --input)"
head -n 1 /tmp/tnet_ci_fault.csv > /tmp/tnet_ci_nan.csv
echo '1,0,1,44.5,-88.0,41.9,-87.6,200,NaN,8,TL' >> /tmp/tnet_ci_nan.csv
set +e
"$TNET" stats --input /tmp/tnet_ci_nan.csv 2>/tmp/tnet_ci_nan.err
code=$?
set -e
test "$code" -eq 1
test "$(wc -l < /tmp/tnet_ci_nan.err)" -eq 1
grep -q 'non-finite' /tmp/tnet_ci_nan.err
grep -q 'line 2' /tmp/tnet_ci_nan.err
rm -f /tmp/tnet_ci_fault.csv /tmp/tnet_ci_fault.err \
    /tmp/tnet_ci_nan.csv /tmp/tnet_ci_nan.err
# Unarmed control: full success and a clean summary.
echo "-- unarmed control"
out=$("$TNET" "${REPORT_ARGS[@]}")
grep -q '^sections: 13 ok, 0 degraded, 0 failed$' <<<"$out"

echo "== frozen-vs-arena differential: miners agree across representations"
# FSG and SUBDUE mined through the frozen-CSR snapshot must match the
# arena path byte-for-byte (patterns, supports, TIDs, instance ids).
cargo test -q -p tnet-core --offline --test determinism \
    frozen_and_arena_miners_agree

echo "== canonical-code differential: equal codes iff isomorphic, at scale"
# 100,000 seeded random multigraph pairs of up to 7 vertices (self-loops,
# parallel edges) checked against VF2, plus same-label directed cycle
# covers of up to 12 vertices, which colour refinement alone cannot
# split. The time bound catches a search that degrades into enumerating
# vertex orders.
cargo test --release -q -p tnet-graph --offline --test canon --no-run
TNET_CANON_PAIRS=100000 timeout 60 \
    cargo test --release -q -p tnet-graph --offline --test canon

echo "== trace smoke: --trace-json round-trips through the schema parser"
TRACE_OUT=/tmp/tnet_ci_trace.json
"$TNET" mine --scale 0.01 --partitions 4 --support 3 --max-edges 3 \
    --reps 1 --verbose true --trace --trace-json "$TRACE_OUT" \
    > /tmp/tnet_ci_trace.out
grep -q '^--- trace' /tmp/tnet_ci_trace.out
grep -q 'fsg' /tmp/tnet_ci_trace.out
grep -q 'fsg.iso_tests' /tmp/tnet_ci_trace.out
grep -q 'fsg.iso_class_checks' /tmp/tnet_ci_trace.out
# The frozen-graph counters flow into both the verbose summary and the
# unified metrics namespace.
grep -q '^frozen graphs:' /tmp/tnet_ci_trace.out
grep -q 'graph.freeze_count' /tmp/tnet_ci_trace.out
grep -q 'graph.csr_bytes' /tmp/tnet_ci_trace.out
# Data-layout counters (DESIGN.md §14): bitset intersections and the L2
# chunk-size hint surface in the same namespace.
grep -q '^data layout:' /tmp/tnet_ci_trace.out
grep -q 'fsg.bitset_intersections' /tmp/tnet_ci_trace.out
grep -q 'exec.chunk_items' /tmp/tnet_ci_trace.out
rm -f /tmp/tnet_ci_trace.out

echo "== seed-2 smoke: paper-scale mining finishes on the hub-heavy seed"
# Synthesis seed 2 at paper scale grows hub transactions where a
# negative VF2 decision can try every spoke assignment. The matcher's
# core-first plan and label-count domination keep the whole command
# (about 12 s of it synthesis) well inside the bound; a plan that
# permutes twin spokes before a rare edge does not finish in it.
timeout 120 "$TNET" mine --scale 1 --seed 2 --threads 2 > /dev/null

echo "== neighborhood smoke: mine --mode neighborhood, trace, thread invariance"
# The r-hop neighborhood miner runs FSG over the un-partitioned OD
# graph's neighborhoods; its index counters (nbhd.*) and FSG's own
# (fsg.*) flow through the unified namespace, its pattern output is
# byte-identical at any thread count, and its trace export round-trips
# through the new `tnet trace` summarizer.
NBHD_TRACE=/tmp/tnet_ci_nbhd_trace.json
NBHD_ARGS=(mine --scale 0.01 --mode neighborhood --radius 1 --support 3 \
    --max-edges 3)
"$TNET" "${NBHD_ARGS[@]}" --verbose true --trace --trace-json "$NBHD_TRACE" \
    > /tmp/tnet_ci_nbhd.out 2>/dev/null
grep -q 'frequent neighborhood patterns' /tmp/tnet_ci_nbhd.out
grep -q 'nbhd.centers' /tmp/tnet_ci_nbhd.out
grep -q 'fsg.iso_tests' /tmp/tnet_ci_nbhd.out
"$TNET" "${NBHD_ARGS[@]}" --threads 1 > /tmp/tnet_ci_nbhd_t1.out 2>/dev/null
"$TNET" "${NBHD_ARGS[@]}" --threads 2 > /tmp/tnet_ci_nbhd_t2.out 2>/dev/null
"$TNET" "${NBHD_ARGS[@]}" --threads 8 > /tmp/tnet_ci_nbhd_t8.out 2>/dev/null
diff /tmp/tnet_ci_nbhd_t1.out /tmp/tnet_ci_nbhd_t2.out
diff /tmp/tnet_ci_nbhd_t1.out /tmp/tnet_ci_nbhd_t8.out
# `tnet trace` summarizes the export (and exits 1 unless it decodes as
# tnet-trace/v1)...
"$TNET" trace --input "$NBHD_TRACE" > /tmp/tnet_ci_nbhd_sum.out
grep -q 'total wall' /tmp/tnet_ci_nbhd_sum.out
grep -q 'nbhd.centers' /tmp/tnet_ci_nbhd_sum.out
# ...and refuses a truncated one with a single stderr line, exit 1 —
# never a panic (satellite contract from PR 2).
head -c 40 "$NBHD_TRACE" > /tmp/tnet_ci_nbhd_trunc.json
set +e
"$TNET" trace --input /tmp/tnet_ci_nbhd_trunc.json \
    > /dev/null 2> /tmp/tnet_ci_nbhd_trunc.err
code=$?
set -e
test "$code" -eq 1
test "$(wc -l < /tmp/tnet_ci_nbhd_trunc.err)" -eq 1
# ...and a 200,000-deep nesting bomb the same way: the shared decoder
# caps nesting, so there is no stack overflow (exit 134).
head -c 200000 /dev/zero | tr '\0' '[' > /tmp/tnet_ci_deep.json
set +e
"$TNET" trace --input /tmp/tnet_ci_deep.json \
    > /dev/null 2> /tmp/tnet_ci_deep.err
code=$?
set -e
test "$code" -eq 1
test "$(wc -l < /tmp/tnet_ci_deep.err)" -eq 1
grep -q 'nested too deeply' /tmp/tnet_ci_deep.err
rm -f /tmp/tnet_ci_deep.json /tmp/tnet_ci_deep.err
rm -f "$NBHD_TRACE" /tmp/tnet_ci_nbhd.out /tmp/tnet_ci_nbhd_t1.out \
    /tmp/tnet_ci_nbhd_t2.out /tmp/tnet_ci_nbhd_t8.out \
    /tmp/tnet_ci_nbhd_sum.out /tmp/tnet_ci_nbhd_trunc.json \
    /tmp/tnet_ci_nbhd_trunc.err

echo "== temporal smoke: sliding windows, flow patterns"
# A sliding day-granularity run: the window header and flow report
# print, and the per-window pattern output is thread-invariant.
TEMPORAL_ARGS=(temporal --scale 0.01 --granularity day --window 3 \
    --slide 1 --support 3 --max-edges 2)
"$TNET" "${TEMPORAL_ARGS[@]}" --flow true \
    > /tmp/tnet_ci_temporal.out 2>/dev/null
grep -q '^[0-9]* windows over [0-9]* day units' /tmp/tnet_ci_temporal.out
grep -q '^flow patterns:' /tmp/tnet_ci_temporal.out
grep -q '^planted structure surfaced at day granularity:' \
    /tmp/tnet_ci_temporal.out
"$TNET" "${TEMPORAL_ARGS[@]}" --threads 8 \
    > /tmp/tnet_ci_temporal_t8.out 2>/dev/null
diff <(grep -v '^flow\|^planted\|^  flow\|^  cycle' \
        /tmp/tnet_ci_temporal.out) /tmp/tnet_ci_temporal_t8.out
# Inverted dates (delivery before pickup) are a typed error: one stderr
# line, exit 1, never a panic. CSV ingest catches this case first; the
# partition-layer TemporalError covers non-CSV paths (unit-tested).
"$TNET" gen --scale 0.005 --seed 42 --out /tmp/tnet_ci_temporal.csv \
    >/dev/null
head -n 1 /tmp/tnet_ci_temporal.csv > /tmp/tnet_ci_temporal_bad.csv
echo '1,5,1,44.5,-88.0,41.9,-87.6,200,30000,8,TL' \
    >> /tmp/tnet_ci_temporal_bad.csv
set +e
"$TNET" temporal --input /tmp/tnet_ci_temporal_bad.csv --granularity day \
    > /dev/null 2> /tmp/tnet_ci_temporal_bad.err
code=$?
set -e
test "$code" -eq 1
test "$(wc -l < /tmp/tnet_ci_temporal_bad.err)" -eq 1
grep -q 'precedes requested pickup' /tmp/tnet_ci_temporal_bad.err
rm -f /tmp/tnet_ci_temporal.out \
    /tmp/tnet_ci_temporal_t8.out /tmp/tnet_ci_temporal.csv \
    /tmp/tnet_ci_temporal_bad.csv /tmp/tnet_ci_temporal_bad.err

echo "== bench smoke: miner report emits valid JSON, iso_tests under gate"
# The smoke run times both miners once, writes the report, and exits
# non-zero if FSG's deterministic iso_tests counter on the default
# workload regresses past the 5x-drop gate baked into the binary. The run
# itself asserts that the frozen and arena paths mine byte-identical
# pattern sets. --validate re-parses the emitted file and checks all
# miners are present, the data-layout counters are live, frozen support
# counting stays within its ratio gate of the arena path, and the
# partition-vs-neighborhood block has live rows (a completed
# neighborhood run per row; the committed full report must also carry
# the ≥10× scaled row).
BENCH_OUT=/tmp/tnet_ci_bench.json
cargo run --release -q -p tnet-bench --offline --bin bench_miners -- \
    --smoke --out "$BENCH_OUT"
cargo run --release -q -p tnet-bench --offline --bin bench_miners -- \
    --validate "$BENCH_OUT"
# The committed full report must pass the same gates, plus the rows
# smoke runs skip (seed sensitivity and the ≥10× neighborhood row).
cargo run --release -q -p tnet-bench --offline --bin bench_miners -- \
    --validate BENCH_miners.json
# The CLI's trace export (written above) must decode through the same
# tnet-trace/v1 decoder that checks the embedded bench trace block.
"$TNET" trace --input "$TRACE_OUT" > /dev/null
rm -f "$BENCH_OUT" "$TRACE_OUT"

echo "== serve smoke: daemon on an ephemeral port, mixed query script"
# Start the daemon, read the ephemeral port from --port-file, run a
# scripted query mix over /dev/tcp (well-formed queries, a repeat to
# drive the cache, and a malformed line that must get an error reply,
# not kill anything), check the cache-hit counter rose, and shut down
# cleanly through the wire protocol — exit 0.
SERVE_PORT_FILE=/tmp/tnet_ci_serve_port.txt
SERVE_LOG=/tmp/tnet_ci_serve.log
rm -f "$SERVE_PORT_FILE"
"$TNET" serve --scale 0.005 --seed 42 --cache 64 \
    --publish-interval-ms 50 --shutdown-on-stdin-eof false \
    --port-file "$SERVE_PORT_FILE" > "$SERVE_LOG" &
SERVE_PID=$!
for _ in $(seq 1 300); do
    [ -s "$SERVE_PORT_FILE" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
    sleep 0.1
done
SERVE_PORT=$(cat "$SERVE_PORT_FILE")
# Opens fd 3 to the daemon with jittered exponential backoff: a daemon
# that just wrote its port file may not be accepting yet, and fixed-step
# retries from parallel CI jobs would stampede the listener in lockstep.
serve_connect() {
    local port=$1 ms=25 attempt
    for attempt in 1 2 3 4 5 6; do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3<>"/dev/tcp/127.0.0.1/$port"
            return 0
        fi
        sleep "$(awk -v ms="$ms" -v j="$((RANDOM % ms))" \
            'BEGIN{printf "%.3f", (ms + j) / 1000}')"
        ms=$((ms * 2))
    done
    echo "serve smoke: cannot connect on port $port after $attempt attempts" >&2
    return 1
}
serve_connect "$SERVE_PORT"
serve_rpc() {
    printf '%s\n' "$1" >&3
    IFS= read -r REPLY_LINE <&3
    printf '%s\n' "$REPLY_LINE"
}
serve_rpc '{"op":"ping"}'                                    | grep -q '"ok":true'
serve_rpc '{"op":"stats"}'                                   | grep -q '"report":'
serve_rpc '{"op":"stats"}'                                   | grep -q '"ok":true'
serve_rpc '{"op":"support","labeling":"gw","labels":[0,1]}'  | grep -q '"count":'
serve_rpc '{"op":"pattern","partitions":4,"support":3,"max_edges":3,"reps":1}' \
                                                             | grep -q '"lines":'
# Malformed input gets a one-line typed error reply; the connection and
# the daemon survive it.
serve_rpc 'this is not json'                                 | grep -q '"kind":"protocol"'
serve_rpc '{"op":"ping"}'                                    | grep -q '"ok":true'
# The repeated stats query must have landed in the result cache.
serve_rpc '{"op":"trace"}' | grep -q '"serve.cache_hits":[1-9]'
# The trace reply is a one-line tnet-trace/v1 document: saved to a file,
# `tnet trace` renders it like a CLI trace.
SERVE_TRACE=/tmp/tnet_ci_serve_trace.json
serve_rpc '{"op":"trace"}' > "$SERVE_TRACE"
serve_rpc '{"op":"shutdown"}'                                | grep -q '"ok":true'
exec 3<&- 3>&-
wait "$SERVE_PID"
grep -q 'shutdown complete' "$SERVE_LOG"
"$TNET" trace --input "$SERVE_TRACE" > /tmp/tnet_ci_serve_trace.out
grep -q 'serve.cache_hits' /tmp/tnet_ci_serve_trace.out
rm -f "$SERVE_PORT_FILE" "$SERVE_LOG" "$SERVE_TRACE" /tmp/tnet_ci_serve_trace.out

echo "== stuck-reader smoke: a client that never reads cannot hold shutdown"
# One connection pipelines 20,000 stats requests and never reads a
# reply, so the daemon's reply writes stall on full socket buffers. A
# second connection asks for shutdown; the daemon must still exit
# cleanly within the bound.
"$TNET" serve --scale 0.005 --seed 42 --shutdown-on-stdin-eof false \
    --port-file "$SERVE_PORT_FILE" > "$SERVE_LOG" &
SERVE_PID=$!
for _ in $(seq 1 300); do
    [ -s "$SERVE_PORT_FILE" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
    sleep 0.1
done
exec 4<>"/dev/tcp/127.0.0.1/$(cat "$SERVE_PORT_FILE")"
{ yes '{"op":"stats"}' | head -n 20000 >&4; } 2>/dev/null &
STUCK_WRITER=$!
sleep 1    # let the daemon's reply writes run into the full buffers
serve_connect "$(cat "$SERVE_PORT_FILE")"
printf '%s\n' '{"op":"shutdown"}' >&3
timeout 30 tail --pid="$SERVE_PID" -f /dev/null || {
    echo "stuck-reader smoke: daemon still running 30 s after shutdown" >&2
    kill "$SERVE_PID"
    exit 1
}
wait "$SERVE_PID"
exec 3<&- 3>&- 4<&- 4>&-
wait "$STUCK_WRITER" || true
grep -q 'shutdown complete' "$SERVE_LOG"
rm -f "$SERVE_PORT_FILE" "$SERVE_LOG"

echo "== durability smoke: acknowledged writes survive SIGKILL"
# A durable daemon ingests acknowledged batches and is SIGKILLed with no
# warning. Restarted on the same data directory it must answer stats and
# support queries exactly like a never-crashed control daemon fed the
# same acknowledged records — only the generation counter may differ
# (the control publishes incrementally; recovery republishes at once).
DUR_DIR=/tmp/tnet_ci_durable
DUR_LOG=/tmp/tnet_ci_durable.log
rm -rf "$DUR_DIR" && mkdir -p "$DUR_DIR"
# One 4-record ingest line with varied, deterministic field values.
ing_batch() {
    local base=$1 recs="" i id
    for i in 0 1 2 3; do
        id=$((base + i))
        recs+="${recs:+,}{\"id\":$id,\"pickup\":$((733000 + id * 7 % 1000))"
        recs+=",\"olat\":$((30 + id % 11)).5,\"olon\":-$((84 + id % 13)).2"
        recs+=",\"dlat\":$((33 + id % 7)).1,\"dlon\":-$((88 + id % 5)).9"
        recs+=",\"distance\":$((200 + id % 17 * 35)).0"
        recs+=",\"weight\":$((8000 + id % 9 * 4000)).0"
        recs+=",\"hours\":$((4 + id % 6 * 2)).5}"
    done
    printf '{"op":"ingest","records":[%s]}' "$recs"
}
# Starts a daemon in the background and connects fd 3 to it.
# Usage: serve_start <logfile> [extra flags...]
serve_start() {
    local log=$1; shift
    rm -f "$SERVE_PORT_FILE"
    "$TNET" serve --publish-interval-ms 25 --shutdown-on-stdin-eof false \
        --port-file "$SERVE_PORT_FILE" "$@" > "$log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 300); do
        [ -s "$SERVE_PORT_FILE" ] && break
        kill -0 "$SERVE_PID" 2>/dev/null || { cat "$log"; return 1; }
        sleep 0.1
    done
    serve_connect "$(cat "$SERVE_PORT_FILE")"
}
# Polls stats until the published generation holds $1 transactions.
serve_await_txns() {
    for _ in $(seq 1 300); do
        serve_rpc '{"op":"stats"}' | grep -q "\"transactions\":$1," && return 0
        sleep 0.05
    done
    echo "daemon never published $1 transactions" >&2
    return 1
}
# Normalizes the generation counter out of a reply.
norm() { sed 's/"generation":[0-9]*/"generation":_/'; }
DIFF_QUERIES=('{"op":"stats"}' '{"op":"support","labeling":"gw","labels":[0,1]}')

serve_start "$DUR_LOG" --data-dir "$DUR_DIR" --fsync always
serve_rpc "$(ing_batch 101)" | grep -q '"accepted":4'
serve_rpc "$(ing_batch 111)" | grep -q '"accepted":4'
serve_rpc '{"op":"delete","ids":[103]}' | grep -q '"accepted":1'
exec 3<&- 3>&-
# The braces keep bash's asynchronous "Killed" job notice out of the log.
{ kill -9 "$SERVE_PID" && wait "$SERVE_PID"; } 2>/dev/null || true

# Restart on the same directory: recovery must replay the WAL.
serve_start "$DUR_LOG" --data-dir "$DUR_DIR" --fsync always
serve_await_txns 7     # 8 ingested - 1 deleted
REC_REPLIES=$(for q in "${DIFF_QUERIES[@]}"; do serve_rpc "$q" | norm; done)
serve_rpc '{"op":"shutdown"}' | grep -q '"ok":true'
exec 3<&- 3>&-
wait "$SERVE_PID"

# The control daemon never crashes and never touches a disk.
serve_start "$DUR_LOG.control"
serve_rpc "$(ing_batch 101)" | grep -q '"accepted":4'
serve_rpc "$(ing_batch 111)" | grep -q '"accepted":4'
serve_rpc '{"op":"delete","ids":[103]}' | grep -q '"accepted":1'
serve_await_txns 7
CTL_REPLIES=$(for q in "${DIFF_QUERIES[@]}"; do serve_rpc "$q" | norm; done)
serve_rpc '{"op":"shutdown"}' | grep -q '"ok":true'
exec 3<&- 3>&-
wait "$SERVE_PID"
diff <(printf '%s\n' "$REC_REPLIES") <(printf '%s\n' "$CTL_REPLIES")

echo "== durability smoke: corruption refused, torn tail recovered"
# Mid-log corruption (a flipped checksum in the FIRST record, with valid
# records after it) must refuse startup with exit 1 — never serve
# silently damaged data.
cp "$DUR_DIR/wal.log" /tmp/tnet_ci_wal.bak
printf '\xde\xad\xbe\xef' | \
    dd of="$DUR_DIR/wal.log" bs=1 seek=4 count=4 conv=notrunc 2>/dev/null
set +e
timeout 30 "$TNET" serve --data-dir "$DUR_DIR" --shutdown-on-stdin-eof false \
    < /dev/null > /dev/null 2> "$DUR_LOG.corrupt"
code=$?
set -e
test "$code" -eq 1
grep -q 'corrupt' "$DUR_LOG.corrupt"
# A torn tail (crash mid-write) is different: the partial record was
# never acknowledged, so recovery truncates it with a warning and
# serves everything before the tear. The tear here chops the final
# (delete) record, so all 8 ingested records come back.
cp /tmp/tnet_ci_wal.bak "$DUR_DIR/wal.log"
WAL_SIZE=$(wc -c < "$DUR_DIR/wal.log")
dd if=/tmp/tnet_ci_wal.bak of="$DUR_DIR/wal.log" \
    bs=1 count=$((WAL_SIZE - 5)) 2>/dev/null
serve_start "$DUR_LOG.torn" --data-dir "$DUR_DIR" --fsync always
serve_await_txns 8
serve_rpc '{"op":"shutdown"}' | grep -q '"ok":true'
exec 3<&- 3>&-
wait "$SERVE_PID"
grep -q 'torn byte' "$DUR_LOG.torn"
rm -rf "$DUR_DIR" /tmp/tnet_ci_wal.bak \
    "$DUR_LOG" "$DUR_LOG.control" "$DUR_LOG.corrupt" "$DUR_LOG.torn" \
    "$SERVE_PORT_FILE"

echo "ci.sh: all green"

#!/bin/sh
# Tier-1 verification, fully offline: release build, the whole test suite,
# formatting and lints. This is the gate every change must pass.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
# The workspace's default members are every crate, so a bare build
# produces the vhdlc, vhdld and vhdlconform binaries the steps below run.
cargo build --release

echo "==> cargo test -q"
# Every crate's tests, once: the kernel's differential oracle suite
# (scan stepper and interpreter at several worker counts, checkpoint
# and restore), the conformance corpus replay, the
# VIF and snapshot property suites, the driver CLI and the server e2e
# tests.
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -D warnings"
# Lints every crate's library, tests, benches and examples; a new warning
# fails the gate.
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Every crate's API docs; a broken or private intra-doc link fails the
# gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> non-test lines per crate"
# The line counts simplicity changes quote: each crate's lines under
# crates/*/src before a file's first column-0 #[cfg(test)].
scripts/loc.sh

echo "==> vhdlbench build + smoke run"
# The benchmark is its own package outside the workspace, compiled
# against the public API (Compiler, BatchOptions, Simulator::set_jobs,
# ServerConfig); nothing else builds it, so an API change that breaks it
# would otherwise go unnoticed. One short pass per workload, exit 0.
BENCH_OUT="$(mktemp -d)"
cargo run --release --offline --manifest-path vhdlbench/Cargo.toml -- \
    --seed 1 --smoke --out "$BENCH_OUT"
rm -rf "$BENCH_OUT"

echo "==> exp_kernel smoke incl. kernel pool (low iters, scratch output dir)"
# A quick pass over the kernel benchmarks proves they still run end to end
# — including the two-worker timeout storm, whose preamble asserts that
# its cycles reach the kernel pool with jobs-1 counters; AG_BENCH_OUT
# keeps the committed full-iteration results/ untouched.
# Only the metric names are checked: a timed gate on two vCPUs is noise.
SMOKE_OUT="$(mktemp -d)"
AG_BENCH_ITERS=2 AG_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p ag-bench --bench exp_kernel
grep -q '"oscillator_events_per_sec"' "$SMOKE_OUT/exp_kernel.json" \
    || { echo "verify: exp_kernel did not emit the oscillator throughput metric" >&2; exit 1; }
grep -q '"timeout_storm_jobs2_speedup"' "$SMOKE_OUT/exp_kernel.json" \
    || { echo "verify: exp_kernel did not emit the kernel pool speedup metric" >&2; exit 1; }
rm -rf "$SMOKE_OUT"

echo "==> exp_generator_scaling (E8) smoke (scratch output dir)"
# The generator-scaling harness still runs end to end and times both real
# grammars' LALR tables on their own. Only the metric names are checked,
# as for exp_kernel: a timed gate on two vCPUs is noise.
SMOKE_OUT="$(mktemp -d)"
AG_BENCH_ITERS=2 AG_BENCH_OUT="$SMOKE_OUT" \
    cargo bench -q -p ag-bench --bench exp_generator_scaling
for metric in principal_tables_ms expr_tables_ms; do
    grep -q "\"$metric\"" "$SMOKE_OUT/exp_generator_scaling.json" \
        || { echo "verify: exp_generator_scaling did not emit $metric" >&2; exit 1; }
done
rm -rf "$SMOKE_OUT"

echo "==> scripts/results.sh parses and names every file in results/"
# results/ is exactly what one scripts/results.sh run writes: a file the
# script does not name would be a number nothing regenerates.
sh -n scripts/results.sh
for f in $(find results -type f | sort); do
    grep -qF "$f" scripts/results.sh \
        || { echo "verify: $f is not written by scripts/results.sh" >&2; exit 1; }
done

echo "==> generative differential conformance (corpus replay + fresh fuzz + fault canary)"
# Replay every checked-in corpus seed through the full four-cell
# configuration matrix (interp x {1,4 workers} x
# {solid,checkpoint-restore}) demanding byte-identity and golden-digest
# stability, then fuzz a bounded batch of fresh deterministic seeds.
# Fully offline; seeds are fixed so the gate is reproducible.
CONFORM_TMP="$(mktemp -d)"
./target/release/vhdlconform run --seed-dir tests/corpus
./target/release/vhdlconform run --fresh 32 --seed 0x5eed
# Fault canary: a deliberately broken resolution commit (parallel cells
# see only the first driver) must make the gate FAIL, and the failure
# must come with a minimized reproducer — proving the oracle and the
# shrinker actually have teeth, not just that the kernel is healthy.
if ./target/release/vhdlconform run --fresh 32 --seed 1 --inject-fault \
    >"$CONFORM_TMP/fault.log" 2>&1; then
    echo "verify: injected resolution fault was NOT caught by the matrix" >&2
    exit 1
fi
grep -q "minimized reproducer" "$CONFORM_TMP/fault.log" \
    || { echo "verify: fault detection did not produce a minimized reproducer" >&2; exit 1; }
rm -rf "$CONFORM_TMP"

echo "==> batch mode on the end-to-end fixture (cold, then warm --incremental)"
# The full-adder example is a 10-unit design; compile it through the batch
# scheduler into a throwaway work library, then rerun warm
# with --incremental (every unit must hit the cache, and the file's parse
# comes from the library's `fronts` file, so the new process parses
# nothing) and elaborate to make sure the incrementally-reused library
# still simulates.
BATCH_WORK="$(mktemp -d)"
trap 'rm -rf "$BATCH_WORK"' EXIT
./target/release/vhdlc --work "$BATCH_WORK" --stats \
    examples/full_adder.vhd
./target/release/vhdlc --work "$BATCH_WORK" --incremental --stats \
    --elab tb --run 40 examples/full_adder.vhd >"$BATCH_WORK/warm.log" 2>&1
cat "$BATCH_WORK/warm.log"
grep -q "miss 0 cold 0" "$BATCH_WORK/warm.log" \
    || { echo "verify: warm --incremental rerun re-analyzed units" >&2; exit 1; }
grep -q "files parsed 0 reused 1" "$BATCH_WORK/warm.log" \
    || { echo "verify: warm --incremental rerun parsed its file" >&2; exit 1; }
# A library written before `stamps` lines carried the dependencies' VIF
# text hashes: cut back to `key stamp`, the warm run reads the unit files
# for the hashes and still re-analyzes nothing.
grep -q '^[^ ]* [^ ]* [^ ]*$' "$BATCH_WORK/stamps" \
    || { echo "verify: no stamps line carries a text hash" >&2; exit 1; }
sed -i 's/^\([^ ]* [^ ]*\) .*$/\1/' "$BATCH_WORK/stamps"
./target/release/vhdlc --work "$BATCH_WORK" --incremental --stats \
    examples/full_adder.vhd >"$BATCH_WORK/old-stamps.log" 2>&1
cat "$BATCH_WORK/old-stamps.log"
grep -q "miss 0 cold 0" "$BATCH_WORK/old-stamps.log" \
    || { echo "verify: a two-field stamps file re-analyzed units" >&2; exit 1; }
# A comment appended to the file: a third process parses it again, and
# every unit still hits its stamp (comments do not lex).
cp examples/full_adder.vhd "$BATCH_WORK/full_adder.vhd"
echo "-- a trailing comment" >>"$BATCH_WORK/full_adder.vhd"
./target/release/vhdlc --work "$BATCH_WORK" --incremental --stats \
    "$BATCH_WORK/full_adder.vhd" >"$BATCH_WORK/comment.log" 2>&1
cat "$BATCH_WORK/comment.log"
grep -q "miss 0 cold 0, files parsed 1 " "$BATCH_WORK/comment.log" \
    || { echo "verify: a comment-only edit re-analyzed units or was not parsed" >&2; exit 1; }
# The warm run's elaboration reads the units the cold run wrote: each
# of the 10 units' text is parsed at most once, because a loaded unit
# is memoised in its record (`vifb:` counter line from --stats).
PARSES="$(sed -n 's/^vifb: \([0-9][0-9]*\) text parses$/\1/p' "$BATCH_WORK/warm.log")"
[ -n "$PARSES" ] && [ "$PARSES" -ge 1 ] && [ "$PARSES" -le 10 ] \
    || { echo "verify: warm rerun parsed VIF text ${PARSES:-?} times, want 1..10" >&2; exit 1; }

echo "==> deep units end in a diagnostic, never in a signal"
# Attribute demands recurse as deep as the parse tree. A process of
# 20,000 statements and an expression in 24,000 pairs of parentheses must
# each exit by status (0 or 1).
HOSTILE="$BATCH_WORK/hostile"
mkdir "$HOSTILE"
HEAD='entity deep is end;
architecture a of deep is
begin
  process
    variable v : integer := 0;
  begin'
TAIL='    wait;
  end process;
end;'
awk -v head="$HEAD" -v tail="$TAIL" 'BEGIN {
    print head; for (i = 0; i < 20000; i++) print "    v := v + 1;"; print tail
}' >"$HOSTILE/stmts.vhd"
awk -v head="$HEAD" -v tail="$TAIL" 'BEGIN {
    for (i = 0; i < 24000; i++) { o = o "("; c = c ")" }
    print head; print "    v := " o "1" c ";"; print tail
}' >"$HOSTILE/parens.vhd"
for f in stmts parens; do
    rc=0
    ./target/release/vhdlc "$HOSTILE/$f.vhd" >"$HOSTILE/$f.log" 2>&1 || rc=$?
    cat "$HOSTILE/$f.log"
    [ "$rc" -le 1 ] \
        || { echo "verify: vhdlc on $f.vhd exited with status $rc" >&2; exit 1; }
done

echo "==> separate compilation through a disk library keeps same-position uids apart"
# p1 and p2 each declare `f` at 2:12 of their own file. The test bench is
# compiled by a second vhdlc run against the library the first one wrote,
# so its call reads p2's spec from VIF text on disk; it must run p2's body.
SEP="$BATCH_WORK/separate"
mkdir "$SEP"
for p in "p1 1" "p2 100"; do
    set -- $p
    cat >"$SEP/$1.vhd" <<EOF
package $1 is
  function f(x : integer) return integer;
end $1;
package body $1 is
  function f(x : integer) return integer is
  begin
    return x + $2;
  end f;
end $1;
EOF
done
cat >"$SEP/tf.vhd" <<'EOF'
entity tf is end;
architecture a of tf is
begin
  process
  begin
    assert work.p2.f(0) = 100 report "work.p2.f ran another body" severity error;
    wait;
  end process;
end a;
EOF
./target/release/vhdlc --work "$SEP/lib" "$SEP/p1.vhd" "$SEP/p2.vhd"
./target/release/vhdlc --work "$SEP/lib" "$SEP/tf.vhd" --elab tf --run 5 >"$SEP/tf.log" 2>&1 \
    || { cat "$SEP/tf.log"; echo "verify: separately compiled tf failed" >&2; exit 1; }
cat "$SEP/tf.log"
if grep -q " error: " "$SEP/tf.log"; then
    echo "verify: work.p2.f ran another package's body" >&2
    exit 1
fi

echo "==> vhdld loopback session (analyze -> elaborate -> run -> checkpoint -> restore -> inspect -> stats -> shutdown)"
# Start the server on an ephemeral loopback port, send it the deep units,
# then script one full session through the built-in client, and assert a
# clean drain: every response ok, the simulation quiescent, a checkpoint
# blob produced, and the server process exiting by itself.
./target/release/vhdld --listen 127.0.0.1:0 --quiet \
    --tenant-quota 4 >"$BATCH_WORK/vhdld.out" &
VHDLD_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^vhdld listening on //p' "$BATCH_WORK/vhdld.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: vhdld never started listening" >&2; exit 1; }
# A session analyzing the deep units first: it gets diagnostics, and the
# server and the scripted session after it carry on. It then sends them
# again with one statement changed: the session's compiler keeps the
# parse of every file of its last batch, so only the changed file parses.
sed '0,/v + 1;/s//v + 2;/' "$HOSTILE/stmts.vhd" >"$HOSTILE/stmts2.vhd"
./target/release/vhdld --connect "$ADDR" >"$BATCH_WORK/hostile.log" <<EOF
{"op":"analyze","paths":["$HOSTILE/stmts.vhd","$HOSTILE/parens.vhd"]}
{"op":"analyze","paths":["$HOSTILE/stmts2.vhd","$HOSTILE/parens.vhd"]}
EOF
cat "$BATCH_WORK/hostile.log"
grep -q 'nesting too deep' "$BATCH_WORK/hostile.log" \
    || { echo "verify: vhdld did not diagnose the deep units" >&2; exit 1; }
sed -n 2p "$BATCH_WORK/hostile.log" | grep -q '"parsed":1,"reused":1' \
    || { echo "verify: vhdld parsed more than the one changed file" >&2; exit 1; }
# The client reads its requests from a FIFO, so the session can restore
# the checkpoint it was just sent: the restore is served from the program
# the session kept from its `elaborate` (one program-cache hit in `stats`).
mkfifo "$BATCH_WORK/session.in"
./target/release/vhdld --connect "$ADDR" <"$BATCH_WORK/session.in" >"$BATCH_WORK/session.log" &
CLIENT_PID=$!
exec 3>"$BATCH_WORK/session.in"
cat >&3 <<'EOF'
{"op":"analyze","paths":["examples/full_adder.vhd"]}
{"op":"elaborate","entity":"tb"}
{"op":"run","until":"40ns","jobs":2}
{"op":"checkpoint"}
EOF
for _ in $(seq 1 100); do
    [ "$(wc -l <"$BATCH_WORK/session.log")" -ge 4 ] && break
    sleep 0.1
done
SNAPSHOT="$(sed -n '4s/.*"snapshot":"\([^"]*\)".*/\1/p' "$BATCH_WORK/session.log")"
printf '{"op":"restore","snapshot":"%s"}\n' "$SNAPSHOT" >&3
cat >&3 <<'EOF'
{"op":"inspect","path":":tb:sum"}
{"op":"stats"}
{"op":"shutdown"}
EOF
exec 3>&-
wait "$CLIENT_PID" || { echo "verify: vhdld client failed" >&2; exit 1; }
cat "$BATCH_WORK/session.log"
if grep -q '"ok":false' "$BATCH_WORK/session.log"; then
    echo "verify: vhdld session had a failing request" >&2
    exit 1
fi
grep -q '"outcome":"quiescent"' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld run did not reach quiescence" >&2; exit 1; }
grep -q '"kind":"signal"' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld inspect did not resolve :tb:sum" >&2; exit 1; }
grep -q '"snapshot":"' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld checkpoint did not return a snapshot blob" >&2; exit 1; }
grep -q '"restored":true' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld did not restore the checkpoint" >&2; exit 1; }
grep -q '"reused":true' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld restore did not reuse the kept program" >&2; exit 1; }
grep -q '"program_hits":1,' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld stats did not count one program hit" >&2; exit 1; }
grep -q '"draining":true' "$BATCH_WORK/session.log" \
    || { echo "verify: vhdld shutdown was not acknowledged" >&2; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$VHDLD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$VHDLD_PID" 2>/dev/null; then
    kill "$VHDLD_PID"
    echo "verify: vhdld did not drain after shutdown" >&2
    exit 1
fi
wait "$VHDLD_PID" || { echo "verify: vhdld exited nonzero" >&2; exit 1; }

echo "==> vhdld session forks load the base on their own (each fork parses its units once)"
# A base library of
# the full adder, and two sequential sessions that each analyze a new
# architecture of the base's `xor2`. Both sessions fork the base, so
# `entity.xor2` reaches them as a byte record, and each fork reads its
# text once: a fork shares no loaded tree with any other. (A session's
# own inline commits are trees and never parse text, so the input must
# read a base unit.) The process-wide `text_parses` counter in the
# `stats` response proves it: the first session moves it by 1..10, and
# the second by the same amount again.
./target/release/vhdld --listen 127.0.0.1:0 --quiet \
    --base examples/full_adder.vhd >"$BATCH_WORK/vhdld2.out" &
VHDLD2_PID=$!
ADDR2=""
for _ in $(seq 1 100); do
    ADDR2="$(sed -n 's/^vhdld listening on //p' "$BATCH_WORK/vhdld2.out")"
    [ -n "$ADDR2" ] && break
    sleep 0.1
done
[ -n "$ADDR2" ] || { echo "verify: second vhdld never started listening" >&2; exit 1; }
for log in cache1 cache2; do
    ./target/release/vhdld --connect "$ADDR2" >"$BATCH_WORK/$log.log" <<'EOF'
{"op":"analyze","files":[{"name":"alt.vhd","text":"architecture alt of xor2 is begin y <= a xor b; end alt;"}]}
{"op":"stats"}
EOF
done
cat "$BATCH_WORK/cache2.log"
if grep -q '"ok":false' "$BATCH_WORK/cache1.log" "$BATCH_WORK/cache2.log"; then
    echo "verify: forked session had a failing request" >&2
    exit 1
fi
PARSES1="$(sed -n 's/.*"text_parses":\([0-9]*\).*/\1/p' "$BATCH_WORK/cache1.log")"
PARSES2="$(sed -n 's/.*"text_parses":\([0-9]*\).*/\1/p' "$BATCH_WORK/cache2.log")"
[ -n "$PARSES1" ] && [ "$PARSES1" -ge 1 ] && [ "$PARSES1" -le 10 ] \
    || { echo "verify: first session parsed VIF text ${PARSES1:-?} times, want 1..10" >&2; exit 1; }
[ -n "$PARSES2" ] && [ "$PARSES2" -eq $((2 * PARSES1)) ] \
    || { echo "verify: second session left text_parses at ${PARSES2:-?}, want $((2 * PARSES1))" >&2; exit 1; }
kill "$VHDLD2_PID" 2>/dev/null || true
wait "$VHDLD2_PID" 2>/dev/null || true

echo "verify: OK"

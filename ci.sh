#!/bin/sh
# The full local gate: everything CI would run, in the order that fails
# fastest. Pass `--offline` through automatically — this repo vendors
# every dependency and must build without a network.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== paper bins =="
# every table/figure binary must run to completion: a panic in one of
# them is a broken reproduction even when no test calls it
for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    ./target/release/"$bin" > /dev/null || {
        echo "paper bin $bin failed" >&2
        exit 1
    }
done

echo "== resilience smoke =="
# the acceptance gates for the resilient execution layer (TMR masking,
# >= 90 % transient recovery, bit-for-bit replay) run first in release
# mode: they are the slowest property-style tests and fail fastest here
cargo test --release --offline -p flexresilient -q

echo "== link soak smoke =="
# end-to-end field-reprogramming soak: every kernel transferred over a
# noisy channel, upset in service, and still oracle-exact
cargo test --release --offline -p flexlink -q --test soak_acceptance

echo "== attacker soak smoke =="
# authenticated-update threat gate: >= 1000 seeded trials sweeping
# forged, replayed, downgraded, truncated and power-cut updates across
# all four dialects; `flexi attack` exits nonzero on any accepted
# forgery or bricked die, failing the build
./target/release/flexi attack --trials 1000 --seed 1

echo "== threaded campaign smoke =="
# determinism gate for the --threads knob: a threaded campaign must
# print the exact bytes the serial run prints
./target/release/flexi inject --faults 64 --seed 11 > /tmp/flexi_serial.txt
./target/release/flexi inject --faults 64 --seed 11 --threads 8 \
    > /tmp/flexi_threaded.txt
cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
./target/release/flexi link --rates 0,5e-4 --seed 11 > /tmp/flexi_serial.txt
./target/release/flexi link --rates 0,5e-4 --seed 11 --threads 8 \
    > /tmp/flexi_threaded.txt
cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
# the FC8 seed-5 wafer has 66 defective dies, so its screen spans two
# 63-lane packs with clean dies interleaved between them
./target/release/flexi wafer --design fc8 --seed 5 --cycles 2000 --map csv \
    > /tmp/flexi_serial.txt
./target/release/flexi wafer --design fc8 --seed 5 --cycles 2000 --map csv \
    --threads 8 > /tmp/flexi_threaded.txt
cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
rm -f /tmp/flexi_serial.txt /tmp/flexi_threaded.txt

echo "== mission soak smoke =="
# lifetime soak gate: the closed-loop health manager vs the static
# always-TMR baseline under the same seeded stress histories; `flexi
# mission` exits nonzero on any accepted forged re-flash, and the report
# must replay bit-for-bit whatever the worker topology — including a
# FLEXSHARD_FORCE_THREADS override of the requested thread count
./target/release/flexi mission --trials 24 --ticks 6 --seed 17 \
    > /tmp/flexi_serial.txt
FLEXSHARD_FORCE_THREADS=3 ./target/release/flexi mission --trials 24 \
    --ticks 6 --seed 17 > /tmp/flexi_threaded.txt
cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
rm -f /tmp/flexi_serial.txt /tmp/flexi_threaded.txt

echo "== flexcheck gate =="
# static analysis over the kernel suite (all dialects must lint clean at
# error severity) plus a seeded differential soundness smoke campaign:
# every analyzer verdict is replayed against the functional simulator
for target in fc4 fc8 xacc xls; do
    ./target/release/flexi check --kernels --target "$target" \
        --features revised > /dev/null
done
./target/release/flexi check --campaign 25 --seed 1 | tail -2

echo "== vuln gate =="
# static fault-vulnerability analysis: the per-dialect kernel-suite
# classification must be deterministic (printed digest compared across
# two runs), and the differential masking campaign re-injects every
# provably-masked site through the real engine — any observable
# divergence exits nonzero
for target in fc4 fc8 xacc xls; do
    ./target/release/flexi check --kernels --vuln --target "$target" \
        --features revised > /tmp/flexi_vuln_a.txt
    ./target/release/flexi check --kernels --vuln --target "$target" \
        --features revised > /tmp/flexi_vuln_b.txt
    cmp /tmp/flexi_vuln_a.txt /tmp/flexi_vuln_b.txt
    grep -q "suite vuln digest 0x" /tmp/flexi_vuln_a.txt
done
rm -f /tmp/flexi_vuln_a.txt /tmp/flexi_vuln_b.txt
cargo test --release --offline -p flexcheck -q vuln_smoke_campaign

echo "== hang fast-forward gate =="
# the engine computes the tail of a hung run instead of simulating it,
# and skips the fetch-bus visit of hooks that leave the bus alone; both
# must stay bit-for-bit equal to stepping every cycle. The oracle tests
# hold the one drain loop to the plain step loop, the stuck-at grid
# digests were pinned before the batch drivers were removed, and so was
# this mission report's SHA-256 (mission and resilient voting drain
# through Core::resume_with too). The salvage digests pin the die
# classes the partial-yield screen derives from each published wafer's
# defects through that same loop. Checkpointed segments drain through
# it as well: their oracle holds the segment runner to the plain step
# loop, and the recovery and link-soak pins were captured while both
# executors still stepped. The gate-level
# screen runs a compiled tape: its oracle holds the tape to the per-cell
# interpreter, and the wafer-screen and fault-coverage pins were
# captured while the interpreter still ran the screen. The kernel
# harness skips the replay of a hung loop's writes, which no verdict
# reads: its oracle holds it to a full recording handed to `verify`
cargo test --release --offline -p flexicore -q --test hang_forward
cargo test --release --offline -p flexinject -q --test verdict_oracle
cargo test --release --offline -p flexresilient -q --test segment_oracle
cargo test --release --offline -p flexinject -q --test campaign_digests
cargo test --release --offline -p flexinject -q --test salvage_digests
cargo test --release --offline -p flexfab -q --test screen_digests
cargo test --release --offline -p flexgate -q --test compiled_oracle
cargo test --release --offline -p flexresilient -q --test recovery_digests
cargo test --release --offline -p flexlink -q --test soak_digests
cargo test --release --offline -p flexcheck -q generated_programs_fast_forward_exactly
mission_sha=$(./target/release/flexi mission --trials 24 --ticks 6 --seed 17 |
    sha256sum | cut -d ' ' -f 1)
test "$mission_sha" = \
    924e4eced8341bcf6dda4403644b7f82edb976a9be44bc87b7b2d59a42a05b01

echo "== serve smoke =="
# crash-safety gate for the toolchain daemon: batch twice (the second
# run must be all cache hits with the same reply digest), kill -9 the
# daemon mid-batch, restart it on the same cache directory, and verify
# the re-issued batch still matches byte-for-byte — a crash must never
# poison the content-addressed cache
serve_cache=/tmp/flexi_serve_cache
serve_log=/tmp/flexi_serve_log
serve_fifo=/tmp/flexi_serve_stdin
rm -rf "$serve_cache" "$serve_log" "$serve_fifo"
mkfifo "$serve_fifo"
start_serve() {
    # the daemon drains on stdin EOF, so hand it a fifo this script
    # holds open — otherwise a CI runner's /dev/null stdin would drain
    # it before the first batch lands
    ./target/release/flexi serve --cache "$serve_cache" \
        < "$serve_fifo" > "$serve_log" &
    serve_pid=$!
    exec 9> "$serve_fifo"
    for _ in $(seq 1 100); do
        grep -q "flexi serve: listening on" "$serve_log" 2> /dev/null && break
        sleep 0.1
    done
    serve_port=$(sed -n 's/.*listening on .*:\([0-9]*\) .*/\1/p' "$serve_log")
    test -n "$serve_port"
}
start_serve
cold=$(./target/release/flexi client batch --port "$serve_port")
warm=$(./target/release/flexi client batch --port "$serve_port")
echo "$warm" | grep -q "all cache hits"
cold_digest=$(echo "$cold" | sed -n 's/^batch digest //p')
warm_digest=$(echo "$warm" | sed -n 's/^batch digest //p')
test -n "$cold_digest" && test "$cold_digest" = "$warm_digest"
./target/release/flexi client batch --port "$serve_port" --seed 99 \
    > /dev/null 2>&1 &
interrupted=$!
sleep 0.05
kill -9 "$serve_pid"
wait "$serve_pid" 2> /dev/null || true
wait "$interrupted" 2> /dev/null || true
start_serve
again=$(./target/release/flexi client batch --port "$serve_port")
again_digest=$(echo "$again" | sed -n 's/^batch digest //p')
test "$again_digest" = "$warm_digest"
./target/release/flexi client drain --port "$serve_port" > /dev/null
wait "$serve_pid"
exec 9>&-
rm -rf "$serve_cache" "$serve_log" "$serve_fifo"

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== perfbench test =="
# the perf ledger is its own package outside the root workspace: it
# compiles against the campaign and harness APIs, so a break there only
# shows when it is built and tested on its own
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== cargo test --release (forced thread pools) =="
# FLEXSHARD_FORCE_THREADS overrides every campaign's requested worker
# count, so the whole suite — including the single-threaded golden-value
# tests — runs once with real thread pools engaged; the determinism
# contract says nothing may change
FLEXSHARD_FORCE_THREADS=3 cargo test --release --offline --workspace -q

echo "== cargo doc =="
# -p per first-party crate: the vendored stubs are workspace members and
# must not be held to -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps \
    -p flexicore -p flexasm -p flexgate -p flexrtl -p flexfab \
    -p flexkernels -p flexinject -p flexresilient -p flexlink -p flexdse \
    -p flexcheck -p flexshard -p flexmission -p flexserve -p flexcli \
    -p flexbench

echo "== cargo clippy =="
# -D warnings plus the pedantic subset this workspace has adopted
# wholesale: pass-by-value that forces callers to clone, redundant
# clones, and expression-valued statements missing their semicolon
cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::needless_pass_by_value \
    -D clippy::redundant_clone \
    -D clippy::semicolon_if_nothing_returned

echo "== cargo fmt --check =="
cargo fmt --check

echo "ci: all green"

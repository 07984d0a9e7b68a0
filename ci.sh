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
# compiled stuck-at planes and stuck fetch images under threads, and
# transient trials judged without a recording, whose runs drain to the
# fault-free first hang checkpoint once their flip fired; `$args`
# word-splits
for args in "--mode mixed --dialect fc8" "--dialect xls" \
    "--mode transient --dialect fc4" "--mode transient --dialect xacc"; do
    ./target/release/flexi inject --faults 64 --seed 11 $args \
        > /tmp/flexi_serial.txt
    ./target/release/flexi inject --faults 64 --seed 11 $args --threads 8 \
        > /tmp/flexi_threaded.txt
    cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
done
for quorum in tmr dmr simplex; do
    ./target/release/flexi resilient --faults 64 --seed 11 --quorum $quorum \
        > /tmp/flexi_serial.txt
    ./target/release/flexi resilient --faults 64 --seed 11 --quorum $quorum \
        --threads 8 > /tmp/flexi_threaded.txt
    cmp /tmp/flexi_serial.txt /tmp/flexi_threaded.txt
done
./target/release/flexi attack --trials 200 --seed 1 > /tmp/flexi_serial.txt
./target/release/flexi attack --trials 200 --seed 1 --threads 8 \
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
# the FC4+ seed-36 wafer has 68 defective dies: two packs on the third
# fabricated netlist
./target/release/flexi wafer --design fc4plus --seed 36 --cycles 2000 \
    --map csv > /tmp/flexi_serial.txt
./target/release/flexi wafer --design fc4plus --seed 36 --cycles 2000 \
    --map csv --threads 8 > /tmp/flexi_threaded.txt
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
# every suite runs on the fixed-ISA fabricated cores and on the revised
# DSE dialects; `$target` word-splits into `T [--features F]`
for target in fc4 fc8 "xacc --features revised" "xls --features revised"; do
    ./target/release/flexi check --kernels --target $target > /dev/null
done
./target/release/flexi check --campaign 25 --seed 1 | tail -2

echo "== kernel listing smoke =="
# every target lists the suite and exits 0: kernels a target cannot hold
# are left out (FlexiCore8) or listed with what they need (base xls)
for target in fc4 fc8 xacc xls "xls --features revised"; do
    ./target/release/flexi kernels --target $target > /dev/null
done

echo "== vuln gate =="
# static fault-vulnerability analysis: the per-dialect kernel-suite
# classification must be deterministic (printed digest compared across
# two runs), and the differential masking campaign re-injects every
# provably-masked site through the real engine — any observable
# divergence exits nonzero
for target in fc4 fc8 "xacc --features revised" "xls --features revised"; do
    ./target/release/flexi check --kernels --vuln --target $target \
        > /tmp/flexi_vuln_a.txt
    ./target/release/flexi check --kernels --vuln --target $target \
        > /tmp/flexi_vuln_b.txt
    cmp /tmp/flexi_vuln_a.txt /tmp/flexi_vuln_b.txt
    grep -q "suite vuln digest 0x" /tmp/flexi_vuln_a.txt
done
rm -f /tmp/flexi_vuln_a.txt /tmp/flexi_vuln_b.txt
cargo test --release --offline -p flexcheck -q vuln_smoke_campaign

echo "== hang fast-forward gate =="
# Pinned values and oracles; each must pass unedited. What each holds:
#   predecode         each core's predecoded table equals its decode,
#                     fault-free runs equal the raw step loop, and a
#                     stuck fetch-bus bit runs like a stuck image
#   step_commit       on every one- and two-byte window of every
#                     dialect, a step commits the PC advance, cycles and
#                     fetched bytes of the decoded length
#   stuck_compile     one-element stuck-at planes, which drain on their
#                     compiled mask, equal the plain step loop on every
#                     element, as do two-element and fired-flip planes
#   hang_forward      the hang fast-forward and the quiet stretches
#                     equal stepping every cycle, boundary cases too
#                     (early flips, 2-3 per plane, FC8 LOAD BYTEs;
#                     budgets at the 64/128 checkpoints, periods longer
#                     than the first window), and the detector's
#                     schedule (a hang caught within 3 periods of 64
#                     under an active hook; a fault-free hang not
#                     before 1 024, and within 3 periods of it)
#   fabricated_isa    FC4/FC8 decode tables and one-step semantics
#   dse_isa           xacc/xls decode tables and one-step semantics
#   verdict_oracle    the kernel harness's verdicts, and the outcomes of
#                     campaigns that keep no recording, equal full
#                     recordings (stuck-at, transient and mixed trials)
#   segment_oracle    checkpointed segments equal the plain step loop
#   campaign_digests  stuck-at and transient grid outcomes
#   salvage_digests   die classes of the published wafers' defects
#   prune_equiv       vuln-pruned campaigns equal unpruned ones
#   screen_digests    wafer-screen outcomes and fault-coverage bits
#   defect_draws      the gate-level defect sites each die seed draws
#   netlist_digests   every cell of the three netlists flexrtl::build makes
#   cosim_fuzz        flexrtl::build at 4 and 8 bits equals Fc4Core/Fc8Core
#                     cycle by cycle on random programs
#   compiled_oracle   the compiled gate tape equals the cell interpreter
#   vuln_digests      per-kernel site verdicts over the fault-site universe
#   recovery_digests  resilient-executor trials of every quorum mode
#   soak_digests      link-soak trials, frames and scrub counts
#   paper_pins        the stdout of every paper table and figure bin
#   asm_digests       every kernel's image, sizes and listing on every
#                     target, and the assembler's error messages
#   generated_programs_fast_forward_exactly  random programs fast-forward
#   the mission SHA-256  the whole `flexi mission` report
#   the wave SHA-256  the `flexi wave` VCD of the fc4 parity kernel, which
#                     reads every port net after a post-clock settle
cargo test --release --offline -p flexicore -q --test predecode
cargo test --release --offline -p flexicore -q --test step_commit
cargo test --release --offline -p flexicore -q --test stuck_compile
cargo test --release --offline -p flexicore -q --test hang_forward
cargo test --release --offline -p flexicore -q --test fabricated_isa
cargo test --release --offline -p flexicore -q --test dse_isa
cargo test --release --offline -p flexinject -q --test verdict_oracle
cargo test --release --offline -p flexresilient -q --test segment_oracle
cargo test --release --offline -p flexinject -q --test campaign_digests
cargo test --release --offline -p flexinject -q --test salvage_digests
cargo test --release --offline -p flexinject -q --test prune_equiv
cargo test --release --offline -p flexfab -q --test screen_digests
cargo test --release --offline -p flexfab -q --test defect_draws
cargo test --release --offline -p flexrtl -q --test netlist_digests
cargo test --release --offline -p flexrtl -q --test cosim_fuzz
cargo test --release --offline -p flexgate -q --test compiled_oracle
cargo test --release --offline -p flexcheck -q --test vuln_digests
cargo test --release --offline -p flexresilient -q --test recovery_digests
cargo test --release --offline -p flexlink -q --test soak_digests
cargo test --release --offline -p flexbench -q --test paper_pins
cargo test --release --offline -p flexasm -q --test asm_digests
cargo test --release --offline -p flexcheck -q generated_programs_fast_forward_exactly
mission_sha=$(./target/release/flexi mission --trials 24 --ticks 6 --seed 17 |
    sha256sum | cut -d ' ' -f 1)
test "$mission_sha" = \
    924e4eced8341bcf6dda4403644b7f82edb976a9be44bc87b7b2d59a42a05b01
wave_vcd=$(mktemp)
./target/release/flexi wave crates/kernels/asm/parity.s --target fc4 \
    --input 5 --cycles 500 --out "$wave_vcd" > /dev/null
wave_sha=$(sha256sum < "$wave_vcd" | cut -d ' ' -f 1)
rm -f "$wave_vcd"
test "$wave_sha" = \
    04c8a394806b6dbe527ee8a65adee246a41dade07ab51415b9b6ed623f1e60fb

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

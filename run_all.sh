#!/usr/bin/env bash
# Regenerate every table and figure of the paper into results/.
# Pass --quick for a fast smoke pass (smaller sweeps, fewer repetitions).
set -euo pipefail
cd "$(dirname "$0")"
MODE="${1:-}"

echo "== lint gates: all six ult-verify passes (closure, callgraph, ordering,"
echo "==             blocking, pindiscipline, lockorder), JSON + trend report"
mkdir -p results
cargo run -p ult-lint --bin sigsafe -- --json --report results/lint_report.json
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

echo "== model checker: lock-free protocol interleaving sweeps"
if [ "$MODE" = "--quick" ]; then
    # Bounded partial sweep: enough to smoke the explorer without paying
    # for the full state spaces.
    ULT_MODEL_MAX_EXECS=5000 ULT_MODEL_PARTIAL=1 cargo test -q -p ult-model
else
    cargo test -q -p ult-model
fi

echo "== io: reactor, sockets, timer wheel (functional + cross-crate)"
cargo test -q -p ult-io
cargo test -q -p ult-sync --test timeout
cargo test -q -p integration-tests --test io

echo "== stress: sync primitives under preemption, the busy-worker echo, the ready path, external joins, the timers and ult-io, 20x, one CPU and all"
# All are races by nature (a tick inside a few-instruction window; a kick
# racing a dispatch; a push racing the owner's park), and the one-CPU
# interleavings differ from the rest.
cargo test -q -p integration-tests --no-run
for pin in "taskset -c 0" ""; do
    for _ in $(seq 20); do
        $pin cargo test -q -p integration-tests --test integration \
            sync_primitives_survive_preemptive_ults
        $pin cargo test -q -p integration-tests --test io busy_worker_echo_beats_the_tick
        $pin cargo test -q -p ult-sync --test sync_ult --test timeout
        # The future driver's wake-vs-park race and the readiness-vs-deadline
        # claim now carry every blocking socket op and timed wait.
        $pin cargo test -q -p ult-io
        # A worker neither wakes itself nor re-arms for an occupant it
        # cannot preempt, and a preemptive spawner still gets its tick.
        $pin cargo test -q -p ult-core --test ready_path
        # A join from outside the runtime races the finish it waits for
        # (announce-then-sleep against swap-then-wake on the completion
        # futex), several KLTs sleep on one ULT, and the nudges of an
        # external spawner never pile up in a KLT kept off the CPU.
        $pin cargo test -q -p ult-core --test external_join
        $pin cargo test -q -p ult-core --test preempt_latency self_spawn
        # A worker's tick handed from KLT to KLT across switches with no
        # timer created or deleted, no timer left by a stopped runtime, the
        # tick as debug_state reports it, and a worker whose timer_create
        # fails running on without ticks.
        $pin cargo test -q -p ult-core --test timers
        # The run-next slot an McsMutex grant fills: picked first under
        # every policy, never stranded on a packing-suspended worker, never
        # a priority inversion.
        $pin cargo test -q -p ult-core --lib run_next
        # The POSIX interval timers on the shared test signal: a tick from
        # one test must never land in another's quiescence window.
        $pin cargo test -q -p ult-sys --lib timer::
    done
done
# The wait queue under every ult-sync primitive: re-check under the lock and
# publish before unlock never loses a wake-up, check-then-lock provably does.
cargo test -q -p ult-model --test protocols waitqueue_
# The watcher's clear-then-signal order: faithful never loses the watch,
# signal-then-clear provably does.
cargo test -q -p ult-model --test protocols watch
# Both tick-elision ports: the elide-vs-push Dekker pairing never strands
# work and its Release/Acquire weakening provably does; the dispatch after
# an owner's own push (which leaves an elided tick alone) re-reads the
# pools and never strands work, trusting the flag provably does.
cargo test -q -p ult-model --test protocols tick_
# McsMutex's two races (a waiter that parks at once races every grant):
# publish-before-PARKED never loses the parked ULT, a Relaxed publication
# provably does; releaser and enqueuer always agree on the next owner.
cargo test -q -p ult-model --test protocols mcs_

echo "== async: future executor, waker edge cases, offload pool"
cargo test -q -p ult-future
cargo test -q -p integration-tests --test future
# Waker park-vs-wake claim machine: the faithful protocol never loses a
# wake; the all-Relaxed weakening must provably reach the lost wakeup.
cargo test -q -p ult-model --test protocols waker_

cargo build --workspace --release

echo "== benchmark: its own tests (BENCHMARK.json == metric registry) and a smoke run"
echo "==            of all eight workloads, untraced and traced (exit 1 on correct != true)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
BENCHMARK_CMD=$(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
$BENCHMARK_CMD --smoke

run() {
    local name="$1"; shift
    echo "== $name"
    ./target/release/"$name" $MODE | tee "results/$name.txt"
}

run fig4_interrupt      # Figure 4
run fig6_overhead       # Figure 6
run table1_direct       # Table 1
run fig7_chol           # Figure 7
run fig8_hpgmg          # Figure 8
run fig9_md             # Figure 9
run bench_echo          # echo p99, preemption on vs off (exit 1 below 5x)
run bench_adaptive      # adaptive quantum vs fixed tick (exit 1 below 2x p99 or above 1.10x completion)

echo "All experiment outputs are in results/."

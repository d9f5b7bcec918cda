#!/usr/bin/env bash
# Regenerate every table and figure of the paper into results/.
# Pass --quick for a fast smoke pass (smaller sweeps, fewer repetitions).
# Pass --soak N to run only the stress list below N times on one CPU and N
# times on all of them, recording every failure in results/flakes.json.
set -euo pipefail
cd "$(dirname "$0")"
MODE="${1:-}"

# The stress list: `cargo test -q -p` arguments, each a race by nature (a
# tick inside a few-instruction window; a kick racing a dispatch; a push
# racing the owner's park), whose one-CPU interleavings differ from the rest.
STRESS=(
    "integration-tests --test integration sync_primitives_survive_preemptive_ults"
    "integration-tests --test io busy_worker_echo_beats_the_tick"
    "ult-sync --test sync_ult --test timeout"
    # The future driver's wake-vs-park race and the readiness-vs-deadline
    # claim now carry every blocking socket op and timed wait; an idle
    # worker's spin and polls follow how long its parks last.
    "ult-io"
    # A worker neither wakes itself nor re-arms for an occupant it cannot
    # preempt, and a preemptive spawner still gets its tick.
    "ult-core --test ready_path"
    # A join from outside the runtime races the finish it waits for
    # (announce-then-sleep against swap-then-wake on the completion futex),
    # several KLTs sleep on one ULT, and the nudges of an external spawner
    # never pile up in a KLT kept off the CPU.
    "ult-core --test external_join"
    "ult-core --test preempt_latency self_spawn"
    # A worker's tick handed from KLT to KLT across switches with no timer
    # created or deleted, no timer left by a stopped runtime, the tick as
    # debug_state reports it, and a worker whose timer_create fails running
    # on without ticks.
    "ult-core --test timers"
    # The run-next slot an McsMutex grant fills: picked first under every
    # policy, never stranded on a packing-suspended worker, never a
    # priority inversion.
    "ult-core --lib run_next"
    # The POSIX interval timers on the shared test signal: a tick from one
    # test must never land in another's quiescence window.
    "ult-sys --lib timer::"
)

# Build every test binary of the stress list once, up front.
build_stress() {
    cargo test -q -p integration-tests -p ult-sync -p ult-io -p ult-core -p ult-sys --no-run
}

if [ "$MODE" = "--soak" ]; then
    RUNS="${2:?usage: run_all.sh --soak N}"
    build_stress
    mkdir -p results
    LEDGER=$(mktemp -d)
    trap 'rm -rf "$LEDGER"' EXIT
    for pin in "taskset -c 0" ""; do
        for i in $(seq "$RUNS"); do
            echo "== soak: ${pin:-all CPUs}, round $i of $RUNS"
            for n in "${!STRESS[@]}"; do
                echo "$n ${pin:+1}" >>"$LEDGER/runs"
                if ! $pin cargo test -q -p ${STRESS[$n]} >"$LEDGER/out" 2>&1; then
                    echo "$n ${pin:+1}" >>"$LEDGER/fails"
                    first="$LEDGER/first.$n.${pin:+1}"
                    [ -e "$first" ] || tail -c 4000 "$LEDGER/out" >"$first"
                    echo "   FAILED: ${pin:-all CPUs} cargo test -p ${STRESS[$n]}"
                fi
            done
        done
    done
    python3 - "$LEDGER" "${STRESS[@]}" <<'PY' >results/flakes.json
import collections, json, os, sys
ledger, stress = sys.argv[1], sys.argv[2:]
def count(name):
    path = os.path.join(ledger, name)
    lines = open(path).read().splitlines() if os.path.exists(path) else []
    return collections.Counter(lines)
runs, fails = count("runs"), count("fails")
rows = []
for n, entry in enumerate(stress):
    args = iter(entry.split())
    binary, tests = [next(args)], []
    for a in args:
        if a == "--test":
            binary += [a, next(args)]
        elif a.startswith("--"):
            binary.append(a)
        else:
            tests.append(a)
    for pinned, cpus in (("1", "taskset -c 0"), ("", "all")):
        key = f"{n} {pinned}"
        first = os.path.join(ledger, f"first.{n}.{pinned}")
        rows.append({
            "binary": " ".join(binary),
            "test": " ".join(tests) or "all",
            "cpus": cpus,
            "runs": runs[key],
            "failures": fails[key],
            "first_failure": open(first).read() if os.path.exists(first) else None,
        })
json.dump(rows, sys.stdout, indent=1)
print()
PY
    echo "== soak: $(grep -c . "$LEDGER/fails" 2>/dev/null || echo 0) failures; ledger in results/flakes.json"
    exit 0
fi

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

echo "== stress: the stress list above, 20x, one CPU and all"
build_stress
for pin in "taskset -c 0" ""; do
    for _ in $(seq 20); do
        for entry in "${STRESS[@]}"; do
            $pin cargo test -q -p $entry
        done
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

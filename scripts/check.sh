#!/usr/bin/env bash
# Full local gate: what CI runs, in the order that fails fastest.
# Each gate reports its wall time so slowdowns are caught as regressions,
# not discovered as CI timeouts.
set -euo pipefail
cd "$(dirname "$0")/.."

gate() {
  local name="$1"; shift
  echo "==> ${name}"
  local t0=${SECONDS}
  "$@"
  echo "    (${name}: $((SECONDS - t0))s)"
}

profile_smoke() {
  ./target/release/reproduce profile --json /tmp/profile.json >/dev/null
  ./target/release/reproduce check-json /tmp/profile.json
}

faults_smoke() {
  ./target/release/reproduce faults --json /tmp/faults.json >/dev/null
  ./target/release/reproduce check-json /tmp/faults.json
}

stress_smoke() {
  timeout 60 ./target/release/reproduce stress --json /tmp/stress.json >/dev/null
  ./target/release/reproduce check-json /tmp/stress.json
}

tune_smoke() {
  # The opt-in feature matrix: every cell revalidates against the golden
  # model, the seed column must come out 1.00x, and the dump must
  # round-trip the schema check.
  timeout 120 ./target/release/reproduce tune --json /tmp/tune.json >/dev/null
  ./target/release/reproduce check-json /tmp/tune.json
}

analyze_smoke() {
  # Static work/span & occupancy analysis: building the table asserts
  # every interval brackets the interpreter's counters and the predicted
  # bottleneck matches the profiler; the dump must round-trip the schema
  # check.
  timeout 120 ./target/release/reproduce analyze --json /tmp/analyze.json >/dev/null
  ./target/release/reproduce check-json /tmp/analyze.json
}

paper_golden_gate() {
  # The reproduced paper must not move: every value of the committed
  # results.json (the 13 paper sections, profile, faults and lint) must
  # come out of a fresh `reproduce all` unchanged, and golden-diff names
  # the first cell that moved. A deliberate model change regenerates
  # results.json in the same change.
  timeout 300 ./target/release/reproduce all --no-checkpoint --json /tmp/paper_all.json >/dev/null
  ./target/release/reproduce golden-diff results.json /tmp/paper_all.json
}

executor_gate() {
  # Sharded-sweep executor gate: a forced panic and a forced watchdog
  # timeout must be isolated (the other cells still complete and report),
  # the run must exit non-zero, and resuming from the same checkpoint
  # without faults must reproduce the clean run's bytes.
  ./target/release/reproduce profile --no-checkpoint --json /tmp/exec_clean.json >/dev/null
  rm -f /tmp/exec_gate.jsonl
  if ./target/release/reproduce profile --jobs 2 --retries 1 --timeout-ms 2000 \
      --checkpoint /tmp/exec_gate.jsonl \
      --inject panic:profile/saxpy --inject timeout:profile/fib \
      --json /tmp/exec_faulted.json >/dev/null 2>/tmp/exec_faulted.err; then
    echo "    executor gate: injected faults must fail the run"
    return 1
  fi
  grep -q "panicked" /tmp/exec_faulted.err
  grep -q "timed-out" /tmp/exec_faulted.err
  ./target/release/reproduce profile --resume --checkpoint /tmp/exec_gate.jsonl \
      --json /tmp/exec_resumed.json >/dev/null
  cmp /tmp/exec_clean.json /tmp/exec_resumed.json
}

chaos_gate() {
  # Kill-and-resume crash-consistency gate. Inside every chaos cell the
  # engine is killed at a seeded cycle via the halt_at_cycle hook,
  # restored from its snapshot, and the resumed run must be byte-identical
  # to the golden uninterrupted one; --snapshot-every additionally routes
  # each trial through the on-disk snapshot ladder. On top, the sweep
  # itself is killed after 3 cells and resumed from its checkpoint; the
  # resumed run's JSON must match the uninterrupted run's bytes.
  timeout 300 ./target/release/reproduce chaos --no-checkpoint \
      --snapshot-every 40 --json /tmp/chaos_clean.json >/dev/null
  ./target/release/reproduce check-json /tmp/chaos_clean.json
  rm -f /tmp/chaos_gate.jsonl
  if timeout 300 ./target/release/reproduce chaos --halt-after 3 \
      --snapshot-every 40 --checkpoint /tmp/chaos_gate.jsonl \
      --json /tmp/chaos_halted.json >/dev/null 2>/dev/null; then
    echo "    chaos gate: a killed sweep must exit non-zero"
    return 1
  fi
  timeout 300 ./target/release/reproduce chaos --resume --snapshot-every 40 \
      --checkpoint /tmp/chaos_gate.jsonl --json /tmp/chaos_resumed.json >/dev/null
  cmp /tmp/chaos_clean.json /tmp/chaos_resumed.json
}

fuzzsim_gate() {
  # Generated-traffic differential campaign: every seed expands into a
  # lint-proven program checked against the interpreter golden model
  # across the sampled feature matrix; the dump must round-trip the
  # schema check and known-clean repro lines (a generated program and a
  # suite workload) must replay clean.
  timeout 300 ./target/release/reproduce fuzzsim --jobs 4 --no-checkpoint \
      --json /tmp/fuzzsim.json >/dev/null
  ./target/release/reproduce check-json /tmp/fuzzsim.json
  ./target/release/reproduce fuzzsim --repro \
      "seed=0x0 steal=off banks=1 tiles=1 ntasks=256 admission=false engine=event faults=off kill=off profile=off" \
      >/dev/null
  ./target/release/reproduce fuzzsim --repro \
      "workload=fib steal=2 banks=4 tiles=2 ntasks=4 admission=true engine=event faults=off kill=0x2a profile=summary" \
      >/dev/null
}

perfbench_gate() {
  # The benchmark's own tests, then one untimed pass of every workload.
  # Every job must reproduce the sim_cycles and design_alms recorded in
  # perfbench/expected.txt, so engine performance work stays
  # cycle-identical.
  local bench=(--release --manifest-path perfbench/Cargo.toml)
  timeout 600 cargo test -q "${bench[@]}"
  local w last
  for w in busy_kernels spawn_chain hls_compile dse_sweep; do
    last=$(timeout 300 cargo run -q "${bench[@]}" -- \
        --workload "${w}" --seed 0 --seconds 0 --trace 0 | tail -n 1)
    if [[ "${last}" != *'"correct":true,'* || "${last}" != *'"failed":0,'* ]]; then
      echo "    perfbench ${w}: ${last:0:120}"
      return 1
    fi
  done
}

gate "cargo fmt --check" cargo fmt --all -- --check
gate "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings
gate "cargo build --release" cargo build --release --workspace
gate "cargo test" cargo test --workspace -q
gate "reproduce profile smoke (JSON schema gate)" profile_smoke
gate "reproduce faults smoke (robustness gate)" faults_smoke
gate "reproduce stress (bounded-resource gate)" stress_smoke
gate "reproduce tune smoke (opt-in feature gate)" tune_smoke
gate "reproduce analyze smoke (static-analysis gate)" analyze_smoke
gate "reproduce all vs results.json (paper-golden gate)" paper_golden_gate
gate "sweep executor (fault-isolation + resume gate)" executor_gate
gate "chaos (kill-and-resume crash-consistency gate)" chaos_gate
gate "fuzzsim (generated-traffic differential gate)" fuzzsim_gate
gate "perfbench (benchmark correctness gate)" perfbench_gate
gate "parser fuzz corpus (crash-hardening gate)" timeout 300 cargo test -q -p tapas-ir --test parse_fuzz

echo "All checks passed."

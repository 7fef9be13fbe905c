#!/usr/bin/env bash
# A/B host-time comparison of the benchmark between a base revision and
# the working tree.
#
#   scripts/ab.sh <base-rev> <workload> <seed> [pairs]
#
# Extracts <base-rev> into target/ab/<rev>/ (git archive, so the base
# builds from its own committed files, offline), builds both sides'
# perfbench, then runs `pairs` (default 10) base/head pairs of
#   perfbench --workload <workload> --seed <seed> --seconds <run_seconds>
# with run_seconds taken from BENCHMARK.json, flipping which side runs
# first on every pair. Each run's JSON report line and its
# `job CPU time tail:` line are kept under target/ab/runs/. Prints, per
# end-to-end metric of BENCHMARK.json, both medians with quartiles,
# head/base, the pairs head won (ties count for neither), whether the
# medians differ by more than the base's interquartile range, and the
# bound verdict; then the percentile and job count each side reported
# job_ms_tail at, with a warning when the sides (or a side's own runs)
# used different percentiles, since their tails then measure different
# jobs. Exits 1 if any run was not `"correct":true` with `"failed":0`.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <base-rev> <workload> <seed> [pairs]" >&2
  exit 2
fi
base_rev=$1 workload=$2 seed=$3 pairs=${4:-10}
if ! [[ ${pairs} =~ ^[0-9]+$ ]] || ((pairs < 2)); then
  echo "pairs must be an integer >= 2 (quartiles need two runs a side)" >&2
  exit 2
fi

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
cd "${root}"
rev=$(git rev-parse --short "${base_rev}^{commit}")
base_dir=${root}/target/ab/${rev}
secs=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)

if [[ ! -f ${base_dir}/.extracted ]]; then
  rm -rf "${base_dir}"
  mkdir -p "${base_dir}"
  git archive "${rev}" | tar -x -C "${base_dir}"
  touch "${base_dir}/.extracted"
fi
build=(cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
echo "building base ${rev} and head ..." >&2
(cd "${base_dir}" && "${build[@]}")
"${build[@]}"

runs=${root}/target/ab/runs/${rev}-${workload}-${seed}-$(date +%Y%m%d-%H%M%S)
mkdir -p "${runs}"
run_side() { # <side> <pair>
  local dir=${root}
  [[ $1 == base ]] && dir=${base_dir}
  local out
  out=$(cd "${dir}" && "${cmd[@]}" --workload "${workload}" --seed "${seed}" \
      --seconds "${secs}" --trace 0)
  tail -n 1 <<<"${out}" >"${runs}/$1-$2.json"
  { grep -m 1 '^job CPU time tail:' <<<"${out}" || echo "job CPU time tail: not reported"; } \
      >"${runs}/$1-$2.tail"
  echo "  pair $2 $1: $(jq -c '{correct, failed, jobs_per_s: .metrics.jobs_per_s.value}' \
      "${runs}/$1-$2.json")" >&2
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run_side base "${i}"
    run_side head "${i}"
  else
    run_side head "${i}"
    run_side base "${i}"
  fi
done

for ((i = 0; i < pairs; i++)); do cat "${runs}/base-${i}.json"; done >"${runs}/base.jsonl"
for ((i = 0; i < pairs; i++)); do cat "${runs}/head-${i}.json"; done >"${runs}/head.jsonl"

echo "${workload} seed ${seed}: base ${rev} vs head $(git rev-parse --short HEAD)$(
  git diff --quiet HEAD -- crates perfbench || echo +dirty), ${pairs} pairs of ${secs} s"
jq -rn --slurpfile b "${runs}/base.jsonl" --slurpfile h "${runs}/head.jsonl" \
    --slurpfile bm BENCHMARK.json '
  def med: sort as $v | ($v | length) as $n
    | if $n % 2 == 1 then $v[($n - 1) / 2] else ($v[$n / 2 - 1] + $v[$n / 2]) / 2 end;
  # Exclusive-method quartile, as perfbench/src/stats.rs computes it.
  def quart($i): sort as $v | ($v | length) as $n
    | ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
    | ($i * ($n + 1) - $j * 4) as $d
    | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4;
  def r: if . == 0 then 0 else pow(10; 3 - (fabs | log10 | floor)) as $s | . * $s | round / $s end;
  def summary: "\(med | r) [\(quart(1) | r), \(quart(3) | r)]";
  ([$b[], $h[]] | map(select(.correct != true or .failed != 0)) | length) as $bad
  | "metric\tbase median [q1, q3]\thead median [q1, q3]\thead/base\twins\tsep\tverdict",
    ($bm[0].end_to_end[] as $m
     | [$b[] | .metrics[$m.name].value] as $bv
     | [$h[] | .metrics[$m.name].value] as $hv
     | ($bv | med) as $bmed | ($hv | med) as $hmed
     | (if $m.better == "higher" then 1 else -1 end) as $sign
     | ([range(0; $bv | length) | select(($hv[.] - $bv[.]) * $sign > 0)] | length) as $wins
     | (if $bmed == 0 then 0 else ($bmed - $hmed) * $sign / $bmed end) as $worse
     | "\($m.name)\t\($bv | summary)\t\($hv | summary)\t\(if $bmed == 0 then "-" else ($hmed / $bmed | r) end)\t\($wins)/\($bv | length)\t\(if (($hmed - $bmed) | fabs) > (($bv | quart(3)) - ($bv | quart(1))) then "yes" else "no" end)\t\(if $worse > $m.bound then "WORSE than bound \($m.bound)" else "within bound" end)"),
    (if $bad > 0 then "FAILED: \($bad) run(s) not correct with failed 0" else "all runs correct, failed 0" end)
' | awk -F'\t' '
  { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) }
    if (NF > cols) cols = NF }
  END { for (r = 1; r <= NR; r++) {
          line = ""
          for (i = 1; i <= cols; i++) line = line sprintf("%-" (w[i] + 2) "s", cell[r, i])
          sub(/ +$/, "", line); print line } }'

tail_at() { # <side>: the percentiles, then the job counts, its runs reported the tail at
  local pcts ns
  pcts=$(for ((i = 0; i < pairs; i++)); do
    sed -E 's/^job CPU time tail: (p[0-9.]+) .*/\1/; s/^job CPU time tail: (omitted|not).*/none/' \
      "${runs}/$1-${i}.tail"
  done | sort -u | paste -sd , -)
  ns=$(for ((i = 0; i < pairs; i++)); do
    sed -nE 's/.*\(n=([0-9]+)\)$/\1/p; s/.*only ([0-9]+) jobs$/\1/p' "${runs}/$1-${i}.tail"
  done | sort -n | sed -n '1p;$p' | paste -sd - -)
  echo "${pcts} (n=${ns:-?})"
}
base_tail=$(tail_at base) head_tail=$(tail_at head)
echo "job_ms_tail reported at: base ${base_tail}, head ${head_tail}"
if [[ ${base_tail%% *} != "${head_tail%% *}" || ${base_tail%% *} == *,* ]]; then
  echo "WARNING: job_ms_tail is not one percentile across the runs (base ${base_tail%% *}," \
    "head ${head_tail%% *}); its medians compare different jobs, read job_ms_p50 instead"
fi
echo "runs kept in ${runs#"${root}"/}"
! grep -qv '"correct":true,.*"failed":0,' "${runs}/base.jsonl" "${runs}/head.jsonl"

#!/usr/bin/env bash
# Full verification gate: build, lint, format, and test the workspace.
#
#   scripts/verify.sh          # everything
#   scripts/verify.sh --fast   # skip clippy + fmt + reshape-lint + rustdoc (tier-1 only)
#
# Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`; this
# script runs that plus workspace-wide tests, rustfmt, clippy and rustdoc so
# a clean run here implies a clean CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# A verify run must leave the committed results as it found them. Snapshot
# their git status now and compare at the end; reshape-lint rewrites
# results/LINT.{json,sarif} on purpose, so those two are left out. Outside a
# git work tree there is nothing to compare against.
results_status() {
  git status --porcelain -- results/ ':!results/LINT.json' ':!results/LINT.sarif'
}
in_git=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git=1
  results_before="$(results_status)"
fi

echo "==> cargo build --release"
cargo build --release

if [[ $fast -eq 0 ]]; then
  # `--all` also checks the vendored stubs, which are path dependencies
  # rather than workspace members.
  echo "==> cargo fmt --all --check"
  cargo fmt --all --check
  echo "==> cargo clippy (workspace, -D warnings)"
  cargo clippy --workspace --all-targets -- -D warnings
  # Ratchet mode: pre-existing findings in results/LINT_baseline.json are
  # tolerated, anything new fails. Also emits the SARIF report CI uploads.
  # The analyzer prints its own wall time on the summary line.
  echo "==> reshape-lint (ratchet vs results/LINT_baseline.json, writes results/LINT.json + results/LINT.sarif)"
  cargo run --release -q -p lint -- --baseline results/LINT_baseline.json --sarif results/LINT.sarif
  # Rustdoc with warnings denied: a doc link to a deleted or private item
  # fails here instead of dangling.
  echo "==> cargo doc (workspace, -D warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
fi

echo "==> cargo test -q (tier-1)"
cargo test -q
echo "==> cargo test --workspace -q"
cargo test --workspace -q

if [[ $fast -eq 0 ]]; then
  # Every SMOKE=1 bin below writes `results/<stem>_smoke.*` (gitignored), so
  # a verify run never rewrites the committed full-size results.
  #
  # The benchmark is a package of its own that calls public library items;
  # its self-test runs every workload at a tiny scale, so a change to an
  # item it calls fails here rather than in the benchmark run.
  echo "==> perfbench self-test"
  python3 perfbench/test_perfbench.py
  # `cargo test` only compiles the examples. They drive the public
  # planning, execution and scheduling entry points end to end, so run
  # each once; a panic or an error exit fails here.
  echo "==> examples (release, one run each)"
  for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> $name"
    cargo run --release -q --example "$name" >/dev/null
  done
  # The chaos harness already ran under `cargo test -q`; the ablation bin
  # additionally persists the DegradedReport artifact.
  echo "==> chaos ablation (writes results/CHAOS_seed0_smoke.{json,csv})"
  SMOKE=1 cargo run --release -q -p bench --bin chaos_ablation
  # Observability smoke: runs the pipeline twice with a recording sink,
  # asserts the same-seed logs are byte-identical and persists the
  # per-phase breakdown CI uploads.
  echo "==> obs report (writes results/OBS_phase_breakdown_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin obs_report
  # Scheduler smoke: re-runs the pooled trace asserting byte-identical
  # same-seed logs, then persists the throughput/savings report CI uploads.
  echo "==> sched report (writes results/SCHED_throughput_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin sched_report
  # Packing-kernel perf gate: times each fast kernel against its naive
  # reference at smoke sizes, fails if one is more than 1.5x slower at
  # 32,768 items or more, and persists the report CI uploads.
  echo "==> perf gate (writes results/BENCH_packing_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin perf_report -- --gate
  # Streaming-ingest smoke: replays the seeded arrival trace under each
  # sealing policy, asserts byte-identical replay and flush-only ≡ batch,
  # then persists the throughput report CI uploads.
  echo "==> ingest report (writes results/BENCH_ingest_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin ingest_report
  # Shuffle backend sweep: asserts every sharing backend wins at least one
  # movement regime and that every backend's reduce output reproduces the
  # sequential oracle, then persists the report CI uploads.
  echo "==> shuffle report (writes results/BENCH_shuffle_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin shuffle_report
  # Fleet-market frontier: asserts the portfolio dominates or ties both
  # pure strategies at every swept deadline and that same-seed planning
  # logs are byte-identical, then persists the report CI uploads.
  echo "==> market report (writes results/BENCH_market_smoke.json)"
  SMOKE=1 cargo run --release -q -p bench --bin market_report
  # Smoke changes only the output path, so every column but the 6th,
  # real-tagger(s) (host wall time), must equal the committed CSV.
  echo "==> dubliners (writes results/dubliners_smoke.csv, diffs it against results/dubliners.csv)"
  SMOKE=1 cargo run --release -q -p bench --bin dubliners >/dev/null
  diff <(cut -d, -f1-5,7 results/dubliners.csv) <(cut -d, -f1-5,7 results/dubliners_smoke.csv)
fi

if [[ $in_git -eq 1 ]]; then
  results_after="$(results_status)"
  if [[ "$results_after" != "$results_before" ]]; then
    echo "verify: this run rewrote committed results:" >&2
    diff <(echo "$results_before") <(echo "$results_after") | sed -n 's/^> //p' >&2
    exit 1
  fi
fi

echo "verify: OK"

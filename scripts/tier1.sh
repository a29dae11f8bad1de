#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite, then the fault
# subsystem again under AddressSanitizer + UndefinedBehaviorSanitizer.
#
# The sanitizer pass exists because the resilience paths are exactly the
# ones that juggle raw state buffers (checkpoint serialization and
# decode, per-block telemetry buffers handed from workers to the
# coordinator, mid-round prober rollback, crash unwinding out of a save)
# — the code most likely to hide a lifetime or aliasing bug that a
# passing assertion can't see.
#
# Usage: scripts/tier1.sh [--skip-sanitize | --lint]
#   --lint  run only the static-analysis tier (scripts/static_analysis.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--lint" ]]; then
  exec scripts/static_analysis.sh
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: plain build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
# --timeout: no single test may wedge the suite — a hung worker pool or
# a crash-sweep livelock should fail that one test, not stall CI until
# the job-level timeout reaps the whole run.
ctest --test-dir build --output-on-failure -j "${jobs}" --timeout 300

echo "== tier-1: telemetry smoke (CLI with all three sinks) =="
# A small measure run with every sink enabled: the JSONL event log and
# trace must validate line-by-line, metrics must expose, and two
# same-seed runs must emit byte-identical telemetry and datasets (the
# determinism contract of DESIGN.md §7).
smoke="$(mktemp -d)"
trap 'rm -rf "${smoke}"' EXIT
for run in a b; do
  build/examples/sleepwalk_cli measure \
    --blocks 20 --days 3 --seed 11 --loss 0.05 \
    --out "${smoke}/${run}.slpw" \
    --log-level debug --log-json "${smoke}/${run}.jsonl" \
    --metrics-out "${smoke}/${run}.prom" \
    --trace-out "${smoke}/${run}.trace.jsonl" \
    --trace-chrome "${smoke}/${run}.chrome.json" \
    >"${smoke}/${run}.stdout" 2>/dev/null
done
build/tools/jsonl_check "${smoke}/a.jsonl" "${smoke}/a.trace.jsonl"
build/tools/jsonl_check --chrome-trace "${smoke}/a.chrome.json"
cmp "${smoke}/a.jsonl" "${smoke}/b.jsonl"
cmp "${smoke}/a.trace.jsonl" "${smoke}/b.trace.jsonl"
cmp "${smoke}/a.chrome.json" "${smoke}/b.chrome.json"
cmp "${smoke}/a.prom" "${smoke}/b.prom"
cmp "${smoke}/a.slpw" "${smoke}/b.slpw"
# Sink-free run: telemetry must be inert (identical dataset bytes).
build/examples/sleepwalk_cli measure \
  --blocks 20 --days 3 --seed 11 --loss 0.05 \
  --out "${smoke}/bare.slpw" >/dev/null 2>&1
cmp "${smoke}/a.slpw" "${smoke}/bare.slpw"
grep -q '^sleepwalk_probes_attempted_total ' "${smoke}/a.prom"
echo "telemetry smoke OK"

echo "== tier-1: admin plane smoke (live endpoints + inertness) =="
scripts/admin_smoke.sh build

echo "== tier-1: storage smoke (slck_fsck over fresh artifacts) =="
# A checkpointed run, then fsck: every fresh artifact (dataset, primary
# checkpoint, retained generations) must verify intact; a single flipped
# byte must turn the verdict to exit 1.
build/examples/sleepwalk_cli measure \
  --blocks 20 --days 3 --seed 11 --loss 0.05 \
  --out "${smoke}/ck.slpw" --checkpoint "${smoke}/ck.slck" \
  --checkpoint-keep 3 >/dev/null 2>&1
build/tools/slck_fsck "${smoke}/ck.slpw" "${smoke}/ck.slck" \
  "${smoke}"/ck.slck.g*
cp "${smoke}/ck.slck" "${smoke}/bad.slck"
printf '\xa5' | dd of="${smoke}/bad.slck" bs=1 seek=60 count=1 \
  conv=notrunc 2>/dev/null
if build/tools/slck_fsck "${smoke}/bad.slck" >/dev/null; then
  echo "slck_fsck missed an injected corruption" >&2
  exit 1
fi
# The CLI writes SLPW v3: fsck names it, analyze reads it back, and a
# flipped byte in the values region must fail the columnar verify.
build/tools/slck_fsck --verbose "${smoke}/ck.slpw" | grep -q "SLPW v3"
build/examples/sleepwalk_cli analyze --in "${smoke}/ck.slpw" >/dev/null
cp "${smoke}/ck.slpw" "${smoke}/bad3.slpw"
size3="$(wc -c < "${smoke}/bad3.slpw")"
printf '\xa5' | dd of="${smoke}/bad3.slpw" bs=1 seek=$((size3 - 7)) \
  count=1 conv=notrunc 2>/dev/null
if build/tools/slck_fsck "${smoke}/bad3.slpw" >/dev/null; then
  echo "slck_fsck missed a corrupted v3 dataset" >&2
  exit 1
fi
# SLPW v2 is read, never written: the frozen fixture must verify and
# analyze, and a flipped byte in a record must fail its record CRC.
fixtures=tests/core/fixtures
build/tools/slck_fsck "${fixtures}/dataset_v2_robustness.slpw" \
  | grep -q "SLPW v2 ok"
build/examples/sleepwalk_cli analyze \
  --in "${fixtures}/dataset_v2_robustness.slpw" >/dev/null
cp "${fixtures}/dataset_v2_robustness.slpw" "${smoke}/bad2.slpw"
printf '\xa5' | dd of="${smoke}/bad2.slpw" bs=1 seek=60 count=1 \
  conv=notrunc 2>/dev/null
if build/tools/slck_fsck "${smoke}/bad2.slpw" >/dev/null; then
  echo "slck_fsck missed a corrupted v2 dataset" >&2
  exit 1
fi
# SLCK v2 is retired: fsck must say so and fail.
if build/tools/slck_fsck "${fixtures}/checkpoint_v2.slck" \
    >"${smoke}/retired.txt"; then
  echo "slck_fsck accepted a retired SLCK v2 checkpoint" >&2
  exit 1
fi
grep -q "SLCK v2 RETIRED" "${smoke}/retired.txt"
echo "storage smoke OK"

echo "== tier-1: worker-count smoke (1 vs 4 workers, byte-identical) =="
# The campaign engine's contract at the CLI: a checkpointed faulty
# campaign writes the same dataset, primary checkpoint, event log and
# metrics whatever the worker count. Each run gets its own directory so
# relative paths recorded in the artifacts match as well.
cli="${PWD}/build/examples/sleepwalk_cli"
for workers in 1 4; do
  mkdir "${smoke}/w${workers}"
  (cd "${smoke}/w${workers}" && "${cli}" measure \
    --blocks 20 --days 3 --seed 11 --loss 0.05 --workers "${workers}" \
    --out ds.slpw --checkpoint ck.slck \
    --log-json log.jsonl --metrics-out metrics.prom >/dev/null 2>&1)
done
for artifact in ds.slpw ck.slck log.jsonl metrics.prom; do
  cmp "${smoke}/w1/${artifact}" "${smoke}/w4/${artifact}"
done
echo "worker-count smoke OK"

if [[ "${1:-}" == "--skip-sanitize" ]]; then
  echo "== tier-1: sanitizer pass skipped =="
  exit 0
fi

echo "== tier-1: ASan+UBSan build of the fault/resilience, storage and fft tests =="
# The fft suite rides along because its kernels index raw interleaved
# re,im buffers, where an off-by-one would read a neighbour silently.
# The storage and crash-recovery suites ride along because the columnar
# writer streams borrowed spans: a column that outlived its memory would
# be a silent read of freed bytes, not a failed assertion. The store and
# dataset suites ride along because the store sweep reuses one
# BlockAnalysis per worker over CopySeriesOrdered's ring indexing. The
# executor and status suites ride along because the coordinator's
# checkpoint view borrows the ledger's analyses, estimator state
# included, outside the lock while /statusz reads the ledger.
cmake -B build-asan -S . \
  -DSLEEPWALK_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "${jobs}" --target faults_test integration_test \
  crash_sweep_test fft_test storage_test crash_recovery_test core_test
fft_suites='Bluestein|ChirpIndex|FftRadix2InPlace|Forward|ForwardReal|Goertzel|IsPowerOfTwo|NextPowerOfTwoChecked|Plan|PlanCache|Sizes/FftMatchesNaive|Sizes/GoertzelMatchesFft|Spectrum|SpectrumOptions'
storage_suites='FailpointParse|Failpoint|MemEnv|DirName|RealEnv|AtomicWrite|FaultyEnv|Columnar|ColumnarWriteTo|EveryStep/AtomicWriteFailure|CheckpointRobustness|CheckpointColumnar|DatasetRobustness'
store_suites='StoreAnalyzer|StoreCampaign|BlockStore|Dataset|DatasetColumnar'
executor_suites='ParallelExecutor|StatusHub|StatusIntegration|RenderStatusJson|CollectHistogramStatus'
ctest --test-dir build-asan --output-on-failure -j "${jobs}" --timeout 600 \
  -R "FaultPlan|GilbertElliott|FaultyTransport|Supervisor|ResilienceReport|Determinism|RestartArtifact|ObsInertness|ObsReconciliation|CrashSweep|^(${fft_suites}|${storage_suites}|${store_suites}|${executor_suites})\\."

echo "== tier-1: all green =="

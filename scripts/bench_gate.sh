#!/usr/bin/env bash
# Performance-regression gate for CI.
#
# Runs the four JSON-emitting benches (parallel_scaling, micro_perf's
# obs ablation, fft_perf's plan ablation, checkpoint_io's durability
# ablation) against a Release build and compares the fresh numbers with
# the baselines committed at the repo root (BENCH_parallel.json,
# BENCH_obs.json, BENCH_fft.json, BENCH_ckpt.json).
#
# Absolute throughput is not portable across runners, so the gate is
# deliberately hardware-calibrated:
#   * the committed BENCH_parallel.json baseline must itself have been
#     recorded on multi-core hardware (`hw_concurrency` > 1, as
#     detected — `hw_source` "detected"): a 1-core baseline can only
#     encode ~1.0 speedup ratios, which would rubber-stamp any scaling
#     regression forever after — the gate refuses to run against one and
#     says how to regenerate it;
#   * `scales.small.equivalent` and `scales.large.resume_identical` must
#     be true — an N-worker campaign that is not byte-identical to the
#     1-worker campaign (or a killed+resumed campaign whose final
#     snapshot differs from the uninterrupted one) is a correctness bug,
#     not a perf problem, and fails immediately;
#   * the small-scale workers:2 / workers:1 speedup ratio may not
#     regress more than TOLERANCE_PCT below the committed baseline ratio
#     (a pinned 2-worker comparison is meaningful on any >=2-core
#     runner; on a 1-core machine the ratio is ~1.0 on both sides, so
#     the gate stays honest without false alarms);
#   * on runners that actually detect >= 8 hardware threads the 8-worker
#     speedup must reach MIN_SPEEDUP_8V1 at the small scale (the
#     sharding exists to buy ~linear scaling; on smaller machines this
#     is reported but not enforced);
#   * blocks/sec at both scales must clear a generous cross-machine
#     floor (MIN_BPS_FRACTION of the committed baseline, enforced only
#     when the scale configuration matches): a 4x collapse is a real
#     regression on any hardware this project targets — the large scale
#     is the FULL pipeline (observe + series rings + classify sweep)
#     since PR 10, and its classify-only blocks/sec gets the same floor;
#   * `scales.large.durability_within_budget` must stay true — at 100k
#     blocks a checkpointed store campaign may not cost more than 10%
#     extra wall time over an unchecked one;
#   * `scales.large.rss_within_budget` must stay true — peak RSS at the
#     large scale is bounded by a scale-derived budget (~5 arena images
#     plus slack), so an accidental per-block materialization in the
#     columnar sweep fails the gate on any machine;
#   * the obs ablation's `null_context_within_budget` must stay true, and
#     its null-context overhead may not exceed the committed overhead by
#     more than TOLERANCE_PCT points;
#   * the obs ablation's `admin_within_budget` must stay true — with the
#     admin server attached and scraped mid-bench, the hot path may not
#     lose more than half its throughput (loopback-scrape interference
#     is too noisy for a drift bound, so this is a coarse same-machine
#     contract like the durability one);
#   * the fft plan ablation's campaign-size (n=1834, even non-power-of-
#     two) plan-vs-planless speedup must stay >= its committed
#     `speedup_target` (2x — a pure ratio, portable across runners) and
#     may not regress more than TOLERANCE_PCT below the committed ratio;
#   * checkpoint_io's `durability_within_budget` must stay true — a
#     checkpointed campaign may not cost more than 10% extra wall time
#     over an unchecked one (a same-machine ratio, portable across
#     runners; the raw MB/s numbers are informational).
#
# Usage: scripts/bench_gate.sh [build-dir]      (default: build-release)
# Output: fresh JSON written into the build dir (CI uploads as artifact).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-release}"
TOLERANCE_PCT=15
MIN_SPEEDUP_8V1=3.0
MIN_BPS_FRACTION=0.25

if [[ ! -x "${BUILD_DIR}/bench/parallel_scaling" ||
      ! -x "${BUILD_DIR}/bench/micro_perf" ||
      ! -x "${BUILD_DIR}/bench/fft_perf" ||
      ! -x "${BUILD_DIR}/bench/checkpoint_io" ]]; then
  echo "bench_gate: ${BUILD_DIR} lacks bench binaries; build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release" >&2
  echo "  cmake --build ${BUILD_DIR} -j --target parallel_scaling micro_perf fft_perf checkpoint_io" >&2
  exit 2
fi

echo "== bench_gate: parallel_scaling =="
SLEEPWALK_BENCH_PARALLEL_OUT="${BUILD_DIR}/BENCH_parallel.json" \
  "${BUILD_DIR}/bench/parallel_scaling"

echo "== bench_gate: micro_perf (obs ablation only) =="
SLEEPWALK_BENCH_OBS_OUT="${BUILD_DIR}/BENCH_obs.json" \
  "${BUILD_DIR}/bench/micro_perf" \
  --benchmark_filter='BM_SpectrumAndClassify$'

echo "== bench_gate: fft_perf (plan ablation only) =="
SLEEPWALK_BENCH_FFT_OUT="${BUILD_DIR}/BENCH_fft.json" \
  "${BUILD_DIR}/bench/fft_perf" \
  --benchmark_filter='BM_ForwardRealPlanned/1834$'

echo "== bench_gate: checkpoint_io (durability ablation) =="
SLEEPWALK_BENCH_CKPT_OUT="${BUILD_DIR}/BENCH_ckpt.json" \
  "${BUILD_DIR}/bench/checkpoint_io"

echo "== bench_gate: comparing against committed baselines =="
python3 - "${BUILD_DIR}" "${TOLERANCE_PCT}" "${MIN_SPEEDUP_8V1}" "${MIN_BPS_FRACTION}" <<'EOF'
import json
import sys

build_dir, tolerance_pct, min_speedup, min_bps_fraction = (
    sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4]))
failures = []


def load(path):
    with open(path) as handle:
        return json.load(handle)


base_par = load("BENCH_parallel.json")
fresh_par = load(f"{build_dir}/BENCH_parallel.json")
base_obs = load("BENCH_obs.json")
fresh_obs = load(f"{build_dir}/BENCH_obs.json")
base_fft = load("BENCH_fft.json")
fresh_fft = load(f"{build_dir}/BENCH_fft.json")
base_ckpt = load("BENCH_ckpt.json")
fresh_ckpt = load(f"{build_dir}/BENCH_ckpt.json")

# 0. Refuse a baseline that cannot express scaling at all. A baseline
# recorded on a single-core machine pins every speedup ratio near 1.0,
# so the drift gates below would wave through any scaling regression,
# forever. A baseline must also state the hardware it ran on as
# detected: one once shipped labelled with a hardware class it was not
# recorded on. Fail loudly, with the remediation.
base_hw = int(base_par.get("hw_concurrency", 1))
if base_par.get("hw_source") != "detected":
    print("bench_gate: committed BENCH_parallel.json does not state "
          "detected hardware (hw_source "
          f"{base_par.get('hw_source')!r}); re-record it on the machine "
          "it describes", file=sys.stderr)
    sys.exit(1)
if base_hw <= 1:
    print(f"bench_gate: committed BENCH_parallel.json was recorded with "
          f"hw_concurrency={base_hw}", file=sys.stderr)
    print("bench_gate: a single-core baseline encodes ~1.0 speedups and "
          "would mask any future scaling regression.", file=sys.stderr)
    print("bench_gate: regenerate it on a multi-core machine:\n"
          "  SLEEPWALK_BENCH_PARALLEL_OUT=BENCH_parallel.json "
          "build-release/bench/parallel_scaling",
          file=sys.stderr)
    sys.exit(1)

base_small = base_par["scales"]["small"]
fresh_small = fresh_par["scales"]["small"]
base_large = base_par["scales"]["large"]
fresh_large = fresh_par["scales"]["large"]

# 1. Correctness flags: parallelism must stay byte-identical, and a
# killed 100k-block store campaign resumed at a different worker count
# must converge on the same final snapshot bytes.
if not fresh_small.get("equivalent"):
    failures.append("parallel_scaling: workers-1 vs workers-8 datasets differ")
if not fresh_large.get("resume_identical"):
    failures.append(
        "parallel_scaling: killed+resumed large campaign's final snapshot "
        "differs from the uninterrupted run")

# 2. Pinned 2-worker ratio vs the committed ratio (regression direction
# only; being faster than baseline is never an error).
base_ratio = float(base_small.get("speedup_2v1", 0.0))
fresh_ratio = float(fresh_small.get("speedup_2v1", 0.0))
floor = base_ratio * (1.0 - tolerance_pct / 100.0)
print(f"small speedup_2v1: fresh {fresh_ratio:.3f} vs baseline {base_ratio:.3f} "
      f"(floor {floor:.3f})")
if fresh_ratio < floor:
    failures.append(
        f"parallel_scaling: small speedup_2v1 regressed {fresh_ratio:.3f} < "
        f"{floor:.3f} (baseline {base_ratio:.3f} - {tolerance_pct}%)")

# 3. Absolute scaling demand, only where the hardware can actually
# deliver it.
hw = int(fresh_par.get("hw_concurrency", 1))
for scale, fresh in (("small", fresh_small), ("large", fresh_large)):
    speedup8 = float(fresh.get("speedup_8v1", 0.0))
    if hw >= 8:
        print(f"{scale} speedup_8v1: {speedup8:.2f} "
              f"(required >= {min_speedup} on {hw} threads)")
        if speedup8 < min_speedup:
            failures.append(
                f"parallel_scaling: {scale} speedup_8v1 {speedup8:.2f} < "
                f"{min_speedup} on {hw}-thread runner")
    else:
        print(f"{scale} speedup_8v1: {speedup8:.2f} (informational; "
              f"runner has {hw} threads)")

# 3b. Cross-machine throughput floor at both scales. Absolute blocks/sec
# is not portable, but a collapse to a quarter of the committed number
# is a regression on any hardware this project targets. Enforced only
# when the scale's workload configuration matches the baseline's. The
# large scale is the full pipeline (observe + series rings + classify
# sweep), so its classify-only throughput gets the same floor.
for scale, base, fresh, keys in (
        ("small", base_small, fresh_small, ("blocks", "rounds_per_block")),
        ("large", base_large, fresh_large,
         ("blocks", "rounds", "series_capacity", "pipeline"))):
    if any(base.get(k) != fresh.get(k) for k in keys):
        print(f"{scale} blocks_per_sec: config differs from baseline; "
              f"floor not enforced")
        continue
    base_bps = float(base.get("blocks_per_sec", {}).get("1", 0.0))
    fresh_bps = float(fresh.get("blocks_per_sec", {}).get("1", 0.0))
    bps_floor = base_bps * min_bps_fraction
    print(f"{scale} blocks_per_sec(1): fresh {fresh_bps:.0f} vs baseline "
          f"{base_bps:.0f} (floor {bps_floor:.0f})")
    if fresh_bps < bps_floor:
        failures.append(
            f"parallel_scaling: {scale} blocks_per_sec collapsed to "
            f"{fresh_bps:.0f} (< {min_bps_fraction:.2f}x of baseline "
            f"{base_bps:.0f})")
    if scale == "large":
        base_cls = float(base.get("classify_blocks_per_sec", 0.0))
        fresh_cls = float(fresh.get("classify_blocks_per_sec", 0.0))
        cls_floor = base_cls * min_bps_fraction
        print(f"large classify_blocks_per_sec: fresh {fresh_cls:.0f} vs "
              f"baseline {base_cls:.0f} (floor {cls_floor:.0f})")
        if base_cls > 0.0 and fresh_cls < cls_floor:
            failures.append(
                f"parallel_scaling: classify sweep collapsed to "
                f"{fresh_cls:.0f} blocks/sec (< {min_bps_fraction:.2f}x of "
                f"baseline {base_cls:.0f})")

# 3c. Paper-scale durability: the boolean budget the bench computes
# (checkpointed store campaign within 10% of the unchecked one).
large_tax = float(fresh_large.get("durability_overhead_pct", 0.0))
print(f"large durability_overhead_pct: {large_tax:.2f} (budget < 10)")
if not fresh_large.get("durability_within_budget"):
    failures.append(
        f"parallel_scaling: large-scale durability overhead {large_tax:.2f}% "
        f"exceeds the 10% budget")

# 3d. Paper-scale memory: peak RSS against the bench's scale-derived
# budget (~5 arena images + fixed slack). A same-machine boolean like
# the durability contract, enforced at every scale: an accidental
# per-block materialization in the classify sweep blows this on any
# hardware. peak_rss_mb == 0 means /proc was unavailable (reported,
# not enforced).
rss = float(fresh_large.get("peak_rss_mb", 0.0))
rss_budget = float(fresh_large.get("rss_budget_mb", 0.0))
if rss > 0.0:
    print(f"large peak_rss_mb: {rss:.0f} (budget < {rss_budget:.0f})")
    if not fresh_large.get("rss_within_budget"):
        failures.append(
            f"parallel_scaling: peak RSS {rss:.0f} MB exceeds the "
            f"{rss_budget:.0f} MB budget at the large scale")
else:
    print("large peak_rss_mb: unavailable (no /proc); not enforced")

# 4. Observability stays free: the boolean contract plus a drift bound on
# the (already hardware-relative) overhead percentage.
if not fresh_obs.get("null_context_within_budget"):
    failures.append("micro_perf: null-context obs overhead exceeded its budget")
base_overhead = float(base_obs.get("null_context_overhead_pct", 0.0))
fresh_overhead = float(fresh_obs.get("null_context_overhead_pct", 0.0))
ceiling = base_overhead + tolerance_pct / 10.0  # pct points, tight by design
print(f"null_context_overhead_pct: fresh {fresh_overhead:.2f} vs baseline "
      f"{base_overhead:.2f} (ceiling {ceiling:.2f})")
if fresh_overhead > ceiling:
    failures.append(
        f"micro_perf: null-context overhead {fresh_overhead:.2f}% drifted past "
        f"{ceiling:.2f}% (baseline {base_overhead:.2f}%)")

# 4b. Attaching the admin plane (scraped from another thread the whole
# time) must not wreck the hot path. The raw overhead percentage is
# scheduler-interference-dominated and swings by tens of points between
# runs of the same binary, so a drift bound against the baseline would
# flake; like the durability gate, the contract is the same-machine
# boolean budget the bench itself computes (overhead < 50%), plus proof
# that the scraper actually exercised the server.
if fresh_obs.get("admin_attached"):
    base_admin = float(base_obs.get("admin_attached_overhead_pct", 0.0))
    fresh_admin = float(fresh_obs.get("admin_attached_overhead_pct", 0.0))
    admin_budget = float(fresh_obs.get("admin_overhead_budget_pct", 50.0))
    scrapes = int(fresh_obs.get("admin_scrapes_during_bench", 0))
    print(f"admin_attached_overhead_pct: fresh {fresh_admin:.2f} vs baseline "
          f"{base_admin:.2f} (budget < {admin_budget:.1f}, {scrapes} scrapes)")
    if scrapes == 0:
        failures.append("micro_perf: admin server attached but never scraped")
    if not fresh_obs.get("admin_within_budget"):
        failures.append(
            f"micro_perf: admin-attached overhead {fresh_admin:.2f}% exceeds "
            f"the {admin_budget:.1f}% budget")
else:
    print("admin_attached: false (server failed to start; ablation skipped)")

# 5. Spectral plan cache keeps paying: the campaign-size speedup is a
# pure same-machine ratio, so both an absolute floor (the committed
# speedup_target) and a drift bound vs the committed ratio apply.
target = float(base_fft.get("speedup_target", 2.0))
base_speedup = float(base_fft.get("campaign_even_speedup", 0.0))
fresh_speedup = float(fresh_fft.get("campaign_even_speedup", 0.0))
drift_floor = base_speedup * (1.0 - tolerance_pct / 100.0)
print(f"fft campaign_even_speedup: fresh {fresh_speedup:.3f} vs baseline "
      f"{base_speedup:.3f} (target >= {target:.1f}, drift floor {drift_floor:.3f})")
if not fresh_fft.get("campaign_speedup_within_target"):
    failures.append(
        f"fft_perf: campaign_even_speedup {fresh_speedup:.3f} below the "
        f"{target:.1f}x target")
if fresh_speedup < drift_floor:
    failures.append(
        f"fft_perf: campaign_even_speedup regressed {fresh_speedup:.3f} < "
        f"{drift_floor:.3f} (baseline {base_speedup:.3f} - {tolerance_pct}%)")

# 6. Durability stays cheap: the boolean budget contract (< 10% campaign
# wall time) is the gate; absolute MB/s is hardware-bound, so the
# throughput numbers are printed for the log but not enforced.
budget = float(fresh_ckpt.get("durability_budget_pct", 10.0))
base_tax = float(base_ckpt.get("durability_overhead_pct", 0.0))
fresh_tax = float(fresh_ckpt.get("durability_overhead_pct", 0.0))
print(f"durability_overhead_pct: fresh {fresh_tax:.2f} vs baseline "
      f"{base_tax:.2f} (budget < {budget:.1f})")
print(f"checkpoint encode/decode/save MB/s: "
      f"{float(fresh_ckpt.get('encode_mb_per_sec_large', 0.0)):.0f} / "
      f"{float(fresh_ckpt.get('decode_mb_per_sec_large', 0.0)):.0f} / "
      f"{float(fresh_ckpt.get('save_mb_per_sec_large', 0.0)):.0f}")
if not fresh_ckpt.get("durability_within_budget"):
    failures.append(
        f"checkpoint_io: durability overhead {fresh_tax:.2f}% exceeds the "
        f"{budget:.1f}% budget")

if failures:
    print("\nbench_gate: FAIL")
    for failure in failures:
        print(f"  - {failure}")
    sys.exit(1)
print("\nbench_gate: OK")
EOF

#!/usr/bin/env python3
"""perfbench: the repository benchmark (see BENCHMARK.json and README.md).

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 25 --trace 0

Builds the sleepwalk libraries and the harness from source (Release)
under .bench_build/, then:

* --trace 0: runs the workload as repeated one-process batch jobs for
  about --seconds seconds and reports the median of every end-to-end
  metric in BENCHMARK.json over all but the first (warm-up) process;
* --trace 1: runs it once with the layer-by-layer replay and reports
  every per-layer metric in BENCHMARK.json. A layer that the workload
  does not run reports 0 (layers.json says which workloads run which
  layer). The Chrome trace is left in .bench_build/perfbench/traces/ and
  must pass the repository's jsonl_check --chrome-trace.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
correctness check passed; a build failure exits 2 without a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
JSONL_CHECK = BUILD / "perfbench_jsonl_check"
WORKLOADS = ("campaign", "reanalyze", "store_campaign")
# Fewer repetitions than this cannot give a median worth gating on.
MIN_REPS = 3
# The first process of a run is a warm-up: its checks count, its
# timings do not (it runs 5-20% slower, with a cold page cache for the
# binary and the libraries).
WARMUP_REPS = 1
# Stop starting repetitions after this long, whatever --seconds says,
# so a run ends well inside the 180 s a run may take.
MAX_LOOP_S = 120.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            log((done.stdout + done.stderr)[-4000:])
            return False
    return HARNESS.exists() and JSONL_CHECK.exists()


def provenance():
    """What the numbers were measured on and with, detected, never set."""
    commit = None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "source_sha256": digest.hexdigest()}


def run_harness(args):
    """Runs the harness; returns (exit code, last stdout line parsed)."""
    done = subprocess.run([str(HARNESS)] + args, capture_output=True,
                          text=True)
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return done.returncode, record


def one_rep(opts, index, trace_path=None):
    """One batch job in a fresh directory: set-up (the prepare process,
    for reanalyze) then the timed process. Returns the harness record
    with setup_s added, or None when the harness produced no result."""
    work = BUILD / "io" / f"{opts.workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--dir", str(work), "--scale", repr(opts.scale)]
    try:
        start = time.monotonic()
        if opts.workload == "reanalyze":
            code, _ = run_harness(["prepare"] + common)
            if code != 0:
                log("perfbench: prepare failed")
                return None
        extra = []
        if trace_path is not None:
            extra += ["--trace", str(trace_path)]
        if opts.inject:
            extra += ["--inject", opts.inject]
        code, record = run_harness(["run"] + common + extra)
        if record is None:
            log(f"perfbench: harness exited {code} without a result")
            return None
        record["setup_s"] = record["timed_start"] - start
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed(opts, spec):
    reps = []
    loop_start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        record = one_rep(opts, len(reps))
        if record is None:
            return None
        reps.append(record)
        rep_s = time.monotonic() - rep_start
        elapsed = time.monotonic() - loop_start
        log(f"rep {len(reps)}: {record['blocks']} blocks in "
            f"{record['timed_s']:.3f} s, setup {record['setup_s']:.3f} s, "
            f"rss {record['peak_rss_mb']:.0f} MB, correct {record['correct']}"
            + "".join(f", {k} {v:.4g}" for k, v in record["info"].items()))
        if not record["correct"]:
            break
        if len(reps) >= WARMUP_REPS + MIN_REPS and (
                elapsed >= opts.seconds or elapsed + rep_s > MAX_LOOP_S):
            break
    measured = reps[WARMUP_REPS:] or reps
    values = {
        "blocks_per_s": [r["blocks"] / r["timed_s"] for r in measured],
        "setup_s": [r["setup_s"] for r in measured],
        "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
        "storage_bytes_per_block": [r["storage_bytes"] / max(r["blocks"], 1)
                                    for r in measured],
    }
    metrics = {}
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        metrics[metric["name"]] = {"value": statistics.median(series),
                                   "unit": metric["unit"]}
    return reps, metrics


def traced(opts, spec):
    layers_doc = json.loads((HERE / "layers.json").read_text())
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{opts.workload}.json"
    record = one_rep(opts, 0, trace_path)
    if record is None:
        return None
    check = subprocess.run([str(JSONL_CHECK), "--chrome-trace",
                            str(trace_path)], capture_output=True, text=True)
    record["checks"].append({"name": "jsonl_check accepts the Chrome trace",
                             "ok": check.returncode == 0,
                             "detail": (check.stdout + check.stderr).strip()})
    measured = record["layers"]
    metrics = {}
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        runs_here = opts.workload in layers_doc[name]["workloads"]
        if name in measured:
            ok = runs_here and measured[name]["unit"] == unit
            value = measured[name]["value"]
        else:
            ok = not runs_here
            value = 0
        if not ok:
            record["checks"].append({
                "name": f"layer metric {name} as layers.json declares",
                "ok": False, "detail": f"measured: {name in measured}"})
        metrics[name] = {"value": value, "unit": unit}
    for name in sorted(set(measured) - set(metrics)):
        record["checks"].append({
            "name": f"layer metric {name} is declared in BENCHMARK.json",
            "ok": False, "detail": ""})
    record["correct"] = all(c["ok"] for c in record["checks"]) and \
        record["failed"] == 0
    return [record], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Test hooks (perfbench/tests): a smaller input, and a fault the
    # checks must catch.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject", choices=("flip-verdict", "move-bin",
                                             "corrupt-snapshot"),
                        help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        return 2
    outcome = traced(opts, spec) if opts.trace else timed(opts, spec)
    if outcome is None:
        return 1
    reps, metrics = outcome

    info = dict(provenance())
    info.update(reps[0]["provenance"])
    info["workload"] = opts.workload
    info["seed"] = opts.seed
    info["repetitions"] = len(reps)
    print("provenance " + json.dumps(info, sort_keys=True))
    seen = set()
    for rep in reps:
        for check in rep["checks"]:
            line = (f"check {'ok  ' if check['ok'] else 'FAIL'} "
                    f"{check['name']}"
                    + (f" ({check['detail']})" if check["detail"] else ""))
            if line not in seen:
                seen.add(line)
                print(line)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    correct = all(rep["correct"] for rep in reps)
    result = {"correct": correct,
              "attempted": sum(rep["attempted"] for rep in reps),
              "failed": sum(rep["failed"] for rep in reps),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""masim benchmark: closed-loop workloads, each run in a fresh worker process.

From the repository root:

  python3 perfbench/run.py --workload sound-hi --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --report --seed 1 --seconds 20
  python3 perfbench/run.py --self-check

A single-workload run prints a detail line (machine, seed, every metric with
its unit and sample count) and, as its last line, the JSON result
{"correct", "attempted", "failed", "metrics"}: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
--report runs every workload untraced and then traced, one after another,
and prints all metrics, the time per layer and the tracing overhead.
--self-check runs each workload once at a tiny size through its gate and
the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("sound-hi", "sound-paper", "pipeline-hi", "placement")
LAYERS = ("channel", "signals", "powermeter", "estimator", "mover", "harness")
# set-up is measured this many times in fresh processes besides the worker
SETUP_PROBES = 2
# a worker may overrun --seconds by one operation and its checks
WORKER_GRACE_S = 120
# One BLAS thread: on a shared 2-CPU machine a second OpenBLAS thread made
# operation times swing with other processes' load (masim starts no threads
# of its own), while a single-threaded worker kept its speed.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-operation counts that repeat bit for bit from run to run and seed to
# seed on the workloads named, so later changes can cite them as counts.
EXACT_COUNTS = {
    "powermeter.sweep_measure.fft_points": ("pipeline-hi",),
    "estimator.frequency_response.calls": ("sound-hi", "sound-paper", "pipeline-hi"),
    "estimator.SoundingCampaign.samples_matrix.bytes": ("sound-hi", "sound-paper", "pipeline-hi"),
    "signals.write_iq_record.bytes": ("pipeline-hi",),
    "harness.stage.cached.count": ("pipeline-hi",),
}


class BenchError(RuntimeError):
    pass


def machine_info() -> dict:
    mem_mb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) * 1024 / 1e6
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "masim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _worker(argv: list[str], timeout: float) -> tuple[dict, float]:
    """Run the worker in a fresh process; return its report and when it was started."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {argv} did not finish within {timeout} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def run_workload(name, seed, seconds, trace, tiny=False, ops=0, probes=SETUP_PROBES) -> dict:
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = []
    for _ in range(probes):
        ready, started = _worker(common + ["--setup-only"], WORKER_GRACE_S)
        setups.append(ready["ready"] - started)
    argv = common + ["--seconds", str(seconds), "--ops", str(ops), "--trace", str(trace)]
    report, started = _worker(argv, seconds + WORKER_GRACE_S)
    setups.append(report["ready"] - started)
    report["setup_s"] = setups
    return report


# Figures that only some workloads produce: name -> (unit, how a run's operations combine).
QUALITY = {
    "disk_mb": ("MB", statistics.median),
    "angle_err_deg": ("deg", max),
    "delay_err_ns": ("ns", max),
    "amp_err": ("1", max),
    "power_frac": ("1", min),
    "map_rms_db": ("dB", max),
    "mover_gap_db": ("dB", max),
    "mover_probes": ("1", statistics.median),
}


def detail_metrics(report: dict) -> dict:
    """Every end-to-end figure of a run as name -> (value or None, unit, samples)."""
    op_s = report["op_s"]
    n = len(op_s)
    m = {
        "wall_s": (statistics.mean(op_s) if n else None, "s", n),
        "positions_per_s": (sum(report["records"]) / sum(op_s) if n else None, "1/s", n),
        "setup_s": (statistics.median(report["setup_s"]), "s", len(report["setup_s"])),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", 1),
    }
    placement = report["workload"] == "placement" and n >= 2
    m["placement_p50_ms"] = (1e3 * statistics.median(op_s) if placement else None, "ms", n if placement else 0)
    p95 = statistics.quantiles(op_s, n=20, method="inclusive")[18] if placement else None
    m["placement_p95_ms"] = (None if p95 is None else 1e3 * p95, "ms", n if placement else 0)
    for key, (unit, combine) in QUALITY.items():
        vals = report["quality"].get(key, [])
        m[key] = (combine(vals) if vals else None, unit, len(vals))
    m["failed_frac"] = (report["failed"] / report["attempted"], "1", report["attempted"])
    return m


def result_line(report: dict, spec: dict, trace: int) -> dict:
    if trace:
        layers = report["layers"]
        metrics = {e["name"]: {"value": layers.get(e["name"], 0.0), "unit": e["unit"]} for e in spec["per_layer"]}
    else:
        detail = detail_metrics(report)
        metrics = {e["name"]: {"value": detail[e["name"]][0], "unit": e["unit"]} for e in spec["end_to_end"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def single(args, spec) -> int:
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), "blas_threads": report["blas_threads"],
                    "free_disk_mb_before": report["free_disk_mb_before"]},
        "problems": report["problems"],
        "metrics": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in detail_metrics(report).items()},
        "spans_file": report.get("spans_file"),
    }
    print(json.dumps(detail))
    print(json.dumps(result_line(report, spec, args.trace)))
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def full_report(args) -> int:
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "machine": machine_info()}))
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        print(f"\n== {name} (seed {args.seed}, {args.seconds} s, BLAS threads {plain['blas_threads']}, "
              f"free disk before {plain['free_disk_mb_before']:.0f} MB)")
        for key, (value, unit, n) in detail_metrics(plain).items():
            print(f"  {key:<18} {_fmt(value):>12} {unit:<4} n={n}")
        for problem in plain["problems"] + traced["problems"]:
            print(f"  FAILED {problem}")
        layers = traced["layers"]
        print(f"  {'layer':<18} {'busy s/op':>12} {'self s/op':>12}")
        for layer in LAYERS:
            busy, own = (layers.get(f"{layer}.{kind}_share", 0.0) * layers["trace.wall_s"] for kind in ("busy", "self"))
            print(f"  {layer:<18} {_fmt(busy):>12} {_fmt(own):>12}")
        untraced = detail_metrics(plain)["wall_s"][0]
        overhead = None if untraced is None else layers["trace.wall_s"] - untraced
        print(f"  tracing overhead   {_fmt(overhead):>12} s/op (traced {_fmt(layers['trace.wall_s'])} s, "
              f"{layers['trace.spans']:.0f} spans/op, spans in {traced['spans_file']})")
    return 0


def self_check(spec) -> int:
    """Each workload once at a tiny size: gate, traced run, and the exact counts."""
    problems = []
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for name in WORKLOADS:
        plain = run_workload(name, 1, 0, 0, tiny=True, ops=1, probes=0)
        traced = [run_workload(name, seed, 0, 1, tiny=True, ops=1, probes=0) for seed in (1, 2)]
        for report in [plain, *traced]:
            if report["failed"] or report["attempted"] != 1:
                problems.append(f"{name}: {report['problems']}")
        line = result_line(plain, spec, 0)
        if any(m["value"] is None or m["value"] <= 0 for m in line["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is missing or not positive: {line['metrics']}")
        a, b = (r["layers"] for r in traced)
        for key, workloads in EXACT_COUNTS.items():
            if name in workloads and not (a.get(key, 0) > 0 and a.get(key) == b.get(key)):
                problems.append(f"{name}: {key} is {a.get(key)} then {b.get(key)}")
        for layer in LAYERS:
            layer_busy[layer] += a.get(f"{layer}.busy_share", 0.0)
        print(f"{name}: {plain['attempted'] + 2} operations checked", flush=True)
    problems += [f"layer {layer} was never busy" for layer, busy in layer_busy.items() if busy <= 0]
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--self-check", action="store_true", help="tiny runs of every workload through the gates")
    args = ap.parse_args()
    if not (ROOT / "src" / "masim" / "__init__.py").is_file():
        print(f"no masim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    try:
        if args.self_check:
            return self_check(spec)
        if args.report:
            return full_report(args)
        if args.workload is None:
            ap.error("--workload is required")
        return single(args, spec)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

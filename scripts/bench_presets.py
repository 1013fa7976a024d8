"""The presets' pipeline stage by stage: wall time, peak RSS and what each stage leaves on disk.

From the repository root:

  python3 scripts/bench_presets.py --out BENCH_<n>.json [--tiny]

For scenario_27p5ghz and scenario_3p5ghz at noise power 0.01, each with its
hall path set, the script runs the sound, estimate, measure and optimize
stages through run_pipeline under one temporary root, each stage in a fresh
Python process that finds the stages before it cached. A stage's record
holds the wall seconds of its run_pipeline call, its process's peak RSS,
and the bytes and files of its stage directory. --tiny runs the same stages
at the 832 x 2 test numerology on grids of 51 to 441 points, a check
of the script that takes seconds; its figures measure nothing.

The masim it runs is the one under src/ next to this script. Each figure
is one run: on a shared 2-vCPU machine single runs swing by about 25%.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = {"scenario_27p5ghz": "hall_psi_27p5ghz", "scenario_3p5ghz": "hall_psi_3p5ghz"}  # each with its path set
STAGES = ("sound", "estimate", "measure", "optimize")
NOISE_POWER = 0.01

# one stage in a fresh process: argv is preset, path set, stage, pipeline root, noise power and "tiny" or "full";
# it prints the stage's directory, the stages found cached, wall seconds and peak RSS in MB
STAGE_RUN = """
import dataclasses, json, resource, sys, time
from masim import OfdmNumerology, presets, run_pipeline

preset, path_set, stage, root, noise, size = sys.argv[1:]
cfg, psi = getattr(presets, preset)(noise_power=float(noise)), getattr(presets, path_set)()
if size == "tiny":
    # 5x the sounding step (still under lambda/2) and 10x the tone step: 51 to 441 points a grid
    sounding, region = cfg.sounding_region, cfg.region
    cfg = dataclasses.replace(
        cfg, numerology=OfdmNumerology(480e3, 832, 2, 1.0 / (16.0 * 480e3)),
        sounding_region=dataclasses.replace(sounding, x_step_m=5 * sounding.x_step_m, y_step_m=5 * sounding.y_step_m),
        region=dataclasses.replace(region, x_step_m=10 * region.x_step_m, y_step_m=10 * region.y_step_m),
    )
t0 = time.perf_counter()
result = run_pipeline(cfg, psi, [stage], root)
wall_s = time.perf_counter() - t0
print(json.dumps({"stage_dir": str(result.stage_dirs[stage]), "cached": sorted(result.cached), "wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "sounding_positions": cfg.sounding_region.num_points, "region_positions": cfg.region.num_points,
                  "numerology": dataclasses.asdict(cfg.numerology)}))
"""


def directory_size(path: Path) -> tuple[int, int]:
    """(bytes, files) of every file under path."""
    sizes = [p.stat().st_size for p in path.rglob("*") if p.is_file()]
    return sum(sizes), len(sizes)


def run_stage(preset: str, stage: str, root: Path, tiny: bool) -> dict:
    """One stage of one preset in a fresh process, over the stages already cached under root."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-c", STAGE_RUN, preset, PRESETS[preset], stage, str(root), str(NOISE_POWER),
           "tiny" if tiny else "full"]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def bench(tiny: bool) -> dict:
    """Every preset's stage records, keyed by preset, then stage."""
    presets = {}
    with tempfile.TemporaryDirectory(prefix="bench_presets_") as tmp:
        for preset in PRESETS:
            stages = {}
            for stage in STAGES:
                run = run_stage(preset, stage, Path(tmp) / preset, tiny)
                size, files = directory_size(Path(run["stage_dir"]))
                stages[stage] = {"wall_s": round(run["wall_s"], 3), "peak_rss_mb": round(run["peak_rss_mb"], 1),
                                 "bytes": size, "files": files, "cached": run["cached"]}
                print(f"{preset} {stage}: {stages[stage]}", file=sys.stderr, flush=True)
            presets[preset] = {"sounding_positions": run["sounding_positions"],
                               "region_positions": run["region_positions"],
                               "numerology": run["numerology"], "stages": stages}
    return presets


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    ap.add_argument("--tiny", action="store_true", help="test numerology and small grids: checks the script in seconds")
    args = ap.parse_args()

    report = {
        "description": "scripts/bench_presets.py: each preset at noise power 0.01 with its hall path set, one "
                       "pipeline stage per fresh process over the cached stages before it. wall_s is the stage's "
                       "run_pipeline call, peak_rss_mb its process's peak RSS, bytes and files its stage "
                       "directory. One run: single runs swing by about 25% on a shared 2-vCPU machine.",
        "command": "python3 scripts/bench_presets.py --out " + args.out.name + (" --tiny" if args.tiny else ""),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": metadata.version("numpy"),
                    "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "noise_power": NOISE_POWER,
        "preset_stages": bench(args.tiny),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

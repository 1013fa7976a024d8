"""One benchmark worker: set up a workload, run its operations closed loop, check each one.

run.py starts this script in a fresh process and reads the JSON object it
prints as its last line. masim is imported from the src/ directory of the
checkout this file lives in. Every input is generated from --seed: the
master seed of operation k is drawn from SeedSequence([seed, k]).

Each operation is timed around the calls into masim only; its outputs are
then checked against the planted paths (the gate), outside the timed
region. An operation that raises or fails its gate counts as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import masim  # noqa: E402
from masim import estimator, harness, mover, powermeter, presets  # noqa: E402
from masim.channel import MovementRegion  # noqa: E402
from masim.harness import ScenarioConfig  # noqa: E402
from masim.signals import NoiseSpec, OfdmNumerology  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

if Path(masim.__file__).resolve().parent != ROOT / "src" / "masim":
    raise SystemExit(f"masim resolved to {masim.__file__}, not to this checkout's src/masim")

# The hi scenario of tests/conftest.py: 27.5 GHz hall paths on the 50 mm
# plane, test numerology 832 x 2, 20 dB SNR.
TEST_NUMEROLOGY = OfdmNumerology(
    subcarrier_spacing_hz=480e3, num_subcarriers=832, num_symbols=2, cp_duration_s=1.0 / (16.0 * 480e3)
)
HI_REGION = MovementRegion(0.05, 0.05, 0.5e-3, 0.5e-3)
BANDWIDTH_HZ = 400e6
NOISE_POWER = 0.01
TONE_F0_HZ = 50e6
TONE_SAMPLES = 4096
REFINE_STEP_M = 0.5e-3
MOVE_BUDGET = 50
STAGES = ("sound", "estimate", "measure", "optimize", "export")

# Planted-truth gates, the tolerances of the acceptance checks.
ANGLE_TOL_DEG = 0.5  # one step of the default angle grid
DELAY_TOL_NS = 1.0
AMP_TOL = 0.05
POWER_FRAC_MIN = 0.99
MAP_CORR_MIN = 0.999
GAP_TOL_DB = 0.5
PROBE_FRAC_MAX = 0.10


def hi_config(sounding_region: MovementRegion, numerology=TEST_NUMEROLOGY, region=HI_REGION) -> ScenarioConfig:
    return ScenarioConfig(
        carrier_hz=27.5e9,
        bandwidth_hz=BANDWIDTH_HZ,
        tx_position_m=(0.0, 1.3, 6.8),
        region=region,
        sounding_region=sounding_region,
        numerology=numerology,
        noise_power=NOISE_POWER,
        tone_f0_hz=TONE_F0_HZ,
        samples_per_measurement=TONE_SAMPLES,
        master_seed=0,
    )


def square_grid(n: int, step_m: float) -> MovementRegion:
    region = MovementRegion((n - 1) * step_m, (n - 1) * step_m, step_m, step_m)
    if region.shape != (n, n):
        raise SystemExit(f"{n} x {n} grid at {step_m} m came out as {region.shape}")
    return region


def op_seed(seed: int, k: int) -> int:
    """master_seed of operation k, derived from the workload seed alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def planted_gain(psi, xs, ys) -> np.ndarray:
    """|sum_l a_l exp(-j 2 pi (d_l(r)/lambda + fc tau_l))|^2 over the grid of xs, ys, shape (n_y, n_x)."""
    u, v = psi.directions.T
    d = u[:, None, None] * np.asarray(xs)[None, None, :] + v[:, None, None] * np.asarray(ys)[None, :, None]
    cycles = d / psi.wavelength_m + (psi.carrier_hz * psi.delays_s)[:, None, None]
    return np.abs(np.tensordot(psi.amplitudes, np.exp(-2j * np.pi * cycles), axes=1)) ** 2


def path_check(psi, found) -> tuple[list[str], dict]:
    """Gate estimated paths, (el, az, amp, delay_s) tuples, against the planted ones."""
    quality = {"power_frac": sum(a * a for _, _, a, _ in found)}
    problems = []
    if len(found) != psi.num_paths:
        return [f"{len(found)} paths found, {psi.num_paths} planted"], quality
    pairs, used = [], set()
    for p in psi.paths:
        j = min(range(len(found)), key=lambda k: (found[k][0] - p.elevation_deg) ** 2 + (found[k][1] - p.azimuth_deg) ** 2)
        pairs.append((p, found[j]))
        used.add(j)
    if len(used) != psi.num_paths:
        return ["two planted paths matched one estimate"], quality
    quality["angle_err_deg"] = max(max(abs(e[0] - p.elevation_deg), abs(e[1] - p.azimuth_deg)) for p, e in pairs)
    quality["delay_err_ns"] = max(abs(e[3] - p.delay_s) for p, e in pairs) * 1e9
    quality["amp_err"] = max(abs(e[2] - p.amplitude) for p, e in pairs)
    if quality["angle_err_deg"] > ANGLE_TOL_DEG + 1e-9:
        problems.append(f"angle error {quality['angle_err_deg']} deg")
    if quality["delay_err_ns"] > DELAY_TOL_NS:
        problems.append(f"delay error {quality['delay_err_ns']} ns")
    if quality["amp_err"] > AMP_TOL:
        problems.append(f"amplitude error {quality['amp_err']}")
    if quality["power_frac"] < POWER_FRAC_MIN:
        problems.append(f"power fraction {quality['power_frac']}")
    return problems, quality


class Sounding:
    """In memory: build_sounding_campaign -> compute_pas -> estimate_psi(pas=...) -> compute_pds."""

    def __init__(self, numerology: OfdmNumerology, sounding_region: MovementRegion):
        self.cfg = hi_config(sounding_region, numerology)
        self.psi = presets.hall_psi_27p5ghz()

    def run(self, seed, k, tracer):
        cfg = dataclasses.replace(self.cfg, master_seed=op_seed(seed, k))
        campaign = harness.build_sounding_campaign(cfg, self.psi)
        pas = estimator.compute_pas(campaign)
        est = estimator.estimate_psi(campaign, pas=pas)
        pds = estimator.compute_pds(campaign)
        return est, pds, campaign.num_positions

    def check(self, result):
        est, pds, q = result
        found = [(p.elevation_deg, p.azimuth_deg, p.amplitude, p.delay_s) for p in est.paths]
        problems, quality = path_check(self.psi, found)
        if pds.values.shape != (q, self.cfg.numerology.num_subcarriers) or np.any(pds.values.max(axis=1) != 1.0):
            problems.append("PDS rows are not peak-normalized per position")
        return problems, quality, q


class Pipeline:
    """run_pipeline with all five stages, cold into a fresh directory, then a warm re-run."""

    def __init__(self, tone_region: MovementRegion, tmp_dir: Path):
        # 26 x 26 sounding positions at 2 mm span the 50 mm aperture the angle
        # gate needs; a 17 x 17 grid at 3 mm returned a 1.0 degree error
        self.cfg = hi_config(square_grid(26, 2e-3), region=tone_region)
        self.psi = presets.hall_psi_27p5ghz()
        self.tmp_dir = tmp_dir
        self.gain = planted_gain(self.psi, tone_region.grid_x(), tone_region.grid_y())

    def run(self, seed, k, tracer):
        cfg = dataclasses.replace(self.cfg, master_seed=op_seed(seed, k))
        out = self.tmp_dir / f"op{k}"
        if tracer is None:
            cold = harness.run_pipeline(cfg, self.psi, STAGES, out)
        else:
            # one call per added stage: earlier stages are cache hits, so each
            # call's span is the time of the stage it adds
            for i, stage in enumerate(STAGES):
                with tracer.span(f"harness.stage.{stage}"):
                    cold = harness.run_pipeline(cfg, self.psi, STAGES[: i + 1], out)
        warm = harness.run_pipeline(cfg, self.psi, STAGES, out)
        if tracer is not None:
            tracer.counts["harness.stage.cached.count"] += len(warm.cached)
        return out, cold, warm, set(STAGES[:-1]) if tracer is not None else set()

    def check(self, result):
        out, cold, warm, cold_cached = result
        try:
            return self._check(cold, warm, cold_cached, out)
        finally:
            shutil.rmtree(out)

    def _check(self, cold, warm, cold_cached, out):
        problems = []
        if cold.cached != cold_cached:
            problems.append(f"cold run found cached stages {sorted(cold.cached)}")
        if warm.cached != set(STAGES):
            problems.append(f"warm re-run cached {len(warm.cached)} of {len(STAGES)} stages")
        art = warm.artifacts
        est = json.loads(Path(art["estimated_psi"]).read_text())
        found = [(p["elevation_deg"], p["azimuth_deg"], p["amplitude"], p["delay_s"]) for p in est["paths"]]
        path_problems, quality = path_check(self.psi, found)
        problems += path_problems

        region = self.cfg.region
        rows = np.loadtxt(art["power_map"], delimiter=",", skiprows=1, ndmin=2)
        ny, nx = region.shape
        xs, ys = np.meshgrid(region.grid_x(), region.grid_y())
        if rows.shape != (nx * ny, 3) or not (np.allclose(rows[:, 0], xs.ravel()) and np.allclose(rows[:, 1], ys.ravel())):
            problems.append("power map does not tile the tone region")
        else:
            measured = rows[:, 2]
            truth = 10.0 * np.log10(self.gain.ravel())
            resid = measured - truth - np.mean(measured - truth)
            corr = float(np.corrcoef(measured, truth)[0, 1])
            quality["map_rms_db"] = float(np.sqrt(np.mean(resid**2)))
            if corr < MAP_CORR_MIN:
                problems.append(f"power map correlation {corr}")

        move = json.loads(Path(art["move_result"]).read_text())
        x, y = move["final_position_m"]
        achieved = float(planted_gain(self.psi, [x], [y])[0, 0])
        quality["mover_gap_db"] = 10.0 * math.log10(float(self.gain.max()) / achieved)
        quality["mover_probes"] = move["measurements_used"]
        if quality["mover_gap_db"] > GAP_TOL_DB:
            problems.append(f"placement gap {quality['mover_gap_db']} dB")
        if move["measurements_used"] > PROBE_FRAC_MAX * region.num_points:
            problems.append(f"{move['measurements_used']} probes")

        quality["disk_mb"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1e6
        records = self.cfg.sounding_region.num_points + region.num_points
        return problems, quality, records


class Placement:
    """One two-stage placement: coarse from the planted paths, then measured refinement."""

    def __init__(self):
        self.psi = presets.hall_psi_27p5ghz()
        self.region = HI_REGION
        self.best_gain = float(planted_gain(self.psi, self.region.grid_x(), self.region.grid_y()).max())
        self.noise = NoiseSpec(NOISE_POWER, BANDWIDTH_HZ)

    def run(self, seed, k, tracer):
        track = mover.SimulatedSlideTrack(
            psi=self.psi,
            region=self.region,
            noise=self.noise,
            f0_hz=TONE_F0_HZ,
            num_samples=TONE_SAMPLES,
            master_seed=op_seed(seed, k),
        )
        res = mover.optimize(self.psi, self.region, track, refine_step_m=REFINE_STEP_M, budget=MOVE_BUDGET)
        return track, res

    def check(self, result):
        track, res = result
        n = res.measurements_used
        p = res.final_position
        gap = 10.0 * math.log10(self.best_gain / float(planted_gain(self.psi, [p.x_m], [p.y_m])[0, 0]))
        problems = []
        if gap > GAP_TOL_DB:
            problems.append(f"placement gap {gap} dB")
        if n > PROBE_FRAC_MAX * self.region.num_points:
            problems.append(f"{n} probes")
        if [kind for kind, _ in track.events] != ["move", "ack", "measure"] * n:
            problems.append("probes broke the move/ack/measure order")
        return problems, {"mover_gap_db": gap, "mover_probes": n}, n


def make_workload(name: str, tiny: bool, tmp_dir: Path):
    if name == "sound-hi":
        step = 2e-3 if tiny else 1e-3
        return Sounding(TEST_NUMEROLOGY, MovementRegion(0.05, 0.05, step, step))
    if name == "sound-paper":
        num = OfdmNumerology.default()
        if tiny:
            num = dataclasses.replace(num, num_symbols=4)
        # 11 x 11 positions at 5 mm, under lambda/2 = 5.45 mm. Smaller
        # apertures miss the one-step angle gate: 6 x 6 and 8 x 8 grids
        # returned 1.0 degree errors on some seeds.
        return Sounding(num, MovementRegion(0.05, 0.05, 5e-3, 5e-3))
    if name == "pipeline-hi":
        # the tone grid keeps the 50-probe budget under 10% of its points
        return Pipeline(square_grid(23 if tiny else 25, 0.5e-3), tmp_dir)
    if name == "placement":
        return Placement()
    raise SystemExit(f"unknown workload {name!r}")


def _improving_probes(trace) -> int:
    best, n = -math.inf, 0
    for i, (_, power) in enumerate(trace):
        if i and power > best:
            n += 1
        best = max(best, power)
    return n


def _mode(a, kw, r=None) -> str:
    return a[2] if len(a) > 2 else kw["mode"]


def install_trace_points(t: Tracer) -> None:
    """Wrap each public function on the module attribute its callers resolve."""
    for owner in (mover, harness):
        t.wrap(owner, "gain_map", "channel.gain_map")
        t.wrap(owner, "add_noise", "signals.add_noise", count=lambda a, kw, r, pre: {"signals.add_noise.samples": len(a[0])})
        t.wrap(owner, "apply_channel", "signals.apply_channel")
    for fn in ("write_iq_record", "read_iq_record"):
        t.wrap(harness, fn, f"signals.{fn}", count=lambda a, kw, r, pre, fn=fn: {f"signals.{fn}.bytes": os.path.getsize(a[0])})

    # a sweep meters a fixed number of records; a placement's probe count varies with its seed
    t.wrap(powermeter, "measure_power", "powermeter.measure_power", count=lambda a, kw, r, pre: {
        "powermeter.measure_power.fft_points": r.fft_size, "powermeter.sweep_measure.fft_points": r.fft_size})
    t.wrap(mover, "measure_power", "powermeter.measure_power",
           count=lambda a, kw, r, pre: {"powermeter.measure_power.fft_points": r.fft_size})
    t.wrap(harness, "sweep_measure", "powermeter.sweep_measure")

    for owner in (estimator, harness):
        t.wrap(owner, "compute_pas", "estimator.compute_pas")
        t.wrap(owner, "estimate_psi", "estimator.estimate_psi",
               count=lambda a, kw, r, pre: {"estimator.estimate_psi.paths": r.num_paths})
        t.wrap(owner, "compute_pds", "estimator.compute_pds")
    t.wrap(estimator, "find_paths", "estimator.find_paths", count=lambda a, kw, r, pre: {"estimator.find_paths.peaks": len(r)})
    t.wrap(estimator, "zf_weights", "estimator.zf_weights")
    t.wrap(estimator, "estimate_delay_amplitude", "estimator.estimate_delay_amplitude")
    t.wrap(estimator, "frequency_response", "estimator.frequency_response")
    # the (Q, N) copy is made only on the first call for a campaign
    t.wrap(estimator.SoundingCampaign, "samples_matrix", "estimator.SoundingCampaign.samples_matrix",
           before=lambda a, kw: a[0]._samples is None,
           count=lambda a, kw, r, pre: {"estimator.SoundingCampaign.samples_matrix.bytes": r.nbytes if pre else 0})
    for cls in (estimator.PasMatrix, estimator.PdsMatrix):
        name = f"estimator.{cls.__name__}.to_csv"
        t.wrap(cls, "to_csv", name, count=lambda a, kw, r, pre, name=name: {f"{name}.bytes": os.path.getsize(a[1])})

    for owner in (mover, harness):
        t.wrap(owner, "optimize", "mover.optimize")
    t.wrap(mover, "coarse_position", "mover.coarse_position")
    t.wrap(mover, "refine", "mover.refine", count=lambda a, kw, r, pre: {
        "mover.refine.probes": len(r.trace), "mover.refine.improving": _improving_probes(r.trace)})
    t.wrap(mover.SimulatedSlideTrack, "measure", "mover.SimulatedSlideTrack.measure")

    t.wrap(harness, "run_pipeline", "harness.run_pipeline")
    t.wrap(harness, "build_sounding_campaign", "harness.build_sounding_campaign")

    def synth_counts(a, kw, r, pre):
        files = list(Path(r).glob("*.maiq"))
        key = f"harness.synthesize_campaign.{_mode(a, kw)}"
        return {f"{key}.records": len(files), f"{key}.bytes": sum(f.stat().st_size for f in files)}

    t.wrap(harness, "synthesize_campaign", "harness.synthesize_campaign", suffix=_mode, count=synth_counts)

    def load_counts(a, kw, r, pre):
        manifest, records = r
        key = f"harness.load_campaign.{manifest.mode}"
        size = sum(os.path.getsize(Path(a[0]) / e.file) for e in manifest.records)
        return {f"{key}.records": len(records), f"{key}.bytes": size}

    t.wrap(harness, "load_campaign", "harness.load_campaign", suffix=lambda a, kw, r: r[0].mode, count=load_counts)
    t.wrap(harness, "measure_campaign", "harness.measure_campaign")


def layer_metrics(tracer: Tracer, ops: int, op_s: list[float]) -> dict[str, float]:
    """Span times as shares of operation time, counts per operation, ratios and trace figures.

    A share is busy (or self) time over the operations' total time, so a
    layer a workload never reaches reads 0 rather than a constant time.
    """
    total_s = sum(op_s)
    out = {}
    for key, value in summarize(tracer.spans).items():
        if key.startswith("bench."):
            continue
        if key.endswith("_s"):
            out[key[: -len("_s")] + "_share"] = value / total_s if total_s else 0.0
        else:
            out[key] = value / ops
    out.update({k: v / ops for k, v in tracer.counts.items()})
    peaks = tracer.counts["estimator.find_paths.peaks"]
    out["estimator.paths_kept_ratio"] = tracer.counts["estimator.estimate_psi.paths"] / peaks if peaks else 0.0
    probes = tracer.counts["mover.refine.probes"]
    out["mover.improving_probe_ratio"] = tracer.counts["mover.refine.improving"] / probes if probes else 0.0
    out["trace.wall_s"] = statistics.mean(op_s) if op_s else 0.0
    out["trace.spans"] = len(tracer.spans) / ops
    return out


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Runs a workload's operations one after another and keeps what they produced."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = self.failed = 0
        self.op_s: list[float] = []
        self.records: list[int] = []
        self.problems: list[str] = []
        self.quality: dict[str, list] = {}

    def op(self, tracer: Tracer | None, timed: bool = True) -> None:
        k = self.attempted
        self.attempted += 1
        try:
            with tracer.span("bench.op") if tracer is not None else nullcontext():
                t0 = time.perf_counter()
                result = self.workload.run(self.seed, k, tracer)
                dt = time.perf_counter() - t0
            bad, quality, records = self.workload.check(result)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"op {k} raised")
            return
        if timed:
            self.op_s.append(dt)
            self.records.append(records)
        for key, value in quality.items():
            self.quality.setdefault(key, []).append(value)
        if bad:
            self.failed += 1
            self.problems.append(f"op {k}: " + "; ".join(bad))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many operations instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work_dir = ROOT / ".perfbench"
    tmp_dir = work_dir / "tmp" / str(os.getpid())
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.tiny, tmp_dir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        free_disk_mb = shutil.disk_usage(ROOT).free / 1e6
        tally = Tally(workload, args.seed)
        if not args.ops:
            # warm-up: lazy set-up and first-touch allocation finish before the
            # window; the operation is gated but not timed
            tally.op(None, timed=False)
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
        if tracer is not None:
            install_trace_points(tracer)
        timed = 0
        deadline = time.perf_counter() + args.seconds
        while timed == 0 or (timed < args.ops if args.ops else time.perf_counter() < deadline):
            tally.op(tracer)
            timed += 1
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "ready": ready,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems[:20],
            "op_s": tally.op_s,
            "records": tally.records,
            "quality": tally.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "free_disk_mb_before": free_disk_mb,
            "blas_threads": blas_threads(),
        }
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = layer_metrics(tracer, timed, tally.op_s)
            spans_dir = work_dir / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            report["spans_file"] = str(spans_file.relative_to(ROOT))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end for campaign synthesis, measurement, and estimation.

Exit codes: 0 on success, 2 for configuration or input problems, 3 when a
pipeline stage or positioning run aborts partway.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel import DbMap, gain_map
from .harness import (
    CampaignManifest,
    ConfigError,
    ScenarioConfig,
    StageError,
    _atomic_write_json,
    _check_carrier,
    compare_maps,
    estimate_campaign,
    load_psi,
    measure_campaign,
    optimize_on_slide_track,
    run_pipeline,
    synthesize_campaign,
)
from .mover import MoveAborted


def _cmd_simulate(args) -> int:
    cfg = ScenarioConfig.load(args.config)
    psi = load_psi(args.psi)
    _check_carrier(cfg, psi)
    gm = gain_map(psi, cfg.region)
    gm.to_csv(args.out)
    peak = gm.argmax_position()
    ny, nx = gm.values_db.shape
    print(f"wrote {args.out}: {ny}x{nx} grid, "
          f"peak {float(gm.values_db.max()):.2f} dB at ({peak.x_m * 1e3:.3f}, {peak.y_m * 1e3:.3f}) mm")
    return 0


def _cmd_sound(args) -> int:
    cfg = ScenarioConfig.load(args.config)
    psi = load_psi(args.psi)
    out = synthesize_campaign(cfg, psi, args.mode, args.out_dir)
    print(f"wrote {CampaignManifest.load(out).region.num_points} {args.mode} positions to {out}")
    return 0


def _cmd_measure(args) -> int:
    pm = measure_campaign(args.campaign)
    pm.to_csv(args.out)
    peak = pm.argmax_position()
    print(f"wrote {args.out}: peak {float(pm.values_db.max()):.2f} dBr at "
          f"({peak.x_m * 1e3:.3f}, {peak.y_m * 1e3:.3f}) mm")
    return 0


def _cmd_estimate(args) -> int:
    est = estimate_campaign(args.campaign, args.out, args.pas, args.pds)
    print(f"wrote {args.out}: {est.num_paths} paths, "
          f"strongest ({est.paths[0].elevation_deg:g}, {est.paths[0].azimuth_deg:g}) deg")
    return 0


def _cmd_optimize(args) -> int:
    cfg = ScenarioConfig.load(args.config)
    psi = load_psi(args.psi)
    est = load_psi(args.est) if args.est is not None else psi
    res = optimize_on_slide_track(cfg, psi, est, budget=args.budget)
    _atomic_write_json(args.out, res.to_json_dict())
    print(f"wrote {args.out}: {res.final_power_dbr:.2f} dBr at "
          f"({res.final_position.x_m * 1e3:.3f}, {res.final_position.y_m * 1e3:.3f}) mm "
          f"after {res.measurements_used} measurements")
    return 0


def _cmd_export(args) -> int:
    cfg = ScenarioConfig.load(args.config)
    psi = load_psi(args.psi)
    stages = {s.strip() for s in args.stages.split(",") if s.strip()}
    stages.add("export")
    res = run_pipeline(cfg, psi, stages, args.out_dir, optimize_budget=args.budget)
    for name in sorted(res.stage_dirs):
        tag = "cached" if name in res.cached else "ran"
        print(f"{name}: {tag} ({res.stage_dirs[name]})")
    print(f"artifacts in {res.artifacts['export_dir']}")
    return 0


def _cmd_compare(args) -> int:
    report = compare_maps(DbMap.read_csv(args.a), DbMap.read_csv(args.b))
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        _atomic_write_json(args.out, report.to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="gain map of a known channel over the fine grid")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--psi", required=True, help="path state JSON")
    p.add_argument("--out", default="gain_map.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sound", help="synthesize a campaign directory of IQ records")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--psi", required=True, help="path state JSON")
    p.add_argument("--mode", choices=("ofdm", "tone"), default="ofdm")
    p.add_argument("--out-dir", default="campaign")
    p.set_defaults(func=_cmd_sound)

    p = sub.add_parser("measure", help="single-bin DFT tone power meter over an existing tone campaign")
    p.add_argument("--campaign", required=True, help="campaign directory")
    p.add_argument("--out", default="power_map.csv")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("estimate", help="estimate path state from a sounding campaign")
    p.add_argument("--campaign", required=True, help="ofdm campaign directory")
    p.add_argument("--out", default="estimated_psi.json")
    p.add_argument("--pas", default=None, help="also write the angular spectrum CSV here")
    p.add_argument("--pds", default=None, help="also write the delay spectrum CSV here")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("optimize", help="two-stage antenna positioning on a simulated slide")
    p.add_argument("--psi", required=True, help="true path state JSON driving the simulated channel")
    p.add_argument("--est", default=None, help="estimated path state for the coarse stage (default: --psi)")
    p.add_argument("--config", required=True, help="scenario config JSON supplying region and noise")
    p.add_argument("--budget", type=int, default=50, help="measurement budget")
    p.add_argument("--out", default="move_result.json")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("export", help="run pipeline stages and collect their artifacts")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--psi", required=True, help="path state JSON")
    p.add_argument("--stages", default="export", help="comma list from sound,estimate,measure,optimize")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--out-dir", default="pipeline")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("compare", help="compare two dB map CSVs point by point")
    p.add_argument("--a", required=True, help="reference map CSV")
    p.add_argument("--b", required=True, help="map CSV to compare against the reference")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StageError, MoveAborted) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark runs of git revisions side by side, with a control copy of the base.

From the repository root:

  python3 scripts/bench_pairs.py --workload sound-paper --rounds 10 --seconds 45 BASE REV [REV ...]

Each revision is exported with `git archive` into its own temporary
directory, and BASE twice: its second copy, the control, differs from it in
nothing but when it runs, so its distance from BASE shows the machine's
noise. Every round runs `perfbench/run.py --trace 0` once in each copy, each
round starting one copy later than the round before. The script then prints,
per end-to-end metric of BASE's BENCHMARK.json, each copy's median and
quartiles and the rounds in which it beat BASE's run of that round (ties
count for neither side), and each copy's failed operations.

A copy's gain holds when it beat BASE in at least nine tenths of the rounds
and its median is better than BASE's by more than the distance between
BASE's quartiles.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Write the files of git revision rev, and nothing else, under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter refuses members that would land outside dest, where this Python has it
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: the JSON result its last output line holds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(results: dict[str, list[dict]], spec: dict) -> list[str]:
    """Per end-to-end metric, each copy's median, quartiles and rounds won against the first copy.

    results maps each copy's label, the base first, to its result lines in
    round order; a round's runs are compared with each other only.
    """
    labels = list(results)
    base = results[labels[0]]
    rounds = len(base)
    width = max(len(label) for label in labels)
    lines = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better), {rounds} rounds")
        base_values = [r["metrics"][name]["value"] for r in base]
        b_q1, b_med, b_q3 = quartiles(base_values)
        for label in labels:
            values = [r["metrics"][name]["value"] for r in results[label]]
            q1, med, q3 = quartiles(values)
            line = f"  {label:<{width}}  median {med:.6g}  quartiles {q1:.6g}-{q3:.6g}"
            if label != labels[0]:
                wins = sum((v < b) if lower else (v > b) for v, b in zip(values, base_values))
                gain = (b_med - med) if lower else (med - b_med)
                holds = wins >= 0.9 * rounds and gain > b_q3 - b_q1
                line += f"  beat the base in {wins}/{rounds}  gain {'holds' if holds else 'not shown'}"
            lines.append(line)
    lines.append("failed operations")
    for label in labels:
        failed = sum(r["failed"] for r in results[label])
        attempted = sum(r["attempted"] for r in results[label])
        lines.append(f"  {label:<{width}}  {failed} of {attempted}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("revs", nargs="+", metavar="REV", help="the base revision first, then those compared with it")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    base, *others = args.revs
    labels = [f"{base} (base)", f"{base} (control)"] + [f"{rev} ({i})" for i, rev in enumerate(others, 1)]
    revs = [base, base, *others]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = [Path(tmp) / str(i) for i in range(len(revs))]
        for rev, tree in zip(revs, trees):
            export(rev, tree)
        spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
        results: dict[str, list[dict]] = {label: [] for label in labels}
        for r in range(args.rounds):
            order = [(i + r) % len(trees) for i in range(len(trees))]
            for i in order:
                results[labels[i]].append(run_once(trees[i], args.workload, args.seed, args.seconds))
                value = results[labels[i]][-1]["metrics"][spec["end_to_end"][0]["name"]]["value"]
                print(f"round {r + 1}: {labels[i]} {spec['end_to_end'][0]['name']} {value:.6g}", flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s per run")
    print("\n".join(summarize(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""scripts/bench_pairs.py: its summary of alternating benchmark rounds, on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
                       {"name": "positions_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}]}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_line(wall_s, failed=0, attempted=100):
    """The last line perfbench/run.py prints for one untraced run."""
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"}, "positions_per_s": {"value": 121.0 / wall_s, "unit": "1/s"}}})


def results(walls_by_label):
    return {label: [json.loads(report_line(w)) for w in walls] for label, walls in walls_by_label.items()}


def test_quartiles_are_inclusive(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_clear_gain(bench_pairs):
    # the change beats the base in 9 of 10 rounds, by 0.02 s in the median against a base
    # quartile spread of 0.0035 s; the control beats it in 3 rounds
    base = [0.100, 0.102, 0.098, 0.101, 0.099, 0.103, 0.097, 0.100, 0.104, 0.096]
    control = [0.101, 0.100, 0.099, 0.102, 0.098, 0.103, 0.099, 0.101, 0.103, 0.097]
    change = [0.080, 0.081, 0.079, 0.082, 0.078, 0.083, 0.077, 0.080, 0.105, 0.079]
    lines = bench_pairs.summarize(results({"a (base)": base, "a (control)": control, "b (1)": change}), SPEC)
    assert lines[0] == "wall_s (s, lower is better), 10 rounds"
    assert lines[1] == "  a (base)     median 0.1  quartiles 0.09825-0.10175"
    assert lines[2] == "  a (control)  median 0.1005  quartiles 0.099-0.10175  beat the base in 3/10  gain not shown"
    assert lines[3] == "  b (1)        median 0.08  quartiles 0.079-0.08175  beat the base in 9/10  gain holds"
    assert lines[4] == "positions_per_s (1/s, higher is better), 10 rounds"
    assert lines[7].endswith("beat the base in 9/10  gain holds")
    assert lines[8:] == ["failed operations", "  a (base)     0 of 1000", "  a (control)  0 of 1000",
                         "  b (1)        0 of 1000"]


def test_eight_wins_or_a_gap_inside_the_spread_show_no_gain(bench_pairs):
    base = [0.100, 0.110, 0.090, 0.105, 0.095, 0.100, 0.110, 0.090, 0.105, 0.095]
    eight = [0.050] * 8 + [0.200, 0.200]  # a large median gain, in 8 rounds of 10
    close = [b - 0.001 for b in base]  # every round, by less than the base's quartile spread
    lines = bench_pairs.summarize(results({"a": base, "eight": eight, "close": close}), SPEC)
    assert lines[2].endswith("beat the base in 8/10  gain not shown")
    assert lines[3].endswith("beat the base in 10/10  gain not shown")


def test_failed_operations_are_summed(bench_pairs):
    res = {"a": [json.loads(report_line(0.1, failed=f, attempted=50)) for f in (0, 2, 1)],
           "b": [json.loads(report_line(0.1)) for _ in range(3)]}
    lines = bench_pairs.summarize(res, SPEC)
    assert lines[-3:] == ["failed operations", "  a  3 of 150", "  b  0 of 300"]

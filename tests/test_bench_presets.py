"""scripts/bench_presets.py: the preset stage table it writes, on its --tiny grids."""

import json
import subprocess
import sys
from pathlib import Path

from masim.signals import row_blocks

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_presets.py"


def test_tiny_run_writes_every_stage_of_both_presets(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--tiny", "--out", str(out)], capture_output=True, check=True)
    report = json.loads(out.read_text())
    assert {"description", "command", "machine", "noise_power", "preset_stages"} <= set(report)
    assert report["noise_power"] == 0.01
    presets = report["preset_stages"]
    assert list(presets) == ["scenario_27p5ghz", "scenario_3p5ghz"]
    for preset in presets.values():
        assert preset["numerology"]["num_subcarriers"] == 832
        assert list(preset["stages"]) == ["sound", "estimate", "measure", "optimize"]
        for stage in preset["stages"].values():
            assert set(stage) == {"wall_s", "peak_rss_mb", "bytes", "files", "cached"}
            assert stage["wall_s"] > 0.0 and stage["peak_rss_mb"] > 0.0
            assert stage["bytes"] > 0 and stage["files"] >= 2  # the stage's output and its .complete marker
        # each stage ran in its own process over the stages before it, which it found cached
        cached = {name: stage["cached"] for name, stage in preset["stages"].items()}
        assert cached == {"sound": [], "estimate": ["sound"], "measure": [], "optimize": ["estimate", "sound"]}
        # a record file per row block of 832 + 128 statistics, the manifest and the marker
        assert preset["stages"]["sound"]["files"] == len(row_blocks(preset["sounding_positions"], 960)) + 2

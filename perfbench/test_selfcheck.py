"""The benchmark's own test: every workload once at a tiny size, through its gate and traced."""

import subprocess
import sys
from pathlib import Path


def test_self_check():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--self-check"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout

"""The experiment scripts in ``scripts/`` run end to end at tiny sizes and
print their summary lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import handkit

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("fit_recovery.py", ["--runs", "2", "--iterations", "20"],
     "improved in 2/2 runs; mean PA-MPJPE"),
    ("train_ik_net.py", ["--pairs", "64", "--holdout", "32", "--epochs", "1"],
     "trained held-out joint error:"),
    ("profile_architectures.py", ["--resolution", "64"],
     "decoder blocks @ 256 channels, 8x8 input"),
])
def test_script_runs(script, args, summary):
    env = dict(os.environ,
               PYTHONPATH=str(Path(handkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout, proc.stdout

"""The experiment scripts in ``scripts/`` run end to end at tiny sizes and
print their summary lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import handkit

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ,
               PYTHONPATH=str(Path(handkit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script, args, summary", [
    ("pipeline.py", ["recover", "--runs", "2", "--iterations", "20"],
     "improved in 2/2 runs; mean PA-MPJPE"),
    ("pipeline.py", ["train", "--pairs", "64", "--holdout", "32", "--epochs", "1"],
     "trained held-out joint error:"),
    ("profile_architectures.py", ["--resolution", "64"],
     "decoder blocks @ 256 channels, 8x8 input"),
])
def test_script_runs(script, args, summary):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout, proc.stdout


@pytest.mark.parametrize("args", [
    ["recover", "--seed", "-1"],
    ["recover", "--runs", "0"],
    ["recover", "--iterations", "2.5"],
    ["train", "--seed", "-1"],
    ["train", "--seed", "1.5"],
    ["train", "--holdout", "0"],
], ids=" ".join)
def test_pipeline_bad_count_or_seed_is_a_usage_error(args):
    proc = _run("pipeline.py", *args)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "error:" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_fk_parity_of_a_checkout_with_itself_is_exact():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "fk_parity.py"),
                           "--parent", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "worst output difference: 0 mm\n" in proc.stdout, proc.stdout
    assert "worst relative gradient difference: 0\n" in proc.stdout, proc.stdout
    assert "worst relative loss-layer value difference: 0\n" in proc.stdout, proc.stdout
    assert "worst relative loss-layer gradient difference: 0\n" in proc.stdout, proc.stdout


def test_fk_parity_times_a_checkout_against_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "fk_parity.py"),
                           "--parent", str(ROOT / "src"), "--time", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row[:24].strip() for row in rows] == [
        "B1 vertices grad", "B32 regressed grad", "B256 vertices", "B1024 joints",
        "B1 fit iteration", "B1 fit (20 iterations)", "B32 net step", "score group",
        "decode (8, 21, 3, 64)", "decode 504 x (64,)", "encode 504 coords"], proc.stdout
    for row in rows:   # this side, the other side, their ratio
        mine, theirs, ratio = map(float, row.split()[-3:])
        assert mine > 0 and theirs > 0 and ratio > 0, row

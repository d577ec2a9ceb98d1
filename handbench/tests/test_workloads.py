import numpy as np
import pytest

import workloads
from clock import Clock, ReferenceKernel


def _tiny(tmp_path):
    return [workloads.SynthMesh(tmp_path, per_pose=1, chunk=8, base=16),
            workloads.Refine(tmp_path, pool=4),
            workloads.Train(tmp_path, pairs=64, held=32, slice_size=64),
            workloads.Score(tmp_path, pool=4, group=2)]


def _bytes(wl, seed):
    return {k: np.ascontiguousarray(v).tobytes()
            for k, v in wl.inputs(wl.setup(seed)).items()}


@pytest.mark.parametrize("index", range(4))
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, index):
    wl = _tiny(tmp_path)[index]
    first, again, other = _bytes(wl, 11), _bytes(wl, 11), _bytes(wl, 12)
    assert first == again
    assert all(first[k] != other[k] for k in first)


@pytest.mark.parametrize("index", [0, 1, 3])
def test_tiny_run_passes_its_checks(tmp_path, index):
    wl = _tiny(tmp_path)[index]
    state = wl.setup(5)
    wl.prepare(state)
    log = workloads.measure(wl, state, 0.0)
    checks, figures, _ = wl.check(state, log)
    assert log.failed == 0 and log.items > 0
    assert all(checks.values()), checks


def test_attempt_counts_a_raised_error_as_failure():
    log = workloads.Log(Clock(ReferenceKernel(("loops",))))

    def boom():
        raise ValueError("behind the camera")

    assert log.attempt(boom) is None
    assert log.attempt(lambda: 4) == 4
    assert (log.attempted, log.failed) == (2, 1)

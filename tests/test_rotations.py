"""Guards for ``rotations.rodrigues_with_jacobian``: its derivative against
central differences across the small-angle series switches (``ANGLE_EPS``,
``DERIV_EPS``) and near pi, for scalar and batched leading shapes, and its
rotation against ``rodrigues`` bit for bit."""

import numpy as np
import pytest

from handkit.rotations import ANGLE_EPS, DERIV_EPS, rodrigues, rodrigues_with_jacobian

# both sides of each series switch, then the direct formulas up to near pi
ANGLES = (0.0, 1e-9, 0.5 * ANGLE_EPS, 2.0 * ANGLE_EPS, 0.5 * DERIV_EPS, 0.99 * DERIV_EPS,
          1.01 * DERIV_EPS, 2.0 * DERIV_EPS, 1e-3, 1.0, 3.1)
SHAPES = ((), (4,), (2, 16))


def _vectors(angle, shape, seed=0):
    """Axis-angle vectors of the given magnitude along random axes."""
    axes = np.random.default_rng(seed).normal(size=shape + (3,))
    return angle * axes / np.linalg.norm(axes, axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("angle", ANGLES)
def test_jacobian_matches_central_differences(angle, shape):
    w = _vectors(angle, shape)
    _, dR = rodrigues_with_jacobian(w)
    assert dR.shape == shape + (3, 3, 3)
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        fd = (rodrigues(w + step) - rodrigues(w - step)) / (2 * h)
        np.testing.assert_allclose(dR[..., i, :, :], fd, rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("angle", ANGLES)
def test_rotation_equals_rodrigues_and_is_proper(angle, shape):
    w = _vectors(angle, shape, seed=1)
    R, _ = rodrigues_with_jacobian(w)
    assert R.tobytes() == rodrigues(w).tobytes()
    eye = np.broadcast_to(np.eye(3), R.shape)
    np.testing.assert_allclose(R @ R.swapaxes(-1, -2), eye, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-14)

"""Guards for ``rotations.rodrigues_with_jacobian``: its derivative against
central differences across the small-angle series switches (``ANGLE_EPS``,
``DERIV_EPS``) and near pi, for scalar and batched leading shapes, its
rotation against ``rodrigues`` bit for bit, and both against coefficients
that choose every series row with ``np.where``."""

import numpy as np
import pytest

from handkit import rotations
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


def _where_coefficients(t2, with_derivatives):
    """``rotations._coefficients`` with each series row chosen per angle by
    ``np.where``, whatever the batch holds."""
    theta = np.sqrt(t2)
    small = theta < ANGLE_EPS
    t = np.where(small, 1.0, theta)
    tt = t * t
    half_sin, half_cos = np.sin(0.5 * theta), np.cos(0.5 * theta)
    sin = 2.0 * half_sin * half_cos
    one_minus_cos = 2.0 * half_sin * half_sin
    out = np.empty((5 if with_derivatives else 3, len(t2)))
    out[0] = cos = 1.0 - one_minus_cos
    out[1] = np.where(small, 1.0 - t2 / 6.0, sin / t)
    out[2] = np.where(small, 0.5 - t2 / 24.0, one_minus_cos / tt)
    if with_derivatives:
        small = theta < DERIV_EPS
        out[3] = np.where(small, -1.0 / 3.0 + t2 / 30.0, (t * cos - sin) / (tt * t))
        out[4] = np.where(small, -1.0 / 12.0 + t2 / 180.0,
                          (t * sin - 2.0 * one_minus_cos) / (tt * tt))
    return out


@pytest.mark.parametrize("angles", [
    ANGLES, [a for a in ANGLES if a > ANGLE_EPS], [a for a in ANGLES if a > DERIV_EPS]],
    ids=["every-angle", "above-ANGLE_EPS", "above-DERIV_EPS"])
def test_coefficients_match_the_where_form_bit_for_bit(angles, monkeypatch):
    # one batch, so the series rows are patched in (or not) for all of it
    w = np.concatenate([_vectors(angle, (4,), seed) for seed, angle in enumerate(angles)])
    got = (rodrigues(w), *rodrigues_with_jacobian(w))
    monkeypatch.setattr(rotations, "_coefficients", _where_coefficients)
    want = (rodrigues(w), *rodrigues_with_jacobian(w))
    for mine, theirs in zip(got, want):
        assert mine.tobytes() == theirs.tobytes()

"""Axis-angle rotation helpers (Rodrigues' formula) with analytic derivatives.

All functions are vectorized over arbitrary leading batch axes: an input of
shape (..., 3) yields matrices of shape (..., 3, 3).

Rotation matrices are R = cos(t) I + a(t) W + b(t) w w^T with W = hat(w)
(W v = w x v), t = |w|, a = sin(t)/t and b = (1 - cos(t))/t^2: the closed
form of I + a W + b W^2, since W^2 = w w^T - t^2 I.  Below ANGLE_EPS the a/b
coefficients (and below DERIV_EPS their derivatives) switch to second-order
series so the t -> 0 limit is exact instead of 0/0.

The work runs on coordinate planes: the N vectors become a (3, N) array, so
every elementwise step runs over N contiguous values.  One sine and one
cosine of t/2 give sin t, cos t and 1 - cos t = 2 sin^2(t/2) (which loses no
digits at small t) for every coefficient, and the parts linear in w
(cos t I + a W, and the derivatives' constant-tensor terms) are one product
with a constant table whose entries each select exactly one term, so they
are exact.
"""

from __future__ import annotations

import numpy as np

ANGLE_EPS = 1e-8
# Series for the derivative coefficients lose fewer digits than the direct
# quotients well before ANGLE_EPS, so they switch earlier.
DERIV_EPS = 1e-4

# d/dw_i of hat(w) is hat(e_i), a constant; _E[i] = hat(e_i).
_E = np.zeros((3, 3, 3))
for _i, (_x, _y) in enumerate(((1, 2), (2, 0), (0, 1))):
    _E[_i, _x, _y], _E[_i, _y, _x] = -1.0, 1.0
# _LINEAR @ [s, v] = s I + hat(v) as 9 planes
_LINEAR = np.concatenate([np.eye(3).reshape(1, 9), _E.reshape(3, 9)]).T.copy()
# _DERIV_LINEAR @ [a, b w] = a E_i + b (e_i w^T + w e_i^T) as 27 planes (i, x, y)
_DERIV_LINEAR = np.concatenate([_E.reshape(1, 27), (
    np.einsum("kx,iy->kixy", np.eye(3), np.eye(3))
    + np.einsum("ix,ky->kixy", np.eye(3), np.eye(3))).reshape(3, 27)]).T.copy()
# the 9 planes of w w^T are products of coordinate planes _ROW and _COLUMN
_ROW, _COLUMN = np.divmod(np.arange(9), 3)
for _table in (_E, _LINEAR, _DERIV_LINEAR):
    _table.flags.writeable = False


def _planes(w: np.ndarray):
    """The (3, N) coordinate planes of float vectors w (..., 3), their (9, N)
    outer-product planes w w^T, and theta^2."""
    v = np.asarray(w, dtype=float).reshape(-1, 3).T.copy()
    outer = v[_ROW] * v[_COLUMN]
    return v, outer, outer[0] + outer[4] + outer[8]


def _coefficients(t2: np.ndarray, with_derivatives: bool) -> np.ndarray:
    """Rows cos t, a, b (then a'(t)/t and b'(t)/t) from theta^2 (N,).  The
    series rows are patched in only when some angle is below its switch."""
    theta = np.sqrt(t2)
    near_zero = (theta < (DERIV_EPS if with_derivatives else ANGLE_EPS)).any()
    t = np.where(theta < ANGLE_EPS, 1.0, theta) if near_zero else theta
    tt = t * t
    # from the half angle: 1 - cos t = 2 sin^2(t/2) loses no digits at small t
    half_sin, half_cos = np.sin(0.5 * theta), np.cos(0.5 * theta)
    sin = 2.0 * half_sin * half_cos
    one_minus_cos = 2.0 * half_sin * half_sin
    out = np.empty((5 if with_derivatives else 3, len(t2)))
    out[0] = cos = 1.0 - one_minus_cos
    out[1] = sin / t
    out[2] = one_minus_cos / tt
    if with_derivatives:
        out[3] = (t * cos - sin) / (tt * t)
        out[4] = (t * sin - 2.0 * one_minus_cos) / (tt * tt)
    if near_zero:   # the series rows, below each one's switch
        series = (1.0 - t2 / 6.0, 0.5 - t2 / 24.0, -1.0 / 3.0 + t2 / 30.0,
                  -1.0 / 12.0 + t2 / 180.0)
        for row, value, eps in zip(out[1:], series,
                                   (ANGLE_EPS, ANGLE_EPS, DERIV_EPS, DERIV_EPS)):
            np.copyto(row, value, where=theta < eps)
    return out


def _linear(table: np.ndarray, s: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``table @ [s, c v]``: planes linear in the scalar s and in v."""
    stacked = np.empty((4, v.shape[1]))
    stacked[0] = s
    np.multiply(c, v, out=stacked[1:])
    return table @ stacked


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for axis-angle vector(s) w of shape (..., 3)."""
    v, outer, t2 = _planes(w)
    cos, a, b = _coefficients(t2, False)
    R = _linear(_LINEAR, cos, a, v)
    R += b * outer
    return np.ascontiguousarray(R.T).reshape(np.shape(w)[:-1] + (3, 3))


def rodrigues_with_jacobian(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices and their derivatives w.r.t. the axis-angle vector.

    Returns (R, dR) with R of shape (..., 3, 3) and dR of shape
    (..., 3, 3, 3), where dR[..., i, :, :] = dR/dw_i
        = w_i (-a I + a'/t W + b'/t w w^T) + a E_i + b (e_i w^T + w e_i^T)
    with E_i = hat(e_i) and a', b' the derivatives of a, b in t.
    """
    v, outer, t2 = _planes(w)
    cos, a, b, a_prime, b_prime = _coefficients(t2, True)
    R = _linear(_LINEAR, cos, a, v)
    R += b * outer
    common = _linear(_LINEAR, -a, a_prime, v)
    common += b_prime * outer
    dR = _linear(_DERIV_LINEAR, a, b, v)
    dR.reshape(3, 9, -1)[...] += v[:, None] * common
    lead = np.shape(w)[:-1]
    return np.ascontiguousarray(R.T).reshape(lead + (3, 3)), dR.T.reshape(lead + (3, 3, 3))

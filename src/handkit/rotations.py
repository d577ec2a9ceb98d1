"""Axis-angle rotation helpers (Rodrigues' formula) with analytic derivatives.

All functions are vectorized over arbitrary leading batch axes: an input of
shape (..., 3) yields matrices of shape (..., 3, 3).

Rotation matrices follow R = I + a(t) * W + b(t) * W^2 with W = hat(w),
t = |w|, a = sin(t)/t, b = (1 - cos(t))/t^2.  Below ANGLE_EPS the a/b
coefficients (and their derivatives) switch to second-order series so the
t -> 0 limit is exact instead of 0/0.
"""

from __future__ import annotations

import numpy as np

ANGLE_EPS = 1e-8
# Series for the derivative coefficients lose fewer digits than the direct
# quotients well before ANGLE_EPS, so they switch earlier.
DERIV_EPS = 1e-4


def hat(w: np.ndarray) -> np.ndarray:
    """Cross-product matrix: hat(w) @ v == cross(w, v)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def _ab(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a = sin(t)/t and b = (1-cos(t))/t^2 with small-angle series."""
    small = theta < ANGLE_EPS
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta * theta / 6.0, np.sin(t) / t)
    b = np.where(small, 0.5 - theta * theta / 24.0, (1.0 - np.cos(t)) / (t * t))
    return a, b


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrix for axis-angle vector(s) w of shape (..., 3)."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    a, b = _ab(theta)
    W = hat(w)
    W2 = W @ W
    eye = np.broadcast_to(np.eye(3), W.shape)
    return eye + a[..., None, None] * W + b[..., None, None] * W2


def _ab_prime_over_t(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a'(t)/t and b'(t)/t, finite at t = 0 (limits -1/3 and -1/12)."""
    small = theta < DERIV_EPS
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    ap = np.where(small, -1.0 / 3.0 + t2 / 30.0,
                  (t * np.cos(t) - np.sin(t)) / (t ** 3))
    bp = np.where(small, -1.0 / 12.0 + t2 / 180.0,
                  (t * np.sin(t) - 2.0 * (1.0 - np.cos(t))) / (t ** 4))
    return ap, bp


# d/dw_i of hat(w) is hat(e_i), a constant; _E[i] = hat(e_i).
_E = hat(np.eye(3))  # (3, 3, 3)
# W^2's product-rule term E_i W + W E_i is sum_k w_k (E_i E_k + E_k E_i);
# each entry has one nonzero k, so w @ _EE is exact.
_EE = (_E[None] @ _E[:, None] + _E[:, None] @ _E[None]).reshape(3, 27)
_E.flags.writeable = _EE.flags.writeable = False


def rodrigues_with_jacobian(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices and their derivatives w.r.t. the axis-angle vector.

    Returns (R, dR) with R of shape (..., 3, 3) and dR of shape
    (..., 3, 3, 3), where dR[..., i, :, :] = dR/dw_i.
    """
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)
    a, b = _ab(theta)
    ap_t, bp_t = _ab_prime_over_t(theta)

    W = hat(w)
    W2 = W @ W
    eye = np.broadcast_to(np.eye(3), W.shape)
    R = eye + a[..., None, None] * W + b[..., None, None] * W2

    # da/dw_i = (a'/t) * w_i, same for b.
    da = ap_t[..., None] * w  # (..., 3)
    db = bp_t[..., None] * w
    EW_WE = (w @ _EE).reshape(W.shape[:-2] + (3, 3, 3))

    dR = (
        da[..., :, None, None] * W[..., None, :, :]
        + a[..., None, None, None] * _E
        + db[..., :, None, None] * W2[..., None, :, :]
        + b[..., None, None, None] * EW_WE
    )
    return R, dR

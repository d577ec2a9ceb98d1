"""Optimization-based pose/shape refinement against target joints and mesh
vertices, with an opposing-bend penalty on the four fingers.

The loss is a robust per-coordinate distance (smooth-L1 with a 1 mm knee)
averaged over points, plus a hinge penalty on the bend-direction invariant:
for each finger the two cross products (tip-dip x dip-pip) and
(dip-pip x pip-mcp) must not oppose each other.  The penalty is max(0, -s)
on their dot product s, so feasible bends contribute exactly zero.

The one loss, ``batch_fit_loss``, gives per-sample losses and the gradient
of their sum; ``fit`` and ``ik_net`` (its L1 joint term) call it.  ``fit``
solves a batch of targets with in-place Adam steps (``adam_step``, shared
with ``ik_net``) and one cosine step-size decay, clamps the 23 feasible
angles to their limits on entry and after every update, and returns each sample's
best-loss iterate.  It always runs its full iteration budget (there is no
early stop).  Gradients are fully analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bio_dof, kinematics as kin
from .errors import InputError, NumericError, ShapeError, as_array, as_number, batch_row
from .hand_model import HandModel, ShapeParams

HUBER_DELTA_MM = 1.0
FINAL_STEP_SCALE = 0.02   # cosine decay floor, fraction of the step size
PARAM_COUNT = bio_dof.DOF_COUNT + 10 + 6  # 23 angles + 10 shape + rot/trans
# The largest accepted |initial shape coefficient| and bend weight w.  The
# bend penalty grows as the fourth power of the hand's size, and so do its
# gradients w.r.t. the rotations (a rotation moves a joint by its distance
# from the axis); Adam squares every gradient.  A hand's shape basis moves a
# joint by at most ~1e2 mm per unit (the desk hand's by 9.6 mm), so with ten
# coefficients of at most 1e4 every bone stays below ~1e7 mm.  The penalty
# and its gradients then stay below ~1e3 w 1e28 (a few bones and lever arms
# summed), and their squares finite for w up to ~1e120; 1e100 leaves a factor
# of over 1e40 in the squares.  Both are far above any fit's use (|beta| <= 5 is
# the plausible range, and w defaults to 1e-2).
# A fit then moves the coefficients: an Adam step moves a parameter by at most
# (1 - beta1) / sqrt(1 - beta2) ~ 3.2 times the step size, so after at most
# 1e3 iterations of a step size of at most 1e2, |beta| stays below ~3.3e5 and
# every bone below ~3.3e8 mm.  The bend gradients (fourth power of the size)
# then stay below ~1e137 and their squares finite, with a factor of over 1e30
# to spare.  The default fit takes 20 steps of 0.05.
MAX_INIT_BETA = 1e4
MAX_BEND_WEIGHT = 1e100
MAX_STEP_SIZE = 1e2
MAX_ITERATIONS = 1000


@dataclass
class FitTarget:
    """Joints (21, 3) and/or vertices (V, 3) to fit, in mm, or (B, ...)
    batches; each array given adds its loss term."""

    joints: np.ndarray | None = None
    vertices: np.ndarray | None = None

    def __post_init__(self):
        if self.joints is not None:
            self.joints = as_array(self.joints, (..., kin.JOINT_COUNT, 3), "target joints")
        if self.vertices is not None:
            self.vertices = as_array(self.vertices, (..., None, 3), "target vertices")
        if self.joints is None and self.vertices is None:
            raise InputError("target needs joints or vertices")
        leads = {a.shape[:-2] for a in (self.joints, self.vertices) if a is not None}
        if len(leads) > 1 or any(len(lead) > 1 for lead in leads):
            raise ShapeError("target arrays need one shared batch axis or none")


@dataclass
class FitConfig:
    iterations: int = 20
    step_size: float = 0.05
    bend_weight: float = 1e-2
    freeze_shape: bool = False

    def __post_init__(self):
        self.iterations = as_number(self.iterations, "iterations", 1, MAX_ITERATIONS,
                                    integer=True)
        self.step_size = as_number(self.step_size, "step_size", high=MAX_STEP_SIZE, above=0)
        self.bend_weight = as_number(self.bend_weight, "bend_weight", 0, MAX_BEND_WEIGHT)


@dataclass
class FitResult:
    bio: bio_dof.BioPose
    beta: ShapeParams
    global_rot: np.ndarray
    translation: np.ndarray
    loss_trace: list[float]   # one loss per iteration


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _robust(residual: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate penalty and its derivative: "l1", else Huber."""
    if kind == "l1":
        return np.abs(residual), np.sign(residual)
    # m (|r| - m/2) with m = min(|r|, delta): r^2 / 2 inside delta, linear
    # outside, and no r^2 (which overflows for |r| > ~1e154) on either branch
    absr = np.abs(residual)
    m = np.minimum(absr, HUBER_DELTA_MM)
    clipped = np.maximum(residual, -HUBER_DELTA_MM)   # np.clip's result, without its wrapper
    return m * (absr - 0.5 * m), np.minimum(clipped, HUBER_DELTA_MM, out=clipped)


_BEND_FINGERS = (1, 2, 3, 4)  # index, middle, ring, little
#: (finger, part) -> joint index: MCP, PIP, DIP, TIP of each bend finger
_BEND_CHAINS = np.array([[kin.finger_joint(fi, p) for p in range(4)]
                         for fi in _BEND_FINGERS])
# The bend fingers' bones b1, b2, b3 (PIP - MCP, DIP - PIP, TIP - DIP) as a
# (12, 21) map of the joints; each row holds one +1 and one -1, so the product
# is np.diff's.  A finger's joint adjoints are _BEND_JOINTS.T times its bones'.
_BEND_JOINTS = np.diff(np.eye(4), axis=0)                    # (3, 4)
_BEND_BONES = np.concatenate([_BEND_JOINTS @ np.eye(kin.JOINT_COUNT)[chain]
                              for chain in _BEND_CHAINS])
# Indices into the flat (4 fingers x 9) bones of the operands of u = b3 x b2
# and v = b2 x b1 as np.cross forms them, a_y b_z - a_z b_y per component
# (y, z the next two, cyclically): a_y, b_z, a_z, b_y, each (4, 2, 3).
_A, _B = np.array([2, 1]), np.array([1, 0])
_Y, _Z = np.array([1, 2, 0]), np.array([2, 0, 1])
_BEND_CROSS = (9 * np.arange(len(_BEND_FINGERS))[:, None, None]
               + 3 * np.array([_A, _B, _A, _B])[:, None, :, None]
               + np.array([_Y, _Z, _Z, _Y])[:, None, None])
# ds/db1 = u x b2, ds/db2 = v x b3 - u x b1 and ds/db3 = -(v x b2) are bilinear
# in (u, v) and the bones, so d(-s)/d(joints) = -_BEND_JOINTS.T ds/d(bones) is
# one constant (54, 12) map of each finger's outer product uv[a, j] bones[m, k]
# to its 4 joints' gradients; _BEND_SCATTER places those 16 rows among the 21.
_LEVI = np.cross(np.eye(3)[:, None], np.eye(3))   # (p x q)_i = sum _LEVI[j, k, i] p_j q_k
_DS_DBONES = np.zeros((2, 3, 3, 3, 3, 3))   # [u or v, j, bone m, k, bone n, i] of ds/db_n
for _a, _m, _n, _w in ((0, 1, 0, 1), (1, 2, 1, 1), (0, 0, 1, -1), (1, 1, 2, -1)):
    _DS_DBONES[_a, :, _m, :, _n] = _w * _LEVI
_BEND_GRAD = -np.einsum("ajmkni,np->ajmkpi", _DS_DBONES, _BEND_JOINTS).reshape(54, 12)
_BEND_SCATTER = np.eye(kin.JOINT_COUNT)[:, _BEND_CHAINS.ravel()]  # (21, 16)


def bend_penalty_with_grad(joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Opposing-bend hinge penalty of (..., 21, 3) skeletons: one penalty per
    skeleton (shape ``...``) and its (..., 21, 3) gradient w.r.t. the joints.

    For each non-thumb finger, s = (b_tip x b_mid) . (b_mid x b_prox) with
    bone vectors pointing tip-ward; same-direction planar bends give s >= 0
    and contribute nothing.  Rigid motions leave s unchanged and uniform
    scaling preserves its sign (magnitude scales as scale^4).

    s and its gradient both come from the cross products u = b_tip x b_mid
    and v = b_mid x b_prox, which keep their digits when a finger is nearly
    straight; the Gram-matrix (Binet-Cauchy) forms of either lose them to
    cancellation there.
    """
    return _bend_penalty(as_array(joints, (..., kin.JOINT_COUNT, 3), "joints"))


def _bend_penalty(joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bend_penalty_with_grad`` of a float array it would accept."""
    lead, fingers = joints.shape[:-2], len(_BEND_FINGERS)
    bones = (_BEND_BONES @ joints).reshape(-1, fingers, 3, 3)
    short = ((bones * bones).sum(axis=-1) < 1e-18).any(axis=-1)   # |b| < 1e-9
    if short.any():
        row, finger = np.unravel_index(np.argmax(short), short.shape)
        index = tuple(map(int, np.unravel_index(row, lead)))
        raise NumericError(f"{batch_row(index)}zero-length bone on "
                           f"{kin.FINGERS[_BEND_FINGERS[finger]]} finger")
    ay, bz, az, by = bones.reshape(len(bones), -1)[:, _BEND_CROSS].transpose(1, 0, 2, 3, 4)
    uv = ay * bz - az * by                                   # (n, 4, 2, 3): u, v
    s = (uv[..., 0, :] * uv[..., 1, :]).sum(axis=-1)         # (n, 4)
    outer = ((uv * (s < 0.0)[..., None, None]).reshape(-1, fingers, 6, 1)
             * bones.reshape(-1, fingers, 1, 9))
    grad = _BEND_SCATTER @ (outer.reshape(-1, fingers, 54) @ _BEND_GRAD).reshape(
        -1, 4 * fingers, 3)
    return np.maximum(-s, 0.0).sum(axis=-1).reshape(lead)[()], grad.reshape(joints.shape)


def batch_fit_loss(model: HandModel, bio, beta, global_rot, translation, joints,
                   vertices, bend_weight: float, loss_kind: str, want_grad: bool):
    """(B,) per-sample losses of (B, 23) angles, (B, 10) shape, (B, 3)
    rotations and translations (None is zeros) against (B, 21, 3) joints and
    (B, V, 3) vertices (None drops a term), plus the bend penalty; with
    ``want_grad`` also the four (B, n) gradients of their sum, else None.
    Angles expand through ``model.tensors.axes``; ``loss_kind`` is "huber" or "l1"."""
    axes = model.tensors.axes
    art = bio_dof.expand_batch(bio, axes)
    out = kin.fk_forward(model, art, beta, global_rot, translation,
                         want_vertices=vertices is not None, want_regressed=True,
                         need_grad=want_grad)
    regressed = out.regressed_joints

    # per-sample means as sums over (n, 3) over their size: .mean's bits without
    # its wrapper; the first term starts each sum
    loss = d_joints = d_vertices = None
    if joints is not None:
        residual = regressed - joints
        pen, der = _robust(residual, loss_kind)
        loss = pen.sum(axis=(-2, -1)) / residual[0].size
        d_joints = der / residual[0].size
    if vertices is not None:
        if vertices.shape != out.vertices.shape:
            raise ShapeError("target vertex count does not match the model")
        residual = out.vertices - vertices
        pen, der = _robust(residual, loss_kind)
        loss = _plus(loss, pen.sum(axis=(-2, -1)) / residual[0].size)
        d_vertices = der / residual[0].size
    if bend_weight > 0:
        bend, bend_grad = _bend_penalty(regressed)
        loss = _plus(loss, bend_weight * bend)
        d_joints = _plus(d_joints, bend_weight * bend_grad)
    if loss is None:
        loss = np.zeros(len(regressed))

    if not want_grad:
        return loss, None
    grads = kin.fk_backward(out, d_regressed=d_joints, d_vertices=d_vertices)
    return loss, (grads.articulation @ axes, grads.beta,
                  grads.global_rot, grads.translation)


def _plus(total, term):
    """``total + term``, in place; a missing total is the term itself."""
    if total is None:
        return term
    total += term
    return total


def adam_step(params: np.ndarray, grads: np.ndarray, state: np.ndarray,
              step: int, lr: float) -> None:
    """One in-place Adam update of the flat ``params``.  ``state`` is a
    (4, N) array, zeros before step 1: the moments m and v, then two scratch
    rows.  ``step`` counts from 1."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v, s1, s2 = state
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, then
    # p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    m *= beta1
    m += np.multiply(1 - beta1, grads, out=s1)
    v *= beta2
    v += np.multiply(np.multiply(1 - beta2, grads, out=s1), grads, out=s1)
    np.sqrt(np.divide(v, 1 - beta2 ** step, out=s2), out=s2)
    s2 += eps
    np.multiply(np.divide(m, 1 - beta1 ** step, out=s1), lr, out=s1)
    params -= np.divide(s1, s2, out=s1)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def fit(model: HandModel, target: FitTarget, init_bio=None, init_beta=None,
        init_rot=None, init_trans=None, config: FitConfig | None = None,
        limits: bio_dof.DofLimits | None = None,
        axes: np.ndarray | None = None) -> FitResult | list[FitResult]:
    """First-order refinement of (angles, shape, global pose) toward B
    targets at once: a list of B results, or one for one target (a batch of
    one).  Initial values (None is zeros) are (n,), shared, or (B, n).  Scores
    ``config.iterations`` iterates from the clamped initial angles, with an
    Adam step and a clamp after each but the last (whose iterate nothing
    would score), so every iterate is feasible and the last iteration
    computes only its loss; returns each sample's best-loss iterate with its
    ``config.iterations`` losses.
    With ``freeze_shape`` the shape coefficients are never touched.  ``axes``
    is None or ``model.tensors.axes`` (or an equal copy), else ``InputError``."""
    if not isinstance(target, FitTarget):
        raise InputError(f"a FitTarget is required, got {type(target).__name__}")
    config = FitConfig() if config is None else config
    limits = bio_dof.DofLimits.default() if limits is None else limits
    for value, kind, slot in ((model, HandModel, "model"), (config, FitConfig, "config"),
                              (limits, bio_dof.DofLimits, "limits")):
        if not isinstance(value, kind):
            raise InputError(f"fit {slot} must be a {kind.__name__}, got "
                             f"{type(value).__name__}")
    if not (axes is None or axes is model.tensors.axes
            or np.array_equal(axes, model.tensors.axes)):
        raise InputError("fit axes must be the model's own axis table")
    nd = bio_dof.DOF_COUNT
    targets = [None if a is None else a.reshape(-1, *a.shape[-2:])   # (B, n, 3)
               for a in (target.joints, target.vertices)]
    lead = next(a for a in (target.joints, target.vertices) if a is not None).shape[:-2]
    batch = lead[0] if lead else 1

    x = np.zeros((batch, PARAM_COUNT))   # C order: Adam runs on its flat view
    bio, beta, rot, trans = views = np.split(x, np.cumsum([nd, 10, 3]), axis=1)
    for view, value, what in zip(views, (init_bio, init_beta, init_rot, init_trans),
                                 ("angles", "beta", "global rotation", "translation")):
        if value is not None:
            value = as_array(value, (..., view.shape[1]), what)
            if value.shape not in (view.shape[1:], (*lead, view.shape[1])):
                raise ShapeError(f"{what} must have shape {view.shape[1:]} or "
                                 f"{(*lead, view.shape[1])}, got {value.shape}")
            view[...] = value
    lower, upper = limits.lower, limits.upper
    np.minimum(np.maximum(bio, lower, out=bio), upper, out=bio)   # every iterate is feasible
    if np.abs(beta).max() > MAX_INIT_BETA:
        raise InputError(f"initial |beta| must be <= {MAX_INIT_BETA:g}")
    frozen_beta = beta.copy()
    grad, adam_state = np.zeros_like(x), np.zeros((4, x.size))   # per-row moments
    best_loss, best_x = np.full(batch, np.inf), x.copy()
    losses = []
    last = config.iterations - 1
    for t in range(config.iterations):
        # no step follows the last loss (nothing would score its iterate): no gradient
        loss, grads = batch_fit_loss(model, bio, beta, rot, trans, *targets,
                                     config.bend_weight, "huber", want_grad=t < last)
        if not np.isfinite(loss).all():
            row = (int(np.argmax(~np.isfinite(loss))),) if lead else ()
            raise NumericError(f"{batch_row(row)}non-finite loss at iteration {t}")
        losses.append(loss)
        better = loss < best_loss
        np.minimum(best_loss, loss, out=best_loss)
        np.copyto(best_x, x, where=better[:, None])
        if t == last:
            break
        np.concatenate(grads, axis=1, out=grad)
        # cosine step decay keeps late iterations from orbiting the optimum
        frac = t / max(last, 1)
        lr = config.step_size * (FINAL_STEP_SCALE + (1 - FINAL_STEP_SCALE)
                                 * 0.5 * (1 + np.cos(np.pi * frac)))
        adam_step(x.reshape(-1), grad.reshape(-1), adam_state, t + 1, lr)
        np.minimum(np.maximum(bio, lower, out=bio), upper, out=bio)
        if config.freeze_shape:   # Adam is per coordinate: resetting freezes
            beta[...] = frozen_beta

    traces = np.array(losses).T.tolist()   # (B, T)
    results = [FitResult(bio=bio_dof.BioPose(row[:nd]),
                         beta=ShapeParams(row[nd:nd + 10]), global_rot=row[nd + 10:nd + 13],
                         translation=row[nd + 13:], loss_trace=trace)
               for row, trace in zip(best_x, traces)]
    return results if lead else results[0]

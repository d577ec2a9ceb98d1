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
angles to their limits after every update, and returns each sample's
best-loss iterate.  Gradients are fully analytic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
MAX_INIT_BETA = 1e4
MAX_BEND_WEIGHT = 1e100


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
    convergence_tol: float = 0.0      # early stop when |dloss| < tol; 0 = never

    def __post_init__(self):
        self.iterations = as_number(self.iterations, "iterations", 1, integer=True)
        self.step_size = as_number(self.step_size, "step_size", above=0)
        self.bend_weight = as_number(self.bend_weight, "bend_weight", 0, MAX_BEND_WEIGHT)
        self.convergence_tol = as_number(self.convergence_tol, "convergence_tol", 0)


@dataclass
class FitResult:
    bio: bio_dof.BioPose
    beta: ShapeParams
    global_rot: np.ndarray
    translation: np.ndarray
    loss_trace: list[float] = field(default_factory=list)
    converged: bool = False


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
    return m * (absr - 0.5 * m), np.clip(residual, -HUBER_DELTA_MM, HUBER_DELTA_MM)


_BEND_FINGERS = (1, 2, 3, 4)  # index, middle, ring, little
#: (finger, part) -> joint index: MCP, PIP, DIP, TIP of each bend finger
_BEND_CHAINS = np.array([[kin.finger_joint(fi, p) for p in range(4)]
                         for fi in _BEND_FINGERS])


def _cross(a, b):
    """``np.cross`` over the last axis by components, in its operand order."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def bend_penalty_with_grad(joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Opposing-bend hinge penalty of (..., 21, 3) skeletons: one penalty per
    skeleton (shape ``...``) and its (..., 21, 3) gradient w.r.t. the joints.

    For each non-thumb finger, s = (b_tip x b_mid) . (b_mid x b_prox) with
    bone vectors pointing tip-ward; same-direction planar bends give s >= 0
    and contribute nothing.  Rigid motions leave s unchanged and uniform
    scaling preserves its sign (magnitude scales as scale^4).
    """
    joints = as_array(joints, (..., kin.JOINT_COUNT, 3), "joints")
    bones = np.diff(joints[..., _BEND_CHAINS, :], axis=-2)  # (..., 4, 3, 3): b1, b2, b3
    short = (np.linalg.norm(bones, axis=-1) < 1e-9).any(axis=-1)
    if short.any():
        finger = kin.FINGERS[_BEND_FINGERS[np.nonzero(short)[-1][0]]]
        raise NumericError(f"zero-length bone on {finger} finger")
    b1, b2, b3 = bones[..., 0, :], bones[..., 1, :], bones[..., 2, :]
    uv = _cross(bones[..., [2, 1], :], bones[..., [1, 0], :])
    u, v = uv[..., 0, :], uv[..., 1, :]
    s = (u * v).sum(axis=-1)                                 # (..., 4)
    # u x b2, v x b3, b1 x u, b2 x v: the four cross products of ds/d(bone)
    c = _cross(np.stack([u, v, b1, b2], axis=-2), np.stack([b2, b3, u, v], axis=-2))
    db1, db2, db3 = c[..., 0, :], c[..., 1, :] + c[..., 2, :], c[..., 3, :]
    grad = np.zeros_like(joints)
    # d(-s) per finger joint; chains are disjoint, so one assignment scatters
    grad[..., _BEND_CHAINS, :] = (np.stack([db1, db2 - db1, db3 - db2, -db3], axis=-2)
                                  * (s < 0.0)[..., None, None])
    return np.maximum(-s, 0.0).sum(axis=-1), grad


def batch_fit_loss(model: HandModel, axes: np.ndarray, bio, beta,
                   global_rot, translation, joints, vertices, bend_weight: float,
                   loss_kind: str, want_grad: bool):
    """(B,) per-sample losses of (B, 23) angles, (B, 10) shape, (B, 3)
    rotations and translations (None is zeros) against (B, 21, 3) joints and
    (B, V, 3) vertices (None drops a term), plus the bend penalty; with
    ``want_grad`` also the four (B, n) gradients of their sum, else None.
    ``loss_kind`` is "huber" or "l1"."""
    art = bio_dof.expand_batch(bio, axes)
    out = kin.fk_forward(model, art, beta, global_rot, translation,
                         want_vertices=vertices is not None, want_regressed=True,
                         need_grad=want_grad)
    regressed = out.regressed_joints

    loss = np.zeros(len(regressed))
    d_joints = np.zeros_like(regressed)
    d_vertices = None
    if joints is not None:
        residual = regressed - joints
        pen, der = _robust(residual, loss_kind)
        loss += pen.mean(axis=(-2, -1))
        d_joints += der / residual[0].size
    if vertices is not None:
        if vertices.shape != out.vertices.shape:
            raise ShapeError("target vertex count does not match the model")
        residual = out.vertices - vertices
        pen, der = _robust(residual, loss_kind)
        loss += pen.mean(axis=(-2, -1))
        d_vertices = der / residual[0].size
    if bend_weight > 0:
        bend, bend_grad = bend_penalty_with_grad(regressed)
        loss += bend_weight * bend
        d_joints += bend_weight * bend_grad

    if not want_grad:
        return loss, None
    grads = kin.fk_backward(model, out, d_regressed=d_joints, d_vertices=d_vertices)
    return loss, (grads.articulation @ axes, grads.beta,
                  grads.global_rot, grads.translation)


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
    one).  Initial values (None is zeros) are (n,), shared, or (B, n).  Runs
    ``config.iterations`` Adam steps, clamping the feasible angles, and
    returns each sample's best-loss iterate; a sample whose loss changes by
    less than ``convergence_tol`` stops, and the loop ends when all have.
    With ``freeze_shape`` the shape coefficients are never touched."""
    if not isinstance(target, FitTarget):
        raise InputError(f"a FitTarget is required, got {type(target).__name__}")
    config = config or FitConfig()
    limits = limits or bio_dof.DofLimits.default()
    if axes is None:
        axes = bio_dof.derive_axes(model)
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
    if np.abs(beta).max() > MAX_INIT_BETA:
        raise InputError(f"initial |beta| must be <= {MAX_INIT_BETA:g}")
    frozen_beta = beta.copy()
    grad, adam_state = np.zeros_like(x), np.zeros((4, x.size))   # per-row moments
    best_loss, best_x = np.full(batch, np.inf), x.copy()
    losses, converged = [], np.zeros(batch, bool)
    lengths = np.full(batch, config.iterations)   # of the loss traces; a stop cuts one
    for t in range(config.iterations):
        loss, grads = batch_fit_loss(model, axes, bio, beta, rot, trans, *targets,
                                     config.bend_weight, "huber", want_grad=True)
        if not np.isfinite(loss).all():   # a stopped row sits at its finite best
            row = (int(np.argmax(~np.isfinite(loss))),) if lead else ()
            raise NumericError(f"{batch_row(row)}non-finite loss at iteration {t}")
        losses.append(loss)
        better = ~converged & (loss < best_loss)
        best_loss[better] = loss[better]
        best_x[better] = x[better]
        if config.convergence_tol > 0 and t > 0:
            stop = ~converged & (np.abs(losses[-2] - loss) < config.convergence_tol)
            lengths[stop], converged[stop] = t + 1, True
            if converged.all():
                break
        np.concatenate(grads, axis=1, out=grad)
        # cosine step decay keeps late iterations from orbiting the optimum
        frac = t / max(config.iterations - 1, 1)
        lr = config.step_size * (FINAL_STEP_SCALE + (1 - FINAL_STEP_SCALE)
                                 * 0.5 * (1 + np.cos(np.pi * frac)))
        adam_step(x.reshape(-1), grad.reshape(-1), adam_state, t + 1, lr)
        np.clip(bio, limits.lower, limits.upper, out=bio)
        if config.freeze_shape:   # Adam is per coordinate: resetting freezes
            beta[...] = frozen_beta
        np.copyto(x, best_x, where=converged[:, None])   # a stopped row stays put

    losses = np.array(losses)
    results = [FitResult(bio=bio_dof.clamp(bio_dof.BioPose(row[:nd]), limits),
                         beta=ShapeParams(row[nd:nd + 10]), global_rot=row[nd + 10:nd + 13],
                         translation=row[nd + 13:], loss_trace=losses[:n, i].tolist(),
                         converged=bool(done))
               for i, (row, n, done) in enumerate(zip(best_x, lengths, converged))]
    return results if lead else results[0]

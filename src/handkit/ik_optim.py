"""Optimization-based pose/shape refinement against target joints and mesh
vertices, with an opposing-bend penalty on the four fingers.

The loss is a robust per-coordinate distance (smooth-L1 with a 1 mm knee by
default; pure L2 available) averaged over points, plus a hinge penalty on the
bend-direction invariant: for each finger the two cross products
(tip-dip x dip-pip) and (dip-pip x pip-mcp) must not oppose each other.  The
penalty is max(0, -s) on their dot product s, so feasible bends contribute
exactly zero.

The solver runs adaptive-moment (Adam-style) first-order steps with a cosine
step-size decay, clamps the 23 feasible angles to their limits after every
update, and returns the best-loss iterate.  Gradients are fully analytic:
chain rule through the DoF expansion, Rodrigues, the chained transforms, the
skinning/regression collapse, and the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bio_dof, kinematics as kin
from .errors import InputError, NumericError, ShapeError, as_array, as_number
from .hand_model import HandModel, ShapeParams

HUBER_DELTA_MM = 1.0
PARAM_COUNT = bio_dof.DOF_COUNT + 10 + 6  # 23 angles + 10 shape + rot/trans


@dataclass
class FitTarget:
    """Pseudo-ground-truth joints and/or vertices to fit, in mm."""

    joints: np.ndarray | None = None          # (21, 3)
    vertices: np.ndarray | None = None        # (V, 3)
    weight_joints: float = 1.0
    weight_vertices: float = 1.0

    def __post_init__(self):
        if self.joints is not None:
            self.joints = as_array(self.joints, (kin.JOINT_COUNT, 3), "target joints")
        if self.vertices is not None:
            self.vertices = as_array(self.vertices, (None, 3), "target vertices")
        self.weight_joints = as_number(self.weight_joints, "weight_joints", 0)
        self.weight_vertices = as_number(self.weight_vertices, "weight_vertices", 0)
        has_joints = self.joints is not None and self.weight_joints > 0
        has_verts = self.vertices is not None and self.weight_vertices > 0
        if not (has_joints or has_verts):
            raise InputError("target needs joints or vertices with positive weight")


@dataclass
class FitConfig:
    iterations: int = 20
    step_size: float = 0.05
    bend_weight: float = 1e-2
    loss_kind: str = "huber"          # "huber" (smooth-L1) or "l2"
    freeze_shape: bool = False
    convergence_tol: float = 0.0      # early stop when |dloss| < tol; 0 = never
    final_step_scale: float = 0.02    # cosine decay floor, fraction of step_size

    def __post_init__(self):
        self.iterations = as_number(self.iterations, "iterations", 1, integer=True)
        self.step_size = as_number(self.step_size, "step_size", above=0)
        self.bend_weight = as_number(self.bend_weight, "bend_weight", 0)
        if self.loss_kind not in ("huber", "l2"):
            raise InputError("loss_kind must be 'huber' or 'l2'")
        self.convergence_tol = as_number(self.convergence_tol, "convergence_tol", 0)
        self.final_step_scale = as_number(self.final_step_scale, "final_step_scale",
                                          0, 1)


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
    """Per-coordinate penalty and its derivative."""
    if kind == "l2":
        return residual * residual, 2.0 * residual
    absr = np.abs(residual)
    pen = np.where(absr <= HUBER_DELTA_MM, 0.5 * residual * residual,
                   HUBER_DELTA_MM * (absr - 0.5 * HUBER_DELTA_MM))
    return pen, np.clip(residual, -HUBER_DELTA_MM, HUBER_DELTA_MM)


_BEND_FINGERS = (1, 2, 3, 4)  # index, middle, ring, little
#: (finger, part) -> joint index: MCP, PIP, DIP, TIP of each bend finger
_BEND_CHAINS = np.array([[kin.finger_joint(fi, p) for p in range(4)]
                         for fi in _BEND_FINGERS])


def bend_penalty_with_grad(joints: np.ndarray) -> tuple[float, np.ndarray]:
    """Opposing-bend hinge penalty and its gradient w.r.t. joint positions.

    For each non-thumb finger, s = (b_tip x b_mid) . (b_mid x b_prox) with
    bone vectors pointing tip-ward; same-direction planar bends give s >= 0
    and contribute nothing.  Rigid motions leave s unchanged and uniform
    scaling preserves its sign (magnitude scales as scale^4).
    """
    joints = np.asarray(joints, dtype=float)
    bones = np.diff(joints[_BEND_CHAINS], axis=1)       # (4, 3, 3): b1, b2, b3
    short = (np.linalg.norm(bones, axis=-1) < 1e-9).any(axis=1)
    if short.any():
        raise NumericError(
            f"zero-length bone on {kin.FINGERS[_BEND_FINGERS[short.argmax()]]} finger")
    b1, b2, b3 = bones[:, 0], bones[:, 1], bones[:, 2]
    u, v = np.cross(bones[:, [2, 1]], bones[:, [1, 0]]).swapaxes(0, 1)
    s = (u * v).sum(axis=-1)
    # u x b2, v x b3, b1 x u, b2 x v: the four cross products of ds/d(bone)
    c = np.cross(np.stack([u, v, b1, b2], axis=1), np.stack([b2, b3, u, v], axis=1))
    db1, db2, db3 = c[:, 0], c[:, 1] + c[:, 2], c[:, 3]
    grad = np.zeros_like(joints)
    # d(-s) per finger joint; chains are disjoint, so one assignment scatters
    grad[_BEND_CHAINS] = (np.stack([db1, db2 - db1, db3 - db2, -db3], axis=1)
                          * (s < 0.0)[:, None, None])
    return float(np.maximum(-s, 0.0).sum()), grad


def _loss_and_grad(model, bio_values, beta_values, global_rot, translation,
                   target: FitTarget, bend_weight, loss_kind, axes,
                   want_grad: bool):
    axes = axes or bio_dof.derive_axes(model)
    articulation = bio_dof.expand_batch(bio_values[None, :], axes)
    out = kin.fk_forward(model, articulation, beta_values[None, :],
                         global_rot[None, :], translation[None, :],
                         want_vertices=target.vertices is not None,
                         want_regressed=True, need_grad=want_grad)
    joints = out.regressed_joints[0]

    loss = 0.0
    d_joints = np.zeros((kin.JOINT_COUNT, 3))
    d_vertices = None
    if target.joints is not None and target.weight_joints > 0:
        residual = joints - target.joints
        pen, der = _robust(residual, loss_kind)
        loss += target.weight_joints * pen.mean()
        d_joints += target.weight_joints * der / residual.size
    if target.vertices is not None and target.weight_vertices > 0:
        if target.vertices.shape != out.vertices[0].shape:
            raise ShapeError("target vertex count does not match the model")
        residual = out.vertices[0] - target.vertices
        pen, der = _robust(residual, loss_kind)
        loss += target.weight_vertices * pen.mean()
        d_vertices = target.weight_vertices * der / residual.size
    if bend_weight > 0:
        bend, bend_grad = bend_penalty_with_grad(joints)
        loss += bend_weight * bend
        d_joints += bend_weight * bend_grad

    if not want_grad:
        return float(loss), None

    grads = kin.fk_backward(
        model, out, d_regressed=d_joints[None, :, :],
        d_vertices=None if d_vertices is None else d_vertices[None, :, :])
    grad = np.concatenate([
        axes.expansion_matrix().T @ grads.articulation[0],
        grads.beta[0], grads.global_rot[0], grads.translation[0]])
    return float(loss), grad


def _flat_params(bio, beta, global_rot, translation):
    """Angles, shape, rotation and translation as checked arrays; None is zeros."""
    bio = bio.values if isinstance(bio, bio_dof.BioPose) else bio
    beta = beta.beta if isinstance(beta, ShapeParams) else beta
    return tuple(np.zeros(n) if x is None else as_array(x, (n,), what) for x, n, what in (
        (bio, bio_dof.DOF_COUNT, "angles"), (beta, 10, "beta"),
        (global_rot, 3, "global rotation"), (translation, 3, "translation")))


def fit_loss(model: HandModel, bio, beta, global_rot=None, translation=None,
             target: FitTarget = None, bend_weight: float = 1e-2,
             loss_kind: str = "huber", axes: bio_dof.AxisTable | None = None,
             want_grad: bool = False) -> tuple[float, np.ndarray | None]:
    """Fitting loss at the given parameters and, with ``want_grad``, its
    analytic gradient over the 23+10+6 parameters (else None)."""
    return _loss_and_grad(model, *_flat_params(bio, beta, global_rot, translation),
                          target, bend_weight, loss_kind, axes, want_grad)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def fit(model: HandModel, target: FitTarget, init_bio=None, init_beta=None,
        init_rot=None, init_trans=None, config: FitConfig | None = None,
        limits: bio_dof.DofLimits | None = None,
        axes: bio_dof.AxisTable | None = None) -> FitResult:
    """First-order refinement of (angles, shape, global pose) toward a target.

    Runs ``config.iterations`` adaptive-moment steps, clamping the feasible
    angles each iteration, and returns the best-loss iterate.  With
    ``freeze_shape`` the shape coefficients are never touched.
    """
    config = config or FitConfig()
    limits = limits or bio_dof.DofLimits.default()
    nd = bio_dof.DOF_COUNT

    x = np.concatenate(_flat_params(init_bio, init_beta, init_rot, init_trans))
    frozen_beta = x[nd:nd + 10].copy()

    m = np.zeros(PARAM_COUNT)
    v = np.zeros(PARAM_COUNT)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_loss = np.inf
    best_x = x.copy()
    trace: list[float] = []
    converged = False
    for t in range(config.iterations):
        loss, grad = _loss_and_grad(
            model, x[:nd], x[nd:nd + 10], x[nd + 10:nd + 13], x[nd + 13:],
            target, config.bend_weight, config.loss_kind, axes, want_grad=True)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at iteration {t}")
        trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_x = x.copy()
        if (config.convergence_tol > 0 and len(trace) >= 2
                and abs(trace[-2] - trace[-1]) < config.convergence_tol):
            converged = True
            break
        if config.freeze_shape:
            grad[nd:nd + 10] = 0.0
        # cosine step decay keeps late iterations from orbiting the optimum
        frac = t / max(config.iterations - 1, 1)
        lr = config.step_size * (config.final_step_scale
                                 + (1 - config.final_step_scale)
                                 * 0.5 * (1 + np.cos(np.pi * frac)))
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1 ** (t + 1))
        vhat = v / (1 - beta2 ** (t + 1))
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        x[:nd] = np.clip(x[:nd], limits.lower, limits.upper)
        if config.freeze_shape:
            x[nd:nd + 10] = frozen_beta

    final_bio = bio_dof.clamp(bio_dof.BioPose(best_x[:nd]), limits)
    final_beta = frozen_beta if config.freeze_shape else best_x[nd:nd + 10]
    return FitResult(
        bio=final_bio,
        beta=ShapeParams(final_beta),
        global_rot=best_x[nd + 10:nd + 13].copy(),
        translation=best_x[nd + 13:].copy(),
        loss_trace=trace,
        converged=converged,
    )


def params_lines(bio: bio_dof.BioPose, beta: ShapeParams, global_rot,
                 translation) -> list[str]:
    """Parameter-file lines: 'bio <name> <v>', 'beta <i> <v>', global_rot and
    translation, with fixed 9-significant-digit formatting."""
    def fmt(*values):
        return " ".join(format(float(v), ".9g") for v in values)
    return ([f"bio {name} {fmt(v)}" for name, v in zip(bio_dof.DOF_NAMES, bio.values)]
            + [f"beta {i} {fmt(v)}" for i, v in enumerate(beta.beta)]
            + ["global_rot " + fmt(*global_rot), "translation " + fmt(*translation)])


def write_fit_report(result: FitResult, path) -> None:
    """Structured text report: loss trace then final parameters."""
    lines = ["# fit report"]
    lines.append("converged " + ("yes" if result.converged else "no"))
    lines.append("iterations " + str(len(result.loss_trace)))
    for i, loss in enumerate(result.loss_trace):
        lines.append(f"loss {i} {format(loss, '.9g')}")
    lines += params_lines(result.bio, result.beta, result.global_rot,
                          result.translation)
    Path(path).write_text("\n".join(lines) + "\n")

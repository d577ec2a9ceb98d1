"""Kinematic-tree layout and the batched forward-kinematics engine.

The skeleton has 21 joints: the wrist plus five fingers with MCP, PIP, DIP
joints and a TIP marker each.  Sixteen joints carry rotations (wrist + 15
finger joints); tips ride rigidly on their DIP.  The articulation vector has
45 values: one axis-angle triple per non-wrist articulated joint, in joint
order.  The wrist rotation lives in the separate global rotation, which is
applied (about the origin) together with the translation as the last step.

``fk_forward`` evaluates poses for a whole batch at once and can cache every
intermediate; ``fk_backward`` then pulls loss gradients at the outputs
(skeleton joints, mesh vertices, regressed joints) back to the articulation,
shape, global-rotation, and translation parameters in one reverse sweep.
Joint positions are exactly the translation parts of the chained per-joint
rigid transforms, so independent re-composition of homogeneous matrices along
each finger is a valid oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .rotations import rodrigues_with_jacobian

FINGERS = ("thumb", "index", "middle", "ring", "little")

JOINT_NAMES = ("wrist",) + tuple(
    f"{finger}_{part}" for finger in FINGERS for part in ("mcp", "pip", "dip", "tip")
)
JOINT_COUNT = 21
VERTEX_COUNT_DEFAULT = 778

#: parent joint index per joint; wrist is the root (-1)
PARENTS = (-1,) + sum(((0, 4 * f + 1, 4 * f + 2, 4 * f + 3) for f in range(5)), ())

#: joints that carry a rotation, in chain order (wrist first)
ARTICULATED = (0,) + tuple(4 * f + p for f in range(5) for p in (1, 2, 3))
ARTICULATED_COUNT = len(ARTICULATED)  # 16
ARTICULATION_SIZE = 45  # 15 non-wrist articulated joints x 3

TIP_JOINTS = tuple(4 * f + 4 for f in range(5))
MCP_JOINTS = tuple(4 * f + 1 for f in range(5))

#: articulated-slot index for every joint (tips map to their DIP's slot)
_slot_of = {j: s for s, j in enumerate(ARTICULATED)}
ASSIGN_SLOT = tuple(_slot_of[j] if j in _slot_of else _slot_of[j - 1]
                    for j in range(JOINT_COUNT))

#: kinematic-tree edges (parent, child) for the 20 bones, in child order
BONES = tuple((PARENTS[j], j) for j in range(1, JOINT_COUNT))

POSE_BASIS_SIZE = 9 * (ARTICULATED_COUNT - 1)  # 135


def finger_joint(finger: int, part: int) -> int:
    """Joint index for finger 0..4 and part 0..3 (mcp, pip, dip, tip)."""
    return 4 * finger + 1 + part


@dataclass
class FkCache:
    """Forward pass outputs plus the intermediates the backward sweep needs."""

    joints: np.ndarray                      # (B, 21, 3) chained skeleton
    vertices: np.ndarray | None = None      # (B, V, 3) skinned mesh
    regressed_joints: np.ndarray | None = None  # (B, 21, 3) regressor applied to mesh
    # intermediates (populated when need_grad=True)
    beta: np.ndarray | None = None
    rot_art: np.ndarray | None = None       # (B, 15, 3, 3)
    drot_art: np.ndarray | None = None      # (B, 15, 3, 3, 3)
    rot_global: np.ndarray | None = None    # (B, 3, 3)
    drot_global: np.ndarray | None = None   # (B, 3, 3, 3)
    rest_joints: np.ndarray | None = None   # (B, 21, 3)
    local_t: np.ndarray | None = None       # (B, 15, 3)
    chain_rot: np.ndarray | None = None     # (B, 16, 3, 3)
    chain_t: np.ndarray | None = None       # (B, 16, 3)
    skin_rot: np.ndarray | None = None      # (B, 16, 3, 3) rest-relative rotation
    skin_t: np.ndarray | None = None        # (B, 16, 3)
    assign_rot: np.ndarray | None = None    # (B, 21, 3, 3) skin_rot gathered per joint
    template: np.ndarray | None = None      # (B, V, 3) shaped template
    reg_q: np.ndarray | None = None         # (B, 21, 16, 3) collapsed regression points
    pose_feats: np.ndarray | None = None    # (B, 135) vec(R - I), when pose basis used
    pre_joints: np.ndarray | None = None    # outputs before the global transform
    pre_vertices: np.ndarray | None = None
    pre_regressed: np.ndarray | None = None


@dataclass
class FkGrads:
    articulation: np.ndarray  # (B, 45)
    beta: np.ndarray          # (B, 10)
    global_rot: np.ndarray    # (B, 3)
    translation: np.ndarray   # (B, 3)


def _rest_joint_tensors(model) -> tuple[np.ndarray, np.ndarray]:
    """J0 (21,3) and JB (10,21,3) so rest joints = J0 + beta . JB."""
    cache = getattr(model, "_kin_cache", None)
    if cache is None:
        cache = {}
        model._kin_cache = cache
    if "J0" not in cache:
        reg = np.asarray(model.joint_regressor, dtype=float)
        cache["J0"] = reg @ np.asarray(model.rest_vertices, dtype=float)
        cache["JB"] = np.einsum("kv,ivc->ikc",
                                reg, np.asarray(model.shape_basis, dtype=float))
    return cache["J0"], cache["JB"]


def _regression_tensors(model):
    """Collapsed regressor-through-skinning tensors.

    The joint regressor and the skinning blend are both linear in the vertex
    positions, so the regressed joints reduce to per-(joint, slot) terms:
        regressed[k] = sum_j skin_rot[j] @ q[k, j] + c[k, j] * skin_t[j]
    with q[k, j] = q0[k, j] + Qb[k, j] @ beta (+ Qp[k, j] @ pose_feats).
    This avoids materializing the mesh when only regressed joints are needed.
    """
    cache = getattr(model, "_kin_cache", None)
    if cache is None:
        cache = {}
        model._kin_cache = cache
    if "reg_c" not in cache:
        reg = np.asarray(model.joint_regressor, dtype=float)        # (21, V)
        w = np.asarray(model.skinning_weights, dtype=float)          # (V, 16)
        rest = np.asarray(model.rest_vertices, dtype=float)          # (V, 3)
        basis = np.asarray(model.shape_basis, dtype=float)           # (10, V, 3)
        rw = np.einsum("kv,vj->kjv", reg, w)                         # (21, 16, V)
        cache["reg_c"] = rw.sum(axis=2)
        cache["reg_q0"] = np.einsum("kjv,vc->kjc", rw, rest)
        cache["reg_qb"] = np.einsum("kjv,ivc->kjci", rw, basis)
        if getattr(model, "pose_basis", None) is not None:
            pose = np.asarray(model.pose_basis, dtype=float)         # (135, V, 3)
            cache["reg_qp"] = np.einsum("kjv,pvc->kjcp", rw, pose)
        else:
            cache["reg_qp"] = None
    return cache["reg_c"], cache["reg_q0"], cache["reg_qb"], cache["reg_qp"]


def _as_batch(x, n_cols: int, batch: int | None, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n_cols:
        raise ShapeError(f"{name} must have shape (B, {n_cols}), got {x.shape}")
    if batch is not None and x.shape[0] not in (1, batch):
        raise ShapeError(f"{name} batch size {x.shape[0]} != {batch}")
    if batch is not None and x.shape[0] == 1 and batch > 1:
        x = np.broadcast_to(x, (batch, n_cols)).copy()
    return x


def fk_forward(model, articulation, beta=None, global_rot=None, translation=None,
               *, want_vertices: bool = False, want_regressed: bool = False,
               need_grad: bool = False) -> FkCache:
    """Pose the skeleton (and optionally the mesh) for a batch of parameters.

    articulation: (B, 45) axis-angle values, beta: (B, 10), global_rot and
    translation: (B, 3).  Missing beta/global/translation default to zeros.
    """
    articulation = np.asarray(articulation, dtype=float)
    if articulation.ndim == 1:
        articulation = articulation[None, :]
    batch = articulation.shape[0]
    if articulation.shape[1] != ARTICULATION_SIZE:
        raise ShapeError(f"articulation must have {ARTICULATION_SIZE} values per row")
    beta = (_as_batch(beta, 10, batch, "beta") if beta is not None
            else np.zeros((batch, 10)))
    global_rot = (_as_batch(global_rot, 3, batch, "global_rot")
                  if global_rot is not None else np.zeros((batch, 3)))
    translation = (_as_batch(translation, 3, batch, "translation")
                   if translation is not None else np.zeros((batch, 3)))
    if not (np.isfinite(articulation).all() and np.isfinite(beta).all()
            and np.isfinite(global_rot).all() and np.isfinite(translation).all()):
        raise NumericError("non-finite pose/shape parameters")

    omegas = articulation.reshape(batch, 15, 3)
    rot_art, drot_art = rodrigues_with_jacobian(omegas)
    rot_g, drot_g = rodrigues_with_jacobian(global_rot)

    J0, JB = _rest_joint_tensors(model)
    rest_joints = J0[None, :, :] + np.einsum("bi,ikc->bkc", beta, JB)

    has_pose_basis = getattr(model, "pose_basis", None) is not None
    pose_feats = None
    if has_pose_basis:
        pose_feats = (rot_art - np.eye(3)).reshape(batch, POSE_BASIS_SIZE)

    # Chain rigid transforms root-to-leaf.  Local translation of a joint is
    # its rest offset from the parent; the root sits at its rest position.
    chain_rot = np.zeros((batch, ARTICULATED_COUNT, 3, 3))
    chain_t = np.zeros((batch, ARTICULATED_COUNT, 3))
    chain_rot[:, 0] = np.eye(3)
    chain_t[:, 0] = rest_joints[:, 0]
    local_t = np.zeros((batch, 15, 3))
    for s in range(1, ARTICULATED_COUNT):
        j = ARTICULATED[s]
        p = _slot_of[PARENTS[j]]
        tl = rest_joints[:, j] - rest_joints[:, PARENTS[j]]
        local_t[:, s - 1] = tl
        chain_rot[:, s] = chain_rot[:, p] @ rot_art[:, s - 1]
        chain_t[:, s] = (np.einsum("bxy,by->bx", chain_rot[:, p], tl)
                         + chain_t[:, p])

    # Rest-relative skinning transforms: undo the rest translation first.
    skin_rot = chain_rot
    skin_t = chain_t - np.einsum("bsxy,bsy->bsx",
                                 chain_rot, rest_joints[:, list(ARTICULATED)])

    assign = list(ASSIGN_SLOT)
    assign_rot = skin_rot[:, assign]                       # (B, 21, 3, 3)
    pre_joints = (np.einsum("bkxy,bky->bkx", assign_rot, rest_joints)
                  + skin_t[:, assign])

    pre_vertices = template = None
    if want_vertices:
        template = (np.asarray(model.rest_vertices, dtype=float)[None]
                    + np.einsum("bi,ivc->bvc", beta,
                                np.asarray(model.shape_basis, dtype=float)))
        if has_pose_basis:
            template = template + np.einsum(
                "bp,pvc->bvc", pose_feats, np.asarray(model.pose_basis, dtype=float))
        weights = np.asarray(model.skinning_weights, dtype=float)
        pre_vertices = (np.einsum("vj,bjxy,bvy->bvx", weights, skin_rot, template)
                        + np.einsum("vj,bjx->bvx", weights, skin_t))

    pre_regressed = reg_q = None
    if want_regressed:
        c, q0, qb, qp = _regression_tensors(model)
        reg_q = q0[None] + np.einsum("kjci,bi->bkjc", qb, beta)
        if has_pose_basis:
            reg_q = reg_q + np.einsum("kjcp,bp->bkjc", qp, pose_feats)
        pre_regressed = (np.einsum("bjxy,bkjy->bkx", skin_rot, reg_q)
                         + np.einsum("kj,bjx->bkx", c, skin_t))

    def apply_global(x):
        return np.einsum("bxy,b...y->b...x", rot_g, x) + translation[:, None, :]

    out = FkCache(joints=apply_global(pre_joints))
    if pre_vertices is not None:
        out.vertices = apply_global(pre_vertices)
    if pre_regressed is not None:
        out.regressed_joints = apply_global(pre_regressed)
    if need_grad:
        out.beta = beta
        out.rot_art, out.drot_art = rot_art, drot_art
        out.rot_global, out.drot_global = rot_g, drot_g
        out.rest_joints = rest_joints
        out.local_t = local_t
        out.chain_rot, out.chain_t = chain_rot, chain_t
        out.skin_rot, out.skin_t = skin_rot, skin_t
        out.assign_rot = assign_rot
        out.template = template
        out.reg_q = reg_q
        out.pose_feats = pose_feats
        out.pre_joints = pre_joints
        out.pre_vertices = pre_vertices
        out.pre_regressed = pre_regressed
    return out


def fk_backward(model, cache: FkCache, d_joints=None, d_vertices=None,
                d_regressed=None) -> FkGrads:
    """Reverse sweep: output cotangents -> parameter gradients.

    Each ``d_*`` matches the shape of the corresponding forward output; any
    may be omitted.  Requires a cache from ``fk_forward(..., need_grad=True)``.
    """
    if cache.rot_art is None:
        raise ValueError("fk_backward needs a cache built with need_grad=True")
    batch = cache.joints.shape[0]
    rot_g = cache.rot_global
    rest_joints = cache.rest_joints
    skin_rot, skin_t = cache.skin_rot, cache.skin_t

    bar_rot_g = np.zeros((batch, 3, 3))
    bar_trans = np.zeros((batch, 3))
    bar_skin_rot = np.zeros((batch, ARTICULATED_COUNT, 3, 3))
    bar_skin_t = np.zeros((batch, ARTICULATED_COUNT, 3))
    bar_rest = np.zeros((batch, JOINT_COUNT, 3))
    bar_beta = np.zeros((batch, 10))
    bar_pose_feats = (np.zeros((batch, POSE_BASIS_SIZE))
                      if cache.pose_feats is not None else None)

    def through_global(d_out, pre):
        nonlocal bar_rot_g, bar_trans
        flat_d = np.asarray(d_out, dtype=float).reshape(batch, -1, 3)
        flat_p = pre.reshape(batch, -1, 3)
        bar_rot_g += np.einsum("bnx,bny->bxy", flat_d, flat_p)
        bar_trans += flat_d.sum(axis=1)
        return np.einsum("bxy,bnx->bny", rot_g, flat_d).reshape(pre.shape)

    if d_joints is not None:
        g = through_global(d_joints, cache.pre_joints)          # (B, 21, 3)
        assign = list(ASSIGN_SLOT)
        onehot = np.zeros((JOINT_COUNT, ARTICULATED_COUNT))
        onehot[np.arange(JOINT_COUNT), assign] = 1.0
        bar_skin_rot += np.einsum("kj,bkx,bky->bjxy", onehot, g, rest_joints)
        bar_skin_t += np.einsum("kj,bkx->bjx", onehot, g)
        bar_rest += np.einsum("bkxy,bkx->bky", cache.assign_rot, g)

    if d_vertices is not None:
        if cache.pre_vertices is None:
            raise ValueError("forward pass did not compute vertices")
        g = through_global(d_vertices, cache.pre_vertices)      # (B, V, 3)
        weights = np.asarray(model.skinning_weights, dtype=float)
        bar_skin_rot += np.einsum("vj,bvx,bvy->bjxy", weights, g, cache.template)
        bar_skin_t += np.einsum("vj,bvx->bjx", weights, g)
        bar_template = np.einsum("vj,bjxy,bvx->bvy", weights, skin_rot, g)
        bar_beta += np.einsum("bvc,ivc->bi", bar_template,
                              np.asarray(model.shape_basis, dtype=float))
        if bar_pose_feats is not None:
            bar_pose_feats += np.einsum(
                "bvc,pvc->bp", bar_template, np.asarray(model.pose_basis, dtype=float))

    if d_regressed is not None:
        if cache.pre_regressed is None:
            raise ValueError("forward pass did not compute regressed joints")
        g = through_global(d_regressed, cache.pre_regressed)    # (B, 21, 3)
        c, q0, qb, qp = _regression_tensors(model)
        bar_skin_rot += np.einsum("bkx,bkjy->bjxy", g, cache.reg_q)
        bar_skin_t += np.einsum("kj,bkx->bjx", c, g)
        bar_q = np.einsum("bjxy,bkx->bkjy", skin_rot, g)
        bar_beta += np.einsum("kjyi,bkjy->bi", qb, bar_q)
        if bar_pose_feats is not None:
            bar_pose_feats += np.einsum("kjyp,bkjy->bp", qp, bar_q)

    # Undo the rest-relative shift: skin_t = chain_t - chain_rot @ rest.
    rest_art = rest_joints[:, list(ARTICULATED)]
    bar_chain_t = bar_skin_t.copy()
    bar_chain_rot = bar_skin_rot - np.einsum("bjx,bjy->bjxy", bar_skin_t, rest_art)
    bar_rest_art = -np.einsum("bjxy,bjx->bjy", skin_rot, bar_skin_t)
    for s, j in enumerate(ARTICULATED):
        bar_rest[:, j] += bar_rest_art[:, s]

    # Walk the chain leaf-to-root.
    bar_omega = np.zeros((batch, 15, 3))
    for s in range(ARTICULATED_COUNT - 1, 0, -1):
        j = ARTICULATED[s]
        p = _slot_of[PARENTS[j]]
        parent_rot = cache.chain_rot[:, p]
        bar_local_rot = np.einsum("bxy,bxz->byz", parent_rot, bar_chain_rot[:, s])
        bar_chain_rot[:, p] += np.einsum("bxz,byz->bxy",
                                         bar_chain_rot[:, s], cache.rot_art[:, s - 1])
        bar_chain_rot[:, p] += np.einsum("bx,by->bxy",
                                         bar_chain_t[:, s], cache.local_t[:, s - 1])
        bar_tl = np.einsum("bxy,bx->by", parent_rot, bar_chain_t[:, s])
        bar_chain_t[:, p] += bar_chain_t[:, s]
        bar_omega[:, s - 1] += np.einsum("bixy,bxy->bi",
                                         cache.drot_art[:, s - 1], bar_local_rot)
        bar_rest[:, j] += bar_tl
        bar_rest[:, PARENTS[j]] -= bar_tl
    bar_rest[:, 0] += bar_chain_t[:, 0]

    if bar_pose_feats is not None:
        bar_rot_extra = bar_pose_feats.reshape(batch, 15, 3, 3)
        bar_omega += np.einsum("bsixy,bsxy->bsi", cache.drot_art, bar_rot_extra)

    _, JB = _rest_joint_tensors(model)
    bar_beta += np.einsum("bkc,ikc->bi", bar_rest, JB)
    bar_global = np.einsum("bixy,bxy->bi", cache.drot_global, bar_rot_g)
    return FkGrads(articulation=bar_omega.reshape(batch, 45),
                   beta=bar_beta, global_rot=bar_global, translation=bar_trans)

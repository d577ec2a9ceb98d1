"""Kinematic-tree layout and the batched forward-kinematics engine.

The skeleton has 21 joints: the wrist plus five fingers with MCP, PIP, DIP
joints and a TIP marker each.  Sixteen joints carry rotations (wrist + 15
finger joints); tips ride rigidly on their DIP.  The articulation vector has
45 values: one axis-angle triple per non-wrist articulated joint, in joint
order.  The wrist rotation lives in the separate global rotation, which is
applied (about the origin) together with the translation as the last step.

``fk_forward`` evaluates poses for a whole batch at once and can cache what
``fk_backward`` reads; ``fk_backward`` then pulls loss gradients at the
outputs (skeleton joints, mesh vertices, regressed joints) back to the
articulation, shape, global-rotation, and translation parameters in one
reverse sweep.  Both walk the chain by depth (MCPs, PIPs, DIPs: three steps,
five fingers each); per-slot work that does not chain runs on all 15 slots
outside the walk.  One Rodrigues call serves all 16 rotations; only
``need_grad=True`` builds their derivatives.  Regressed joints skip the mesh
as batched matmuls (see ``ModelTensors``) in both directions.
Skinning is the blend-then-apply LBS of SMPL/MANO, one rotation column at a
time; per-model constants live in ``model.tensors``.  Joint positions are
exactly the translation parts of the chained per-joint rigid transforms, so
independent re-composition of homogeneous matrices along each finger is a
valid oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericError, ShapeError, as_array
from .rotations import rodrigues, rodrigues_with_jacobian

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
_ASSIGN_ONEHOT = np.eye(ARTICULATED_COUNT)[list(ASSIGN_SLOT)]  # (21, 16)

#: kinematic-tree edges (parent, child) for the 20 bones, in child order
BONES = tuple((PARENTS[j], j) for j in range(1, JOINT_COUNT))

POSE_BASIS_SIZE = 9 * (ARTICULATED_COUNT - 1)  # 135

# Parent slot of each finger slot 1..15, and the slots grouped by depth below
# the wrist (MCPs, PIPs, DIPs) as (slots, their parent slots) index arrays.
_PARENT_SLOT = np.array([_slot_of[PARENTS[j]] for j in ARTICULATED[1:]])
_depth = [0]
for _p in _PARENT_SLOT:
    _depth.append(_depth[_p] + 1)
_DEPTHS = tuple((slots, _PARENT_SLOT[slots - 1]) for slots in (
    np.flatnonzero(np.array(_depth) == d) for d in range(1, max(_depth) + 1)))
# local_t = L @ rest_joints: each finger slot's rest offset from its parent
_L = (np.eye(JOINT_COUNT)[list(ARTICULATED[1:])]
      - np.eye(JOINT_COUNT)[[PARENTS[j] for j in ARTICULATED[1:]]])


def finger_joint(finger: int, part: int) -> int:
    """Joint index for finger 0..4 and part 0..3 (mcp, pip, dip, tip)."""
    return 4 * finger + 1 + part


@dataclass
class FkCache:
    """Forward pass outputs plus the intermediates the backward sweep reads."""

    joints: np.ndarray                      # (B, 21, 3) chained skeleton
    vertices: np.ndarray | None = None      # (B, V, 3) skinned mesh
    regressed_joints: np.ndarray | None = None  # (B, 21, 3) regressor applied to mesh
    # intermediates (populated when need_grad=True)
    rot_art: np.ndarray | None = None       # (B, 15, 3, 3)
    drot_art: np.ndarray | None = None      # (B, 15, 3, 3, 3)
    rot_global: np.ndarray | None = None    # (B, 3, 3)
    drot_global: np.ndarray | None = None   # (B, 3, 3, 3)
    rest_joints: np.ndarray | None = None   # (B, 21, 3)
    chain_rot: np.ndarray | None = None     # (B, 16, 3, 3), also the skinning rotation
    chain_t: np.ndarray | None = None       # (B, 16, 3)
    skin_t: np.ndarray | None = None        # (B, 16, 3) rest-relative translation
    template: np.ndarray | None = None      # (B, V, 3) shaped template
    reg_q: np.ndarray | None = None         # (B, 21, 48) collapsed regression points
    pre_joints: np.ndarray | None = None    # outputs before the global transform
    pre_vertices: np.ndarray | None = None
    pre_regressed: np.ndarray | None = None


@dataclass
class FkGrads:
    articulation: np.ndarray  # (B, 45)
    beta: np.ndarray          # (B, 10)
    global_rot: np.ndarray    # (B, 3)
    translation: np.ndarray   # (B, 3)


@dataclass(frozen=True)
class ModelTensors:
    """Per-model constants, derived once from a read-only ``HandModel``.

    Rest joints are ``J0 + beta . JB``.  The joint regressor and the skinning
    blend are both linear in the vertex positions, so the regressed joints
    reduce to per-(joint, slot) terms:
        regressed[k] = sum_j chain_rot[j] @ q[k, j] + c[k, j] * skin_t[j]
    with q[k, j] = q0[k, j] + Qb[k, j] @ beta (+ Qp[k, j] @ pose_feats).
    This avoids materializing the mesh when only regressed joints are needed;
    with q as (B, 21, 48) and chain_rot as (B, 3, 48) the sum is a matmul.
    """

    J0: np.ndarray                   # (21, 3)
    JB: np.ndarray                   # (10, 21, 3)
    reg_c: np.ndarray                # (21, 16)
    reg_q0: np.ndarray               # (21, 16, 3)
    reg_qb: np.ndarray               # (21, 16, 3, 10)
    reg_qp: np.ndarray | None        # (21, 16, 3, 135), with a pose basis

    @classmethod
    def build(cls, model) -> ModelTensors:
        reg, rest, basis = (model.joint_regressor, model.rest_vertices,
                            model.shape_basis)
        rw = np.einsum("kv,vj->kjv", reg, model.skinning_weights)  # (21, 16, V)
        arrays = (reg @ rest, np.einsum("kv,ivc->ikc", reg, basis), rw.sum(axis=2),
                  np.einsum("kjv,vc->kjc", rw, rest),
                  np.einsum("kjv,ivc->kjci", rw, basis),
                  None if model.pose_basis is None
                  else np.einsum("kjv,pvc->kjcp", rw, model.pose_basis))
        for a in arrays:
            if a is not None:
                a.flags.writeable = False
        return cls(*arrays)

    @cached_property
    def axes(self):
        """The model's ``bio_dof.AxisTable``, derived from J0 on first use."""
        from .bio_dof import axes_from_rest_joints  # bio_dof imports this module
        return axes_from_rest_joints(self.J0)


def _as_batch(x, n_cols: int, batch: int | None, name: str) -> np.ndarray:
    """(B, n_cols) floats; a 1-D row or a batch of one is broadcast to
    ``batch`` rows, and a missing value is zeros."""
    if x is None:
        return np.zeros((batch or 1, n_cols))
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
    articulation = _as_batch(articulation, ARTICULATION_SIZE, None, "articulation")
    batch = articulation.shape[0]
    beta, global_rot, translation = (
        _as_batch(x, n, batch, name) for x, n, name in (
            (beta, 10, "beta"), (global_rot, 3, "global_rot"),
            (translation, 3, "translation")))
    if not all(np.isfinite(x).all()
               for x in (articulation, beta, global_rot, translation)):
        raise NumericError("non-finite pose/shape parameters")

    omegas = np.concatenate([articulation.reshape(batch, 15, 3),
                             global_rot[:, None]], axis=1)    # (B, 16, 3)
    if need_grad:
        rots, drots = rodrigues_with_jacobian(omegas)
        drot_art, drot_g = drots[:, :15], drots[:, 15]
    else:
        rots = rodrigues(omegas)
    rot_art, rot_g = rots[:, :15], rots[:, 15]

    tensors = model.tensors
    rest_joints = tensors.J0 + (beta @ tensors.JB.reshape(10, -1)).reshape(
        batch, JOINT_COUNT, 3)

    has_pose_basis = model.pose_basis is not None
    pose_feats = ((rot_art - np.eye(3)).reshape(batch, POSE_BASIS_SIZE)
                  if has_pose_basis else None)

    # Chain rigid transforms root-to-leaf, one depth at a time.  Local
    # translation of a joint is its rest offset from the parent; the root
    # sits at its rest position.
    local_t = _L @ rest_joints                                 # (B, 15, 3)
    chain_rot = np.empty((batch, ARTICULATED_COUNT, 3, 3))
    chain_t = np.empty((batch, ARTICULATED_COUNT, 3))
    chain_rot[:, 0] = np.eye(3)
    chain_t[:, 0] = rest_joints[:, 0]
    for slots, parents in _DEPTHS:
        parent_rot = chain_rot[:, parents]
        chain_rot[:, slots] = parent_rot @ rot_art[:, slots - 1]
        chain_t[:, slots] = ((parent_rot @ local_t[:, slots - 1, :, None])[..., 0]
                             + chain_t[:, parents])

    # Rest-relative skinning transforms: the rotation is chain_rot; undo the
    # rest translation first.
    skin_t = chain_t - np.einsum("bsxy,bsy->bsx",
                                 chain_rot, rest_joints[:, list(ARTICULATED)])
    assign = list(ASSIGN_SLOT)
    pre_joints = (np.einsum("bkxy,bky->bkx", chain_rot[:, assign], rest_joints)
                  + skin_t[:, assign])

    pre_vertices = template = None
    if want_vertices:
        shape = (batch,) + model.rest_vertices.shape
        template = model.rest_vertices + (
            beta @ model.shape_basis.reshape(10, -1)).reshape(shape)
        if has_pose_basis:
            template += (pose_feats @ model.pose_basis.reshape(
                POSE_BASIS_SIZE, -1)).reshape(shape)
        # Blend-then-apply: W @ chain_rot[..., y] is column y of every vertex's
        # blended rotation, so one column at a time keeps the blend (B, V, 3).
        weights = model.skinning_weights
        pre_vertices = weights @ skin_t
        for y in range(3):
            pre_vertices += (weights @ chain_rot[..., y]) * template[..., y, None]

    pre_regressed = reg_q = None
    if want_regressed:
        q_shape = (batch, JOINT_COUNT, -1)
        reg_q = (tensors.reg_q0.reshape(JOINT_COUNT, -1)
                 + (beta @ tensors.reg_qb.reshape(-1, 10).T).reshape(q_shape))
        if has_pose_basis:
            reg_q += (pose_feats @ tensors.reg_qp.reshape(
                -1, POSE_BASIS_SIZE).T).reshape(q_shape)
        rot_rows = chain_rot.swapaxes(1, 2).reshape(batch, 3, -1)  # [b, x, (j, y)]
        pre_regressed = reg_q @ rot_rows.swapaxes(1, 2) + tensors.reg_c @ skin_t

    rot_g_t, shift = rot_g.transpose(0, 2, 1), translation[:, None, :]
    outputs = (None if x is None else x @ rot_g_t + shift
               for x in (pre_joints, pre_vertices, pre_regressed))
    return FkCache(*outputs, **({} if not need_grad else dict(
        rot_art=rot_art, drot_art=drot_art, rot_global=rot_g, drot_global=drot_g,
        rest_joints=rest_joints, chain_rot=chain_rot, chain_t=chain_t, skin_t=skin_t,
        template=template, reg_q=reg_q, pre_joints=pre_joints,
        pre_vertices=pre_vertices, pre_regressed=pre_regressed)))


def fk_backward(model, cache: FkCache, d_joints=None, d_vertices=None,
                d_regressed=None) -> FkGrads:
    """Reverse sweep: output cotangents -> parameter gradients.

    Each ``d_*`` matches the shape of the corresponding forward output (else
    ``ShapeError``) and is finite (else ``InputError``); any may be omitted.
    Requires a cache from ``fk_forward(..., need_grad=True)``.
    """
    if cache.rot_art is None:
        raise InputError("fk_backward needs a cache built with need_grad=True")
    batch = cache.joints.shape[0]
    rest_joints, chain_rot = cache.rest_joints, cache.chain_rot

    bar_rot_g = np.zeros((batch, 3, 3))
    bar_trans = np.zeros((batch, 3))
    bar_chain_rot = np.zeros((batch, ARTICULATED_COUNT, 3, 3))
    bar_skin_t = np.zeros((batch, ARTICULATED_COUNT, 3))
    bar_rest = np.zeros((batch, JOINT_COUNT, 3))
    bar_beta = np.zeros((batch, 10))
    bar_pose_feats = np.zeros((batch, POSE_BASIS_SIZE))

    def through_global(d_out, pre, what):
        """Cotangent of one (B, N, 3) output, checked against its shape,
        through the global rotation and translation."""
        nonlocal bar_rot_g, bar_trans
        d_out = as_array(d_out, pre.shape, what)
        bar_rot_g += d_out.transpose(0, 2, 1) @ pre
        bar_trans += d_out.sum(axis=1)
        return d_out @ cache.rot_global

    if d_joints is not None:
        g = through_global(d_joints, cache.pre_joints, "d_joints")  # (B, 21, 3)
        bar_chain_rot += np.einsum("kj,bkx,bky->bjxy", _ASSIGN_ONEHOT, g, rest_joints)
        bar_skin_t += np.einsum("kj,bkx->bjx", _ASSIGN_ONEHOT, g)
        bar_rest += np.einsum("bkxy,bkx->bky", chain_rot[:, list(ASSIGN_SLOT)], g)

    if d_vertices is not None:
        if cache.pre_vertices is None:
            raise InputError("forward pass did not compute vertices")
        g = through_global(d_vertices, cache.pre_vertices, "d_vertices")  # (B, V, 3)
        weights, template = model.skinning_weights, cache.template
        bar_skin_t += weights.T @ g
        bar_template = np.empty_like(g)
        for y in range(3):   # the forward blend's column loop, transposed
            bar_chain_rot[..., y] += weights.T @ (g * template[..., y, None])
            bar_template[..., y] = ((weights @ chain_rot[..., y]) * g).sum(axis=-1)
        bar_template = bar_template.reshape(batch, -1)
        bar_beta += bar_template @ model.shape_basis.reshape(10, -1).T
        if model.pose_basis is not None:
            bar_pose_feats += bar_template @ model.pose_basis.reshape(
                POSE_BASIS_SIZE, -1).T

    if d_regressed is not None:
        if cache.pre_regressed is None:
            raise InputError("forward pass did not compute regressed joints")
        g = through_global(d_regressed, cache.pre_regressed, "d_regressed")  # (B, 21, 3)
        tensors = model.tensors
        bar_chain_rot += (g.swapaxes(1, 2) @ cache.reg_q).reshape(
            batch, 3, ARTICULATED_COUNT, 3).swapaxes(1, 2)
        bar_skin_t += tensors.reg_c.T @ g
        bar_q = (g @ chain_rot.swapaxes(1, 2).reshape(batch, 3, -1)).reshape(
            batch, -1)                                          # (B, 21 * 48)
        bar_beta += bar_q @ tensors.reg_qb.reshape(-1, 10)
        if model.pose_basis is not None:
            bar_pose_feats += bar_q @ tensors.reg_qp.reshape(-1, POSE_BASIS_SIZE)

    # Undo the rest-relative shift: skin_t = chain_t - chain_rot @ rest.
    rest_art = rest_joints[:, list(ARTICULATED)]
    bar_chain_rot -= np.einsum("bjx,bjy->bjxy", bar_skin_t, rest_art)
    bar_rest[:, list(ARTICULATED)] -= np.einsum("bjxy,bjx->bjy", chain_rot, bar_skin_t)
    bar_chain_t = bar_skin_t

    # Walk the chain leaf-to-root, one depth at a time; np.add.at sums the
    # five MCPs into their shared parent, the wrist.
    local_t = _L @ rest_joints
    for slots, parents in reversed(_DEPTHS):
        np.add.at(bar_chain_rot, (slice(None), parents),
                  bar_chain_rot[:, slots] @ cache.rot_art[:, slots - 1].swapaxes(-1, -2)
                  + bar_chain_t[:, slots, :, None] * local_t[:, slots - 1, None, :])
        np.add.at(bar_chain_t, (slice(None), parents), bar_chain_t[:, slots])
    bar_rest[:, 0] += bar_chain_t[:, 0]

    # Per-slot terms of the chain step, once the walk has summed every child.
    parent_rot_t = chain_rot[:, _PARENT_SLOT].swapaxes(-1, -2)
    bar_local_rot = parent_rot_t @ bar_chain_rot[:, 1:]
    bar_rest += _L.T @ (parent_rot_t @ bar_chain_t[:, 1:, :, None])[..., 0]
    bar_omega = np.einsum("bsixy,bsxy->bsi", cache.drot_art,
                          bar_local_rot + bar_pose_feats.reshape(batch, 15, 3, 3))

    bar_beta += bar_rest.reshape(batch, -1) @ model.tensors.JB.reshape(10, -1).T
    bar_global = np.einsum("bixy,bxy->bi", cache.drot_global, bar_rot_g)
    return FkGrads(articulation=bar_omega.reshape(batch, 45),
                   beta=bar_beta, global_rot=bar_global, translation=bar_trans)

"""Kinematic-tree layout and the batched forward-kinematics engine.

The skeleton has 21 joints: the wrist plus five fingers with MCP, PIP, DIP
joints and a TIP marker each.  Sixteen joints carry rotations (wrist + 15
finger joints); tips ride rigidly on their DIP.  The articulation vector has
45 values: one axis-angle triple per non-wrist articulated joint, in joint
order.  The global rotation (about the origin) is the rotation of the
chain's root, the wrist slot, as in MANO; the translation is added last.

``fk_forward`` evaluates poses for a whole batch at once and can cache what
``fk_backward`` reads; ``fk_backward`` then pulls loss gradients at the mesh
vertices and the regressed joints (the outputs a loss reads) back to the
articulation, shape, global-rotation, and translation parameters in one
reverse sweep.  The forward chains the 16 rigid transforms root first, by
depth (MCPs, PIPs, DIPs: three steps, five fingers each, as slices), into
contiguous (B, 16, 3, 3) rotations and (B, 16, 3) translations; the
translations are each slot's rest offset in its parent's frame (one batched
matvec), summed down the depths.  An articulated joint is its slot's
translation, a tip its DIP's translation plus the DIP's rotation of its rest
offset.  The 3x4 bones [chain_rot | bone_t] that skinning and the regressed
joints read are built from the chain once.  The backward does
not walk: one GEMM with a constant (16, 16) subtree matrix sums each slot's
adjoints over the slots below it, and every local rotation's and offset's
adjoint follows from those sums in closed form.  One Rodrigues call serves
all 16 rotations, global first; only ``need_grad=True`` builds their
derivatives.  Skinning is the blend-then-apply LBS of SMPL/MANO in bone
space: per block of poses, one GEMM blends the 3x4 bones per vertex as
(3, V) planes, and the template's (3, V) planes are applied inside that
output (the rotation planes scaled in place, then summed into the shift
plane), whose planes go into the (B, V, 3) vertices one coordinate column
at a time; the backward reads the vertex cotangent as (B, 3, V) planes the
same way.  Per-model constants live in ``model.tensors``.  A call that
skins the mesh reads the regressed joints off it: the joint regressor times
each block's vertex planes before translation, and the backward adds the
regressed cotangent times the regressor to the vertex-plane cotangent.  A
regressed-only call skips the mesh as batched matmuls (see
``ModelTensors``) in both directions, in blocks of ``REGRESS_BLOCK`` poses
without gradients.  Either way the translation is added per output, not
blended or regressed.  Joint positions are exactly the translation parts of
the chained per-joint rigid transforms (a tip's, of its DIP's transform
applied to its rest offset), so independent re-composition of homogeneous
matrices along each finger is a valid oracle for them.
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

#: parent joint index per joint; wrist is the root (-1)
PARENTS = (-1,) + sum(((0, 4 * f + 1, 4 * f + 2, 4 * f + 3) for f in range(5)), ())

#: joints that carry a rotation, in chain order (wrist first)
ARTICULATED = (0,) + tuple(4 * f + p for f in range(5) for p in (1, 2, 3))
ARTICULATED_COUNT = len(ARTICULATED)  # 16
ARTICULATION_SIZE = 45  # 15 non-wrist articulated joints x 3

#: articulated-slot index of each articulated joint
_slot_of = {j: s for s, j in enumerate(ARTICULATED)}

#: kinematic-tree edges (parent, child) for the 20 bones, in child order
BONES = tuple((PARENTS[j], j) for j in range(1, JOINT_COUNT))

POSE_BASIS_SIZE = 9 * (ARTICULATED_COUNT - 1)  # 135

# The largest accepted rotation-vector component (rad): the squared norm of a
# vector within it (at most 3e306) stays finite.
_MAX_ROTATION = 1e153
# The largest accepted |shape coefficient|.  A model file stores float32
# entries (below 3.4e38 mm per unit), and FK sums at most a few hundred
# products of beta and such an entry (ten basis terms, rotated and summed
# along the chain), so beta moves no output by more than ~1e142 mm, and the
# square of that, as distances and losses take it, stays finite.
_MAX_SHAPE = 1e100


def _as_slice(index: np.ndarray) -> slice:
    """An evenly spaced index run as a basic slice; one index repeated is a
    length-1 slice, which broadcasts."""
    step = int(index[1] - index[0])
    assert (np.diff(index) == step).all()
    stop = int(index[-1]) + 1
    return slice(int(index[0]), stop, step) if step else slice(stop - 1, stop)


# Parent slot of each finger slot 1..15, and the slots grouped by depth below
# the wrist (MCPs, PIPs, DIPs) as (slots, their parent slots) index arrays.
_PARENT_SLOT = np.array([_slot_of[PARENTS[j]] for j in ARTICULATED[1:]])
_depth = [0]
for _p in _PARENT_SLOT:
    _depth.append(_depth[_p] + 1)
_DEPTHS = tuple((slots, _PARENT_SLOT[slots - 1]) for slots in (
    np.flatnonzero(np.array(_depth) == d) for d in range(1, max(_depth) + 1)))
# The depth groups as (slots, parent slots) slices, so the chain reads and
# writes views instead of gathered copies.
_DEPTH_SLICES = tuple((_as_slice(slots), _as_slice(parents)) for slots, parents in _DEPTHS)
# The articulated joints as an index array (a tuple index is converted per call).
_ARTICULATED = np.array(ARTICULATED)
# The tips, the DIPs they ride on, and the DIPs' slots (as a slice).
_TIPS = np.array([j for j in range(JOINT_COUNT) if j not in _slot_of])
_DIPS = _TIPS - 1
_TIP_SLOTS = _as_slice(np.array([_slot_of[j] for j in _DIPS]))
# local_t = L @ rest_joints: each finger slot's rest offset from its parent
_L = (np.eye(JOINT_COUNT)[list(ARTICULATED[1:])]
      - np.eye(JOINT_COUNT)[[PARENTS[j] for j in ARTICULATED[1:]]])
# The frame each slot's local offset is rotated by: the parent's chain
# rotation, and for the root (t_0 = R_g w, w the rest wrist) its own.
_OFFSET_FRAME = np.concatenate([[0], _PARENT_SLOT])
# What the chain reads of the rest joints, as (111, 63) rows over flat
# (B, 63) rest joints: the 16 slots' local offsets (the root's is the rest
# wrist), the 16 slot joints, and the 5 tips' offsets from their DIPs.  Each
# entry is one coordinate or a difference of two, so the product is exact.
_rest_rows = np.kron(np.concatenate([
    np.eye(JOINT_COUNT)[:1], _L, np.eye(JOINT_COUNT)[list(ARTICULATED)],
    np.eye(JOINT_COUNT)[_TIPS] - np.eye(JOINT_COUNT)[_DIPS]]), np.eye(3))
# rest @ _REST_MAP: the rows' transpose, stored C-ordered (a transposed view
# multiplies slower)
_REST_MAP = _rest_rows.T.copy()
# The backward's rest-joint adjoints from (B, 2, 16, 3) chain adjoints: the
# offsets', then minus the slot joints' own, through bone_t = t - C rest.
_REST_FROM_CHAIN = _rest_rows[:6 * ARTICULATED_COUNT] * np.repeat(
    [1.0, -1.0], 3 * ARTICULATED_COUNT)[:, None]
# _SUBTREE[d, s] = 1 when slot d is s or below it (parents precede
# children), the right operand of the backward's subtree sums
_SUBTREE = np.eye(ARTICULATED_COUNT)
for _d, _p in enumerate(_PARENT_SLOT, 1):
    _SUBTREE[_d] += _SUBTREE[_p]
for _table in (_REST_MAP, _REST_FROM_CHAIN, _SUBTREE):
    _table.flags.writeable = False


def finger_joint(finger: int, part: int) -> int:
    """Joint index for finger 0..4 and part 0..3 (mcp, pip, dip, tip)."""
    return 4 * finger + 1 + part


@dataclass
class FkCache:
    """Forward pass outputs plus what the backward sweep reads, the posed model too."""

    joints: np.ndarray                      # (B, 21, 3) chained skeleton
    vertices: np.ndarray | None = None      # (B, V, 3) skinned mesh
    regressed_joints: np.ndarray | None = None  # (B, 21, 3) regressor applied to mesh
    # intermediates (populated when need_grad=True)
    model: object | None = None             # the HandModel posed
    drots: np.ndarray | None = None         # (B, 16, 3, 3, 3) global first
    rest_joints: np.ndarray | None = None   # (B, 21, 3)
    chain_rot: np.ndarray | None = None     # (B, 16, 3, 3)
    chain_t: np.ndarray | None = None       # (B, 16, 3)
    bones: np.ndarray | None = None         # (B, 3, 16, 4) [chain_rot | bone_t]
    template: np.ndarray | None = None      # (B, 3, V) shaped template planes
    reg_q: np.ndarray | None = None         # (B, 21, 48) collapsed points, regressed-only


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
        regressed[k] = sum_j chain_rot[j] @ q[k, j] + c[k, j] * bone_t[j]
    with q[k, j] = q0[k, j] + Qb[k, j] @ beta (+ Qp[k, j] @ pose_feats).
    This avoids materializing the mesh when only regressed joints are needed;
    with q as (B, 21, 48) and chain_rot as (B, 3, 48) the sum is a matmul.
    The skinned template is kept as (3, V) coordinate planes, flattened:
    ``rest_planes + beta @ shape_planes (+ pose_feats @ pose_planes)``.
    Every array is C-ordered and read-only, in the orientation its products
    ran fastest in at B = 1, 32 and 256: ``reg_qb``, ``reg_qp``,
    ``shape_planes`` and ``pose_planes`` as (n, ...) rows, which the forward
    reads as they are and the backward as transposed views; ``weights_t``,
    the skinning weights' (16, V) transpose, as it is in both blends.
    """

    J0: np.ndarray                   # (21, 3)
    JB: np.ndarray                   # (10, 21, 3)
    reg_c: np.ndarray                # (21, 16)
    reg_q0: np.ndarray               # (21, 16, 3)
    reg_qb: np.ndarray               # (10, 21 * 16 * 3)
    reg_qp: np.ndarray | None        # (135, 21 * 16 * 3), with a pose basis
    weights_t: np.ndarray            # (16, V)
    rest_planes: np.ndarray          # (3 * V,)
    shape_planes: np.ndarray         # (10, 3 * V)
    pose_planes: np.ndarray | None   # (135, 3 * V), with a pose basis

    @classmethod
    def build(cls, model) -> ModelTensors:
        reg, rest, basis, pose = (model.joint_regressor, model.rest_vertices,
                                  model.shape_basis, model.pose_basis)
        rw = np.einsum("kv,vj->kjv", reg, model.skinning_weights)  # (21, 16, V)
        arrays = (reg @ rest, np.einsum("kv,ivc->ikc", reg, basis), rw.sum(axis=2),
                  np.einsum("kjv,vc->kjc", rw, rest),
                  *(None if b is None else np.einsum("kjv,ivc->kjci", rw, b).reshape(
                      -1, len(b)).T.copy() for b in (basis, pose)),
                  model.skinning_weights.T.copy(),
                  rest.T.ravel(), *(None if b is None else b.swapaxes(1, 2).reshape(
                      len(b), -1) for b in (basis, pose)))        # (3, V) planes
        for a in arrays:
            if a is not None:
                a.flags.writeable = False
        return cls(*arrays)

    @cached_property
    def axes(self) -> np.ndarray:
        """The model's read-only (45, 23) axis table (``bio_dof``'s expansion
        matrix), derived from J0 on first use."""
        from .bio_dof import axes_from_rest_joints  # bio_dof imports this module
        return axes_from_rest_joints(self.J0)


def _as_batch(x, n_cols: int, batch: int | None, name: str) -> np.ndarray:
    """(B, n_cols) floats; a 1-D row or a batch of one is broadcast to
    ``batch`` rows, and a missing value is zeros.  Non-finite values pass: a
    diverging caller gets ``NumericError`` from ``fk_forward``."""
    if x is None:
        return np.zeros((batch or 1, n_cols))
    x = as_array(x, None, name, finite=False)
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
    ``model`` is a ``HandModel``, else ``InputError``.
    """
    # Only a HandModel holds ModelTensors (hand_model imports this module).
    tensors = getattr(model, "tensors", None)
    if not isinstance(tensors, ModelTensors):
        raise InputError(f"fk_forward model must be a HandModel, got {type(model).__name__}")
    articulation = _as_batch(articulation, ARTICULATION_SIZE, None, "articulation")
    batch = articulation.shape[0]
    if not batch:
        raise ShapeError(f"articulation must hold at least one pose, got shape {articulation.shape}")
    beta, global_rot, translation = (
        _as_batch(x, n, batch, name) for x, n, name in (
            (beta, 10, "beta"), (global_rot, 3, "global_rot"),
            (translation, 3, "translation")))
    omegas = np.concatenate([global_rot[:, None],
                             articulation.reshape(batch, 15, 3)], axis=1)  # (B, 16, 3)
    # One test per array (each False for NaN too); a failure reruns the
    # ordered checks, which name what is wrong.
    if not (np.abs(omegas).max() <= _MAX_ROTATION and np.abs(beta).max() <= _MAX_SHAPE
            and np.isfinite(translation).all()):
        if not (np.isfinite(omegas).all() and np.isfinite(translation).all()
                and (np.abs(beta) <= _MAX_SHAPE).all()):
            raise NumericError(
                f"non-finite pose/shape parameters or |beta| beyond {_MAX_SHAPE:g}")
        raise NumericError(f"rotation vector component beyond {_MAX_ROTATION:g} rad")
    if need_grad:
        rots, drots = rodrigues_with_jacobian(omegas)
    else:
        rots = rodrigues(omegas)

    rest_joints = tensors.J0 + (beta @ tensors.JB.reshape(10, -1)).reshape(
        batch, JOINT_COUNT, 3)

    has_pose_basis = model.pose_basis is not None
    pose_feats = ((rots[:, 1:] - np.eye(3)).reshape(batch, POSE_BASIS_SIZE)
                  if has_pose_basis else None)

    # Chain rigid transforms root-to-leaf, one depth at a time.  The root is
    # the global rotation about the origin; a finger slot's local translation
    # is its rest offset from the parent, rotated by the parent's chain
    # rotation and added to its translation.
    rest_parts = (rest_joints.reshape(batch, -1) @ _REST_MAP).reshape(batch, -1, 3)
    local_t, slot_rest, tip_offsets = (rest_parts[:, :ARTICULATED_COUNT],
                                       rest_parts[:, ARTICULATED_COUNT:2 * ARTICULATED_COUNT],
                                       rest_parts[:, 2 * ARTICULATED_COUNT:])
    chain_rot = np.empty((batch, ARTICULATED_COUNT, 3, 3))
    chain_rot[:, 0] = rots[:, 0]
    for slots, parents in _DEPTH_SLICES:
        np.matmul(chain_rot[:, parents], rots[:, slots], out=chain_rot[:, slots])
    chain_t = np.einsum("bsxy,bsy->bsx", chain_rot[:, _OFFSET_FRAME], local_t)
    for slots, parents in _DEPTH_SLICES:
        chain_t[:, slots] += chain_t[:, parents]

    # An articulated joint is its slot's translation; a tip rides on its DIP.
    joints = np.empty((batch, JOINT_COUNT, 3))
    joints[:, _ARTICULATED] = chain_t
    joints[:, _TIPS] = chain_t[:, _TIP_SLOTS] + np.einsum(
        "bsxy,bsy->bsx", chain_rot[:, _TIP_SLOTS], tip_offsets)
    joints += translation[:, None]

    # The bones [chain_rot | bone_t], as [b, x, slot, column] rows, undo the
    # rest translation.  The translation is added per output: the weight and
    # regressor rows sum to 1 only to the tolerance ``HandModel`` checks, and
    # the bones would scale it.
    bones = None
    if want_vertices or want_regressed or need_grad:
        bones = np.empty((batch, 3, ARTICULATED_COUNT, 4))
        bones[..., :3] = chain_rot.swapaxes(1, 2)
        bones[..., 3] = (chain_t - np.einsum("bsxy,bsy->bsx", chain_rot,
                                             slot_rest)).swapaxes(1, 2)
        bone_rot, bone_t = bones[..., :3], bones[..., 3].swapaxes(1, 2)

    # With the mesh, the regressed joints are read off it: the regressor times
    # each block's vertex planes before the translation is added.
    vertices = template = regressed = reg_q = None
    if want_vertices:
        count = model.vertex_count
        vertices = np.empty((batch, count, 3))
        template = np.empty((batch, 3, count)) if need_grad else None
        if want_regressed:
            regressed = np.empty((batch, 3, JOINT_COUNT))
        by_column = bones.transpose(0, 3, 1, 2)   # [b, column, x, slot]; 3: shift
        for rows in (slice(i, i + BLEND_BLOCK) for i in range(0, batch, BLEND_BLOCK)):
            shaped = beta[rows] @ tensors.shape_planes
            shaped += tensors.rest_planes
            if has_pose_basis:
                shaped += pose_feats[rows] @ tensors.pose_planes
            shaped = shaped.reshape(-1, 3, count)                # (n, 3, V)
            blend = (by_column[rows].reshape(-1, ARTICULATED_COUNT)
                     @ tensors.weights_t).reshape(-1, 4, 3, count)  # (n, 4, 3, V)
            # The template is applied inside the blend: the rotation planes
            # are scaled in place and summed into the shift plane in x, y, z
            # order, after the translation when no regressed joints are read.
            planes, shift = blend[:, 3], translation[rows, :, None]
            if not want_regressed:
                planes += shift
            blend[:, :3] *= shaped[:, :, None]
            for y in range(3):
                planes += blend[:, y]
            if want_regressed:
                np.matmul(planes, model.joint_regressor.T, out=regressed[rows])
                planes += shift
            for x in range(3):   # one strided column each beats one transposed copy
                vertices[rows, :, x] = planes[:, x]
            if need_grad:
                template[rows] = shaped
        if want_regressed:
            regressed = np.add(regressed.transpose(0, 2, 1), translation[:, None], order="C")
    elif want_regressed:
        # The collapsed route, in row blocks without gradients: a block's
        # (n, 21, 48) points are the call's largest array.
        regressed = np.empty((batch, JOINT_COUNT, 3))
        step = batch if need_grad else REGRESS_BLOCK
        q_shape = (-1, JOINT_COUNT, 3 * ARTICULATED_COUNT)
        for rows in (slice(i, i + step) for i in range(0, batch, step)):
            reg_q = (beta[rows] @ tensors.reg_qb).reshape(q_shape)   # (n, 21, 48)
            reg_q += tensors.reg_q0.reshape(JOINT_COUNT, -1)
            if has_pose_basis:
                reg_q += (pose_feats[rows] @ tensors.reg_qp).reshape(q_shape)
            rot_rows = bone_rot[rows].reshape(len(reg_q), 3, -1).swapaxes(1, 2)
            regressed[rows] = (reg_q @ rot_rows + tensors.reg_c @ bone_t[rows]
                               + translation[rows, None])

    return FkCache(joints, vertices, regressed, **({} if not need_grad else dict(
        model=model, drots=drots, rest_joints=rest_joints, chain_rot=chain_rot,
        chain_t=chain_t, bones=bones, template=template, reg_q=reg_q)))


#: poses per skinning block: their (n * 12, V) blend, 0.6 MB at V = 778, stays in L2
BLEND_BLOCK = 8
#: poses per block of a no-grad regressed-only call: 2 MB of collapsed points
REGRESS_BLOCK = 256


def fk_backward(cache: FkCache, d_vertices=None, d_regressed=None) -> FkGrads:
    """Reverse sweep: cotangents at the mesh vertices and the regressed
    joints -> parameter gradients, through the model the cache posed.

    Each ``d_*`` matches the shape of the corresponding forward output (else
    ``ShapeError``) and is finite (else ``InputError``); any may be omitted.
    Needs an ``FkCache`` from ``fk_forward(..., need_grad=True)``, else ``InputError``.
    """
    if not isinstance(cache, FkCache):
        raise InputError(f"fk_backward needs an FkCache, got {type(cache).__name__}")
    if cache.drots is None:
        raise InputError("fk_backward needs a cache built with need_grad=True")
    batch, model, tensors = cache.joints.shape[0], cache.model, cache.model.tensors
    rest_joints, bone_rot = cache.rest_joints, cache.bones[..., :3]

    bar_bones = np.zeros((batch, 3, ARTICULATED_COUNT, 4))
    bar_trans = np.zeros((batch, 3))
    bar_beta = np.zeros((batch, 10))
    has_pose_basis = model.pose_basis is not None
    bar_pose_feats = np.zeros((batch, POSE_BASIS_SIZE)) if has_pose_basis else None

    d = None   # the (B, 3, V) vertex-plane cotangent
    if d_vertices is not None:
        if cache.vertices is None:
            raise InputError("forward pass did not compute vertices")
        g = as_array(d_vertices, cache.vertices.shape, "d_vertices")
        d = np.ascontiguousarray(g.transpose(0, 2, 1))
        bar_trans += d.sum(axis=2)

    if d_regressed is not None:
        if cache.regressed_joints is None:
            raise InputError("forward pass did not compute regressed joints")
        g = as_array(d_regressed, cache.regressed_joints.shape, "d_regressed")
        bar_trans += g.sum(axis=1)
        if cache.vertices is not None:   # read off the mesh: J times its planes
            through_mesh = g.swapaxes(1, 2) @ model.joint_regressor
            d = through_mesh if d is None else d + through_mesh
        else:
            bar_bones[..., :3] += (g.swapaxes(1, 2) @ cache.reg_q).reshape(
                batch, 3, ARTICULATED_COUNT, 3)
            bar_bones[..., 3] += (tensors.reg_c.T @ g).swapaxes(1, 2)
            bar_q = (g @ bone_rot.reshape(batch, 3, -1)).reshape(batch, -1)  # (B, 21 * 48)
            bar_beta += bar_q @ tensors.reg_qb.T
            if has_pose_basis:
                bar_pose_feats += bar_q @ tensors.reg_qp.T

    if d is not None:
        weights, count = model.skinning_weights, model.vertex_count
        rot_columns = bone_rot.transpose(0, 3, 1, 2)         # [b, y, x, slot]
        bar_template = np.empty_like(cache.template)
        bar_blend = np.empty((min(batch, BLEND_BLOCK), 4, 3, count))
        for rows in (slice(i, i + BLEND_BLOCK) for i in range(0, batch, BLEND_BLOCK)):
            # the forward blend, transposed: d planes times template planes
            planes = d[rows]                                 # (n, 3, V)
            block = bar_blend[:len(planes)]
            np.multiply(cache.template[rows, :, None], planes[:, None], out=block[:, :3])
            block[:, 3] = planes
            bar_bones[rows] += (block.reshape(-1, count) @ weights).reshape(
                -1, 4, 3, ARTICULATED_COUNT).transpose(0, 2, 3, 1)
            blend = (rot_columns[rows].reshape(-1, ARTICULATED_COUNT)
                     @ tensors.weights_t).reshape(-1, 3, 3, count)
            blend *= planes[:, None]
            np.add.reduce(blend, axis=2, out=bar_template[rows])
        bar_beta += bar_template.reshape(batch, -1) @ tensors.shape_planes.T
        if has_pose_basis:
            bar_pose_feats += bar_template.reshape(batch, -1) @ tensors.pose_planes.T

    # Sum each slot's chain adjoints over its subtree in one GEMM.  Per slot,
    # [bar_bones] [bones]^T is bar_C C^T + bar_t t^T of the chain transform,
    # since bone_t = t - C rest; S and T are its and bar_t's subtree sums.
    chain_rot, chain_t = cache.chain_rot, cache.chain_t
    own = np.empty((batch, 3, 4, ARTICULATED_COUNT))         # [b, x, y, slot]
    own[:, :, :3] = np.einsum("bxsc,bysc->bxys", bar_bones, cache.bones)
    own[:, :, 3] = bar_bones[..., 3]
    sums = (own.reshape(-1, ARTICULATED_COUNT) @ _SUBTREE).reshape(own.shape)
    T = np.ascontiguousarray(sums[:, :, 3].swapaxes(1, 2))
    M = sums[:, :, :3].transpose(0, 3, 1, 2) - np.einsum("bsx,bsy->bsxy", T, chain_t)

    # Slot s = parent p @ local rotation: its adjoint is C_p^T (S_s - T_s t_s^T) C_s
    # and its offset's is C_p^T T_s.  The root C_0 = R_g also moves t_0 = R_g w,
    # which leaves S_0 C_0 = (M_0 + T_0 t_0^T) C_0 for R_g and C_0^T T_0 for the
    # rest wrist w: the root acts as its own parent.
    parent_rot = chain_rot[:, _OFFSET_FRAME]
    bar_local = M @ chain_rot
    bar_local[:, 0] += T[:, 0, :, None] * rest_joints[:, 0, None]
    bar_local[:, 1:] = parent_rot[:, 1:].swapaxes(-1, -2) @ bar_local[:, 1:]
    if has_pose_basis:
        bar_local[:, 1:] += bar_pose_feats.reshape(batch, 15, 3, 3)
    bar_omega = np.einsum("bsixy,bsxy->bsi", cache.drots, bar_local)

    # the offsets' adjoints and, through bone_t, the slot joints' rest adjoints
    bar_t = np.ascontiguousarray(bar_bones[..., 3].swapaxes(1, 2))
    chain_bar = np.concatenate([np.einsum("bsxy,bsx->bsy", parent_rot, T),
                                np.einsum("bsxy,bsx->bsy", chain_rot, bar_t)], axis=1)
    bar_rest = chain_bar.reshape(batch, -1) @ _REST_FROM_CHAIN
    bar_beta += bar_rest @ tensors.JB.reshape(10, -1).T
    return FkGrads(articulation=bar_omega[:, 1:].reshape(batch, 45),
                   beta=bar_beta, global_rot=bar_omega[:, 0], translation=bar_trans)

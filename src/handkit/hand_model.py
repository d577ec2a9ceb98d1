"""Parametric hand mesh: the model's arrays (shape blendshapes, joint
regressor, skinning weights), the procedural desk hand, the MANO-layout
converter and file I/O.

Posing is ``kinematics.fk_forward``, for any batch of poses (one pose is a
batch of one); this module does no forward kinematics.  Units are
millimeters throughout.  The default configuration has 778 mesh vertices and
21 joints (wrist, then per finger MCP/PIP/DIP/TIP).  Shape is a 10-vector of
PCA-style coefficients.

A licensed statistical hand model is not required: ``make_desk_hand`` builds
a fully procedural model with the same structure (tube fingers, palm sheets,
ring-based joint regressor), and ``from_mano_arrays`` converts user-supplied
MANO-layout arrays into this representation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kinematics as kin
from .containers import read_container, write_container
from .errors import InputError, ShapeError, as_array

SHAPE_DIM = 10
_WEIGHT_TOL = 1e-6   # rounding allowed in the stored skinning and regressor rows


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass
class ShapeParams:
    """10 dimensionless shape coefficients; |beta| > 5 is suspicious.

    Kept as the type of ``ik_optim.FitResult.beta`` (the benchmark reads
    ``result.beta.beta``) and for its soft-bound warning."""

    beta: np.ndarray = field(default_factory=lambda: np.zeros(SHAPE_DIM))

    def __post_init__(self):
        self.beta = as_array(self.beta, SHAPE_DIM, "beta")
        if np.abs(self.beta).max(initial=0.0) > 5.0:
            warnings.warn("shape coefficients exceed the soft bound |beta| <= 5",
                          stacklevel=2)


@dataclass
class Skeleton:
    """21 joint positions, millimeters.

    Kept as ``regress_joints``' result, which the benchmark reads and traces
    by name."""

    joints: np.ndarray

    def __post_init__(self):
        self.joints = as_array(self.joints, (kin.JOINT_COUNT, 3), "joints")


@dataclass(frozen=True)
class HandModel:
    """Rest template, blendshape bases, joint regressor, and skinning data.

    Immutable: construction copies every array and marks it read-only, so
    the constants in ``tensors`` can never go stale, and every operation on
    a model is a pure function that concurrent readers may share.
    """

    rest_vertices: np.ndarray       # (V, 3) mm
    shape_basis: np.ndarray         # (10, V, 3) mm per unit beta
    joint_regressor: np.ndarray     # (21, V), rows sum to 1
    skinning_weights: np.ndarray    # (V, 16), rows sum to 1
    parents: np.ndarray             # (21,) with parents[0] == -1
    faces: np.ndarray               # (F, 3) triangle indices
    pose_basis: np.ndarray | None = None  # (135, V, 3) mm, optional

    def __post_init__(self):
        faces = np.asarray(self.faces, dtype=np.int64)
        if faces.size % 3:
            raise ShapeError("faces must hold index triples")
        for name, value, dtype in (
                ("rest_vertices", self.rest_vertices, float),
                ("shape_basis", self.shape_basis, float),
                ("joint_regressor", self.joint_regressor, float),
                ("skinning_weights", self.skinning_weights, float),
                ("parents", np.reshape(self.parents, -1), np.int64),
                ("faces", faces.reshape(-1, 3), np.int64),
                ("pose_basis", self.pose_basis, float)):
            if value is not None:
                value = np.array(value, dtype=dtype)
                value.flags.writeable = False
                object.__setattr__(self, name, value)

    @cached_property
    def tensors(self) -> kin.ModelTensors:
        """FK constants and the axis table, derived on first use."""
        return kin.ModelTensors.build(self)

    @property
    def vertex_count(self) -> int:
        return self.rest_vertices.shape[0]

    @property
    def joint_count(self) -> int:
        return self.joint_regressor.shape[0]

    def validate(self) -> None:
        if self.rest_vertices.ndim != 2 or self.rest_vertices.shape[1] != 3:
            raise ShapeError("rest_vertices must have shape (V, 3)")
        v = self.vertex_count
        if self.shape_basis.shape != (SHAPE_DIM, v, 3):
            raise ShapeError(f"shape_basis must have shape ({SHAPE_DIM}, V, 3)")
        if self.joint_regressor.shape != (kin.JOINT_COUNT, v):
            raise ShapeError(f"joint_regressor must have shape ({kin.JOINT_COUNT}, V)")
        if self.skinning_weights.shape != (v, kin.ARTICULATED_COUNT):
            raise ShapeError(
                f"skinning_weights must have shape (V, {kin.ARTICULATED_COUNT})")
        if self.parents.shape != (kin.JOINT_COUNT,):
            raise ShapeError("parents must list one entry per joint")
        if self.pose_basis is not None and self.pose_basis.shape != (
                kin.POSE_BASIS_SIZE, v, 3):
            raise ShapeError(
                f"pose_basis must have shape ({kin.POSE_BASIS_SIZE}, V, 3)")
        if (self.skinning_weights < -_WEIGHT_TOL).any():
            raise ShapeError("skinning weights must be nonnegative")
        if (self.joint_regressor < -_WEIGHT_TOL).any():
            raise ShapeError("joint regressor must be nonnegative")
        if np.abs(self.skinning_weights.sum(axis=1) - 1.0).max() > _WEIGHT_TOL:
            raise ShapeError("skinning weight rows must sum to 1")
        if np.abs(self.joint_regressor.sum(axis=1) - 1.0).max() > _WEIGHT_TOL:
            raise ShapeError("joint regressor rows must sum to 1")
        if not np.array_equal(self.parents, kin.PARENTS):
            raise ShapeError("parents must be kinematics.PARENTS, the one tree "
                             "the kinematics poses")
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= v):
            raise ShapeError("face indices out of range")


# ---------------------------------------------------------------------------
# joint regression
# ---------------------------------------------------------------------------

def regress_joints(model: HandModel, vertices: np.ndarray) -> Skeleton:
    """Joint regressor applied to arbitrary (V, 3) mesh vertices (kept for
    the benchmark, which calls and traces it by name)."""
    return Skeleton(model.joint_regressor @ as_array(
        vertices, (model.vertex_count, 3), "mesh vertices"))


# ---------------------------------------------------------------------------
# procedural desk hand
# ---------------------------------------------------------------------------

# (mcp_x, mcp_y), phalanx lengths (proximal, middle, distal), joint radii.
# Finger order matches kinematics.FINGERS: thumb, index, middle, ring, little.
_FINGER_SPEC = (
    ((30.0, 42.0), (34.0, 28.0, 23.0), (9.5, 8.0, 7.0, 6.0)),
    ((88.0, 24.0), (42.0, 25.0, 22.0), (8.5, 7.0, 6.0, 5.0)),
    ((94.0, 8.0), (46.0, 28.0, 24.0), (8.5, 7.0, 6.0, 5.0)),
    ((88.0, -9.0), (42.0, 26.0, 22.0), (8.0, 6.5, 5.5, 4.5)),
    ((80.0, -26.0), (33.0, 20.0, 18.0), (7.5, 6.0, 5.0, 4.0)),
)
_WRIST_RADIUS = 17.0


def _desk_rest_joints() -> np.ndarray:
    joints = np.zeros((kin.JOINT_COUNT, 3))
    for f, (mcp, lengths, _) in enumerate(_FINGER_SPEC):
        mcp = np.array([mcp[0], mcp[1], 0.0])
        direction = mcp / np.linalg.norm(mcp)
        pos = mcp
        joints[kin.finger_joint(f, 0)] = pos
        for p, length in enumerate(lengths):
            pos = pos + length * direction
            joints[kin.finger_joint(f, p + 1)] = pos
    return joints


def _ring(center, direction, radius, count):
    """Vertex ring of given radius in the plane perpendicular to direction."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    n1 = np.array([0.0, 0.0, 1.0])
    n2 = np.cross(direction, n1)
    n2 = n2 / np.linalg.norm(n2)
    angles = 2.0 * np.pi * np.arange(count) / count
    return (center[None, :]
            + radius * (np.cos(angles)[:, None] * n1[None, :]
                        + np.sin(angles)[:, None] * n2[None, :]))


def make_desk_hand(ring_size: int = 6, interior_rings: int = 3,
                   palm_rows: int = 12, palm_cols: int = 12,
                   arc_extra: int = 4) -> HandModel:
    """Procedural hand model lying flat in the z=0 plane, palm normal +Z.

    Fingers radiate from the wrist at the origin along +X with a per-finger
    splay.  Every joint carries a dedicated vertex ring whose centroid is the
    joint itself, so the regressor (uniform over each ring) reproduces the
    designed joint positions exactly, at rest and under skinning.  Defaults
    give the documented 778-vertex / 21-joint configuration.
    """
    joints = _desk_rest_joints()
    col_of = {j: s for s, j in enumerate(kin.ARTICULATED)}

    verts: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    ring_start = np.zeros(kin.JOINT_COUNT, dtype=int)
    faces: list[tuple[int, int, int]] = []

    def one_hot(col):
        w = np.zeros(kin.ARTICULATED_COUNT)
        w[col] = 1.0
        return w

    def add_ring(ring_verts, w):
        start = len(verts)
        for rv in ring_verts:
            verts.append(rv)
            weights.append(w)
        return start

    def connect(start_a, start_b):
        for i in range(ring_size):
            j = (i + 1) % ring_size
            faces.append((start_a + i, start_a + j, start_b + i))
            faces.append((start_a + j, start_b + j, start_b + i))

    # Wrist ring, oriented along +X.
    ring_start[0] = add_ring(_ring(joints[0], np.array([1.0, 0.0, 0.0]),
                                   _WRIST_RADIUS, ring_size), one_hot(0))

    # Finger joint rings: each bound rigidly to its driving articulated joint
    # (tips to their DIP) so skinned ring centroids track the chained joints.
    for f, (_, _, radii) in enumerate(_FINGER_SPEC):
        for p in range(4):
            j = kin.finger_joint(f, p)
            direction = (joints[j] - joints[kin.PARENTS[j]])
            col = col_of[j] if p < 3 else col_of[kin.finger_joint(f, 2)]
            ring_start[j] = add_ring(_ring(joints[j], direction, radii[p], ring_size),
                                     one_hot(col))

    # Interior rings along every bone, blending toward the child joint.
    for parent, child in kin.BONES:
        p_radius = (_WRIST_RADIUS if parent == 0
                    else _FINGER_SPEC[(parent - 1) // 4][2][(parent - 1) % 4])
        c_radius = _FINGER_SPEC[(child - 1) // 4][2][(child - 1) % 4]
        # driving joints of this segment: its parent-side articulated joint
        # and (unless the child is a tip) the child joint
        col_a = col_of[parent]
        col_b = col_of.get(child, col_a)
        prev_start = ring_start[parent]
        for r in range(interior_rings):
            t = (r + 1) / (interior_rings + 1)
            center = (1 - t) * joints[parent] + t * joints[child]
            radius = (1 - t) * p_radius + t * c_radius
            s = max(0.0, t - 0.5)
            w = np.zeros(kin.ARTICULATED_COUNT)
            w[col_a] += 1.0 - s
            w[col_b] += s
            direction = joints[child] - joints[parent]
            start = add_ring(_ring(center, direction, radius, ring_size), w)
            connect(prev_start, start)
            prev_start = start
        connect(prev_start, ring_start[child])

    # Palm: two parallel sheets spanning wrist to the index..little knuckles.
    mcps = joints[[kin.finger_joint(f, 0) for f in (1, 2, 3, 4)]]
    base_left = np.array([5.0, 30.0, 0.0])
    base_right = np.array([5.0, -30.0, 0.0])
    hat_pos = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    for z in (6.0, -7.0):
        sheet_start = len(verts)
        for iu in range(palm_rows):
            u = iu / max(palm_rows - 1, 1)
            for iv in range(palm_cols):
                v = iv / max(palm_cols - 1, 1)
                base = (1 - v) * base_left + v * base_right
                kn = np.array([np.interp(v, hat_pos, mcps[:, k]) for k in range(3)])
                point = (1 - u) * base + u * kn + np.array([0.0, 0.0, z])
                w = np.zeros(kin.ARTICULATED_COUNT)
                w[0] = 1.0 - 0.5 * u
                spread = 0.5 * u * np.maximum(
                    0.0, 1.0 - 3.0 * np.abs(v - hat_pos))
                total = spread.sum()
                if total > 0:
                    spread *= 0.5 * u / total
                for fi, share in enumerate(spread):
                    w[col_of[kin.finger_joint(fi + 1, 0)]] += share
                w[0] += 0.5 * u - spread.sum()
                verts.append(point)
                weights.append(w)
        for iu in range(palm_rows - 1):
            for iv in range(palm_cols - 1):
                a = sheet_start + iu * palm_cols + iv
                b = a + 1
                c = a + palm_cols
                d = c + 1
                faces.append((a, b, c))
                faces.append((b, d, c))

    # Wrist arc filler keeps the default configuration at exactly 778 vertices.
    for i in range(arc_extra):
        angle = np.pi * 0.75 + 0.5 * np.pi * i / max(arc_extra - 1, 1)
        verts.append(np.array([20.0 * np.cos(angle), 20.0 * np.sin(angle), 0.0]))
        weights.append(one_hot(0))

    rest = np.array(verts)
    skin = np.array(weights)
    nverts = len(rest)

    regressor = np.zeros((kin.JOINT_COUNT, nverts))
    for j in range(kin.JOINT_COUNT):
        regressor[j, ring_start[j]:ring_start[j] + ring_size] = 1.0 / ring_size

    model = HandModel(
        rest_vertices=rest,
        shape_basis=_desk_shape_basis(rest),
        joint_regressor=regressor,
        skinning_weights=skin,
        parents=np.array(kin.PARENTS),
        faces=np.array(faces, dtype=np.int64),
    )
    model.validate()
    return model


def make_desk_hand_small() -> HandModel:
    """Reduced desk hand (fewer vertices) for fast test sweeps."""
    return make_desk_hand(ring_size=4, interior_rings=1, palm_rows=5,
                          palm_cols=5, arc_extra=0)


def _desk_shape_basis(rest: np.ndarray) -> np.ndarray:
    """Ten smooth, linearly independent offset maps (mm per unit beta)."""
    nverts = rest.shape[0]
    basis = np.zeros((SHAPE_DIM, nverts, 3))
    r = np.hypot(rest[:, 0], rest[:, 1])
    safe_r = np.where(r < 1.0, 1.0, r)
    radial = rest.copy()
    radial[:, 2] = 0.0
    radial /= safe_r[:, None]

    basis[0] = 0.05 * rest                                  # overall scale
    basis[1] = (3.0 * np.clip((r - 40.0) / 60.0, 0.0, 1.5))[:, None] * radial
    basis[2][:, 1] = 0.06 * rest[:, 1]                      # breadth
    basis[2][:, 2] = 0.15 * rest[:, 2]                      # thickness
    basis[3][:, 1] = 0.05 * rest[:, 1] * np.clip((80.0 - r) / 80.0, 0.0, 1.0)
    for i in range(4, SHAPE_DIM):
        phase = 0.7 * i
        axis = i % 3
        basis[i][:, axis] = 1.2 * np.sin(rest[:, 0] / 22.0 + phase) * np.cos(
            rest[:, 1] / 17.0 - phase)
    return basis


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def save_model(model: HandModel, path, text: bool = False) -> None:
    """Write the self-describing model container (binary or plain text)."""
    header = {
        "kind": "hand_model",
        "units": "mm",
        "vertex_count": int(model.vertex_count),
        "joint_count": int(model.joint_count),
        "articulated_count": kin.ARTICULATED_COUNT,
        "has_pose_basis": model.pose_basis is not None,
    }
    arrays = {
        "rest_vertices": model.rest_vertices.astype(np.float32),
        "shape_basis": model.shape_basis.astype(np.float32),
        "joint_regressor": model.joint_regressor.astype(np.float32),
        "skinning_weights": model.skinning_weights.astype(np.float32),
        "parents": model.parents.astype(np.int32),
        "faces": model.faces.astype(np.int32),
    }
    if model.pose_basis is not None:
        arrays["pose_basis"] = model.pose_basis.astype(np.float32)
    write_container(path, header, arrays, text=text)


def load_model(path) -> HandModel:
    _, arrays = read_container(path, kind="hand_model")
    model = HandModel(
        rest_vertices=arrays["rest_vertices"],
        shape_basis=arrays["shape_basis"],
        joint_regressor=arrays["joint_regressor"],
        skinning_weights=arrays["skinning_weights"],
        parents=arrays["parents"],
        faces=arrays.get("faces", np.zeros((0, 3), dtype=np.int64)),
        pose_basis=arrays.get("pose_basis"),
    )
    model.validate()
    return model


def write_obj(vertices: np.ndarray, faces: np.ndarray, path) -> None:
    """Wavefront OBJ of (V, 3) vertices in mm and (F, 3) 0-based faces:
    1-based face indices, stable formatting."""
    lines = []
    for v in vertices:
        lines.append("v {} {} {}".format(*(format(c, ".9g") for c in v)))
    for f in faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# MANO-layout conversion
# ---------------------------------------------------------------------------

# MANO stores fingers as index, middle, little, ring, thumb in its kinematic
# table; tip markers come from dedicated mesh vertices.
_MANO_FINGER_OF = {"index": 1, "middle": 2, "little": 3, "ring": 4, "thumb": 5}
_MANO_TIP_VERTICES = (745, 333, 444, 555, 672)  # thumb..little


def from_mano_arrays(v_template, shapedirs, j_regressor, weights, faces,
                     posedirs=None, tip_vertices=_MANO_TIP_VERTICES,
                     unit: str = "m") -> HandModel:
    """Convert MANO-layout arrays (16-joint regressor, meters) to a HandModel.

    Inputs follow the published layout: v_template (778, 3), shapedirs
    (778, 3, 10), j_regressor (16, 778), weights (778, 16), posedirs optional
    (778, 3, 135).  Joints are reordered to this package's thumb-first order
    and tip markers are appended as one-hot regressor rows.
    """
    if unit not in ("m", "mm"):
        raise InputError("unit must be 'm' or 'mm'")
    scale = 1000.0 if unit == "m" else 1.0
    v_template = np.asarray(v_template, dtype=float) * scale
    shapedirs = np.asarray(shapedirs, dtype=float) * scale
    j_regressor = np.asarray(j_regressor, dtype=float)
    weights = np.asarray(weights, dtype=float)
    nverts = v_template.shape[0]
    if j_regressor.shape != (16, nverts) or weights.shape != (nverts, 16):
        raise ShapeError("regressor/weights do not match the MANO layout")
    if not all(0 <= index < nverts for index in tip_vertices):
        raise ShapeError(f"tip vertices {tip_vertices} must index {nverts} vertices")

    # source joint index (in the 16-joint MANO order) for each of our
    # articulated slots: wrist, then MCP/PIP/DIP per finger in our order
    mano_slot = [0]
    for finger in kin.FINGERS:
        base = 3 * (_MANO_FINGER_OF[finger] - 1) + 1
        mano_slot.extend([base, base + 1, base + 2])

    regressor = np.zeros((kin.JOINT_COUNT, nverts))
    regressor[0] = j_regressor[0]
    for f in range(5):
        for p in range(3):
            regressor[kin.finger_joint(f, p)] = j_regressor[mano_slot[1 + 3 * f + p]]
        regressor[kin.finger_joint(f, 3), tip_vertices[f]] = 1.0

    skin = weights[:, mano_slot]
    shape_basis = np.transpose(shapedirs, (2, 0, 1))

    pose_basis = None
    if posedirs is not None:
        posedirs = np.asarray(posedirs, dtype=float) * scale
        pose_basis = np.zeros((kin.POSE_BASIS_SIZE, nverts, 3))
        for ours, theirs in enumerate(mano_slot[1:]):
            src = slice(9 * (theirs - 1), 9 * theirs)
            dst = slice(9 * ours, 9 * (ours + 1))
            pose_basis[dst] = np.transpose(posedirs[:, :, src], (2, 0, 1))

    model = HandModel(
        rest_vertices=v_template,
        shape_basis=shape_basis,
        joint_regressor=regressor,
        skinning_weights=skin,
        parents=np.array(kin.PARENTS),
        faces=np.asarray(faces, dtype=np.int64),
        pose_basis=pose_basis,
    )
    model.validate()
    return model

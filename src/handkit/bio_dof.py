"""The biomechanically feasible 23-DoF pose space and its expansion to the
45-value articulation vector.

Each of index/middle/ring/little gets 4 DoF (MCP flexion, MCP abduction, PIP
flexion, DIP flexion); the thumb gets 7 (rotation/abduction/flexion at MCP
and PIP, flexion at DIP).  Expansion is additive in the axis-angle vector:
the per-joint vector is the sum of angle * axis terms, which keeps the map
linear in the 23 angles and guarantees the finger joints never acquire a
twist component.  For large combined angles this differs from composing the
per-axis rotations as matrices; the additive convention is the documented
choice.

Axes are derived from a model's rest pose: the twist axis follows the bone
leaving the joint, the abduction axis is the palm normal projected
perpendicular to it, and the flexion axis completes the right-handed triplet
(twist x abd).  Positive flexion therefore bends the finger toward the palm
normal.  The axis table is the (45, 23) expansion matrix E itself: column c
holds DoF c's axis in the three rows of its joint.  Joint limits are data,
not code: defaults below, loadable from a plain-text config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kinematics as kin
from .errors import InputError, NumericError, as_array
from .hand_model import HandModel

_FINGER_DOFS = ("mcp_flex", "mcp_abd", "pip_flex", "dip_flex")
_THUMB_DOFS = ("mcp_rot", "mcp_abd", "mcp_flex",
               "pip_rot", "pip_abd", "pip_flex", "dip_flex")

#: (dof name, articulated-joint slot 0..14, axis kind) in 23-vector order
DOF_SPECS: tuple[tuple[str, int, str], ...] = tuple(
    [(f"{finger}_{dof}", 3 * fi + {"mcp": 0, "pip": 1, "dip": 2}[dof.split("_")[0]],
      dof.split("_")[1])
     for finger, fi in (("index", 1), ("middle", 2), ("ring", 3), ("little", 4))
     for dof in _FINGER_DOFS]
    + [(f"thumb_{dof}", 0 + {"mcp": 0, "pip": 1, "dip": 2}[dof.split("_")[0]],
        {"rot": "twist"}.get(dof.split("_")[1], dof.split("_")[1])) for dof in _THUMB_DOFS]
)
DOF_NAMES = tuple(name for name, _, _ in DOF_SPECS)
DOF_COUNT = len(DOF_SPECS)  # 23
_ORTHONORMAL_TOL = 1e-9
_FRAME_ROW = {"flex": 0, "abd": 1, "twist": 2}

_DEFAULT_FINGER_LIMITS = {
    "mcp_flex": (-0.3, 1.6),
    "mcp_abd": (-0.35, 0.35),
    "pip_flex": (0.0, 1.9),
    "dip_flex": (0.0, 1.6),
}
_DEFAULT_THUMB_LIMITS = {
    "mcp_rot": (-0.6, 0.6),
    "mcp_abd": (-0.6, 0.6),
    "mcp_flex": (-0.3, 1.6),
    "pip_rot": (-0.6, 0.6),
    "pip_abd": (-0.6, 0.6),
    "pip_flex": (-0.3, 1.6),
    "dip_flex": (0.0, 1.6),
}


@dataclass
class BioPose:
    """The 23 feasible angles, radians, in DOF_NAMES order.

    Kept as the type of ``ik_optim.FitResult.bio`` (the benchmark reads
    ``result.bio.values``)."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(DOF_COUNT))

    def __post_init__(self):
        self.values = as_array(self.values, DOF_COUNT, "BioPose values")


@dataclass
class DofLimits:
    """Per-DoF [min, max] intervals, radians; rest pose is always inside."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, which uniform sampling would reject
        self.lower = as_array(self.lower, DOF_COUNT, "lower limits") + 0.0
        self.upper = as_array(self.upper, DOF_COUNT, "upper limits") + 0.0
        if (self.lower > 0).any() or (self.upper < 0).any():
            raise InputError("every interval must contain 0 (rest pose feasible)")
        if (self.lower < -np.pi).any() or (self.upper > np.pi).any():
            raise InputError("joint limits must lie within [-pi, pi]")

    @classmethod
    def default(cls) -> "DofLimits":
        lower = np.zeros(DOF_COUNT)
        upper = np.zeros(DOF_COUNT)
        for i, name in enumerate(DOF_NAMES):
            finger, dof = name.split("_", 1)
            table = _DEFAULT_THUMB_LIMITS if finger == "thumb" else _DEFAULT_FINGER_LIMITS
            lower[i], upper[i] = table[dof]
        return cls(lower, upper)

    def save(self, path) -> None:
        lines = [f"{name} = {format(lo, '.9g')} {format(hi, '.9g')}"
                 for name, lo, hi in zip(DOF_NAMES, self.lower, self.upper)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "DofLimits":
        bounds = {}
        for raw in Path(path).read_text(errors="replace").splitlines():
            name, _, rest = raw.split("#", 1)[0].partition("=")
            name = name.strip()
            if not (name or rest.strip()):
                continue
            try:
                lo, hi = (float(v) for v in rest.split())
            except ValueError as exc:
                raise InputError(f"{path}: bad limits line: {raw!r}") from exc
            if name not in DOF_NAMES or not np.isfinite([lo, hi]).all():
                raise InputError(f"{path}: bad limits line: {raw!r}")
            if name in bounds:
                raise InputError(f"{path}: {name} is limited twice")
            bounds[name] = lo, hi
        missing = [name for name in DOF_NAMES if name not in bounds]
        if missing:
            raise InputError(f"{path}: limits file missing entries: {missing}")
        lower, upper = np.array([bounds[name] for name in DOF_NAMES]).T
        return cls(lower, upper)


def derive_axes(model: HandModel) -> np.ndarray:
    """The model's axis table, derived once per model (``model.tensors``)."""
    return model.tensors.axes


def axes_from_rest_joints(joints: np.ndarray) -> np.ndarray:
    """The axis table of a model's (21, 3) rest joints: the read-only (45, 23)
    expansion matrix E, articulation = E @ bio23.

    Column c holds DoF c's unit axis in the three rows of its joint slot.
    Per slot, twist follows the bone leaving the joint; the palm normal comes
    from the wrist / index-MCP / little-MCP plane; abd is the palm normal
    projected orthogonal to twist; flex = twist x abd.  Gram-Schmidt keeps
    the (flex, abd, twist) frames orthonormal regardless of model geometry,
    and unit vectors make the table invariant to uniform scaling.
    """
    joints = as_array(joints, (kin.JOINT_COUNT, 3), "joints")
    wrist = joints[0]
    index_mcp = joints[kin.finger_joint(1, 0)]
    little_mcp = joints[kin.finger_joint(4, 0)]
    normal = np.cross(little_mcp - wrist, index_mcp - wrist)
    norm = np.linalg.norm(normal)
    if norm < 1e-9:
        raise NumericError("wrist and MCP joints are collinear")
    normal = normal / norm

    frames = np.zeros((15, 3, 3))   # per slot: flex, abd, twist rows
    for fi in range(5):
        for part in range(3):
            joint = kin.finger_joint(fi, part)
            bone = joints[joint + 1] - joints[joint]
            length = np.linalg.norm(bone)
            if length < 1e-9:
                raise NumericError(
                    f"zero-length bone at {kin.JOINT_NAMES[joint]}")
            t = bone / length
            a = normal - np.dot(normal, t) * t
            a_norm = np.linalg.norm(a)
            if a_norm < 1e-9:
                raise NumericError(
                    f"bone at {kin.JOINT_NAMES[joint]} is parallel to the palm normal")
            a = a / a_norm
            frames[3 * fi + part] = np.cross(t, a), a, t
    gram = frames @ frames.swapaxes(1, 2)   # the identity per slot
    if np.abs(gram - np.eye(3)).max() > _ORTHONORMAL_TOL:
        raise NumericError("flex, abd and twist axes are not orthonormal")

    table = np.zeros((kin.ARTICULATION_SIZE, DOF_COUNT))
    for col, (_, slot, kind) in enumerate(DOF_SPECS):
        table[3 * slot:3 * slot + 3, col] = frames[slot, _FRAME_ROW[kind]]
    table.flags.writeable = False
    return table


def expand_batch(bio_values: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """23 feasible angles -> 45 articulation values, linear (0 maps to 0):
    (B, 23) -> (B, 45), and a (23,) row -> a (45,) row."""
    return np.asarray(bio_values, dtype=float) @ axes.T


def clamp(bio: BioPose, limits: DofLimits) -> BioPose:
    """Project onto the feasible box (idempotent)."""
    return BioPose(np.clip(bio.values, limits.lower, limits.upper))


def is_feasible(bio: BioPose, limits: DofLimits) -> bool:
    """True iff clamp leaves the pose unchanged."""
    return bool(((bio.values >= limits.lower) & (bio.values <= limits.upper)).all())


def sample_uniform(limits: DofLimits, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform feasible draws, shape (count, 23)."""
    return rng.uniform(limits.lower, limits.upper, size=(count, DOF_COUNT))

"""Synthetic diversity generation: camera poses on the unit sphere around the
hand and pose augmentation by swapping whole-finger articulation blocks.

Camera grid convention: elevations span [-pi/3, pi/2] inclusive of both ends
and azimuths span [0, 2*pi) exclusive of the wrap, both at pi/36 steps.
With the defaults that is 31 x 72 = 2232 camera positions (and 32 random
draws per position gives 71424 samples).  The sphere point for (elevation e,
azimuth a) is (cos e cos a, sin e, cos e sin a) with +Y up, so (0, 0) maps
to (1, 0, 0).

``augment_library`` treats each finger's articulation (3 joints x 3 values
= 9 consecutive entries of the 45-vector) as an independent block: each
variant copies a random subset of its fingers' blocks from one donor pose,
drawn reproducibly from the seed.

Projection takes (..., 21, 3) joints through one look-at camera to
(..., 21, 2) pixels in one broadcast; one (21, 3) skeleton is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bio_dof, kinematics as kin
from .containers import read_container, write_container
from .errors import InputError, NumericError, as_array, as_number, batch_row

#: every camera looks at the origin with +Y up; at the elevation poles, where
#: the view is parallel to +Y, the +X hint keeps the frame defined
WORLD_UP = (0.0, 1.0, 0.0)
POLE_HINT = (1.0, 0.0, 0.0)
DEFAULT_ELEV_MIN = -np.pi / 3.0
DEFAULT_ELEV_MAX = np.pi / 2.0
DEFAULT_STEP = np.pi / 36.0
#: most cameras one grid may hold (the default grid has 2232); the count is
#: checked before any ``CameraPose`` is built
MAX_CAMERAS = 100_000
SAMPLES_PER_CAMERA = 32
BASE_LIBRARY_SIZE = 895
DEFAULT_VARIANTS_PER_POSE = 64
#: the most poses ``make_pose_library`` draws and ``augment_library`` writes:
#: ten times the paper's 895 base poses and their 895 x 64 = 57,280 variants;
#: both are checked before any array is built
MAX_LIBRARY_SIZE = 10 * BASE_LIBRARY_SIZE
MAX_AUGMENTED_POSES = 10 * BASE_LIBRARY_SIZE * DEFAULT_VARIANTS_PER_POSE

#: 9-value articulation block owned by each finger
FINGER_SLICES = {name: slice(9 * fi, 9 * (fi + 1))
                 for fi, name in enumerate(kin.FINGERS)}


@dataclass
class CameraPose:
    """A viewpoint on the unit sphere looking at the origin (the wrist),
    fixed by its two angles."""

    elevation: float
    azimuth: float

    def __post_init__(self):
        self.elevation = as_number(self.elevation, "camera elevation")
        self.azimuth = as_number(self.azimuth, "camera azimuth")

    @cached_property
    def position(self) -> np.ndarray:
        """The read-only unit (3,) ``sphere_point`` of the angles, on first use."""
        point = sphere_point(self.elevation, self.azimuth)
        point.flags.writeable = False
        return point


def sphere_point(elevation: float, azimuth: float) -> np.ndarray:
    """(cos e cos a, sin e, cos e sin a) for elevation e and azimuth a, as a
    (3,) array worked out on Python floats."""
    cos_e = math.cos(elevation)
    return np.array([cos_e * math.cos(azimuth), math.sin(elevation),
                     cos_e * math.sin(azimuth)])


def sample_cameras(elev_min: float = DEFAULT_ELEV_MIN,
                   elev_max: float = DEFAULT_ELEV_MAX,
                   azim_step: float = DEFAULT_STEP,
                   elev_step: float = DEFAULT_STEP) -> list[CameraPose]:
    """Regular camera grid; defaults give exactly 31 x 72 = 2232 poses.

    A grid with no camera or more than ``MAX_CAMERAS`` raises ``InputError``.
    """
    elev_min = as_number(elev_min, "elev_min")
    elev_max = as_number(elev_max, "elev_max", elev_min)
    azim_step = as_number(azim_step, "azim_step", above=0)
    elev_step = as_number(elev_step, "elev_step", above=0)
    # float counts first: a tiny step gives inf, which int() cannot take
    n_elev = np.rint((elev_max - elev_min) / elev_step) + 1
    n_azim = np.rint(2.0 * np.pi / azim_step)
    if not 1 <= n_elev * n_azim <= MAX_CAMERAS:
        raise InputError(f"camera grid of {n_elev:.3g} x {n_azim:.3g} positions is "
                         f"outside 1..{MAX_CAMERAS}")
    elevations = (elev_min + np.arange(int(n_elev)) * elev_step).tolist()
    azimuths = (np.arange(int(n_azim)) * azim_step).tolist()
    return [CameraPose(elevation=elevation, azimuth=azimuth)
            for elevation in elevations for azimuth in azimuths]


def cameras_to_text(cams: list[CameraPose]) -> str:
    """Delimiter-separated export: elevation, azimuth, x, y, z."""
    lines = ["elevation,azimuth,x,y,z"]
    for cam in cams:
        fields = [cam.elevation, cam.azimuth, *cam.position]
        lines.append(",".join(format(v, ".9g") for v in fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pose library
# ---------------------------------------------------------------------------

@dataclass
class PoseLibrary:
    """Base articulations (N, 45)."""

    poses: np.ndarray

    def __post_init__(self):
        self.poses = as_array(self.poses, (None, kin.ARTICULATION_SIZE), "poses")

    def __len__(self):
        return len(self.poses)


def make_pose_library(model, count: int = BASE_LIBRARY_SIZE,
                      limits: bio_dof.DofLimits | None = None,
                      seed: int = 0) -> PoseLibrary:
    """Seeded stand-in base library of feasible articulations.

    The loader (``load_pose_library``) accepts a real (N, 45) array container
    when one is available; this generator only fills its place.
    """
    count = as_number(count, "count", 1, MAX_LIBRARY_SIZE, integer=True)
    limits = limits or bio_dof.DofLimits.default()
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    axes = bio_dof.derive_axes(model)
    bio = bio_dof.sample_uniform(limits, count, rng)
    return PoseLibrary(bio_dof.expand_batch(bio, axes))


def augment_library(lib: PoseLibrary, per_pose: int = DEFAULT_VARIANTS_PER_POSE,
                    seed: int = 0, swap_probability: float = 0.5) -> PoseLibrary:
    """Grow the library |lib| * per_pose by seeded random finger swaps.

    Each variant picks a donor pose uniformly and swaps each finger with
    probability ``swap_probability`` (0 forces plain copies).  Variants are
    laid out base-major: rows [i * per_pose, (i + 1) * per_pose) derive from
    base pose i.  More than ``MAX_AUGMENTED_POSES`` rows, or a library longer
    than that, is ``InputError``.
    """
    if not 1 <= len(lib) <= MAX_AUGMENTED_POSES:
        raise InputError(f"a library of {len(lib)} poses is outside "
                         f"1..{MAX_AUGMENTED_POSES} (MAX_AUGMENTED_POSES)")
    per_pose = as_number(per_pose, f"per_pose of {len(lib)} poses", 1,
                         MAX_AUGMENTED_POSES // len(lib), integer=True)
    swap_probability = as_number(swap_probability, "swap_probability", 0, 1)
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    total = len(lib) * per_pose
    out = lib.poses[np.repeat(np.arange(len(lib)), per_pose)].copy()
    donors = lib.poses[rng.integers(len(lib), size=total)]
    masks = rng.random((total, len(kin.FINGERS))) < swap_probability
    for fi, name in enumerate(kin.FINGERS):
        block = FINGER_SLICES[name]
        rows = masks[:, fi]
        out[rows, block] = donors[rows, block]
    return PoseLibrary(out)


def save_pose_library(lib: PoseLibrary, path) -> None:
    write_container(path, {"kind": "pose_library"}, {"poses": lib.poses})


def load_pose_library(path) -> PoseLibrary:
    _, arrays = read_container(path, kind="pose_library")
    return PoseLibrary(arrays["poses"])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _cross(a, b) -> tuple[float, float, float]:
    """``np.cross`` of two 3-sequences of floats, in its operand order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def camera_frame(cam: CameraPose, radius_mm: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (world -> camera rows [right, down, forward]) and eye point.

    The camera sits at position * radius looking at the origin with
    ``WORLD_UP`` up (``POLE_HINT`` at the elevation poles); image y grows
    downward as usual for pixel coordinates.  The 3-vectors are worked out on
    Python floats, component by component: a numpy call on three values
    costs more than their arithmetic.
    """
    eye = [p * radius_mm for p in cam.position.tolist()]
    norm = math.hypot(*eye)
    fwd = [-e / norm for e in eye]
    right = _cross(fwd, WORLD_UP)
    norm = math.hypot(*right)
    if norm < 1e-9:
        right = _cross(fwd, POLE_HINT)
        norm = math.hypot(*right)
    right = [r / norm for r in right]
    return np.array([*right, *_cross(fwd, right), *fwd]).reshape(3, 3), np.array(eye)


def project(skeleton, cam: CameraPose, radius_mm: float,
            fx: float, fy: float, cx: float, cy: float) -> np.ndarray:
    """Pinhole projection of (..., 21, 3) joints through one camera; returns
    (..., 21, 2) pixel coordinates.  One (21, 3) skeleton is a batch of one
    and gives (21, 2).

    The look-at target projects to the principal point (cx, cy).  Raises
    InputError for non-finite joints, a radius <= 0 or non-finite intrinsics,
    ShapeError for joints that are not (..., 21, 3), and NumericError, naming
    the first batch row and joint, if any joint has non-positive camera depth.
    """
    joints = as_array(skeleton, (..., kin.JOINT_COUNT, 3), "joints")
    fx, fy, cx, cy = [as_number(v, "intrinsics") for v in (fx, fy, cx, cy)]
    rot, eye = camera_frame(cam, as_number(radius_mm, "radius_mm", above=0))
    cam_pts = (joints - eye) @ rot.T
    depth = cam_pts[..., 2:]
    # one reduction; as (depth <= 1e-9).any() would, it skips NaN and passes no rows
    if np.fmin.reduce(depth, axis=None, initial=np.inf) <= 1e-9:
        *row, joint = np.argwhere(depth[..., 0] <= 1e-9)[0].tolist()
        raise NumericError(f"{batch_row(row)}joint {joint} is at or behind the "
                           "camera plane")
    # (fx * x) / depth + cx: the same operations as cx + fx * x / depth
    return cam_pts[..., :2] * (fx, fy) / depth + (cx, cy)

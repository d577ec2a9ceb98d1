"""Synthetic diversity generation: camera poses on the unit sphere around the
hand and pose augmentation by swapping whole-finger articulation blocks.

Camera grid convention: elevations span [-pi/3, pi/2] inclusive of both ends
and azimuths span [0, 2*pi) exclusive of the wrap, both at pi/36 steps.
With the defaults that is 31 x 72 = 2232 camera positions (and 32 random
draws per position gives 71424 samples).  The sphere point for (elevation e,
azimuth a) is (cos e cos a, sin e, cos e sin a) with +Y up, so (0, 0) maps
to (1, 0, 0).

Finger swapping treats each finger's articulation (3 joints x 3 values = 9
consecutive entries of the 45-vector) as an independent block, replacing
selected blocks of one pose with another's.  The augmented library draws a
random finger subset and donor per variant, reproducibly from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bio_dof, kinematics as kin
from .containers import read_container, write_container
from .errors import InputError, NumericError, as_array, as_number

WORLD_UP = np.array([0.0, 1.0, 0.0])
DEFAULT_ELEV_MIN = -np.pi / 3.0
DEFAULT_ELEV_MAX = np.pi / 2.0
DEFAULT_STEP = np.pi / 36.0
#: most cameras one grid may hold (the default grid has 2232); the count is
#: checked before any ``CameraPose`` is built
MAX_CAMERAS = 100_000
SAMPLES_PER_CAMERA = 32
BASE_LIBRARY_SIZE = 895
DEFAULT_VARIANTS_PER_POSE = 64

#: 9-value articulation block owned by each finger
FINGER_SLICES = {name: slice(9 * fi, 9 * (fi + 1))
                 for fi, name in enumerate(kin.FINGERS)}


@dataclass
class CameraPose:
    """A viewpoint on the unit sphere looking at a target (wrist/origin)."""

    elevation: float
    azimuth: float
    position: np.ndarray                 # unit vector
    target: np.ndarray = field(default_factory=lambda: np.zeros(3))
    up: np.ndarray = field(default_factory=lambda: WORLD_UP.copy())

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        self.up = np.asarray(self.up, dtype=float)
        norm = np.linalg.norm(self.position)
        if abs(norm - 1.0) > 1e-9:
            raise InputError(f"camera position must be unit length, got {norm}")


def sphere_point(elevation: float, azimuth: float) -> np.ndarray:
    return np.array([np.cos(elevation) * np.cos(azimuth),
                     np.sin(elevation),
                     np.cos(elevation) * np.sin(azimuth)])


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
    n_elev, n_azim = int(n_elev), int(n_azim)
    cams = []
    for i in range(n_elev):
        elevation = elev_min + i * elev_step
        for j in range(n_azim):
            azimuth = j * azim_step
            cams.append(CameraPose(elevation=elevation, azimuth=azimuth,
                                   position=sphere_point(elevation, azimuth)))
    return cams


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
    """Base articulations (N, 45) with the per-finger block ownership map."""

    poses: np.ndarray

    def __post_init__(self):
        self.poses = as_array(self.poses, (None, kin.ARTICULATION_SIZE), "poses")

    def __len__(self):
        return len(self.poses)


def swap_fingers(a: np.ndarray, b: np.ndarray, fingers) -> np.ndarray:
    """Copy of ``a`` with the selected fingers' blocks replaced by ``b``'s.

    Unselected blocks are untouched bit-for-bit; swapping twice with the same
    mask restores ``a``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a.copy()
    for finger in fingers:
        if finger not in FINGER_SLICES:
            raise InputError(f"unknown finger {finger!r}")
        out[FINGER_SLICES[finger]] = b[FINGER_SLICES[finger]]
    return out


def make_pose_library(model, count: int = BASE_LIBRARY_SIZE,
                      limits: bio_dof.DofLimits | None = None,
                      seed: int = 0) -> PoseLibrary:
    """Seeded stand-in base library of feasible articulations.

    The loader (``load_pose_library``) accepts a real (N, 45) array container
    when one is available; this generator only fills its place.
    """
    count = as_number(count, "count", 1, integer=True)
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
    base pose i.
    """
    if len(lib) == 0:
        raise InputError("library is empty")
    per_pose = as_number(per_pose, "per_pose", 1, integer=True)
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
    write_container(path, {"kind": "pose_library", "count": len(lib)},
                    {"poses": lib.poses.astype(np.float32)})


def load_pose_library(path) -> PoseLibrary:
    _, arrays = read_container(path, kind="pose_library")
    return PoseLibrary(arrays["poses"])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def camera_frame(cam: CameraPose, radius_mm: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (world -> camera rows [right, down, forward]) and eye point.

    The camera sits at position * radius looking at the target with the +Y-up
    convention; image y grows downward as usual for pixel coordinates.  At
    the elevation poles, where the view direction is parallel to the up
    vector, a fixed +X up-hint keeps the frame defined.
    """
    eye = cam.position * radius_mm + cam.target
    fwd = cam.target - eye
    fwd = fwd / np.linalg.norm(fwd)
    up_hint = cam.up
    right = np.cross(fwd, up_hint)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])
    return rot, eye


def project(skeleton, cam: CameraPose, radius_mm: float,
            fx: float, fy: float, cx: float, cy: float) -> np.ndarray:
    """Pinhole projection of the 21 joints; returns (21, 2) pixel coordinates.

    The look-at target projects to the principal point (cx, cy).  Raises
    InputError for a radius <= 0 or non-finite intrinsics, and NumericError
    if any joint has non-positive camera depth.
    """
    joints = skeleton.joints if hasattr(skeleton, "joints") else \
        np.asarray(skeleton, dtype=float)
    fx, fy, cx, cy = (as_number(v, "intrinsics") for v in (fx, fy, cx, cy))
    rot, eye = camera_frame(cam, as_number(radius_mm, "radius_mm", above=0))
    cam_pts = (joints - eye) @ rot.T
    depth = cam_pts[:, 2]
    if (depth <= 1e-9).any():
        raise NumericError("joint at or behind the camera plane")
    u = cx + fx * cam_pts[:, 0] / depth
    v = cy + fy * cam_pts[:, 1] / depth
    return np.stack([u, v], axis=1)

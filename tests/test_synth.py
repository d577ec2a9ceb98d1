import dataclasses

import numpy as np
import pytest

from handkit import synth
from handkit.errors import InputError, NumericError
from handkit.synth import (CameraPose, PoseLibrary,
                           augment_library, camera_frame, cameras_to_text,
                           load_pose_library, make_pose_library, project,
                           sample_cameras, save_pose_library, sphere_point)


def look_at_oracle(eye, target, up, fx, fy, cx, cy, point):
    """Homogeneous-matrix pinhole projection composed step by step."""
    fwd = np.asarray(target, float) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, up)
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    view = np.eye(4)
    view[:3, :3] = np.stack([right, down, fwd])
    view[:3, 3] = -view[:3, :3] @ eye
    intr = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    h = view @ np.array([*point, 1.0])
    uvw = intr @ h[:3]
    return uvw[:2] / uvw[2]


def frame_oracle(cam, radius):
    """``camera_frame`` with numpy's vector calls; the +X hint at the poles."""
    eye = cam.position * radius
    fwd = -eye / np.linalg.norm(eye)
    right = np.cross(fwd, [0.0, 1.0, 0.0])
    pole = np.linalg.norm(right) < 1e-9
    if pole:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    return np.stack([right, np.cross(fwd, right), fwd]), eye, pole


# ---------------------------------------------------------------------------
# camera grid
# ---------------------------------------------------------------------------

def test_default_camera_grid_counts():
    cams = sample_cameras()
    assert len(cams) == 2232
    assert len(cams) * synth.SAMPLES_PER_CAMERA == 71424
    elevations = sorted({c.elevation for c in cams})
    azimuths = sorted({c.azimuth for c in cams})
    assert len(elevations) == 31
    assert len(azimuths) == 72
    assert elevations[0] == pytest.approx(-np.pi / 3)
    assert elevations[-1] == pytest.approx(np.pi / 2)
    assert azimuths[-1] < 2 * np.pi


def test_camera_convention_anchor():
    np.testing.assert_allclose(sphere_point(0.0, 0.0), [1.0, 0.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(sphere_point(np.pi / 2, 0.3), [0.0, 1.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(sphere_point(0.0, np.pi / 2), [0.0, 0.0, 1.0],
                               atol=1e-15)


def test_all_camera_positions_unit_norm():
    for cam in sample_cameras():
        assert abs(np.linalg.norm(cam.position) - 1.0) <= 1e-9


def test_cameras_with_equal_angles_compare_equal():
    cams, again = sample_cameras()[40:42], sample_cameras()[40:42]
    cams[0].position    # a derived position takes no part in equality
    assert cams == again
    assert cams[0] != cams[1]


def test_replace_moves_the_position_with_the_angles():
    cam = sample_cameras()[40]
    moved = dataclasses.replace(cam, elevation=0.7)
    assert moved.position.tobytes() == sphere_point(0.7, cam.azimuth).tobytes()
    assert cam.position.tobytes() == sphere_point(cam.elevation, cam.azimuth).tobytes()


def test_camera_position_is_read_only():
    with pytest.raises(ValueError):
        sample_cameras()[40].position[0] = 2.0


def test_cameras_text_export():
    text = cameras_to_text(sample_cameras())
    lines = text.splitlines()
    assert lines[0] == "elevation,azimuth,x,y,z"
    assert len(lines) == 2233


# ---------------------------------------------------------------------------
# library augmentation
# ---------------------------------------------------------------------------

def test_augment_sizes(desk, limits):
    lib = make_pose_library(desk, count=20, limits=limits, seed=1)
    out = augment_library(lib, per_pose=8, seed=2)
    assert len(out) == 160


def test_default_sizes_match_production_counts(desk, limits):
    lib = make_pose_library(desk, limits=limits, seed=1)
    assert len(lib) == 895
    assert len(lib) * synth.DEFAULT_VARIANTS_PER_POSE == 57280


def test_augment_zero_probability_copies(desk, limits):
    lib = make_pose_library(desk, count=12, limits=limits, seed=3)
    out = augment_library(lib, per_pose=1, seed=4, swap_probability=0.0)
    np.testing.assert_array_equal(out.poses, lib.poses)


@pytest.mark.parametrize("probability", [0.5, 1.0])
def test_augment_swaps_whole_blocks_from_one_donor(probability):
    """Each finger block of a variant is its base pose's block or a donor's,
    and all its swapped blocks come from one library row; at probability 1
    every variant is a whole library row."""
    lib = PoseLibrary(np.random.default_rng(8).normal(size=(10, 45)))
    per_pose = 16
    out = augment_library(lib, per_pose=per_pose, seed=9, swap_probability=probability)
    swapped = 0
    for r, row in enumerate(out.poses):
        base = lib.poses[r // per_pose]
        donors = set()
        for block in synth.FINGER_SLICES.values():
            if row[block].tobytes() != base[block].tobytes():
                rows = {j for j, pose in enumerate(lib.poses)
                        if row[block].tobytes() == pose[block].tobytes()}
                assert rows, f"variant {r} has a block from no library row"
                donors |= rows
                swapped += 1
        assert len(donors) <= 1, f"variant {r} mixes donors {sorted(donors)}"
        if probability == 1.0:
            assert any(row.tobytes() == pose.tobytes() for pose in lib.poses)
    assert swapped > 0


def test_augment_deterministic(desk, limits):
    lib = make_pose_library(desk, count=10, limits=limits, seed=5)
    a = augment_library(lib, per_pose=4, seed=6)
    b = augment_library(lib, per_pose=4, seed=6)
    assert a.poses.tobytes() == b.poses.tobytes()


def test_augment_rejects_empty():
    with pytest.raises(ValueError):
        augment_library(PoseLibrary(np.zeros((0, 45))))


def test_library_roundtrip(desk, limits, tmp_path):
    lib = make_pose_library(desk, count=7, limits=limits, seed=7)
    path = tmp_path / "lib.hkc"
    save_pose_library(lib, path)
    loaded = load_pose_library(path)
    np.testing.assert_allclose(loaded.poses, lib.poses, atol=1e-6)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_target_hits_principal_point():
    cam = CameraPose(0.3, 1.1)
    joints = np.zeros((21, 3))
    uv = project(joints, cam, 400.0, 500.0, 500.0, 128.0, 128.0)
    np.testing.assert_allclose(uv, np.full((21, 2), 128.0), atol=1e-9)


def test_project_mirrored_azimuths(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    joints[:, 2] = 0.0  # symmetric under z -> -z
    elevation, azimuth = 0.4, 0.9
    cam_a = CameraPose(elevation, azimuth)
    cam_b = CameraPose(elevation, -azimuth)
    ua = project(joints, cam_a, 400.0, 500.0, 500.0, 128.0, 128.0)
    ub = project(joints, cam_b, 400.0, 500.0, 500.0, 128.0, 128.0)
    np.testing.assert_allclose(ua[:, 0] + ub[:, 0], 256.0, atol=1e-9)
    np.testing.assert_allclose(ua[:, 1], ub[:, 1], atol=1e-9)


def test_project_matches_homogeneous_oracle(rng):
    for _ in range(10):
        elevation = rng.uniform(-1.0, 1.0)
        azimuth = rng.uniform(0, 2 * np.pi)
        cam = CameraPose(elevation, azimuth)
        joints = rng.normal(scale=40, size=(21, 3))
        radius = 500.0
        uv = project(joints, cam, radius, 480.0, 460.0, 120.0, 130.0)
        eye = cam.position * radius
        for k in range(21):
            expected = look_at_oracle(eye, np.zeros(3), np.array([0.0, 1.0, 0.0]),
                                      480.0, 460.0, 120.0, 130.0, joints[k])
            np.testing.assert_allclose(uv[k], expected, atol=1e-7)


def test_project_rejects_points_behind_camera():
    cam = CameraPose(0.0, 0.0)
    joints = np.zeros((21, 3))
    joints[:, 0] = 300.0  # beyond the camera at radius 200
    with pytest.raises(NumericError):
        project(joints, cam, 200.0, 500.0, 500.0, 128.0, 128.0)


@pytest.mark.parametrize("radius, intrinsics", [
    (0.0, (500.0, 500.0, 128.0, 128.0)), (-200.0, (500.0, 500.0, 128.0, 128.0)),
    (np.nan, (500.0, 500.0, 128.0, 128.0)), (400.0, (np.nan, 500.0, 128.0, 128.0)),
    (400.0, (500.0, 500.0, np.inf, 128.0)), (400.0, (500.0, "500", 128.0, 128.0)),
])
def test_project_rejects_bad_camera_geometry(radius, intrinsics):
    cam = CameraPose(0.3, 1.1)
    with pytest.raises(InputError):
        project(np.zeros((21, 3)), cam, radius, *intrinsics)


def test_project_pole_camera_is_defined(rng):
    cam = CameraPose(np.pi / 2, 0.0)
    joints = rng.normal(scale=20, size=(21, 3))
    uv = project(joints, cam, 400.0, 500.0, 500.0, 128.0, 128.0)
    assert np.isfinite(uv).all()


def test_camera_frame_matches_numpy_oracle():
    joints = np.random.default_rng(4).normal(scale=40, size=(21, 3))
    poles = 0
    for cam in sample_cameras():
        rot, eye = camera_frame(cam, 600.0)
        want_rot, want_eye, pole = frame_oracle(cam, 600.0)
        poles += pole
        np.testing.assert_allclose(rot, want_rot, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eye, want_eye, rtol=0, atol=1e-12)
        cam_pts = (joints - want_eye) @ want_rot.T
        want_uv = np.stack([128.0 + 500.0 * cam_pts[:, 0] / cam_pts[:, 2],
                            120.0 + 480.0 * cam_pts[:, 1] / cam_pts[:, 2]], axis=1)
        uv = project(joints, cam, 600.0, 500.0, 480.0, 128.0, 120.0)
        np.testing.assert_allclose(uv, want_uv, rtol=0, atol=1e-9)
    assert poles == 72      # every elevation pi/2 camera took the +X hint


def test_project_pixels_equal_the_broadcast_formula():
    """On every default camera, ``project`` gives the bytes of the plain
    broadcast formula it computes."""
    joints = np.random.default_rng(6).normal(scale=40, size=(3, 21, 3))
    for cam in sample_cameras():
        rot, eye = camera_frame(cam, 600.0)
        cam_pts = (joints - eye) @ rot.T
        want = cam_pts[..., :2] * (500.0, 480.0) / cam_pts[..., 2:] + (128.0, 120.0)
        uv = project(joints, cam, 600.0, 500.0, 480.0, 128.0, 120.0)
        assert uv.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [(5,), (2, 3)])
def test_project_batch_equals_per_skeleton_calls(rng, lead):
    joints = rng.normal(scale=40, size=lead + (21, 3))
    for cam in sample_cameras()[::97]:
        uv = project(joints, cam, 500.0, 480.0, 460.0, 120.0, 130.0)
        assert uv.shape == lead + (21, 2)
        for row in np.ndindex(*lead):
            one = project(joints[row], cam, 500.0, 480.0, 460.0, 120.0, 130.0)
            assert uv[row].tobytes() == one.tobytes()


@pytest.mark.parametrize("shape, where, message", [
    ((21, 3), (9,), "^joint 9 is"),
    ((4, 21, 3), (3, 7), "^batch row 3, joint 7 is"),
    ((2, 3, 21, 3), (1, 2, 5), r"^batch row \(1, 2\), joint 5 is"),
])
def test_project_behind_camera_error_names_row_and_joint(shape, where, message):
    cam = CameraPose(0.0, 0.0)
    joints = np.zeros(shape)
    joints[where + (0,)] = 300.0     # beyond the camera at radius 200
    joints[where[:-1] + (-1, 0)] = 400.0   # a later joint behind it too
    with pytest.raises(NumericError, match=message):
        project(joints, cam, 200.0, 500.0, 500.0, 128.0, 128.0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from handkit import bio_dof, kinematics as kin
from handkit.bio_dof import (BioPose, DofLimits, clamp, derive_axes,
                             expand_batch, is_feasible, sample_uniform)
from handkit.errors import InputError, NumericError
from handkit.hand_model import HandModel


FRAME_ROW = {"flex": 0, "abd": 1, "twist": 2}   # in an axes_oracle frame


def axes_oracle(model):
    """Recompute axes from raw joint coordinates with explicit dot/cross:
    slot -> its (flex, abd, twist) frame."""
    joints = model.tensors.J0
    w = joints[0]
    n = np.cross(joints[kin.finger_joint(4, 0)] - w,
                 joints[kin.finger_joint(1, 0)] - w)
    n = n / np.sqrt(n @ n)
    table = {}
    for fi in range(5):
        for part in range(3):
            j = kin.finger_joint(fi, part)
            bone = joints[j + 1] - joints[j]
            t = bone / np.sqrt(bone @ bone)
            a = n - (n @ t) * t
            a = a / np.sqrt(a @ a)
            f = np.cross(t, a)
            table[3 * fi + part] = (f, a, t)
    return table


def axis_column(axes, name):
    """The 3 rows of DoF ``name``'s column of the axis table: its axis."""
    col = bio_dof.DOF_NAMES.index(name)
    slot = bio_dof.DOF_SPECS[col][1]
    return axes[3 * slot:3 * slot + 3, col]


def test_axis_convention_on_plus_x_bone(desk, axes):
    # middle-finger bones run along a nearly +X radial with palm normal +Z
    direction = axes_oracle(desk)[3 * 2 + 0][FRAME_ROW["twist"]]  # middle MCP
    assert direction[2] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(axis_column(axes, "middle_mcp_abd"), [0.0, 0.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(axis_column(axes, "middle_mcp_flex"),
                               np.cross(direction, [0.0, 0.0, 1.0]), atol=1e-12)


def test_axes_orthonormal(axes):
    # one joint's axes share its three rows, so E^T E is the identity
    assert axes.shape == (45, 23)
    np.testing.assert_allclose(axes.T @ axes, np.eye(23), rtol=0, atol=1e-9)


def test_axes_match_raw_coordinate_oracle(desk, axes):
    table = axes_oracle(desk)
    expected = np.zeros((45, 23))
    for col, (_, slot, kind) in enumerate(bio_dof.DOF_SPECS):
        expected[3 * slot:3 * slot + 3, col] = table[slot][FRAME_ROW[kind]]
    np.testing.assert_allclose(axes, expected, atol=1e-12)


def test_axes_scale_invariant(desk):
    scaled = HandModel(desk.rest_vertices * 3.7, desk.shape_basis * 3.7,
                       desk.joint_regressor, desk.skinning_weights,
                       desk.parents, desk.faces)
    np.testing.assert_allclose(derive_axes(desk), derive_axes(scaled), atol=1e-12)


def test_derive_axes_rejects_degenerate_bone(desk_small):
    reg = desk_small.joint_regressor.copy()
    # collapse the index PIP onto the index MCP
    reg[kin.finger_joint(1, 1)] = reg[kin.finger_joint(1, 0)]
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis, reg,
                      desk_small.skinning_weights, desk_small.parents,
                      desk_small.faces)
    with pytest.raises(NumericError):
        derive_axes(model)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_zero_is_zero(axes):
    assert np.all(expand_batch(BioPose().values, axes) == 0.0)


def test_expand_single_dof(desk, axes):
    phi = 0.8
    bio = np.zeros(23)
    bio[bio_dof.DOF_NAMES.index("index_mcp_flex")] = phi
    art = expand_batch(bio, axes).reshape(15, 3)
    nonzero = np.flatnonzero(np.abs(art).sum(axis=1))
    assert list(nonzero) == [3]  # index MCP slot
    np.testing.assert_allclose(art[3], phi * axes_oracle(desk)[3][FRAME_ROW["flex"]],
                               atol=1e-15)


def test_expand_matches_dof_table_oracle(desk, axes, limits, rng):
    table = axes_oracle(desk)
    bio = sample_uniform(limits, 20, rng)
    got = expand_batch(bio, axes)
    for b in range(20):
        expected = np.zeros((15, 3))
        for col, (_, slot, kind) in enumerate(bio_dof.DOF_SPECS):
            expected[slot] += bio[b, col] * table[slot][FRAME_ROW[kind]]
        np.testing.assert_allclose(got[b].reshape(15, 3), expected, atol=1e-12)


def test_expand_is_linear(axes, rng):
    x = rng.normal(size=23)
    y = rng.normal(size=23)
    lhs = expand_batch(2.0 * x + 0.5 * y, axes)
    rhs = 2.0 * expand_batch(x, axes) + 0.5 * expand_batch(y, axes)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_zero_twist_for_non_thumb_joints(desk, axes, limits, rng):
    table = axes_oracle(desk)
    bio = sample_uniform(limits, 500, rng)
    art = expand_batch(bio, axes)
    for slot in range(3, 15):  # all non-thumb joints
        component = art[:, 3 * slot:3 * slot + 3] @ table[slot][FRAME_ROW["twist"]]
        assert np.abs(component).max() <= 1e-12


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def test_clamp_inside_is_identity(limits):
    bio = BioPose(limits.lower * 0.5 + limits.upper * 0.5)
    clamped = clamp(bio, limits)
    np.testing.assert_array_equal(clamped.values, bio.values)
    assert is_feasible(bio, limits)


def test_clamp_over_max(limits):
    values = np.zeros(23)
    i = bio_dof.DOF_NAMES.index("middle_pip_flex")
    values[i] = limits.upper[i] + 0.1
    clamped = clamp(BioPose(values), limits)
    assert clamped.values[i] == limits.upper[i]
    assert not is_feasible(BioPose(values), limits)
    assert is_feasible(clamped, limits)


@settings(max_examples=100, deadline=None)
@given(arrays(float, 23, elements=st.floats(-4, 4)))
def test_clamp_idempotent(values):
    limits = DofLimits.default()
    once = clamp(BioPose(values), limits)
    twice = clamp(once, limits)
    np.testing.assert_array_equal(once.values, twice.values)


def test_clamp_idempotent_sweep(limits, rng):
    for values in rng.normal(scale=2.0, size=(1000, 23)):
        once = clamp(BioPose(values), limits)
        twice = clamp(once, limits)
        np.testing.assert_array_equal(once.values, twice.values)
        assert is_feasible(once, limits)


def test_limits_must_contain_zero():
    lower = np.full(23, 0.1)
    upper = np.ones(23)
    with pytest.raises(ValueError):
        DofLimits(lower, upper)


def test_limits_file_roundtrip(tmp_path, limits):
    path = tmp_path / "limits.txt"
    limits.save(path)
    loaded = DofLimits.load(path)
    np.testing.assert_array_equal(loaded.lower, limits.lower)
    np.testing.assert_array_equal(loaded.upper, limits.upper)


def test_limits_file_rejects_missing_entries(tmp_path):
    path = tmp_path / "limits.txt"
    path.write_text("index_mcp_flex = -0.3 1.6\n")
    with pytest.raises(ValueError):
        DofLimits.load(path)


def test_limits_file_rejects_a_dof_limited_twice(tmp_path, limits):
    path = tmp_path / "limits.txt"
    limits.save(path)
    path.write_text(path.read_text() + "index_mcp_flex = -0.1 0.2\n")
    with pytest.raises(InputError, match="index_mcp_flex"):
        DofLimits.load(path)


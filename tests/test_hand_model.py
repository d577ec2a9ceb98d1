import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handkit import kinematics as kin
from handkit.errors import ShapeError
from handkit.hand_model import (HandModel, from_mano_arrays, load_model,
                                regress_joints, save_model, write_obj)
from handkit.rotations import rodrigues


# ---------------------------------------------------------------------------
# oracles: plain-python reimplementations, no shared code with the library
# ---------------------------------------------------------------------------

def offset_oracle(model, beta):
    """Scalar triple loop over vertices, coordinates, and basis terms."""
    out = np.zeros((model.vertex_count, 3))
    for v in range(model.vertex_count):
        for c in range(3):
            acc = 0.0
            for i in range(10):
                acc += beta[i] * model.shape_basis[i][v][c]
            out[v, c] = acc
    return out


def regress_oracle(model, verts):
    """Per-joint weighted sum with explicit loops."""
    out = np.zeros((21, 3))
    for j in range(21):
        for v in range(model.vertex_count):
            w = model.joint_regressor[j, v]
            if w != 0.0:
                out[j] += w * verts[v]
    return out


def chain_oracle(model, articulation, beta, global_rot, translation):
    """Joint positions by composing homogeneous 4x4 transforms per finger.

    Walks each finger chain independently, multiplying local transforms
    whose translation is the rest offset from the parent, then applies the
    global rotation/translation.  No skinning involved.
    """
    shaped = model.rest_vertices + np.einsum("i,ivc->vc", beta,
                                             model.shape_basis)
    rest = model.joint_regressor @ shaped
    art = articulation.reshape(15, 3)

    def local(rot3, offset):
        m = np.eye(4)
        m[:3, :3] = rot3
        m[:3, 3] = offset
        return m

    joints = np.zeros((21, 3))
    joints[0] = rest[0]
    root = local(np.eye(3), rest[0])
    for f in range(5):
        acc = root.copy()
        prev = 0
        for p in range(3):
            j = kin.finger_joint(f, p)
            acc = acc @ local(rodrigues(art[3 * f + p]), rest[j] - rest[prev])
            joints[j] = acc[:3, 3]
            prev = j
        tip = kin.finger_joint(f, 3)
        joints[tip] = (acc @ np.array([*(rest[tip] - rest[prev]), 1.0]))[:3]
    return joints @ rodrigues(global_rot).T + translation


def posed(model, articulation=(0.0,) * kin.ARTICULATION_SIZE, beta=None,
          global_rot=None, translation=None):
    """``fk_forward`` on a batch of one: its (V, 3) vertices and (21, 3) joints."""
    out = kin.fk_forward(model, articulation, beta, global_rot, translation,
                         want_vertices=True)
    return out.vertices[0], out.joints[0]


def shape_offset(model, beta):
    """The shape blend alone: the zero-pose FK template of the model with its
    rest template moved to the origin."""
    blend_only = dataclasses.replace(
        model, rest_vertices=np.zeros_like(model.rest_vertices))
    out = kin.fk_forward(blend_only, np.zeros(kin.ARTICULATION_SIZE), beta,
                         want_vertices=True, need_grad=True)
    return out.template[0].T    # (3, V) planes


# ---------------------------------------------------------------------------
# shape blend: the zero-pose FK template
# ---------------------------------------------------------------------------

def test_shape_offset_zero_beta(desk):
    assert np.all(shape_offset(desk, np.zeros(10)) == 0.0)


def test_shape_offset_doubles(desk, rng):
    beta = rng.normal(scale=0.5, size=10)
    one = shape_offset(desk, beta)
    two = shape_offset(desk, 2 * beta)
    np.testing.assert_allclose(two, 2 * one, rtol=1e-12)


def test_shape_offset_matches_bruteforce(desk_small, rng):
    beta = rng.normal(scale=0.7, size=10)
    expected = offset_oracle(desk_small, beta)
    np.testing.assert_allclose(shape_offset(desk_small, beta), expected,
                               atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_shape_offset_linearity(desk_small, seed, a, b):
    r = np.random.default_rng(seed)
    b1, b2 = r.normal(size=10), r.normal(size=10)
    lhs = shape_offset(desk_small, a * b1 + b * b2)
    rhs = a * shape_offset(desk_small, b1) + b * shape_offset(desk_small, b2)
    scale = max(np.abs(rhs).max(), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)


def test_shape_offset_dimension_mismatch(desk):
    with pytest.raises(ValueError):
        shape_offset(desk, np.zeros(7))


# ---------------------------------------------------------------------------
# rest joints (model.tensors) / regress_joints
# ---------------------------------------------------------------------------

def test_rest_joints_zero_beta(desk):
    expected = desk.joint_regressor @ desk.rest_vertices
    np.testing.assert_allclose(desk.tensors.J0, expected, atol=1e-12)


def test_rest_joints_one_hot_regressor(desk_small):
    picks = np.arange(21) * 3 % desk_small.vertex_count
    reg = np.zeros_like(desk_small.joint_regressor)
    reg[np.arange(21), picks] = 1.0
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis, reg,
                      desk_small.skinning_weights, desk_small.parents,
                      desk_small.faces)
    np.testing.assert_array_equal(model.tensors.J0,
                                  desk_small.rest_vertices[picks])


def test_rest_joints_matches_bruteforce(desk_small, rng):
    beta = rng.normal(scale=0.5, size=10)
    shaped = desk_small.rest_vertices + offset_oracle(desk_small, beta)
    tensors = desk_small.tensors
    np.testing.assert_allclose(tensors.J0 + np.tensordot(beta, tensors.JB, axes=1),
                               regress_oracle(desk_small, shaped), atol=1e-10)


def test_regress_joints_rest_template(desk):
    np.testing.assert_allclose(regress_joints(desk, desk.rest_vertices).joints,
                               desk.tensors.J0, atol=1e-12)


def test_regress_joints_affine_equivariance(desk, rng):
    rot = rodrigues(rng.normal(size=3))
    t = rng.normal(scale=30, size=3)
    expected = desk.tensors.J0 @ rot.T + t
    np.testing.assert_allclose(
        regress_joints(desk, desk.rest_vertices @ rot.T + t).joints, expected, atol=1e-9)


def test_regress_joints_random_mesh_bruteforce(desk_small, rng):
    verts = rng.normal(scale=40, size=(desk_small.vertex_count, 3))
    got = regress_joints(desk_small, verts).joints
    np.testing.assert_allclose(got, regress_oracle(desk_small, verts),
                               atol=1e-10)


def test_regress_joints_count_mismatch(desk):
    with pytest.raises(ValueError):
        regress_joints(desk, np.zeros((10, 3)))


# ---------------------------------------------------------------------------
# forward kinematics: fk_forward on a batch of one
# ---------------------------------------------------------------------------

def test_forward_rest_pose(desk):
    vertices, joints = posed(desk)
    np.testing.assert_allclose(vertices, desk.rest_vertices, atol=1e-9)
    np.testing.assert_allclose(joints, desk.tensors.J0, atol=1e-9)


def test_forward_global_rotation_is_rigid(desk, rng):
    r = rng.normal(size=3) * 0.6
    t = rng.normal(scale=25, size=3)
    vertices, joints = posed(desk, global_rot=r, translation=t)
    rot = rodrigues(r)
    np.testing.assert_allclose(vertices, desk.rest_vertices @ rot.T + t, atol=1e-6)
    np.testing.assert_allclose(joints, desk.tensors.J0 @ rot.T + t, atol=1e-6)


def test_forward_rigid_equivariance_posed(desk, limits, axes, rng):
    from handkit import bio_dof
    art = bio_dof.expand_batch(bio_dof.sample_uniform(limits, 1, rng)[0], axes)
    base_vertices, base_joints = posed(desk, art)
    r = rng.normal(size=3)
    r = r / np.linalg.norm(r) * 0.9
    t = rng.normal(scale=15, size=3)
    vertices, joints = posed(desk, art, global_rot=r, translation=t)
    rot = rodrigues(r)
    np.testing.assert_allclose(vertices, base_vertices @ rot.T + t, atol=1e-6)
    np.testing.assert_allclose(joints, base_joints @ rot.T + t, atol=1e-6)


def test_forward_matches_chain_oracle(desk, limits, axes, rng):
    from handkit import bio_dof
    for _ in range(25):
        art = bio_dof.expand_batch(bio_dof.sample_uniform(limits, 1, rng)[0], axes)
        rot = rng.normal(scale=0.4, size=3)
        trans = rng.normal(scale=20, size=3)
        beta = rng.normal(scale=0.5, size=10)
        _, joints = posed(desk, art, beta, rot, trans)
        np.testing.assert_allclose(joints, chain_oracle(desk, art, beta, rot, trans),
                                   atol=1e-6)


def test_forward_skinning_one_hot_rigidity(desk_small, limits, axes_small, rng):
    from handkit import bio_dof
    slot = 5  # an articulated joint column
    weights = np.zeros_like(desk_small.skinning_weights)
    weights[:, slot] = 1.0
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis,
                      desk_small.joint_regressor, weights, desk_small.parents,
                      desk_small.faces)
    art = bio_dof.expand_batch(bio_dof.sample_uniform(limits, 1, rng)[0], axes_small)
    vertices, _ = posed(model, art)
    # every vertex must move rigidly with the chained transform of that joint
    out = kin.fk_forward(model, art[None], need_grad=True)
    joint = kin.ARTICULATED[slot]
    rot = out.chain_rot[0, slot]
    rest_j = out.rest_joints[0, joint]
    posed_j = out.chain_t[0, slot]
    expected = (model.rest_vertices - rest_j) @ rot.T + posed_j
    np.testing.assert_allclose(vertices, expected, atol=1e-9)


def test_forward_with_pose_basis_changes_mesh_not_joints_at_rest(desk_small):
    pose_basis = np.zeros((kin.POSE_BASIS_SIZE, desk_small.vertex_count, 3))
    pose_basis[:, :, 2] = 0.5
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis,
                      desk_small.joint_regressor, desk_small.skinning_weights,
                      desk_small.parents, desk_small.faces,
                      pose_basis=pose_basis)
    vertices, _ = posed(model)
    # identity rotations: the corrective features vec(R - I) vanish
    np.testing.assert_allclose(vertices, model.rest_vertices, atol=1e-12)


# ---------------------------------------------------------------------------
# model validation and I/O
# ---------------------------------------------------------------------------

def test_validate_rejects_bad_weight_rows(desk_small):
    weights = desk_small.skinning_weights.copy()
    weights[0] *= 2.0
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis,
                      desk_small.joint_regressor, weights, desk_small.parents,
                      desk_small.faces)
    with pytest.raises(ShapeError):
        model.validate()


def test_validate_rejects_a_tree_the_kinematics_does_not_pose(desk_small):
    # little MCP under ring MCP: an acyclic tree, but FK walks kin.PARENTS
    parents = desk_small.parents.copy()
    parents[17] = 13
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis,
                      desk_small.joint_regressor, desk_small.skinning_weights,
                      parents, desk_small.faces)
    with pytest.raises(ShapeError, match="kinematics.PARENTS"):
        model.validate()


def test_validate_rejects_cyclic_parents(desk_small):
    parents = desk_small.parents.copy()
    parents[1] = 2
    parents[2] = 1
    model = HandModel(desk_small.rest_vertices, desk_small.shape_basis,
                      desk_small.joint_regressor, desk_small.skinning_weights,
                      parents, desk_small.faces)
    with pytest.raises(ShapeError):
        model.validate()


def test_default_configuration_counts(desk):
    assert desk.vertex_count == 778
    assert desk.joint_count == 21


@pytest.mark.parametrize("text", [False, True])
def test_model_roundtrip(desk_small, tmp_path, text):
    path = tmp_path / ("model.hkmt" if text else "model.hkm")
    save_model(desk_small, path, text=text)
    loaded = load_model(path)
    # container stores float32
    np.testing.assert_allclose(loaded.rest_vertices,
                               desk_small.rest_vertices, atol=1e-4)
    np.testing.assert_allclose(loaded.skinning_weights,
                               desk_small.skinning_weights, atol=1e-6)
    np.testing.assert_array_equal(loaded.parents, desk_small.parents)
    np.testing.assert_array_equal(loaded.faces, desk_small.faces)


def test_obj_export_is_stable(desk_small, tmp_path):
    vertices, _ = posed(desk_small)
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(vertices, desk_small.faces, a)
    write_obj(vertices, desk_small.faces, b)
    assert a.read_bytes() == b.read_bytes()
    first = a.read_text().splitlines()[0]
    assert first.startswith("v ")
    # faces are 1-based
    face_lines = [l for l in a.read_text().splitlines() if l.startswith("f ")]
    assert face_lines
    assert min(int(p) for l in face_lines for p in l.split()[1:]) >= 1


# ---------------------------------------------------------------------------
# MANO-layout converter
# ---------------------------------------------------------------------------

def _fake_mano_arrays(nverts=778):
    rng = np.random.default_rng(99)
    v_template = rng.normal(scale=0.05, size=(nverts, 3))
    shapedirs = rng.normal(scale=0.01, size=(nverts, 3, 10))
    j_regressor = np.zeros((16, nverts))
    for j in range(16):
        j_regressor[j, 10 * j:10 * j + 10] = 0.1
    weights = np.zeros((nverts, 16))
    weights[:, 0] = 1.0
    faces = np.array([[0, 1, 2]])
    posedirs = rng.normal(scale=0.001, size=(nverts, 3, 135))
    return v_template, shapedirs, j_regressor, weights, faces, posedirs


def test_from_mano_arrays_reorders_fingers_and_scales():
    v, s, j, w, f, p = _fake_mano_arrays()
    model = from_mano_arrays(v, s, j, w, f, posedirs=p, unit="m")
    model.validate()
    assert model.vertex_count == 778
    np.testing.assert_allclose(model.rest_vertices, v * 1000.0, atol=1e-9)
    # source finger order is index, middle, little, ring, thumb; ours starts
    # with the thumb, whose MCP row is source joint 13
    np.testing.assert_allclose(model.joint_regressor[kin.finger_joint(0, 0)],
                               j[13], atol=1e-12)
    np.testing.assert_allclose(model.joint_regressor[kin.finger_joint(1, 0)],
                               j[1], atol=1e-12)
    np.testing.assert_allclose(model.joint_regressor[kin.finger_joint(4, 2)],
                               j[9], atol=1e-12)
    # tips are one-hot at the published fingertip vertices (thumb first)
    assert model.joint_regressor[kin.finger_joint(0, 3), 745] == 1.0
    assert model.joint_regressor[kin.finger_joint(4, 3), 672] == 1.0
    # pose basis rows were remapped joint-blockwise: our thumb MCP block
    # (slot 0) must hold source blocks for joint 13 -> columns 108..116
    np.testing.assert_allclose(model.pose_basis[0], p[:, :, 108] * 1000.0,
                               atol=1e-9)


def test_from_mano_arrays_rejects_bad_shapes():
    v, s, j, w, f, _ = _fake_mano_arrays()
    with pytest.raises(ShapeError):
        from_mano_arrays(v, s, j[:10], w, f)


def test_from_mano_arrays_rejects_tip_vertices_out_of_range():
    # the published thumb tip is vertex 745, past the end of a 500-vertex mesh
    v, s, j, w, f, _ = _fake_mano_arrays(nverts=500)
    with pytest.raises(ShapeError, match="745"):
        from_mano_arrays(v, s, j, w, f)

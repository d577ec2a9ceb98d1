"""Guards for the FK engine: a per-vertex skinning oracle, batch rows against
single rows and the peak memory of the blocked blend, a finite-difference
check of every ``fk_backward`` output at B > 1 with a pose basis, the no-grad
Rodrigues path (which holds nothing for backward), the grad path's single
Rodrigues call, joints read off the chain, the depth-ordered chain layout,
argument normalisation, and the read-only model behind ``model.tensors``."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from handkit import bio_dof, kinematics as kin
from handkit.errors import InputError, ShapeError
from handkit.hand_model import HandModel
from handkit.rotations import rodrigues, rodrigues_with_jacobian


def _variant(model, rng, dense_weights=False):
    """Copy of ``model`` with a random pose basis (and random dense skinning
    weights), so every term of the blend is exercised."""
    weights = model.skinning_weights
    if dense_weights:
        weights = rng.dirichlet(np.ones(kin.ARTICULATED_COUNT), size=len(weights))
    pose_basis = rng.normal(size=(kin.POSE_BASIS_SIZE, model.vertex_count, 3))
    return HandModel(model.rest_vertices, model.shape_basis, model.joint_regressor,
                     weights, model.parents, model.faces, pose_basis=pose_basis)


def _params(rng, batch):
    return (rng.normal(scale=0.4, size=(batch, 45)),
            rng.normal(scale=0.5, size=(batch, 10)),
            rng.normal(scale=0.4, size=(batch, 3)),
            rng.normal(scale=20.0, size=(batch, 3)))


def _vertex_oracle(model, art, beta, global_rot, translation):
    """sum_j w_vj (R_j p + t_j) per vertex from explicitly chained 4x4
    transforms, then the global rotation and translation."""
    rots = [rodrigues(w) for w in art.reshape(15, 3)]
    template = (model.rest_vertices + np.tensordot(beta, model.shape_basis, 1)
                + np.tensordot(np.concatenate([(r - np.eye(3)).ravel() for r in rots]),
                               model.pose_basis, 1))
    rest = model.joint_regressor @ (model.rest_vertices
                                    + np.tensordot(beta, model.shape_basis, 1))
    chained = {}
    for s, j in enumerate(kin.ARTICULATED):
        local = np.eye(4)
        if s == 0:
            local[:3, 3] = rest[0]
        else:
            local[:3, :3] = rots[s - 1]
            local[:3, 3] = rest[j] - rest[kin.PARENTS[j]]
        chained[j] = local if s == 0 else chained[kin.PARENTS[j]] @ local
    skin = []
    for j in kin.ARTICULATED:
        unrest = np.eye(4)
        unrest[:3, 3] = -rest[j]
        skin.append(chained[j] @ unrest)
    out = np.zeros_like(template)
    for v, p in enumerate(template):
        for s, w in enumerate(model.skinning_weights[v]):
            out[v] += w * (skin[s][:3, :3] @ p + skin[s][:3, 3])
    return out @ rodrigues(global_rot).T + translation


def test_vertices_match_per_vertex_oracle(desk_small):
    rng = np.random.default_rng(11)
    model = _variant(desk_small, rng, dense_weights=True)
    art, beta, rot, trans = _params(rng, 4)
    got = kin.fk_forward(model, art, beta, rot, trans, want_vertices=True).vertices
    for b in range(4):
        expected = _vertex_oracle(model, art[b], beta[b], rot[b], trans[b])
        np.testing.assert_allclose(got[b], expected, rtol=0, atol=1e-9)


def test_blocked_blend_rows_match_single_rows(desk):
    rng = np.random.default_rng(15)
    art, beta, rot, trans = _params(rng, 256)
    got = kin.fk_forward(desk, art, beta, rot, trans, want_vertices=True)
    for b in range(256):
        one = kin.fk_forward(desk, art[b], beta[b], rot[b], trans[b], want_vertices=True)
        np.testing.assert_allclose(got.vertices[b], one.vertices[0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.joints[b], one.joints[0], rtol=0, atol=1e-9)


def test_blocked_blend_peak_memory(desk):
    """The blend works in blocks of poses: one B = 256 call holds less than
    three times its (B, V, 3) output at its peak."""
    params = _params(np.random.default_rng(16), 256)
    kin.fk_forward(desk, *params, want_vertices=True)   # model tensors built once
    tracemalloc.start()
    try:
        out = kin.fk_forward(desk, *params, want_vertices=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.vertices.nbytes, (peak, out.vertices.nbytes)


@pytest.mark.parametrize("global_rot", ["random", None])
def test_fk_backward_matches_finite_differences(desk_small, global_rot):
    """With ``global_rot=None`` (the IK-net training call) the root rotation
    is an exact identity; its gradient is still checked, at zero."""
    rng = np.random.default_rng(12)
    model = _variant(desk_small, rng)
    batch, h = 3, 1e-5
    params = list(_params(rng, batch))
    if global_rot is None:
        params[2] = np.zeros_like(params[2])
    out = kin.fk_forward(model, *params, want_vertices=True, want_regressed=True,
                         need_grad=True)
    d_vertices = rng.normal(size=out.vertices.shape)
    d_regressed = rng.normal(size=out.regressed_joints.shape)
    grads = kin.fk_backward(model, out, d_vertices, d_regressed)
    analytic = (grads.articulation, grads.beta, grads.global_rot, grads.translation)

    def loss(row, values):
        o = kin.fk_forward(model, *values, want_vertices=True, want_regressed=True)
        return ((o.vertices[row] * d_vertices[row]).sum()
                + (o.regressed_joints[row] * d_regressed[row]).sum())

    worst = 0.0
    for k, param in enumerate(params):
        for b in range(batch):
            for i in range(param.shape[1]):
                plus = [p.copy() for p in params]
                minus = [p.copy() for p in params]
                plus[k][b, i] += h
                minus[k][b, i] -= h
                fd = (loss(b, plus) - loss(b, minus)) / (2 * h)
                ana = analytic[k][b, i]
                worst = max(worst, abs(fd - ana) / max(abs(fd), abs(ana), 1.0))
    assert worst < 1e-6, worst


def test_no_grad_path_skips_jacobians_and_matches(desk_small, monkeypatch):
    rng = np.random.default_rng(13)
    model = _variant(desk_small, rng)
    params = _params(rng, 5)
    with_grad = kin.fk_forward(model, *params, want_vertices=True,
                               want_regressed=True, need_grad=True)

    def no_jacobian(w):
        raise AssertionError("a no-grad FK call built Rodrigues derivatives")
    monkeypatch.setattr(kin, "rodrigues_with_jacobian", no_jacobian)
    plain = kin.fk_forward(model, *params, want_vertices=True, want_regressed=True)
    outputs = ("joints", "vertices", "regressed_joints")
    for field in dataclasses.fields(kin.FkCache):
        if field.name not in outputs:   # nothing held for backward
            assert getattr(plain, field.name) is None, field.name
    assert with_grad.drots.shape == (5, 16, 3, 3, 3)
    for name in outputs:
        np.testing.assert_array_equal(getattr(plain, name), getattr(with_grad, name))


def test_grad_path_makes_one_rodrigues_call(desk_small, monkeypatch):
    shapes = []

    def recording(w):
        shapes.append(np.shape(w))
        return rodrigues_with_jacobian(w)
    monkeypatch.setattr(kin, "rodrigues_with_jacobian", recording)
    cache = kin.fk_forward(desk_small, *_params(np.random.default_rng(14), 5),
                           want_regressed=True, need_grad=True)
    assert shapes == [(5, 16, 3)]
    assert cache.drots.shape == (5, 16, 3, 3, 3)


def test_joints_are_read_off_the_chain(desk_small):
    # an articulated joint is its slot's chain translation, a tip its DIP's
    # transform of the rest offset, both bit for bit (not through the bones)
    art, beta, global_rot, translation = _params(np.random.default_rng(16), 4)
    cache = kin.fk_forward(desk_small, art, beta, global_rot, translation, need_grad=True)
    shift = translation[:, None]
    np.testing.assert_array_equal(cache.joints[:, list(kin.ARTICULATED)],
                                  cache.chain_t + shift)
    tips = [j for j in range(kin.JOINT_COUNT) if j not in kin.ARTICULATED]
    dips = [kin.ARTICULATED.index(j - 1) for j in tips]
    offsets = cache.rest_joints[:, tips] - cache.rest_joints[:, [j - 1 for j in tips]]
    np.testing.assert_array_equal(cache.joints[:, tips], cache.chain_t[:, dips] + np.einsum(
        "bsxy,bsy->bsx", cache.chain_rot[:, dips], offsets) + shift)


def test_model_is_read_only_and_tensors_built_once(desk_small):
    source = desk_small.rest_vertices.copy()
    model = HandModel(source, desk_small.shape_basis, desk_small.joint_regressor,
                      desk_small.skinning_weights, desk_small.parents,
                      desk_small.faces)
    before = kin.fk_forward(model, np.zeros(45), want_vertices=True).vertices
    source[0] += 5.0                       # the model holds its own copy
    np.testing.assert_array_equal(
        kin.fk_forward(model, np.zeros(45), want_vertices=True).vertices, before)
    for name in ("rest_vertices", "shape_basis", "joint_regressor",
                 "skinning_weights", "parents", "faces"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] += 1
    for shared in (model.tensors.J0, model.tensors.axes):   # shared by every caller
        with pytest.raises(ValueError, match="read-only"):
            shared[0] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.rest_vertices = source
    assert model.tensors is model.tensors
    assert bio_dof.derive_axes(model) is model.tensors.axes


def test_backward_rejects_caches_it_cannot_use(desk_small):
    art = np.zeros((2, 45))
    with pytest.raises(InputError, match="need_grad"):
        kin.fk_backward(desk_small, kin.fk_forward(desk_small, art),
                        d_regressed=np.ones((2, 21, 3)))
    joints_only = kin.fk_forward(desk_small, art, need_grad=True)
    with pytest.raises(InputError, match="vertices"):
        kin.fk_backward(desk_small, joints_only, d_vertices=np.ones((2, 5, 3)))
    with pytest.raises(InputError, match="regressed"):
        kin.fk_backward(desk_small, joints_only, d_regressed=np.ones((2, 21, 3)))


def test_cache_holds_only_what_backward_reads():
    names = {f.name for f in dataclasses.fields(kin.FkCache)}
    assert not names & {"beta", "local_t", "skin_rot", "assign_rot", "pose_feats",
                        "skin_bones", "rot_global", "drot_global", "rot_art"}


def test_depth_groups_cover_every_finger_slot_once():
    # three steps of five fingers each, every parent one depth up
    assert [len(slots) for slots, _ in kin._DEPTHS] == [5, 5, 5]
    seen = {0}
    for slots, parents in kin._DEPTHS:
        assert set(parents.tolist()) <= seen
        seen |= set(slots.tolist())
    assert seen == set(range(kin.ARTICULATED_COUNT))
    slot_ids = np.arange(kin.ARTICULATED_COUNT)   # the chain walks them as slices
    for (slots, parents), (slot_run, parent_run) in zip(kin._DEPTHS, kin._DEPTH_SLICES):
        np.testing.assert_array_equal(slot_ids[slot_run], slots)
        np.testing.assert_array_equal(np.broadcast_to(slot_ids[parent_run], slots.shape),
                                      parents)
    rest = np.random.default_rng(14).normal(size=(kin.JOINT_COUNT, 3))
    np.testing.assert_array_equal(  # L gives each finger slot's offset from its parent
        kin._L @ rest, [rest[j] - rest[kin.PARENTS[j]] for j in kin.ARTICULATED[1:]])
    # the subtree matrix is the reflexive transitive closure of the parent links
    closure = np.eye(kin.ARTICULATED_COUNT, dtype=bool)
    closure[kin._PARENT_SLOT, np.arange(1, kin.ARTICULATED_COUNT)] = True
    for _ in range(len(kin._DEPTHS)):
        closure = (closure.astype(int) @ closure) > 0
    np.testing.assert_array_equal(kin._SUBTREE, closure)


@pytest.mark.parametrize("kwargs", [
    {"articulation": np.zeros((2, 44))}, {"articulation": np.zeros((2, 45, 1))},
    {"articulation": np.zeros((3, 45)), "beta": np.zeros((2, 10))},
    {"articulation": np.zeros((2, 45)), "translation": np.zeros(4)},
])
def test_forward_argument_shapes_checked(desk_small, kwargs):
    with pytest.raises(ShapeError):
        kin.fk_forward(desk_small, **kwargs)


def test_forward_broadcasts_rows_and_defaults_to_zeros(desk_small):
    art = np.random.default_rng(15).normal(scale=0.3, size=(3, 45))
    beta = np.linspace(-1, 1, 10)
    broadcast = kin.fk_forward(desk_small, art, beta, want_regressed=True)
    explicit = kin.fk_forward(desk_small, art, np.tile(beta, (3, 1)), np.zeros((3, 3)),
                              np.zeros((1, 3)), want_regressed=True)
    np.testing.assert_array_equal(broadcast.regressed_joints, explicit.regressed_joints)

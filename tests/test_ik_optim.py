import warnings
from fractions import Fraction

import numpy as np
import pytest

from handkit import bio_dof, ik_optim, kinematics as kin
from handkit.errors import NumericError
from handkit.ik_optim import FitConfig, FitTarget, bend_penalty_with_grad, fit
from handkit.rotations import rodrigues


def straight_finger_skeleton(desk):
    return desk.tensors.J0  # desk fingers are straight radial lines


def bend_oracle(joints):
    """Scalar cross/dot arithmetic, one finger at a time."""
    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    total = 0.0
    for fi in (1, 2, 3, 4):
        mcp, pip, dip, tip = (joints[kin.finger_joint(fi, p)] for p in range(4))
        b1 = tuple(pip[c] - mcp[c] for c in range(3))
        b2 = tuple(dip[c] - pip[c] for c in range(3))
        b3 = tuple(tip[c] - dip[c] for c in range(3))
        u = cross(b3, b2)
        v = cross(b2, b1)
        s = sum(u[c] * v[c] for c in range(3))
        if s < 0:
            total += -s
    return total


def bend_exact_oracle(joints):
    """The penalty in exact rational arithmetic on the float joints."""
    total = Fraction(0)
    for chain in ik_optim._BEND_CHAINS:
        mcp, pip, dip, tip = ([Fraction(float(x)) for x in joints[j]] for j in chain)
        b1, b2, b3 = ([q - p for p, q in zip(a, b)]
                      for a, b in ((mcp, pip), (pip, dip), (dip, tip)))
        u = (b3[1] * b2[2] - b3[2] * b2[1], b3[2] * b2[0] - b3[0] * b2[2],
             b3[0] * b2[1] - b3[1] * b2[0])
        v = (b2[1] * b1[2] - b2[2] * b1[1], b2[2] * b1[0] - b2[0] * b1[2],
             b2[0] * b1[1] - b2[1] * b1[0])
        total += max(-sum(x * y for x, y in zip(u, v)), Fraction(0))
    return total


def bend_cross_oracle(joints):
    """The penalty and gradient through ``np.cross``: its cross products in
    stacked arrays, and the gradient as their cross products with the bones."""
    bones = np.diff(joints[..., ik_optim._BEND_CHAINS, :], axis=-2)
    b1, b2, b3 = bones[..., 0, :], bones[..., 1, :], bones[..., 2, :]
    u, v = np.moveaxis(np.cross(bones[..., [2, 1], :], bones[..., [1, 0], :]), -2, 0)
    s = (u * v).sum(axis=-1)
    c = np.cross(np.stack([u, v, b1, b2], axis=-2), np.stack([b2, b3, u, v], axis=-2))
    db1, db2, db3 = c[..., 0, :], c[..., 1, :] + c[..., 2, :], c[..., 3, :]
    grad = np.zeros_like(joints)
    grad[..., ik_optim._BEND_CHAINS, :] = (
        np.stack([db1, db2 - db1, db3 - db2, -db3], axis=-2) * (s < 0.0)[..., None, None])
    return np.maximum(-s, 0.0).sum(axis=-1), grad


def angles(named):
    """The 23 feasible angles with the named DoFs set, the rest zero."""
    bio = np.zeros(bio_dof.DOF_COUNT)
    for name, value in named.items():
        bio[bio_dof.DOF_NAMES.index(name)] = value
    return bio


def posed_joints(model, axes, bio, beta, rot=None, trans=None):
    art = bio_dof.expand_batch(np.asarray(bio, float)[None], axes)
    out = kin.fk_forward(model, art, np.asarray(beta, float)[None],
                         None if rot is None else np.asarray(rot, float)[None],
                         None if trans is None else np.asarray(trans, float)[None],
                         want_regressed=True)
    return out.regressed_joints[0]


# ---------------------------------------------------------------------------
# bend penalty
# ---------------------------------------------------------------------------

def test_bend_penalty_zero_for_straight_fingers(desk):
    # exactly collinear chains on integer coordinates: both cross products
    # vanish identically, so the contribution is exactly zero
    joints = np.zeros((21, 3))
    for fi in range(5):
        for p in range(4):
            joints[kin.finger_joint(fi, p)] = [(p + 1) * 10.0, fi * 8.0, 0.0]
    assert bend_penalty_with_grad(joints)[0] == 0.0
    # the desk rest pose is straight up to regression round-off
    assert bend_penalty_with_grad(straight_finger_skeleton(desk))[0] < 1e-18


def test_bend_penalty_zero_for_same_direction_bend(desk, axes):
    # flexing PIP and DIP the same way keeps every finger strictly on the
    # satisfied side (s > 0), so the hinge contributes exactly zero
    bio = angles({
        f"{f}_{j}_flex": v for f in ("index", "middle", "ring", "little")
        for j, v in (("pip", 0.9), ("dip", 0.6))})
    joints = posed_joints(desk, axes, bio, np.zeros(10))
    assert bend_penalty_with_grad(joints)[0] == 0.0


def test_bend_penalty_positive_for_opposed_bend(desk, axes):
    # hyper-extended DIP against a flexed PIP opposes the cross products
    bio = angles({"index_pip_flex": 1.0, "index_dip_flex": -0.7})
    joints = posed_joints(desk, axes, bio, np.zeros(10))
    penalty = bend_penalty_with_grad(joints)[0]
    assert penalty > 0.0
    assert penalty == pytest.approx(bend_oracle(joints), rel=1e-12)


def test_bend_penalty_matches_oracle_on_random_skeletons(rng):
    for _ in range(50):
        joints = rng.normal(scale=30, size=(21, 3))
        assert bend_penalty_with_grad(joints)[0] == pytest.approx(
            bend_oracle(joints), rel=1e-9, abs=1e-9)


def test_bend_penalty_equals_cross_oracle_bit_for_bit(desk, axes, rng):
    """The penalties are np.cross's to the bit.  The gradients sum the same
    products in another order, so they match to 1e-12 of their largest
    entry, also on nearly straight fingers, where a Gram-matrix form of the
    gradient (say ds/db1 = (b3.b2) b2 - (b2.b2) b3) loses digits."""
    bio = angles({
        f"{f}_{j}_flex": v for f in ("index", "middle", "ring", "little")
        for j, v in (("pip", 0.9), ("dip", 0.6))})
    feasible = posed_joints(desk, axes, bio, np.zeros(10))
    batch = np.concatenate([rng.normal(scale=30, size=(7, 21, 3)), feasible[None]])
    near_straight = straight_finger_skeleton(desk) + rng.normal(size=(8, 21, 3)) * np.repeat(
        [1e-7, 1e-5, 1e-3, 1e-1], 2)[:, None, None]
    for joints in (batch, batch.reshape(2, 4, 21, 3), batch[0], feasible, near_straight):
        value, grad = bend_penalty_with_grad(joints)
        want_value, want_grad = bend_cross_oracle(joints)
        assert value.shape == want_value.shape and grad.shape == want_grad.shape
        assert np.all(value == want_value)
        for got, want in zip(grad.reshape(-1, 63), want_grad.reshape(-1, 63)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert bend_penalty_with_grad(near_straight)[0].min() > 0.0
    assert bend_penalty_with_grad(feasible)[0] == 0.0
    assert bend_penalty_with_grad(batch)[0].max() > 0.0


def test_bend_penalty_keeps_its_digits_on_nearly_straight_fingers(desk, rng):
    # s of nearly straight fingers is a small difference of large products:
    # the two cross products keep it to ~1e-13 (mm^4) at 0.1 mm of noise and
    # far less below, where the Gram form of s, (b3.b2)(b2.b1) - (b3.b1)(b2.b2),
    # errs by ~1e-10 at every noise level
    rest = straight_finger_skeleton(desk)
    for scale in (1e-7, 1e-5, 1e-3, 1e-1):
        for _ in range(3):
            joints = rest + rng.normal(scale=scale, size=rest.shape)
            value = bend_penalty_with_grad(joints)[0]
            assert abs(Fraction(float(value)) - bend_exact_oracle(joints)) <= 1e-12


def test_bend_penalty_rigid_invariance(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    base = bend_penalty_with_grad(joints)[0]
    rot = rodrigues(rng.normal(size=3))
    moved = joints @ rot.T + rng.normal(scale=50, size=3)
    assert bend_penalty_with_grad(moved)[0] == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_bend_penalty_scaling_preserves_sign(rng):
    for _ in range(20):
        joints = rng.normal(scale=30, size=(21, 3))
        base = bend_penalty_with_grad(joints)[0]
        scaled = bend_penalty_with_grad(joints * 2.0)[0]
        if base == 0.0:
            assert scaled == 0.0
        else:
            assert scaled == pytest.approx(base * 16.0, rel=1e-9)


def test_bend_penalty_degenerate_bone(desk):
    joints = straight_finger_skeleton(desk).copy()
    joints[kin.finger_joint(1, 3)] = joints[kin.finger_joint(1, 2)]
    with pytest.raises(NumericError):
        bend_penalty_with_grad(joints)


def test_bend_penalty_degenerate_bone_names_the_first_such_finger(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    joints[kin.finger_joint(4, 1)] = joints[kin.finger_joint(4, 0)]
    joints[kin.finger_joint(3, 3)] = joints[kin.finger_joint(3, 2)]
    with pytest.raises(NumericError, match="bone on ring finger"):
        bend_penalty_with_grad(joints)


def test_bend_penalty_gradient_matches_fd(rng):
    h = 1e-6
    checked = 0
    while checked < 5:
        joints = rng.normal(scale=30, size=(21, 3))
        value, grad = bend_penalty_with_grad(joints)
        if value == 0.0:
            continue
        checked += 1
        for _ in range(6):
            j, c = rng.integers(21), rng.integers(3)
            jp = joints.copy()
            jp[j, c] += h
            jm = joints.copy()
            jm[j, c] -= h
            fd = (bend_oracle(jp) - bend_oracle(jm)) / (2 * h)
            assert grad[j, c] == pytest.approx(fd, rel=1e-4, abs=1e-3)


def test_bend_penalty_batch_matches_single_calls(desk, axes, rng):
    # only the middle skeleton bends against itself: its index finger's DIP
    # is hyper-extended against a flexed PIP
    opposed = angles({"index_pip_flex": 1.0, "index_dip_flex": -0.7})
    skeletons = np.stack([straight_finger_skeleton(desk),
                          posed_joints(desk, axes, opposed, np.zeros(10)),
                          posed_joints(desk, axes, np.zeros(23), rng.normal(size=10))])
    penalties, grads = bend_penalty_with_grad(skeletons)
    assert penalties.shape == (3,) and grads.shape == (3, 21, 3)
    assert penalties[1] > 0.0 and np.abs(grads[1]).max() > 0.0
    for joints, penalty, grad in zip(skeletons, penalties, grads):
        one_penalty, one_grad = bend_penalty_with_grad(joints)
        assert penalty.tobytes() == np.float64(one_penalty).tobytes()
        assert grad.tobytes() == one_grad.tobytes()
    # more leading axes reshape the same way
    stacked = bend_penalty_with_grad(np.stack([skeletons, skeletons[::-1]]))
    assert stacked[0][0].tobytes() == penalties.tobytes()
    assert stacked[1][1].tobytes() == grads[::-1].tobytes()


def test_bend_penalty_degenerate_bone_in_a_batch_names_its_finger(rng):
    skeletons = rng.normal(scale=30, size=(3, 21, 3))
    skeletons[2, kin.finger_joint(2, 2)] = skeletons[2, kin.finger_joint(2, 1)]
    with pytest.raises(NumericError, match="bone on middle finger"):
        bend_penalty_with_grad(skeletons)


# ---------------------------------------------------------------------------
# fit loss
# ---------------------------------------------------------------------------

def make_target(model, axes, limits, rng, with_vertices=True):
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    art = bio_dof.expand_batch(bio[None], axes)
    out = kin.fk_forward(model, art, beta[None], want_vertices=True,
                         want_regressed=True)
    target = FitTarget(joints=out.regressed_joints[0],
                       vertices=out.vertices[0] if with_vertices else None)
    return bio, beta, target


def loss_of_one(model, axes, target, bio, beta, rot=None, trans=None,
                bend_weight=1e-2, loss_kind="huber", want_grad=False):
    """``batch_fit_loss`` on a batch of one: the loss and, with
    ``want_grad``, the (39,) gradient (else None)."""
    params = [None if p is None else np.asarray(p, float)[None]
              for p in (bio, beta, rot, trans)]
    loss, grads = ik_optim.batch_fit_loss(
        model, axes, *params,
        None if target.joints is None else target.joints[None],
        None if target.vertices is None else target.vertices[None],
        bend_weight, loss_kind, want_grad)
    assert loss.shape == (1,)
    return loss[0], None if grads is None else np.concatenate(grads, axis=1)[0]


def test_fit_loss_self_consistency(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    lam = 0.01
    loss, grad = loss_of_one(desk, axes, target, bio, beta, bend_weight=lam)
    assert grad is None
    joints = posed_joints(desk, axes, bio, beta)
    assert loss == pytest.approx(lam * bend_penalty_with_grad(joints)[0], abs=1e-12)


def test_fit_loss_matches_mean_robust_distance_oracle(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng, with_vertices=False)
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    loss, _ = loss_of_one(desk, axes, target, bio, beta, bend_weight=0.0)
    joints = posed_joints(desk, axes, bio, beta)
    acc = 0.0
    for k in range(21):
        for c in range(3):
            r = abs(joints[k, c] - target.joints[k, c])
            acc += 0.5 * r * r if r <= 1.0 else r - 0.5
    assert loss == pytest.approx(acc / 63.0, rel=1e-12)


def test_batch_fit_loss_rows_are_single_losses(desk, axes, limits, rng):
    # two samples, each with its own target: each batch loss is the sample's
    # B = 1 loss and each gradient row is the sample's gradient
    singles, rows = [], []
    for _ in range(2):
        _, _, target = make_target(desk, axes, limits, rng)
        params = (rng.uniform(limits.lower, limits.upper), rng.normal(scale=0.5, size=10),
                  rng.normal(scale=0.2, size=3), rng.normal(scale=5.0, size=3))
        singles.append(loss_of_one(desk, axes, target, *params, bend_weight=0.5,
                                   want_grad=True))
        rows.append((*params, target.joints, target.vertices))
    batch = [np.stack(column) for column in zip(*rows)]
    loss, grads = ik_optim.batch_fit_loss(desk, axes, *batch, 0.5, "huber",
                                          want_grad=True)
    assert loss.shape == (2,)
    np.testing.assert_allclose(loss, [single[0] for single in singles], rtol=1e-12)
    assert [g.shape for g in grads] == [(2, 23), (2, 10), (2, 3), (2, 3)]
    batch_grad = np.concatenate(grads, axis=1)
    for row, (_, single_grad) in zip(batch_grad, singles):
        np.testing.assert_allclose(row, single_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(single_grad).max())


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_jacobian_zero_at_data_minimum(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    _, grad = loss_of_one(desk, axes, target, bio, beta, bend_weight=0.0,
                          want_grad=True)
    assert np.abs(grad).max() < 1e-8


def test_jacobian_matches_finite_differences(desk, axes, limits, rng):
    h = 1e-5
    for _ in range(10):
        _, _, target = make_target(desk, axes, limits, rng)
        bio = rng.uniform(limits.lower - 0.4, limits.upper + 0.4)
        beta = rng.normal(scale=0.5, size=10)
        rot = rng.normal(scale=0.3, size=3)
        trans = rng.normal(scale=10.0, size=3)
        _, grad = loss_of_one(desk, axes, target, bio, beta, rot, trans,
                              want_grad=True)
        x = np.concatenate([bio, beta, rot, trans])
        for i in rng.choice(39, size=6, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp = loss_of_one(desk, axes, target, xp[:23], xp[23:33], xp[33:36],
                             xp[36:])[0]
            lm = loss_of_one(desk, axes, target, xm[:23], xm[23:33], xm[33:36],
                             xm[36:])[0]
            fd = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_fixed_point_at_ground_truth(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    joints = posed_joints(desk, axes, bio, beta)
    floor = 0.01 * bend_penalty_with_grad(joints)[0]
    config = FitConfig(iterations=5)
    result = fit(desk, target, init_bio=bio, init_beta=beta, config=config,
                 limits=limits, axes=axes)
    assert result.loss_trace[0] == pytest.approx(floor, abs=1e-10)
    assert min(result.loss_trace) <= result.loss_trace[0] + 1e-12
    # parameters stay put within the step tolerance of a zero-gradient start
    np.testing.assert_allclose(result.bio.values, bio, atol=0.06)
    np.testing.assert_allclose(result.beta.beta, beta, atol=0.06)


def test_fit_reduces_joint_error(desk, axes, limits):
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        bio, beta, target = make_target(desk, axes, limits, rng)
        init = np.clip(bio + rng.normal(scale=0.1, size=23),
                       limits.lower, limits.upper)
        result = fit(desk, target, init_bio=init, init_beta=beta,
                     config=FitConfig(iterations=20), limits=limits, axes=axes)
        before = np.linalg.norm(
            posed_joints(desk, axes, init, beta) - target.joints, axis=1).mean()
        after = np.linalg.norm(
            posed_joints(desk, axes, result.bio.values, result.beta.beta,
                         result.global_rot, result.translation)
            - target.joints, axis=1).mean()
        wins += after < before
    assert wins >= 18


def test_fit_convergence_long_run(desk, axes, limits):
    rng = np.random.default_rng(7)
    bio, beta, target = make_target(desk, axes, limits, rng)
    init = bio + rng.normal(scale=0.1, size=23)
    result = fit(desk, target, init_bio=init, init_beta=beta,
                 config=FitConfig(iterations=200), limits=limits, axes=axes)
    final = posed_joints(desk, axes, result.bio.values, result.beta.beta,
                         result.global_rot, result.translation)
    assert np.linalg.norm(final - target.joints, axis=1).mean() < 0.5


def test_fit_freeze_shape_is_bit_exact(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    init_beta = rng.normal(scale=0.5, size=10)
    result = fit(desk, target, init_bio=np.zeros(23), init_beta=init_beta,
                 config=FitConfig(iterations=10, freeze_shape=True),
                 limits=limits, axes=axes)
    assert result.beta.beta.tobytes() == init_beta.tobytes()


def _allocating_adam_fit(model, target, x, config, limits, axes):
    """The fit loop with an allocating Adam update on one parameter vector,
    as ``fit`` ran before it shared the in-place ``adam_step``."""
    nd = bio_dof.DOF_COUNT
    frozen_beta = x[nd:nd + 10].copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_loss, best_x, trace = np.inf, x.copy(), []
    for t in range(config.iterations):
        loss, grad = loss_of_one(model, axes, target, x[:nd], x[nd:nd + 10],
                                 x[nd + 10:nd + 13], x[nd + 13:], config.bend_weight,
                                 "huber", want_grad=True)
        trace.append(loss)
        if loss < best_loss:
            best_loss, best_x = loss, x.copy()
        grad[nd:nd + 10] = 0.0
        frac = t / max(config.iterations - 1, 1)
        lr = config.step_size * (0.02 + (1 - 0.02) * 0.5 * (1 + np.cos(np.pi * frac)))
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1 ** (t + 1))
        vhat = v / (1 - beta2 ** (t + 1))
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        x[:nd] = np.clip(x[:nd], limits.lower, limits.upper)
        x[nd:nd + 10] = frozen_beta
    return best_x, trace


def test_fit_adam_matches_allocating_oracle(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng)
    x = np.concatenate([rng.uniform(limits.lower, limits.upper),
                        rng.normal(scale=0.5, size=10),
                        rng.normal(scale=0.2, size=3), rng.normal(scale=5.0, size=3)])
    config = FitConfig(iterations=8, freeze_shape=True)
    result = fit(desk, target, x[:23], x[23:33], x[33:36], x[36:], config=config,
                 limits=limits, axes=axes)
    best_x, trace = _allocating_adam_fit(desk, target, x.copy(), config, limits, axes)
    assert np.array(result.loss_trace).tobytes() == np.array(trace).tobytes()
    got = np.concatenate([result.bio.values, result.beta.beta, result.global_rot,
                          result.translation])
    best_x[:23] = np.clip(best_x[:23], limits.lower, limits.upper)
    assert got.tobytes() == best_x.tobytes()


def test_fit_best_iterate_not_worse_than_initial(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    init = bio + rng.normal(scale=0.3, size=23)
    result = fit(desk, target, init_bio=init, init_beta=beta,
                 config=FitConfig(iterations=15), limits=limits, axes=axes)
    assert min(result.loss_trace) <= result.loss_trace[0]
    assert len(result.loss_trace) == 15


def test_fit_final_pose_feasible(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng)
    init = rng.normal(scale=2.0, size=23)  # far outside the box
    result = fit(desk, target, init_bio=init, config=FitConfig(iterations=5),
                 limits=limits, axes=axes)
    assert bio_dof.is_feasible(result.bio, limits)


def test_fit_clamps_the_initial_angles_before_the_first_loss(desk_small, limits, rng):
    # one iteration from an init past DoF 0's upper limit: the returned
    # (best) iterate is the first one, so it must be the clamped init and its
    # loss the first traced one
    axes = bio_dof.derive_axes(desk_small)
    _, _, target = make_target(desk_small, axes, limits, rng, with_vertices=False)
    init = np.zeros(bio_dof.DOF_COUNT)
    init[0] = limits.upper[0] + 0.5
    result = fit(desk_small, target, init_bio=init,
                 config=FitConfig(iterations=1, bend_weight=0.0), limits=limits, axes=axes)
    assert bio_dof.is_feasible(result.bio, limits)
    loss, _ = loss_of_one(desk_small, axes, target, result.bio.values, result.beta.beta,
                          result.global_rot, result.translation, bend_weight=0.0)
    assert loss == result.loss_trace[0]


def test_fit_rejects_non_finite_init(desk, axes, limits):
    target = FitTarget(joints=np.zeros((21, 3)))
    with pytest.raises(ValueError):
        fit(desk, target, init_bio=np.full(23, np.nan), limits=limits,
            axes=axes)


def test_fit_target_requires_data():
    with pytest.raises(ValueError):
        FitTarget()


# ---------------------------------------------------------------------------
# batched fit
# ---------------------------------------------------------------------------

def test_batched_fit_rows_match_solo_runs(desk, axes, limits, rng):
    bio_t = bio_dof.sample_uniform(limits, 4, rng)
    beta_t = rng.normal(scale=0.5, size=(4, 10))
    out = kin.fk_forward(desk, bio_dof.expand_batch(bio_t, axes), beta_t,
                         want_vertices=True, want_regressed=True)
    init_bio = bio_t + rng.normal(scale=0.1, size=(4, 23))
    init_bio[0] = bio_t[0] + rng.normal(scale=0.01, size=23)  # near the target
    init_bio[1] = rng.normal(scale=2.0, size=23)              # outside the limits
    init_beta = beta_t + rng.normal(scale=0.1, size=(4, 10))
    assert not bio_dof.is_feasible(bio_dof.BioPose(init_bio[1]), limits)
    config = FitConfig(iterations=12, step_size=0.005, freeze_shape=True)
    init_trans = np.array([0.02, -0.01, 0.03])                # shared by every row
    batched = fit(desk, FitTarget(joints=out.regressed_joints, vertices=out.vertices),
                  init_bio, init_beta, init_trans=init_trans, config=config,
                  limits=limits, axes=axes)
    assert len(batched) == 4
    for i, result in enumerate(batched):
        solo = fit(desk, FitTarget(joints=out.regressed_joints[i],
                                   vertices=out.vertices[i]),
                   init_bio[i], init_beta[i], init_trans=init_trans, config=config,
                   limits=limits, axes=axes)
        np.testing.assert_allclose(result.loss_trace, solo.loss_trace,
                                   rtol=1e-12, atol=1e-12)
        for got, want in ((result.bio.values, solo.bio.values),
                          (result.global_rot, solo.global_rot),
                          (result.translation, solo.translation)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert result.beta.beta.tobytes() == init_beta[i].tobytes()
        assert bio_dof.is_feasible(result.bio, limits)
    # every row runs the whole budget
    assert [len(r.loss_trace) for r in batched] == [12] * 4


def test_fit_of_one_target_is_a_batch_of_one(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    init = bio + rng.normal(scale=0.1, size=23)
    config = FitConfig(iterations=4)
    one = fit(desk, target, init, beta, config=config, limits=limits, axes=axes)
    (row,) = fit(desk, FitTarget(joints=target.joints[None],
                                 vertices=target.vertices[None]),
                 init, beta[None], config=config, limits=limits, axes=axes)
    assert isinstance(one, ik_optim.FitResult)
    assert one.loss_trace == row.loss_trace
    for a, b in ((one.bio.values, row.bio.values), (one.beta.beta, row.beta.beta),
                 (one.global_rot, row.global_rot), (one.translation, row.translation)):
        assert a.tobytes() == b.tobytes()


def test_fit_non_finite_loss_names_the_row(desk, axes, limits, rng, monkeypatch):
    loss_of = ik_optim.batch_fit_loss

    def second_row_diverges(*args, **kwargs):
        loss, grads = loss_of(*args, **kwargs)
        loss[1] = np.nan
        return loss, grads

    monkeypatch.setattr(ik_optim, "batch_fit_loss", second_row_diverges)
    _, _, target = make_target(desk, axes, limits, rng, with_vertices=False)
    batch = FitTarget(joints=np.stack([target.joints] * 3))
    with pytest.raises(NumericError, match=r"^batch row 1, non-finite loss at iteration 0"):
        fit(desk, batch, config=FitConfig(iterations=2), limits=limits, axes=axes)


def test_fit_toward_a_far_target_raises_no_overflow(desk, axes, limits):
    # the Huber penalty's linear branch never squares the residual
    target = FitTarget(joints=np.full((21, 3), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(desk, target, config=FitConfig(iterations=3), limits=limits, axes=axes)
    assert np.isfinite(result.loss_trace).all()


def test_fit_at_the_initial_beta_and_bend_weight_bounds_raises_no_overflow(
        desk, axes, limits):
    # the largest hand the fit may start from, against an opposed bend, with
    # the largest bend weight, step size and iteration count (which let |beta|
    # grow by up to ~3.3e5): the penalty's gradients and their squares in Adam
    # stay finite
    opposed = angles({"index_pip_flex": 1.0, "index_dip_flex": -0.7})
    target = FitTarget(joints=posed_joints(desk, axes, opposed, np.zeros(10)))
    init_beta = np.where(np.arange(10) % 2, -1.0, 1.0) * ik_optim.MAX_INIT_BETA
    config = FitConfig(bend_weight=ik_optim.MAX_BEND_WEIGHT, step_size=ik_optim.MAX_STEP_SIZE,
                       iterations=ik_optim.MAX_ITERATIONS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(UserWarning, match="soft bound"):   # the result's |beta|
            result = fit(desk, target, opposed, init_beta, config=config,
                         limits=limits, axes=axes)
    assert np.isfinite(result.loss_trace).all()

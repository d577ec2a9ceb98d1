import numpy as np
import pytest

from handkit import bio_dof, ik_optim, kinematics as kin
from handkit.ik_optim import (DegenerateSkeletonError, FitConfig,
                              FitTarget, bend_penalty,
                              bend_penalty_with_grad, fit, fit_jacobian,
                              fit_loss, write_fit_report)
from handkit.rotations import rodrigues


def straight_finger_skeleton(desk):
    from handkit.hand_model import rest_joints
    return rest_joints(desk).joints  # desk fingers are straight radial lines


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
    assert bend_penalty(joints) == 0.0
    # the desk rest pose is straight up to regression round-off
    assert bend_penalty(straight_finger_skeleton(desk)) < 1e-18


def test_bend_penalty_zero_for_same_direction_bend(desk, axes):
    # flexing PIP and DIP the same way keeps every finger strictly on the
    # satisfied side (s > 0), so the hinge contributes exactly zero
    bio = bio_dof.BioPose.from_dict({
        f"{f}_{j}_flex": v for f in ("index", "middle", "ring", "little")
        for j, v in (("pip", 0.9), ("dip", 0.6))})
    joints = posed_joints(desk, axes, bio.values, np.zeros(10))
    assert bend_penalty(joints) == 0.0


def test_bend_penalty_positive_for_opposed_bend(desk, axes):
    # hyper-extended DIP against a flexed PIP opposes the cross products
    bio = bio_dof.BioPose.from_dict({"index_pip_flex": 1.0,
                                     "index_dip_flex": -0.7})
    joints = posed_joints(desk, axes, bio.values, np.zeros(10))
    penalty = bend_penalty(joints)
    assert penalty > 0.0
    assert penalty == pytest.approx(bend_oracle(joints), rel=1e-12)


def test_bend_penalty_matches_oracle_on_random_skeletons(rng):
    for _ in range(50):
        joints = rng.normal(scale=30, size=(21, 3))
        assert bend_penalty(joints) == pytest.approx(bend_oracle(joints),
                                                     rel=1e-9, abs=1e-9)


def test_bend_penalty_rigid_invariance(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    base = bend_penalty(joints)
    rot = rodrigues(rng.normal(size=3))
    moved = joints @ rot.T + rng.normal(scale=50, size=3)
    assert bend_penalty(moved) == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_bend_penalty_scaling_preserves_sign(rng):
    for _ in range(20):
        joints = rng.normal(scale=30, size=(21, 3))
        base = bend_penalty(joints)
        scaled = bend_penalty(joints * 2.0)
        if base == 0.0:
            assert scaled == 0.0
        else:
            assert scaled == pytest.approx(base * 16.0, rel=1e-9)


def test_bend_penalty_degenerate_bone(desk):
    joints = straight_finger_skeleton(desk).copy()
    joints[kin.finger_joint(1, 3)] = joints[kin.finger_joint(1, 2)]
    with pytest.raises(DegenerateSkeletonError):
        bend_penalty(joints)


def test_bend_penalty_degenerate_bone_names_the_first_such_finger(rng):
    joints = rng.normal(scale=30, size=(21, 3))
    joints[kin.finger_joint(4, 1)] = joints[kin.finger_joint(4, 0)]
    joints[kin.finger_joint(3, 3)] = joints[kin.finger_joint(3, 2)]
    with pytest.raises(DegenerateSkeletonError, match="bone on ring finger"):
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


def test_fit_loss_self_consistency(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    lam = 0.01
    loss = fit_loss(desk, bio, beta, target=target, bend_weight=lam, axes=axes)
    joints = posed_joints(desk, axes, bio, beta)
    assert loss == pytest.approx(lam * bend_penalty(joints), abs=1e-12)


def test_fit_loss_matches_mean_robust_distance_oracle(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng, with_vertices=False)
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    loss = fit_loss(desk, bio, beta, target=target, bend_weight=0.0, axes=axes)
    joints = posed_joints(desk, axes, bio, beta)
    acc = 0.0
    for k in range(21):
        for c in range(3):
            r = abs(joints[k, c] - target.joints[k, c])
            acc += 0.5 * r * r if r <= 1.0 else r - 0.5
    assert loss == pytest.approx(acc / 63.0, rel=1e-12)


def test_fit_loss_linear_in_weights(desk, axes, limits, rng):
    bio_t, beta_t, target = make_target(desk, axes, limits, rng,
                                        with_vertices=False)
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    single = fit_loss(desk, bio, beta_t, target=target, bend_weight=0.0,
                      axes=axes)
    target2 = FitTarget(joints=target.joints, weight_joints=2.0)
    double = fit_loss(desk, bio, beta_t, target=target2, bend_weight=0.0,
                      axes=axes)
    assert double == pytest.approx(2.0 * single, rel=1e-12)


def test_l2_loss_kind(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng, with_vertices=False)
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    loss = fit_loss(desk, bio, beta, target=target, bend_weight=0.0,
                    loss_kind="l2", axes=axes)
    joints = posed_joints(desk, axes, bio, beta)
    assert loss == pytest.approx(((joints - target.joints) ** 2).mean(),
                                 rel=1e-12)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_jacobian_zero_at_data_minimum(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    grad = fit_jacobian(desk, bio, beta, target=target, bend_weight=0.0,
                        axes=axes)
    assert np.abs(grad).max() < 1e-8


def test_jacobian_matches_finite_differences(desk, axes, limits, rng):
    h = 1e-5
    for _ in range(10):
        _, _, target = make_target(desk, axes, limits, rng)
        bio = rng.uniform(limits.lower - 0.4, limits.upper + 0.4)
        beta = rng.normal(scale=0.5, size=10)
        rot = rng.normal(scale=0.3, size=3)
        trans = rng.normal(scale=10.0, size=3)
        grad = fit_jacobian(desk, bio, beta, rot, trans, target, axes=axes)
        x = np.concatenate([bio, beta, rot, trans])
        for i in rng.choice(39, size=6, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp = fit_loss(desk, xp[:23], xp[23:33], xp[33:36], xp[36:], target,
                          axes=axes)
            lm = fit_loss(desk, xm[:23], xm[23:33], xm[33:36], xm[36:], target,
                          axes=axes)
            fd = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-10)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_fixed_point_at_ground_truth(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    joints = posed_joints(desk, axes, bio, beta)
    floor = 0.01 * bend_penalty(joints)
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


def test_fit_best_iterate_not_worse_than_initial(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    init = bio + rng.normal(scale=0.3, size=23)
    result = fit(desk, target, init_bio=init, init_beta=beta,
                 config=FitConfig(iterations=15), limits=limits, axes=axes)
    assert min(result.loss_trace) <= result.loss_trace[0]
    assert len(result.loss_trace) <= 15


def test_fit_final_pose_feasible(desk, axes, limits, rng):
    _, _, target = make_target(desk, axes, limits, rng)
    init = rng.normal(scale=2.0, size=23)  # far outside the box
    result = fit(desk, target, init_bio=init, config=FitConfig(iterations=5),
                 limits=limits, axes=axes)
    assert bio_dof.is_feasible(result.bio, limits)


def test_fit_early_stop_sets_converged(desk, axes, limits, rng):
    bio, beta, target = make_target(desk, axes, limits, rng)
    result = fit(desk, target, init_bio=bio, init_beta=beta,
                 config=FitConfig(iterations=50, convergence_tol=1e-3),
                 limits=limits, axes=axes)
    assert result.converged
    assert len(result.loss_trace) < 50


def test_fit_rejects_non_finite_init(desk, axes, limits):
    target = FitTarget(joints=np.zeros((21, 3)))
    with pytest.raises(ValueError):
        fit(desk, target, init_bio=np.full(23, np.nan), limits=limits,
            axes=axes)


def test_fit_report_file(desk, axes, limits, rng, tmp_path):
    bio, beta, target = make_target(desk, axes, limits, rng)
    result = fit(desk, target, init_bio=bio, init_beta=beta,
                 config=FitConfig(iterations=3), limits=limits, axes=axes)
    path = tmp_path / "report.txt"
    write_fit_report(result, path)
    text = path.read_text()
    assert "loss 0" in text and "bio index_mcp_flex" in text
    assert "global_rot" in text


def test_fit_target_requires_data():
    with pytest.raises(ValueError):
        FitTarget()
    with pytest.raises(ValueError):
        FitTarget(joints=np.zeros((21, 3)), weight_joints=0.0)

import numpy as np
import pytest

from handkit import bio_dof, kinematics as kin
from handkit.errors import NumericError
from handkit.containers import read_container, write_container
from handkit.ik_net import (FEATURE_DIM, MlpIk, TrainConfig, batch_loss,
                            featurize_batch, generate_pairs, load_checkpoint,
                            predict, save_checkpoint, train)
from handkit.rotations import rodrigues


def features_oracle(joints):
    """Per-edge loop: direction and scaled length for each kinematic bone."""
    dirs = []
    lengths = []
    for child in range(1, 21):
        parent = kin.PARENTS[child]
        b = [joints[child][c] - joints[parent][c] for c in range(3)]
        n = (b[0] ** 2 + b[1] ** 2 + b[2] ** 2) ** 0.5
        dirs.extend(v / n for v in b)
        lengths.append(n / 100.0)
    return np.array(dirs + lengths)


def random_skeleton(rng):
    joints = np.zeros((21, 3))
    joints[1:] = rng.normal(scale=30, size=(20, 3))
    return joints + rng.normal(scale=20, size=3)


def directions_and_lengths(row):
    """A feature row split into its (20, 3) unit directions and 20 lengths."""
    return row[:60].reshape(20, 3), row[60:]


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def test_featurize_rest_pose(desk):
    joints = desk.tensors.J0
    directions, lengths = directions_and_lengths(featurize_batch(joints)[0])
    parents = np.array([p for p, _ in kin.BONES])
    children = np.array([c for _, c in kin.BONES])
    expected_len = np.linalg.norm(joints[children] - joints[parents], axis=1)
    np.testing.assert_allclose(lengths, expected_len / 100.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0,
                               atol=1e-6)


def test_featurize_translation_invariant(rng):
    joints = random_skeleton(rng)
    a = featurize_batch(joints)
    b = featurize_batch(joints + [123.0, -55.0, 9.0])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_featurize_rotation_equivariant(rng):
    joints = random_skeleton(rng)
    rot = rodrigues(rng.normal(size=3))
    a_dirs, a_lengths = directions_and_lengths(featurize_batch(joints)[0])
    b_dirs, b_lengths = directions_and_lengths(featurize_batch(joints @ rot.T)[0])
    np.testing.assert_allclose(b_dirs, a_dirs @ rot.T, atol=1e-9)
    np.testing.assert_allclose(b_lengths, a_lengths, atol=1e-9)


def test_featurize_matches_edge_oracle(rng):
    joints = np.stack([random_skeleton(rng) for _ in range(3)])
    np.testing.assert_allclose(featurize_batch(joints),
                               [features_oracle(j) for j in joints], atol=1e-12)


def test_featurize_zero_length_bone(rng):
    joints = random_skeleton(rng)
    joints[2] = joints[1]
    with pytest.raises(NumericError):
        featurize_batch(joints)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_zero_heads_gives_rest(desk, limits, rng):
    net = MlpIk(seed=3)
    net.arrays["head_theta_w"][:] = 0.0
    net.arrays["head_beta_w"][:] = 0.0
    feats = featurize_batch(random_skeleton(rng))
    bio, beta = predict(net, feats, limits)
    assert bio.shape == (1, 23) and beta.shape == (1, 10)
    assert np.all(bio == 0.0)
    assert np.all(beta == 0.0)


def test_predict_deterministic(desk, limits, rng):
    net = MlpIk(seed=4)
    feats = featurize_batch(random_skeleton(rng))
    a = predict(net, feats, limits)
    b = predict(net, feats, limits)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


def test_predict_batch_rows_match_single_rows(limits, rng):
    net = MlpIk(seed=4, dtype=np.float64)
    feats = featurize_batch(np.stack([random_skeleton(rng) for _ in range(5)]))
    bio, beta = predict(net, feats, limits)
    for i in range(5):
        one_bio, one_beta = predict(net, feats[i:i + 1], limits)
        np.testing.assert_allclose(bio[i], one_bio[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(beta[i], one_beta[0], rtol=0, atol=1e-12)


def test_predict_batch_rows_match_single_rows_float32(limits, rng):
    # A batch and a single row may take BLAS kernels that sum in another
    # order.  The rounding error of a float32 sum of n terms grows like
    # sqrt(n) eps times the sum of the terms' magnitudes, and it compounds
    # over the four affine layers; a head output's terms are |h| @ |W| for
    # the last hidden activation h.
    net = MlpIk(seed=4)
    feats = featurize_batch(np.stack([random_skeleton(rng) for _ in range(5)]))
    bio, beta = predict(net, feats, limits)
    assert bio.dtype == beta.dtype == np.float64
    _, _, hidden = net._tape   # the heads' input from the batch forward
    hidden = np.abs(hidden)
    slack = 4 * np.sqrt(max(net.widths)) * np.finfo(np.float32).eps
    for i in range(5):
        one_bio, one_beta = predict(net, feats[i:i + 1], limits)
        assert np.all(np.abs(bio[i] - one_bio[0])
                      <= slack * hidden[i] @ np.abs(net.arrays["head_theta_w"]))
        assert np.all(np.abs(beta[i] - one_beta[0])
                      <= slack * hidden[i] @ np.abs(net.arrays["head_beta_w"]))


def test_predict_rejects_unbatched_features(limits, rng):
    with pytest.raises(ValueError):
        predict(MlpIk(seed=4), featurize_batch(random_skeleton(rng))[0], limits)


def test_predict_clamps_to_limits(limits, rng):
    net = MlpIk(seed=5)
    net.arrays["head_theta_b"][:] = 10.0  # force everything far above the limits
    bio, _ = predict(net, featurize_batch(random_skeleton(rng)), limits)
    assert bio_dof.is_feasible(bio_dof.BioPose(bio[0]), limits)
    np.testing.assert_array_equal(bio[0], limits.upper)


def test_hand_traced_single_block_forward():
    # one block, identity-like weights, crafted input: the activation path is
    # hand-computable because batch statistics start at mean 0 / var 1
    net = MlpIk(widths=(4,), input_dim=4, seed=0, dtype=np.float64)
    net.arrays["w0"][:] = np.eye(4)
    net.arrays["bn0_mean"][:] = [0.0, -1.0, 1.0, -0.5]
    net.arrays["head_theta_w"][:] = 0.0
    net.arrays["head_theta_w"][0, 0] = 1.0
    net.arrays["head_theta_b"][:] = 0.0
    net.arrays["head_beta_w"][:] = 0.0
    x = np.array([[2.0, -3.0, 0.25, 0.0]])
    theta, _ = net.forward(x, training=False)
    # linear minus the running mean: [2, -2, -0.75, 0.5]; bn scales by
    # 1 / sqrt(1 + eps); relu keeps [2, 0, 0, 0.5]; head picks feature 0
    expected = 2.0 / np.sqrt(1.0 + 1e-5)
    assert theta[0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.all(theta[0, 1:] == 0.0)


# ---------------------------------------------------------------------------
# ik loss: batch_loss on chosen predictions
# ---------------------------------------------------------------------------

class ChosenPrediction:
    """Stand-in for MlpIk whose forward returns the chosen (theta, beta)."""

    def __init__(self, theta, beta):
        self.theta, self.beta = theta[None], beta[None]

    def forward(self, feats, training=False):
        return self.theta, self.beta


def loss_of(pred, truth, model, axes):
    """batch_loss of one (angles, shape) prediction against the truth, whose
    joints are regressed from the truth's posed mesh."""
    (theta, beta), (bio_t, beta_t) = pred, truth
    truth_joints = kin.fk_forward(model, bio_dof.expand_batch(bio_t[None], axes),
                                  beta_t[None], want_regressed=True).regressed_joints
    return batch_loss(ChosenPrediction(theta, beta), model, axes, None,
                      bio_t[None], beta_t[None], truth_joints)


def test_ik_loss_zero_for_equal_pairs(desk, axes, limits, rng):
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    total, lt, lb, lp = loss_of((bio, beta), (bio, beta), desk, axes)
    assert total == lt == lb == lp == 0.0


def test_ik_loss_single_component_offset(desk, axes, limits, rng):
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    delta = 0.23
    shifted = bio.copy()
    shifted[bio_dof.DOF_NAMES.index("ring_pip_flex")] += delta
    total, lt, lb, lp = loss_of((shifted, beta), (bio, beta), desk, axes)
    assert lt == pytest.approx(delta / 23.0, rel=1e-12)
    assert lb == 0.0
    # joint term equals the FK-difference oracle
    art_p = bio_dof.expand_batch(shifted[None], axes)
    art_t = bio_dof.expand_batch(bio[None], axes)
    jp = kin.fk_forward(desk, art_p, beta[None],
                        want_regressed=True).regressed_joints
    jt = kin.fk_forward(desk, art_t, beta[None],
                        want_regressed=True).regressed_joints
    assert lp == pytest.approx(np.abs(jp - jt).mean(), rel=1e-12)
    assert total == pytest.approx(lt + lb + lp, rel=1e-12)


def test_ik_loss_l1_homogeneity(desk, axes, limits, rng):
    bio = bio_dof.sample_uniform(limits, 1, rng)[0]
    beta = rng.normal(scale=0.5, size=10)
    d_bio = rng.normal(scale=0.05, size=23)
    d_beta = rng.normal(scale=0.05, size=10)
    _, lt1, lb1, _ = loss_of((bio + d_bio, beta + d_beta), (bio, beta),
                             desk, axes)
    _, lt2, lb2, _ = loss_of((bio + 2 * d_bio, beta + 2 * d_beta), (bio, beta),
                             desk, axes)
    assert lt2 == pytest.approx(2 * lt1, rel=1e-12)
    assert lb2 == pytest.approx(2 * lb1, rel=1e-12)


# ---------------------------------------------------------------------------
# generate_pairs
# ---------------------------------------------------------------------------

def test_generate_pairs_deterministic(desk, limits):
    a = generate_pairs(desk, 3, limits, seed=77)
    b = generate_pairs(desk, 3, limits, seed=77)
    assert a.bio.tobytes() == b.bio.tobytes()
    assert a.skeletons.tobytes() == b.skeletons.tobytes()


def test_generate_pairs_feasible(desk, limits):
    data = generate_pairs(desk, 200, limits, seed=8)
    assert np.all(data.bio >= limits.lower)
    assert np.all(data.bio <= limits.upper)


def test_generate_pairs_skeletons_recomputable(desk, axes, limits):
    data = generate_pairs(desk, 10, limits, seed=9)
    art = bio_dof.expand_batch(data.bio, axes)
    again = kin.fk_forward(desk, art, data.beta).joints
    np.testing.assert_allclose(data.skeletons, again, atol=1e-12)


def test_generate_pairs_blocks_match_one_fk_call(desk, axes, limits):
    # two full 1024-row blocks and a remainder
    data = generate_pairs(desk, 2500, limits, seed=10)
    art = bio_dof.expand_batch(data.bio, axes)
    assert data.skeletons.tobytes() == kin.fk_forward(desk, art, data.beta).joints.tobytes()


def test_generate_pairs_rejects_empty(desk, limits):
    with pytest.raises(ValueError):
        generate_pairs(desk, 0, limits)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_zero_rate_keeps_parameters(desk, limits):
    data = generate_pairs(desk, 32, limits, seed=10)
    net = MlpIk(seed=1)
    before = {name: net.arrays[name].copy() for name in net.grads}
    config = TrainConfig(epochs=1, decay_epochs=(), batch_size=32,
                         learning_rate=0.0, seed=0)
    net, curve = train(net, data, config)
    for name in net.grads:
        np.testing.assert_array_equal(net.arrays[name], before[name])
    assert len(curve) == 1


def test_backprop_matches_finite_differences(desk, axes, limits, rng):
    data = generate_pairs(desk, 16, limits, seed=12)
    feats = featurize_batch(data.skeletons[:8])
    net = MlpIk(seed=2, dtype=np.float64)
    net.forward(featurize_batch(data.skeletons), training=True)  # warm stats
    net.zero_grads()
    batch_loss(net, desk, axes, feats, data.bio[:8], data.beta[:8],
               data.skeletons[:8], training=False, compute_grads=True)
    params = list(net.grads)
    h = 1e-6
    for _ in range(12):
        name = params[rng.integers(len(params))]
        arr = net.arrays[name]
        i = rng.integers(arr.size)
        ana = net.grads[name].reshape(-1)[i]
        orig = arr.reshape(-1)[i]
        arr.reshape(-1)[i] = orig + h
        lp = batch_loss(net, desk, axes, feats, data.bio[:8], data.beta[:8],
                        data.skeletons[:8])[0]
        arr.reshape(-1)[i] = orig - h
        lm = batch_loss(net, desk, axes, feats, data.bio[:8], data.beta[:8],
                        data.skeletons[:8])[0]
        arr.reshape(-1)[i] = orig
        fd = (lp - lm) / (2 * h)
        assert ana == pytest.approx(fd, rel=1e-3, abs=1e-9)


def test_short_training_reduces_loss(desk, limits):
    data = generate_pairs(desk, 512, limits, seed=13)
    net = MlpIk(seed=3)
    config = TrainConfig(epochs=8, decay_epochs=(6,), batch_size=32,
                         learning_rate=3e-4, seed=1)
    net, curve = train(net, data, config)
    assert curve[-1]["total"] < curve[0]["total"]


def test_train_deterministic(desk, limits):
    data = generate_pairs(desk, 64, limits, seed=14)
    config = TrainConfig(epochs=2, decay_epochs=(), batch_size=32,
                         learning_rate=1e-4, seed=2)
    n1, c1 = train(MlpIk(seed=4), data, config)
    n2, c2 = train(MlpIk(seed=4), data, config)
    assert c1 == c2
    for name in n1.grads:
        np.testing.assert_array_equal(n1.arrays[name], n2.arrays[name])


def _per_array_adam_train(net, data, config):
    """The per-array Adam loop ``train`` ran before it held one flat vector,
    kept as the oracle for the in-place update."""
    axes = bio_dof.derive_axes(data.model)
    feats_all = featurize_batch(data.skeletons)
    rng = np.random.default_rng(config.seed)
    adam_m = {name: np.zeros_like(net.arrays[name]) for name in net.grads}
    adam_v = {name: np.zeros_like(net.arrays[name]) for name in net.grads}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    curve = []
    batches = len(data) // config.batch_size
    for epoch in range(config.epochs):
        lr = config.learning_rate
        for d in config.decay_epochs:
            if epoch >= d:
                lr /= 10.0
        perm = rng.permutation(len(data))
        sums = np.zeros(4)
        for b in range(batches):
            idx = perm[b * config.batch_size:(b + 1) * config.batch_size]
            net.zero_grads()
            sums += batch_loss(net, data.model, axes, feats_all[idx],
                               data.bio[idx], data.beta[idx],
                               data.skeletons[idx], training=True,
                               compute_grads=True)
            step += 1
            for name, g in net.grads.items():
                adam_m[name] = beta1 * adam_m[name] + (1 - beta1) * g
                adam_v[name] = beta2 * adam_v[name] + (1 - beta2) * g * g
                mhat = adam_m[name] / (1 - beta1 ** step)
                vhat = adam_v[name] / (1 - beta2 ** step)
                net.arrays[name][...] = (net.arrays[name]
                                         - lr * mhat / (np.sqrt(vhat) + eps))
        mean = sums / batches
        curve.append({"epoch": epoch, "total": mean[0], "theta": mean[1],
                      "beta": mean[2], "pose": mean[3]})
    return net, curve


def test_flat_adam_matches_per_array_oracle(desk_small, limits):
    data = generate_pairs(desk_small, 48, limits, seed=16)
    config = TrainConfig(epochs=2, decay_epochs=(1,), batch_size=16,
                         learning_rate=1e-3, seed=4)
    oracle, oracle_curve = _per_array_adam_train(
        MlpIk(widths=(24, 16, 8), seed=7), data, config)
    net, curve = train(MlpIk(widths=(24, 16, 8), seed=7), data, config)
    assert curve == oracle_curve
    assert list(net.arrays) == list(oracle.arrays)
    for name, value in net.arrays.items():
        np.testing.assert_array_equal(value, oracle.arrays[name], err_msg=name)


def test_parameters_are_views_into_the_flat_vectors():
    net = MlpIk(widths=(8, 8, 8), seed=1)
    size = 0
    for name, grad in net.grads.items():
        value = net.arrays[name]
        assert np.shares_memory(value, net.flat), name
        assert np.shares_memory(grad, net.flat_grad), name
        size += value.size
    assert net.flat.size == net.flat_grad.size == size
    net.flat[:] = 2.0
    assert all((net.arrays[name] == 2.0).all() for name in net.grads)


def test_loaded_net_trains_every_array_and_zeroes_grads(desk_small, limits,
                                                        tmp_path):
    path = tmp_path / "net.hkc"
    save_checkpoint(MlpIk(widths=(16, 16, 16), seed=8), path)
    net = load_checkpoint(path)
    before = {name: net.arrays[name].copy() for name in net.grads}
    data = generate_pairs(desk_small, 32, limits, seed=17)
    net, _ = train(net, data, TrainConfig(epochs=1, decay_epochs=(),
                                          batch_size=16, learning_rate=1e-3))
    for name, grad in net.grads.items():
        assert not np.array_equal(net.arrays[name], before[name]), name
        assert np.abs(grad).max() > 0.0, name
    net.zero_grads()
    for name, grad in net.grads.items():
        assert not grad.any(), name


def test_check_finite_names_the_poisoned_array():
    net = MlpIk(widths=(8, 8, 8), seed=1)
    net.check_finite()
    net.arrays["bn1_gamma"][3] = np.nan
    net.arrays["head_beta_b"][0] = np.inf
    with pytest.raises(NumericError, match="parameter bn1_gamma$"):
        net.check_finite()


def test_checkpoint_layout(tmp_path):
    # every array a checkpoint stores, by name, shape and order
    path = tmp_path / "net.hkc"
    save_checkpoint(MlpIk(widths=(16, 12, 8)), path)
    header, arrays = read_container(path, kind="ik_net_checkpoint")
    assert (header["input_dim"], header["widths"]) == (FEATURE_DIM, [16, 12, 8])
    assert [(name, value.shape) for name, value in arrays.items()] == [
        ("w0", (80, 16)), ("bn0_gamma", (16,)), ("bn0_beta", (16,)),
        ("bn0_mean", (16,)), ("bn0_var", (16,)),
        ("w1", (16, 12)), ("bn1_gamma", (12,)), ("bn1_beta", (12,)),
        ("bn1_mean", (12,)), ("bn1_var", (12,)),
        ("w2", (12, 8)), ("bn2_gamma", (8,)), ("bn2_beta", (8,)),
        ("bn2_mean", (8,)), ("bn2_var", (8,)),
        ("head_theta_w", (8, 23)), ("head_theta_b", (23,)),
        ("head_beta_w", (8, 10)), ("head_beta_b", (10,))]
    assert all(value.dtype == np.float32 for value in arrays.values())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, decay_epochs=(10,))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(desk, limits, tmp_path, rng):
    data = generate_pairs(desk, 64, limits, seed=15)
    net, _ = train(MlpIk(seed=6), data,
                   TrainConfig(epochs=1, decay_epochs=(), batch_size=32,
                               learning_rate=1e-4, seed=3))
    path = tmp_path / "net.hkc"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    feats = featurize_batch(np.stack([random_skeleton(rng) for _ in range(4)]))
    # the net trains in the float32 its checkpoint stores: one net, same bytes
    for a, b in zip(predict(net, feats, limits), predict(loaded, feats, limits)):
        assert a.tobytes() == b.tobytes()


def test_old_checkpoint_biases_fold_into_the_running_mean(tmp_path, rng):
    # a file from before the hidden blocks lost their biases b0-b2
    widths, rows = (16, 12, 8), featurize_batch(
        np.stack([random_skeleton(rng) for _ in range(6)]))
    arrays = {}
    fan_in = FEATURE_DIM
    for i, w in enumerate(widths):
        arrays[f"w{i}"] = rng.normal(scale=0.3, size=(fan_in, w))
        arrays[f"b{i}"] = rng.normal(size=w)
        arrays[f"bn{i}_gamma"] = rng.uniform(0.5, 1.5, w)
        arrays[f"bn{i}_beta"] = rng.normal(scale=0.1, size=w)
        arrays[f"bn{i}_mean"] = rng.normal(size=w)
        arrays[f"bn{i}_var"] = rng.uniform(0.5, 2.0, w)
        fan_in = w
    for head, n in (("theta", 23), ("beta", 10)):
        arrays[f"head_{head}_w"] = rng.normal(scale=0.1, size=(fan_in, n))
        arrays[f"head_{head}_b"] = rng.normal(scale=0.1, size=n)
    arrays = {name: a.astype(np.float32) for name, a in arrays.items()}
    path = tmp_path / "old.hkc"
    write_container(path, {"kind": "ik_net_checkpoint", "input_dim": FEATURE_DIM,
                           "widths": list(widths)}, arrays)

    # the old inference formula, in float64 from the stored values
    a = {name: value.astype(np.float64) for name, value in arrays.items()}
    h = rows
    for i in range(len(widths)):
        z = h @ a[f"w{i}"] + a[f"b{i}"] - a[f"bn{i}_mean"]
        h = np.maximum(a[f"bn{i}_gamma"] * z / np.sqrt(a[f"bn{i}_var"] + 1e-5)
                       + a[f"bn{i}_beta"], 0.0)
    net = load_checkpoint(path)
    assert net.dtype == np.float32
    # float32 round-off, compounded over four layers, of the head's terms
    for head, got in zip(("theta", "beta"), net.forward(rows)):
        w, b = a[f"head_{head}_w"], a[f"head_{head}_b"]
        scale = np.abs(h) @ np.abs(w) + np.abs(b)
        assert np.all(np.abs(got - (h @ w + b)) <= 64 * np.finfo(np.float32).eps * scale)

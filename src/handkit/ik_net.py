"""Learned inverse kinematics: bone featurization, a small fully connected
network with shape and angle heads, and from-scratch training.

The input is a skeleton reduced to its 20 bones: unit directions (60 values)
plus lengths (20 values, divided by 100 so millimeter skeletons feed the net
in decimeter units).  No reference-bone channels are kept.  Three hidden
blocks (affine + per-feature batch statistics normalization + rectifier)
feed two affine heads: 23 feasible angles and 10 shape coefficients.

Training minimizes the sum of three L1 terms: angle error, shape error, and
the positional error of the joints regressed from the re-posed mesh against
the pair's ground-truth skeleton.  Backpropagation is implemented here
directly (affine, normalization, rectifier) and chains into the analytic
forward-kinematics gradients for the positional term.  Adam runs in place
on one flat parameter vector and its gradient twin.  Everything is
deterministic given the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bio_dof, kinematics as kin
from .containers import read_container, write_container
from .errors import InputError, NumericError, ShapeError, as_array, as_number
from .hand_model import HandModel

LENGTH_SCALE = 0.01  # mm -> decimeters for input conditioning
FEATURE_DIM = 20 * 3 + 20
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

def featurize_batch(joints: np.ndarray) -> np.ndarray:
    """(B, 21, 3) skeletons -> (B, 80) feature rows; one (21, 3) skeleton
    gives one row.  A row is the 20 unit bone directions, then the 20 bone
    lengths times LENGTH_SCALE (translation invariant by construction)."""
    joints = as_array(joints, (..., kin.JOINT_COUNT, 3), "skeletons").reshape(
        -1, kin.JOINT_COUNT, 3)
    parents = np.array([p for p, _ in kin.BONES])
    children = np.array([c for _, c in kin.BONES])
    bones = joints[:, children] - joints[:, parents]          # (B, 20, 3)
    lengths = np.linalg.norm(bones, axis=2)
    if (lengths < 1e-9).any():
        raise NumericError("zero-length bone in skeleton")
    dirs = bones / lengths[:, :, None]
    return np.concatenate([dirs.reshape(len(joints), -1),
                           lengths * LENGTH_SCALE], axis=1)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class _Linear:
    def __init__(self, rng, fan_in, fan_out, scale=1.0):
        self.weight = rng.normal(scale=scale * np.sqrt(2.0 / fan_in),
                                 size=(fan_in, fan_out))
        self.bias = np.zeros(fan_out)
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, g):
        self.grad_weight += self._x.T @ g
        self.grad_bias += g.sum(axis=0)
        return g @ self.weight.T


class _BatchNorm:
    def __init__(self, width):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._cache = None

    def forward(self, x, training):
        if training:
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = ((1 - BN_MOMENTUM) * self.running_mean
                                 + BN_MOMENTUM * mu)
            self.running_var = ((1 - BN_MOMENTUM) * self.running_var
                                + BN_MOMENTUM * var)
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mu) * inv_std
        self._cache = (xhat, inv_std, training, x.shape[0])
        return self.gamma * xhat + self.beta

    def backward(self, g):
        xhat, inv_std, training, batch = self._cache
        self.grad_gamma += (g * xhat).sum(axis=0)
        self.grad_beta += g.sum(axis=0)
        gx = g * self.gamma
        if not training:
            return gx * inv_std
        # full backward through the batch statistics
        return (inv_std / batch) * (batch * gx - gx.sum(axis=0)
                                    - xhat * (gx * xhat).sum(axis=0))


class _Relu:
    def __init__(self):
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, g):
        return g * self._mask


class MlpIk:
    """Three hidden blocks (affine + batch statistics + rectifier), two heads.
    Trainable arrays are views into ``flat`` (``grad_*`` into ``flat_grad``)
    in ``parameters()`` order: write into them, never rebind them."""

    def __init__(self, widths=(256, 256, 256), input_dim=FEATURE_DIM, seed=0):
        self.widths = tuple(as_number(w, "hidden width", 1, integer=True)
                            for w in widths)
        self.input_dim = as_number(input_dim, "input_dim", 1, integer=True)
        rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
        self.blocks = []
        fan_in = self.input_dim
        for w in self.widths:
            self.blocks.append((_Linear(rng, fan_in, w), _BatchNorm(w), _Relu()))
            fan_in = w
        # small-scale heads start predictions near the rest pose
        self.head_theta = _Linear(rng, fan_in, bio_dof.DOF_COUNT, scale=0.01)
        self.head_beta = _Linear(rng, fan_in, 10, scale=0.01)
        params = [(owner, attr, getattr(owner, attr))
                  for _, owner, attr in self.parameters()]
        self.flat = np.concatenate([value.ravel() for *_, value in params])
        self.flat_grad = np.zeros_like(self.flat)
        ends = np.cumsum([value.size for *_, value in params])
        for (owner, attr, value), end in zip(params, ends):
            for name, vec in ((attr, self.flat), ("grad_" + attr, self.flat_grad)):
                setattr(owner, name, vec[end - value.size:end].reshape(value.shape))

    def forward(self, x, training=False):
        h = np.asarray(x, dtype=float)
        for linear, norm, relu in self.blocks:
            h = relu.forward(norm.forward(linear.forward(h), training))
        return self.head_theta.forward(h), self.head_beta.forward(h)

    def backward(self, d_theta, d_beta):
        g = self.head_theta.backward(d_theta) + self.head_beta.backward(d_beta)
        for linear, norm, relu in reversed(self.blocks):
            g = linear.backward(norm.backward(relu.backward(g)))
        return g

    def arrays(self):
        """Every stored array as (name, owner, attribute, trainable), in
        checkpoint order; running statistics are stored but not trained."""
        for i, (linear, norm, _) in enumerate(self.blocks):
            yield f"w{i}", linear, "weight", True
            yield f"b{i}", linear, "bias", True
            yield f"bn{i}_gamma", norm, "gamma", True
            yield f"bn{i}_beta", norm, "beta", True
            yield f"bn{i}_mean", norm, "running_mean", False
            yield f"bn{i}_var", norm, "running_var", False
        yield "head_theta_w", self.head_theta, "weight", True
        yield "head_theta_b", self.head_theta, "bias", True
        yield "head_beta_w", self.head_beta, "weight", True
        yield "head_beta_b", self.head_beta, "bias", True

    def parameters(self):
        """The trainable arrays as (name, owner, attribute)."""
        return ((name, owner, attr) for name, owner, attr, trainable
                in self.arrays() if trainable)

    def zero_grads(self):
        self.flat_grad.fill(0.0)

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            name = next(name for name, owner, attr in self.parameters()
                        if not np.isfinite(getattr(owner, attr)).all())
            raise NumericError(f"non-finite parameter {name}")


def predict(net: MlpIk, feats: np.ndarray,
            limits: bio_dof.DofLimits | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic inference with running statistics on (B, 80) feature
    rows: (B, 23) angles clamped to the limits and (B, 10) shape values."""
    limits = limits or bio_dof.DofLimits.default()
    theta, beta = net.forward(as_array(feats, (None, net.input_dim), "features"),
                              training=False)
    if not (np.isfinite(theta).all() and np.isfinite(beta).all()):
        raise NumericError("non-finite network activations")
    return np.clip(theta, limits.lower, limits.upper), beta


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _pose_term(model, axes, theta, beta, skel_gt, compute_grads):
    """L1 joint term through FK, plus its gradients w.r.t. (theta, beta)."""
    art = bio_dof.expand_batch(theta, axes)
    out = kin.fk_forward(model, art, beta, want_regressed=True,
                         need_grad=compute_grads)
    residual = out.regressed_joints - skel_gt
    loss = np.abs(residual).mean()
    if not compute_grads:
        return loss, None, None
    d_reg = np.sign(residual) / residual.size
    grads = kin.fk_backward(model, out, d_regressed=d_reg)
    d_theta = grads.articulation @ axes.expansion_matrix()
    return loss, d_theta, grads.beta


def batch_loss(net: MlpIk, model: HandModel, axes, feats, bio_gt, beta_gt,
               skel_gt, training=False, compute_grads=False):
    """Forward the net on a feature batch and evaluate the three-term loss.

    With compute_grads the parameter gradients are accumulated into the net
    (callers should zero_grads first).  Returns (total, l_theta, l_beta,
    l_pose) as floats.
    """
    theta, beta = net.forward(feats, training=training)
    l_theta = np.abs(theta - bio_gt).mean()
    l_beta = np.abs(beta - beta_gt).mean()
    l_pose, d_theta_pose, d_beta_pose = _pose_term(
        model, axes, theta, beta, skel_gt, compute_grads)
    total = float(l_theta + l_beta + l_pose)
    if compute_grads:
        d_theta = np.sign(theta - bio_gt) / (theta.size) + d_theta_pose
        d_beta = np.sign(beta - beta_gt) / (beta.size) + d_beta_pose
        net.backward(d_theta, d_beta)
    return total, float(l_theta), float(l_beta), float(l_pose)


# ---------------------------------------------------------------------------
# synthetic pairs and training
# ---------------------------------------------------------------------------

@dataclass
class SynthPairSet:
    """Self-generated (angles, shape, skeleton) triplets from a model's FK."""

    bio: np.ndarray        # (N, 23)
    beta: np.ndarray       # (N, 10)
    skeletons: np.ndarray  # (N, 21, 3)
    model: HandModel

    def __len__(self):
        return len(self.bio)


def generate_pairs(model: HandModel, count: int,
                   limits: bio_dof.DofLimits | None = None,
                   seed: int = 0) -> SynthPairSet:
    """Feasible angles ~ uniform over limits, shape ~ N(0, 0.5); skeleton by FK."""
    count = as_number(count, "count", 1, integer=True)
    limits = limits or bio_dof.DofLimits.default()
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    bio = bio_dof.sample_uniform(limits, count, rng)
    beta = rng.normal(scale=0.5, size=(count, 10))
    axes = bio_dof.derive_axes(model)
    art = bio_dof.expand_batch(bio, axes)
    skeletons = kin.fk_forward(model, art, beta).joints
    return SynthPairSet(bio=bio, beta=beta, skeletons=skeletons, model=model)


@dataclass
class TrainConfig:
    epochs: int = 40
    decay_epochs: tuple[int, ...] = (30, 35)
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        self.epochs = as_number(self.epochs, "epochs", 1, integer=True)
        self.decay_epochs = tuple(as_number(d, "decay epoch", 0, self.epochs - 1,
                                            integer=True) for d in self.decay_epochs)
        if len(set(self.decay_epochs)) != len(self.decay_epochs):
            raise InputError("decay epochs must be distinct")
        self.batch_size = as_number(self.batch_size, "batch_size", 2, integer=True)
        self.learning_rate = as_number(self.learning_rate, "learning_rate", 0)
        self.seed = as_number(self.seed, "seed", 0, integer=True)


def train(net: MlpIk, data: SynthPairSet, config: TrainConfig
          ) -> tuple[MlpIk, list[dict[str, float]]]:
    """Mini-batch first-order training; returns the net and per-epoch losses.

    The step rate drops by 10x at each epoch index in decay_epochs (epochs
    are counted from 0).  Batches are reshuffled each epoch from the config
    seed; a trailing partial batch is dropped so batch statistics stay
    well-defined.  Deterministic given (net seed, config seed).
    """
    if len(data) < config.batch_size:
        raise InputError("need at least one full batch of pairs")
    axes = bio_dof.derive_axes(data.model)
    feats_all = featurize_batch(data.skeletons)
    rng = np.random.default_rng(config.seed)

    # Adam on the flat vectors, in place; m, v and two scratch buffers.
    params, grads = net.flat, net.flat_grad
    adam_m, adam_v, s1, s2 = (np.zeros_like(params) for _ in range(4))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    curve: list[dict[str, float]] = []
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
            losses = batch_loss(net, data.model, axes, feats_all[idx],
                                data.bio[idx], data.beta[idx],
                                data.skeletons[idx], training=True,
                                compute_grads=True)
            if not np.isfinite(losses[0]):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            sums += losses
            step += 1
            # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, then
            # p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
            adam_m *= beta1
            adam_m += np.multiply(1 - beta1, grads, out=s1)
            adam_v *= beta2
            adam_v += np.multiply(np.multiply(1 - beta2, grads, out=s1), grads, out=s1)
            np.sqrt(np.divide(adam_v, 1 - beta2 ** step, out=s2), out=s2)
            s2 += eps
            np.multiply(np.divide(adam_m, 1 - beta1 ** step, out=s1), lr, out=s1)
            params -= np.divide(s1, s2, out=s1)
        mean = sums / batches
        curve.append({"epoch": epoch, "total": mean[0], "theta": mean[1],
                      "beta": mean[2], "pose": mean[3]})
    net.check_finite()
    return net, curve


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: MlpIk, path) -> None:
    header = {"kind": "ik_net_checkpoint", "input_dim": net.input_dim,
              "widths": list(net.widths)}
    write_container(path, header, {
        name: getattr(owner, attr).astype(np.float32)
        for name, owner, attr, _ in net.arrays()})


def load_checkpoint(path) -> MlpIk:
    header, arrays = read_container(path, kind="ik_net_checkpoint")
    widths, input_dim = header.get("widths"), header.get("input_dim")
    if not (isinstance(widths, list) and widths and all(
            isinstance(n, int) and n >= 1 for n in [input_dim, *widths])):
        raise InputError(f"{path}: bad input_dim/widths in the header")
    # a header may not make us allocate a large net the file cannot fill
    sizes = [input_dim, *widths]
    weights = sum(a * b for a, b in zip(sizes, widths))
    if weights > max(sum(a.size for a in arrays.values()), 2 ** 22):
        raise InputError(f"{path}: header widths need more values than stored")
    net = MlpIk(widths=tuple(widths), input_dim=input_dim)
    for name, owner, attr, _ in net.arrays():
        value, target = arrays[name], getattr(owner, attr)
        if value.shape != target.shape:
            raise ShapeError(f"{path}: array {name!r} has shape {value.shape}, "
                             f"expected {target.shape}")
        target[...] = value   # into the view, so training still moves it
    return net

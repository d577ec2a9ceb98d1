"""Learned inverse kinematics: bone featurization, a small fully connected
network with shape and angle heads, and from-scratch training.

The input is a skeleton reduced to its 20 bones: unit directions (60 values)
plus lengths (20 values, divided by 100 so millimeter skeletons feed the net
in decimeter units).  No reference-bone channels are kept.  The network
has one architecture: three hidden blocks of ``WIDTHS`` (linear map +
per-feature batch statistics normalization + rectifier) feed two affine
heads, 23 feasible angles and 10 shape coefficients.  A checkpoint stores
only the arrays; its loader builds ``MlpIk()`` and fills it.  The net trains
and predicts in float32, the precision its checkpoints store; FK and the
loss stay in float64.

Training minimizes the sum of three L1 terms: angle error, shape error, and
the positional error of the joints regressed from the re-posed mesh against
the pair's ground-truth skeleton.  Backpropagation is implemented here
directly (affine, normalization, rectifier); the positional term is the
batch mean of the refinement's per-sample ``ik_optim.batch_fit_loss``.
Every array of the net is listed once, in the name table ``MlpIk.arrays``;
the trainable ones are views into one flat vector, and ``MlpIk.grads``
views their gradients in its flat twin, on which ``ik_optim.adam_step``
runs in place.  Everything is deterministic given the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bio_dof, ik_optim, kinematics as kin
from .containers import read_container, write_container
from .errors import InputError, NumericError, ShapeError, as_array, as_number
from .hand_model import HandModel

LENGTH_SCALE = 0.01  # mm -> decimeters for input conditioning
FEATURE_DIM = 20 * 3 + 20
WIDTHS = (256, 256, 256)  # the hidden blocks' widths: the one architecture
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
#: the most pairs ``generate_pairs`` builds, checked before any array is:
#: ten times the paper's 20k training pairs
MAX_PAIRS = 200_000


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
# network
# ---------------------------------------------------------------------------

class MlpIk:
    """``WIDTHS`` hidden blocks (linear map + batch statistics + rectifier)
    on ``FEATURE_DIM`` inputs, two heads.

    ``arrays`` maps each stored array's name to its value, in checkpoint
    order: ``w{i}``, ``bn{i}_gamma``, ``bn{i}_beta``, ``bn{i}_mean`` and
    ``bn{i}_var`` per block, then ``head_theta_w``, ``head_theta_b``,
    ``head_beta_w`` and ``head_beta_b``.  The trainable entries are views
    into ``flat``, and ``grads`` holds their twins in ``flat_grad``; the
    running statistics are plain arrays.  Write into the entries, never
    rebind them.  Arrays and activations have ``dtype`` (float64 for exact
    gradient checks)."""

    def __init__(self, seed=0, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
        a = self.arrays = {}
        fan_in = FEATURE_DIM
        for i, w in enumerate(WIDTHS):  # no bias: batch norm cancels it
            a[f"w{i}"] = rng.normal(scale=np.sqrt(2.0 / fan_in),
                                    size=(fan_in, w)).astype(dtype)
            a[f"bn{i}_gamma"] = np.ones(w, dtype)
            a[f"bn{i}_beta"] = np.zeros(w, dtype)
            a[f"bn{i}_mean"] = np.zeros(w, dtype)
            a[f"bn{i}_var"] = np.ones(w, dtype)
            fan_in = w
        # small-scale heads start predictions near the rest pose
        for head, n in (("theta", bio_dof.DOF_COUNT), ("beta", 10)):
            a[f"head_{head}_w"] = rng.normal(scale=0.01 * np.sqrt(2.0 / fan_in),
                                             size=(fan_in, n)).astype(dtype)
            a[f"head_{head}_b"] = np.zeros(n, dtype)
        trained = [name for name in a if not name.endswith(("_mean", "_var"))]
        self.flat = np.concatenate([a[name].ravel() for name in trained])
        self.flat_grad = np.zeros_like(self.flat)
        self.grads = {}
        end = 0
        for name in trained:
            shape, start = a[name].shape, end
            end += a[name].size
            a[name] = self.flat[start:end].reshape(shape)
            self.grads[name] = self.flat_grad[start:end].reshape(shape)
        self._tape = None

    def forward(self, x, training=False):
        """(theta, beta) head outputs.  Training normalizes by the batch
        statistics, moves the running statistics towards them and keeps the
        activation tape for ``backward``; inference uses the running
        statistics and keeps no tape."""
        a, blocks = self.arrays, []
        h = np.asarray(x, dtype=self.dtype)
        for i in range(len(WIDTHS)):
            z = h @ a[f"w{i}"]
            if training:
                # z - mu once; the variance from it is bit-identical to z.var
                mu = z.mean(axis=0)
                centered = z - mu
                var = (centered * centered).mean(axis=0)
                for running, batch in ((a[f"bn{i}_mean"], mu), (a[f"bn{i}_var"], var)):
                    running *= 1 - BN_MOMENTUM
                    running += BN_MOMENTUM * batch
            else:
                mu, var = a[f"bn{i}_mean"], a[f"bn{i}_var"]
                centered = z - mu
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = centered * inv_std
            y = a[f"bn{i}_gamma"] * xhat + a[f"bn{i}_beta"]
            mask = y > 0
            blocks.append((h, xhat, inv_std, mask))
            h = y * mask
        self._tape = (blocks, h) if training else None
        return (h @ a["head_theta_w"] + a["head_theta_b"],
                h @ a["head_beta_w"] + a["head_beta_b"])

    def backward(self, d_theta, d_beta):
        """Write the parameter gradients of the last ``forward``, a training
        one, into ``grads``, replacing what they held."""
        if self._tape is None:
            raise InputError("backward needs a training forward first")
        a, grads = self.arrays, self.grads
        blocks, h = self._tape
        d_theta, d_beta = (np.asarray(d, self.dtype) for d in (d_theta, d_beta))
        for head, d in (("theta", d_theta), ("beta", d_beta)):
            np.matmul(h.T, d, out=grads[f"head_{head}_w"])
            d.sum(axis=0, out=grads[f"head_{head}_b"])
        g = d_theta @ a["head_theta_w"].T + d_beta @ a["head_beta_w"].T
        for i in reversed(range(len(WIDTHS))):
            h, xhat, inv_std, mask = blocks[i]
            g = g * mask
            (g * xhat).sum(axis=0, out=grads[f"bn{i}_gamma"])
            g.sum(axis=0, out=grads[f"bn{i}_beta"])
            g = g * a[f"bn{i}_gamma"]
            # full backward through the batch statistics
            batch = len(h)
            g = (inv_std / batch) * (batch * g - g.sum(axis=0)
                                     - xhat * (g * xhat).sum(axis=0))
            np.matmul(h.T, g, out=grads[f"w{i}"])
            if i:   # the net's input needs no gradient
                g = g @ a[f"w{i}"].T

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            name = next(name for name in self.grads
                        if not np.isfinite(self.arrays[name]).all())
            raise NumericError(f"non-finite parameter {name}")


def predict(net: MlpIk, feats: np.ndarray,
            limits: bio_dof.DofLimits | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic inference with running statistics on (B, 80) feature
    rows: float64 (B, 23) angles clamped to the limits and (B, 10) shapes."""
    limits = limits or bio_dof.DofLimits.default()
    theta, beta = (out.astype(np.float64) for out in net.forward(
        as_array(feats, (None, FEATURE_DIM), "features"), training=False))
    if not (np.isfinite(theta).all() and np.isfinite(beta).all()):
        raise NumericError("non-finite network activations")
    return np.clip(theta, limits.lower, limits.upper), beta


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def batch_loss(net: MlpIk, model: HandModel, axes, feats, bio_gt, beta_gt,
               skel_gt, compute_grads=False):
    """Forward the net in training mode on a feature batch and evaluate the
    three-term loss.

    With compute_grads the parameter gradients are written into the net's
    ``grads``.  Returns (total, l_theta, l_beta, l_pose) as floats.
    """
    theta, beta = net.forward(feats, training=True)
    l_theta = np.abs(theta - bio_gt).mean()
    l_beta = np.abs(beta - beta_gt).mean()
    # L1 joint term through FK: the mean of the refinement's per-sample losses
    l_pose, pose_grads = ik_optim.batch_fit_loss(
        model, axes, theta, beta, None, None, skel_gt, None, bend_weight=0.0,
        loss_kind="l1", want_grad=compute_grads)
    l_pose = l_pose.mean()
    total = float(l_theta + l_beta + l_pose)
    if compute_grads:   # the pose gradients are of the sum over the batch
        d_theta = np.sign(theta - bio_gt) / (theta.size) + pose_grads[0] / len(theta)
        d_beta = np.sign(beta - beta_gt) / (beta.size) + pose_grads[1] / len(beta)
        net.backward(d_theta, d_beta)
    return total, float(l_theta), float(l_beta), float(l_pose)


# ---------------------------------------------------------------------------
# synthetic pairs and training
# ---------------------------------------------------------------------------

@dataclass
class SynthPairSet:
    """Self-generated (angles, shape, skeleton) triplets from a model's FK;
    one N rows of each, all finite (``as_array``)."""

    bio: np.ndarray        # (N, 23)
    beta: np.ndarray       # (N, 10)
    skeletons: np.ndarray  # (N, 21, 3)
    model: HandModel

    def __post_init__(self):
        if not isinstance(self.model, HandModel):
            raise InputError(f"pair model must be a HandModel, got "
                             f"{type(self.model).__name__}")
        self.bio = as_array(self.bio, (None, bio_dof.DOF_COUNT), "pair angles")
        n = len(self.bio)
        self.beta = as_array(self.beta, (n, 10), "pair shapes")
        self.skeletons = as_array(self.skeletons, (n, kin.JOINT_COUNT, 3),
                                  "pair skeletons")

    def __len__(self):
        return len(self.bio)


def generate_pairs(model: HandModel, count: int,
                   limits: bio_dof.DofLimits | None = None,
                   seed: int = 0) -> SynthPairSet:
    """Feasible angles ~ uniform over limits, shape ~ N(0, 0.5); skeleton by FK."""
    count = as_number(count, "count", 1, MAX_PAIRS, integer=True)
    limits = limits or bio_dof.DofLimits.default()
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    bio = bio_dof.sample_uniform(limits, count, rng)
    beta = rng.normal(scale=0.5, size=(count, 10))
    axes = bio_dof.derive_axes(model)
    art = bio_dof.expand_batch(bio, axes)
    skeletons = np.concatenate([kin.fk_forward(model, art[i:i + 1024], beta[i:i + 1024])
                                .joints for i in range(0, count, 1024)])  # bounds FK memory
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

    adam_state = np.zeros((4, net.flat.size), net.dtype)
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
            losses = batch_loss(net, data.model, axes, feats_all[idx],
                                data.bio[idx], data.beta[idx],
                                data.skeletons[idx], compute_grads=True)
            if not np.isfinite(losses[0]):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b}")
            sums += losses
            step += 1
            ik_optim.adam_step(net.flat, net.flat_grad, adam_state, step, lr)
        mean = sums / batches
        curve.append({"epoch": epoch, "total": mean[0], "theta": mean[1],
                      "beta": mean[2], "pose": mean[3]})
    net.check_finite()
    return net, curve


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: MlpIk, path) -> None:
    write_container(path, {"kind": "ik_net_checkpoint"}, net.arrays)


def load_checkpoint(path) -> MlpIk:
    """The float32 net a checkpoint stores.  An older file's hidden biases
    ``b{i}`` fold into the running mean as ``bn{i}_mean - b{i}``."""
    _, arrays = read_container(path, kind="ik_net_checkpoint")
    net = MlpIk()
    for name, target in net.arrays.items():
        value = arrays[name]
        if value.shape != target.shape:
            raise ShapeError(f"{path}: array {name!r} has shape {value.shape}, "
                             f"expected {target.shape}")
        target[...] = value   # into the view, so training still moves it
    for i in range(len(WIDTHS)):
        if f"b{i}" in arrays:
            mean = net.arrays[f"bn{i}_mean"]
            mean -= as_array(arrays[f"b{i}"], mean.shape, f"{path}: array 'b{i}'")
    return net

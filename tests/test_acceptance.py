"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy criteria (fit recovery, network training) run at their stated
production settings, so the full module takes several minutes.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from handkit import (bio_dof, ik_net, ik_optim, kinematics as kin, lixel,
                     metrics, profiler, synth)
from handkit.cli import main as cli_main
from handkit.hand_model import load_model, make_desk_hand
from handkit.rotations import rodrigues

from test_bio_dof import FRAME_ROW, axes_oracle

# criteria 6 and 7 run the experiments of scripts/pipeline.py
_SPEC = importlib.util.spec_from_file_location(
    "pipeline", Path(__file__).resolve().parents[1] / "scripts" / "pipeline.py")
pipeline = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pipeline)


def check(criterion: int, description: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {status}: {description}{suffix}")
    assert condition, f"criterion {criterion}: {description}{suffix}"


@pytest.fixture(scope="module")
def model():
    return make_desk_hand()


@pytest.fixture(scope="module")
def limits():
    return bio_dof.DofLimits.default()


@pytest.fixture(scope="module")
def axes(model):
    return bio_dof.derive_axes(model)


# ---------------------------------------------------------------------------
# 1. camera-grid identity
# ---------------------------------------------------------------------------

def test_criterion_1_camera_grid():
    cams = synth.sample_cameras()
    ok = (len(cams) == 2232
          and len(cams) * synth.SAMPLES_PER_CAMERA == 71424)
    check(1, "default camera grid is 2232 poses, x32 = 71424 samples", ok,
          f"{len(cams)} poses")


# ---------------------------------------------------------------------------
# 2. pose-augmentation identity
# ---------------------------------------------------------------------------

def test_criterion_2_pose_augmentation(model, limits):
    lib = synth.make_pose_library(model, limits=limits, seed=0)
    augmented = synth.augment_library(lib, per_pose=64, seed=1)
    ok = len(lib) == 895 and len(augmented) == 57280
    check(2, "895 base poses x 64 variants = 57280", ok,
          f"{len(lib)} x 64 = {len(augmented)}")


# ---------------------------------------------------------------------------
# 3. profiler vs published costs
# ---------------------------------------------------------------------------

def test_criterion_3_profiler():
    r50 = profiler.profile(profiler.resnet50(), 256).total_macs
    b0 = profiler.profile(profiler.efficientnet_b0(), 256).total_macs
    ok_r50 = abs(r50 / 1e9 - 5.38) <= 0.02 * 5.38
    ok_b0 = b0 <= 0.15 * r50
    ok_order = True
    for channels in (8, 12, 16, 32, 64, 128, 256, 512):
        block = {v: profiler.profile(profiler.decoder_block(v, channels), 8).total_macs
                 for v in "ABC"}
        ok_order &= block["C"] < block["A"] < block["B"]
    full = {v: profiler.profile(profiler.decoder_variant(v), 256).total_macs
            for v in "ABC"}
    ok_order &= full["C"] < full["A"] < full["B"]
    check(3, "resnet50 5.38 GMACs +-2%, efficientnet_b0 <= 15%, "
             "decoder ordering C < A < B",
          ok_r50 and ok_b0 and ok_order,
          f"r50 {r50 / 1e9:.3f}G, b0 {b0 / r50 * 100:.1f}%")


# ---------------------------------------------------------------------------
# 4. forward kinematics vs chain-composition oracle
# ---------------------------------------------------------------------------

def _chain_oracle(model, articulation, beta, global_rot, translation):
    """Independent homogeneous-matrix composition along each finger."""
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


def test_criterion_4_fk_against_oracle(model, limits, axes):
    rng = np.random.default_rng(4)
    count = 1000
    bio = bio_dof.sample_uniform(limits, count, rng)
    beta = rng.normal(scale=0.5, size=(count, 10))
    rot = rng.normal(scale=0.4, size=(count, 3))
    trans = rng.normal(scale=25.0, size=(count, 3))
    art = bio_dof.expand_batch(bio, axes)
    got = kin.fk_forward(model, art, beta, rot, trans).joints
    worst = 0.0
    for i in range(count):
        oracle = _chain_oracle(model, art[i], beta[i], rot[i], trans[i])
        worst = max(worst, np.abs(got[i] - oracle).max())
    check(4, "fk_forward joints match the chain oracle over 1000 random "
             "feasible poses (1e-6 mm)", worst < 1e-6,
          f"worst {worst:.2e} mm")


# ---------------------------------------------------------------------------
# 5. gradient fidelity
# ---------------------------------------------------------------------------

def _fd_rel_err(fd, ana, noise_floor=1e-8):
    """Relative disagreement with an allowance for the finite-difference
    oracle's own roundoff (loss eval noise / step size ~ 1e-10 here)."""
    return max(abs(fd - ana) - noise_floor, 0.0) / max(abs(fd), abs(ana), 1e-7)


@pytest.mark.slow
def test_criterion_5_gradients(model, limits, axes):
    rng = np.random.default_rng(5)
    h = 1e-5
    worst_fit = raw_fit = 0.0
    for _ in range(100):
        bio_t = bio_dof.sample_uniform(limits, 1, rng)[0]
        beta_t = rng.normal(scale=0.5, size=10)
        art = bio_dof.expand_batch(bio_t[None], axes)
        out = kin.fk_forward(model, art, beta_t[None], want_vertices=True,
                             want_regressed=True)

        def loss_at(x, want_grad=False, out=out):
            # the fit loss (huber, bend weight 1e-2) on a batch of one
            loss, grads = ik_optim.batch_fit_loss(
                model, x[None, :23], x[None, 23:33], x[None, 33:36], x[None, 36:],
                out.regressed_joints, out.vertices, 1e-2, "huber", want_grad)
            return loss[0], None if grads is None else np.concatenate(grads, axis=1)[0]

        x = np.concatenate([
            rng.uniform(limits.lower - 0.4, limits.upper + 0.4),
            rng.normal(scale=0.5, size=10),
            rng.normal(scale=0.3, size=3),
            rng.normal(scale=10.0, size=3)])
        _, grad = loss_at(x, want_grad=True)
        for i in range(39):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (loss_at(xp)[0] - loss_at(xm)[0]) / (2 * h)
            worst_fit = max(worst_fit, _fd_rel_err(fd, grad[i]))
            raw = _fd_rel_err(fd, grad[i], noise_floor=0.0)
            if raw >= raw_fit:   # the first entry sets it, so raw_case exists
                raw_fit, raw_case = raw, (loss_at, x, i, grad[i])
    ok_fit = worst_fit < 1e-4

    def fourth_order_err(step):
        # the raw worst entry again, under a 4th-order central difference:
        # its truncation error is O(step**4), so what is left is roundoff
        loss_at, x, i, ana = raw_case
        f = {}
        for k in (-2, -1, 1, 2):
            xk = x.copy()
            xk[i] += k * step
            f[k] = loss_at(xk)[0]
        return _fd_rel_err((8 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12 * step), ana,
                           noise_floor=0.0)

    data = ik_net.generate_pairs(model, 32, limits, seed=50)
    feats = ik_net.featurize_batch(data.skeletons[:8])
    # float64: a central difference at h cannot resolve float32 round-off
    net = ik_net.MlpIk(seed=51, dtype=np.float64)
    # the batch statistics path, the gradient that training follows
    ik_net.batch_loss(net, model, feats, data.bio[:8], data.beta[:8], data.skeletons[:8],
                      compute_grads=True)
    params = list(net.grads)
    worst_net = raw_net = 0.0
    for _ in range(50):
        name = params[rng.integers(len(params))]
        arr = net.arrays[name]
        i = rng.integers(arr.size)
        ana = net.grads[name].reshape(-1)[i]
        orig = arr.reshape(-1)[i]
        arr.reshape(-1)[i] = orig + h
        lp = ik_net.batch_loss(net, model, feats, data.bio[:8], data.beta[:8],
                               data.skeletons[:8])[0]
        arr.reshape(-1)[i] = orig - h
        lm = ik_net.batch_loss(net, model, feats, data.bio[:8], data.beta[:8],
                               data.skeletons[:8])[0]
        arr.reshape(-1)[i] = orig
        fd = (lp - lm) / (2 * h)
        worst_net = max(worst_net, _fd_rel_err(fd, ana))
        raw_net = max(raw_net, _fd_rel_err(fd, ana, noise_floor=0.0))
    ok_net = worst_net < 1e-3
    check(5, "analytic gradients match finite differences "
             "(fit < 1e-4 over 100 configs, net < 1e-3 over 50 weights)",
          ok_fit and ok_net,
          f"fit worst {worst_fit:.2e}, net worst {worst_net:.2e}; "
          f"without the noise floor fit {raw_fit:.2e}, net {raw_net:.2e}; "
          f"the raw worst fit entry under a 4th-order difference "
          f"{fourth_order_err(h):.2e} at h, {fourth_order_err(10 * h):.2e} at 10h")


# ---------------------------------------------------------------------------
# 6. fit recovery on noiseless synthetic targets
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_fit_recovery(model, limits):
    pa_errors = [pa for _, _, pa in pipeline.recovery_runs(
        model, limits, seeds=range(600, 603), iterations=200, sigma=0.1)]
    ok_long = max(pa_errors) < 1.0
    wins = sum(after < before for before, after, _ in pipeline.recovery_runs(
        model, limits, seeds=range(100), iterations=20, sigma=0.1))
    ok_short = wins >= 90
    check(6, "200-iteration fits reach PA-MPJPE < 1 mm; 20-iteration fits "
             "improve >= 90/100 seeded runs", ok_long and ok_short,
          f"PA {max(pa_errors):.4f} mm, wins {wins}/100")


# ---------------------------------------------------------------------------
# 7. network training at production settings
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_ik_net_training(model, limits):
    train_data = ik_net.generate_pairs(model, 20000, limits, seed=700)
    held = ik_net.generate_pairs(model, 1000, limits, seed=701)
    net = ik_net.MlpIk(seed=702)
    before = pipeline.held_out_error(net, held)
    config = ik_net.TrainConfig(epochs=40, decay_epochs=(30, 35),
                                batch_size=32, learning_rate=1e-4, seed=703)
    net, curve = ik_net.train(net, train_data, config)
    after = pipeline.held_out_error(net, held)
    ok = after * 5.0 <= before and curve[-1]["total"] < curve[0]["total"]
    check(7, "40-epoch training on 20k pairs cuts held-out joint error >= 5x",
          ok, f"{before:.2f} mm -> {after:.2f} mm ({before / after:.1f}x)")


# ---------------------------------------------------------------------------
# 8. metric properties
# ---------------------------------------------------------------------------

def test_criterion_8_metric_properties():
    rng = np.random.default_rng(8)
    ok_invariant = True
    ok_bound = True
    for _ in range(25):
        pred = rng.normal(scale=30, size=(21, 3))
        gt = rng.normal(scale=30, size=(21, 3))
        rot = rodrigues(rng.normal(size=3))
        moved = 1.8 * pred @ rot.T + rng.normal(scale=40, size=3)
        ok_invariant &= abs(metrics.pa_mpjpe(moved, gt)
                            - metrics.pa_mpjpe(pred, gt)) <= 1e-6
        ok_bound &= metrics.pa_mpjpe(pred, gt) <= metrics.mpjpe(pred, gt) + 1e-9
    pts = rng.normal(scale=30, size=(40, 3))
    ok_f1 = metrics.fscore(pts, pts, 5.0) == 1.0
    near = np.arange(10)[:, None] * [20.0, 0.0, 0.0]
    gt_half = np.vstack([near, near + [0.0, 5000.0, 0.0]])
    pred_half = np.vstack([near, near + [0.0, 0.0, 5000.0]])
    ok_f05 = abs(metrics.fscore(pred_half, gt_half, 15.0) - 0.5) < 1e-12
    check(8, "PA-MPJPE similarity-invariant (1e-6) and <= MPJPE; F-score 1 on "
             "identical sets and 0.5 on the half-within instance",
          ok_invariant and ok_bound and ok_f1 and ok_f05)


# ---------------------------------------------------------------------------
# 9. lixel round trip and marginalization mass
# ---------------------------------------------------------------------------

def test_criterion_9_lixel():
    rng = np.random.default_rng(9)
    worst = max(abs(lixel.decode(lixel.encode(float(x), 64)) - x)
                for x in rng.uniform(0, 1, 1000))
    ok_round = worst < 1.0 / 128.0
    grid = rng.uniform(0, 1, size=(32, 32, 32))
    total = grid.sum()
    ok_mass = all(abs(h.values.sum() - total) <= 1e-9 * total
                  for h in lixel.marginalize(grid))
    check(9, "decode(encode(x)) within 1/128 for 1000 uniform x at L=64; "
             "marginal mass conserved to 1e-9",
          ok_round and ok_mass, f"worst {worst * 128:.3f}/128")


# ---------------------------------------------------------------------------
# 10. zero-twist invariant
# ---------------------------------------------------------------------------

def test_criterion_10_zero_twist(model, limits, axes):
    table = axes_oracle(model)
    rng = np.random.default_rng(10)
    bio = bio_dof.sample_uniform(limits, 1000, rng)
    art = bio_dof.expand_batch(bio, axes)
    worst = 0.0
    for slot in range(15):
        finger = slot // 3
        if finger == 0:  # thumb joints may twist
            continue
        component = art[:, 3 * slot:3 * slot + 3] @ table[slot][FRAME_ROW["twist"]]
        worst = max(worst, np.abs(component).max())
    check(10, "expanded non-thumb joints have zero twist-axis component "
              "(<= 1e-12) over 1000 feasible poses", worst <= 1e-12,
          f"worst {worst:.2e}")


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    model_path = tmp_path / "desk.hkm"
    assert cli_main(["model", "desk", "--small", "--out",
                     str(model_path)]) == 0

    pose_path = tmp_path / "pose.txt"
    art = np.zeros(45)
    art[4] = 0.7
    pose_path.write_text(
        "global_rot: 0.1 -0.05 0\narticulation: "
        + " ".join(format(v, ".9g") for v in art) + "\n")

    posed = kin.fk_forward(load_model(model_path), art, want_vertices=True)
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps({
        "unit": "mm",
        "records": [{"joints": posed.joints[0].tolist(),
                     "vertices": posed.vertices[0].tolist()}]}))
    init_path = tmp_path / "init.txt"
    init_path.write_text("bio index_mcp_flex 0.3\n")

    commands = {
        "model": ["model", "desk", "--small", "--out", "{out}/m.hkm"],
        "fk": ["fk", "--model", str(model_path), "--pose", str(pose_path),
               "--out", "{out}"],
        "ik-fit": ["ik-fit", "--model", str(model_path), "--target",
                   str(target_path), "--init", str(init_path),
                   "--iterations", "5", "--out", "{out}"],
        "ik-train": ["ik-train", "--model", str(model_path), "--pairs", "64",
                     "--epochs", "1", "--decay-epoch", "0", "--seed", "3",
                     "--out", "{out}"],
        "eval": ["eval", "--pred", str(target_path), "--gt",
                 str(target_path), "--out", "{out}/report.txt"],
        "profile": ["profile", "--graph", "efficientnet_b0", "--out",
                    "{out}/profile.txt"],
        "synth-cameras": ["synth", "cameras", "--out", "{out}/cams.csv"],
        "synth-poses": ["synth", "poses", "--model", str(model_path),
                        "--count", "8", "--per-pose", "4", "--seed", "11",
                        "--out", "{out}/poses.hkc"],
    }
    all_ok = True
    for name, template in commands.items():
        blobs = []
        for run in ("r1", "r2"):
            out = tmp_path / name / run
            out.mkdir(parents=True, exist_ok=True)
            argv = [a.replace("{out}", str(out)) for a in template]
            assert cli_main(argv) == 0, name
            blobs.append(sorted((p.name, p.read_bytes())
                                for p in out.rglob("*") if p.is_file()))
        all_ok &= blobs[0] == blobs[1]

    # the trained checkpoint feeds prediction deterministically too
    ckpt = tmp_path / "ik-train" / "r1" / "ik_net.hkc"
    pred_blobs = []
    for run in ("p1", "p2"):
        out = tmp_path / "predict" / run
        out.mkdir(parents=True, exist_ok=True)
        assert cli_main(["ik-predict", "--ckpt", str(ckpt), "--target",
                         str(target_path), "--out", str(out)]) == 0
        pred_blobs.append((out / "params.txt").read_bytes())
    all_ok &= pred_blobs[0] == pred_blobs[1]
    check(11, "every CLI command re-run with the same seed writes "
              "byte-identical artifacts", all_ok)

"""The exit-code contract: every bad input ends in 0, 2, 3 or 4, never in an
uncaught traceback (exit 1)."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import handkit
from handkit import (bio_dof, errors, ik_net, ik_optim, kinematics, lixel, metrics,
                     profiler, synth)
from handkit.cli import main, write_params_file
from handkit.containers import read_container, write_container
from handkit.hand_model import (ShapeParams, Skeleton, from_mano_arrays, load_model,
                                make_desk_hand_small, regress_joints, save_model,
                                write_obj)

CONTRACT = {0, 2, 3, 4}


def run(argv) -> tuple[int, str]:
    """main() in-process; an exception escaping it fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory) -> Path:
    """Valid inputs for every command, built on the small desk hand."""
    root = tmp_path_factory.mktemp("ws")
    model = make_desk_hand_small()
    save_model(model, root / "model.hkm")
    save_model(model, root / "model_text.hkm", text=True)
    axes = bio_dof.derive_axes(model)
    bio = np.zeros(bio_dof.DOF_COUNT)
    for name, value in (("index_mcp_flex", 0.6), ("thumb_pip_flex", 0.3)):
        bio[bio_dof.DOF_NAMES.index(name)] = value
    art = bio_dof.expand_batch(bio, axes)
    posed = kinematics.fk_forward(model, art, want_vertices=True)
    # one number per line, so line mutations drop or repeat single numbers
    (root / "target.json").write_text(json.dumps(
        {"unit": "mm", "records": [{"joints": posed.joints[0].tolist(),
                                    "vertices": posed.vertices[0].tolist()}]},
        indent=1))
    (root / "pose.txt").write_text(
        "global_rot: 0.1 0 0\narticulation: " + " ".join(["0.2"] * 45)
        + "\nbeta: 0.5 0 0 0 0 0 0 0 0 0\n")
    write_params_file(root / "init.txt", bio, np.zeros(10), [0, 0.1, 0], [1, 2, 3])
    limits = bio_dof.DofLimits.default()
    (root / "limits.txt").write_text("".join(
        f"{name} = {format(lo, '.9g')} {format(hi, '.9g')}\n"
        for name, lo, hi in zip(bio_dof.DOF_NAMES, limits.lower, limits.upper)))
    ik_net.save_checkpoint(ik_net.MlpIk(seed=0), root / "net.hkc")
    synth.save_pose_library(synth.make_pose_library(model, count=3, seed=1),
                            root / "library.hkc")
    (root / "graph.txt").write_text("conv 3 3 16 2 1\n"
                                    "depthwise_conv 3 16 16 1 1\n"
                                    "pointwise 1 16 32 1 1\n"
                                    "squeeze_excitation 1 32 32 1 1 4\n")
    return root


# ---------------------------------------------------------------------------
# inputs that used to crash or map to the wrong code
# ---------------------------------------------------------------------------

def _raw_container(path: Path, header: bytes, payload: bytes = b"") -> Path:
    path.write_bytes(b"HKC1" + struct.pack("<I", len(header)) + header + payload)
    return path


def _container(path: Path, header: dict) -> Path:
    write_container(path, header, {})
    return path


def _model_in(ws: Path, path: Path, units) -> Path:
    """The workspace's model file, its header saying ``units``."""
    header, arrays = read_container(ws / "model.hkm", kind="hand_model")
    write_container(path, dict(header, units=units), arrays)
    return path


def _text(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _annotation(path: Path, joints) -> Path:
    return _text(path, json.dumps({"unit": "mm",
                                   "records": [{"joints": joints.tolist()}]}))


def _nan_joints() -> np.ndarray:
    joints = np.arange(63.0).reshape(21, 3)
    joints[5, 1] = np.nan
    return joints


def _above(bound: float) -> float:
    """The next float above ``bound``."""
    return float(np.nextafter(bound, np.inf))


def _fk(ws, model):
    return ["fk", "--model", model, "--pose", ws / "pose.txt", "--out", "{out}"]


def _fk_pose(text):
    return lambda ws, t: ["fk", "--model", ws / "model.hkm", "--out", "{out}",
                          "--pose", _text(t / "p.txt", text)]


def _ik_fit(ws, *extra):
    return ["ik-fit", "--model", ws / "model.hkm", *extra, "--out", "{out}"]


def _ik_train(ws, *extra):
    return ["ik-train", "--model", ws / "model.hkm", *extra, "--out", "{out}"]


# name -> (expected exit code, argv builder from (workspace, scratch dir))
TABLE = {
    "fk-model-without-arrays": (2, lambda ws, t: _fk(
        ws, _container(t / "m.hkm", {"kind": "hand_model", "units": "mm"}))),
    "fk-model-in-meters": (2, lambda ws, t: _fk(ws, _model_in(ws, t / "m.hkm", "m"))),
    "fk-model-bad-json-header": (2, lambda ws, t: _fk(
        ws, _raw_container(t / "m.hkm", b'{"kind": '))),
    "fk-model-dtype-f8": (2, lambda ws, t: _fk(ws, _raw_container(
        t / "m.hkm", json.dumps({"kind": "hand_model", "arrays": [
            {"name": "rest_vertices", "dtype": "f8", "shape": [1]}]}).encode(),
        bytes(8)))),
    "fk-model-directory": (2, lambda ws, t: _fk(ws, t)),
    "ik-fit-from-ik-net-zero-joints": (4, lambda ws, t: _ik_fit(
        ws, "--from-ik-net", ws / "net.hkc",
        "--target", _annotation(t / "z.json", np.zeros((21, 3))))),
    "ik-fit-nan-annotation": (2, lambda ws, t: _ik_fit(
        ws, "--init", ws / "init.txt",
        "--target", _annotation(t / "n.json", _nan_joints()))),
    "eval-nan-annotation": (2, lambda ws, t: [
        "eval", "--pred", _annotation(t / "n.json", _nan_joints()),
        "--gt", t / "n.json", "--out", t / "r.txt"]),
    "ik-fit-init-nan": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json",
        "--init", _text(t / "i.txt", "bio index_mcp_flex nan\n"))),
    "ik-fit-iterations-0": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", ws / "init.txt",
        "--iterations", "0")),
    "ik-train-pairs-0": (2, lambda ws, t: _ik_train(ws, "--pairs", "0")),
    "ik-train-batch-size-1": (2, lambda ws, t: _ik_train(
        ws, "--pairs", "64", "--batch-size", "1")),
    "ik-train-epochs-1-default-decay": (2, lambda ws, t: _ik_train(
        ws, "--pairs", "64", "--epochs", "1")),
    "synth-cameras-azim-step-0": (2, lambda ws, t: [
        "synth", "cameras", "--azim-step", "0", "--out", t / "c.csv"]),
    "synth-poses-count-0": (2, lambda ws, t: [
        "synth", "poses", "--model", ws / "model.hkm", "--count", "0",
        "--out", t / "p.hkc"]),
    "synth-cameras-elev-max-below-min": (2, lambda ws, t: [
        "synth", "cameras", "--elev-min", "0", "--elev-max", "-0.01",
        "--out", t / "c.csv"]),
    # 31 x 3307 positions: just above synth.MAX_CAMERAS, small if ever built
    "synth-cameras-grid-above-ceiling": (2, lambda ws, t: [
        "synth", "cameras", "--azim-step", "0.0019", "--out", t / "c.csv"]),
    "synth-poses-swap-probability-nan": (2, lambda ws, t: [
        "synth", "poses", "--library", ws / "library.hkc",
        "--swap-probability", "nan", "--out", t / "p.hkc"]),
    # arrays past any 64-bit address space, far above the count ceilings too
    "lixel-length-1e17": (2, lambda ws, t: [
        "lixel", "--coord", "0.5", "--length", str(10 ** 17), "--out", t / "h.txt"]),
    # 2 sigma**2 underflows to 0: the divide must not warn before the error
    "lixel-tiny-sigma": (2, lambda ws, t: [
        "lixel", "--coord", "0.5", "--sigma", "1e-200", "--out", t / "h.txt"]),
    "synth-poses-per-pose-1e17": (2, lambda ws, t: [
        "synth", "poses", "--model", ws / "model.hkm", "--count", "3",
        "--per-pose", str(10 ** 17), "--out", t / "p.hkc"]),
    # one above each count's ceiling: refused before any array is built
    "lixel-length-ceiling-plus-1": (2, lambda ws, t: [
        "lixel", "--coord", "0.5", "--length", str(lixel.MAX_RESOLUTION + 1),
        "--out", t / "h.txt"]),
    "synth-poses-count-ceiling-plus-1": (2, lambda ws, t: [
        "synth", "poses", "--model", ws / "model.hkm",
        "--count", str(synth.MAX_LIBRARY_SIZE + 1), "--out", t / "p.hkc"]),
    "synth-poses-per-pose-ceiling-plus-1": (2, lambda ws, t: [
        "synth", "poses", "--model", ws / "model.hkm", "--count", "3",
        "--per-pose", str(synth.MAX_AUGMENTED_POSES // 3 + 1), "--out", t / "p.hkc"]),
    "ik-train-pairs-ceiling-plus-1": (2, lambda ws, t: _ik_train(
        ws, "--pairs", str(ik_net.MAX_PAIRS + 1))),
    # a pose file states one hand pose: magnitudes of pi and more are refused
    "fk-pose-articulation-above-pi": (2, _fk_pose(
        "articulation: " + " ".join([str(math.pi + 0.01)] + ["0"] * 44) + "\n")),
    "fk-pose-global-rotation-norm-pi": (2, _fk_pose(   # each component below pi
        "global_rot: 1.8849555921538759 2.5132741228718345 0\n")),
    "fk-pose-string-rotation": (2, _fk_pose("global_rot: abc 0 0\n")),
    "fk-pose-nan-translation": (2, _fk_pose("translation: 0 nan 0\n")),
    "fk-pose-44-values": (3, _fk_pose("articulation: " + " ".join(["0"] * 44) + "\n")),
    # just above the initial-shape, bend-weight, step-size and iteration bounds
    # of a fit
    "ik-fit-init-beta-above-bound": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", _text(
            t / "i.txt", f"beta 3 {_above(ik_optim.MAX_INIT_BETA)!r}\n"))),
    "ik-fit-bend-weight-above-bound": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", ws / "init.txt",
        "--bend-weight", repr(_above(ik_optim.MAX_BEND_WEIGHT)))),
    "ik-fit-step-size-above-bound": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", ws / "init.txt",
        "--step-size", repr(_above(ik_optim.MAX_STEP_SIZE)))),
    "ik-fit-iterations-above-bound": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", ws / "init.txt",
        "--iterations", str(ik_optim.MAX_ITERATIONS + 1))),
    "ik-fit-init-negative-beta-index": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json",
        "--init", _text(t / "i.txt", "beta -1 0.5\n"))),
    "eval-threshold-nan": (2, lambda ws, t: [
        "eval", "--pred", ws / "target.json", "--gt", ws / "target.json",
        "--threshold", "nan", "--out", t / "r.txt"]),
    "eval-threshold-negative": (2, lambda ws, t: [
        "eval", "--pred", ws / "target.json", "--gt", ws / "target.json",
        "--threshold=-1", "--out", t / "r.txt"]),
    "fk-pose-unknown-key": (2, lambda ws, t: [
        "fk", "--model", ws / "model.hkm", "--out", "{out}", "--pose",
        _text(t / "p.txt", "articulaton: " + " ".join(["0.2"] * 45) + "\n")]),
    "fk-pose-repeated-key": (2, lambda ws, t: [
        "fk", "--model", ws / "model.hkm", "--out", "{out}", "--pose",
        _text(t / "p.txt", "global_rot: 0.1 0 0\nglobal_rot: 0 0.2 0\n")]),
    "ik-train-negative-decay-epoch": (2, lambda ws, t: _ik_train(
        ws, "--pairs", "64", "--epochs", "2", "--decay-epoch=-1")),
    "ik-fit-init-unknown-key": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json",
        "--init", _text(t / "i.txt", "globl_rot 0 0.1 0\n"))),
    "ik-fit-init-repeated-key": (2, lambda ws, t: _ik_fit(
        ws, "--target", ws / "target.json", "--init", _text(
            t / "i.txt", "bio index_mcp_flex 0.1\nbio index_mcp_flex 0.2\n"))),
    "ik-train-repeated-decay-epoch": (2, lambda ws, t: _ik_train(
        ws, "--pairs", "64", "--epochs", "2", "--decay-epoch", "1",
        "--decay-epoch", "1")),
    "profile-graph-fractional-kernel": (2, lambda ws, t: [
        "profile", "--graph", _text(t / "g.txt", "conv 2.5 3 16 2 1\n")]),
    "profile-graph-8-fields": (2, lambda ws, t: [
        "profile", "--graph", _text(t / "g.txt", "conv 3 3 32 2 1 4.0 99\n")]),
    "profile-graph-pool-changes-channels": (2, lambda ws, t: [
        "profile", "--graph", _text(t / "g.txt", "pool 3 64 32 2 1\n")]),
    "profile-resolution-0": (2, lambda ws, t: [
        "profile", "--graph", "resnet50", "--resolution", "0"]),
    "ik-predict-checkpoint-without-arrays": (2, lambda ws, t: [
        "ik-predict", "--target", ws / "target.json", "--out", "{out}",
        "--ckpt", _container(t / "c.hkc", {"kind": "ik_net_checkpoint"})]),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_documented_exit_code(name, ws, tmp_path):
    expected, argv = TABLE[name]
    code, err = run([str(a).format(out=tmp_path / "out")
                     for a in argv(ws, tmp_path)])
    assert code == expected, err
    assert err.startswith("error: ") and "Traceback" not in err
    if name == "ik-predict-checkpoint-without-arrays":
        assert "missing array 'w0'" in err
    if name.endswith("-ceiling-plus-1"):   # the count's own check, which runs first
        assert "must be <=" in err
    if name == "ik-fit-init-beta-above-bound":   # the reader refuses it, not fit
        assert "i.txt: |beta| must be <=" in err
    if name == "lixel-tiny-sigma":
        assert err == "error: heatmap must not be all zero\n"
    if name == "profile-graph-pool-changes-channels":   # the line at fault, not the next
        assert "g.txt:1: pool keeps the channel count" in err


def test_fk_overflowing_beta_exits_4_without_output(ws, tmp_path):
    pose = _text(tmp_path / "p.txt", "beta: 1e308" + " 0" * 9 + "\n")
    with pytest.warns(UserWarning, match="soft bound"):
        code, err = run(["fk", "--model", ws / "model.hkm", "--pose", pose,
                         "--out", tmp_path / "out"])
    assert code == 4 and "|beta| beyond" in err, err
    assert not (tmp_path / "out" / "mesh.obj").exists()


def test_entry_point_exit_code_and_stderr(ws, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(handkit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "handkit.cli", "fk", "--model", str(tmp_path),
         "--pose", str(ws / "pose.txt"), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _corrupt_model(path: Path, blob: bytes, name: str) -> Path:
    """The small desk hand's container with one defect, written to path."""
    hlen = struct.unpack("<I", blob[4:8])[0]
    header = json.loads(blob[8:8 + hlen])
    payload = blob[8 + hlen:]
    if name == "trailing-bytes":
        payload += bytes(4)
    elif name == "nan-payload":
        payload = np.float32(np.nan).tobytes() + payload[4:]
    elif name == "negative-shape":
        header["arrays"][0]["shape"] = [-1, 3]
    elif name == "shape-not-a-list":
        header["arrays"][0]["shape"] = 7
    elif name == "header-not-an-object":
        header = [header]
    elif name == "wrong-kind":
        header["kind"] = "pose_library"
    elif name == "truncated-payload":
        payload = payload[:-4]
    return _raw_container(path, json.dumps(header).encode(), payload)


@pytest.mark.parametrize("defect", [
    "trailing-bytes", "nan-payload", "negative-shape", "shape-not-a-list",
    "header-not-an-object", "wrong-kind", "truncated-payload"])
def test_container_reader_rejects(defect, ws, tmp_path):
    blob = (ws / "model.hkm").read_bytes()
    with pytest.raises(errors.InputError):
        load_model(_corrupt_model(tmp_path / "m.hkm", blob, defect))


@pytest.mark.parametrize("reader, text", [
    ("annotation", '{"unit": "mm", "joints": [[Infinity, 0, 0]]}'),
    ("annotation", '[[[1e999, 0, 0]]]'),
    # every array of a record is checked for NaN before any shape is
    ("annotation", '{"unit": "mm", "joints": [[0, 0, 0]], "vertices": [[NaN, 0, 0]]}'),
    ("limits", "index_mcp_flex = nan 1.0\n"),
    ("params", "translation 0 nan 0\n"),
    ("pose", "global_rot: 0 inf 0\n"),
    ("graph", "squeeze_excitation 1 32 32 1 1 1e-310\n"),
])
def test_text_readers_reject_non_finite(reader, text, tmp_path):
    from handkit.cli import load_annotation_records, load_params_file, load_pose_file
    from handkit.profiler import load_graph_text
    read = {"annotation": load_annotation_records, "params": load_params_file,
            "limits": bio_dof.DofLimits.load, "pose": load_pose_file,
            "graph": load_graph_text}[reader]
    with pytest.raises(errors.InputError):
        read(_text(tmp_path / "f.txt", text))


@pytest.mark.parametrize("text", [
    "globl_rot 0 0.1 0\n",                                  # unknown key
    "# fit report\nconverged yes\nbio index_mcp_flx 0.1\n",  # unknown DoF
    "global_rot 0 0.1\n", "bio index_mcp_flex\n", "beta 2 0.1 0.2\n",
    "bio index_mcp_flex 0.1\nbio index_mcp_flex 0.2\n",
    "beta 3 0.1\nbeta 3 0.1\n",
    "global_rot 0 0 0\nglobal_rot 0 0.1 0\n",
    "translation 1 2 3\ntranslation 1 2 3\n",
])
def test_params_file_rejects_unknown_malformed_and_repeated_lines(text, tmp_path):
    from handkit.cli import load_params_file
    with pytest.raises(errors.InputError, match="params line"):
        load_params_file(_text(tmp_path / "p.txt", text))


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 2.5}, {"epochs": 2.0, "decay_epochs": ()},
    {"decay_epochs": (30.0, 35)}, {"decay_epochs": (30, 30)},
])
def test_train_config_rejects_non_integral_and_repeated(kwargs):
    with pytest.raises(errors.InputError):
        ik_net.TrainConfig(**kwargs)


def test_camera_grid_size_checked_before_any_camera_is_built(monkeypatch):
    def no_camera(**kwargs):
        raise AssertionError("a CameraPose was built for a refused grid")
    monkeypatch.setattr(synth, "CameraPose", no_camera)
    steps = 2.0 * math.pi / synth.MAX_CAMERAS   # 31 x MAX_CAMERAS positions
    for kwargs in ({"azim_step": steps}, {"elev_step": 1e-320},
                   {"elev_min": 1.0, "elev_max": -1.0}, {"azim_step": 100.0},
                   {"elev_min": 0.0, "elev_max": -0.01}):   # rounds to one row
        with pytest.raises(errors.InputError):
            synth.sample_cameras(**kwargs)


@pytest.mark.parametrize("probability", [math.nan, -0.1, 1.5])
def test_augment_library_rejects_swap_probability(probability):
    lib = synth.PoseLibrary(np.zeros((2, 45)))
    with pytest.raises(errors.InputError):
        synth.augment_library(lib, per_pose=2, swap_probability=probability)


def test_augment_library_refuses_a_library_above_the_ceiling(monkeypatch):
    monkeypatch.setattr(synth, "MAX_AUGMENTED_POSES", 4)
    assert len(synth.augment_library(synth.PoseLibrary(np.zeros((4, 45))),
                                     per_pose=1)) == 4
    with pytest.raises(errors.InputError, match=r"library of 5 poses .*MAX_AUGMENTED_POSES"):
        synth.augment_library(synth.PoseLibrary(np.zeros((5, 45))), per_pose=1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_fscore_and_evaluate_reject_threshold(threshold):
    from handkit import metrics
    points = np.arange(63.0).reshape(21, 3) ** 1.5
    with pytest.raises(errors.InputError):
        metrics.fscore(points, points, threshold)
    with pytest.raises(errors.InputError):
        metrics.evaluate([points], [points], thresholds=(5.0, threshold))


def _nan_vertices() -> np.ndarray:
    vertices = np.zeros((8, 3))
    vertices[3, 0] = np.nan
    return vertices


@pytest.mark.parametrize("kwargs, error", [
    ({"joints": _nan_joints()}, errors.InputError),
    ({"vertices": _nan_vertices()}, errors.InputError),
    ({"vertices": np.zeros((8, 2))}, errors.ShapeError),
    ({"vertices": np.zeros(24)}, errors.ShapeError),
])
def test_fit_target_rejects_at_construction(kwargs, error):
    from handkit.ik_optim import FitTarget
    with pytest.raises(error):
        FitTarget(**kwargs)


def test_fit_rejects_misshapen_initial_parameters():
    from handkit import ik_optim
    model = make_desk_hand_small()
    target = ik_optim.FitTarget(joints=np.zeros((21, 3)))
    for kwargs in ({"init_bio": np.zeros(22)}, {"init_beta": np.zeros(11)},
                   {"init_rot": np.zeros((1, 3))}):
        with pytest.raises(errors.ShapeError):
            ik_optim.fit(model, target, config=ik_optim.FitConfig(iterations=1),
                         **kwargs)


def _nan(*shape) -> np.ndarray:
    values = np.zeros(shape)
    values.flat[1] = np.nan
    return values


_RAGGED = [[1.0, 2.0], [3.0]]
_CAM = synth.CameraPose(0.0, 0.0)
_LIB = synth.PoseLibrary(np.zeros((2, 45)))
_SPREAD = np.arange(63.0).reshape(21, 3) ** 1.5   # 21 points, not collinear


def _backward_b2(model, **cotangents):
    """fk_backward on a B = 2 cache that holds every output."""
    cache = kinematics.fk_forward(model, np.zeros((2, 45)), want_vertices=True,
                                  want_regressed=True, need_grad=True)
    return kinematics.fk_backward(model, cache, **cotangents)


def _fed_8_channels(kind):
    """profile of a graph whose 16-channel ``kind`` layer is fed 8 channels."""
    return profiler.profile(profiler.NetGraph("g", [
        ("a", profiler.LayerSpec("conv", in_channels=3, out_channels=8)),
        ("b", profiler.LayerSpec(kind, in_channels=16, out_channels=16))]), 8)


def _net_backward_after_inference():
    """MlpIk.backward after an inference forward, which keeps no tape."""
    net = ik_net.MlpIk(seed=0)
    net.forward(np.zeros((2, ik_net.FEATURE_DIM)), training=False)
    net.backward(np.zeros((2, bio_dof.DOF_COUNT)), np.zeros((2, 10)))


# name -> (family class, call on the small desk hand): one row per library
# entry point that checks a value where it enters
def _load_reparented_model(model):
    """load_model of a hand file whose little MCP hangs under the ring MCP."""
    parents = np.array(kinematics.PARENTS, dtype=np.int32)
    parents[17] = 13
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.hkm"
        write_container(path, {"kind": "hand_model", "units": "mm"}, {
            "rest_vertices": model.rest_vertices, "shape_basis": model.shape_basis,
            "joint_regressor": model.joint_regressor,
            "skinning_weights": model.skinning_weights, "parents": parents,
            "faces": model.faces})
        return load_model(path)


def _with(model, name, index, value):
    """``model`` rebuilt with one entry of its array ``name`` set to ``value``."""
    array = getattr(model, name).astype(type(value))
    array[index] = value
    return dataclasses.replace(model, **{name: array})


def _mano(v_template=np.zeros((778, 3)), **options):
    """``from_mano_arrays`` of valid MANO-layout arrays (778 vertices, meters)
    but ``v_template`` and ``options``."""
    j_regressor = np.zeros((16, 778))
    j_regressor[:, 0] = 1.0
    weights = np.zeros((778, 16))
    weights[:, 0] = 1.0
    return from_mano_arrays(v_template, np.zeros((778, 3, 10)), j_regressor, weights,
                            np.array([[0, 1, 2]]), **options)


def _pairs(model, bio=np.zeros((4, 23)), beta=np.zeros((4, 10)),
           skeletons=np.zeros((4, 21, 3))):
    """A four-pair ``SynthPairSet`` on ``model`` but the arrays given."""
    return ik_net.SynthPairSet(bio, beta, skeletons, model)


LIBRARY = {
    "ShapeParams-strings": (errors.InputError, lambda m: ShapeParams(["a"] * 10)),
    "ShapeParams-ragged": (errors.InputError, lambda m: ShapeParams(_RAGGED)),
    "ShapeParams-nan": (errors.InputError, lambda m: ShapeParams(_nan(10))),
    "ShapeParams-11-values": (errors.ShapeError, lambda m: ShapeParams(np.zeros(11))),
    "Skeleton-misshapen-nan": (errors.InputError, lambda m: Skeleton(_nan(5, 3))),
    "Skeleton-none": (errors.InputError, lambda m: Skeleton(None)),
    "Skeleton-20-joints": (errors.ShapeError, lambda m: Skeleton(np.zeros((20, 3)))),
    "load_model-reparented-tree": (errors.ShapeError, _load_reparented_model),
    "HandModel-nan-rest-vertex": (errors.InputError, lambda m: _with(
        m, "rest_vertices", (0, 1), np.nan)),
    "HandModel-string-weights": (errors.InputError, lambda m: dataclasses.replace(
        m, skinning_weights=m.skinning_weights.astype(str))),
    "HandModel-fractional-face": (errors.InputError, lambda m: _with(
        m, "faces", (0, 0), 0.7)),
    "HandModel-face-past-the-mesh": (errors.ShapeError, lambda m: _with(
        m, "faces", (0, 0), m.vertex_count)),
    "HandModel-9-shape-bases": (errors.ShapeError, lambda m: dataclasses.replace(
        m, shape_basis=m.shape_basis[:9])),
    "write_obj-no-vertices": (errors.InputError, lambda m: write_obj(
        None, m.faces, os.devnull)),
    "write_obj-face-past-the-mesh": (errors.ShapeError, lambda m: write_obj(
        np.zeros((3, 3)), [[0, 1, 5]], os.devnull)),
    "write_obj-fractional-face": (errors.InputError, lambda m: write_obj(
        np.zeros((3, 3)), [[0, 1, 1.5]], os.devnull)),
    "from_mano_arrays-nan-v_template": (errors.InputError, lambda m: _mano(_nan(778, 3))),
    "from_mano_arrays-fractional-tip-vertex": (errors.InputError, lambda m: _mano(
        tip_vertices=(745.5, 333, 444, 555, 672))),
    "from_mano_arrays-two-tip-vertices": (errors.ShapeError, lambda m: _mano(
        tip_vertices=(745, 333))),
    "regress_joints-nan": (errors.InputError, lambda m: regress_joints(
        m, _nan(m.vertex_count, 3))),
    "BioPose-strings": (errors.InputError, lambda m: bio_dof.BioPose(["x"] * 23)),
    "BioPose-ragged": (errors.InputError, lambda m: bio_dof.BioPose(_RAGGED)),
    "sample_uniform-negative-count": (errors.InputError, lambda m: bio_dof.sample_uniform(
        bio_dof.DofLimits.default(), -1, np.random.default_rng(0))),
    "sample_uniform-fractional-count": (errors.InputError, lambda m: bio_dof.sample_uniform(
        bio_dof.DofLimits.default(), 2.5, np.random.default_rng(0))),
    "sample_uniform-string-count": (errors.InputError, lambda m: bio_dof.sample_uniform(
        bio_dof.DofLimits.default(), "3", np.random.default_rng(0))),
    "DofLimits-nan": (errors.InputError, lambda m: bio_dof.DofLimits(
        _nan(23), np.ones(23))),
    "DofLimits-22-values": (errors.ShapeError, lambda m: bio_dof.DofLimits(
        np.zeros(22), np.ones(23))),
    "FitTarget-string-joints": (errors.InputError, lambda m: ik_optim.FitTarget(
        joints=[["a"] * 3] * 21)),
    "FitConfig-fractional-iterations": (errors.InputError, lambda m: ik_optim.FitConfig(
        iterations=2.5)),
    "FitConfig-string-step-size": (errors.InputError, lambda m: ik_optim.FitConfig(
        step_size="0.1")),
    "fit-string-initial-angles": (errors.InputError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))), init_bio=["a"] * 23)),
    "fit-nan-initial-rotation": (errors.InputError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))), init_rot=_nan(3))),
    "fit-initial-beta-above-bound": (errors.InputError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))), np.zeros(23),
        [0.0] * 9 + [-_above(ik_optim.MAX_INIT_BETA)])),
    "FitConfig-bend-weight-above-bound": (errors.InputError, lambda m: ik_optim.FitConfig(
        bend_weight=_above(ik_optim.MAX_BEND_WEIGHT))),
    "FitConfig-step-size-above-bound": (errors.InputError, lambda m: ik_optim.FitConfig(
        step_size=_above(ik_optim.MAX_STEP_SIZE))),
    "FitConfig-iterations-above-bound": (errors.InputError, lambda m: ik_optim.FitConfig(
        iterations=ik_optim.MAX_ITERATIONS + 1)),
    "fit-misshapen-beta": (errors.ShapeError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))), np.zeros(23), np.zeros(11))),
    "fit-no-target": (errors.InputError, lambda m: ik_optim.fit(
        m, None, np.zeros(23), np.zeros(10))),
    "fit-no-model": (errors.InputError, lambda m: ik_optim.fit(
        None, ik_optim.FitTarget(joints=np.zeros((21, 3))))),
    "fit-dict-config": (errors.InputError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))), config={"iterations": 5})),
    "fit-tuple-limits": (errors.InputError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((21, 3))),
        limits=(-np.ones(23), np.ones(23)))),
    "fit-22-angles-per-row": (errors.ShapeError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((2, 21, 3))), np.zeros((2, 22)))),
    "fit-initial-batch-size": (errors.ShapeError, lambda m: ik_optim.fit(
        m, ik_optim.FitTarget(joints=np.zeros((2, 21, 3))), np.zeros((3, 23)))),
    "FitTarget-two-batch-axes": (errors.ShapeError, lambda m: ik_optim.FitTarget(
        joints=np.zeros((2, 2, 21, 3)))),
    "FitTarget-batch-sizes-differ": (errors.ShapeError, lambda m: ik_optim.FitTarget(
        joints=np.zeros((2, 21, 3)), vertices=np.zeros((3, 8, 3)))),
    "featurize_batch-20-joints": (errors.ShapeError, lambda m: ik_net.featurize_batch(
        np.zeros((5, 20, 3)))),
    "featurize_batch-nan": (errors.InputError, lambda m: ik_net.featurize_batch(
        _nan(21, 3) + np.arange(63.0).reshape(21, 3))),
    "MlpIk-negative-seed": (errors.InputError, lambda m: ik_net.MlpIk(seed=-1)),
    "predict-nan-features": (errors.InputError, lambda m: ik_net.predict(
        ik_net.MlpIk(), _nan(2, 80))),
    "predict-79-features": (errors.ShapeError, lambda m: ik_net.predict(
        ik_net.MlpIk(), np.zeros((2, 79)))),
    "SynthPairSet-nan-angles": (errors.InputError, lambda m: _pairs(m, bio=_nan(4, 23))),
    "SynthPairSet-string-shapes": (errors.InputError, lambda m: _pairs(
        m, beta=np.zeros((4, 10)).astype(str))),
    "SynthPairSet-2-shape-rows": (errors.ShapeError, lambda m: _pairs(
        m, beta=np.zeros((2, 10)))),
    "SynthPairSet-22-angles": (errors.ShapeError, lambda m: _pairs(m, bio=np.zeros((4, 22)))),
    "SynthPairSet-20-joint-skeletons": (errors.ShapeError, lambda m: _pairs(
        m, skeletons=np.zeros((4, 20, 3)))),
    "SynthPairSet-no-model": (errors.InputError, lambda m: _pairs(None)),
    "generate_pairs-fractional-count": (errors.InputError, lambda m: ik_net.generate_pairs(
        m, 2.5)),
    "generate_pairs-negative-seed": (errors.InputError, lambda m: ik_net.generate_pairs(
        m, 2, seed=-1)),
    "TrainConfig-negative-seed": (errors.InputError, lambda m: ik_net.TrainConfig(
        seed=-1)),
    "TrainConfig-fractional-seed": (errors.InputError, lambda m: ik_net.TrainConfig(
        seed=1.5)),
    "TrainConfig-string-rate": (errors.InputError, lambda m: ik_net.TrainConfig(
        learning_rate="1e-4")),
    "sample_cameras-string-step": (errors.InputError, lambda m: synth.sample_cameras(
        azim_step="0.1")),
    "sample_cameras-string-bound": (errors.InputError, lambda m: synth.sample_cameras(
        elev_min="0")),
    "PoseLibrary-nan": (errors.InputError, lambda m: synth.PoseLibrary(_nan(2, 45))),
    "PoseLibrary-44-values": (errors.ShapeError, lambda m: synth.PoseLibrary(
        np.zeros((2, 44)))),
    "make_pose_library-fractional-count": (errors.InputError, lambda m:
                                           synth.make_pose_library(m, count=2.5)),
    "make_pose_library-negative-seed": (errors.InputError, lambda m:
                                        synth.make_pose_library(m, count=2, seed=-1)),
    "augment_library-fractional-per-pose": (errors.InputError, lambda m:
                                            synth.augment_library(_LIB, per_pose=1.5)),
    "augment_library-string-probability": (errors.InputError, lambda m:
                                           synth.augment_library(
                                               _LIB, per_pose=2, swap_probability="0.5")),
    "augment_library-negative-seed": (errors.InputError, lambda m: synth.augment_library(
        _LIB, per_pose=2, seed=-1)),
    "project-zero-radius": (errors.InputError, lambda m: synth.project(
        np.zeros((21, 3)), _CAM, 0.0, 500.0, 500.0, 128.0, 128.0)),
    "project-nan-focal-length": (errors.InputError, lambda m: synth.project(
        np.zeros((21, 3)), _CAM, 400.0, np.nan, 500.0, 128.0, 128.0)),
    "CameraPose-string-elevation": (errors.InputError, lambda m: synth.CameraPose(
        "0", 0.0)),
    "fk_backward-misshapen-d_vertices": (errors.ShapeError, lambda m: _backward_b2(
        m, d_vertices=np.ones((2, 5, 3)))),
    "fk_backward-1-row-d_regressed": (errors.ShapeError, lambda m: _backward_b2(
        m, d_regressed=np.ones((1, 21, 3)))),
    "fk_backward-nan-d_regressed": (errors.InputError, lambda m: _backward_b2(
        m, d_regressed=_nan(2, 21, 3))),
    "MlpIk-backward-after-inference": (errors.InputError,
                                       lambda m: _net_backward_after_inference()),
    "project-nan-joints": (errors.InputError, lambda m: synth.project(
        _nan(21, 3), _CAM, 400.0, 500.0, 500.0, 128.0, 128.0)),
    "project-20-joints": (errors.ShapeError, lambda m: synth.project(
        np.zeros((20, 3)), _CAM, 400.0, 500.0, 500.0, 128.0, 128.0)),
    "Heatmap1D-ragged": (errors.InputError, lambda m: lixel.Heatmap1D(_RAGGED)),
    "Heatmap1D-strings": (errors.InputError, lambda m: lixel.Heatmap1D(["a", "b"])),
    "encode-fractional-length": (errors.InputError, lambda m: lixel.encode(
        0.5, length=2.5)),
    "encode-string-coordinate": (errors.InputError, lambda m: lixel.encode("0.5")),
    "encode-infinite-sigma": (errors.InputError, lambda m: lixel.encode(
        0.5, sigma=math.inf)),
    # 2 sigma**2 underflows to 0, or divides a squared distance past the
    # float range: all zero either way, and no RuntimeWarning on the way
    "encode-tiny-sigma": (errors.InputError, lambda m: lixel.encode(0.5, 64, 1e-200)),
    "encode-tiny-sigma-overflow": (errors.InputError, lambda m: lixel.encode(
        0.5, 64, 1e-160)),
    "marginalize-2d-grid": (errors.ShapeError, lambda m: lixel.marginalize(
        np.ones((4, 4)))),
    "mpjpe-nan-points": (errors.InputError, lambda m: metrics.mpjpe(
        _nan(21, 3), np.zeros((21, 3)))),
    "mpjpe-2d-points": (errors.ShapeError, lambda m: metrics.mpjpe(
        np.zeros((21, 2)), np.zeros((21, 2)))),
    "fscore-string-threshold": (errors.InputError, lambda m: metrics.fscore(
        np.zeros((4, 3)), np.zeros((4, 3)), "5")),
    "mpjpe-empty-points": (errors.ShapeError, lambda m: metrics.mpjpe(
        np.zeros((0, 3)), np.zeros((0, 3)))),
    "procrustes_align-empty-points": (errors.ShapeError, lambda m: metrics.procrustes_align(
        np.zeros((0, 3)), np.zeros((0, 3)))),
    "procrustes_align-overflow": (errors.NumericError, lambda m: metrics.procrustes_align(
        _SPREAD * 1e200, _SPREAD)),
    "evaluate-empty-points": (errors.ShapeError, lambda m: metrics.evaluate(
        [np.zeros((0, 3))], [np.zeros((0, 3))])),
    "evaluate-scalar-thresholds": (errors.ShapeError, lambda m: metrics.evaluate(
        [_SPREAD], [_SPREAD], thresholds=5.0)),
    "evaluate-ragged-vertices": (errors.ShapeError, lambda m: metrics.evaluate(
        [_SPREAD] * 2, [_SPREAD] * 2, [_SPREAD, _SPREAD[:20]], [_SPREAD, _SPREAD[:20]])),
    "evaluate-vertex-sample-count": (errors.ShapeError, lambda m: metrics.evaluate(
        [_SPREAD] * 2, [_SPREAD] * 2, [_SPREAD] * 3, [_SPREAD] * 3)),
    "fk_forward-empty-batch": (errors.ShapeError, lambda m: kinematics.fk_forward(
        m, np.zeros((0, 45)))),
    "fk_forward-empty-batch-vertices": (errors.ShapeError, lambda m: kinematics.fk_forward(
        m, np.zeros((0, 45)), want_vertices=True, want_regressed=True, need_grad=True)),
    "fk_forward-string-articulation": (errors.InputError, lambda m: kinematics.fk_forward(
        m, ["a"] * 45)),
    "fk_forward-ragged-translation": (errors.InputError, lambda m: kinematics.fk_forward(
        m, np.zeros(45), translation=_RAGGED)),
    "fk_forward-nan-beta": (errors.NumericError, lambda m: kinematics.fk_forward(
        m, np.zeros(45), _nan(10))),
    # finite, but the shape blend would overflow (no RuntimeWarning either)
    "fk_forward-overflowing-beta": (errors.NumericError, lambda m: kinematics.fk_forward(
        m, np.zeros(45), [1e308] + [0.0] * 9, want_vertices=True)),
    # finite, but its squared norm overflows
    "fk_forward-overflowing-rotation": (errors.NumericError, lambda m: kinematics.fk_forward(
        m, np.zeros(45), global_rot=np.full(3, 1e200))),
    "bend_penalty-20-joints": (errors.ShapeError, lambda m: ik_optim.bend_penalty_with_grad(
        np.ones((20, 3)))),
    "bend_penalty-string": (errors.InputError, lambda m: ik_optim.bend_penalty_with_grad(
        "joints")),
    "bend_penalty-2d-points": (errors.ShapeError, lambda m: ik_optim.bend_penalty_with_grad(
        np.arange(42.0).reshape(21, 2))),
    "decode-all-zero-row": (errors.InputError, lambda m: lixel.decode(
        np.stack([np.ones(8), np.zeros(8)]))),
    "decode-scalar": (errors.ShapeError, lambda m: lixel.decode(1.0)),
    "LayerSpec-fractional-kernel": (errors.InputError, lambda m: profiler.LayerSpec(
        "conv", kernel=2.5)),
    "LayerSpec-string-se-ratio": (errors.InputError, lambda m: profiler.LayerSpec(
        "squeeze_excitation", se_ratio="4")),
    "LayerSpec-infinite-se-ratio": (errors.InputError, lambda m: profiler.LayerSpec(
        "squeeze_excitation", se_ratio=math.inf)),
    "LayerSpec-pool-changes-channels": (errors.InputError, lambda m: profiler.LayerSpec(
        "pool", in_channels=64, out_channels=32)),
    "profile-fractional-input-stride": (errors.InputError, lambda m: profiler.profile(
        profiler.NetGraph("g", [("s", profiler.LayerSpec("conv"))], input_stride=1.5),
        resolution=3)),
    "decoder_block-unknown-variant": (errors.InputError, lambda m: profiler.decoder_block(
        "D", 16)),
    "NetGraph-fractional-input-stride": (errors.InputError, lambda m: profiler.NetGraph(
        "g", [("s", profiler.LayerSpec("conv"))], input_stride=1.5)),
    "profile-pool-wrong-channels": (errors.ShapeError, lambda m: _fed_8_channels("pool")),
    "profile-elementwise-wrong-channels": (errors.ShapeError,
                                           lambda m: _fed_8_channels("elementwise")),
    "profile-squeeze_excitation-wrong-channels": (
        errors.ShapeError, lambda m: _fed_8_channels("squeeze_excitation")),
    "profile-string-resolution": (errors.InputError, lambda m: profiler.profile(
        profiler.resnet50(), "256")),
    "profile-zero-resolution": (errors.InputError, lambda m: profiler.profile(
        profiler.resnet50(), 0)),
    "profile-fractional-resolution": (errors.InputError, lambda m: profiler.profile(
        profiler.resnet50(), 64.0)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_entry_points_raise_the_family(name, desk_small):
    error, call = LIBRARY[name]
    with pytest.raises(error):
        call(desk_small)


def test_check_helpers_keep_the_input_rule():
    # not numeric, then not finite, then wrong shape
    with pytest.raises(errors.InputError, match="beta must be finite"):
        errors.as_array(_nan(3), (10,), "beta")
    with pytest.raises(errors.ShapeError, match=r"\(\.\.\., 21, 3\), got \(20, 3\)"):
        errors.as_array(np.zeros((20, 3)), (..., 21, 3), "skeletons")
    assert errors.as_array(np.zeros((2, 5)), 10, "beta").shape == (10,)
    joints = np.zeros((21, 3))
    assert errors.as_array(joints, (None, 3), "joints") is joints
    assert errors.as_number(np.int64(3), "count", 1, integer=True) == 3
    assert type(ik_net.TrainConfig(epochs=np.int64(3), decay_epochs=(1,)).epochs) is int
    for value in ("3", 2.5, None):
        with pytest.raises(errors.InputError, match="count must be an integer"):
            errors.as_number(value, "count", integer=True)
    for value in ("0.5", b"1", 1j, None):
        with pytest.raises(errors.InputError, match="rate must be a number"):
            errors.as_number(value, "rate")
    with pytest.raises(errors.InputError, match="rate must be > 0"):
        errors.as_number(0.0, "rate", above=0)
    assert errors.as_number(1, "p", 0, 1) == 1.0


def test_family_and_aliases():
    for cls, code in ((errors.InputError, 2), (errors.ShapeError, 3),
                      (errors.NumericError, 4)):
        assert issubclass(cls, errors.HandkitError)
        assert issubclass(cls, ValueError) and cls.exit_code == code
    # every module raises the family under its own names: no second name
    # (an assignment or an import alias) is ever bound to an errors class
    family = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.HandkitError)}
    aliases = []
    for path in sorted(Path(handkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "errors":
                aliases += [f"{path.name}: {a.asname}" for a in node.names
                            if a.name in family and a.asname not in (None, a.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                name = getattr(value, "id", getattr(value, "attr", None))
                if name in family:
                    aliases.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not aliases


# ---------------------------------------------------------------------------
# fuzzing: mutated inputs for every reader, through every command
# ---------------------------------------------------------------------------

_NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")


def _mutate(data: bytes, ops) -> bytes:
    for op, pos, blob in ops:
        if op == "number":
            numbers = list(_NUMBER.finditer(data))
            if numbers:
                match = numbers[pos % len(numbers)]
                data = data[:match.start()] + blob + data[match.end():]
        elif op == "replace":
            pos %= max(len(data), 1)
            data = data[:pos] + blob + data[pos + len(blob):]
        elif op == "truncate":
            data = data[:pos % (len(data) + 1)]
        else:
            lines = data.split(b"\n")
            i = pos % len(lines)
            if op == "drop-line":
                del lines[i]
            else:
                lines.insert(i, lines[i])
            data = b"\n".join(lines)
    return data


# positions favour the start of a file, where headers and first lines sit
_position = st.one_of(st.integers(0, 600), st.integers(0, 2 ** 20))
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("replace"), _position,
              st.one_of(st.binary(min_size=1, max_size=3),
                        st.sampled_from([b"nan", b"-", b"9e9", b"0", b"]",
                                         b"\xff", b"\x7f\x7f"]))),
    st.tuples(st.just("number"), _position,
              st.sampled_from([b"nan", b"inf", b"-1e308", b"1e308", b"0",
                               b"-0.0", b"1e-310", b"2", b"-3", b"99999",
                               b"2.5"])),
    st.tuples(st.just("truncate"), _position, st.just(b"")),
    st.tuples(st.sampled_from(["drop-line", "dup-line"]), _position,
              st.just(b""))), min_size=1, max_size=4)

# (file mutated, command reading it); {f} is the mutated copy
FUZZ = {
    "fk-model": ("model.hkm", ["fk", "--model", "{f}", "--pose",
                               "{ws}/pose.txt", "--out", "{out}"]),
    "fk-model-text": ("model_text.hkm", ["fk", "--model", "{f}", "--pose",
                                         "{ws}/pose.txt", "--out", "{out}"]),
    "fk-pose": ("pose.txt", ["fk", "--model", "{ws}/model.hkm", "--pose", "{f}",
                             "--out", "{out}"]),
    "ik-fit-target": ("target.json", [
        "ik-fit", "--model", "{ws}/model.hkm", "--target", "{f}", "--init",
        "{ws}/init.txt", "--iterations", "2", "--out", "{out}"]),
    "ik-fit-init": ("init.txt", [
        "ik-fit", "--model", "{ws}/model.hkm", "--target", "{ws}/target.json",
        "--init", "{f}", "--iterations", "2", "--out", "{out}"]),
    "ik-fit-limits": ("limits.txt", [
        "ik-fit", "--model", "{ws}/model.hkm", "--target", "{ws}/target.json",
        "--init", "{ws}/init.txt", "--limits", "{f}", "--iterations", "2",
        "--out", "{out}"]),
    "ik-fit-from-ik-net": ("net.hkc", [
        "ik-fit", "--model", "{ws}/model.hkm", "--target", "{ws}/target.json",
        "--from-ik-net", "{f}", "--iterations", "2", "--out", "{out}"]),
    "ik-train-limits": ("limits.txt", [
        "ik-train", "--model", "{ws}/model.hkm", "--limits", "{f}", "--pairs",
        "32", "--epochs", "1", "--decay-epoch", "0", "--out", "{out}"]),
    "ik-predict-ckpt": ("net.hkc", ["ik-predict", "--ckpt", "{f}", "--target",
                                    "{ws}/target.json", "--out", "{out}"]),
    "ik-predict-target": ("target.json", ["ik-predict", "--ckpt",
                                          "{ws}/net.hkc", "--target", "{f}",
                                          "--out", "{out}"]),
    "eval-pred": ("target.json", ["eval", "--pred", "{f}", "--gt",
                                  "{ws}/target.json", "--out", "{out}/r.txt"]),
    "profile-graph": ("graph.txt", ["profile", "--graph", "{f}",
                                    "--resolution", "64"]),
    "synth-poses-library": ("library.hkc", [
        "synth", "poses", "--library", "{f}", "--per-pose", "2",
        "--out", "{out}/p.hkc"]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on odd values
@pytest.mark.parametrize("name", sorted(FUZZ))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(ops=MUTATIONS)
def test_fuzz_mutated_inputs(name, ops, ws):
    source, template = FUZZ[name]
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / source
        mutated.write_bytes(_mutate((ws / source).read_bytes(), ops))
        argv = [a.format(f=mutated, ws=ws, out=Path(tmp) / "out")
                for a in template]
        code, err = run(argv)
    assert code in CONTRACT, err
    assert "Traceback" not in err


_odd = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on odd values
@settings(derandomize=True, deadline=None, max_examples=40)
@given(coord=st.one_of(_odd, st.floats(-0.5, 1.5)),
       length=st.integers(-2, 200),
       sigma=st.one_of(_odd, st.floats(1e-6, 50.0)),
       azim=st.one_of(_odd, st.floats(0.2, 7.0)),
       elev=st.one_of(_odd, st.floats(0.2, 7.0)),
       elev_min=st.one_of(_odd, st.floats(-3.0, 3.0)),
       step=st.one_of(_odd, st.floats(1e-4, 10.0)),
       bend=st.one_of(_odd, st.floats(0.0, 10.0)),
       rate=st.one_of(_odd, st.floats(0.0, 10.0)))
def test_fuzz_arguments(coord, length, sigma, azim, elev, elev_min, step, bend,
                        rate, ws):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (
                ["lixel", f"--coord={coord}", f"--length={length}",
                 f"--sigma={sigma}", "--out", f"{tmp}/h.txt"],
                ["synth", "cameras", f"--azim-step={azim}",
                 f"--elev-step={elev}", f"--elev-min={elev_min}",
                 "--out", f"{tmp}/c.csv"],
                _ik_fit(ws, "--target", ws / "target.json", "--init",
                        ws / "init.txt", "--iterations", "3",
                        f"--step-size={step}", f"--bend-weight={bend}"),
                _ik_train(ws, "--pairs", "32", "--epochs", "1",
                          "--decay-epoch", "0", f"--rate={rate}"),
                ["model", "desk", "--small", "--out", tmp]):  # a directory
            code, err = run([str(a).format(out=f"{tmp}/out") for a in argv])
            assert code in CONTRACT, err
            assert "Traceback" not in err
